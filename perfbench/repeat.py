#!/usr/bin/env python3
"""Repeat mode: run one workload K times and report how steady it is.

For every metric of the chosen mode it prints the median, the first and
third quartile (Python's ``statistics.quantiles(values, n=4)``) and the
relative spread ``(q3 - q1) / median``. An end-to-end metric whose
spread exceeds its bound in ``BENCHMARK.json`` is flagged ``OUT`` (the
spread of ``setup_s`` is reported but not gated), and one above a third
of its bound ``WARN``.

Each run is a separate process with its own seed, exactly as the
benchmark command in ``BENCHMARK.json`` is run:

    python3 perfbench/repeat.py --workload zoo-serial --runs 10
    python3 perfbench/repeat.py --workload serve-mixed --runs 5 --trace 1

Run it from the repository root. Exit code 1 when any run fails or any
end-to-end metric is out of bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# A first run also builds the package, which can take several minutes.
RUN_TIMEOUT_S = 900


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - started
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, wall, proc.stderr


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    if med:
        spread = (q3 - q1) / med
    else:
        spread = 0.0 if q3 == q1 else float("inf")
    return med, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    table = bench["per_layer" if opts.trace else "end_to_end"]
    bounds = {m["name"]: m for m in table}

    failed = False
    values = {name: [] for name in bounds}
    walls = []
    for k in range(opts.runs):
        seed = opts.seed_base + k
        code, result, wall, err = run_once(bench["command"], opts.workload, seed,
                                           seconds, opts.trace)
        walls.append(wall)
        ok = code == 0 and result is not None and result.get("correct") is True
        status = "ok" if ok else "FAILED (exit %d)" % code
        print("run %d seed %d: %s in %.1f s" % (k + 1, seed, status, wall), flush=True)
        if not ok:
            failed = True
            sys.stderr.write(err[-2000:])
            continue
        for name in bounds:
            metric = result["metrics"].get(name)
            if metric is None:
                print("  missing metric %s" % name)
                failed = True
            else:
                values[name].append(metric["value"])
    print("\n%s: %d runs of %d s, wall per run median %.1f s (max %.1f s)"
          % (opts.workload, opts.runs, seconds, statistics.median(walls), max(walls)))
    print("%-30s %14s %14s %14s %8s %7s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    for name, spec in bounds.items():
        vals = values[name]
        if not vals:
            continue
        med, q1, q3, spread = summarize(vals)
        bound = spec.get("bound")
        flag = ""
        if bound is not None:
            if name == "setup_s":
                flag = "(not gated)"
            elif spread > bound:
                flag, failed = "OUT", True
            elif spread > bound / 3:
                flag = "WARN"
        print("%-30s %14.6g %14.6g %14.6g %7.2f%% %7s %s"
              % (name, med, q1, q3, 100 * spread,
                 "" if bound is None else "%.0f%%" % (100 * bound), flag))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
