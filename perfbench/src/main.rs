//! End-to-end and per-layer benchmark of the MPress planner and the
//! `mpress-serve` daemon.
//!
//! ```text
//! perfbench --workload zoo-serial|zoo-parallel|serve-mixed --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, measured in a separate traced run whose spans are
//! written to `perfbench/out/`. The exit code is 1 when any correctness
//! check fails and 2 on a usage error. See `perfbench/README.md`.

mod alloc;
mod serve;
mod stats;
mod trace;
mod zoo;

use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_rate", "ratio"),
    ("sim_tflops_geomean", "TFLOPS"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// metric that belongs to another workload reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.lower_ms", "ms"),
    ("core.profile_ms", "ms"),
    ("core.plan_self_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.cost_profile_us", "us"),
    ("analyze.certify_us", "us"),
    ("analyze.verify_us", "us"),
    ("planner.emulator_runs", "count"),
    ("planner.cache_hits", "count"),
    ("planner.bounds_pruned", "count"),
    ("planner.bound_aborts", "count"),
    ("planner.refinement_rounds", "count"),
    ("planner.est_emulation_share", "ratio"),
    ("par.speculative_runs", "count"),
    ("par.speculation_wasted", "count"),
    ("par.useful_speculation_ratio", "ratio"),
    ("par.steals", "count"),
    ("par.peak_workers", "count"),
    ("sim.d2d_traffic_gb", "GB"),
    ("sim.host_traffic_gb", "GB"),
    ("sim.recompute_s", "s"),
    ("alloc.per_plan", "count"),
    ("serve.rtt_stats_ms", "ms"),
    ("api.codec_us", "us"),
    ("api.execute_hit_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("api.execute_miss_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.overloaded", "count"),
    ("cache.plan_hit_rate", "ratio"),
    ("cache.plan_evictions", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Planner and pool knobs read from the environment. A run refuses to
/// start when any is set, so every run measures the defaults.
const PLANNER_ENV_KNOBS: &[&str] = &[
    "MPRESS_JOBS",
    "MPRESS_DELTA",
    "MPRESS_BOUNDS",
    "MPRESS_BOUND_ABORT",
    "MPRESS_PREFILTER",
    "MPRESS_VERIFY",
    "MPRESS_SERIAL_CUTOFF",
    "MPRESS_POOL_UNCLAMPED",
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
    /// Context printed with the report (estimators, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload zoo-serial|zoo-parallel|serve-mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seconds expects an integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["zoo-serial", "zoo-parallel", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(15);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(out: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit) in table {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(parts.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inherited: Vec<&str> = PLANNER_ENV_KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !inherited.is_empty() {
        eprintln!(
            "error: planner knobs inherited from the environment: {}; unset them so the \
             benchmark measures the defaults",
            inherited.join(", ")
        );
        return ExitCode::from(2);
    }

    let tracer = trace::Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "zoo-serial" => zoo::run(1, nproc(), args.seed, args.seconds, &tracer),
        "zoo-parallel" => zoo::run(nproc(), 1, args.seed, args.seconds, &tracer),
        _ => serve::run(args.seed, args.seconds, &tracer),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    if tracer.enabled() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("trace: {}", path.display());
        for (name, t) in tracer.totals() {
            println!(
                "  span {name:<18} n={:<5} total {:>10.3} ms  self {:>10.3} ms",
                t.count,
                t.total_s * 1e3,
                t.self_s * 1e3
            );
        }
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("  note: {note}");
    }
    for (name, unit) in table {
        match out.metrics.get(name) {
            Some(v) => println!("  {name:<30} {v:>14.4} {unit}"),
            None => println!(
                "  {name:<30} {:>14} {unit} (not measured by this workload)",
                0
            ),
        }
    }
    for failure in &out.failures {
        println!("  FAIL: {failure}");
    }
    let missing: Vec<&str> = END_TO_END
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !args.trace && !out.metrics.contains_key(n))
        .collect();
    let correct =
        out.attempted > 0 && out.failed == 0 && out.failures.is_empty() && missing.is_empty();
    if !missing.is_empty() {
        println!(
            "  FAIL: end-to-end metrics not measured: {}",
            missing.join(", ")
        );
    }
    let metrics = match json_metrics(&out, table) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
