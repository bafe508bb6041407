//! `serve-mixed`: an in-process `mpress-serve` daemon, fresh per run,
//! driven by an open loop at a fixed offered rate.
//!
//! A run is: set-up ([`SETUP_EACH_SIDE`] times: boot a daemon and prime
//! the hot set through it; the last daemon is kept) → cold in-process
//! reference bodies for every distinct request → the open loop →
//! daemon `stats` → shutdown → as many set-ups again, timed only.
//!
//! The seeded stream is mostly repeats of the primed hot set
//! (plan-cache reads) plus [`MISS_SHARE`] first-seen small configs
//! (cache writes plus real planning). The set of miss configs is the
//! same for every seed, so every seed does the same planning work; the
//! seed picks where the misses fall and which hot requests repeat.
//! Latency is timed from each request's due time. The generator uses
//! `nproc` connections, one thread each, each sending its share of the
//! schedule and reading responses between sends.

use crate::stats::{self, Rng};
use crate::trace::{self, Tracer};
use crate::{alloc, Outcome};
use mpress_api::{
    decode_response_line, encode_request_line, encode_response_line, execute, ApiContext,
    CompareRequest, PlanRequest, Request, Response,
};
use mpress_serve::{Client, ServeConfig, ServerHandle};
use serde_json::Value;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups before the load and again after it; `setup_s` is the median
/// of all of them, so it samples the host at both ends of the run.
const SETUP_EACH_SIDE: usize = 3;
/// Offered load, all connections together.
const RATE_PER_S: f64 = 100.0;
/// Share of requests that are first-seen configs (plan-cache misses).
const MISS_SHARE: f64 = 0.04;
/// How long the generator waits for outstanding responses after the
/// last send.
const DRAIN: Duration = Duration::from_secs(60);
/// Window over which `peak_heap_mb` takes one peak above the window's
/// starting heap; the metric is the median window. Retained state (the
/// plan cache, pooled arenas) is left out: how many arenas the pool
/// keeps depends on how requests happened to overlap.
const HEAP_WINDOW: Duration = Duration::from_secs(1);

/// The primed hot set with its weights in the stream.
fn hot_set() -> Vec<(Request, u32)> {
    let plan = |model: &str| PlanRequest::new(model).microbatches(8);
    vec![
        (Request::Plan(plan("bert-0.64b")), 4),
        (Request::Plan(plan("bert-1.67b")), 3),
        (Request::Plan(plan("bert-0.64b").opts("recompute")), 2),
        (Request::Plan(plan("bert-0.64b").machine("dgx2")), 2),
        (Request::Check(plan("bert-0.64b")), 2),
        (Request::Train(plan("bert-0.35b")), 2),
        (Request::Train(plan("gpt-5.3b").machine("dgx2")), 1),
        (
            Request::Compare(CompareRequest::new("bert-0.35b").microbatches(8)),
            1,
        ),
    ]
}

/// First-seen configs, in a fixed order: small models, few
/// microbatches and restricted technique sets, so one plans in about a
/// millisecond. None of them shares a plan with the hot set.
fn miss_pool() -> Vec<Request> {
    let mut pool = Vec::new();
    for microbatches in [2, 4, 6] {
        for opts in ["recompute", "d2d", "hostswap"] {
            for machine in ["dgx1", "dgx2", "commodity"] {
                for model in ["bert-0.35b", "bert-0.64b", "gpt-5.3b"] {
                    let req = PlanRequest::new(model)
                        .machine(machine)
                        .microbatches(microbatches)
                        .opts(opts);
                    pool.push(match pool.len() % 3 {
                        0 => Request::Plan(req),
                        1 => Request::Check(req),
                        _ => Request::Train(req),
                    });
                }
            }
        }
    }
    pool
}

/// The seeded request stream: indices into `distinct`.
struct Stream {
    distinct: Vec<Request>,
    hot: usize,
    order: Vec<usize>,
}

fn make_stream(seed: u64, seconds: u64) -> Result<Stream, String> {
    let hot = hot_set();
    let n = (RATE_PER_S * seconds as f64).round().max(1.0) as usize;
    let misses = (MISS_SHARE * n as f64).round() as usize;
    let pool = miss_pool();
    if misses > pool.len() {
        return Err(format!(
            "{misses} misses requested but only {} miss configs exist; use fewer --seconds",
            pool.len()
        ));
    }
    // One miss at a seeded slot in each of `misses` equal segments of
    // the stream: the plan cache fills at the same pace for every seed.
    let mut rng = Rng::new(seed);
    let mut miss_order: Vec<usize> = (0..misses).collect();
    rng.shuffle(&mut miss_order);
    let positions: Vec<usize> = (0..misses)
        .map(|k| {
            let (lo, hi) = (k * n / misses, (k + 1) * n / misses);
            lo + rng.below(hi - lo)
        })
        .collect();
    let total_weight: u32 = hot.iter().map(|(_, w)| w).sum();
    let mut order = vec![usize::MAX; n];
    for (&pos, &m) in positions.iter().zip(&miss_order) {
        order[pos] = hot.len() + m;
    }
    for slot in order.iter_mut().filter(|s| **s == usize::MAX) {
        let mut pick = rng.below(total_weight as usize) as u32;
        *slot = hot
            .iter()
            .position(|(_, w)| {
                let hit = pick < *w;
                pick = pick.saturating_sub(*w);
                hit
            })
            .unwrap_or(0);
    }
    let hot_len = hot.len();
    let mut distinct: Vec<Request> = hot.into_iter().map(|(r, _)| r).collect();
    distinct.extend(pool.into_iter().take(misses));
    Ok(Stream {
        distinct,
        hot: hot_len,
        order,
    })
}

fn body_text(result: &Result<Response, mpress_api::ServeError>) -> String {
    match result {
        Ok(r) => serde_json::to_string(&r.body_value()).unwrap_or_default(),
        Err(e) => format!("error:{}", e.code()),
    }
}

/// Boots a daemon and primes the hot set through it (pipelined).
fn boot_and_prime(hot: &[Request]) -> Result<ServerHandle, String> {
    let handle = mpress_serve::start(ServeConfig::default()).map_err(|e| format!("boot: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for req in hot {
        client.send(req).map_err(|e| format!("priming: {e}"))?;
    }
    for _ in hot {
        let decoded = client.recv().map_err(|e| format!("priming: {e}"))?;
        if let Err(e) = decoded.result {
            return Err(format!("priming request {} failed: {e}", decoded.id));
        }
    }
    Ok(handle)
}

/// What one connection saw.
#[derive(Default)]
struct ConnResult {
    /// Latency from the due time, in ms, per response.
    latencies: Vec<f64>,
    late_ms: Vec<f64>,
    correct: u64,
    last_response: Option<Instant>,
    failures: Vec<String>,
}

/// Sends this connection's share of the schedule on time and reads
/// responses in between, on one thread.
fn drive(
    addr: SocketAddr,
    mine: &[usize],
    lines: &[String],
    due: &[Instant],
    expected: &[String],
    stream: &Stream,
    tracer: &Tracer,
) -> Result<ConnResult, String> {
    let mut out = ConnResult::default();
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let (mut next, mut outstanding) = (0, 0usize);
    let mut drain_deadline = None;
    loop {
        let now = trace::now();
        if next < mine.len() && now >= due[mine[next]] {
            let i = mine[next];
            conn.write_all(lines[i].as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            out.late_ms
                .push(now.duration_since(due[i]).as_secs_f64() * 1e3);
            next += 1;
            outstanding += 1;
            continue;
        }
        if next == mine.len() {
            if outstanding == 0 {
                break;
            }
            let deadline = *drain_deadline.get_or_insert(now + DRAIN);
            if now >= deadline {
                out.failures.push(format!(
                    "{outstanding} responses still missing after the drain"
                ));
                break;
            }
        }
        let wait = match (next < mine.len(), drain_deadline) {
            (true, _) => due[mine[next]].saturating_duration_since(now),
            (false, Some(d)) => d.saturating_duration_since(now),
            (false, None) => DRAIN,
        };
        conn.set_read_timeout(Some(wait.max(Duration::from_micros(50))))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        match conn.read(&mut chunk) {
            Ok(0) => return Err("daemon closed the connection".to_owned()),
            Ok(n) => {
                let arrived = trace::now();
                pending.extend_from_slice(&chunk[..n]);
                while let Some(end) = pending.iter().position(|b| *b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=end).collect();
                    outstanding = outstanding.saturating_sub(1);
                    let text = String::from_utf8_lossy(&line);
                    let decoded = decode_response_line(text.trim_end())
                        .map_err(|e| format!("undecodable response: {e}"))?;
                    let Some(i) = (decoded.id as usize)
                        .checked_sub(1)
                        .filter(|i| *i < due.len())
                    else {
                        out.failures
                            .push(format!("unknown response id {}", decoded.id));
                        continue;
                    };
                    let ms = arrived.duration_since(due[i]).as_secs_f64() * 1e3;
                    tracer.record_interval("loadgen.request", 0, i as u64, due[i], arrived);
                    out.latencies.push(ms);
                    out.last_response = Some(arrived);
                    let body = match decoded.result {
                        Ok((_, body)) => serde_json::to_string(&body).unwrap_or_default(),
                        Err(e) => format!("error:{}", e.code()),
                    };
                    let d = stream.order[i];
                    if body == expected[d] {
                        out.correct += 1;
                    } else {
                        out.failures.push(format!(
                            "request {i} ({}): daemon body differs from cold in-process execution",
                            stream.distinct[d].kind()
                        ));
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(format!("recv: {e}")),
        }
    }
    Ok(out)
}

fn stats_counter(stats: &Value, section: &str, name: &str) -> f64 {
    let s = stats.get(section);
    s.and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .or_else(|| s.and_then(|s| s.get(name)))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn daemon_stats(addr: SocketAddr) -> Result<Value, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let decoded = client
        .request(&Request::Stats)
        .map_err(|e| format!("stats: {e}"))?;
    decoded
        .result
        .map(|(_, body)| body)
        .map_err(|e| format!("stats: {e}"))
}

pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let width = crate::nproc();
    mpress_par::set_jobs(width);
    let stream = make_stream(seed, seconds)?;
    let hot: Vec<Request> = stream.distinct[..stream.hot].to_vec();

    // Set-up, several times; the last daemon serves the load.
    let mut setup_samples = Vec::new();
    let mut daemon: Option<ServerHandle> = None;
    for _ in 0..SETUP_EACH_SIDE {
        if let Some(mut old) = daemon.take() {
            old.shutdown();
        }
        let start = trace::now();
        daemon = Some(boot_and_prime(&hot)?);
        setup_samples.push(trace::since(start));
    }
    let mut daemon = daemon.ok_or("no set-up ran")?;
    let addr = daemon.addr();

    // Cold in-process reference bodies, one fresh context per request.
    let mut expected = Vec::with_capacity(stream.distinct.len());
    let mut miss_ms = Vec::new();
    let mut tflops = Vec::new();
    for (d, req) in stream.distinct.iter().enumerate() {
        let ctx = ApiContext::new();
        let span = if d < stream.hot {
            "api.execute_cold"
        } else {
            "api.execute_miss"
        };
        let (result, secs) = tracer.span(span, 0, d as u64, |_| execute(req, &ctx));
        if d >= stream.hot {
            miss_ms.push(secs * 1e3);
        }
        match &result {
            Ok(Response::Train(t)) if t.succeeded => tflops.push(t.tflops),
            Ok(_) => {}
            Err(e) => {
                return Err(format!(
                    "reference execution of a {} request failed: {e}",
                    req.kind()
                ))
            }
        }
        expected.push(body_text(&result));
    }
    let n = stream.order.len();
    let lines: Vec<String> = stream
        .order
        .iter()
        .enumerate()
        .map(|(i, &d)| encode_request_line(i as u64 + 1, &stream.distinct[d]) + "\n")
        .collect();

    // The open loop.
    let overhead_before = tracer.overhead_s();
    let conns = width.max(1);
    let start = trace::now() + Duration::from_millis(20);
    let due: Vec<Instant> = (0..n)
        .map(|i| start + Duration::from_secs_f64(i as f64 / RATE_PER_S))
        .collect();
    let finished = AtomicUsize::new(0);
    let mut heap_peaks = Vec::new();
    let results: Vec<Result<ConnResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<usize> = (c..n).step_by(conns).collect();
                let (lines, due, expected, stream, finished) =
                    (&lines, &due, &expected, &stream, &finished);
                scope.spawn(move || {
                    let r = drive(addr, &mine, lines, due, expected, stream, tracer);
                    finished.fetch_add(1, Ordering::SeqCst);
                    r
                })
            })
            .collect();
        let mut heap_start = alloc::reset_peak();
        let mut window_end = trace::now() + HEAP_WINDOW;
        while finished.load(Ordering::SeqCst) < conns {
            std::thread::sleep(Duration::from_millis(10));
            if trace::now() >= window_end {
                heap_peaks.push(alloc::peak_above_mb(heap_start));
                heap_start = alloc::reset_peak();
                window_end += HEAP_WINDOW;
            }
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".to_owned()))
            })
            .collect()
    });
    if heap_peaks.is_empty() {
        return Err("the load phase was shorter than one heap window".to_owned());
    }

    let mut latencies = Vec::with_capacity(n);
    let mut late = Vec::with_capacity(n);
    let mut correct = 0u64;
    let mut last_response = start;
    for r in results {
        let r = r?;
        latencies.extend(r.latencies);
        late.extend(r.late_ms);
        correct += r.correct;
        last_response = last_response.max(r.last_response.unwrap_or(start));
        out.failures.extend(r.failures);
    }
    out.attempted = n as u64;
    out.failed = n as u64 - correct.min(n as u64);
    out.set("success_rate", correct as f64 / n as f64);
    out.set(
        "throughput_ops_s",
        latencies.len() as f64 / last_response.duration_since(start).as_secs_f64().max(1e-9),
    );
    let p50 = stats::median(&latencies);
    out.set("latency_p50_ms", p50);
    if let Some((value, pct)) = stats::tail(&latencies) {
        out.set("latency_tail_ms", value);
        out.note(format!(
            "latency_tail_ms is p{pct:.2} over n={} requests",
            latencies.len()
        ));
    }
    out.set("sim_tflops_geomean", stats::geomean(&tflops));
    out.set("peak_heap_mb", stats::median(&heap_peaks));
    out.note(format!(
        "{n} requests at {RATE_PER_S} req/s over {conns} connections; {} first-seen configs, \
         {} hot; sim_tflops_geomean over {} train responses (simulated)",
        stream.distinct.len() - stream.hot,
        stream.hot,
        tflops.len()
    ));

    let stats_body = daemon_stats(addr)?;
    let hits = stats_counter(&stats_body, "cache", "plan_hits");
    let misses = stats_counter(&stats_body, "cache", "plan_misses");
    out.set("cache.plan_hit_rate", hits / (hits + misses).max(1.0));
    out.set(
        "cache.plan_evictions",
        stats_counter(&stats_body, "cache", "plan_evictions"),
    );
    out.set(
        "serve.batches",
        stats_counter(&stats_body, "service", "serve.batches"),
    );
    out.set(
        "serve.dedup_hits",
        stats_counter(&stats_body, "service", "serve.dedup_hits"),
    );
    out.set(
        "serve.overloaded",
        stats_counter(&stats_body, "service", "serve.rejected.overloaded"),
    );
    let batch = stats_body
        .get("service")
        .and_then(|s| s.get("histograms"))
        .and_then(|h| h.get("serve.batch_size"));
    let field = |k: &str| {
        batch
            .and_then(|b| b.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    out.set(
        "serve.batch_size_mean",
        field("sum") / field("count").max(1.0),
    );
    out.set("loadgen.late_p99_ms", stats::percentile(&late, 99.0));
    out.set("api.execute_miss_ms", stats::median(&miss_ms));

    if tracer.enabled() {
        // The open loop pins throughput to the offered rate, so tracing
        // can only cost the generator's own time: the share of each
        // connection thread's load time spent recording spans.
        let load_s = last_response.duration_since(start).as_secs_f64();
        out.set(
            "trace.overhead_share",
            (tracer.overhead_s() - overhead_before) / (load_s * conns as f64).max(1e-9),
        );
        layer_probes(&stream, addr, tracer, &mut out, p50)?;
    }
    daemon.shutdown();
    for _ in 0..SETUP_EACH_SIDE {
        let start = trace::now();
        let mut extra = boot_and_prime(&hot)?;
        setup_samples.push(trace::since(start));
        extra.shutdown();
    }
    out.set("setup_s", stats::median(&setup_samples));
    Ok(out)
}

/// Unit costs measured from outside the daemon (traced run only).
fn layer_probes(
    stream: &Stream,
    addr: SocketAddr,
    tracer: &Tracer,
    out: &mut Outcome,
    p50_ms: f64,
) -> Result<(), String> {
    const REPS: usize = 20;
    let hot = &stream.distinct[..stream.hot];

    // Inline `stats` round trips: no batcher, no planner.
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rtt = Vec::new();
    for k in 0..REPS {
        let (r, secs) = tracer.span("serve.stats_rtt", 0, k as u64, |_| {
            client.request(&Request::Stats)
        });
        r.map_err(|e| format!("stats: {e}"))?;
        rtt.push(secs * 1e3);
    }
    out.set("serve.rtt_stats_ms", stats::median(&rtt));

    // In-process execution against a primed context: the floor under p50.
    let ctx = ApiContext::new();
    let mut responses = Vec::new();
    for req in hot {
        responses.push(execute(req, &ctx).map_err(|e| format!("priming: {e}"))?);
    }
    let mut hit_ms = Vec::new();
    for k in 0..REPS {
        for (d, req) in hot.iter().enumerate() {
            let (r, secs) = tracer.span("api.execute_hit", 0, (k * hot.len() + d) as u64, |_| {
                execute(req, &ctx)
            });
            r.map_err(|e| format!("hit execution: {e}"))?;
            hit_ms.push(secs * 1e3);
        }
    }
    let execute_hit = stats::median(&hit_ms);
    out.set("api.execute_hit_ms", execute_hit);
    out.set("serve.overhead_p50_ms", p50_ms - execute_hit);

    // Client-side codec: encode a request line, decode its response line.
    let mut codec_us = Vec::new();
    for k in 0..REPS {
        for (d, (req, resp)) in hot.iter().zip(&responses).enumerate() {
            let line = encode_response_line(d as u64 + 1, &Ok(resp.clone()));
            let (r, secs) = tracer.span("api.codec", 0, (k * hot.len() + d) as u64, |_| {
                let _ = std::hint::black_box(encode_request_line(d as u64 + 1, req));
                decode_response_line(std::hint::black_box(&line))
            });
            r.map_err(|e| format!("codec: {e}"))?;
            codec_us.push(secs * 1e6);
        }
    }
    out.set("api.codec_us", stats::median(&codec_us));
    Ok(())
}
