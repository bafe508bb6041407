//! `zoo-serial` and `zoo-parallel`: plan every zoo case in a closed loop
//! with a single caller, at pool width 1 or `nproc`.
//!
//! A run is: set-up ([`SETUP_BEFORE`] times: build and lower the 20
//! jobs and plan one warm case) → the measured sweeps (in the traced
//! run, as many traced sweeps instead), each followed by one more
//! set-up; each case's first plan is its reference (fingerprint,
//! simulated TFLOPS) → one untimed sweep at the other width whose plans
//! must equal the reference (jobs=1 ≡ jobs=N). Every plan must pass the
//! verifier.
//!
//! Estimators are medians per case across sweeps, so a slow first
//! sweep (pool and allocator warm-up) or a noisy neighbour during one
//! plan does not move them.
//!
//! The number of measured sweeps follows from `--seconds` alone, not
//! from the clock, so the sample count, and with it the tail
//! percentile, is the same on every commit.

use crate::stats::{self, Rng};
use crate::trace::{self, Tracer};
use crate::{alloc, Outcome};
use mpress::{Mpress, MpressPlan, Planner, PlannerConfig, Profile};
use mpress_analyze::{check_plan, BoundsAnalyzer, PlanVerifier};
use mpress_bench::jobs::{bert_job, gpt_job};
use mpress_hw::Machine;
use mpress_model::zoo;
use mpress_pipeline::{LoweredJob, PipelineJob};
use mpress_sim::{SimArena, SimReport, Simulator};

/// Set-ups before the first sweep; one more follows every sweep, and
/// `setup_s` is the median of all of them, so it samples the host across
/// the whole run like the other metrics rather than its first second.
const SETUP_BEFORE: usize = 3;
/// One jobs=1 sweep on the 2-core reference box; converts `--seconds`
/// into a fixed sweep count.
const NOMINAL_SWEEP_S: f64 = 3.6;
/// The case planned once per set-up to warm the pool and allocator:
/// Bert-1.67B on DGX-1, a mid-sized search.
const WARM_CASE: &str = "Bert-1.67B";

struct Case {
    name: String,
    job: PipelineJob,
}

/// The 20 zoo cases: every Bert and GPT variant on DGX-1 and DGX-2,
/// built as the paper runs them.
fn build_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for machine in [Machine::dgx1(), Machine::dgx2()] {
        for model in zoo::bert_variants() {
            let name = format!("{} on {}", model.name(), machine.name());
            cases.push(Case {
                name,
                job: bert_job(model, machine.clone()),
            });
        }
        for model in zoo::gpt_variants() {
            let name = format!("{} on {}", model.name(), machine.name());
            cases.push(Case {
                name,
                job: gpt_job(model, machine.clone()),
            });
        }
    }
    cases
}

/// Measured sweeps for a run of `seconds`.
pub fn sweeps(seconds: u64) -> usize {
    ((seconds as f64 / NOMINAL_SWEEP_S).round() as usize).max(2)
}

/// Identity of a chosen plan: mapping, every directive, refinement
/// depth and the emulated makespan.
fn fingerprint(plan: &MpressPlan) -> u64 {
    let text = format!(
        "{:?}|{:?}|{}|{}",
        plan.device_map,
        plan.instrumentation,
        plan.refinement_rounds,
        plan.baseline.makespan.to_bits()
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One set-up: build and lower the 20 jobs, and plan the warm case to
/// warm the pool and the allocator. Returns the jobs and its wall time.
fn set_up() -> Result<(Vec<Case>, f64), String> {
    let start = trace::now();
    let cases = build_cases();
    for c in &cases {
        c.job
            .lower()
            .map_err(|e| format!("{}: lowering failed: {e}", c.name))?;
    }
    let warm = cases
        .iter()
        .find(|c| c.name.starts_with(WARM_CASE))
        .ok_or("warm case missing from the zoo")?;
    plan_case(&warm.job)?;
    Ok((cases, trace::since(start)))
}

/// What every sweep loop needs: the cases, how many sweeps, and where
/// the set-up that follows each sweep records its time.
struct Sweeps<'a> {
    cases: &'a [Case],
    n_sweeps: usize,
    setup_samples: &'a mut Vec<f64>,
}

fn plan_case(job: &PipelineJob) -> Result<(MpressPlan, LoweredJob), String> {
    Mpress::builder()
        .job(job.clone())
        .build()
        .plan()
        .map_err(|e| format!("planning failed: {e}"))
}

/// Per-case reference data from the first plan of each case.
struct Reference {
    fingerprint: u64,
    tflops: f64,
}

struct Run<'a> {
    cases: &'a [Case],
    reference: Vec<Option<Reference>>,
    failures: Vec<String>,
}

impl Run<'_> {
    /// Counts a plan as correct when it matches the case's first plan
    /// and passes the verifier clean. The first plan of a case becomes
    /// the reference, and its simulated TFLOPS are recorded.
    fn check(
        &mut self,
        i: usize,
        plan: &MpressPlan,
        lowered: &LoweredJob,
        what: &str,
    ) -> Result<bool, String> {
        let case = &self.cases[i];
        let print = fingerprint(plan);
        let reference = match &self.reference[i] {
            Some(r) => r,
            None => {
                let report = simulate(&case.job, lowered, plan)?;
                self.reference[i].insert(Reference {
                    fingerprint: print,
                    tflops: tflops(&case.job, &report),
                })
            }
        };
        if print != reference.fingerprint {
            self.failures.push(format!(
                "{}: {what} plan differs from the first plan",
                case.name
            ));
            return Ok(false);
        }
        let report = check_plan(
            case.job.machine(),
            &lowered.graph,
            &plan.instrumentation,
            &plan.device_map,
        );
        if !report.is_clean() {
            self.failures.push(format!(
                "{}: {what} plan fails the verifier: {}",
                case.name,
                report.summary()
            ));
            return Ok(false);
        }
        Ok(true)
    }
}

fn simulate(
    job: &PipelineJob,
    lowered: &LoweredJob,
    plan: &MpressPlan,
) -> Result<SimReport, String> {
    Simulator::new(
        job.machine(),
        &lowered.graph,
        &plan.instrumentation,
        plan.device_map.clone(),
    )
    .run()
    .map_err(|e| format!("simulating the chosen plan failed: {e}"))
}

fn tflops(job: &PipelineJob, report: &SimReport) -> f64 {
    if report.makespan > 0.0 && report.oom.is_none() {
        report.achieved_tflops(job.window_flops())
    } else {
        0.0
    }
}

/// Runs a zoo workload at pool width `width` (`other` is the width of
/// the cross-check sweep).
pub fn run(
    width: usize,
    other: usize,
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(seed);
    mpress_par::set_jobs(width);
    out.note(format!(
        "pool width {} (requested {width}, nproc {})",
        mpress_par::pool_width(),
        crate::nproc()
    ));

    let mut setup_samples = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_BEFORE {
        let (cases, secs) = set_up()?;
        setup_samples.push(secs);
        kept = Some(cases);
    }
    let cases = kept.ok_or("no set-up ran")?;

    let mut run = Run {
        cases: &cases,
        reference: (0..cases.len()).map(|_| None).collect(),
        failures: Vec::new(),
    };
    // The traced run replaces the measured sweeps: end-to-end numbers
    // come only from runs with tracing off. Its overhead is the time the
    // recorder spends on its own bookkeeping; a throughput ratio against
    // an untraced phase of the same run moved by ±36% with host speed.
    let n_sweeps = sweeps(seconds);
    let sweep_ctx = Sweeps {
        cases: &cases,
        n_sweeps,
        setup_samples: &mut setup_samples,
    };
    let (mut attempted, mut correct) = if tracer.enabled() {
        let start = trace::now();
        let counts = traced_sweeps(sweep_ctx, &mut rng, tracer, &mut run, &mut out)?;
        out.set(
            "trace.overhead_share",
            tracer.overhead_s() / trace::since(start),
        );
        counts
    } else {
        measured_sweeps(sweep_ctx, &mut rng, &mut run, &mut out)?
    };
    out.set("setup_s", stats::median(&setup_samples));
    let tflops_all: Vec<f64> = run.reference.iter().flatten().map(|r| r.tflops).collect();
    out.set("sim_tflops_geomean", stats::geomean(&tflops_all));
    out.note(format!(
        "sim_tflops_geomean over the {} of {} cases that fit (simulated, not hardware)",
        tflops_all.iter().filter(|t| **t > 0.0).count(),
        tflops_all.len()
    ));

    // Cross-check sweep at the other width, after everything measured so
    // the switch cannot touch a measured sweep.
    mpress_par::set_jobs(other);
    let other_width = mpress_par::pool_width();
    for (i, case) in cases.iter().enumerate() {
        attempted += 1;
        match plan_case(&case.job) {
            Ok((plan, lowered)) => {
                if run.check(i, &plan, &lowered, &format!("width-{other_width}"))? {
                    correct += 1;
                }
            }
            Err(e) => run.failures.push(format!("{}: {e}", case.name)),
        }
    }
    mpress_par::set_jobs(width);
    out.note(format!(
        "jobs={} and jobs={other_width} plans compared on all {} cases",
        mpress_par::pool_width(),
        cases.len()
    ));

    out.attempted = attempted;
    out.failed = attempted - correct;
    out.set("success_rate", correct as f64 / attempted.max(1) as f64);
    out.failures = run.failures;
    Ok(out)
}

/// Measured sweeps: the user-facing `Mpress::plan`, fresh per case.
/// The first plan of each case is the reference the later ones must
/// match. Returns (attempted, correct).
fn measured_sweeps(
    sweep_ctx: Sweeps<'_>,
    rng: &mut Rng,
    run: &mut Run<'_>,
    out: &mut Outcome,
) -> Result<(u64, u64), String> {
    let (cases, n_sweeps) = (sweep_ctx.cases, sweep_ctx.n_sweeps);
    let mut latencies = Probe::new(cases.len());
    let mut heap_peaks = Vec::new();
    let (mut attempted, mut correct) = (0u64, 0u64);
    for _ in 0..n_sweeps {
        let mut order: Vec<usize> = (0..cases.len()).collect();
        rng.shuffle(&mut order);
        let heap_start = alloc::reset_peak();
        for &i in &order {
            attempted += 1;
            let start = trace::now();
            let planned = plan_case(&cases[i].job);
            let secs = trace::since(start);
            match planned {
                Ok((plan, lowered)) => {
                    latencies.push(i, secs * 1e3);
                    if run.check(i, &plan, &lowered, "measured")? {
                        correct += 1;
                    }
                }
                Err(e) => run.failures.push(format!("{}: {e}", cases[i].name)),
            }
        }
        heap_peaks.push(alloc::peak_above_mb(heap_start));
        sweep_ctx.setup_samples.push(set_up()?.1);
    }
    // Percentiles are order statistics over the per-case medians, each
    // counted once per sweep: the zoo has 20 heterogeneous cases, so a
    // pooled sample would let one slow plan move a cluster boundary.
    let per_case = latencies.per_case();
    let sweep_ms: f64 = per_case.iter().sum();
    let weighted: Vec<f64> = per_case
        .iter()
        .zip(&latencies.0)
        .flat_map(|(m, samples)| std::iter::repeat_n(*m, samples.len()))
        .collect();
    out.set(
        "throughput_ops_s",
        cases.len() as f64 / (sweep_ms / 1e3).max(f64::MIN_POSITIVE),
    );
    out.set("latency_p50_ms", stats::median(&weighted));
    if let Some((value, pct)) = stats::tail(&weighted) {
        out.set("latency_tail_ms", value);
        out.note(format!(
            "latency_tail_ms is p{pct:.2} over n={} plans ({n_sweeps} sweeps of {} cases)",
            weighted.len(),
            cases.len()
        ));
    }
    out.set("peak_heap_mb", stats::median(&heap_peaks));
    Ok((attempted, correct))
}

/// Per-case samples of one measurement across sweeps.
struct Probe(Vec<Vec<f64>>);

impl Probe {
    fn new(cases: usize) -> Self {
        Probe(vec![Vec::new(); cases])
    }

    fn push(&mut self, case: usize, value: f64) {
        self.0[case].push(value);
    }

    /// Per-case medians across sweeps.
    fn per_case(&self) -> Vec<f64> {
        self.0.iter().map(|v| stats::median(v)).collect()
    }

    /// Mean over cases of the per-case medians.
    fn mean_of_medians(&self) -> f64 {
        stats::mean(&self.per_case())
    }
}

/// Per-sweep totals of the planner's and the pool's counters.
#[derive(Default)]
struct SweepCounts {
    emulator_runs: f64,
    cache_hits: f64,
    bounds_pruned: f64,
    bound_aborts: f64,
    refinement_rounds: f64,
    speculative_runs: f64,
    speculation_wasted: f64,
    steals: f64,
    peak_workers: f64,
    allocs_per_plan: f64,
}

/// Traced sweeps: per case, a `case` span with children
/// `pipeline.lower` → `core.plan` (`Planner::plan` on the lowered job)
/// → unit-cost probes on the chosen plan. Returns (attempted, correct).
fn traced_sweeps(
    sweep_ctx: Sweeps<'_>,
    rng: &mut Rng,
    tracer: &Tracer,
    run: &mut Run<'_>,
    out: &mut Outcome,
) -> Result<(u64, u64), String> {
    let (cases, n_sweeps) = (sweep_ctx.cases, sweep_ctx.n_sweeps);
    let n = cases.len();
    let (mut lower, mut planning, mut profile) = (Probe::new(n), Probe::new(n), Probe::new(n));
    let (mut sim_run, mut cost, mut certify, mut verify) =
        (Probe::new(n), Probe::new(n), Probe::new(n), Probe::new(n));
    let mut runs_per_case = vec![0.0; n];
    let mut sweeps: Vec<SweepCounts> = Vec::new();
    let mut sim_totals = [0.0; 3];
    let (mut attempted, mut correct) = (0u64, 0u64);
    let mut arena = SimArena::new();

    for sweep in 0..n_sweeps {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        mpress_par::reset_stats();
        let mut counts = SweepCounts::default();
        let mut allocs = 0u64;
        for &i in &order {
            let case = &cases[i];
            let machine = case.job.machine();
            attempted += 1;
            let key = (sweep * n + i) as u64;
            let (result, _) = tracer.span("case", 0, key, |span| -> Result<(), String> {
                let (lowered, lower_s) =
                    tracer.span("pipeline.lower", span, key, |_| case.job.lower());
                let lowered =
                    lowered.map_err(|e| format!("{}: lowering failed: {e}", case.name))?;
                let allocs_before = alloc::allocations();
                let (plan, plan_s) = tracer.span("core.plan", span, key, |_| {
                    Planner::new(machine, &case.job, &lowered, PlannerConfig::default()).plan()
                });
                allocs += alloc::allocations() - allocs_before;
                let plan = plan.map_err(|e| format!("{}: planning failed: {e}", case.name))?;
                lower.push(i, lower_s * 1e3);
                planning.push(i, plan_s * 1e3);
                if run.check(i, &plan, &lowered, "traced")? {
                    correct += 1;
                }

                let (p, t) = tracer.span("core.profile", span, key, |_| {
                    Profile::collect(machine, &case.job, &lowered)
                });
                p.map_err(|e| format!("{}: profiling failed: {e}", case.name))?;
                profile.push(i, t * 1e3);

                let (report, t) = tracer.span("sim.run", span, key, |_| {
                    simulate(&case.job, &lowered, &plan)
                });
                let report = report?;
                sim_run.push(i, t * 1e3);

                // Warm the arena's graph tables first: inside the
                // planner, every call but a job's first finds them warm.
                let (graph, dirs, map) = (&lowered.graph, &plan.instrumentation, &plan.device_map);
                arena.cost_profile(machine, graph, dirs, map);
                let (_, t) = tracer.span("sim.cost_profile", span, key, |_| {
                    arena.cost_profile(machine, graph, dirs, map)
                });
                cost.push(i, t * 1e6);

                let analyzer = BoundsAnalyzer::new(machine, graph);
                let (_, t) = tracer.span("analyze.certify", span, key, |_| {
                    analyzer.certify(dirs, map)
                });
                certify.push(i, t * 1e6);
                let verifier = PlanVerifier::new(machine, graph);
                let (_, t) =
                    tracer.span("analyze.verify", span, key, |_| verifier.verify(dirs, map));
                verify.push(i, t * 1e6);

                let s = &plan.search;
                runs_per_case[i] = s.emulator_runs as f64;
                counts.emulator_runs += s.emulator_runs as f64;
                counts.cache_hits += s.cache_hits as f64;
                counts.bounds_pruned += s.bounds_pruned as f64;
                counts.bound_aborts += s.bound_aborts as f64;
                counts.refinement_rounds += plan.refinement_rounds as f64;
                counts.speculative_runs += s.speculative_runs as f64;
                counts.speculation_wasted += s.speculation_wasted as f64;
                if sweep == 0 {
                    sim_totals[0] += report.d2d_traffic.as_f64() / 1e9;
                    sim_totals[1] += report.host_traffic.as_f64() / 1e9;
                    sim_totals[2] += report.recompute_time;
                }
                Ok(())
            });
            if let Err(e) = result {
                run.failures.push(e);
            }
        }
        let pool = mpress_par::stats();
        counts.steals = pool.steals as f64;
        counts.peak_workers = pool.peak_workers as f64;
        counts.allocs_per_plan = allocs as f64 / n as f64;
        sweeps.push(counts);
        sweep_ctx.setup_samples.push(set_up()?.1);
    }

    let median_of =
        |f: fn(&SweepCounts) -> f64| stats::median(&sweeps.iter().map(f).collect::<Vec<_>>());
    out.set("pipeline.lower_ms", lower.mean_of_medians());
    out.set("core.profile_ms", profile.mean_of_medians());
    out.set("core.plan_self_ms", planning.mean_of_medians());
    out.set("sim.run_ms", sim_run.mean_of_medians());
    out.set("sim.cost_profile_us", cost.mean_of_medians());
    out.set("analyze.certify_us", certify.mean_of_medians());
    out.set("analyze.verify_us", verify.mean_of_medians());
    out.set("planner.emulator_runs", median_of(|c| c.emulator_runs));
    out.set("planner.cache_hits", median_of(|c| c.cache_hits));
    out.set("planner.bounds_pruned", median_of(|c| c.bounds_pruned));
    out.set("planner.bound_aborts", median_of(|c| c.bound_aborts));
    out.set(
        "planner.refinement_rounds",
        median_of(|c| c.refinement_rounds),
    );
    // Upper estimate: aborted runs are shorter than a full window.
    let emulation_ms: f64 = runs_per_case
        .iter()
        .zip(sim_run.per_case())
        .map(|(runs, ms)| runs * ms)
        .sum();
    let plan_ms: f64 = planning.per_case().iter().sum();
    out.set(
        "planner.est_emulation_share",
        emulation_ms / plan_ms.max(f64::MIN_POSITIVE),
    );
    let spec = median_of(|c| c.speculative_runs);
    let wasted = median_of(|c| c.speculation_wasted);
    out.set("par.speculative_runs", spec);
    out.set("par.speculation_wasted", wasted);
    out.set(
        "par.useful_speculation_ratio",
        if spec > 0.0 {
            (spec - wasted) / spec
        } else {
            0.0
        },
    );
    out.set("par.steals", median_of(|c| c.steals));
    out.set(
        "par.peak_workers",
        sweeps.iter().map(|c| c.peak_workers).fold(0.0, f64::max),
    );
    out.set("sim.d2d_traffic_gb", sim_totals[0]);
    out.set("sim.host_traffic_gb", sim_totals[1]);
    out.set("sim.recompute_s", sim_totals[2]);
    out.set("alloc.per_plan", median_of(|c| c.allocs_per_plan));
    Ok((attempted, correct))
}
