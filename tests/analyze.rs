//! Cross-crate tests for the static plan verifier (`mpress-analyze`).
//!
//! Three properties anchor the analysis's design:
//!
//! * **Soundness** — every plan the planner emits, across the whole
//!   model zoo on both NVLink machines, verifies clean. This is what
//!   lets the planner hook reject structural errors without ever
//!   changing a chosen plan.
//! * **Sensitivity** — seeded mutations of a *real* planner plan
//!   (retargeted stripes, bogus recomputes, wrong-size maps) each
//!   produce their exact `MP0xx` code, so the codes are usable as a
//!   stable contract by tooling and CI.
//! * **Stable bounds** — the certified makespan lower bound
//!   (`SimArena::cost_profile`) is bit-identical to a reference copy of
//!   the per-call algorithm its prebuilt DAG replaced: the planner keys
//!   its frontier on the bound's bits, so one ulp could change a plan.

use mpress::{Mpress, MpressPlan};
use mpress_analyze::{check_plan, BoundsAnalyzer, BoundsVerdict, Code};
use mpress_bench::jobs::{bert_job, directive_mutations, gpt_job};
use mpress_compaction::{HostTier, InstrumentationPlan, MemoryDirective, StripePlan};
use mpress_graph::{OpKind, TensorKind, TrainingGraph};
use mpress_hw::{DeviceId, Machine, Secs};
use mpress_model::{zoo, TransformerConfig};
use mpress_pipeline::{LoweredJob, PipelineJob};
use mpress_sim::{CostProfile, DeviceMap, SimArena, Simulator};
use std::sync::OnceLock;

fn zoo_jobs(machine: &Machine) -> Vec<(String, PipelineJob)> {
    let bert: Vec<TransformerConfig> = zoo::bert_variants();
    let gpt: Vec<TransformerConfig> = zoo::gpt_variants();
    bert.into_iter()
        .map(|m| (m.to_string(), bert_job(m, machine.clone())))
        .chain(
            gpt.into_iter()
                .map(|m| (m.to_string(), gpt_job(m, machine.clone()))),
        )
        .collect()
}

/// One zoo case planned with the default configuration.
struct PlannedCase {
    /// `"<model> on <machine>"`.
    case: String,
    machine: Machine,
    plan: MpressPlan,
    lowered: LoweredJob,
}

/// Every zoo model on both NVLink machines, planned once and shared by
/// the zoo-wide tests below (planning dominates their cost).
fn planned_zoo() -> &'static [PlannedCase] {
    static ZOO: OnceLock<Vec<PlannedCase>> = OnceLock::new();
    ZOO.get_or_init(|| {
        let mut cases = Vec::new();
        for machine in [Machine::dgx1(), Machine::dgx2()] {
            for (name, job) in zoo_jobs(&machine) {
                let mpress = Mpress::builder().job(job).build();
                let (plan, lowered) = mpress.plan().expect("planning succeeds");
                cases.push(PlannedCase {
                    case: format!("{name} on {}", machine.name()),
                    machine: mpress.machine().clone(),
                    plan,
                    lowered,
                });
            }
        }
        cases
    })
}

/// Soundness: the verifier accepts every planner-emitted plan for every
/// zoo model on both NVLink machines. A single diagnostic here means the
/// planner hook could veto a legitimate candidate — the one thing the
/// analysis must never do.
#[test]
fn verifier_accepts_every_planner_plan_across_zoo_and_machines() {
    for c in planned_zoo() {
        let report = check_plan(
            &c.machine,
            &c.lowered.graph,
            &c.plan.instrumentation,
            &c.plan.device_map,
        );
        assert!(
            report.is_clean(),
            "{}: planner plan flagged:\n{}",
            c.case,
            report.render_table()
        );
        assert_eq!(c.plan.search.verifier_rejections, 0, "{}", c.case);
    }
}

/// A pressured job whose full-MPress plan contains D2D stripes to
/// mutate: Bert-0.64B on DGX-1 (the paper's "medium size" case).
fn d2d_plan() -> (Mpress, mpress::MpressPlan, mpress_pipeline::LoweredJob) {
    let mpress = Mpress::builder()
        .job(bert_job(zoo::bert_0_64b(), Machine::dgx1()))
        .build();
    let (plan, lowered) = mpress.plan().expect("planning succeeds");
    (mpress, plan, lowered)
}

/// Rebuilds the plan with `mutate` applied to every directive.
fn mutate_plan(
    plan: &InstrumentationPlan,
    mut mutate: impl FnMut(mpress_graph::TensorId, &MemoryDirective) -> MemoryDirective,
) -> InstrumentationPlan {
    let mut out = InstrumentationPlan::new();
    for (t, d) in plan.iter() {
        out.assign(t, mutate(t, d));
    }
    out
}

/// Mutation: retarget one stripe to a device the source cannot reach
/// over NVLink. The exact code is MP006 (`BadStripe`), and it is
/// structural — the planner hook would veto this plan.
#[test]
fn retargeted_stripe_yields_mp006() {
    let (mpress, plan, lowered) = d2d_plan();
    let topology = mpress.machine().topology();
    let mut mutated_any = false;
    let mutated = mutate_plan(&plan.instrumentation, |t, d| {
        if mutated_any {
            return d.clone();
        }
        if let MemoryDirective::SwapD2d(stripe) = d {
            let src = plan.device_map.device_of(lowered.graph.tensor(t).stage);
            // DGX-1's cube mesh links each GPU to only four peers, so an
            // unreachable victim always exists.
            let bad = (0..mpress.machine().gpu_count())
                .map(DeviceId)
                .find(|&v| v != src && !topology.reachable(src, v))
                .expect("DGX-1 has unreachable pairs");
            mutated_any = true;
            return MemoryDirective::SwapD2d(StripePlan::single(stripe.total_bytes(), bad, 1));
        }
        d.clone()
    });
    assert!(mutated_any, "expected a D2D stripe in the 0.64B plan");
    let report = check_plan(mpress.machine(), &lowered.graph, &mutated, &plan.device_map);
    assert!(
        report.has_code(Code::BadStripe),
        "expected MP006:\n{}",
        report.render_table()
    );
    assert!(report.has_structural_errors());
}

/// Mutation: recompute a parameter. Statics are never recomputable, so
/// the exact code is MP009 (`BadRecompute`).
#[test]
fn recompute_on_parameter_yields_mp009() {
    let (mpress, plan, lowered) = d2d_plan();
    let param = lowered
        .graph
        .tensors()
        .iter()
        .find(|t| t.kind == TensorKind::Parameter)
        .expect("graph has parameters");
    let mut mutated = plan.instrumentation.clone();
    mutated.assign(param.id, MemoryDirective::Recompute);
    let report = check_plan(mpress.machine(), &lowered.graph, &mutated, &plan.device_map);
    assert!(
        report.has_code(Code::BadRecompute),
        "expected MP009:\n{}",
        report.render_table()
    );
}

/// Mutation: a device map covering the wrong number of stages. The
/// exact code is MP011 (`BadDeviceMap`).
#[test]
fn short_device_map_yields_mp011() {
    let (mpress, plan, lowered) = d2d_plan();
    let short = DeviceMap::identity(lowered.graph.n_stages() - 1);
    let report = check_plan(
        mpress.machine(),
        &lowered.graph,
        &plan.instrumentation,
        &short,
    );
    assert!(
        report.has_code(Code::BadDeviceMap),
        "expected MP011:\n{}",
        report.render_table()
    );
}

/// Soundness of the certified bounds: for every zoo model on both
/// NVLink machines, the emulated makespan and per-device peaks of the
/// planner's chosen plan lie inside the certified intervals, and a
/// `certified-oom` verdict is always confirmed by the engine. (The
/// bench oracle `exp_bench_bounds` additionally sweeps directive
/// mutations; this is the tier-1 cut of the same property.)
#[test]
fn certified_bounds_contain_emulation_across_zoo_and_machines() {
    let mut arena = SimArena::new();
    for c in planned_zoo() {
        let (plan, lowered, case) = (&c.plan, &c.lowered, &c.case);
        let analyzer = BoundsAnalyzer::new(&c.machine, &lowered.graph);
        let bounds =
            analyzer.certify_with_arena(&plan.instrumentation, &plan.device_map, &mut arena);
        let sim = Simulator::new(
            &c.machine,
            &lowered.graph,
            &plan.instrumentation,
            plan.device_map.clone(),
        )
        .run_in(&mut arena)
        .expect("chosen plan emulates");
        assert!(
            sim.makespan <= bounds.makespan_hi * (1.0 + 1e-9),
            "{case}: makespan {} above upper bound {}",
            sim.makespan,
            bounds.makespan_hi
        );
        for (d, peak) in sim.device_peak.iter().enumerate() {
            assert!(
                *peak <= bounds.residency.hi[d],
                "{case}: gpu{d} peak {peak} above upper bound {}",
                bounds.residency.hi[d]
            );
        }
        if sim.oom.is_none() {
            assert!(
                sim.makespan >= bounds.makespan_lo * (1.0 - 1e-9),
                "{case}: makespan {} below lower bound {}",
                sim.makespan,
                bounds.makespan_lo
            );
            for (d, peak) in sim.device_peak.iter().enumerate() {
                assert!(
                    *peak >= bounds.residency.lo[d],
                    "{case}: gpu{d} peak {peak} below lower bound {}",
                    bounds.residency.lo[d]
                );
            }
        }
        if bounds.residency.verdict == BoundsVerdict::CertifiedOom {
            assert!(sim.oom.is_some(), "{case}: certified-oom but completed");
        }
    }
}

/// A bare plan (no directives) for GPT-15.4B on DGX-1 homes every
/// static — parameters, gradients, optimizer state — on its stage's
/// GPU, which is certifiably over the 32 GiB budget before any
/// emulation. The verdict is `certified-oom` and the report carries
/// MP013 for the overloaded devices, as a *model-capacity* error, not a
/// structural one (the plan spec itself is well-formed).
#[test]
fn bare_plan_on_gpt_15_4b_is_certified_oom_mp013() {
    let job = gpt_job(zoo::gpt_15_4b(), Machine::dgx1());
    let lowered = job.lower().expect("paper job lowers");
    let machine = Machine::dgx1();
    let map = DeviceMap::identity(lowered.graph.n_stages());
    let analyzer = BoundsAnalyzer::new(&machine, &lowered.graph);
    let bounds = analyzer.certify(&InstrumentationPlan::new(), &map);
    assert_eq!(bounds.verdict, BoundsVerdict::CertifiedOom);
    let report = bounds.report(machine.gpu().usable_memory());
    assert!(
        report.has_code(Code::CertifiedOom),
        "expected MP013:\n{}",
        report.render_table()
    );
    assert!(report.error_count() > 0);
    assert!(!report.has_structural_errors());
}

/// The bounds gate must be invisible: a bounds-on run's report is
/// byte-identical to a bounds-off run's (certified-OOM candidates lose
/// to any non-OOM incumbent anyway, and the certified lower bound only
/// skips candidates the metric could never prefer). On this pressured
/// case the gate also demonstrably fires.
#[test]
fn bounds_gate_does_not_change_the_chosen_plan() {
    let run = |bounds: bool| -> String {
        let report = Mpress::builder()
            .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
            .bounds(bounds)
            .build()
            .train()
            .expect("valid inputs");
        if bounds {
            assert!(
                report.plan.search.bounds_pruned > 0,
                "bounds gate never fired: {:?}",
                report.plan.search
            );
        } else {
            assert_eq!(report.plan.search.bounds_pruned, 0);
        }
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}|{}",
            report.plan.device_map,
            report.plan.instrumentation,
            report.plan.refinement_rounds,
            report.sim.makespan.to_bits(),
            report.sim.device_peak,
            report.sim.host_traffic,
            report.tflops.to_bits(),
            report.throughput.to_bits(),
        )
    };
    assert_eq!(run(true), run(false));
}

/// The planner hook must be invisible: a verify-on run's report is
/// byte-identical to a verify-off run's (the verifier only ever rejects
/// plans the planner would never emit).
#[test]
fn verifier_hook_does_not_change_the_chosen_plan() {
    let run = |verify: bool| -> String {
        let report = Mpress::builder()
            .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
            .verify(verify)
            .build()
            .train()
            .expect("valid inputs");
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}|{}",
            report.plan.device_map,
            report.plan.instrumentation,
            report.plan.refinement_rounds,
            report.sim.makespan.to_bits(),
            report.sim.device_peak,
            report.sim.host_traffic,
            report.tflops.to_bits(),
            report.throughput.to_bits(),
        )
    };
    assert_eq!(run(true), run(false));
}

// ---------------------------------------------------------------------
// Stable bounds: a reference copy of the per-call lower-bound walk.
// ---------------------------------------------------------------------

/// Per-tensor recomputation cost: the producing layer's forward time,
/// recovered from sub-event offsets, else the whole producing op.
fn recompute_costs(graph: &TrainingGraph) -> Vec<Secs> {
    let mut cost = vec![0.0_f64; graph.tensors().len()];
    for op in graph.ops() {
        if op.kind != OpKind::Forward || op.sub_events.is_empty() {
            continue;
        }
        let mut events: Vec<_> = op.sub_events.iter().collect();
        events.sort_by(|a, b| a.offset.partial_cmp(&b.offset).expect("finite offsets"));
        let mut prev = 0.0;
        for e in events {
            cost[e.tensor.index()] = (e.offset - prev).max(0.0);
            prev = e.offset;
        }
    }
    for op in graph.ops() {
        if op.kind != OpKind::Forward {
            continue;
        }
        for t in &op.writes {
            if op.sub_event_offset(*t).is_none() {
                cost[t.index()] = op.duration;
            }
        }
    }
    cost
}

/// The per-stage sequence of ops running on one FIFO stream.
fn stream_seq(graph: &TrainingGraph, stage: usize, comm: bool) -> Vec<usize> {
    graph
        .stage_program(stage)
        .iter()
        .map(|id| id.index())
        .filter(|&i| match graph.ops()[i].kind {
            OpKind::Send | OpKind::Recv => comm,
            OpKind::SwapOut | OpKind::SwapIn => false,
            _ => !comm,
        })
        .collect()
}

/// Reference `cost_profile`: the algorithm as it ran before the DAG was
/// prebuilt, with the critical path found by a push-style Kahn walk.
fn reference_profile(
    machine: &Machine,
    graph: &TrainingGraph,
    plan: &InstrumentationPlan,
    device_map: &DeviceMap,
) -> CostProfile {
    let n_ops = graph.ops().len();
    let n_tensors = graph.tensors().len();
    let recompute_cost = recompute_costs(graph);
    let mut n_consumers = vec![0usize; n_tensors];
    for op in graph.ops() {
        for r in &op.reads {
            n_consumers[r.index()] += 1;
        }
    }

    let mut directive: Vec<Option<&MemoryDirective>> = vec![None; n_tensors];
    for (t, d) in plan.iter() {
        directive[t.index()] = Some(d);
    }
    let mut dur: Vec<Secs> = graph.ops().iter().map(|o| o.duration).collect();
    for (idx, op) in graph.ops().iter().enumerate() {
        for r in &op.reads {
            if matches!(directive[r.index()], Some(MemoryDirective::Recompute)) {
                dur[idx] += recompute_cost[r.index()];
            }
        }
    }
    let op_total: Secs = dur.iter().sum();

    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
    let mut indeg = vec![0u32; n_ops];
    let mut chain = |seq: &[usize]| {
        for w in seq.windows(2) {
            succ[w[0]].push(w[1]);
            indeg[w[1]] += 1;
        }
    };
    for stage in 0..graph.n_stages() {
        chain(&stream_seq(graph, stage, false));
        chain(&stream_seq(graph, stage, true));
    }
    for &(a, b) in graph.cross_deps() {
        succ[a.index()].push(b.index());
        indeg[b.index()] += 1;
    }
    let mut start = vec![0.0_f64; n_ops];
    let mut queue: Vec<usize> = (0..n_ops).filter(|&i| indeg[i] == 0).collect();
    let mut critical_path = 0.0_f64;
    while let Some(u) = queue.pop() {
        let finish = start[u] + dur[u];
        critical_path = critical_path.max(finish);
        for &v in &succ[u] {
            if finish > start[v] {
                start[v] = finish;
            }
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }

    let gpus = machine.gpu_count();
    let mut out_sum = vec![0.0_f64; gpus];
    let mut in_sum = vec![0.0_f64; gpus];
    let mut leg_total = 0.0_f64;
    let mut n_legs = 0usize;
    let mut max_evict_leg = 0.0_f64;
    for (t, d) in plan.iter() {
        let bytes = graph.tensor(t).bytes;
        let (out_dur, in_dur) = match d {
            MemoryDirective::Recompute => continue,
            MemoryDirective::SwapToHost(HostTier::Dram) => {
                let one_way = machine.pcie_transfer_time(bytes);
                (one_way, one_way)
            }
            MemoryDirective::SwapToHost(HostTier::Nvme) => {
                let pcie = machine.pcie_transfer_time(bytes);
                let out = pcie.max(machine.nvme_transfer_time(bytes, true));
                let inn = pcie.max(machine.nvme_transfer_time(bytes, false));
                (out, inn)
            }
            MemoryDirective::SwapD2d(stripe) => (stripe.one_way_time(), stripe.one_way_time()),
        };
        let evict_leg = match d {
            MemoryDirective::Recompute => unreachable!("skipped above"),
            MemoryDirective::SwapToHost(_) => machine.pcie_transfer_time(bytes),
            MemoryDirective::SwapD2d(stripe) => stripe.one_way_time(),
        };
        max_evict_leg = max_evict_leg.max(evict_leg);
        let dev = device_map.device_of(graph.tensor(t).stage).index();
        if dev >= gpus {
            continue;
        }
        let is_static = graph.tensor(t).kind.is_static();
        let n_cons = n_consumers[t.index()];
        let outs = usize::from(!is_static)
            + if n_cons > 0 {
                n_cons - 1 + usize::from(is_static)
            } else {
                0
            };
        out_sum[dev] += outs as f64 * out_dur;
        in_sum[dev] += n_cons as f64 * in_dur;
        leg_total += outs as f64 * out_dur + n_cons as f64 * in_dur;
        n_legs += outs + n_cons;
    }
    let copy_bound = out_sum
        .iter()
        .chain(in_sum.iter())
        .fold(0.0_f64, |acc, &x| acc.max(x));

    CostProfile {
        makespan_lo: critical_path.max(copy_bound),
        total_task_time: op_total + leg_total,
        n_tasks: n_ops + n_legs,
        n_tensors,
        max_evict_leg,
    }
}

/// Every field equal, the two `f64` bounds compared bit for bit.
fn assert_bit_identical(case: &str, got: &CostProfile, want: &CostProfile) {
    assert_eq!(
        got.makespan_lo.to_bits(),
        want.makespan_lo.to_bits(),
        "{case}: makespan_lo {} vs reference {}",
        got.makespan_lo,
        want.makespan_lo
    );
    assert_eq!(
        got.total_task_time.to_bits(),
        want.total_task_time.to_bits(),
        "{case}: total_task_time"
    );
    assert_eq!(
        got.max_evict_leg.to_bits(),
        want.max_evict_leg.to_bits(),
        "{case}: max_evict_leg"
    );
    assert_eq!(got, want, "{case}");
}

/// The prebuilt-DAG bound equals the reference bit for bit on the
/// chosen plans across the zoo and on the directive-stripping mutations
/// the soundness oracle (`exp_bench_bounds`) sweeps. One arena serves
/// every case, so its fingerprint check must rebuild the tables at each
/// graph switch, as a fresh arena would.
#[test]
fn prebuilt_lower_bound_is_bit_identical_to_the_per_call_walk() {
    let mut arena = SimArena::new();
    for c in planned_zoo() {
        let graph = &c.lowered.graph;
        for (label, variant) in directive_mutations(&c.plan.instrumentation) {
            let case = format!("{} [{label}]", c.case);
            let got = arena.cost_profile(&c.machine, graph, &variant, &c.plan.device_map);
            let want = reference_profile(&c.machine, graph, &variant, &c.plan.device_map);
            assert_bit_identical(&case, &got, &want);
        }
    }
}
