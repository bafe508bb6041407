//! Standard job configurations shared by all experiments — the paper's
//! §IV-A setup.

use mpress::{Mpress, OptimizationSet, PlannerConfig};
use mpress_compaction::{InstrumentationPlan, MemoryDirective};
use mpress_hw::Machine;
use mpress_model::{zoo, PrecisionPolicy, TransformerConfig};
use mpress_pipeline::{PipelineJob, ScheduleKind};

/// Microbatches simulated per window (DAPPLE: per minibatch).
pub const WINDOW_MICROBATCHES: usize = 16;

/// A Bert job as the paper runs it: PipeDream, microbatch 12, FP32.
pub fn bert_job(model: TransformerConfig, machine: Machine) -> PipelineJob {
    PipelineJob::builder()
        .model(model)
        .machine(machine)
        .schedule(ScheduleKind::PipeDream)
        .microbatch_size(zoo::BERT_MICROBATCH)
        .microbatches(WINDOW_MICROBATCHES)
        .precision(PrecisionPolicy::full())
        .build()
        .expect("paper Bert configuration is valid")
}

/// A GPT job as the paper runs it: DAPPLE, microbatch 2, mixed precision.
pub fn gpt_job(model: TransformerConfig, machine: Machine) -> PipelineJob {
    PipelineJob::builder()
        .model(model)
        .machine(machine)
        .schedule(ScheduleKind::Dapple)
        .microbatch_size(zoo::GPT_MICROBATCH)
        .microbatches(WINDOW_MICROBATCHES)
        .precision(PrecisionPolicy::mixed())
        .build()
        .expect("paper GPT configuration is valid")
}

/// The five Fig. 7 / Fig. 8 system configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemConfig {
    /// The unmodified host system (PipeDream or DAPPLE).
    Plain,
    /// vDNN-style GPU-CPU swap of every eligible tensor.
    GpuCpuSwap,
    /// The recomputation baseline.
    Recomputation,
    /// MPress restricted to D2D swap ("MPress (D2D)" in Fig. 7).
    MpressD2dOnly,
    /// Full MPress.
    Mpress,
}

impl SystemConfig {
    /// Column label used in the tables.
    pub fn label(self) -> &'static str {
        match self {
            SystemConfig::Plain => "plain",
            SystemConfig::GpuCpuSwap => "gpu-cpu-swap",
            SystemConfig::Recomputation => "recompute",
            SystemConfig::MpressD2dOnly => "mpress(d2d)",
            SystemConfig::Mpress => "mpress",
        }
    }

    /// The planner configuration realizing this system.
    pub fn planner_config(self) -> PlannerConfig {
        let mut cfg = PlannerConfig::default();
        match self {
            SystemConfig::Plain => cfg.optimizations = OptimizationSet::none(),
            SystemConfig::GpuCpuSwap => {
                cfg.optimizations = OptimizationSet::host_swap_only();
                cfg.exhaustive_swap = true;
            }
            SystemConfig::Recomputation => {
                cfg.optimizations = OptimizationSet::recompute_only();
                cfg.exhaustive_swap = true;
            }
            SystemConfig::MpressD2dOnly => cfg.optimizations = OptimizationSet::d2d_only(),
            SystemConfig::Mpress => {}
        }
        cfg
    }

    /// Runs a job under this system; `Some(tflops)` on success, `None` on
    /// OOM.
    pub fn run(self, job: PipelineJob) -> Option<f64> {
        let mpress = Mpress::builder()
            .job(job)
            .planner_config(self.planner_config())
            .build();
        let report = match self {
            SystemConfig::Plain => mpress.train_unmodified(),
            _ => mpress.train(),
        }
        .expect("simulation inputs are valid");
        report.succeeded().then_some(report.tflops)
    }
}

/// Formats an optional TFLOPS value the way the paper's figures mark OOM.
pub fn tflops_cell(v: Option<f64>) -> String {
    match v {
        Some(t) => format!("{t:.1}"),
        None => "OOM".to_owned(),
    }
}

/// A chosen plan and four directive-stripping mutations of it, labelled:
/// `chosen`, `bare` (no directives), `no-d2d`, `no-host` and
/// `no-recompute`. Dropping a directive is always a valid plan spec
/// (absence is the default), so every mutation emulates without input
/// errors. The soundness oracle `exp_bench_bounds` sweeps this set.
pub fn directive_mutations(plan: &InstrumentationPlan) -> [(&'static str, InstrumentationPlan); 5] {
    let filtered = |keep: fn(&MemoryDirective) -> bool| {
        let mut out = InstrumentationPlan::new();
        for (t, d) in plan.iter() {
            if keep(d) {
                out.assign(t, d.clone());
            }
        }
        out
    };
    [
        ("chosen", plan.clone()),
        ("bare", InstrumentationPlan::new()),
        (
            "no-d2d",
            filtered(|d| !matches!(d, MemoryDirective::SwapD2d(_))),
        ),
        (
            "no-host",
            filtered(|d| !matches!(d, MemoryDirective::SwapToHost(_))),
        ),
        (
            "no-recompute",
            filtered(|d| !matches!(d, MemoryDirective::Recompute)),
        ),
    ]
}
