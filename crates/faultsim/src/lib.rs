#![warn(missing_docs)]

//! Deterministic transient-fault injection for the XpulpNN stack.
//!
//! The paper's target — always-on QNN inference on an MCU-class SoC —
//! is exactly the deployment where soft errors matter: no ECC SRAM, no
//! lockstep cores, long unattended uptimes. This crate measures how the
//! reproduced kernels *fail* and gives the stack the machinery to
//! recover:
//!
//! * [`plan`] — seeded, replayable schedules of single-bit flips over a
//!   typed target space (register file, SIMD accumulator registers,
//!   tensor SRAM, `pv.qnt` threshold trees);
//! * [`exec`] — an external step-loop driver that applies flips between
//!   retired instructions and keeps rolling pre-fault checkpoints
//!   ([`pulp_soc::SocSnapshot`]). The core has **no injection hooks**,
//!   so disarmed execution is the unmodified hot path — pinned by the
//!   `disarmed_runs_cost_nothing` test to the exact Fig. 8 cycle count;
//! * [`campaign`] — AVF campaigns over the eight-kernel convolution
//!   matrix, classifying every flip as detected / masked / SDC;
//! * [`Outcome`] / [`Detection`] — the ok/masked/recovered/degraded
//!   ladder every recovering run (network layer, served request)
//!   reports;
//! * [`replay`] — re-derives any trial from its seed, restores the
//!   pre-fault checkpoint, and lock-steps faulted-vs-clean execution
//!   (via [`conformance::lockstep`]) to pinpoint the first
//!   architecturally visible corruption.
//!
//! `xpulpnn faults --seed S` drives the campaign from the CLI and
//! prints a replay command for every SDC it finds.

pub mod campaign;
pub mod cluster;
pub mod exec;
mod outcome;
pub mod plan;
pub mod replay;
pub mod template;

pub use campaign::{run_campaign, run_trial, trial_seed, variants, CampaignReport, FaultClass};
pub use cluster::{
    resume_disarmed, run_armed_cluster, run_cluster_campaign, run_cluster_trial, ClusterArmedRun,
    ClusterCampaignReport, ClusterInjection,
};
pub use exec::{run_armed, ArmConfig, ArmedRun, InjectionRecord};
pub use outcome::{Detection, Outcome};
pub use plan::{FaultDomain, FaultEvent, FaultPlan, FaultTarget, MemRegion, TargetSpace};
pub use replay::{replay, ReplayReport};
pub use template::TemplateStrike;

#[cfg(test)]
mod tests {
    use pulp_kernels::{ConvKernelConfig, ConvTestbench, KernelIsa};
    use qnn::BitWidth;

    /// The zero-overhead guarantee, pinned: fault-injection support must
    /// not cost a single cycle when disarmed. This is the Fig. 8 4-bit
    /// hardware-quantized layer at the standard seed; the constant is
    /// its cycle count from before the fault subsystem existed. If this
    /// test fails, injection support has leaked into the hot path.
    #[test]
    fn disarmed_runs_cost_nothing() {
        let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
        let tb = ConvTestbench::new(cfg, 42).expect("paper layer builds");
        let r = tb.run().expect("paper layer halts");
        assert!(r.matches());
        assert_eq!(r.report.perf.cycles, 1_440_804);
        assert_eq!(r.report.perf.instret, 1_337_750);
    }
}
