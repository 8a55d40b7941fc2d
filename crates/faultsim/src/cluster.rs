//! Fault injection on the multi-core cluster.
//!
//! The cluster analogue of [`crate::exec`]: flips are applied at
//! *region boundaries* — the cluster's deterministic synchronization
//! points — directly on architectural state (a hart's register file,
//! or bytes in the shared TCDM/L2 image). The cluster runner itself
//! carries no injection hooks, so a disarmed cluster run is the
//! unmodified hot path; the `single_hart_cluster_matches_the_fig8_pin`
//! test in `pulp-cluster` pins that.
//!
//! Register flips pick their victim hart deterministically from the
//! event's scheduled cycle, so a `(seed, space, n_harts)` triple always
//! strikes the same bit of the same hart at the same boundary. The
//! driver keeps a rolling pre-fault [`ClusterSnapshot`]; under the
//! transient fault model, restoring it and re-running disarmed is a
//! complete recovery — checkpoint/rollback at cluster scale.

use crate::campaign::{totals, VariantReport};
use crate::plan::{FaultEvent, FaultPlan, FaultTarget, TargetSpace};
use crate::FaultClass;
use pulp_cluster::{ClusterConvTestbench, ClusterError, ClusterSim, ClusterSnapshot};
use pulp_kernels::{ConvKernelConfig, LayerLayout};
use std::fmt;

/// One flip as applied to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterInjection {
    /// The scheduled event.
    pub event: FaultEvent,
    /// Victim hart for register flips, `None` for memory flips.
    pub hart: Option<usize>,
    /// Cluster clock at the region boundary where the flip landed.
    pub at_clock: u64,
    /// Value before the flip.
    pub before: u32,
    /// Value after the flip.
    pub after: u32,
}

impl fmt::Display for ClusterInjection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.hart {
            Some(h) => write!(f, "{} on hart {h} (at clock {})", self.event, self.at_clock),
            None => write!(f, "{} (at clock {})", self.event, self.at_clock),
        }
    }
}

/// Everything one armed cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterArmedRun {
    /// `Ok` when every hart halted; the lowest-hart trap otherwise.
    pub exit: Result<(), ClusterError>,
    /// Flips applied, in order.
    pub injections: Vec<ClusterInjection>,
    /// The newest whole-cluster checkpoint taken *before* the first
    /// injection (always at a region boundary, after the DMA
    /// prologue). Restoring it and resuming disarmed from
    /// [`ClusterArmedRun::pre_fault_region`] recovers from any
    /// transient fault.
    pub pre_fault: ClusterSnapshot,
    /// Region index the pre-fault checkpoint was taken at (the next
    /// region to run after a restore).
    pub pre_fault_region: usize,
    /// Checkpoints taken (including the initial one).
    pub checkpoints: u64,
    /// Final cluster clock.
    pub clock: u64,
}

/// The target space of one staged cluster layer: the TCDM-resident
/// tensors (input, weights, output, and threshold trees for sub-byte
/// outputs) plus the harts' register files. Flips scheduled before the
/// DMA prologue finishes may be overwritten by the incoming transfer —
/// exactly as a real pre-staging SRAM strike would be.
pub fn cluster_target_space(tb: &ClusterConvTestbench, clean_clock: u64) -> TargetSpace {
    let tcdm = &tb.plan.tcdm;
    let at = LayerLayout {
        input: tcdm.input,
        weights: tcdm.weights,
        thresholds: tcdm.thresholds,
        output: tcdm.output,
        ..tb.bench.layout
    };
    TargetSpace::layer(&tb.bench, &at, clean_clock)
}

/// Applies one flip to the cluster, recording old and new values.
fn apply(sim: &mut ClusterSim, event: &FaultEvent) -> ClusterInjection {
    let (hart, before, after) = match event.target {
        FaultTarget::Register { reg, bit } => {
            // Deterministic victim: derived from the scheduled cycle,
            // not from any runtime state.
            let h = (event.cycle as usize) % sim.n_harts();
            let before = sim.hart(h).regs[reg];
            let after = if reg == 0 {
                before
            } else {
                before ^ (1 << bit)
            };
            sim.hart_mut(h).regs[reg] = after;
            (Some(h), before, after)
        }
        FaultTarget::Memory { addr, bit } => {
            let before = sim.mem.read_bytes(addr, 1)[0];
            let after = before ^ (1 << bit);
            sim.mem.write_bytes(addr, &[after]);
            (None, u32::from(before), u32::from(after))
        }
    };
    ClusterInjection {
        event: *event,
        hart,
        at_clock: sim.clock(),
        before,
        after,
    }
}

/// Drives a staged cluster through `tb`'s full DMA + region schedule
/// with `plan`'s flips applied at region boundaries. Semantics match
/// [`ClusterConvTestbench::drive`] exactly when the plan is empty.
pub fn run_armed_cluster(
    tb: &ClusterConvTestbench,
    sim: &mut ClusterSim,
    plan: &FaultPlan,
    budget: u64,
) -> ClusterArmedRun {
    let l2 = &tb.bench.layout;
    let mut injections = Vec::new();
    let mut pending = plan.events.iter().peekable();

    for t in &tb.plan.prologue_transfers(l2) {
        let c = sim.dma_blocking(t);
        sim.stats.dma_prologue += c;
    }
    // The initial checkpoint sits after the (deterministic, fault-free)
    // prologue, so every restore resumes with the tables staged.
    let mut pre_fault = sim.snapshot();
    let mut pre_fault_region = 0usize;
    let mut checkpoints = 1u64;

    let mut region = 0;
    let exit = loop {
        if injections.is_empty()
            && region > 0
            && pending.peek().is_some_and(|e| sim.clock() < e.cycle)
        {
            pre_fault = sim.snapshot();
            pre_fault_region = region;
            checkpoints += 1;
        }
        while let Some(ev) = pending.peek() {
            if sim.clock() >= ev.cycle {
                let ev = **ev;
                pending.next();
                injections.push(apply(sim, &ev));
            } else {
                break;
            }
        }
        let band = tb.plan.band_transfer(l2, region);
        match sim.run_region(budget, band.as_ref()) {
            Ok(true) => break Ok(()),
            Ok(false) => {}
            Err(e) => break Err(e),
        }
        region += 1;
    };
    if exit.is_ok() {
        let c = sim.dma_blocking(&tb.plan.writeback(l2));
        sim.stats.dma_writeback += c;
    }
    ClusterArmedRun {
        exit,
        injections,
        pre_fault,
        pre_fault_region,
        checkpoints,
        clock: sim.clock(),
    }
}

/// Resumes a restored cluster disarmed from `from_region` (the value of
/// [`ClusterArmedRun::pre_fault_region`]): runs the remaining regions
/// with their band transfers, then the write-back. Completes the
/// transient-fault recovery story — deterministic re-execution makes
/// the resumed run land on the exact clean clock and output.
///
/// # Errors
///
/// [`ClusterError::Trap`] if a hart traps (it cannot, after a genuine
/// pre-fault restore).
pub fn resume_disarmed(
    tb: &ClusterConvTestbench,
    sim: &mut ClusterSim,
    from_region: usize,
    budget: u64,
) -> Result<(), ClusterError> {
    let l2 = &tb.bench.layout;
    let mut region = from_region;
    loop {
        let band = tb.plan.band_transfer(l2, region);
        let done = sim.run_region(budget, band.as_ref())?;
        region += 1;
        if done {
            break;
        }
    }
    let c = sim.dma_blocking(&tb.plan.writeback(l2));
    sim.stats.dma_writeback += c;
    Ok(())
}

/// A whole cluster campaign.
#[derive(Debug, Clone)]
pub struct ClusterCampaignReport {
    /// Master seed.
    pub seed: u64,
    /// Trials per variant.
    pub trials: u64,
    /// Cluster size the campaign ran on.
    pub n_harts: usize,
    /// One entry per variant, in [`crate::variants`] order; a trial
    /// counts as detected when any hart trapped.
    pub variants: Vec<VariantReport>,
}

impl fmt::Display for ClusterCampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster fault campaign: seed {}, {} harts, {} trials x {} variants",
            self.seed,
            self.n_harts,
            self.trials,
            self.variants.len()
        )?;
        writeln!(
            f,
            "{:<24} {:>8} {:>8} {:>8}",
            "kernel", "detected", "masked", "SDC"
        )?;
        for v in &self.variants {
            writeln!(
                f,
                "{:<24} {:>8} {:>8} {:>8}",
                v.name, v.detected, v.masked, v.sdc
            )?;
        }
        let (d, m, s) = totals(&self.variants);
        writeln!(f, "cluster totals: detected={d} masked={m} sdc={s}")
    }
}

/// Stages and runs one armed cluster trial, classifying it.
pub fn run_cluster_trial(
    tb: &ClusterConvTestbench,
    clean_clock: u64,
    fault_seed: u64,
) -> (FaultClass, ClusterArmedRun) {
    let space = cluster_target_space(tb, clean_clock);
    let plan = FaultPlan::generate(fault_seed, &space, 1);
    let mut sim = tb.stage();
    let run = run_armed_cluster(tb, &mut sim, &plan, clean_clock * 4 + 10_000);
    let class = match &run.exit {
        Err(_) => FaultClass::Detected,
        Ok(()) => {
            if tb.collect(&sim).matches() {
                FaultClass::Masked
            } else {
                FaultClass::Sdc
            }
        }
    };
    (class, run)
}

/// Runs a full cluster campaign: `trials` single-flip trials of each
/// [`crate::variants`] kernel on an `n_harts` cluster. Deterministic
/// in `seed`.
///
/// # Errors
///
/// A human-readable message if a variant fails to build or its clean
/// run is not golden — campaigns only measure correct kernels.
pub fn run_cluster_campaign(
    seed: u64,
    trials: u64,
    n_harts: usize,
) -> Result<ClusterCampaignReport, String> {
    let mut reports = Vec::new();
    for variant in crate::variants() {
        let (tb, clean_clock) = stage_clean(&variant.cfg, n_harts)?;
        let mut report = VariantReport::new(&variant);
        for t in 0..trials {
            let fs = crate::trial_seed(seed, variant.index as u64, t);
            report.record(run_cluster_trial(&tb, clean_clock, fs).0);
        }
        reports.push(report);
    }
    Ok(ClusterCampaignReport {
        seed,
        trials,
        n_harts,
        variants: reports,
    })
}

/// Builds the cluster testbench for `cfg` and verifies its clean run,
/// returning the bench and the clean cluster clock.
fn stage_clean(
    cfg: &ConvKernelConfig,
    n_harts: usize,
) -> Result<(ClusterConvTestbench, u64), String> {
    let tb = ClusterConvTestbench::new(*cfg, n_harts, crate::campaign::TENSOR_SEED)
        .map_err(|e| format!("variant {} failed to build: {e}", cfg.name()))?;
    let clean = tb
        .run(1)
        .map_err(|e| format!("variant {} clean run failed: {e}", cfg.name()))?;
    if !clean.matches() {
        return Err(format!(
            "variant {} clean cluster run diverges from the golden model",
            cfg.name()
        ));
    }
    Ok((tb, clean.cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultDomain;
    use pulp_kernels::KernelIsa;
    use qnn::BitWidth;

    fn small_tb(n_harts: usize) -> (ClusterConvTestbench, u64) {
        let mut cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
        cfg.shape = qnn::conv::ConvShape {
            in_h: 4,
            in_w: 4,
            in_c: 16,
            out_c: 8,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        stage_clean(&cfg, n_harts).expect("clean cluster run")
    }

    #[test]
    fn empty_plan_matches_plain_drive_exactly() {
        let (tb, clean_clock) = small_tb(4);
        let mut sim = tb.stage();
        let run = run_armed_cluster(&tb, &mut sim, &FaultPlan::none(), 10_000_000);
        assert!(run.exit.is_ok());
        assert!(run.injections.is_empty());
        assert_eq!(run.clock, clean_clock, "armed driver must cost nothing");
        assert!(tb.collect(&sim).matches());
    }

    #[test]
    fn cluster_trials_are_deterministic_and_strike_harts() {
        let (tb, clean_clock) = small_tb(8);
        let mut reg_hits = 0;
        for t in 0..8u64 {
            let (a_class, a) = run_cluster_trial(&tb, clean_clock, 1000 + t);
            let (b_class, b) = run_cluster_trial(&tb, clean_clock, 1000 + t);
            assert_eq!(a_class, b_class);
            assert_eq!(a.injections, b.injections);
            assert_eq!(a.clock, b.clock);
            for i in &a.injections {
                if let Some(h) = i.hart {
                    assert!(h < 8);
                    assert_eq!(h, (i.event.cycle as usize) % 8);
                    reg_hits += 1;
                }
            }
        }
        assert!(reg_hits > 0, "no register flips in 8 seeded trials");
    }

    #[test]
    fn rollback_from_pre_fault_cluster_checkpoint_recovers() {
        let (tb, clean_clock) = small_tb(4);
        // A violent flip mid-run: a register strike at half the clean
        // clock, hart chosen by the standard rule.
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                cycle: clean_clock / 2,
                domain: FaultDomain::RegisterFile,
                target: FaultTarget::Register { reg: 13, bit: 30 },
            }],
        };
        let mut sim = tb.stage();
        let run = run_armed_cluster(&tb, &mut sim, &plan, clean_clock * 4 + 10_000);
        assert_eq!(run.injections.len(), 1);
        assert!(
            run.pre_fault.clock() < run.injections[0].at_clock || run.injections[0].at_clock == 0,
            "pre-fault checkpoint must predate the injection"
        );
        // Transient fault: restore + disarmed resume completes with
        // the clean clock and a golden output.
        let mut retry = tb.stage();
        retry.restore(&run.pre_fault);
        resume_disarmed(&tb, &mut retry, run.pre_fault_region, 10_000_000).expect("recovers");
        assert_eq!(retry.clock(), clean_clock, "deterministic re-execution");
        assert!(tb.collect(&retry).matches());
    }

    #[test]
    fn eight_hart_smoke_campaign_classifies_all_outcomes() {
        let r = run_cluster_campaign(1, 3, 8).expect("campaign runs");
        let (d, m, s) = totals(&r.variants);
        assert_eq!(d + m + s, 24);
        assert!(m > 0, "no masked faults in {r}");
        // Deterministic: same seed, same totals.
        let r2 = run_cluster_campaign(1, 3, 8).expect("campaign runs");
        assert_eq!(totals(&r.variants), totals(&r2.variants));
    }
}
