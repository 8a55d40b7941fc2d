//! Seeded AVF campaigns over the convolution kernel matrix.
//!
//! Each trial stages one kernel variant, injects exactly one seeded bit
//! flip while it runs, and classifies the outcome with the standard
//! architectural-vulnerability taxonomy:
//!
//! * **detected** — the flip raised a trap (bus error, illegal
//!   instruction, watchdog on a flip-induced hang, ...);
//! * **masked** — the run halted and the output still matches the
//!   golden model (the flipped bit was dead or logically masked);
//! * **SDC** — silent data corruption: a clean halt with a wrong
//!   output, the outcome fault-tolerant deployments care about.
//!
//! Everything derives from the master seed: trial `t` of variant `v`
//! uses [`trial_seed`]`(master, v, t)` for its fault plan, so any SDC
//! can be replayed — and its first architecturally visible divergence
//! pinpointed — from the one-line command the report prints.

use crate::exec::{run_armed, ArmConfig, ArmedRun};
use crate::plan::{FaultPlan, TargetSpace};
use pulp_kernels::{ConvKernelConfig, ConvTestbench, KernelIsa};
use qnn::conv::ConvShape;
use qnn::BitWidth;
use riscv_core::Trap;
use std::fmt;

/// Tensor seed every campaign kernel is built with (the fault seed
/// varies per trial; the workload stays fixed so rates are comparable).
pub const TENSOR_SEED: u64 = 42;

/// One kernel variant of the campaign matrix.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Index used in replay commands (`--replay <index>:<trial>`).
    pub index: usize,
    /// The kernel configuration.
    pub cfg: ConvKernelConfig,
}

/// A reduced copy of the paper's benchmark layer: same structure
/// (3×3, stride 1, pad 1, dense channels), sized so a campaign of
/// hundreds of trials stays fast.
fn small_shape(bits: BitWidth) -> ConvShape {
    ConvShape {
        in_h: 4,
        in_w: 4,
        in_c: (32 / bits.bits() as usize) * 2,
        out_c: 8,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    }
}

/// The eight-variant campaign matrix: both ISAs at 8 bit, and
/// software- plus hardware-quantized XpulpNN (and software XpulpV2)
/// kernels at 4 and 2 bit — the same matrix Figs. 6/7 sweep.
pub fn variants() -> Vec<Variant> {
    let mut out = Vec::new();
    let mut push = |bits, isa, hw| {
        let mut cfg = ConvKernelConfig::paper(bits, isa, hw);
        cfg.shape = small_shape(bits);
        let index = out.len();
        out.push(Variant { index, cfg });
    };
    push(BitWidth::W8, KernelIsa::XpulpV2, false);
    push(BitWidth::W8, KernelIsa::XpulpNN, false);
    push(BitWidth::W4, KernelIsa::XpulpV2, false);
    push(BitWidth::W4, KernelIsa::XpulpNN, false);
    push(BitWidth::W4, KernelIsa::XpulpNN, true);
    push(BitWidth::W2, KernelIsa::XpulpV2, false);
    push(BitWidth::W2, KernelIsa::XpulpNN, false);
    push(BitWidth::W2, KernelIsa::XpulpNN, true);
    out
}

/// Fault seed of trial `trial` on variant `variant` under `master`.
/// Pure arithmetic, mirroring `conformance::case_seed`: replaying one
/// trial never needs the rest of the campaign.
pub fn trial_seed(master: u64, variant: u64, trial: u64) -> u64 {
    master
        .wrapping_add(variant.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(trial)
}

/// AVF outcome class of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The flip raised a trap.
    Detected,
    /// Clean halt, output still golden.
    Masked,
    /// Clean halt, silently corrupted output.
    Sdc,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultClass::Detected => "detected",
            FaultClass::Masked => "masked",
            FaultClass::Sdc => "SDC",
        })
    }
}

/// One classified trial.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Variant index.
    pub variant: usize,
    /// Trial index within the variant.
    pub trial: u64,
    /// Fault-plan seed (derived; see [`trial_seed`]).
    pub seed: u64,
    /// Outcome class.
    pub class: FaultClass,
    /// The trap, for detected trials.
    pub trap: Option<Trap>,
    /// The armed run (injection records, pre-fault checkpoint, trace).
    pub run: ArmedRun,
    /// Fault-free runtime of the variant.
    pub clean_cycles: u64,
}

/// Per-variant tallies, of a single-core or a cluster campaign.
#[derive(Debug, Clone)]
pub struct VariantReport {
    /// Variant index.
    pub index: usize,
    /// `ConvKernelConfig::name()` of the variant.
    pub name: String,
    /// Operand width.
    pub bits: BitWidth,
    /// Trials that trapped.
    pub detected: u64,
    /// Trials with golden output.
    pub masked: u64,
    /// Silent corruptions.
    pub sdc: u64,
}

impl VariantReport {
    /// An empty tally for `variant`.
    pub(crate) fn new(variant: &Variant) -> VariantReport {
        VariantReport {
            index: variant.index,
            name: variant.cfg.name(),
            bits: variant.cfg.bits,
            detected: 0,
            masked: 0,
            sdc: 0,
        }
    }

    /// Counts one trial of outcome `class`.
    pub(crate) fn record(&mut self, class: FaultClass) {
        match class {
            FaultClass::Detected => self.detected += 1,
            FaultClass::Masked => self.masked += 1,
            FaultClass::Sdc => self.sdc += 1,
        }
    }

    /// Total trials.
    pub fn trials(&self) -> u64 {
        self.detected + self.masked + self.sdc
    }

    /// Architectural vulnerability factor: the fraction of flips that
    /// corrupted the output without detection.
    pub fn avf(&self) -> f64 {
        if self.trials() == 0 {
            0.0
        } else {
            self.sdc as f64 / self.trials() as f64
        }
    }
}

/// A whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Master seed.
    pub seed: u64,
    /// Trials per variant.
    pub trials: u64,
    /// One entry per variant, in [`variants`] order.
    pub variants: Vec<VariantReport>,
    /// `variant:trial` coordinates of every SDC, for replay.
    pub sdc_cases: Vec<(usize, u64)>,
}

/// `(detected, masked, sdc)` totals over `variants`.
pub(crate) fn totals(variants: &[VariantReport]) -> (u64, u64, u64) {
    variants.iter().fold((0, 0, 0), |(d, m, s), v| {
        (d + v.detected, m + v.masked, s + v.sdc)
    })
}

impl CampaignReport {
    /// `(detected, masked, sdc)` totals over all variants.
    pub fn totals(&self) -> (u64, u64, u64) {
        totals(&self.variants)
    }

    /// The exact command replaying one SDC case.
    pub fn replay_command(&self, variant: usize, trial: u64) -> String {
        format!(
            "xpulpnn faults --seed {} --replay {variant}:{trial}",
            self.seed
        )
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault campaign: seed {}, {} trials x {} variants (1 bit flip per trial)",
            self.seed,
            self.trials,
            self.variants.len()
        )?;
        writeln!(
            f,
            "{:<24} {:>8} {:>8} {:>8} {:>8}",
            "kernel", "detected", "masked", "SDC", "AVF"
        )?;
        for v in &self.variants {
            writeln!(
                f,
                "{:<24} {:>8} {:>8} {:>8} {:>7.1}%",
                v.name,
                v.detected,
                v.masked,
                v.sdc,
                v.avf() * 100.0
            )?;
        }
        let (d, m, s) = self.totals();
        writeln!(f, "totals: detected={d} masked={m} sdc={s}")?;
        for (v, t) in &self.sdc_cases {
            writeln!(f, "replay SDC: {}", self.replay_command(*v, *t))?;
        }
        Ok(())
    }
}

/// Stages and runs one armed trial of `variant`, classifying it.
///
/// The testbench and the clean runtime are passed in so campaigns build
/// each kernel once; [`crate::replay`] rebuilds them for a single case.
pub fn run_trial(
    variant: &Variant,
    tb: &ConvTestbench,
    clean_cycles: u64,
    fault_seed: u64,
    trial: u64,
) -> Trial {
    let space = TargetSpace::layer(tb, &tb.layout, clean_cycles);
    let plan = FaultPlan::generate(fault_seed, &space, 1);
    let cfg = ArmConfig {
        // Generous slack over the clean runtime: a flip that slows the
        // kernel down is not a hang, one that livelocks it is.
        budget: clean_cycles * 4 + 10_000,
        checkpoint_interval: (clean_cycles / 8).max(1),
        trace_depth: 64,
    };
    let mut soc = tb.stage();
    let run = run_armed(&mut soc, &plan, &cfg);
    let (class, trap) = match &run.exit {
        Err(t) => (FaultClass::Detected, Some(*t)),
        Ok(exit) => {
            let report = pulp_soc::RunReport {
                exit: *exit,
                perf: run.perf,
            };
            if tb.collect(&soc, report).matches() {
                (FaultClass::Masked, None)
            } else {
                (FaultClass::Sdc, None)
            }
        }
    };
    Trial {
        variant: variant.index,
        trial,
        seed: fault_seed,
        class,
        trap,
        run,
        clean_cycles,
    }
}

/// Runs the full campaign: `trials` single-flip trials on each of the
/// [`variants`]. Deterministic in `seed`.
///
/// # Errors
///
/// A human-readable message if a variant fails to build or its clean
/// (fault-free) run does not halt with a golden-matching output —
/// campaigns only measure kernels that are correct to begin with.
pub fn run_campaign(seed: u64, trials: u64) -> Result<CampaignReport, String> {
    let mut reports = Vec::new();
    let mut sdc_cases = Vec::new();
    for variant in variants() {
        let tb = ConvTestbench::new(variant.cfg, TENSOR_SEED)
            .map_err(|e| format!("variant {} failed to build: {e}", variant.cfg.name()))?;
        let clean = tb
            .run()
            .map_err(|t| format!("variant {} clean run trapped: {t}", variant.cfg.name()))?;
        if !clean.matches() {
            return Err(format!(
                "variant {} clean run diverges from the golden model",
                variant.cfg.name()
            ));
        }
        let clean_cycles = clean.report.perf.cycles;
        let mut report = VariantReport::new(&variant);
        for t in 0..trials {
            let fs = trial_seed(seed, variant.index as u64, t);
            let trial = run_trial(&variant, &tb, clean_cycles, fs, t);
            report.record(trial.class);
            if trial.class == FaultClass::Sdc {
                sdc_cases.push((variant.index, t));
            }
        }
        reports.push(report);
    }
    Ok(CampaignReport {
        seed,
        trials,
        variants: reports,
        sdc_cases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_eight_valid_variants() {
        let vs = variants();
        assert_eq!(vs.len(), 8);
        for v in &vs {
            v.cfg
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", v.cfg.name()));
        }
        let names: Vec<String> = vs.iter().map(|v| v.cfg.name()).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(names.len(), unique.len(), "variant names must be distinct");
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_campaign(3, 2).expect("campaign runs");
        let b = run_campaign(3, 2).expect("campaign runs");
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.sdc_cases, b.sdc_cases);
        assert_eq!(a.totals().0 + a.totals().1 + a.totals().2, 16);
    }

    #[test]
    fn every_class_is_reachable() {
        // A moderately sized campaign must exercise all three outcome
        // classes — otherwise the taxonomy (or the injector) is broken.
        let r = run_campaign(1, 12).expect("campaign runs");
        let (d, m, s) = r.totals();
        assert!(d > 0, "no detected faults in {r}");
        assert!(m > 0, "no masked faults in {r}");
        assert!(s > 0, "no SDCs in {r}");
        assert_eq!(r.sdc_cases.len() as u64, s);
    }
}
