//! Pre-warmed worker templates: one fully-staged [`SocSnapshot`] per
//! kernel variant.
//!
//! Building a template pays the expensive, request-independent work
//! exactly once: kernel generation/assembly, program load, weight and
//! threshold-tree staging. A worker then *forks* from the template —
//! `Soc::new` + `restore`, which copies in only the few non-zero L2
//! pages the snapshot stores — amortizing program build and weight
//! staging to zero per request. `Soc::restore` flushes the
//! decoded-block cache unconditionally (pinned by tests in `pulp-soc`
//! and this crate), so a fork can never replay blocks decoded from
//! another program or a poisoned predecessor.

use crate::request::{RequestError, Variant};
use faultsim::{FaultPlan, TargetSpace, TemplateStrike};
use pulp_kernels::{BuildError, ConvKernelConfig, ConvTestbench, KernelIsa, QuantMode};
use pulp_soc::{Soc, SocSnapshot, STACK_TOP};
use qnn::conv::ConvShape;
use qnn::BitWidth;
use std::fmt;

/// The serving layer failed to come up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A variant's kernel/template could not be built.
    Template {
        /// The failing variant.
        variant: Variant,
        /// The underlying build failure.
        error: BuildError,
    },
    /// A variant's health-check run (clean fork, synthetic input) did
    /// not verify against the golden model.
    TemplateUnhealthy {
        /// The failing variant.
        variant: Variant,
    },
    /// A template's stored snapshot no longer matches the checksum
    /// recorded at build time — the template is corrupted and must be
    /// quarantined and rebuilt before any further fork.
    TemplateCorrupted {
        /// The corrupted variant.
        variant: Variant,
    },
    /// A pool was configured with zero workers.
    NoWorkers,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Template { variant, error } => {
                write!(f, "template {variant} failed to build: {error}")
            }
            ServeError::TemplateUnhealthy { variant } => {
                write!(f, "template {variant} failed its health-check run")
            }
            ServeError::TemplateCorrupted { variant } => {
                write!(f, "template {variant} failed its integrity checksum")
            }
            ServeError::NoWorkers => write!(f, "pool needs at least one worker"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The kernel configuration a variant serves: the `small_shape` family
/// (padding, multiple channel blocks, several pixel pairs; `in_c·bits`
/// word-aligned at every width) — small enough that one request costs
/// tens of thousands of simulated cycles, large enough to exercise the
/// whole kernel.
pub fn serving_config(variant: Variant) -> ConvKernelConfig {
    let (bits, quant) = match variant {
        Variant::W8 => (BitWidth::W8, QuantMode::Shift8 { shift: 8 }),
        Variant::W4 => (BitWidth::W4, QuantMode::HardwareQnt),
        Variant::W4Tree => (BitWidth::W4, QuantMode::SoftwareTree),
        Variant::W2 => (BitWidth::W2, QuantMode::HardwareQnt),
    };
    let in_c = (32 / bits.bits() as usize) * 2;
    ConvKernelConfig {
        shape: ConvShape {
            in_h: 4,
            in_w: 4,
            in_c,
            out_c: 8,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        },
        bits,
        out_bits: bits,
        isa: KernelIsa::XpulpNN,
        quant,
    }
}

/// A pre-warmed, health-checked template workers fork from.
#[derive(Debug, Clone)]
pub struct WorkerTemplate {
    variant: Variant,
    tb: ConvTestbench,
    /// Snapshot taken after `stage()`: program + weights + descriptors
    /// + threshold trees in L2, pc at the entry, cycle counter 0.
    snapshot: SocSnapshot,
    /// FNV checksum of `snapshot` recorded at build time; re-verified
    /// before every request so a corrupted template is caught before it
    /// poisons a worker (see [`WorkerTemplate::verify`]).
    checksum: u64,
    /// Fault-free runtime of the health-check run; bounds chaos-mode
    /// injection windows.
    clean_cycles: u64,
}

impl WorkerTemplate {
    /// Builds, stages and health-checks one variant's template.
    ///
    /// # Errors
    ///
    /// [`ServeError::Template`] if the kernel cannot be built,
    /// [`ServeError::TemplateUnhealthy`] if the clean run does not
    /// verify.
    pub fn build(variant: Variant, weight_seed: u64) -> Result<WorkerTemplate, ServeError> {
        let cfg = serving_config(variant);
        let tb = ConvTestbench::new(cfg, weight_seed ^ variant.index() as u64)
            .map_err(|error| ServeError::Template { variant, error })?;
        let mut soc = tb.stage();
        let snapshot = soc.snapshot();
        // Health check: the template must serve its own synthetic
        // input cleanly before any worker forks from it. This also
        // measures the fault-free runtime used for chaos windows.
        soc.enable_fastpath();
        let report = soc
            .run(tb.cycle_budget())
            .map_err(|_| ServeError::TemplateUnhealthy { variant })?;
        let result = tb.collect(&soc, report);
        if !result.matches() || !result.report.exit.halted {
            return Err(ServeError::TemplateUnhealthy { variant });
        }
        let checksum = snapshot.checksum();
        Ok(WorkerTemplate {
            variant,
            tb,
            snapshot,
            checksum,
            clean_cycles: result.report.perf.cycles,
        })
    }

    /// The variant this template serves.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Logical input length a request must carry.
    pub fn input_len(&self) -> usize {
        self.tb.cfg.shape.input_len()
    }

    /// Logical output length responses carry.
    pub fn output_len(&self) -> usize {
        self.tb.cfg.shape.output_len()
    }

    /// Largest representable activation value (`2^bits − 1`).
    pub fn max_activation(&self) -> i16 {
        (1i16 << self.tb.cfg.bits.bits()) - 1
    }

    /// Fault-free runtime of the serving kernel, in cycles.
    pub fn clean_cycles(&self) -> u64 {
        self.clean_cycles
    }

    /// Per-request watchdog budget (the testbench contract: exhausting
    /// it means a runaway kernel, not a slow one).
    pub fn budget(&self) -> u64 {
        self.tb.cycle_budget()
    }

    /// Validates a request payload: non-empty, exact length, every
    /// activation in unsigned range.
    ///
    /// # Errors
    ///
    /// The first violated [`RequestError`].
    pub fn validate(&self, input: &[i16]) -> Result<(), RequestError> {
        if input.is_empty() {
            return Err(RequestError::Empty);
        }
        let want = self.input_len();
        if input.len() != want {
            return Err(RequestError::WrongLength {
                got: input.len(),
                want,
            });
        }
        let max = self.max_activation();
        if let Some((index, &value)) = input.iter().enumerate().find(|(_, v)| **v < 0 || **v > max)
        {
            return Err(RequestError::OutOfRange { index, value, max });
        }
        Ok(())
    }

    /// Forks a fresh worker machine from the template: new SoC, fast
    /// path enabled, full state restored from the staged snapshot.
    pub fn fork(&self) -> Soc {
        let mut soc = Soc::new(self.tb.isa_config());
        soc.enable_fastpath();
        soc.restore(&self.snapshot);
        soc
    }

    /// Re-forks an existing machine in place (cold reset): restores the
    /// full template state and re-enables the fast path (an armed run
    /// disables it). `restore` flushes the decoded-block cache, so no
    /// stale block from the machine's previous life can replay.
    pub fn refork(&self, soc: &mut Soc) {
        soc.enable_fastpath();
        soc.restore(&self.snapshot);
    }

    /// The integrity checksum recorded when the template was built.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Re-verifies the stored snapshot against the build-time checksum.
    /// Called before every request — warm reruns included — when the
    /// pool runs with fork verification on: a template whose
    /// host-memory image was struck (bit rot, a stray write,
    /// [`WorkerTemplate::corrupt`]) must be quarantined and rebuilt,
    /// never forked.
    ///
    /// # Errors
    ///
    /// [`ServeError::TemplateCorrupted`] on a checksum mismatch.
    pub fn verify(&self) -> Result<(), ServeError> {
        if self.snapshot.checksum() == self.checksum {
            Ok(())
        } else {
            Err(ServeError::TemplateCorrupted {
                variant: self.variant,
            })
        }
    }

    /// Fault-injection hook: applies a seeded [`TemplateStrike`] to the
    /// stored snapshot, leaving the build-time checksum untouched — the
    /// next [`WorkerTemplate::verify`] must fail. Exercises the
    /// quarantine-and-rebuild path; never used on the clean serving
    /// path.
    pub fn corrupt(&mut self, strike: TemplateStrike) {
        strike.apply(&mut self.snapshot);
    }

    /// Writes a request's packed input over the template's input
    /// region. The region holds data, not code, so the decoded-block
    /// cache needs no invalidation — the `[code_lo, code_hi)` store
    /// filter and the staleness pinning tests cover the code case.
    pub fn stage_input(&self, soc: &mut Soc, input: &[i16]) {
        self.tb.write_input(soc, input);
    }

    /// Points a warm machine back at the kernel entry with a fresh
    /// stack, without touching memory. Valid only after a clean,
    /// disarmed run: the kernel is register-closed (xcheck's DF-01
    /// proves no possibly-uninit register reads) and fully rewrites
    /// its output/scratch regions, pinned by the warm-vs-cold
    /// bit-exactness test.
    pub fn rearm_entry(&self, soc: &mut Soc) {
        soc.core.pc = self.snapshot.pc();
        soc.core.set_reg(pulp_isa::Reg::Sp, STACK_TOP);
    }

    /// Golden output for a request input under this template's weights
    /// and quantizer — what the device must produce, and what a
    /// degraded response falls back to.
    pub fn golden(&self, input: &[i16]) -> Vec<i16> {
        self.tb.golden_for(input)
    }

    /// Unpacks the device output region.
    pub fn collect_output(&self, soc: &Soc) -> Vec<i16> {
        self.tb
            .read_output(|addr, len| soc.mem.read_bytes(addr, len))
    }

    /// The fault-target space for chaos mode: this layer's tensors,
    /// threshold trees and the register file, with the injection
    /// window bounded by the clean runtime.
    pub fn target_space(&self) -> TargetSpace {
        TargetSpace::layer(&self.tb, &self.tb.layout, self.clean_cycles)
    }

    /// A one-flip fault plan for chaos mode, deterministic in `seed`.
    pub fn fault_plan(&self, seed: u64) -> FaultPlan {
        FaultPlan::generate(seed, &self.target_space(), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_build_healthy_templates() {
        for v in Variant::ALL {
            let t = WorkerTemplate::build(v, 42).unwrap_or_else(|e| panic!("{v}: {e}"));
            assert!(t.clean_cycles() > 0, "{v}");
            assert!(t.budget() > t.clean_cycles(), "{v}");
            assert!(t.input_len() > 0 && t.output_len() > 0, "{v}");
        }
    }

    /// Footprint pin: a template's snapshot stores only the pages the
    /// staged kernel occupies, so a fork or a verify never touches the
    /// whole 512 KiB image.
    #[test]
    fn templates_store_at_most_eight_pages() {
        for v in Variant::ALL {
            let t = WorkerTemplate::build(v, 42).unwrap();
            let stored = t.snapshot.stored_pages();
            assert!(stored <= 8, "{v}: {stored} of 128 pages stored");
        }
    }

    #[test]
    fn validate_rejects_typed_payload_errors() {
        let t = WorkerTemplate::build(Variant::W4, 42).unwrap();
        assert_eq!(t.validate(&[]), Err(RequestError::Empty));
        let want = t.input_len();
        assert_eq!(
            t.validate(&vec![0; want + 1]),
            Err(RequestError::WrongLength {
                got: want + 1,
                want
            })
        );
        assert_eq!(
            t.validate(&vec![0; want - 1]),
            Err(RequestError::WrongLength {
                got: want - 1,
                want
            })
        );
        let mut bad = vec![0i16; want];
        bad[7] = 16; // 4-bit range is 0..=15
        assert_eq!(
            t.validate(&bad),
            Err(RequestError::OutOfRange {
                index: 7,
                value: 16,
                max: 15
            })
        );
        bad[7] = -1;
        assert_eq!(
            t.validate(&bad),
            Err(RequestError::OutOfRange {
                index: 7,
                value: -1,
                max: 15
            })
        );
        assert_eq!(t.validate(&vec![15; want]), Ok(()));
    }

    #[test]
    fn corrupted_template_fails_verify_and_rebuild_restores_it() {
        let mut t = WorkerTemplate::build(Variant::W4, 42).unwrap();
        assert_eq!(t.verify(), Ok(()));
        t.corrupt(TemplateStrike::generate(5));
        assert_eq!(
            t.verify(),
            Err(ServeError::TemplateCorrupted {
                variant: Variant::W4
            })
        );
        // Rebuild is a pure function of (variant, seed): the fresh
        // template carries the identical checksum and verifies again.
        let rebuilt = WorkerTemplate::build(Variant::W4, 42).unwrap();
        assert_eq!(rebuilt.checksum(), t.checksum());
        assert_eq!(rebuilt.verify(), Ok(()));
    }

    #[test]
    fn fork_serves_a_request_and_matches_golden() {
        let t = WorkerTemplate::build(Variant::W4, 42).unwrap();
        let mut soc = t.fork();
        let input = vec![3i16; t.input_len()];
        t.stage_input(&mut soc, &input);
        let report = soc.run(t.budget()).expect("clean run");
        assert!(report.exit.halted);
        assert_eq!(t.collect_output(&soc), t.golden(&input));
    }
}
