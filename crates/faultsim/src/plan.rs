//! Seeded fault plans: *what* to flip, *where*, and *when*.
//!
//! A [`FaultPlan`] is a sorted list of single-bit transient flips, each
//! scheduled at an absolute cycle count. Plans are generated from a
//! [`TargetSpace`] — the set of state a flip may land in — by a seeded
//! [`xrand::Rng`], so a `(seed, space)` pair always produces the same
//! plan: every campaign trial, and every replay of it, is reproducible
//! from its seed alone.

use pulp_kernels::{Kernel, LayerLayout, Testbench};
use qnn::BitWidth;
use std::fmt;
use xrand::Rng;

/// Which architectural structure a fault models a strike in.
///
/// The domains mirror the AVF methodology's split of soft-error targets:
/// flops in the register file, the (register-resident) SIMD
/// accumulators, SRAM data, and the `pv.qnt` threshold trees the
/// hardware quantizer walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDomain {
    /// Any live general-purpose register.
    RegisterFile,
    /// The callee-saved registers the unrolled kernels accumulate in.
    Accumulator,
    /// Activation/weight/output bytes in L2.
    DataMemory,
    /// The eytzinger threshold trees read by `pv.qnt`.
    ThresholdTree,
}

impl fmt::Display for FaultDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultDomain::RegisterFile => "register-file",
            FaultDomain::Accumulator => "accumulator",
            FaultDomain::DataMemory => "data-memory",
            FaultDomain::ThresholdTree => "threshold-tree",
        })
    }
}

/// The exact bit a fault flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Bit `bit` of register `x<reg>` (never `x0`).
    Register {
        /// Register index in `1..32`.
        reg: usize,
        /// Bit index in `0..32`.
        bit: u32,
    },
    /// Bit `bit` of the byte at `addr` in L2.
    Memory {
        /// Byte address.
        addr: u32,
        /// Bit index in `0..8`.
        bit: u32,
    },
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultTarget::Register { reg, bit } => write!(f, "x{reg} bit {bit}"),
            FaultTarget::Memory { addr, bit } => write!(f, "[{addr:#010x}] bit {bit}"),
        }
    }
}

/// One scheduled transient flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute cycle count at (or just after) which the flip lands —
    /// the driver applies it before the first instruction retiring at
    /// `>= cycle`.
    pub cycle: u64,
    /// Modeled structure.
    pub domain: FaultDomain,
    /// Exact bit.
    pub target: FaultTarget,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} flip of {} at cycle {}",
            self.domain, self.target, self.cycle
        )
    }
}

/// A byte range in L2 belonging to one fault domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRegion {
    /// Domain flips in this region model.
    pub domain: FaultDomain,
    /// First byte address.
    pub base: u32,
    /// Length in bytes (never 0).
    pub len: u32,
}

/// The state a plan may strike, plus the injection time window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSpace {
    /// Half-open cycle window `[start, end)` flips are scheduled in.
    pub window: (u64, u64),
    /// Memory regions (data tensors, threshold trees).
    pub regions: Vec<MemRegion>,
    /// Allow [`FaultDomain::RegisterFile`] / [`FaultDomain::Accumulator`]
    /// targets.
    pub registers: bool,
}

/// The callee-saved registers (`s0`–`s11`) the generated kernels keep
/// their SIMD accumulators in.
pub const ACCUMULATOR_REGS: [usize; 12] = [8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27];

impl TargetSpace {
    /// The target space of one staged layer of any kernel kind: the
    /// register file plus its input, weights and output tensors and its
    /// threshold trees — whichever the kernel has — at the tensor bases
    /// of `at` (the testbench's L2 layout, or a cluster's TCDM copies).
    /// `clean_cycles` — the layer's fault-free runtime — bounds the
    /// injection window so every scheduled flip lands while the kernel
    /// is actually executing.
    pub fn layer<K: Kernel>(tb: &Testbench<K>, at: &LayerLayout, clean_cycles: u64) -> TargetSpace {
        let data = |base, (elems, bits): (usize, BitWidth)| MemRegion {
            domain: FaultDomain::DataMemory,
            base,
            len: ((elems * bits.bits() as usize) / 8).max(1) as u32,
        };
        let mut regions = vec![data(at.input, tb.cfg.input())];
        regions.extend(tb.cfg.weights().map(|w| data(at.weights, w)));
        regions.push(data(at.output, tb.cfg.output()));
        if let Some(t) = tb.thresholds() {
            // One eytzinger tree of (2^bits - 1) i16 thresholds per
            // channel.
            regions.push(MemRegion {
                domain: FaultDomain::ThresholdTree,
                base: at.thresholds,
                len: (t.channels() * t.bits().threshold_count() * 2) as u32,
            });
        }
        TargetSpace {
            window: (1, clean_cycles.max(2)),
            regions,
            registers: true,
        }
    }
}

/// A deterministic schedule of transient flips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed that generated the plan.
    pub seed: u64,
    /// Events sorted by cycle, ascending.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty (disarmed) plan.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Generates `n` flips from `seed` over `space`. Identical inputs
    /// always yield identical plans.
    pub fn generate(seed: u64, space: &TargetSpace, n: usize) -> FaultPlan {
        let mut rng = Rng::new(seed);
        let mut events = Vec::with_capacity(n);
        let (lo, hi) = space.window;
        let mut domains: Vec<FaultDomain> = Vec::new();
        if space.registers {
            domains.push(FaultDomain::RegisterFile);
            domains.push(FaultDomain::Accumulator);
        }
        for r in &space.regions {
            if !domains.contains(&r.domain) {
                domains.push(r.domain);
            }
        }
        assert!(!domains.is_empty(), "empty fault target space");
        for _ in 0..n {
            let cycle = lo + rng.below(hi.saturating_sub(lo).max(1));
            let domain = *rng.choose(&domains);
            let target = match domain {
                FaultDomain::RegisterFile => FaultTarget::Register {
                    reg: 1 + rng.below(31) as usize,
                    bit: rng.below(32) as u32,
                },
                FaultDomain::Accumulator => FaultTarget::Register {
                    reg: *rng.choose(&ACCUMULATOR_REGS),
                    bit: rng.below(32) as u32,
                },
                FaultDomain::DataMemory | FaultDomain::ThresholdTree => {
                    let candidates: Vec<&MemRegion> = space
                        .regions
                        .iter()
                        .filter(|r| r.domain == domain)
                        .collect();
                    let r = rng.choose(&candidates);
                    FaultTarget::Memory {
                        addr: r.base + rng.below(r.len as u64) as u32,
                        bit: rng.below(8) as u32,
                    }
                }
            };
            events.push(FaultEvent {
                cycle,
                domain,
                target,
            });
        }
        events.sort_by_key(|e| e.cycle);
        FaultPlan { seed, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_kernels::{ConvKernelConfig, ConvTestbench, KernelIsa};

    fn paper_space(bits: BitWidth, hw: bool) -> TargetSpace {
        let cfg = ConvKernelConfig::paper(bits, KernelIsa::XpulpNN, hw);
        let tb = ConvTestbench::new(cfg, 42).unwrap();
        TargetSpace::layer(&tb, &tb.layout, 50_000)
    }

    fn space() -> TargetSpace {
        paper_space(BitWidth::W4, true)
    }

    #[test]
    fn plans_are_deterministic() {
        let s = space();
        let a = FaultPlan::generate(99, &s, 16);
        let b = FaultPlan::generate(99, &s, 16);
        assert_eq!(a, b);
        let c = FaultPlan::generate(100, &s, 16);
        assert_ne!(a, c);
    }

    #[test]
    fn events_land_inside_the_space() {
        let s = space();
        let plan = FaultPlan::generate(7, &s, 200);
        assert_eq!(plan.events.len(), 200);
        let mut last = 0;
        for e in &plan.events {
            assert!(e.cycle >= s.window.0 && e.cycle < s.window.1);
            assert!(e.cycle >= last, "events must be cycle-sorted");
            last = e.cycle;
            match e.target {
                FaultTarget::Register { reg, bit } => {
                    assert!((1..32).contains(&reg));
                    assert!(bit < 32);
                    if e.domain == FaultDomain::Accumulator {
                        assert!(ACCUMULATOR_REGS.contains(&reg));
                    }
                }
                FaultTarget::Memory { addr, bit } => {
                    assert!(bit < 8);
                    assert!(s
                        .regions
                        .iter()
                        .any(|r| r.domain == e.domain && addr >= r.base && addr < r.base + r.len));
                }
            }
        }
    }

    #[test]
    fn sub_byte_layers_expose_threshold_trees() {
        let s = space();
        assert!(s
            .regions
            .iter()
            .any(|r| r.domain == FaultDomain::ThresholdTree));
        let s8 = paper_space(BitWidth::W8, false);
        assert!(!s8
            .regions
            .iter()
            .any(|r| r.domain == FaultDomain::ThresholdTree));
    }
}
