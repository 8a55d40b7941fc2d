//! The armed execution driver: checkpoints, injects, and classifies.
//!
//! Fault injection is deliberately *external* to the core: the driver
//! re-implements the [`Soc::run`] step loop and applies due flips
//! between `step()` calls, directly on the architectural state
//! (`core.regs`) or through the host-side memory API (which bypasses
//! the bus and so never perturbs the perf counters). The core itself
//! carries **no hooks at all**, so a disarmed run is the unmodified hot
//! path by construction — the `disarmed_runs_cost_nothing` test pins
//! the Fig. 8 benchmark layer to its exact pre-faultsim cycle count.
//!
//! The driver also keeps a rolling checkpoint ([`Soc::snapshot`]) up to
//! the first injection. Under the transient (soft-error) fault model,
//! restoring that pre-fault checkpoint and re-running *without* the
//! plan is a complete recovery — that is what the network layer's
//! retry path and the campaign replay build on.

use crate::plan::{FaultEvent, FaultPlan, FaultTarget};
use pulp_isa::Reg;
use pulp_soc::{Soc, SocSnapshot};
use riscv_core::{ExitStatus, PerfCounters, Trap};
use std::fmt;

/// Knobs of one armed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmConfig {
    /// Watchdog cycle budget (flips can turn kernels into hangs).
    pub budget: u64,
    /// Cycles between rolling pre-fault checkpoints.
    pub checkpoint_interval: u64,
    /// Execution-tracer ring size; 0 disables tracing.
    pub trace_depth: usize,
}

impl Default for ArmConfig {
    fn default() -> ArmConfig {
        ArmConfig {
            budget: 100_000_000,
            checkpoint_interval: 10_000,
            trace_depth: 64,
        }
    }
}

/// One flip as actually applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRecord {
    /// The scheduled event.
    pub event: FaultEvent,
    /// Cycle count at the moment of injection (first retire boundary at
    /// or after `event.cycle`).
    pub at_cycle: u64,
    /// PC of the next instruction at injection time.
    pub pc: u32,
    /// Value before the flip (register word, or byte widened).
    pub before: u32,
    /// Value after the flip.
    pub after: u32,
}

impl fmt::Display for InjectionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (applied at cycle {}, pc {:#010x}: {:#x} -> {:#x})",
            self.event, self.at_cycle, self.pc, self.before, self.after
        )
    }
}

/// Everything one armed run produced.
#[derive(Debug, Clone)]
pub struct ArmedRun {
    /// Halt status, or the trap (watchdog included) that ended the run.
    pub exit: Result<ExitStatus, Trap>,
    /// Perf-counter delta for this run only.
    pub perf: PerfCounters,
    /// Flips applied, in order.
    pub injections: Vec<InjectionRecord>,
    /// The newest checkpoint taken *before* the first injection (the
    /// initial state if the first flip lands before the first
    /// checkpoint interval elapses). Restoring it and re-running
    /// disarmed recovers from any transient fault.
    pub pre_fault: SocSnapshot,
    /// Checkpoints taken (including the initial one).
    pub checkpoints: u64,
    /// Last retired instructions, dumped when the run trapped and a
    /// tracer was attached; empty otherwise.
    pub trace_tail: String,
    /// Hottest PCs of the traced window on a trap; empty otherwise.
    pub hot_pcs: String,
}

impl ArmedRun {
    /// The trap that ended the run, if any.
    pub fn trap(&self) -> Option<&Trap> {
        self.exit.as_ref().err()
    }
}

/// Applies one flip to the SoC, recording old and new values.
fn apply(soc: &mut Soc, event: &FaultEvent) -> InjectionRecord {
    let (before, after) = match event.target {
        FaultTarget::Register { reg, bit } => {
            let before = soc.core.regs[reg];
            // `x0` is never generated, but guard anyway: flipping it
            // would model a physically absent flop.
            let after = if reg == 0 {
                before
            } else {
                before ^ (1 << bit)
            };
            soc.core.regs[reg] = after;
            (before, after)
        }
        FaultTarget::Memory { addr, bit } => {
            let before = soc.mem.read_bytes(addr, 1)[0];
            let after = before ^ (1 << bit);
            soc.mem.write_bytes(addr, &[after]);
            (u32::from(before), u32::from(after))
        }
    };
    InjectionRecord {
        event: *event,
        at_cycle: soc.core.perf.cycles,
        pc: soc.core.pc,
        before,
        after,
    }
}

/// Runs `soc` to completion under `plan`.
///
/// Semantics match [`Soc::run`] exactly when the plan is empty; with
/// events, each flip is applied at the first instruction boundary where
/// the cycle counter has reached its scheduled cycle.
pub fn run_armed(soc: &mut Soc, plan: &FaultPlan, cfg: &ArmConfig) -> ArmedRun {
    let before = soc.core.perf;
    // An armed driver mutates registers and memory behind the core's
    // back between steps, so the decoded-block fast path must not be
    // live: drop it for the whole armed run (fallback matrix in
    // `riscv_core::fastpath`). Flips to code bytes then take effect at
    // the very next fetch, exactly as the classifier assumes.
    soc.core.disable_fastpath();
    if cfg.trace_depth > 0 {
        soc.core.attach_tracer(cfg.trace_depth);
    }
    let mut pre_fault = soc.snapshot();
    let mut checkpoints = 1u64;
    let mut next_ckpt = soc
        .core
        .perf
        .cycles
        .saturating_add(cfg.checkpoint_interval.max(1));
    let mut injections: Vec<InjectionRecord> = Vec::new();
    let mut pending = plan.events.iter().peekable();
    let limit = soc.core.perf.cycles.saturating_add(cfg.budget);

    let exit = loop {
        while let Some(ev) = pending.peek() {
            if soc.core.perf.cycles >= ev.cycle {
                let ev = **ev;
                pending.next();
                injections.push(apply(soc, &ev));
            } else {
                break;
            }
        }
        if injections.is_empty() && soc.core.perf.cycles >= next_ckpt {
            pre_fault = soc.snapshot();
            checkpoints += 1;
            next_ckpt = next_ckpt.saturating_add(cfg.checkpoint_interval.max(1));
        }
        if soc.core.perf.cycles >= limit {
            break Err(Trap::Watchdog {
                pc: soc.core.pc,
                budget: cfg.budget,
            });
        }
        match soc.core.step(&mut soc.mem) {
            Ok(true) => {
                break Ok(ExitStatus {
                    halted: true,
                    exit_code: soc.core.reg(Reg::A0),
                    pc: soc.core.pc,
                })
            }
            Ok(false) => {}
            Err(t) => break Err(t),
        }
    };

    let (trace_tail, hot_pcs) = match (&exit, soc.core.take_tracer()) {
        (Err(_), Some(t)) => {
            let hot = t
                .hotspots(5)
                .iter()
                .map(|h| {
                    format!(
                        "  {:#010x}  {:>8} cycles  {:>6}x  {}",
                        h.pc, h.cycles, h.count, h.instr
                    )
                })
                .collect::<Vec<_>>()
                .join("\n");
            (t.dump_tail(), hot)
        }
        _ => (String::new(), String::new()),
    };
    ArmedRun {
        exit,
        perf: soc.core.perf.delta_since(&before),
        injections,
        pre_fault,
        checkpoints,
        trace_tail,
        hot_pcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultDomain, TargetSpace};
    use pulp_kernels::{ConvKernelConfig, ConvTestbench};
    use qnn::conv::ConvShape;
    use qnn::BitWidth;

    fn small_bench() -> ConvTestbench {
        let shape = ConvShape {
            in_h: 4,
            in_w: 4,
            in_c: 16,
            out_c: 8,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        ConvTestbench::new(
            ConvKernelConfig::mixed(shape, BitWidth::W4, BitWidth::W4),
            11,
        )
        .expect("valid config")
    }

    #[test]
    fn empty_plan_matches_plain_run_exactly() {
        let tb = small_bench();
        let clean = tb.run().expect("clean run");
        let mut soc = tb.stage();
        let armed = run_armed(&mut soc, &FaultPlan::none(), &ArmConfig::default());
        let exit = armed.exit.expect("halts");
        assert!(exit.halted);
        assert_eq!(armed.perf, clean.report.perf);
        assert!(armed.injections.is_empty());
        assert!(tb
            .collect(
                &soc,
                pulp_soc::RunReport {
                    exit,
                    perf: armed.perf
                }
            )
            .matches());
    }

    #[test]
    fn arming_disables_a_live_fastpath_and_stays_exact() {
        // A caller may hand over an SoC with the decoded-block fast
        // path already enabled; arming must drop it (flips bypass the
        // bus, so cached blocks would go stale) and still reproduce the
        // interpreter's counters exactly.
        let tb = small_bench();
        let clean = tb.run().expect("clean run");
        let mut soc = tb.stage();
        soc.enable_fastpath();
        let armed = run_armed(&mut soc, &FaultPlan::none(), &ArmConfig::default());
        assert!(!soc.core.fastpath_enabled());
        assert_eq!(armed.perf, clean.report.perf);
    }

    #[test]
    fn injections_are_recorded_and_deterministic() {
        let tb = small_bench();
        let clean = tb.run().expect("clean run").report.perf.cycles;
        let space = TargetSpace::layer(&tb, &tb.layout, clean);
        let plan = FaultPlan::generate(5, &space, 3);
        let run_once = || {
            let mut soc = tb.stage();
            run_armed(&mut soc, &plan, &ArmConfig::default())
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.injections.len(), 3);
        assert_eq!(a.injections, b.injections);
        assert_eq!(a.perf, b.perf);
        assert_eq!(a.exit.is_ok(), b.exit.is_ok());
        for i in &a.injections {
            assert!(i.at_cycle >= i.event.cycle);
            assert_ne!(
                i.before, i.after,
                "a flip must change the value (target {})",
                i.event.target
            );
        }
    }

    #[test]
    fn rollback_from_pre_fault_checkpoint_recovers() {
        let tb = small_bench();
        let clean = tb.run().expect("clean run");
        // A violent flip: stack pointer high bit mid-kernel.
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                cycle: clean.report.perf.cycles / 2,
                domain: FaultDomain::RegisterFile,
                target: FaultTarget::Register { reg: 2, bit: 31 },
            }],
        };
        let cfg = ArmConfig {
            checkpoint_interval: 1_000,
            ..ArmConfig::default()
        };
        let mut soc = tb.stage();
        let armed = run_armed(&mut soc, &plan, &cfg);
        assert_eq!(armed.injections.len(), 1);
        assert!(
            armed.checkpoints > 1,
            "interval must have produced checkpoints"
        );
        assert!(
            armed.pre_fault.cycles() < armed.injections[0].at_cycle,
            "pre-fault checkpoint must predate the injection"
        );
        // Transient fault: restore + disarmed re-run completes cleanly
        // with the exact clean-run results.
        let mut retry = tb.stage();
        retry.restore(&armed.pre_fault);
        let report = retry.run(100_000_000).expect("recovered run halts");
        assert!(tb.collect(&retry, report).matches());
        assert_eq!(
            soc_total(&retry),
            clean.report.perf.cycles,
            "deterministic re-execution"
        );
    }

    /// Restore touches only the pages marked dirty, so every way of
    /// dirtying L2 must mark them — including accesses that straddle a
    /// 4 KiB page boundary. Memory dirtied by a misaligned `sw`, a
    /// host `write_bytes`, a vector store and an armed memory flip must
    /// all roll back to exactly a fresh machine's image.
    #[test]
    fn restore_after_page_straddling_writes_matches_a_fresh_restore() {
        use pulp_asm::Asm;
        use pulp_isa::vec::{VReg, VecSew};
        use pulp_soc::{CODE_BASE, L2_BASE, L2_SIZE};
        use riscv_core::IsaConfig;

        let src = L2_BASE + 0x2_0000;
        let vec_dst = L2_BASE + 0x3_0ff8; // 16 bytes over pages 0x30/0x31
        let word_dst = L2_BASE + 0x4_0ffe; // 4 bytes over pages 0x40/0x41
        let host_dst = L2_BASE + 0x2_0ff0; // stored page 0x20 into 0x21
        let flip = L2_BASE + 0x6_0010;

        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::T0, 16);
        a.vsetvli(Reg::T1, Reg::T0, VecSew::E8);
        a.li(Reg::A1, src as i32);
        a.vle(VReg::new(1).unwrap(), Reg::A1);
        a.li(Reg::A2, vec_dst as i32);
        a.vse(VReg::new(1).unwrap(), Reg::A2);
        a.li(Reg::A0, 0x1122_3344);
        a.li(Reg::A3, word_dst as i32);
        a.sw(Reg::A0, 0, Reg::A3);
        a.ecall();
        let mut soc = Soc::with_vlen(IsaConfig::vector(), 128);
        soc.load(&a.assemble().unwrap());
        let payload: Vec<u8> = (1..=16).collect();
        soc.mem.write_bytes(src, &payload);
        let snap = soc.snapshot();

        soc.mem.write_bytes(host_dst, &[0xab; 32]);
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                cycle: 0,
                domain: FaultDomain::DataMemory,
                target: FaultTarget::Memory { addr: flip, bit: 3 },
            }],
        };
        let armed = run_armed(&mut soc, &plan, &ArmConfig::default());
        assert!(armed.exit.expect("halts").halted);
        assert_eq!(armed.injections.len(), 1);
        assert_eq!(soc.mem.read_bytes(vec_dst, 16), &payload[..]);
        assert_eq!(soc.mem.read_bytes(word_dst, 4), &[0x44, 0x33, 0x22, 0x11]);
        assert_eq!(soc.mem.read_bytes(host_dst, 32), &[0xab; 32]);
        assert_eq!(soc.mem.read_bytes(flip, 1), &[1 << 3]);

        soc.restore(&snap);
        let mut fresh = Soc::new(IsaConfig::vector());
        fresh.restore(&snap);
        let whole = |soc: &Soc| soc.mem.read_bytes(L2_BASE, L2_SIZE as usize).to_vec();
        assert!(whole(&soc) == whole(&fresh), "restored L2 image differs");
        assert_eq!(soc.snapshot(), snap);
    }

    fn soc_total(soc: &Soc) -> u64 {
        soc.core.perf.cycles
    }

    #[test]
    fn traps_dump_the_tracer_tail() {
        let tb = small_bench();
        // Flipping the stack pointer's top bit just before the epilogue
        // reliably sends a load outside L2.
        let clean = tb.run().expect("clean run").report.perf.cycles;
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                cycle: clean / 2,
                domain: FaultDomain::RegisterFile,
                target: FaultTarget::Register { reg: 2, bit: 31 },
            }],
        };
        let mut soc = tb.stage();
        let armed = run_armed(&mut soc, &plan, &ArmConfig::default());
        if armed.exit.is_err() {
            assert!(
                !armed.trace_tail.is_empty(),
                "trap must dump the trace tail"
            );
            assert!(!armed.hot_pcs.is_empty());
        }
    }
}
