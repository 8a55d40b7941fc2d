//! Trap-path coverage: bus faults at every access size, misaligned
//! accesses straddling the end of mapped memory, `Trap` display
//! formatting, watchdog exhaustion, snapshot→restore round trips, and
//! mid-loop bus faults leaving the same state on every execution path.

use pulp_asm::Asm;
use pulp_isa::instr::{Instr, LoadKind, StoreKind};
use pulp_isa::Reg;
use riscv_core::{Bus, BusError, Core, IsaConfig, SliceMem, Trap};

const BASE: u32 = 0;
const LEN: usize = 4096;

fn run_one(build: impl FnOnce(&mut Asm)) -> Result<(), Trap> {
    let mut a = Asm::new(BASE);
    build(&mut a);
    let prog = a.assemble().expect("assembly failed");
    let mut mem = SliceMem::new(BASE, LEN);
    mem.load_program(&prog);
    let mut core = Core::new(IsaConfig::xpulpnn());
    core.pc = prog.base;
    core.run(&mut mem, 100_000).map(|exit| {
        assert!(exit.halted);
    })
}

#[test]
fn out_of_bounds_loads_trap_at_every_size() {
    for kind in [
        LoadKind::Byte,
        LoadKind::ByteU,
        LoadKind::Half,
        LoadKind::HalfU,
        LoadKind::Word,
    ] {
        let err = run_one(|a| {
            a.li(Reg::A0, 0x4000_0000);
            a.i(Instr::Load {
                kind,
                rd: Reg::A1,
                rs1: Reg::A0,
                offset: 0,
            });
            a.ecall();
        })
        .unwrap_err();
        match err {
            Trap::Bus { error, .. } => {
                assert_eq!(
                    error,
                    BusError {
                        addr: 0x4000_0000,
                        size: kind.size(),
                        write: false
                    }
                );
            }
            other => panic!("expected bus trap, got {other}"),
        }
    }
}

#[test]
fn out_of_bounds_stores_trap_at_every_size() {
    for kind in [StoreKind::Byte, StoreKind::Half, StoreKind::Word] {
        let err = run_one(|a| {
            a.li(Reg::A0, 0x4000_0000);
            a.i(Instr::Store {
                kind,
                rs1: Reg::A0,
                rs2: Reg::Zero,
                offset: 0,
            });
            a.ecall();
        })
        .unwrap_err();
        match err {
            Trap::Bus { error, .. } => {
                assert_eq!(
                    error,
                    BusError {
                        addr: 0x4000_0000,
                        size: kind.size(),
                        write: true
                    }
                );
            }
            other => panic!("expected bus trap, got {other}"),
        }
    }
}

#[test]
fn accesses_straddling_the_end_of_memory_trap() {
    // A misaligned access whose first byte is mapped but whose last
    // byte is not must still fault (the bus moves whole accesses).
    for (kind, size) in [(LoadKind::Half, 2u32), (LoadKind::Word, 4u32)] {
        let addr = BASE + LEN as u32 - size + 1;
        let err = run_one(|a| {
            a.li(Reg::A0, addr as i32);
            a.i(Instr::Load {
                kind,
                rd: Reg::A1,
                rs1: Reg::A0,
                offset: 0,
            });
            a.ecall();
        })
        .unwrap_err();
        assert!(
            matches!(err, Trap::Bus { error, .. } if error.addr == addr && error.size == size),
            "straddling {size}-byte load at {addr:#x}: {err}"
        );
    }
}

#[test]
fn misaligned_in_bounds_access_succeeds_with_stall() {
    // Fully mapped but crossing a word boundary: legal, one extra cycle.
    let mut mem = SliceMem::new(BASE, LEN);
    mem.write(0x102, 4, 0xdead_beef).unwrap();
    let mut a = Asm::new(BASE);
    a.li(Reg::A0, 0x102);
    a.lw(Reg::A1, 0, Reg::A0);
    a.ecall();
    let prog = a.assemble().unwrap();
    mem.load_program(&prog);
    let mut core = Core::new(IsaConfig::xpulpnn());
    core.pc = prog.base;
    core.run(&mut mem, 1_000).unwrap();
    assert_eq!(core.reg(Reg::A1), 0xdead_beef);
    assert!(core.perf.stall_cycles >= 1, "misalignment must stall");
}

#[test]
fn instruction_fetch_outside_memory_traps() {
    let mut mem = SliceMem::new(BASE, LEN);
    let mut core = Core::new(IsaConfig::xpulpnn());
    core.pc = 0x7fff_0000;
    let err = core.run(&mut mem, 1_000).unwrap_err();
    assert!(
        matches!(
            err,
            Trap::Bus {
                pc: 0x7fff_0000,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn trap_display_formats() {
    let cases: [(Trap, &str); 5] = [
        (
            Trap::IllegalInstruction {
                pc: 0x1c008000,
                word: 0xffff_ffff,
            },
            "illegal instruction 0xffffffff at pc 0x1c008000",
        ),
        (
            Trap::ExtensionFault {
                pc: 0x10,
                required: "xpulpnn",
            },
            "instruction at pc 0x00000010 requires the xpulpnn extension",
        ),
        (
            Trap::Bus {
                pc: 0x20,
                error: BusError {
                    addr: 0x4000_0000,
                    size: 4,
                    write: true,
                },
            },
            "bus error: 4-byte write at 0x40000000 at pc 0x00000020",
        ),
        (Trap::Breakpoint { pc: 0x30 }, "breakpoint at pc 0x00000030"),
        (
            Trap::Watchdog {
                pc: 0x40,
                budget: 1000,
            },
            "watchdog: cycle budget (1000) exhausted at pc 0x00000040",
        ),
    ];
    for (trap, expect) in cases {
        assert_eq!(trap.to_string(), expect);
    }
}

#[test]
fn watchdog_trap_from_run_and_run_traced() {
    let mut a = Asm::new(BASE);
    a.label("spin");
    a.j("spin");
    let prog = a.assemble().unwrap();

    let mut mem = SliceMem::new(BASE, LEN);
    mem.load_program(&prog);
    let mut core = Core::new(IsaConfig::xpulpnn());
    core.pc = prog.base;
    let err = core.run(&mut mem, 50).unwrap_err();
    assert!(matches!(err, Trap::Watchdog { budget: 50, .. }), "{err}");

    let mut core = Core::new(IsaConfig::xpulpnn());
    core.pc = prog.base;
    let mut retired = 0u64;
    let err = core
        .run_traced(&mut mem, 50, |_, _| retired += 1)
        .unwrap_err();
    assert!(matches!(err, Trap::Watchdog { budget: 50, .. }), "{err}");
    assert!(retired > 0);
}

/// A program with live values in registers, CSRs, both hardware loops
/// and memory, interrupted mid-flight: restoring the snapshot and
/// re-executing must reproduce the original final state exactly,
/// including every perf counter and the cycle ledger.
#[test]
fn snapshot_restore_round_trip_reproduces_the_run() {
    let build = |a: &mut Asm| {
        a.li(Reg::A0, 0);
        a.li(Reg::A2, 0x200);
        a.i(Instr::Csr {
            op: 0, // csrrw
            rd: Reg::Zero,
            rs1: Reg::A2,
            csr: 0x340, // mscratch: exercises the generic CSR map
        });
        a.lp_setupi(pulp_isa::instr::LoopIdx::L0, 40, "outer_end");
        a.addi(Reg::A0, Reg::A0, 3);
        a.sw(Reg::A0, 0, Reg::A2);
        a.lw(Reg::A1, 0, Reg::A2);
        a.label("outer_end");
        a.add(Reg::A1, Reg::A1, Reg::A0);
        a.ecall();
    };
    let mut a = Asm::new(BASE);
    build(&mut a);
    let prog = a.assemble().unwrap();

    // Reference: run to completion in one go.
    let mut ref_mem = SliceMem::new(BASE, LEN);
    ref_mem.load_program(&prog);
    let mut ref_core = Core::new(IsaConfig::xpulpnn());
    ref_core.pc = prog.base;
    let ref_exit = ref_core.run(&mut ref_mem, 100_000).unwrap();

    // Interrupted: stop mid-loop, checkpoint, keep going, then roll back
    // to the checkpoint and re-execute the tail.
    let mut mem = SliceMem::new(BASE, LEN);
    mem.load_program(&prog);
    let mut core = Core::new(IsaConfig::xpulpnn());
    core.pc = prog.base;
    let err = core.run(&mut mem, 60).unwrap_err();
    assert!(matches!(err, Trap::Watchdog { .. }));

    let snap = core.snapshot();
    let mem_image = mem.clone();
    assert_eq!(snap.pc(), core.pc);
    assert_eq!(snap.cycles(), core.perf.cycles);

    let exit_a = core.run(&mut mem, 100_000).unwrap();

    let mut replay = Core::new(IsaConfig::xpulpnn());
    replay.restore(&snap);
    assert_eq!(replay.snapshot(), snap, "restore must round-trip exactly");
    let mut replay_mem = mem_image;
    let exit_b = replay.run(&mut replay_mem, 100_000).unwrap();

    assert_eq!(exit_a, exit_b);
    assert_eq!(exit_a, ref_exit);
    assert_eq!(core.regs, replay.regs);
    assert_eq!(core.perf, replay.perf);
    assert_eq!(core.perf, ref_core.perf);
    assert_eq!(mem.as_bytes(), replay_mem.as_bytes());
    assert_eq!(
        replay.perf.cycles,
        replay.perf.ledger.total(),
        "ledger invariant must survive restore"
    );
}

/// How [`drive`] executes a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// `step()` with no block cache: each op decoded afresh.
    Interp,
    /// `step()` through the decoded-block cache, one op per call.
    CachedStep,
    /// `run()`: cached blocks, burst-eligible runs retired batched.
    Run,
}

/// Executes until `ecall` or the first trap.
fn drive(core: &mut Core, mem: &mut SliceMem, path: Path) -> Result<(), Trap> {
    if path == Path::Run {
        return core.run(mem, 100_000).map(|exit| assert!(exit.halted));
    }
    for _ in 0..100_000 {
        if core.step(mem)? {
            return Ok(());
        }
    }
    panic!("{path:?}: program did not halt");
}

/// A bus fault on a burst-eligible `p.lw` / `p.sw` midway through a
/// hardware loop leaves identical pc, registers and counters (ledger,
/// misalign stalls and the faulting access's partial count included)
/// whether the ops are interpreted, stepped from the block cache or
/// retired in batches by `run()`; and on every path a resumed run
/// re-executes the faulting op.
#[test]
fn mid_loop_bus_faults_leave_identical_state_on_every_path() {
    use pulp_isa::instr::LoopIdx;
    use riscv_core::CycleClass;
    const TRIPS: u32 = 8;
    // The pointer walks up to the end of memory 4 bytes a step from a
    // half-word offset: every access straddles a word boundary (one
    // misalign stall each) and the fifth one leaves mapped memory.
    const START: u32 = LEN as u32 - 4 * 5 + 2;
    for store in [false, true] {
        let mut a = Asm::new(BASE);
        a.li(Reg::A0, 0);
        a.li(Reg::T0, TRIPS as i32);
        a.li(Reg::A1, START as i32);
        a.lp_setup(LoopIdx::L0, Reg::T0, "end");
        if store {
            a.addi(Reg::A0, Reg::A0, 3);
            a.label("access");
            a.p_sw_postinc(Reg::A0, 4, Reg::A1);
        } else {
            a.label("access");
            a.p_lw_postinc(Reg::T1, 4, Reg::A1);
            a.add(Reg::A0, Reg::A0, Reg::T1);
        }
        a.label("end");
        a.ecall();
        let prog = a.assemble().expect("assembly failed");
        let access = prog.symbol("access").expect("label");

        let runs = [Path::Interp, Path::CachedStep, Path::Run].map(|path| {
            let mut mem = SliceMem::new(BASE, LEN);
            mem.load_program(&prog);
            for (i, b) in mem.as_bytes_mut()[0x800..].iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(37) ^ 0x5a;
            }
            let mut core = Core::new(IsaConfig::xpulpnn());
            if path != Path::Interp {
                core.enable_fastpath();
            }
            core.pc = prog.base;
            let trap = drive(&mut core, &mut mem, path).unwrap_err();
            let at_trap = (trap, core.pc, core.regs, core.perf);
            // Point the walk back into memory and resume.
            core.set_reg(Reg::A1, 0x800);
            drive(&mut core, &mut mem, path).expect("resumed run halts");
            (at_trap, core.regs, core.perf, mem.as_bytes().to_vec())
        });
        assert_eq!(
            runs[0], runs[1],
            "cached step vs interpreter (store={store})"
        );
        assert_eq!(runs[0], runs[2], "run() vs interpreter (store={store})");

        let ((trap, pc, _, perf), _, end_perf, _) = &runs[0];
        assert_eq!(*pc, access, "the trap leaves pc on the faulting op");
        assert_eq!(
            *trap,
            Trap::Bus {
                pc: access,
                error: BusError {
                    addr: START + 16,
                    size: 4,
                    write: store
                }
            }
        );
        assert_eq!(perf.ledger.get(CycleClass::MisalignStall), 5);
        assert_eq!(perf.cycles, perf.ledger.total());
        // The faulting access is counted once when it faults and once
        // more when the resumed run re-executes it.
        let accesses = |p: &riscv_core::PerfCounters| if store { p.stores } else { p.loads };
        assert_eq!(accesses(perf), 5);
        assert_eq!(accesses(end_perf), u64::from(TRIPS) + 1);
    }
}
