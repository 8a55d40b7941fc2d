//! Differential property tests for the core model.
//!
//! 1. **RVC equivalence** — a random straight-line program executed from
//!    its 32-bit encoding and from its RVC-compressed encoding must
//!    produce identical architectural state and identical cycle counts
//!    (RVC trades size, not time, on RI5CY).
//! 2. **ALU reference** — random ALU instruction sequences match an
//!    independent host-side interpreter.
//!
//! Originally `proptest` properties; rewritten as seeded `xrand` loops so
//! the tree resolves offline. Failure messages carry the case index,
//! which together with the fixed seed reproduces the input exactly.

use pulp_isa::compressed::compress;
use pulp_isa::encode::encode;
use pulp_isa::instr::{AluOp, Instr};
use pulp_isa::reg::ALL_REGS;
use pulp_isa::Reg;
use riscv_core::{Core, IsaConfig, SliceMem};
use xrand::Rng;

const CASES: usize = 128;

fn any_reg(r: &mut Rng) -> Reg {
    ALL_REGS[r.below(32) as usize]
}

/// Straight-line ALU/immediate instructions (no control flow, no memory).
fn any_straightline_instr(r: &mut Rng) -> Instr {
    match r.below(5) {
        0 => Instr::Alu {
            op: *r.choose(&AluOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        1 => loop {
            let (rd, rs1) = (any_reg(r), any_reg(r));
            let imm = r.range_i32(-2048, 2047);
            // Skip the canonical nop: it decodes specially.
            if rd == Reg::Zero && rs1 == Reg::Zero && imm == 0 {
                continue;
            }
            return Instr::AluImm {
                op: AluOp::Add,
                rd,
                rs1,
                imm,
            };
        },
        2 => Instr::AluImm {
            op: AluOp::Sll,
            rd: any_reg(r),
            rs1: any_reg(r),
            imm: r.range_i32(0, 31),
        },
        3 => Instr::AluImm {
            op: AluOp::Sra,
            rd: any_reg(r),
            rs1: any_reg(r),
            imm: r.range_i32(0, 31),
        },
        _ => Instr::Lui {
            rd: any_reg(r),
            imm: r.next_u32() & 0xffff_f000,
        },
    }
}

fn any_program(r: &mut Rng, max_len: usize) -> (Vec<Instr>, [u32; 32]) {
    let len = r.range_usize(1, max_len);
    let instrs = (0..len).map(|_| any_straightline_instr(r)).collect();
    let mut seed_regs = [0u32; 32];
    for v in seed_regs.iter_mut() {
        *v = r.next_u32();
    }
    (instrs, seed_regs)
}

fn run_stream(words: &[(u32, u32)], seed_regs: &[u32; 32]) -> (Vec<u32>, u64) {
    // words: (encoding, byte length)
    let mut mem = SliceMem::new(0, 1 << 16);
    let mut addr = 0u32;
    for (w, len) in words {
        mem.as_bytes_mut()[addr as usize..(addr + len) as usize]
            .copy_from_slice(&w.to_le_bytes()[..*len as usize]);
        addr += len;
    }
    // Terminate.
    mem.as_bytes_mut()[addr as usize..addr as usize + 4]
        .copy_from_slice(&encode(&Instr::Ecall).to_le_bytes());
    let mut core = Core::new(IsaConfig::xpulpnn());
    for (i, v) in seed_regs.iter().enumerate() {
        if let Some(r) = Reg::from_index(i) {
            core.set_reg(r, *v);
        }
    }
    let exit = core.run(&mut mem, 1_000_000).expect("run");
    assert!(exit.halted);
    (core.regs.to_vec(), core.perf.cycles)
}

/// Compressed and uncompressed encodings of the same program are
/// architecturally and temporally identical.
#[test]
fn rvc_execution_equivalence() {
    let mut r = Rng::new(0xd1ff_0001);
    for case in 0..CASES {
        let (instrs, seed_regs) = any_program(&mut r, 24);
        let wide: Vec<(u32, u32)> = instrs.iter().map(|i| (encode(i), 4)).collect();
        let narrow: Vec<(u32, u32)> = instrs
            .iter()
            .map(|i| match compress(i) {
                Some(p) => (p as u32, 2),
                None => (encode(i), 4),
            })
            .collect();
        let (regs_w, cyc_w) = run_stream(&wide, &seed_regs);
        let (regs_n, cyc_n) = run_stream(&narrow, &seed_regs);
        assert_eq!(
            regs_w, regs_n,
            "case {case}: architectural divergence in {instrs:?}"
        );
        assert_eq!(
            cyc_w, cyc_n,
            "case {case}: RVC must not change cycle counts"
        );
    }
}

/// The core's ALU results match an independent interpreter over the
/// same instruction list.
#[test]
fn alu_matches_reference_interpreter() {
    let mut r = Rng::new(0xd1ff_0002);
    for case in 0..CASES {
        let (instrs, seed_regs) = any_program(&mut r, 32);
        // Reference: direct evaluation over a register array.
        let mut regs = seed_regs;
        regs[0] = 0;
        for i in &instrs {
            let v = match *i {
                Instr::Alu { op, rs1, rs2, .. } => op.eval(regs[rs1.index()], regs[rs2.index()]),
                Instr::AluImm { op, rs1, imm, .. } => op.eval(regs[rs1.index()], imm as u32),
                Instr::Lui { imm, .. } => imm,
                _ => unreachable!(),
            };
            let (Instr::Alu { rd, .. } | Instr::AluImm { rd, .. } | Instr::Lui { rd, .. }) = *i
            else {
                unreachable!()
            };
            if rd != Reg::Zero {
                regs[rd.index()] = v;
            }
        }
        let wide: Vec<(u32, u32)> = instrs.iter().map(|i| (encode(i), 4)).collect();
        let (core_regs, cycles) = run_stream(&wide, &seed_regs);
        assert_eq!(&core_regs[..], &regs[..], "case {case}: {instrs:?}");
        // Straight-line single-cycle ops: cycles = instrs + ecall.
        assert_eq!(cycles, instrs.len() as u64 + 1, "case {case}");
    }
}
