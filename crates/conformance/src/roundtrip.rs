//! An arbitrary-instruction sampler over the **full** instruction enum.
//!
//! Unlike the generator in [`crate::gen`] — which only emits
//! instructions that are safe to *execute* — this sampler covers every
//! variant that has an encoding (CSR accesses, fences, `ebreak`, bare
//! hardware-loop setup instructions with arbitrary offsets, ...), for
//! `encode→decode→encode` and `text→parse→disasm→parse` properties.
//! All immediates are drawn from their exact encodable ranges.

use pulp_isa::instr::{
    AluOp, BitOp, BranchCond, Instr, LoadKind, LoopIdx, MulDivOp, PulpAluOp, SimdAluOp, StoreKind,
};
use pulp_isa::reg::Reg;
use pulp_isa::simd::{DotSign, SimdFmt};
use xrand::Rng;

use crate::gen::{any_reg, simd_operand, ALUI_ARITH, ALUI_SHIFT, WORD_FMTS};

/// Number of distinct sampler arms (one per instruction shape).
pub const ARMS: u64 = 27;

/// Draws one instruction from the full encodable enum.
pub fn arbitrary_instr(r: &mut Rng) -> Instr {
    let l = if r.flip() { LoopIdx::L0 } else { LoopIdx::L1 };
    match r.below(ARMS) {
        0 => Instr::Lui {
            rd: any_reg(r),
            imm: r.next_u32() & 0xffff_f000,
        },
        1 => Instr::Auipc {
            rd: any_reg(r),
            imm: r.next_u32() & 0xffff_f000,
        },
        2 => Instr::Jal {
            rd: any_reg(r),
            offset: r.range_i32(-(1 << 20), (1 << 20) - 1) & !1,
        },
        3 => Instr::Jalr {
            rd: any_reg(r),
            rs1: any_reg(r),
            offset: r.range_i32(-2048, 2047),
        },
        4 => Instr::Branch {
            cond: *r.choose(&BranchCond::ALL),
            rs1: any_reg(r),
            rs2: any_reg(r),
            offset: r.range_i32(-4096, 4095) & !1,
        },
        5 => Instr::Load {
            kind: *r.choose(&LoadKind::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            offset: r.range_i32(-2048, 2047),
        },
        6 => Instr::Store {
            kind: *r.choose(&StoreKind::ALL),
            rs1: any_reg(r),
            rs2: any_reg(r),
            offset: r.range_i32(-2048, 2047),
        },
        7 => Instr::Alu {
            op: *r.choose(&AluOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        8 => loop {
            let i = Instr::AluImm {
                op: *r.choose(&ALUI_ARITH),
                rd: any_reg(r),
                rs1: any_reg(r),
                imm: r.range_i32(-2048, 2047),
            };
            // The canonical nop word decodes as `Instr::Nop`, so skip it
            // for instruction-equality round trips.
            if let Instr::AluImm {
                rd: Reg::Zero,
                rs1: Reg::Zero,
                imm: 0,
                ..
            } = i
            {
                continue;
            }
            break i;
        },
        9 => Instr::AluImm {
            op: *r.choose(&ALUI_SHIFT),
            rd: any_reg(r),
            rs1: any_reg(r),
            imm: r.range_i32(0, 31),
        },
        10 => match r.below(4) {
            0 => Instr::Fence,
            1 => Instr::Ecall,
            2 => Instr::Ebreak,
            _ => Instr::Nop,
        },
        11 => Instr::Csr {
            op: r.below(3) as u8,
            rd: any_reg(r),
            rs1: any_reg(r),
            csr: r.below(4096) as u16,
        },
        12 => Instr::MulDiv {
            op: *r.choose(&MulDivOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        13 => {
            let op = *r.choose(&PulpAluOp::ALL);
            Instr::PulpAlu {
                op,
                rd: any_reg(r),
                rs1: any_reg(r),
                // Unary ops (abs/ext*) have no rs2 in assembly text; the
                // canonical form encodes the field as zero.
                rs2: if op.is_binary() {
                    any_reg(r)
                } else {
                    Reg::Zero
                },
            }
        }
        14 => {
            let (rd, rs1) = (any_reg(r), any_reg(r));
            let bits = r.below(32) as u8;
            if r.flip() {
                Instr::PClip { rd, rs1, bits }
            } else {
                Instr::PClipU { rd, rs1, bits }
            }
        }
        15 => {
            let (rd, rs1, rs2) = (any_reg(r), any_reg(r), any_reg(r));
            if r.flip() {
                Instr::PMac { rd, rs1, rs2 }
            } else {
                Instr::PMsu { rd, rs1, rs2 }
            }
        }
        16 => Instr::PBit {
            op: *r.choose(&BitOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
        },
        17 => {
            let (rd, rs1) = (any_reg(r), any_reg(r));
            let len = r.range_i32(1, 32) as u8;
            let off = r.below(32) as u8;
            match r.below(3) {
                0 => Instr::PExtract { rd, rs1, len, off },
                1 => Instr::PExtractU { rd, rs1, len, off },
                _ => Instr::PInsert { rd, rs1, len, off },
            }
        }
        18 => {
            let kind = *r.choose(&LoadKind::ALL);
            let (rd, rs1, rs2) = (any_reg(r), any_reg(r), any_reg(r));
            match r.below(3) {
                0 => Instr::LoadPostInc {
                    kind,
                    rd,
                    rs1,
                    offset: r.range_i32(-2048, 2047),
                },
                1 => Instr::LoadPostIncReg { kind, rd, rs1, rs2 },
                _ => Instr::LoadRegOff { kind, rd, rs1, rs2 },
            }
        }
        19 => {
            let kind = *r.choose(&StoreKind::ALL);
            let (rs1, rs2, rs3) = (any_reg(r), any_reg(r), any_reg(r));
            if r.flip() {
                Instr::StorePostInc {
                    kind,
                    rs1,
                    rs2,
                    offset: r.range_i32(-2048, 2047),
                }
            } else {
                Instr::StorePostIncReg {
                    kind,
                    rs1,
                    rs2,
                    rs3,
                }
            }
        }
        20 => {
            let off = r.range_i32(0, 2047);
            let imm = r.below(4096) as u32;
            match r.below(6) {
                0 => Instr::LpStarti {
                    l,
                    offset: (off & !1) << 1,
                },
                1 => Instr::LpEndi {
                    l,
                    offset: (off & !1) << 1,
                },
                2 => Instr::LpCount { l, rs1: any_reg(r) },
                3 => Instr::LpCounti { l, imm },
                4 => Instr::LpSetup {
                    l,
                    rs1: any_reg(r),
                    offset: off & !1,
                },
                _ => Instr::LpSetupi {
                    l,
                    imm,
                    offset: (off & 0x1f) << 1,
                },
            }
        }
        21 => {
            let fmt = *r.choose(&SimdFmt::ALL);
            if r.below(8) == 0 {
                Instr::PvAbs {
                    fmt,
                    rd: any_reg(r),
                    rs1: any_reg(r),
                }
            } else {
                Instr::PvAlu {
                    op: *r.choose(&SimdAluOp::ALL),
                    fmt,
                    rd: any_reg(r),
                    rs1: any_reg(r),
                    op2: simd_operand(r, fmt),
                }
            }
        }
        22 => {
            let fmt = *r.choose(&SimdFmt::ALL);
            Instr::PvExtract {
                fmt,
                rd: any_reg(r),
                rs1: any_reg(r),
                idx: r.below(fmt.lanes() as u64) as u8,
                signed: r.flip(),
            }
        }
        23 => {
            let fmt = *r.choose(&SimdFmt::ALL);
            Instr::PvInsert {
                fmt,
                rd: any_reg(r),
                rs1: any_reg(r),
                idx: r.below(fmt.lanes() as u64) as u8,
            }
        }
        24 => Instr::PvShuffle2 {
            fmt: *r.choose(&WORD_FMTS),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        25 => {
            let fmt = *r.choose(&SimdFmt::ALL);
            let sign = *r.choose(&DotSign::ALL);
            let (rd, rs1) = (any_reg(r), any_reg(r));
            let op2 = simd_operand(r, fmt);
            if r.flip() {
                Instr::PvDot {
                    fmt,
                    sign,
                    rd,
                    rs1,
                    op2,
                }
            } else {
                Instr::PvSdot {
                    fmt,
                    sign,
                    rd,
                    rs1,
                    op2,
                }
            }
        }
        _ => {
            let fmt = if r.flip() {
                pulp_isa::simd::SimdFmt::Nibble
            } else {
                pulp_isa::simd::SimdFmt::Crumb
            };
            Instr::PvQnt {
                fmt,
                rd: any_reg(r),
                rs1: any_reg(r),
                rs2: any_reg(r),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every arm produces instructions that pass `validate()` — the
    /// precondition for exact encode round trips.
    #[test]
    fn sampled_instructions_validate() {
        let mut r = Rng::new(0xa5a5);
        for _ in 0..5000 {
            let i = arbitrary_instr(&mut r);
            i.validate()
                .unwrap_or_else(|e| panic!("{i} fails validate: {e:?}"));
        }
    }

    /// The sampler reaches every one of the 43 `Instr` variants
    /// (coverage guard against a dead arm silently shrinking the
    /// property space).
    #[test]
    fn sampler_covers_every_variant() {
        let mut r = Rng::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            seen.insert(std::mem::discriminant(&arbitrary_instr(&mut r)));
        }
        assert_eq!(seen.len(), 43, "sampler misses instruction variants");
    }
}
