//! Binary instruction encoding over the [`crate::table`] declarations:
//! each instruction is its major opcode, its table codes and its operand
//! fields, packed. [`encode`] and [`crate::decode::decode`] are exact
//! inverses, which the property tests verify over the whole instruction
//! space; the opcode map is documented on the table.

use crate::instr::{Instr, SimdOperand};
use crate::reg::Reg;
use crate::simd::SimdFmt;
use crate::table::{
    opcode, BitfieldOp, CsrOp, LoopOp, ScalarOp, SimdOp, BF_LEN, BF_OFF, B_IMM, CLIP, CSR, FMT2,
    FUNCT10, FUNCT3, FUNCT7, I_IMM, J_IMM, LANE, LOOP_COUNT, LOOP_IDX, LOOP_OFF, MODE_IMM,
    MODE_SCALAR, MODE_VECTOR, OP5, RD, REG_FORM, REG_OFFSET, RS1, RS2, RS3, SCI, SETUPI_OFF, SHAMT,
    STRIDED, S_IMM, UNIT_STRIDE, U_IMM,
};

/// `rd`, `rs1` and `rs2` in their slots.
fn regs(rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    RD.pack(rd as u32) | RS1.pack(rs1 as u32) | RS2.pack(rs2 as u32)
}

/// A `pv.*` word: op5, format, `rd`, `rs1`, and the mode3 + rs2-slot
/// bits of the second operand.
fn simd(op5: u32, fmt: SimdFmt, rd: Reg, rs1: Reg, op2: u32) -> u32 {
    opcode::PULP_SIMD
        | OP5.pack(op5)
        | FMT2.pack(fmt.code())
        | RD.pack(rd as u32)
        | RS1.pack(rs1 as u32)
        | op2
}

/// The mode3 and rs2-slot bits of a SIMD second operand.
fn simd_op2(op2: SimdOperand) -> u32 {
    match op2 {
        SimdOperand::Vector(r) => FUNCT3.pack(MODE_VECTOR) | RS2.pack(r as u32),
        SimdOperand::Scalar(r) => FUNCT3.pack(MODE_SCALAR) | RS2.pack(r as u32),
        SimdOperand::Imm(i) => FUNCT3.pack(MODE_IMM) | SCI.pack(i),
    }
}

/// Encodes an instruction into its 32-bit binary form.
///
/// The instruction is assumed valid (see [`Instr::validate`]); immediates
/// outside the encodable range are truncated exactly as a binary assembler
/// would truncate them, so callers that need range errors must validate
/// first.
pub fn encode(instr: &Instr) -> u32 {
    use opcode::*;
    let zero = Reg::Zero;
    match *instr {
        Instr::Lui { rd, imm } => LUI | RD.pack(rd as u32) | U_IMM.pack(imm),
        Instr::Auipc { rd, imm } => AUIPC | RD.pack(rd as u32) | U_IMM.pack(imm),
        Instr::Jal { rd, offset } => JAL | RD.pack(rd as u32) | J_IMM.pack(offset),
        Instr::Jalr { rd, rs1, offset } => JALR | regs(rd, rs1, zero) | I_IMM.pack(offset),
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => BRANCH | FUNCT3.pack(cond.code()) | regs(zero, rs1, rs2) | B_IMM.pack(offset),
        Instr::Load {
            kind,
            rd,
            rs1,
            offset,
        } => LOAD | FUNCT3.pack(kind.code()) | regs(rd, rs1, zero) | I_IMM.pack(offset),
        Instr::Store {
            kind,
            rs1,
            rs2,
            offset,
        } => STORE | FUNCT3.pack(kind.code()) | regs(zero, rs1, rs2) | S_IMM.pack(offset),
        Instr::Alu { op, rd, rs1, rs2 } => OP | FUNCT10.pack(op.code()) | regs(rd, rs1, rs2),
        Instr::AluImm { op, rd, rs1, imm } => {
            let field = if op.is_shift() { &SHAMT } else { &I_IMM };
            OP_IMM | FUNCT10.pack(op.code()) | regs(rd, rs1, zero) | field.pack(imm)
        }
        Instr::Fence => MISC_MEM,
        Instr::Ecall => SYSTEM,
        Instr::Ebreak => SYSTEM | I_IMM.pack(1),
        Instr::Csr { op, rd, rs1, csr } => {
            let op = CsrOp::ALL[usize::from(op).min(2)];
            SYSTEM | FUNCT3.pack(op.code()) | regs(rd, rs1, zero) | CSR.pack(csr)
        }
        Instr::MulDiv { op, rd, rs1, rs2 } => OP | FUNCT10.pack(op.code()) | regs(rd, rs1, rs2),
        Instr::PulpAlu { op, rd, rs1, rs2 } => OP | FUNCT10.pack(op.code()) | regs(rd, rs1, rs2),
        Instr::PClip { rd, rs1, bits } => {
            OP | FUNCT10.pack(ScalarOp::Clip.code()) | regs(rd, rs1, zero) | CLIP.pack(bits)
        }
        Instr::PClipU { rd, rs1, bits } => {
            OP | FUNCT10.pack(ScalarOp::ClipU.code()) | regs(rd, rs1, zero) | CLIP.pack(bits)
        }
        Instr::PMac { rd, rs1, rs2 } => {
            OP | FUNCT10.pack(ScalarOp::Mac.code()) | regs(rd, rs1, rs2)
        }
        Instr::PMsu { rd, rs1, rs2 } => {
            OP | FUNCT10.pack(ScalarOp::Msu.code()) | regs(rd, rs1, rs2)
        }
        Instr::PBit { op, rd, rs1 } => OP | FUNCT10.pack(op.code()) | regs(rd, rs1, zero),
        Instr::PExtract { rd, rs1, len, off }
        | Instr::PExtractU { rd, rs1, len, off }
        | Instr::PInsert { rd, rs1, len, off } => {
            let op = match instr {
                Instr::PExtract { .. } => BitfieldOp::Extract,
                Instr::PExtractU { .. } => BitfieldOp::ExtractU,
                _ => BitfieldOp::Insert,
            };
            PULP_BITFIELD
                | FUNCT3.pack(op.code())
                | regs(rd, rs1, zero)
                | BF_LEN.pack(len)
                | BF_OFF.pack(off)
        }
        Instr::LoadPostInc {
            kind,
            rd,
            rs1,
            offset,
        } => PULP_LOAD | FUNCT3.pack(kind.code()) | regs(rd, rs1, zero) | I_IMM.pack(offset),
        Instr::LoadPostIncReg { kind, rd, rs1, rs2 } => {
            PULP_LOAD | FUNCT3.pack(REG_FORM) | FUNCT7.pack(kind as u32) | regs(rd, rs1, rs2)
        }
        Instr::LoadRegOff { kind, rd, rs1, rs2 } => {
            let f7 = REG_OFFSET | kind as u32;
            PULP_LOAD | FUNCT3.pack(REG_FORM) | FUNCT7.pack(f7) | regs(rd, rs1, rs2)
        }
        Instr::StorePostInc {
            kind,
            rs1,
            rs2,
            offset,
        } => PULP_STORE | FUNCT3.pack(kind.code()) | regs(zero, rs1, rs2) | S_IMM.pack(offset),
        Instr::StorePostIncReg {
            kind,
            rs1,
            rs2,
            rs3,
        } => {
            PULP_STORE
                | FUNCT3.pack(REG_FORM)
                | FUNCT7.pack(kind.code())
                | RS3.pack(rs3 as u32)
                | regs(zero, rs1, rs2)
        }
        Instr::LpStarti { l, offset } => hwloop(LoopOp::Starti, l) | LOOP_OFF.pack(offset),
        Instr::LpEndi { l, offset } => hwloop(LoopOp::Endi, l) | LOOP_OFF.pack(offset),
        Instr::LpCount { l, rs1 } => hwloop(LoopOp::Count, l) | RS1.pack(rs1 as u32),
        Instr::LpCounti { l, imm } => hwloop(LoopOp::Counti, l) | LOOP_COUNT.pack(imm),
        Instr::LpSetup { l, rs1, offset } => {
            hwloop(LoopOp::Setup, l) | RS1.pack(rs1 as u32) | LOOP_OFF.pack(offset)
        }
        Instr::LpSetupi { l, imm, offset } => {
            hwloop(LoopOp::Setupi, l) | LOOP_COUNT.pack(imm) | SETUPI_OFF.pack(offset)
        }
        Instr::PvAlu {
            op,
            fmt,
            rd,
            rs1,
            op2,
        } => simd(op.code(), fmt, rd, rs1, simd_op2(op2)),
        Instr::PvAbs { fmt, rd, rs1 } => simd(SimdOp::Abs.code(), fmt, rd, rs1, 0),
        Instr::PvExtract {
            fmt,
            rd,
            rs1,
            idx,
            signed,
        } => {
            let op = if signed {
                SimdOp::Extract
            } else {
                SimdOp::ExtractU
            };
            simd(op.code(), fmt, rd, rs1, LANE.pack(idx))
        }
        Instr::PvInsert { fmt, rd, rs1, idx } => {
            simd(SimdOp::Insert.code(), fmt, rd, rs1, LANE.pack(idx))
        }
        Instr::PvDot {
            fmt,
            sign,
            rd,
            rs1,
            op2,
        } => simd(
            SimdOp::Dot.code() + sign.code(),
            fmt,
            rd,
            rs1,
            simd_op2(op2),
        ),
        Instr::PvSdot {
            fmt,
            sign,
            rd,
            rs1,
            op2,
        } => simd(
            SimdOp::Sdot.code() + sign.code(),
            fmt,
            rd,
            rs1,
            simd_op2(op2),
        ),
        Instr::PvQnt { fmt, rd, rs1, rs2 } => {
            simd(SimdOp::Qnt.code(), fmt, rd, rs1, RS2.pack(rs2 as u32))
        }
        Instr::PvShuffle2 { fmt, rd, rs1, rs2 } => {
            simd(SimdOp::Shuffle2.code(), fmt, rd, rs1, RS2.pack(rs2 as u32))
        }
        Instr::VSetvli { rd, rs1, sew } => {
            PULP_SIMD
                | OP5.pack(SimdOp::Vsetvli.code())
                | FMT2.pack(sew.code())
                | regs(rd, rs1, zero)
        }
        Instr::VDot { sign, rd, vs1, vs2 } => {
            PULP_SIMD
                | OP5.pack(SimdOp::Vdot.code())
                | FUNCT3.pack(sign.code())
                | RD.pack(rd as u32)
                | RS1.pack(u32::from(vs1))
                | RS2.pack(u32::from(vs2))
        }
        Instr::VQnt { fmt, vd, rs1, vs2 } => {
            PULP_SIMD
                | OP5.pack(SimdOp::Vqnt.code())
                | FMT2.pack(fmt.code())
                | RD.pack(u32::from(vd))
                | RS1.pack(rs1 as u32)
                | RS2.pack(u32::from(vs2))
        }
        Instr::VSlide1 { vd, vs2, rs1 } => {
            PULP_SIMD
                | OP5.pack(SimdOp::Vslide1down.code())
                | RD.pack(u32::from(vd))
                | RS1.pack(rs1 as u32)
                | RS2.pack(u32::from(vs2))
        }
        Instr::VMvXS { rd, vs2 } => {
            PULP_SIMD
                | OP5.pack(SimdOp::VmvXS.code())
                | RD.pack(rd as u32)
                | RS2.pack(u32::from(vs2))
        }
        Instr::VLoad { vd: v, rs1 } | Instr::VStore { vs: v, rs1 } => {
            vec_mem(instr, UNIT_STRIDE) | RD.pack(u32::from(v)) | RS1.pack(rs1 as u32)
        }
        Instr::VLoadStrided { vd: v, rs1, rs2 } | Instr::VStoreStrided { vs: v, rs1, rs2 } => {
            vec_mem(instr, STRIDED) | RD.pack(u32::from(v)) | regs(zero, rs1, rs2)
        }
        // Canonical nop: addi x0, x0, 0.
        Instr::Nop => OP_IMM,
    }
}

/// A hardware-loop word's opcode, op and loop index.
fn hwloop(op: LoopOp, l: crate::instr::LoopIdx) -> u32 {
    opcode::PULP_HWLOOP | FUNCT3.pack(op.code()) | LOOP_IDX.pack(l.index() as u32)
}

/// A vector load/store word's opcode and funct3.
fn vec_mem(instr: &Instr, funct3: u32) -> u32 {
    let major = if matches!(instr, Instr::VStore { .. } | Instr::VStoreStrided { .. }) {
        opcode::VEC_STORE
    } else {
        opcode::VEC_LOAD
    };
    major | FUNCT3.pack(funct3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, BranchCond, LoadKind, MulDivOp, SimdAluOp, StoreKind};
    use crate::reg::Reg;
    use crate::simd::SimdFmt;

    #[test]
    fn standard_encodings_match_riscv_spec() {
        // Cross-checked against riscv-tests / GNU as output.
        // addi a0, a1, -1  -> 0xfff58513
        let addi = Instr::AluImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            imm: -1,
        };
        assert_eq!(encode(&addi), 0xfff5_8513);
        // lw a0, 8(sp) -> 0x00812503
        let lw = Instr::Load {
            kind: LoadKind::Word,
            rd: Reg::A0,
            rs1: Reg::Sp,
            offset: 8,
        };
        assert_eq!(encode(&lw), 0x0081_2503);
        // sw a0, 12(sp) -> 0x00a12623
        let sw = Instr::Store {
            kind: StoreKind::Word,
            rs1: Reg::Sp,
            rs2: Reg::A0,
            offset: 12,
        };
        assert_eq!(encode(&sw), 0x00a1_2623);
        // add a0, a1, a2 -> 0x00c58533
        let add = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(encode(&add), 0x00c5_8533);
        // sub a0, a1, a2 -> 0x40c58533
        let sub = Instr::Alu {
            op: AluOp::Sub,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(encode(&sub), 0x40c5_8533);
        // mul a0, a1, a2 -> 0x02c58533
        let mul = Instr::MulDiv {
            op: MulDivOp::Mul,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(encode(&mul), 0x02c5_8533);
        // jal ra, 16 -> 0x010000ef
        let jal = Instr::Jal {
            rd: Reg::Ra,
            offset: 16,
        };
        assert_eq!(encode(&jal), 0x0100_00ef);
        // beq a0, a1, -4 -> 0xfeb50ee3
        let beq = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: -4,
        };
        assert_eq!(encode(&beq), 0xfeb5_0ee3);
        // lui a0, 0x12345 -> 0x12345537
        let lui = Instr::Lui {
            rd: Reg::A0,
            imm: 0x1234_5000,
        };
        assert_eq!(encode(&lui), 0x1234_5537);
        // srai a0, a1, 3 -> 0x4035d513
        let srai = Instr::AluImm {
            op: AluOp::Sra,
            rd: Reg::A0,
            rs1: Reg::A1,
            imm: 3,
        };
        assert_eq!(encode(&srai), 0x4035_d513);
        // ecall -> 0x00000073
        assert_eq!(encode(&Instr::Ecall), 0x0000_0073);
        // nop == addi x0,x0,0 -> 0x00000013
        assert_eq!(encode(&Instr::Nop), 0x0000_0013);
    }

    #[test]
    fn custom_opcodes_do_not_collide_with_standard_space() {
        let samples = [
            Instr::LoadPostInc {
                kind: LoadKind::Word,
                rd: Reg::A0,
                rs1: Reg::A1,
                offset: 4,
            },
            Instr::StorePostInc {
                kind: StoreKind::Byte,
                rs1: Reg::A1,
                rs2: Reg::A0,
                offset: 1,
            },
            Instr::LpSetup {
                l: crate::instr::LoopIdx::L0,
                rs1: Reg::A0,
                offset: 16,
            },
            Instr::PvQnt {
                fmt: SimdFmt::Nibble,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            },
        ];
        for i in &samples {
            let op = encode(i) & 0x7f;
            assert!(
                matches!(op, 0x0b | 0x2b | 0x5b | 0x7b | 0x57),
                "{i} encoded into non-custom opcode {op:#x}"
            );
        }
    }

    #[test]
    fn simd_mode_bits() {
        let rr = Instr::PvAlu {
            op: SimdAluOp::Add,
            fmt: SimdFmt::Nibble,
            rd: Reg::A0,
            rs1: Reg::A1,
            op2: SimdOperand::Vector(Reg::A2),
        };
        let sc = Instr::PvAlu {
            op: SimdAluOp::Add,
            fmt: SimdFmt::Nibble,
            rd: Reg::A0,
            rs1: Reg::A1,
            op2: SimdOperand::Scalar(Reg::A2),
        };
        let rr_w = encode(&rr);
        let sc_w = encode(&sc);
        assert_ne!(rr_w, sc_w);
        assert_eq!((rr_w >> 12) & 7, 0b000);
        assert_eq!((sc_w >> 12) & 7, 0b100);
        // sci with negative immediate sets the mode low bit (imm bit 5).
        let sci = Instr::PvAlu {
            op: SimdAluOp::Add,
            fmt: SimdFmt::Byte,
            rd: Reg::A0,
            rs1: Reg::A1,
            op2: SimdOperand::Imm(-1),
        };
        let sci_w = encode(&sci);
        assert_eq!((sci_w >> 12) & 7, 0b111);
        assert_eq!((sci_w >> 20) & 0x1f, 0x1f);
    }
}
