//! Binary instruction decoding — the exact inverse of [`crate::encode`],
//! over the same [`crate::table`] declarations: the major opcode picks
//! the form, the table codes pick the op in one lookup, and the operand
//! fields unpack the rest.

use crate::instr::{
    AluOp, BitOp, BranchCond, Instr, LoadKind, LoopIdx, MulDivOp, PulpAluOp, SimdAluOp,
    SimdOperand, StoreKind,
};
use crate::reg::Reg;
use crate::simd::{DotSign, SimdFmt};
use crate::table::{
    opcode, BitfieldOp, CsrOp, Field, LoopOp, ScalarOp, SimdOp, BF_LEN, BF_OFF, B_IMM, CLIP, CSR,
    FMT2, FUNCT10, FUNCT3, FUNCT7, I_IMM, J_IMM, LANE, LOOP_COUNT, LOOP_IDX, LOOP_OFF, MODE_IMM,
    MODE_SCALAR, MODE_VECTOR, OP5, OPCODE, RD, REG_FORM, REG_OFFSET, RS1, RS2, RS3, SCI,
    SETUPI_OFF, SHAMT, STRIDED, S_IMM, UNIT_STRIDE, U_IMM,
};
use crate::vec::{VReg, VecSew};
use std::fmt;

/// An undecodable instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending 32-bit word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// The fields of one word, unpacked on demand.
#[derive(Clone, Copy)]
struct Word(u32);

impl Word {
    #[inline(always)]
    fn code(self, f: &Field) -> u32 {
        f.unpack(self.0) as u32
    }

    #[inline(always)]
    fn imm(self, f: &Field) -> i32 {
        f.unpack(self.0) as i32
    }

    #[inline(always)]
    fn reg(self, f: &Field) -> Reg {
        Reg::from_bits(self.code(f))
    }

    #[inline(always)]
    fn vreg(self, f: &Field) -> VReg {
        VReg::from_bits(self.code(f))
    }
}

/// Decodes a 32-bit instruction word.
///
/// # Errors
///
/// Returns [`DecodeError`] when the word does not correspond to any
/// instruction this core implements — the simulator raises an
/// illegal-instruction trap in that case.
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    use opcode::*;
    let err = DecodeError { word };
    let w = Word(word);
    let f3 = w.code(&FUNCT3);
    // Each arm reads the fields it uses: the interpreter decodes on
    // every step, and fields read ahead of the dispatch cost every word.
    Ok(match w.code(&OPCODE) {
        LUI => Instr::Lui {
            rd: w.reg(&RD),
            imm: w.code(&U_IMM),
        },
        AUIPC => Instr::Auipc {
            rd: w.reg(&RD),
            imm: w.code(&U_IMM),
        },
        JAL => Instr::Jal {
            rd: w.reg(&RD),
            offset: w.imm(&J_IMM),
        },
        JALR if f3 == 0 => Instr::Jalr {
            rd: w.reg(&RD),
            rs1: w.reg(&RS1),
            offset: w.imm(&I_IMM),
        },
        BRANCH => Instr::Branch {
            cond: BranchCond::from_code(f3).ok_or(err)?,
            rs1: w.reg(&RS1),
            rs2: w.reg(&RS2),
            offset: w.imm(&B_IMM),
        },
        LOAD => Instr::Load {
            kind: LoadKind::from_code(f3).ok_or(err)?,
            rd: w.reg(&RD),
            rs1: w.reg(&RS1),
            offset: w.imm(&I_IMM),
        },
        STORE => Instr::Store {
            kind: StoreKind::from_code(f3).ok_or(err)?,
            rs1: w.reg(&RS1),
            rs2: w.reg(&RS2),
            offset: w.imm(&S_IMM),
        },
        OP_IMM if word == OP_IMM => Instr::Nop,
        OP_IMM => {
            // funct3 alone names the op, except for the shifts, whose
            // funct7 is part of the code.
            let op = AluOp::from_code(f3).ok_or(err)?;
            let (op, imm) = if op.is_shift() {
                (
                    AluOp::from_code(w.code(&FUNCT10)).ok_or(err)?,
                    w.imm(&SHAMT),
                )
            } else {
                (op, w.imm(&I_IMM))
            };
            Instr::AluImm {
                op,
                rd: w.reg(&RD),
                rs1: w.reg(&RS1),
                imm,
            }
        }
        OP => decode_op(w, err)?,
        MISC_MEM => Instr::Fence,
        SYSTEM if f3 == 0 => match w.code(&CSR) {
            0 => Instr::Ecall,
            1 => Instr::Ebreak,
            _ => return Err(err),
        },
        SYSTEM => Instr::Csr {
            op: CsrOp::from_code(f3).ok_or(err)? as u8,
            rd: w.reg(&RD),
            rs1: w.reg(&RS1),
            csr: w.code(&CSR) as u16,
        },
        PULP_LOAD if f3 == REG_FORM => {
            // funct7[2:0] is the row of `LoadKind::ALL`; bits 6:4 are
            // ignored.
            let f7 = w.code(&FUNCT7);
            let kind = *LoadKind::ALL.get((f7 & 7) as usize).ok_or(err)?;
            if f7 & REG_OFFSET == 0 {
                Instr::LoadPostIncReg {
                    kind,
                    rd: w.reg(&RD),
                    rs1: w.reg(&RS1),
                    rs2: w.reg(&RS2),
                }
            } else {
                Instr::LoadRegOff {
                    kind,
                    rd: w.reg(&RD),
                    rs1: w.reg(&RS1),
                    rs2: w.reg(&RS2),
                }
            }
        }
        PULP_LOAD => Instr::LoadPostInc {
            kind: LoadKind::from_code(f3).ok_or(err)?,
            rd: w.reg(&RD),
            rs1: w.reg(&RS1),
            offset: w.imm(&I_IMM),
        },
        PULP_STORE if f3 == REG_FORM => Instr::StorePostIncReg {
            kind: StoreKind::from_code(w.code(&FUNCT7) & 3).ok_or(err)?,
            rs1: w.reg(&RS1),
            rs2: w.reg(&RS2),
            rs3: w.reg(&RS3),
        },
        PULP_STORE => Instr::StorePostInc {
            kind: StoreKind::from_code(f3).ok_or(err)?,
            rs1: w.reg(&RS1),
            rs2: w.reg(&RS2),
            offset: w.imm(&S_IMM),
        },
        PULP_BITFIELD => {
            let (len, off) = (w.code(&BF_LEN) as u8, w.code(&BF_OFF) as u8);
            match BitfieldOp::from_code(f3).ok_or(err)? {
                BitfieldOp::Extract => Instr::PExtract {
                    rd: w.reg(&RD),
                    rs1: w.reg(&RS1),
                    len,
                    off,
                },
                BitfieldOp::ExtractU => Instr::PExtractU {
                    rd: w.reg(&RD),
                    rs1: w.reg(&RS1),
                    len,
                    off,
                },
                BitfieldOp::Insert => Instr::PInsert {
                    rd: w.reg(&RD),
                    rs1: w.reg(&RS1),
                    len,
                    off,
                },
            }
        }
        PULP_HWLOOP => {
            let l = LoopIdx::from_bit(w.code(&LOOP_IDX));
            let (offset, imm) = (w.imm(&LOOP_OFF), w.code(&LOOP_COUNT));
            match LoopOp::from_code(f3).ok_or(err)? {
                LoopOp::Starti => Instr::LpStarti { l, offset },
                LoopOp::Endi => Instr::LpEndi { l, offset },
                LoopOp::Count => Instr::LpCount {
                    l,
                    rs1: w.reg(&RS1),
                },
                LoopOp::Counti => Instr::LpCounti { l, imm },
                LoopOp::Setup => Instr::LpSetup {
                    l,
                    rs1: w.reg(&RS1),
                    offset,
                },
                LoopOp::Setupi => Instr::LpSetupi {
                    l,
                    imm,
                    offset: w.imm(&SETUPI_OFF),
                },
            }
        }
        PULP_SIMD => decode_simd(w, err)?,
        major @ (VEC_LOAD | VEC_STORE) if w.code(&FUNCT7) == 0 => {
            let v = w.vreg(&RD);
            let unit = w.reg(&RS2) == Reg::Zero;
            match (major, f3) {
                (VEC_LOAD, UNIT_STRIDE) if unit => Instr::VLoad {
                    vd: v,
                    rs1: w.reg(&RS1),
                },
                (VEC_LOAD, STRIDED) => Instr::VLoadStrided {
                    vd: v,
                    rs1: w.reg(&RS1),
                    rs2: w.reg(&RS2),
                },
                (VEC_STORE, UNIT_STRIDE) if unit => Instr::VStore {
                    vs: v,
                    rs1: w.reg(&RS1),
                },
                (VEC_STORE, STRIDED) => Instr::VStoreStrided {
                    vs: v,
                    rs1: w.reg(&RS1),
                    rs2: w.reg(&RS2),
                },
                _ => return Err(err),
            }
        }
        _ => return Err(err),
    })
}

/// What a `funct7_funct3` code names under the `OP` major opcode.
#[derive(Clone, Copy)]
enum OpCode {
    Unassigned,
    Alu(AluOp),
    MulDiv(MulDivOp),
    Pulp(PulpAluOp),
    Bit(BitOp),
    Scalar(ScalarOp),
}

/// The five tables that live under `OP`, merged into one array indexed
/// by the code.
const OP_CODES: [OpCode; 1 << 10] = {
    let mut t = [OpCode::Unassigned; 1 << 10];
    let mut i = 0;
    while i < AluOp::ALL.len() {
        t[AluOp::ALL[i].code() as usize] = OpCode::Alu(AluOp::ALL[i]);
        i += 1;
    }
    let mut i = 0;
    while i < MulDivOp::ALL.len() {
        t[MulDivOp::ALL[i].code() as usize] = OpCode::MulDiv(MulDivOp::ALL[i]);
        i += 1;
    }
    let mut i = 0;
    while i < PulpAluOp::ALL.len() {
        t[PulpAluOp::ALL[i].code() as usize] = OpCode::Pulp(PulpAluOp::ALL[i]);
        i += 1;
    }
    let mut i = 0;
    while i < BitOp::ALL.len() {
        t[BitOp::ALL[i].code() as usize] = OpCode::Bit(BitOp::ALL[i]);
        i += 1;
    }
    let mut i = 0;
    while i < ScalarOp::ALL.len() {
        t[ScalarOp::ALL[i].code() as usize] = OpCode::Scalar(ScalarOp::ALL[i]);
        i += 1;
    }
    t
};

/// The `OP` major opcode: one lookup of the `funct7_funct3` code.
fn decode_op(w: Word, err: DecodeError) -> Result<Instr, DecodeError> {
    let (rd, rs1, rs2) = (w.reg(&RD), w.reg(&RS1), w.reg(&RS2));
    let bits = w.code(&CLIP) as u8;
    Ok(match OP_CODES[w.code(&FUNCT10) as usize] {
        OpCode::Alu(op) => Instr::Alu { op, rd, rs1, rs2 },
        OpCode::MulDiv(op) => Instr::MulDiv { op, rd, rs1, rs2 },
        OpCode::Pulp(op) => Instr::PulpAlu { op, rd, rs1, rs2 },
        OpCode::Bit(op) => Instr::PBit { op, rd, rs1 },
        OpCode::Scalar(ScalarOp::Clip) => Instr::PClip { rd, rs1, bits },
        OpCode::Scalar(ScalarOp::ClipU) => Instr::PClipU { rd, rs1, bits },
        OpCode::Scalar(ScalarOp::Mac) => Instr::PMac { rd, rs1, rs2 },
        OpCode::Scalar(ScalarOp::Msu) => Instr::PMsu { rd, rs1, rs2 },
        OpCode::Unassigned => return Err(err),
    })
}

/// What an op5 value names under `PULP_SIMD`.
#[derive(Clone, Copy)]
enum Op5 {
    Unassigned,
    Alu(SimdAluOp),
    Dot(DotSign),
    Sdot(DotSign),
    Other(SimdOp),
}

/// [`SimdAluOp`], [`SimdOp`] and the two [`DotSign`]-indexed dot
/// families, merged into one array indexed by op5.
const OP5_CODES: [Op5; 1 << 5] = {
    let mut t = [Op5::Unassigned; 1 << 5];
    let mut i = 0;
    while i < SimdAluOp::ALL.len() {
        t[SimdAluOp::ALL[i].code() as usize] = Op5::Alu(SimdAluOp::ALL[i]);
        i += 1;
    }
    let mut i = 0;
    while i < SimdOp::ALL.len() {
        t[SimdOp::ALL[i].code() as usize] = Op5::Other(SimdOp::ALL[i]);
        i += 1;
    }
    let mut i = 0;
    while i < DotSign::ALL.len() {
        let sign = DotSign::ALL[i];
        t[(SimdOp::Dot.code() + sign.code()) as usize] = Op5::Dot(sign);
        t[(SimdOp::Sdot.code() + sign.code()) as usize] = Op5::Sdot(sign);
        i += 1;
    }
    t
};

/// The `PULP_SIMD` major opcode: packed SIMD below `vsetvli`'s op5,
/// the Xrvv vector ops from there on.
fn decode_simd(w: Word, err: DecodeError) -> Result<Instr, DecodeError> {
    let (rd, rs1, rs2) = (w.reg(&RD), w.reg(&RS1), w.reg(&RS2));
    let (op5, fmt2, mode3) = (w.code(&OP5), w.code(&FMT2), w.code(&FUNCT3));
    let fmt = SimdFmt::from_code(fmt2).ok_or(err)?;
    let op = OP5_CODES[op5 as usize];
    if op5 >= SimdOp::Vsetvli.code() {
        // The packed-SIMD mode3 grammar does not apply here.
        let (vd, vs1, vs2) = (w.vreg(&RD), w.vreg(&RS1), w.vreg(&RS2));
        return Ok(match op {
            Op5::Other(SimdOp::Vsetvli) if mode3 == 0 && rs2 == Reg::Zero => Instr::VSetvli {
                rd,
                rs1,
                sew: VecSew::from_code(fmt2).ok_or(err)?,
            },
            Op5::Other(SimdOp::Vdot) if fmt2 == 0 => Instr::VDot {
                sign: DotSign::from_code(mode3).ok_or(err)?,
                rd,
                vs1,
                vs2,
            },
            Op5::Other(SimdOp::Vqnt) if mode3 == 0 && fmt.is_sub_byte() => {
                Instr::VQnt { fmt, vd, rs1, vs2 }
            }
            Op5::Other(SimdOp::Vslide1down) if mode3 == 0 && fmt2 == 0 => {
                Instr::VSlide1 { vd, vs2, rs1 }
            }
            Op5::Other(SimdOp::VmvXS) if mode3 == 0 && fmt2 == 0 && rs1 == Reg::Zero => {
                Instr::VMvXS { rd, vs2 }
            }
            _ => return Err(err),
        });
    }
    let op2 = match mode3 {
        MODE_VECTOR => SimdOperand::Vector(rs2),
        MODE_SCALAR => SimdOperand::Scalar(rs2),
        // The .sci variant is not part of the sub-byte encoding space
        // (§III-A of the paper).
        m if m & !1 == MODE_IMM && !fmt.is_sub_byte() => SimdOperand::Imm(w.imm(&SCI) as i8),
        _ => return Err(err),
    };
    // The remaining ops exist only in register-register form, and the
    // lane-indexed ones only for a lane the format has.
    let rr = mode3 == MODE_VECTOR;
    let idx = w.code(&LANE) as u8;
    let lane = || rr && usize::from(idx) < fmt.lanes();
    Ok(match op {
        Op5::Alu(op) => Instr::PvAlu {
            op,
            fmt,
            rd,
            rs1,
            op2,
        },
        Op5::Dot(sign) => Instr::PvDot {
            fmt,
            sign,
            rd,
            rs1,
            op2,
        },
        Op5::Sdot(sign) => Instr::PvSdot {
            fmt,
            sign,
            rd,
            rs1,
            op2,
        },
        Op5::Other(SimdOp::Abs) if rr => Instr::PvAbs { fmt, rd, rs1 },
        Op5::Other(SimdOp::Extract) if lane() => Instr::PvExtract {
            fmt,
            rd,
            rs1,
            idx,
            signed: true,
        },
        Op5::Other(SimdOp::ExtractU) if lane() => Instr::PvExtract {
            fmt,
            rd,
            rs1,
            idx,
            signed: false,
        },
        Op5::Other(SimdOp::Insert) if lane() => Instr::PvInsert { fmt, rd, rs1, idx },
        Op5::Other(SimdOp::Qnt) if rr && fmt.is_sub_byte() => Instr::PvQnt { fmt, rd, rs1, rs2 },
        Op5::Other(SimdOp::Shuffle2) if rr && !fmt.is_sub_byte() => {
            Instr::PvShuffle2 { fmt, rd, rs1, rs2 }
        }
        _ => return Err(err),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::table::{opcode, SimdOp};

    fn round_trip(i: Instr) {
        let w = encode(&i);
        let back = decode(w).unwrap_or_else(|e| panic!("{i} ({w:#010x}): {e}"));
        assert_eq!(back, i, "round-trip mismatch for {i} ({w:#010x})");
    }

    #[test]
    fn round_trip_base_samples() {
        round_trip(Instr::Lui {
            rd: Reg::A0,
            imm: 0xdead_b000,
        });
        round_trip(Instr::Auipc {
            rd: Reg::T3,
            imm: 0x1000,
        });
        round_trip(Instr::Jal {
            rd: Reg::Ra,
            offset: -2048,
        });
        round_trip(Instr::Jalr {
            rd: Reg::Zero,
            rs1: Reg::Ra,
            offset: 0,
        });
        round_trip(Instr::Branch {
            cond: BranchCond::Geu,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: -4096,
        });
        round_trip(Instr::Load {
            kind: LoadKind::HalfU,
            rd: Reg::S3,
            rs1: Reg::Sp,
            offset: -1,
        });
        round_trip(Instr::Store {
            kind: StoreKind::Half,
            rs1: Reg::Sp,
            rs2: Reg::T6,
            offset: 2046,
        });
        round_trip(Instr::Alu {
            op: AluOp::Sra,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        });
        round_trip(Instr::AluImm {
            op: AluOp::Sra,
            rd: Reg::A0,
            rs1: Reg::A1,
            imm: 31,
        });
        round_trip(Instr::AluImm {
            op: AluOp::And,
            rd: Reg::A0,
            rs1: Reg::A1,
            imm: -1,
        });
        round_trip(Instr::MulDiv {
            op: MulDivOp::Remu,
            rd: Reg::A4,
            rs1: Reg::A5,
            rs2: Reg::A6,
        });
        round_trip(Instr::Ecall);
        round_trip(Instr::Ebreak);
        round_trip(Instr::Fence);
        round_trip(Instr::Nop);
        round_trip(Instr::Csr {
            op: 1,
            rd: Reg::A0,
            rs1: Reg::Zero,
            csr: 0xb00,
        });
    }

    #[test]
    fn round_trip_pulp_scalar() {
        for op in [
            PulpAluOp::Min,
            PulpAluOp::Minu,
            PulpAluOp::Max,
            PulpAluOp::Maxu,
            PulpAluOp::Abs,
            PulpAluOp::Exths,
            PulpAluOp::Exthz,
            PulpAluOp::Extbs,
            PulpAluOp::Extbz,
        ] {
            round_trip(Instr::PulpAlu {
                op,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            });
        }
        round_trip(Instr::PClip {
            rd: Reg::A0,
            rs1: Reg::A1,
            bits: 8,
        });
        round_trip(Instr::PClipU {
            rd: Reg::A0,
            rs1: Reg::A1,
            bits: 4,
        });
        round_trip(Instr::PMac {
            rd: Reg::S0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        });
        round_trip(Instr::PMsu {
            rd: Reg::S0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        });
        for op in [BitOp::Ff1, BitOp::Fl1, BitOp::Cnt, BitOp::Clb] {
            round_trip(Instr::PBit {
                op,
                rd: Reg::A0,
                rs1: Reg::A1,
            });
        }
        round_trip(Instr::PExtract {
            rd: Reg::A0,
            rs1: Reg::A1,
            len: 8,
            off: 16,
        });
        round_trip(Instr::PExtractU {
            rd: Reg::A0,
            rs1: Reg::A1,
            len: 32,
            off: 0,
        });
        round_trip(Instr::PInsert {
            rd: Reg::A0,
            rs1: Reg::A1,
            len: 1,
            off: 31,
        });
    }

    #[test]
    fn round_trip_pulp_memory() {
        for kind in [
            LoadKind::Byte,
            LoadKind::Half,
            LoadKind::Word,
            LoadKind::ByteU,
            LoadKind::HalfU,
        ] {
            round_trip(Instr::LoadPostInc {
                kind,
                rd: Reg::A0,
                rs1: Reg::A1,
                offset: -4,
            });
            round_trip(Instr::LoadPostIncReg {
                kind,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            });
            round_trip(Instr::LoadRegOff {
                kind,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            });
        }
        for kind in [StoreKind::Byte, StoreKind::Half, StoreKind::Word] {
            round_trip(Instr::StorePostInc {
                kind,
                rs1: Reg::A1,
                rs2: Reg::A0,
                offset: 4,
            });
            round_trip(Instr::StorePostIncReg {
                kind,
                rs1: Reg::A1,
                rs2: Reg::A0,
                rs3: Reg::T6,
            });
        }
    }

    #[test]
    fn round_trip_hwloops() {
        for l in [LoopIdx::L0, LoopIdx::L1] {
            round_trip(Instr::LpStarti { l, offset: 8 });
            round_trip(Instr::LpEndi { l, offset: 64 });
            round_trip(Instr::LpCount { l, rs1: Reg::A3 });
            round_trip(Instr::LpCounti { l, imm: 4095 });
            round_trip(Instr::LpSetup {
                l,
                rs1: Reg::S5,
                offset: 200,
            });
            round_trip(Instr::LpSetupi {
                l,
                imm: 100,
                offset: 62,
            });
        }
    }

    #[test]
    fn round_trip_simd_all_ops_formats_modes() {
        use crate::simd::{ALL_DOT_SIGNS, ALL_FMTS};
        let alu_ops = [
            SimdAluOp::Add,
            SimdAluOp::Sub,
            SimdAluOp::Avg,
            SimdAluOp::Avgu,
            SimdAluOp::Min,
            SimdAluOp::Minu,
            SimdAluOp::Max,
            SimdAluOp::Maxu,
            SimdAluOp::Srl,
            SimdAluOp::Sra,
            SimdAluOp::Sll,
            SimdAluOp::Or,
            SimdAluOp::And,
            SimdAluOp::Xor,
        ];
        for fmt in ALL_FMTS {
            let mut modes = vec![SimdOperand::Vector(Reg::A2), SimdOperand::Scalar(Reg::T0)];
            if !fmt.is_sub_byte() {
                modes.push(SimdOperand::Imm(-32));
                modes.push(SimdOperand::Imm(31));
            }
            for op2 in &modes {
                for op in alu_ops {
                    round_trip(Instr::PvAlu {
                        op,
                        fmt,
                        rd: Reg::A0,
                        rs1: Reg::A1,
                        op2: *op2,
                    });
                }
                for sign in ALL_DOT_SIGNS {
                    round_trip(Instr::PvDot {
                        fmt,
                        sign,
                        rd: Reg::A0,
                        rs1: Reg::A1,
                        op2: *op2,
                    });
                    round_trip(Instr::PvSdot {
                        fmt,
                        sign,
                        rd: Reg::S9,
                        rs1: Reg::A1,
                        op2: *op2,
                    });
                }
            }
            round_trip(Instr::PvAbs {
                fmt,
                rd: Reg::A0,
                rs1: Reg::A1,
            });
            for idx in 0..fmt.lanes() as u8 {
                round_trip(Instr::PvExtract {
                    fmt,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    idx,
                    signed: true,
                });
                round_trip(Instr::PvExtract {
                    fmt,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    idx,
                    signed: false,
                });
                round_trip(Instr::PvInsert {
                    fmt,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    idx,
                });
            }
        }
        round_trip(Instr::PvQnt {
            fmt: SimdFmt::Nibble,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        });
        round_trip(Instr::PvQnt {
            fmt: SimdFmt::Crumb,
            rd: Reg::T4,
            rs1: Reg::S2,
            rs2: Reg::S3,
        });
    }

    #[test]
    fn round_trip_vector_ops() {
        use crate::simd::ALL_DOT_SIGNS;
        use crate::vec::{VReg, ALL_SEWS};
        let v = |i: usize| VReg::new(i).unwrap();
        for sew in ALL_SEWS {
            round_trip(Instr::VSetvli {
                rd: Reg::T5,
                rs1: Reg::T6,
                sew,
            });
        }
        for i in [0, 4, 17, 31] {
            round_trip(Instr::VLoad {
                vd: v(i),
                rs1: Reg::S0,
            });
            round_trip(Instr::VStore {
                vs: v(i),
                rs1: Reg::S1,
            });
            round_trip(Instr::VLoadStrided {
                vd: v(i),
                rs1: Reg::A0,
                rs2: Reg::A1,
            });
            round_trip(Instr::VStoreStrided {
                vs: v(i),
                rs1: Reg::A0,
                rs2: Reg::A1,
            });
        }
        for sign in ALL_DOT_SIGNS {
            round_trip(Instr::VDot {
                sign,
                rd: Reg::S4,
                vs1: v(0),
                vs2: v(4),
            });
        }
        for fmt in [SimdFmt::Nibble, SimdFmt::Crumb] {
            round_trip(Instr::VQnt {
                fmt,
                vd: v(2),
                rs1: Reg::A1,
                vs2: v(0),
            });
        }
        round_trip(Instr::VSlide1 {
            vd: v(0),
            vs2: v(1),
            rs1: Reg::S4,
        });
        round_trip(Instr::VMvXS {
            rd: Reg::A0,
            vs2: v(2),
        });
    }

    #[test]
    fn illegal_vector_words_rejected() {
        use crate::encode::encode;
        use crate::vec::VReg;
        // vqnt with a byte format is not decodable.
        let w =
            (SimdOp::Vqnt.code() << 27) | (0b01 << 25) | (1 << 15) | (2 << 7) | opcode::PULP_SIMD;
        assert!(decode(w).is_err());
        // vdot with an undefined sign code.
        let w = (SimdOp::Vdot.code() << 27) | (0b011 << 12) | opcode::PULP_SIMD;
        assert!(decode(w).is_err());
        // op5 31 is unassigned.
        assert!(decode((31 << 27) | opcode::PULP_SIMD).is_err());
        // vector loads/stores with junk funct3 or funct7 are illegal.
        let good = encode(&Instr::VLoad {
            vd: VReg::new(3).unwrap(),
            rs1: Reg::A0,
        });
        assert!(decode(good | (0b001 << 12)).is_err());
        assert!(decode(good | (1 << 25)).is_err());
    }

    #[test]
    fn illegal_words_rejected() {
        // All-zeros and all-ones are canonical illegal instructions.
        assert!(decode(0).is_err());
        assert!(decode(u32::MAX).is_err());
        // sci with a sub-byte format is not decodable.
        let w =
            (0b10 << 25) | (3 << 20) | (1 << 15) | (0b110 << 12) | (10 << 7) | opcode::PULP_SIMD;
        assert!(decode(w).is_err());
        // qnt with a byte format is not decodable.
        let w = (SimdOp::Qnt.code() << 27)
            | (0b01 << 25)
            | (2 << 20)
            | (1 << 15)
            | (10 << 7)
            | opcode::PULP_SIMD;
        assert!(decode(w).is_err());
    }

    #[test]
    fn nop_is_canonical() {
        assert_eq!(decode(0x0000_0013).unwrap(), Instr::Nop);
    }
}
