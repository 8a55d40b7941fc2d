//! The decoded instruction type for RV32IM + XpulpV2 + XpulpNN.
//!
//! [`Instr`] is the interchange format between the assembler
//! (`pulp-asm`), the binary encoder/decoder ([`crate::encode`],
//! [`crate::decode`]) and the core simulator (`riscv-core`). Its
//! `Display` implementation is the disassembler.
//!
//! Design notes:
//!
//! * Immediates are stored sign-extended in `i32`, already shifted where
//!   the encoding implies scaling (branch/jump offsets are byte offsets).
//! * SIMD instructions carry a [`SimdFmt`] lane format and a
//!   [`SimdOperand`] second operand covering the three addressing
//!   variants of the `pv.*` family (`rr`, `.sc`, `.sci`). Per §III-A of
//!   the paper, the immediate (`.sci`) variant exists only for the
//!   XpulpV2 formats (`b`/`h`); the nibble/crumb formats were left out of
//!   the encoding space. [`Instr::validate`] enforces this.
//! * The op enums, their field codes and mnemonics, and every operand
//!   field are declared once in [`crate::table`]. [`Instr::operands`]
//!   lists each instruction's operands in assembly-text order together
//!   with their fields; `Display`, [`Instr::validate`] and the text
//!   parser in `pulp-asm` all walk that one list.

use crate::reg::Reg;
use crate::simd::{DotSign, SimdFmt};
use crate::table::{
    BitfieldOp, CsrOp, Field, LoopOp, ScalarOp, SimdOp, BF_LEN, BF_OFF, B_IMM, CLIP, CSR, I_IMM,
    J_IMM, LANE, LOOP_COUNT, LOOP_OFF, SCI, SETUPI_OFF, SHAMT, S_IMM, U_IMM,
};
use crate::vec::{VReg, VecSew};
use std::fmt;

pub use crate::table::{
    AluOp, BitOp, BranchCond, LoadKind, MulDivOp, PulpAluOp, SimdAluOp, StoreKind,
};

impl BranchCond {
    /// Evaluates the condition on two register values.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i32) < (b as i32),
            BranchCond::Ge => (a as i32) >= (b as i32),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

impl LoadKind {
    /// Access size in bytes.
    pub const fn size(self) -> u32 {
        match self {
            LoadKind::Byte | LoadKind::ByteU => 1,
            LoadKind::Half | LoadKind::HalfU => 2,
            LoadKind::Word => 4,
        }
    }
}

impl StoreKind {
    /// Access size in bytes.
    pub const fn size(self) -> u32 {
        match self {
            StoreKind::Byte => 1,
            StoreKind::Half => 2,
            StoreKind::Word => 4,
        }
    }
}

impl AluOp {
    /// Evaluates the operation.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl(b & 0x1f),
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr(b & 0x1f),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
            AluOp::Or => a | b,
            AluOp::And => a & b,
        }
    }

    /// Whether an immediate (`OP-IMM`) form exists (all but `sub`).
    pub const fn has_imm_form(self) -> bool {
        !matches!(self, AluOp::Sub)
    }

    /// Whether this is a shift, whose immediate form takes a 5-bit
    /// [`SHAMT`] and keeps funct7.
    pub const fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }
}

impl MulDivOp {
    /// Evaluates the operation with the RISC-V division-by-zero and
    /// overflow semantics (`div x, 0 = -1`, `rem x, 0 = x`, etc.).
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            MulDivOp::Mul => a.wrapping_mul(b),
            MulDivOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
            MulDivOp::Mulhsu => (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32,
            MulDivOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
            MulDivOp::Div => {
                if b == 0 {
                    u32::MAX
                } else if a == 0x8000_0000 && b == u32::MAX {
                    a
                } else {
                    ((a as i32) / (b as i32)) as u32
                }
            }
            MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            MulDivOp::Rem => {
                if b == 0 {
                    a
                } else if a == 0x8000_0000 && b == u32::MAX {
                    0
                } else {
                    ((a as i32) % (b as i32)) as u32
                }
            }
            MulDivOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }

    /// Whether this is one of the multi-cycle divide/remainder operations.
    pub const fn is_div_rem(self) -> bool {
        matches!(
            self,
            MulDivOp::Div | MulDivOp::Divu | MulDivOp::Rem | MulDivOp::Remu
        )
    }
}

impl PulpAluOp {
    /// Whether the operation uses a second source register.
    pub const fn is_binary(self) -> bool {
        matches!(
            self,
            PulpAluOp::Min | PulpAluOp::Minu | PulpAluOp::Max | PulpAluOp::Maxu
        )
    }

    /// Evaluates the operation.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            PulpAluOp::Min => (a as i32).min(b as i32) as u32,
            PulpAluOp::Minu => a.min(b),
            PulpAluOp::Max => (a as i32).max(b as i32) as u32,
            PulpAluOp::Maxu => a.max(b),
            PulpAluOp::Abs => (a as i32).wrapping_abs() as u32,
            PulpAluOp::Exths => (a as i16) as i32 as u32,
            PulpAluOp::Exthz => a & 0xffff,
            PulpAluOp::Extbs => (a as i8) as i32 as u32,
            PulpAluOp::Extbz => a & 0xff,
        }
    }
}

impl BitOp {
    /// Evaluates the operation.
    pub fn eval(self, a: u32) -> u32 {
        match self {
            BitOp::Ff1 => {
                if a == 0 {
                    32
                } else {
                    a.trailing_zeros()
                }
            }
            BitOp::Fl1 => {
                if a == 0 {
                    32
                } else {
                    31 - a.leading_zeros()
                }
            }
            BitOp::Cnt => a.count_ones(),
            BitOp::Clb => {
                if a == 0 {
                    0
                } else {
                    let x = if (a as i32) < 0 { !a } else { a };
                    x.leading_zeros().saturating_sub(1)
                }
            }
        }
    }
}

/// The second operand of a `pv.*` SIMD instruction.
///
/// * [`SimdOperand::Vector`] — plain register-register form: `rs2` holds a
///   packed vector.
/// * [`SimdOperand::Scalar`] — the `.sc` form: the lowest lane of `rs2` is
///   replicated across all lanes.
/// * [`SimdOperand::Imm`] — the `.sci` form: a 6-bit sign-extended
///   immediate is replicated. Only available for `b`/`h` formats (the
///   nibble/crumb encodings dropped it for encoding-space reasons,
///   §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdOperand {
    /// Register-register: the operand register holds a packed vector.
    Vector(Reg),
    /// `.sc`: lane 0 of the operand register is broadcast.
    Scalar(Reg),
    /// `.sci`: a 6-bit signed immediate is broadcast.
    Imm(i8),
}

impl SimdOperand {
    /// Mnemonic suffix fragment: `""`, `".sc"` or `".sci"`.
    pub const fn suffix(self) -> &'static str {
        match self {
            SimdOperand::Vector(_) => "",
            SimdOperand::Scalar(_) => ".sc",
            SimdOperand::Imm(_) => ".sci",
        }
    }
}

impl SimdAluOp {
    /// Evaluates the operation on packed words using the shared
    /// [`crate::simd`] semantics.
    pub fn eval(self, fmt: SimdFmt, a: u32, b: u32) -> u32 {
        use crate::simd;
        match self {
            SimdAluOp::Add => simd::zip_map_s(fmt, a, b, i32::wrapping_add),
            SimdAluOp::Sub => simd::zip_map_s(fmt, a, b, i32::wrapping_sub),
            SimdAluOp::Avg => simd::avg(fmt, a, b),
            SimdAluOp::Avgu => simd::avgu(fmt, a, b),
            SimdAluOp::Min => simd::zip_map_s(fmt, a, b, std::cmp::Ord::min),
            SimdAluOp::Minu => simd::zip_map_u(fmt, a, b, std::cmp::Ord::min),
            SimdAluOp::Max => simd::zip_map_s(fmt, a, b, std::cmp::Ord::max),
            SimdAluOp::Maxu => simd::zip_map_u(fmt, a, b, std::cmp::Ord::max),
            SimdAluOp::Srl => simd::srl(fmt, a, b),
            SimdAluOp::Sra => simd::sra(fmt, a, b),
            SimdAluOp::Sll => simd::sll(fmt, a, b),
            SimdAluOp::Or => a | b,
            SimdAluOp::And => a & b,
            SimdAluOp::Xor => a ^ b,
        }
    }
}

/// Hardware-loop register index (RI5CY supports two nested loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopIdx {
    /// Loop register set 0 (innermost by convention).
    L0,
    /// Loop register set 1.
    L1,
}

impl LoopIdx {
    /// 0 or 1.
    pub const fn index(self) -> usize {
        match self {
            LoopIdx::L0 => 0,
            LoopIdx::L1 => 1,
        }
    }

    /// Builds from a raw bit.
    pub const fn from_bit(b: u32) -> LoopIdx {
        if b & 1 == 0 {
            LoopIdx::L0
        } else {
            LoopIdx::L1
        }
    }
}

impl fmt::Display for LoopIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.index())
    }
}

/// A decoded instruction.
///
/// The enum deliberately favours a small number of parameterized variants
/// (grouped by operational shape) over one variant per mnemonic: the
/// simulator dispatches on shape, and the encoder/decoder handle the
/// sub-operation fields.
// Operand fields (rd/rs1/rs2/imm/offset) are described by each variant's
// doc comment; per-field docs would only repeat the RISC-V field names.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    // ----- RV32I -----
    /// `lui rd, imm`: load upper immediate. `imm` holds the already
    /// shifted 32-bit value (low 12 bits zero).
    Lui { rd: Reg, imm: u32 },
    /// `auipc rd, imm`: add upper immediate to PC.
    Auipc { rd: Reg, imm: u32 },
    /// `jal rd, offset`: jump and link (byte offset from this instruction).
    Jal { rd: Reg, offset: i32 },
    /// `jalr rd, offset(rs1)`: indirect jump and link.
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    /// Conditional branch (byte offset from this instruction).
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Load: `rd = mem[rs1 + offset]`.
    Load {
        kind: LoadKind,
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Store: `mem[rs1 + offset] = rs2`.
    Store {
        kind: StoreKind,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Register-register ALU operation.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Immediate ALU operation (no `sub` form; shifts use 5-bit amounts).
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// `fence` (a no-op in this single-hart model).
    Fence,
    /// `ecall`: environment call; the SoC model uses it to halt.
    Ecall,
    /// `ebreak`: breakpoint.
    Ebreak,
    /// `csrrw`/`csrrs`/`csrrc` with a register source. `write`/`set`/`clear`
    /// selected by `op` (0=rw, 1=rs, 2=rc).
    Csr { op: u8, rd: Reg, rs1: Reg, csr: u16 },

    // ----- RV32M -----
    /// Multiply/divide.
    MulDiv {
        op: MulDivOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },

    // ----- XpulpV2: scalar -----
    /// `p.min/max/abs/ext*`.
    PulpAlu {
        op: PulpAluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `p.clip rd, rs1, imm`: clip to `[-2^(imm-1), 2^(imm-1)-1]`.
    PClip { rd: Reg, rs1: Reg, bits: u8 },
    /// `p.clipu rd, rs1, imm`: clip to `[0, 2^(imm-1)-1]`.
    PClipU { rd: Reg, rs1: Reg, bits: u8 },
    /// `p.mac rd, rs1, rs2`: `rd += rs1 * rs2`.
    PMac { rd: Reg, rs1: Reg, rs2: Reg },
    /// `p.msu rd, rs1, rs2`: `rd -= rs1 * rs2`.
    PMsu { rd: Reg, rs1: Reg, rs2: Reg },
    /// Bit-count operations (`p.ff1`, `p.fl1`, `p.cnt`, `p.clb`).
    PBit { op: BitOp, rd: Reg, rs1: Reg },
    /// `p.extract rd, rs1, len, off`: signed bit-field extract.
    PExtract { rd: Reg, rs1: Reg, len: u8, off: u8 },
    /// `p.extractu`: unsigned bit-field extract.
    PExtractU { rd: Reg, rs1: Reg, len: u8, off: u8 },
    /// `p.insert rd, rs1, len, off`: insert low `len` bits of `rs1` into
    /// `rd` at offset `off` (read-modify-write on `rd`).
    PInsert { rd: Reg, rs1: Reg, len: u8, off: u8 },

    // ----- XpulpV2: post-increment / register-offset memory ops -----
    /// `p.lw rd, imm(rs1!)`: load then `rs1 += offset`.
    LoadPostInc {
        kind: LoadKind,
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// `p.lw rd, rs2(rs1!)`: load then `rs1 += rs2`.
    LoadPostIncReg {
        kind: LoadKind,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `p.lw rd, rs2(rs1)`: register-offset load (no update).
    LoadRegOff {
        kind: LoadKind,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `p.sw rs2, imm(rs1!)`: store then `rs1 += offset`.
    StorePostInc {
        kind: StoreKind,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// `p.sw rs2, rs3(rs1!)`: store then `rs1 += rs3`.
    StorePostIncReg {
        kind: StoreKind,
        rs1: Reg,
        rs2: Reg,
        rs3: Reg,
    },

    // ----- XpulpV2: hardware loops -----
    /// `lp.starti L, offset`: loop start address = PC + offset.
    LpStarti { l: LoopIdx, offset: i32 },
    /// `lp.endi L, offset`: loop end address = PC + offset.
    LpEndi { l: LoopIdx, offset: i32 },
    /// `lp.count L, rs1`: loop count from register.
    LpCount { l: LoopIdx, rs1: Reg },
    /// `lp.counti L, imm`: immediate loop count.
    LpCounti { l: LoopIdx, imm: u32 },
    /// `lp.setup L, rs1, offset`: start = next PC, end = PC + offset,
    /// count = rs1.
    LpSetup { l: LoopIdx, rs1: Reg, offset: i32 },
    /// `lp.setupi L, imm, offset`: immediate count variant.
    LpSetupi { l: LoopIdx, imm: u32, offset: i32 },

    // ----- XpulpV2 (b/h) + XpulpNN (n/c): packed SIMD -----
    /// Element-wise SIMD ALU operation: `pv.<op>[.sc|.sci].<fmt>`.
    PvAlu {
        op: SimdAluOp,
        fmt: SimdFmt,
        rd: Reg,
        rs1: Reg,
        op2: SimdOperand,
    },
    /// `pv.abs.<fmt> rd, rs1`: lane-wise absolute value.
    PvAbs { fmt: SimdFmt, rd: Reg, rs1: Reg },
    /// `pv.extract[u].<fmt> rd, rs1, idx`: extract one lane to a scalar.
    PvExtract {
        fmt: SimdFmt,
        rd: Reg,
        rs1: Reg,
        idx: u8,
        signed: bool,
    },
    /// `pv.insert.<fmt> rd, rs1, idx`: insert scalar `rs1` into lane `idx`
    /// of `rd` (read-modify-write).
    PvInsert {
        fmt: SimdFmt,
        rd: Reg,
        rs1: Reg,
        idx: u8,
    },
    /// `pv.shuffle2.<fmt> rd, rs1, rs2`: per-lane two-source shuffle.
    ///
    /// For each lane `i`, the selector `s = rs2[i]` picks source lane
    /// `s mod lanes` from `rs1` when `s & lanes == 0`, or from the old
    /// value of `rd` when `s & lanes != 0` (the CV32E40P semantics the
    /// PULP-NN unpack sequences rely on).
    PvShuffle2 {
        fmt: SimdFmt,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `pv.dot{up,usp,sp}[.sc].<fmt> rd, rs1, op2`: packed dot product.
    PvDot {
        fmt: SimdFmt,
        sign: DotSign,
        rd: Reg,
        rs1: Reg,
        op2: SimdOperand,
    },
    /// `pv.sdot{up,usp,sp}[.sc].<fmt> rd, rs1, op2`: sum-of-dot-products
    /// (`rd` is both accumulator input and destination).
    PvSdot {
        fmt: SimdFmt,
        sign: DotSign,
        rd: Reg,
        rs1: Reg,
        op2: SimdOperand,
    },

    // ----- XpulpNN: quantization unit -----
    /// `pv.qnt.<n|c> rd, rs1, rs2`: thresholding-based re-quantization of
    /// the two 16-bit activations packed in `rs1`, walking the balanced
    /// binary threshold tree whose base address is in `rs2` (§III-B2).
    ///
    /// The two quantized outputs are packed into the low lanes of `rd`:
    /// `rd = q0 | (q1 << fmt.bits())`. Only [`SimdFmt::Nibble`] and
    /// [`SimdFmt::Crumb`] are valid formats.
    PvQnt {
        fmt: SimdFmt,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },

    // ----- Xrvv: RVV-style vector unit (second backend) -----
    /// `vsetvli rd, rs1, <sew>`: configure the vector unit.
    ///
    /// Sets SEW from the immediate field and
    /// `vl = min(rs1, VLMAX)`, where `VLMAX = VLEN / SEW`; `rs1 = x0`
    /// requests `vl = VLMAX` (the strip-mining idiom). `rd` receives the
    /// granted `vl`. LMUL is fixed at `m1` in this model.
    VSetvli { rd: Reg, rs1: Reg, sew: VecSew },
    /// `vle.v vd, (rs1)`: unit-stride vector load of `vl` elements at
    /// the current SEW; sub-byte elements are packed contiguously.
    /// The tail of the register is zeroed.
    VLoad { vd: VReg, rs1: Reg },
    /// `vse.v vs, (rs1)`: unit-stride vector store of `vl` elements
    /// (`ceil(vl*SEW/8)` bytes).
    VStore { vs: VReg, rs1: Reg },
    /// `vlse.v vd, (rs1), rs2`: strided load; element `i` comes from
    /// `rs1 + i*rs2`. Requires a whole-byte SEW (`e8`/`e16`); sub-byte
    /// elements are not byte-addressable.
    VLoadStrided { vd: VReg, rs1: Reg, rs2: Reg },
    /// `vsse.v vs, (rs1), rs2`: strided store (same SEW restriction as
    /// [`Instr::VLoadStrided`]).
    VStoreStrided { vs: VReg, rs1: Reg, rs2: Reg },
    /// `vdot{up,usp,sp}.vv rd, vs1, vs2`: vector dot-product reduction
    /// into a *scalar* register: `rd += sum_i vs1[i]*vs2[i]` over `vl`
    /// elements, extended per `sign`, accumulating modulo 2³² exactly
    /// like `pv.sdot*` (which keeps the two backends bit-identical).
    VDot {
        sign: DotSign,
        rd: Reg,
        vs1: VReg,
        vs2: VReg,
    },
    /// `vqnt.<n|c>.v vd, rs1, vs2`: Quark-style staircase quantization.
    ///
    /// Element `i` of `vs2` (16-bit, so SEW must be `e16`) walks the
    /// Eytzinger threshold tree at `rs1 + i*stride` (the same per-tree
    /// stride as `pv.qnt`) and the `fmt.bits()`-wide result is packed
    /// into `vd` at bit `i*fmt.bits()`; the tail is zeroed. Only the
    /// sub-byte formats are valid.
    VQnt {
        fmt: SimdFmt,
        vd: VReg,
        rs1: Reg,
        vs2: VReg,
    },
    /// `vslide1down.vx vd, vs2, rs1`: `vd[i] = vs2[i+1]` for
    /// `i < vl-1`, `vd[vl-1] = rs1` (truncated to SEW); tail zeroed.
    VSlide1 { vd: VReg, vs2: VReg, rs1: Reg },
    /// `vmv.x.s rd, vs2`: move element 0 of `vs2` to a scalar register,
    /// sign-extended from the current SEW.
    VMvXS { rd: Reg, vs2: VReg },

    /// `nop` (canonically `addi x0, x0, 0`, kept distinct for readability
    /// of disassembly; encodes identically).
    Nop,
}

/// An invalid combination of fields in an [`Instr`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings are given by the variant docs
pub enum ValidateError {
    /// `.sci` immediate form used with a sub-byte format (not encodable,
    /// per §III-A of the paper).
    SciWithSubByte(SimdFmt),
    /// `pv.qnt` with a non-sub-byte format.
    QntFormat(SimdFmt),
    /// `pv.shuffle2` with a sub-byte format (selector lanes cannot index
    /// all source lanes).
    ShuffleSubByte(SimdFmt),
    /// Lane index out of range for the format.
    LaneIndex { fmt: SimdFmt, idx: u8 },
    /// A value its [`Field`] cannot hold (out of range or misaligned).
    ImmRange { what: &'static str, value: i64 },
    /// `sub` has no immediate form.
    SubImm,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::SciWithSubByte(fmt) => write!(
                f,
                "the .sci immediate variant is not encodable for sub-byte format .{fmt}"
            ),
            ValidateError::QntFormat(fmt) => {
                write!(f, "pv.qnt supports only nibble/crumb formats, got .{fmt}")
            }
            ValidateError::ShuffleSubByte(fmt) => {
                write!(f, "pv.shuffle2 supports only byte/half formats, got .{fmt}")
            }
            ValidateError::LaneIndex { fmt, idx } => {
                write!(f, "lane index {idx} out of range for format .{fmt}")
            }
            ValidateError::ImmRange { what, value } => {
                write!(f, "{what} {value} is out of range or misaligned")
            }
            ValidateError::SubImm => f.write_str("sub has no immediate form"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// An integer instruction field, seen as `i64` by [`Operand::Imm`].
pub trait IntField {
    /// The value.
    fn get(&self) -> i64;
    /// Stores `v`; callers check it against the [`Field`] first, and
    /// every field's range fits its Rust type.
    fn set(&mut self, v: i64);
}

macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl IntField for $t {
            fn get(&self) -> i64 {
                i64::from(*self)
            }
            fn set(&mut self, v: i64) {
                *self = v as $t;
            }
        }
    )*};
}
int_field!(i8, u8, u16, i32, u32);

/// One operand of an instruction's assembly syntax, borrowed from the
/// instruction so that one walk ([`Instr::operands`]) prints, parses
/// and range-checks it.
pub enum Operand<'a> {
    /// A scalar register.
    Reg(&'a mut Reg),
    /// A vector register.
    VReg(&'a mut VReg),
    /// A hardware-loop index, written `x0`/`x1`.
    Loop(&'a mut LoopIdx),
    /// A `vsetvli` element width.
    Sew(&'a mut VecSew),
    /// An immediate held by its [`Field`].
    Imm(&'a mut dyn IntField, &'static Field),
    /// A memory operand `off(base)`, `reg(base)` or `(base)`, written
    /// `(base!)` when the base is post-incremented.
    Mem {
        /// The part before `(base)`.
        off: MemOffset<'a>,
        /// The base register.
        base: &'a mut Reg,
        /// Whether the base is post-incremented.
        post_inc: bool,
    },
}

/// What precedes `(base)` in a memory operand.
pub enum MemOffset<'a> {
    /// An immediate offset.
    Imm(&'a mut dyn IntField, &'static Field),
    /// A register offset or increment.
    Reg(&'a mut Reg),
    /// Nothing: `(base)`.
    None,
}

fn mem<'a>(off: MemOffset<'a>, base: &'a mut Reg, post_inc: bool) -> Operand<'a> {
    Operand::Mem {
        off,
        base,
        post_inc,
    }
}

/// Calls `f` on each of `ops`, until it fails.
fn each<'a, E, const N: usize>(
    ops: [Operand<'a>; N],
    f: &mut impl FnMut(Operand<'a>) -> Result<(), E>,
) -> Result<(), E> {
    ops.into_iter().try_for_each(f)
}

fn simd_op2(op2: &mut SimdOperand) -> Operand<'_> {
    match op2 {
        SimdOperand::Vector(r) | SimdOperand::Scalar(r) => Operand::Reg(r),
        SimdOperand::Imm(i) => Operand::Imm(i, &SCI),
    }
}

impl Instr {
    /// Calls `f` on each operand in assembly-text order, each with the
    /// field that holds it, until `f` fails.
    pub fn operands<E>(
        &mut self,
        mut f: impl FnMut(Operand<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        use MemOffset as M;
        use Operand::{Imm, Loop, Reg as R, VReg as V};
        let f = &mut f;
        match self {
            Instr::Lui { rd, imm } | Instr::Auipc { rd, imm } => each([R(rd), Imm(imm, &U_IMM)], f),
            Instr::Jal { rd, offset } => each([R(rd), Imm(offset, &J_IMM)], f),
            Instr::Jalr { rd, rs1, offset }
            | Instr::Load {
                rd, rs1, offset, ..
            } => each([R(rd), mem(M::Imm(offset, &I_IMM), rs1, false)], f),
            Instr::Branch {
                rs1, rs2, offset, ..
            } => each([R(rs1), R(rs2), Imm(offset, &B_IMM)], f),
            Instr::Store {
                rs1, rs2, offset, ..
            } => each([R(rs2), mem(M::Imm(offset, &S_IMM), rs1, false)], f),
            Instr::AluImm { op, rd, rs1, imm } => {
                let field = if op.is_shift() { &SHAMT } else { &I_IMM };
                each([R(rd), R(rs1), Imm(imm, field)], f)
            }
            Instr::Fence | Instr::Ecall | Instr::Ebreak | Instr::Nop => each([], f),
            Instr::Csr { rd, rs1, csr, .. } => each([R(rd), Imm(csr, &CSR), R(rs1)], f),
            Instr::PulpAlu { op, rd, rs1, rs2 } => {
                if op.is_binary() {
                    each([R(rd), R(rs1), R(rs2)], f)
                } else {
                    each([R(rd), R(rs1)], f)
                }
            }
            Instr::Alu { rd, rs1, rs2, .. }
            | Instr::MulDiv { rd, rs1, rs2, .. }
            | Instr::PMac { rd, rs1, rs2 }
            | Instr::PMsu { rd, rs1, rs2 }
            | Instr::PvShuffle2 { rd, rs1, rs2, .. }
            | Instr::PvQnt { rd, rs1, rs2, .. } => each([R(rd), R(rs1), R(rs2)], f),
            Instr::PBit { rd, rs1, .. } | Instr::PvAbs { rd, rs1, .. } => each([R(rd), R(rs1)], f),
            Instr::PClip { rd, rs1, bits } | Instr::PClipU { rd, rs1, bits } => {
                each([R(rd), R(rs1), Imm(bits, &CLIP)], f)
            }
            Instr::PExtract { rd, rs1, len, off }
            | Instr::PExtractU { rd, rs1, len, off }
            | Instr::PInsert { rd, rs1, len, off } => {
                each([R(rd), R(rs1), Imm(len, &BF_LEN), Imm(off, &BF_OFF)], f)
            }
            Instr::LoadPostInc {
                rd, rs1, offset, ..
            } => each([R(rd), mem(M::Imm(offset, &I_IMM), rs1, true)], f),
            Instr::LoadPostIncReg { rd, rs1, rs2, .. } => {
                each([R(rd), mem(M::Reg(rs2), rs1, true)], f)
            }
            Instr::LoadRegOff { rd, rs1, rs2, .. } => {
                each([R(rd), mem(M::Reg(rs2), rs1, false)], f)
            }
            Instr::StorePostInc {
                rs1, rs2, offset, ..
            } => each([R(rs2), mem(M::Imm(offset, &S_IMM), rs1, true)], f),
            Instr::StorePostIncReg { rs1, rs2, rs3, .. } => {
                each([R(rs2), mem(M::Reg(rs3), rs1, true)], f)
            }
            Instr::LpStarti { l, offset } | Instr::LpEndi { l, offset } => {
                each([Loop(l), Imm(offset, &LOOP_OFF)], f)
            }
            Instr::LpCount { l, rs1 } => each([Loop(l), R(rs1)], f),
            Instr::LpCounti { l, imm } => each([Loop(l), Imm(imm, &LOOP_COUNT)], f),
            Instr::LpSetup { l, rs1, offset } => each([Loop(l), R(rs1), Imm(offset, &LOOP_OFF)], f),
            Instr::LpSetupi { l, imm, offset } => each(
                [Loop(l), Imm(imm, &LOOP_COUNT), Imm(offset, &SETUPI_OFF)],
                f,
            ),
            Instr::PvAlu { rd, rs1, op2, .. }
            | Instr::PvDot { rd, rs1, op2, .. }
            | Instr::PvSdot { rd, rs1, op2, .. } => each([R(rd), R(rs1), simd_op2(op2)], f),
            Instr::PvExtract { rd, rs1, idx, .. } | Instr::PvInsert { rd, rs1, idx, .. } => {
                each([R(rd), R(rs1), Imm(idx, &LANE)], f)
            }
            Instr::VSetvli { rd, rs1, sew } => each([R(rd), R(rs1), Operand::Sew(sew)], f),
            Instr::VLoad { vd: v, rs1 } | Instr::VStore { vs: v, rs1 } => {
                each([V(v), mem(M::None, rs1, false)], f)
            }
            Instr::VLoadStrided { vd: v, rs1, rs2 } | Instr::VStoreStrided { vs: v, rs1, rs2 } => {
                each([V(v), mem(M::None, rs1, false), R(rs2)], f)
            }
            Instr::VDot { rd, vs1, vs2, .. } => each([R(rd), V(vs1), V(vs2)], f),
            Instr::VQnt { vd, rs1, vs2, .. } => each([V(vd), R(rs1), V(vs2)], f),
            Instr::VSlide1 { vd, vs2, rs1 } => each([V(vd), V(vs2), R(rs1)], f),
            Instr::VMvXS { rd, vs2 } => each([R(rd), V(vs2)], f),
        }
    }

    /// Writes the assembly mnemonic (`addi`, `p.lw`, `pv.sdotusp.sc.c`, …).
    pub fn write_mnemonic(&self, w: &mut impl fmt::Write) -> fmt::Result {
        match *self {
            Instr::Lui { .. } => w.write_str("lui"),
            Instr::Auipc { .. } => w.write_str("auipc"),
            Instr::Jal { .. } => w.write_str("jal"),
            Instr::Jalr { .. } => w.write_str("jalr"),
            Instr::Fence => w.write_str("fence"),
            Instr::Ecall => w.write_str("ecall"),
            Instr::Ebreak => w.write_str("ebreak"),
            Instr::Nop => w.write_str("nop"),
            Instr::Branch { cond, .. } => write!(w, "{cond}"),
            Instr::Load { kind, .. } => write!(w, "{kind}"),
            Instr::Store { kind, .. } => write!(w, "{kind}"),
            Instr::Alu { op, .. } => write!(w, "{op}"),
            Instr::AluImm { op, .. } => write!(w, "{op}i"),
            // `validate` rejects an `op` past the table; printing clamps it.
            Instr::Csr { op, .. } => write!(w, "{}", CsrOp::ALL[usize::from(op).min(2)]),
            Instr::MulDiv { op, .. } => write!(w, "{op}"),
            Instr::PulpAlu { op, .. } => write!(w, "{op}"),
            Instr::PBit { op, .. } => write!(w, "{op}"),
            Instr::PClip { .. } => write!(w, "{}", ScalarOp::Clip),
            Instr::PClipU { .. } => write!(w, "{}", ScalarOp::ClipU),
            Instr::PMac { .. } => write!(w, "{}", ScalarOp::Mac),
            Instr::PMsu { .. } => write!(w, "{}", ScalarOp::Msu),
            Instr::PExtract { .. } => write!(w, "{}", BitfieldOp::Extract),
            Instr::PExtractU { .. } => write!(w, "{}", BitfieldOp::ExtractU),
            Instr::PInsert { .. } => write!(w, "{}", BitfieldOp::Insert),
            Instr::LoadPostInc { kind, .. }
            | Instr::LoadPostIncReg { kind, .. }
            | Instr::LoadRegOff { kind, .. } => write!(w, "p.{kind}"),
            Instr::StorePostInc { kind, .. } | Instr::StorePostIncReg { kind, .. } => {
                write!(w, "p.{kind}")
            }
            Instr::LpStarti { .. } => write!(w, "{}", LoopOp::Starti),
            Instr::LpEndi { .. } => write!(w, "{}", LoopOp::Endi),
            Instr::LpCount { .. } => write!(w, "{}", LoopOp::Count),
            Instr::LpCounti { .. } => write!(w, "{}", LoopOp::Counti),
            Instr::LpSetup { .. } => write!(w, "{}", LoopOp::Setup),
            Instr::LpSetupi { .. } => write!(w, "{}", LoopOp::Setupi),
            Instr::PvAlu { op, fmt, op2, .. } => write!(w, "pv.{op}{}.{fmt}", op2.suffix()),
            Instr::PvAbs { fmt, .. } => write!(w, "pv.{}.{fmt}", SimdOp::Abs),
            Instr::PvExtract { fmt, signed, .. } => {
                let op = if signed {
                    SimdOp::Extract
                } else {
                    SimdOp::ExtractU
                };
                write!(w, "pv.{op}.{fmt}")
            }
            Instr::PvInsert { fmt, .. } => write!(w, "pv.{}.{fmt}", SimdOp::Insert),
            Instr::PvShuffle2 { fmt, .. } => write!(w, "pv.{}.{fmt}", SimdOp::Shuffle2),
            Instr::PvQnt { fmt, .. } => write!(w, "pv.{}.{fmt}", SimdOp::Qnt),
            Instr::PvDot { fmt, sign, op2, .. } => {
                write!(w, "pv.{}{sign}{}.{fmt}", SimdOp::Dot, op2.suffix())
            }
            Instr::PvSdot { fmt, sign, op2, .. } => {
                write!(w, "pv.{}{sign}{}.{fmt}", SimdOp::Sdot, op2.suffix())
            }
            Instr::VSetvli { .. } => write!(w, "{}", SimdOp::Vsetvli),
            Instr::VLoad { .. } => w.write_str("vle.v"),
            Instr::VStore { .. } => w.write_str("vse.v"),
            Instr::VLoadStrided { .. } => w.write_str("vlse.v"),
            Instr::VStoreStrided { .. } => w.write_str("vsse.v"),
            Instr::VDot { sign, .. } => write!(w, "{}{sign}.vv", SimdOp::Vdot),
            Instr::VQnt { fmt, .. } => write!(w, "{}.{fmt}.v", SimdOp::Vqnt),
            Instr::VSlide1 { .. } => write!(w, "{}", SimdOp::Vslide1down),
            Instr::VMvXS { .. } => write!(w, "{}", SimdOp::VmvXS),
        }
    }

    /// The assembly mnemonic as a string.
    pub fn mnemonic(&self) -> String {
        let mut s = String::new();
        // Writing into a String cannot fail.
        let _ = self.write_mnemonic(&mut s);
        s
    }

    /// Checks every operand against its [`Field`] (range, scale and
    /// alignment), plus the field combinations the encoding cannot
    /// represent.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] naming the offending field. The
    /// assembler validates every instruction before emission; whatever
    /// the decoder produces validates.
    pub fn validate(&self) -> Result<(), ValidateError> {
        match *self {
            Instr::PvAlu {
                fmt,
                op2: SimdOperand::Imm(_),
                ..
            }
            | Instr::PvDot {
                fmt,
                op2: SimdOperand::Imm(_),
                ..
            }
            | Instr::PvSdot {
                fmt,
                op2: SimdOperand::Imm(_),
                ..
            } if fmt.is_sub_byte() => return Err(ValidateError::SciWithSubByte(fmt)),
            Instr::PvQnt { fmt, .. } | Instr::VQnt { fmt, .. } if !fmt.is_sub_byte() => {
                return Err(ValidateError::QntFormat(fmt))
            }
            // Sub-byte selectors cannot index all lanes, so shuffle2 (like
            // CV32E40P's) exists only for the b/h formats.
            Instr::PvShuffle2 { fmt, .. } if fmt.is_sub_byte() => {
                return Err(ValidateError::ShuffleSubByte(fmt))
            }
            Instr::PvExtract { fmt, idx, .. } | Instr::PvInsert { fmt, idx, .. }
                if idx as usize >= fmt.lanes() =>
            {
                return Err(ValidateError::LaneIndex { fmt, idx })
            }
            Instr::AluImm { op: AluOp::Sub, .. } => return Err(ValidateError::SubImm),
            Instr::Csr { op, .. } if usize::from(op) >= CsrOp::ALL.len() => {
                return Err(ValidateError::ImmRange {
                    what: "csr op",
                    value: op.into(),
                })
            }
            _ => {}
        }
        let mut copy = *self;
        copy.operands(|operand| match operand {
            Operand::Imm(v, field)
            | Operand::Mem {
                off: MemOffset::Imm(v, field),
                ..
            } => field.check(v.get()),
            _ => Ok(()),
        })
    }

    /// True for control-flow instructions (jumps and branches).
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. }
        )
    }

    /// True for instructions that access data memory.
    pub fn is_mem_access(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::LoadPostInc { .. }
                | Instr::LoadPostIncReg { .. }
                | Instr::LoadRegOff { .. }
                | Instr::StorePostInc { .. }
                | Instr::StorePostIncReg { .. }
                | Instr::PvQnt { .. }
                | Instr::VLoad { .. }
                | Instr::VStore { .. }
                | Instr::VLoadStrided { .. }
                | Instr::VStoreStrided { .. }
                | Instr::VQnt { .. }
        )
    }

    /// True for the Xrvv vector-unit instructions (second backend); only
    /// available when the core is configured with the vector extension.
    pub fn requires_rvv(&self) -> bool {
        matches!(
            self,
            Instr::VSetvli { .. }
                | Instr::VLoad { .. }
                | Instr::VStore { .. }
                | Instr::VLoadStrided { .. }
                | Instr::VStoreStrided { .. }
                | Instr::VDot { .. }
                | Instr::VQnt { .. }
                | Instr::VSlide1 { .. }
                | Instr::VMvXS { .. }
        )
    }

    /// True for instructions only available with the XpulpNN extension
    /// (sub-byte SIMD and `pv.qnt`).
    pub fn requires_xpulpnn(&self) -> bool {
        match *self {
            Instr::PvAlu { fmt, .. }
            | Instr::PvAbs { fmt, .. }
            | Instr::PvExtract { fmt, .. }
            | Instr::PvInsert { fmt, .. }
            | Instr::PvShuffle2 { fmt, .. }
            | Instr::PvDot { fmt, .. }
            | Instr::PvSdot { fmt, .. } => fmt.is_sub_byte(),
            Instr::PvQnt { .. } => true,
            _ => false,
        }
    }

    /// True for instructions in the XpulpV2 extension (including the b/h
    /// SIMD ops, hardware loops, post-increment memory ops and `p.*`
    /// scalar ops).
    pub fn requires_xpulpv2(&self) -> bool {
        match *self {
            Instr::PulpAlu { .. }
            | Instr::PClip { .. }
            | Instr::PClipU { .. }
            | Instr::PMac { .. }
            | Instr::PMsu { .. }
            | Instr::PBit { .. }
            | Instr::PExtract { .. }
            | Instr::PExtractU { .. }
            | Instr::PInsert { .. }
            | Instr::LoadPostInc { .. }
            | Instr::LoadPostIncReg { .. }
            | Instr::LoadRegOff { .. }
            | Instr::StorePostInc { .. }
            | Instr::StorePostIncReg { .. }
            | Instr::LpStarti { .. }
            | Instr::LpEndi { .. }
            | Instr::LpCount { .. }
            | Instr::LpCounti { .. }
            | Instr::LpSetup { .. }
            | Instr::LpSetupi { .. } => true,
            Instr::PvAlu { fmt, .. }
            | Instr::PvAbs { fmt, .. }
            | Instr::PvExtract { fmt, .. }
            | Instr::PvInsert { fmt, .. }
            | Instr::PvShuffle2 { fmt, .. }
            | Instr::PvDot { fmt, .. }
            | Instr::PvSdot { fmt, .. } => !fmt.is_sub_byte(),
            _ => false,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_mnemonic(f)?;
        let mut copy = *self;
        let mut sep = " ";
        copy.operands(|operand| {
            f.write_str(sep)?;
            sep = ", ";
            match operand {
                Operand::Reg(r) => write!(f, "{r}"),
                Operand::VReg(v) => write!(f, "{v}"),
                Operand::Loop(l) => write!(f, "x{l}"),
                Operand::Sew(sew) => write!(f, "{sew}"),
                Operand::Imm(v, field) => write_imm(f, v.get(), field),
                Operand::Mem {
                    off,
                    base,
                    post_inc,
                } => {
                    match off {
                        MemOffset::Imm(v, field) => write_imm(f, v.get(), field)?,
                        MemOffset::Reg(r) => write!(f, "{r}")?,
                        MemOffset::None => {}
                    }
                    write!(f, "({base}{})", if post_inc { "!" } else { "" })
                }
            }
        })
    }
}

fn write_imm(f: &mut fmt::Formatter<'_>, v: i64, field: &Field) -> fmt::Result {
    match field.hex_shift {
        Some(shift) => write!(f, "0x{:x}", v >> shift),
        None => write!(f, "{v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(!BranchCond::Ne.eval(5, 5));
        assert!(BranchCond::Lt.eval(u32::MAX, 0)); // -1 < 0 signed
        assert!(!BranchCond::Ltu.eval(u32::MAX, 0));
        assert!(BranchCond::Geu.eval(u32::MAX, 0));
        assert!(BranchCond::Ge.eval(0, u32::MAX));
    }

    #[test]
    fn alu_op_eval() {
        assert_eq!(AluOp::Add.eval(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.eval(0, 1), u32::MAX);
        assert_eq!(AluOp::Sll.eval(1, 33), 2); // shift amount masked to 5 bits
        assert_eq!(AluOp::Sra.eval(0x8000_0000, 31), u32::MAX);
        assert_eq!(AluOp::Srl.eval(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Slt.eval(u32::MAX, 0), 1);
        assert_eq!(AluOp::Sltu.eval(u32::MAX, 0), 0);
    }

    #[test]
    fn muldiv_special_cases() {
        assert_eq!(MulDivOp::Div.eval(7, 0), u32::MAX);
        assert_eq!(MulDivOp::Divu.eval(7, 0), u32::MAX);
        assert_eq!(MulDivOp::Rem.eval(7, 0), 7);
        assert_eq!(MulDivOp::Remu.eval(7, 0), 7);
        // overflow case: i32::MIN / -1
        assert_eq!(MulDivOp::Div.eval(0x8000_0000, u32::MAX), 0x8000_0000);
        assert_eq!(MulDivOp::Rem.eval(0x8000_0000, u32::MAX), 0);
        assert_eq!(MulDivOp::Mulh.eval(u32::MAX, u32::MAX), 0); // (-1)*(-1) = 1
        assert_eq!(MulDivOp::Mulhu.eval(u32::MAX, u32::MAX), 0xffff_fffe);
        assert_eq!(MulDivOp::Mulhsu.eval(u32::MAX, u32::MAX), u32::MAX);
    }

    #[test]
    fn bit_op_eval() {
        assert_eq!(BitOp::Ff1.eval(0), 32);
        assert_eq!(BitOp::Ff1.eval(0b1000), 3);
        assert_eq!(BitOp::Fl1.eval(0), 32);
        assert_eq!(BitOp::Fl1.eval(0b1000), 3);
        assert_eq!(BitOp::Cnt.eval(0xff00_ff00), 16);
        assert_eq!(BitOp::Clb.eval(0), 0);
        assert_eq!(BitOp::Clb.eval(1), 30);
        assert_eq!(BitOp::Clb.eval(u32::MAX), 31);
    }

    #[test]
    fn pulp_alu_eval() {
        assert_eq!(PulpAluOp::Min.eval(u32::MAX, 1), u32::MAX); // -1 < 1
        assert_eq!(PulpAluOp::Minu.eval(u32::MAX, 1), 1);
        assert_eq!(PulpAluOp::Max.eval(u32::MAX, 1), 1);
        assert_eq!(PulpAluOp::Maxu.eval(u32::MAX, 1), u32::MAX);
        assert_eq!(PulpAluOp::Abs.eval(u32::MAX, 0), 1);
        assert_eq!(PulpAluOp::Exths.eval(0x8000, 0), 0xffff_8000);
        assert_eq!(PulpAluOp::Exthz.eval(0xffff_8000, 0), 0x8000);
        assert_eq!(PulpAluOp::Extbs.eval(0x80, 0), 0xffff_ff80);
        assert_eq!(PulpAluOp::Extbz.eval(0xffff_ff80, 0), 0x80);
    }

    #[test]
    fn validate_rejects_sci_sub_byte() {
        let bad = Instr::PvAlu {
            op: SimdAluOp::Add,
            fmt: SimdFmt::Nibble,
            rd: Reg::A0,
            rs1: Reg::A1,
            op2: SimdOperand::Imm(3),
        };
        assert_eq!(
            bad.validate(),
            Err(ValidateError::SciWithSubByte(SimdFmt::Nibble))
        );
        let good = Instr::PvAlu {
            op: SimdAluOp::Add,
            fmt: SimdFmt::Byte,
            rd: Reg::A0,
            rs1: Reg::A1,
            op2: SimdOperand::Imm(3),
        };
        assert_eq!(good.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_qnt_byte() {
        let bad = Instr::PvQnt {
            fmt: SimdFmt::Byte,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert!(matches!(bad.validate(), Err(ValidateError::QntFormat(_))));
    }

    #[test]
    fn validate_ranges() {
        let far = Instr::Load {
            kind: LoadKind::Word,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 4096,
        };
        assert!(matches!(
            far.validate(),
            Err(ValidateError::ImmRange { .. })
        ));
        let sub = Instr::AluImm {
            op: AluOp::Sub,
            rd: Reg::A0,
            rs1: Reg::A1,
            imm: 1,
        };
        assert_eq!(sub.validate(), Err(ValidateError::SubImm));
        let idx = Instr::PvExtract {
            fmt: SimdFmt::Byte,
            rd: Reg::A0,
            rs1: Reg::A1,
            idx: 4,
            signed: true,
        };
        assert!(matches!(
            idx.validate(),
            Err(ValidateError::LaneIndex { .. })
        ));
    }

    #[test]
    fn disassembly_samples() {
        let i = Instr::PvSdot {
            fmt: SimdFmt::Crumb,
            sign: DotSign::UnsignedSigned,
            rd: Reg::S0,
            rs1: Reg::A1,
            op2: SimdOperand::Scalar(Reg::A2),
        };
        assert_eq!(i.to_string(), "pv.sdotusp.sc.c s0, a1, a2");
        let q = Instr::PvQnt {
            fmt: SimdFmt::Nibble,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(q.to_string(), "pv.qnt.n a0, a1, a2");
        let l = Instr::LoadPostInc {
            kind: LoadKind::Word,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 4,
        };
        assert_eq!(l.to_string(), "p.lw a0, 4(a1!)");
        let h = Instr::LpSetupi {
            l: LoopIdx::L0,
            imm: 16,
            offset: 20,
        };
        assert_eq!(h.to_string(), "lp.setupi x0, 16, 20");
        let sci = Instr::PvAlu {
            op: SimdAluOp::Sra,
            fmt: SimdFmt::Half,
            rd: Reg::A0,
            rs1: Reg::A0,
            op2: SimdOperand::Imm(7),
        };
        assert_eq!(sci.to_string(), "pv.sra.sci.h a0, a0, 7");
    }

    #[test]
    fn vector_disassembly_samples() {
        use crate::vec::{VReg, VecSew};
        let v = |i: usize| VReg::new(i).unwrap();
        assert_eq!(
            Instr::VSetvli {
                rd: Reg::T5,
                rs1: Reg::T6,
                sew: VecSew::E4
            }
            .to_string(),
            "vsetvli t5, t6, e4"
        );
        assert_eq!(
            Instr::VLoad {
                vd: v(0),
                rs1: Reg::S0
            }
            .to_string(),
            "vle.v v0, (s0)"
        );
        assert_eq!(
            Instr::VStoreStrided {
                vs: v(2),
                rs1: Reg::A0,
                rs2: Reg::A1
            }
            .to_string(),
            "vsse.v v2, (a0), a1"
        );
        assert_eq!(
            Instr::VDot {
                sign: DotSign::UnsignedSigned,
                rd: Reg::S4,
                vs1: v(0),
                vs2: v(4)
            }
            .to_string(),
            "vdotusp.vv s4, v0, v4"
        );
        assert_eq!(
            Instr::VQnt {
                fmt: SimdFmt::Nibble,
                vd: v(2),
                rs1: Reg::A1,
                vs2: v(0)
            }
            .to_string(),
            "vqnt.n.v v2, a1, v0"
        );
        assert_eq!(
            Instr::VSlide1 {
                vd: v(0),
                vs2: v(0),
                rs1: Reg::S4
            }
            .to_string(),
            "vslide1down.vx v0, v0, s4"
        );
        assert_eq!(
            Instr::VMvXS {
                rd: Reg::A0,
                vs2: v(2)
            }
            .to_string(),
            "vmv.x.s a0, v2"
        );
    }

    #[test]
    fn vector_classification_and_validation() {
        use crate::vec::{VReg, VecSew};
        let v = |i: usize| VReg::new(i).unwrap();
        let s = Instr::VSetvli {
            rd: Reg::T5,
            rs1: Reg::T6,
            sew: VecSew::E8,
        };
        assert!(s.requires_rvv());
        assert!(!s.requires_xpulpnn());
        assert!(!s.requires_xpulpv2());
        assert!(!s.is_mem_access());
        let ld = Instr::VLoad {
            vd: v(0),
            rs1: Reg::S0,
        };
        assert!(ld.is_mem_access() && ld.requires_rvv());
        let q = Instr::VQnt {
            fmt: SimdFmt::Byte,
            vd: v(2),
            rs1: Reg::A1,
            vs2: v(0),
        };
        assert!(matches!(q.validate(), Err(ValidateError::QntFormat(_))));
        assert!(Instr::VQnt {
            fmt: SimdFmt::Crumb,
            vd: v(2),
            rs1: Reg::A1,
            vs2: v(0)
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn extension_classification() {
        let nn = Instr::PvSdot {
            fmt: SimdFmt::Nibble,
            sign: DotSign::SignedSigned,
            rd: Reg::A0,
            rs1: Reg::A1,
            op2: SimdOperand::Vector(Reg::A2),
        };
        assert!(nn.requires_xpulpnn());
        assert!(!nn.requires_xpulpv2());
        let v2 = Instr::PvSdot {
            fmt: SimdFmt::Byte,
            sign: DotSign::SignedSigned,
            rd: Reg::A0,
            rs1: Reg::A1,
            op2: SimdOperand::Vector(Reg::A2),
        };
        assert!(!v2.requires_xpulpnn());
        assert!(v2.requires_xpulpv2());
        let base = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert!(!base.requires_xpulpnn());
        assert!(!base.requires_xpulpv2());
        assert!(Instr::PvQnt {
            fmt: SimdFmt::Crumb,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2
        }
        .requires_xpulpnn());
    }
}
