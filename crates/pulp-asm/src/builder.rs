//! The [`Asm`] program builder: label resolution, pseudo-instructions and
//! data segments.

use crate::program::Program;
use pulp_isa::encode::encode;
use pulp_isa::instr::{
    AluOp, BranchCond, Instr, LoadKind, LoopIdx, Operand, SimdOperand, StoreKind, ValidateError,
};
use pulp_isa::simd::{DotSign, SimdFmt};
use pulp_isa::vec::{VReg, VecSew};
use pulp_isa::Reg;
use std::collections::BTreeMap;
use std::fmt;

/// An error produced while assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings are given by the variant docs
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A branch target is outside the ±4 KiB B-type range.
    BranchRange { label: String, offset: i64 },
    /// A jump target is outside the ±1 MiB J-type range.
    JumpRange { label: String, offset: i64 },
    /// A hardware-loop bound does not fit its encoding (misaligned or
    /// too far).
    LoopRange { label: String, offset: i64 },
    /// An instruction failed [`Instr::validate`].
    Validate(ValidateError),
    /// Two data segments overlap.
    DataOverlap { label: String, addr: u32 },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::BranchRange { label, offset } => {
                write!(f, "branch to `{label}` out of range ({offset} bytes)")
            }
            AsmError::JumpRange { label, offset } => {
                write!(f, "jump to `{label}` out of range ({offset} bytes)")
            }
            AsmError::LoopRange { label, offset } => {
                write!(
                    f,
                    "hardware-loop bound `{label}` not encodable ({offset} bytes)"
                )
            }
            AsmError::Validate(e) => write!(f, "invalid instruction: {e}"),
            AsmError::DataOverlap { label, addr } => {
                write!(f, "data segment `{label}` overlaps address {addr:#x}")
            }
        }
    }
}

impl std::error::Error for AsmError {}

impl From<ValidateError> for AsmError {
    fn from(e: ValidateError) -> Self {
        AsmError::Validate(e)
    }
}

#[derive(Debug, Clone)]
enum Item {
    Label(String),
    Fixed(Instr),
    /// An instruction whose pc-relative operand (branch, jump or
    /// hardware-loop offset) is resolved to a label's address.
    Reloc {
        instr: Instr,
        target: String,
    },
    /// Load the 32-bit address of a label: `lui` + `addi`.
    La {
        rd: Reg,
        target: String,
    },
}

impl Item {
    /// Size in instruction words (labels are zero-sized).
    fn size(&self) -> u32 {
        match self {
            Item::Label(_) => 0,
            Item::La { .. } => 2,
            _ => 1,
        }
    }
}

/// Returns the `(hi, lo)` parts of an absolute address for `lui`/`addi`,
/// compensating for `addi`'s sign extension.
fn hi_lo(value: u32) -> (u32, i32) {
    let lo = (value & 0xfff) as i32;
    let lo = if lo >= 0x800 { lo - 0x1000 } else { lo };
    let hi = value.wrapping_sub(lo as u32) & 0xffff_f000;
    (hi, lo)
}

/// A program builder with labels and pseudo-instructions.
///
/// Instructions are appended through either the raw [`Asm::i`] method or
/// the typed convenience helpers; [`Asm::assemble`] resolves labels and
/// produces a [`Program`]. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Asm {
    base: u32,
    items: Vec<Item>,
    data: Vec<(String, Option<u32>, Vec<u8>)>,
    equs: BTreeMap<String, u32>,
}

impl Asm {
    /// Creates a builder whose first instruction will live at `base`.
    pub fn new(base: u32) -> Asm {
        Asm {
            base,
            items: Vec::new(),
            data: Vec::new(),
            equs: BTreeMap::new(),
        }
    }

    /// Appends a raw instruction.
    pub fn i(&mut self, instr: Instr) -> &mut Self {
        self.items.push(Item::Fixed(instr));
        self
    }

    /// Defines a code label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        self.items.push(Item::Label(name.to_string()));
        self
    }

    /// Defines an absolute symbol usable with [`Asm::la`].
    pub fn equ(&mut self, name: &str, value: u32) -> &mut Self {
        self.equs.insert(name.to_string(), value);
        self
    }

    /// Appends a data segment placed after the code (16-byte aligned),
    /// addressable through its label.
    pub fn data_bytes(&mut self, label: &str, bytes: impl Into<Vec<u8>>) -> &mut Self {
        self.data.push((label.to_string(), None, bytes.into()));
        self
    }

    /// Appends a data segment at a fixed address.
    pub fn data_bytes_at(
        &mut self,
        label: &str,
        addr: u32,
        bytes: impl Into<Vec<u8>>,
    ) -> &mut Self {
        self.data
            .push((label.to_string(), Some(addr), bytes.into()));
        self
    }

    /// Appends little-endian words as a data segment.
    pub fn data_words(&mut self, label: &str, words: &[u32]) -> &mut Self {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.data_bytes(label, bytes)
    }

    /// Appends little-endian 16-bit values as a data segment.
    pub fn data_halves(&mut self, label: &str, halves: &[i16]) -> &mut Self {
        let bytes: Vec<u8> = halves.iter().flat_map(|h| h.to_le_bytes()).collect();
        self.data_bytes(label, bytes)
    }

    // ----- pseudo-instructions -----

    /// `li rd, value`: loads a 32-bit constant (1 or 2 instructions).
    pub fn li(&mut self, rd: Reg, value: i32) -> &mut Self {
        if (-2048..2048).contains(&value) {
            self.i(Instr::AluImm {
                op: AluOp::Add,
                rd,
                rs1: Reg::Zero,
                imm: value,
            })
        } else {
            let (hi, lo) = hi_lo(value as u32);
            self.i(Instr::Lui { rd, imm: hi });
            if lo != 0 {
                self.i(Instr::AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1: rd,
                    imm: lo,
                });
            }
            self
        }
    }

    /// `la rd, label`: loads the address of a code/data label or `equ`
    /// symbol (always 2 instructions for deterministic layout).
    pub fn la(&mut self, rd: Reg, label: &str) -> &mut Self {
        self.items.push(Item::La {
            rd,
            target: label.to_string(),
        });
        self
    }

    /// `mv rd, rs`: register copy.
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.i(Instr::AluImm {
            op: AluOp::Add,
            rd,
            rs1: rs,
            imm: 0,
        })
    }

    /// `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.i(Instr::Nop)
    }

    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.i(Instr::AluImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        })
    }

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.i(Instr::Alu {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        })
    }

    /// `sub rd, rs1, rs2`.
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.i(Instr::Alu {
            op: AluOp::Sub,
            rd,
            rs1,
            rs2,
        })
    }

    /// `slli rd, rs1, sh`.
    pub fn slli(&mut self, rd: Reg, rs1: Reg, sh: i32) -> &mut Self {
        self.i(Instr::AluImm {
            op: AluOp::Sll,
            rd,
            rs1,
            imm: sh,
        })
    }

    /// `srli rd, rs1, sh`.
    pub fn srli(&mut self, rd: Reg, rs1: Reg, sh: i32) -> &mut Self {
        self.i(Instr::AluImm {
            op: AluOp::Srl,
            rd,
            rs1,
            imm: sh,
        })
    }

    /// `srai rd, rs1, sh`.
    pub fn srai(&mut self, rd: Reg, rs1: Reg, sh: i32) -> &mut Self {
        self.i(Instr::AluImm {
            op: AluOp::Sra,
            rd,
            rs1,
            imm: sh,
        })
    }

    /// `andi rd, rs1, imm`.
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.i(Instr::AluImm {
            op: AluOp::And,
            rd,
            rs1,
            imm,
        })
    }

    /// `ori rd, rs1, imm`.
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.i(Instr::AluImm {
            op: AluOp::Or,
            rd,
            rs1,
            imm,
        })
    }

    /// `or rd, rs1, rs2`.
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.i(Instr::Alu {
            op: AluOp::Or,
            rd,
            rs1,
            rs2,
        })
    }

    /// `and rd, rs1, rs2`.
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.i(Instr::Alu {
            op: AluOp::And,
            rd,
            rs1,
            rs2,
        })
    }

    /// `lw rd, offset(rs1)`.
    pub fn lw(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.i(Instr::Load {
            kind: LoadKind::Word,
            rd,
            rs1,
            offset,
        })
    }

    /// `sw rs2, offset(rs1)`.
    pub fn sw(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.i(Instr::Store {
            kind: StoreKind::Word,
            rs1,
            rs2,
            offset,
        })
    }

    /// `lbu rd, offset(rs1)`.
    pub fn lbu(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.i(Instr::Load {
            kind: LoadKind::ByteU,
            rd,
            rs1,
            offset,
        })
    }

    /// `sb rs2, offset(rs1)`.
    pub fn sb(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.i(Instr::Store {
            kind: StoreKind::Byte,
            rs1,
            rs2,
            offset,
        })
    }

    /// `p.lw rd, offset(rs1!)`: post-increment word load (XpulpV2).
    pub fn p_lw_postinc(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.i(Instr::LoadPostInc {
            kind: LoadKind::Word,
            rd,
            rs1,
            offset,
        })
    }

    /// `p.sw rs2, offset(rs1!)`: post-increment word store (XpulpV2).
    pub fn p_sw_postinc(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.i(Instr::StorePostInc {
            kind: StoreKind::Word,
            rs1,
            rs2,
            offset,
        })
    }

    /// `p.sb rs2, offset(rs1!)`: post-increment byte store (XpulpV2).
    pub fn p_sb_postinc(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.i(Instr::StorePostInc {
            kind: StoreKind::Byte,
            rs1,
            rs2,
            offset,
        })
    }

    /// `pv.sdot<sign>.<fmt> rd, rs1, rs2`: sum-of-dot-products.
    pub fn pv_sdot(
        &mut self,
        fmt: SimdFmt,
        sign: DotSign,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    ) -> &mut Self {
        self.i(Instr::PvSdot {
            fmt,
            sign,
            rd,
            rs1,
            op2: SimdOperand::Vector(rs2),
        })
    }

    /// `pv.qnt.<fmt> rd, rs1, rs2`: hardware quantization (XpulpNN).
    pub fn pv_qnt(&mut self, fmt: SimdFmt, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.i(Instr::PvQnt { fmt, rd, rs1, rs2 })
    }

    // ----- vector (Xrvv) -----

    /// `vsetvli rd, rs1, <sew>`: configure the vector unit.
    pub fn vsetvli(&mut self, rd: Reg, rs1: Reg, sew: VecSew) -> &mut Self {
        self.i(Instr::VSetvli { rd, rs1, sew })
    }

    /// `vle.v vd, (rs1)`: unit-stride vector load.
    pub fn vle(&mut self, vd: VReg, rs1: Reg) -> &mut Self {
        self.i(Instr::VLoad { vd, rs1 })
    }

    /// `vse.v vs, (rs1)`: unit-stride vector store.
    pub fn vse(&mut self, vs: VReg, rs1: Reg) -> &mut Self {
        self.i(Instr::VStore { vs, rs1 })
    }

    /// `vlse.v vd, (rs1), rs2`: strided vector load.
    pub fn vlse(&mut self, vd: VReg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.i(Instr::VLoadStrided { vd, rs1, rs2 })
    }

    /// `vsse.v vs, (rs1), rs2`: strided vector store.
    pub fn vsse(&mut self, vs: VReg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.i(Instr::VStoreStrided { vs, rs1, rs2 })
    }

    /// `vdot<sign>.vv rd, vs1, vs2`: dot-product reduction into a
    /// scalar accumulator.
    pub fn vdot(&mut self, sign: DotSign, rd: Reg, vs1: VReg, vs2: VReg) -> &mut Self {
        self.i(Instr::VDot { sign, rd, vs1, vs2 })
    }

    /// `vqnt.<fmt>.v vd, rs1, vs2`: vectorized staircase quantization.
    pub fn vqnt(&mut self, fmt: SimdFmt, vd: VReg, rs1: Reg, vs2: VReg) -> &mut Self {
        self.i(Instr::VQnt { fmt, vd, rs1, vs2 })
    }

    /// `vslide1down.vx vd, vs2, rs1`: slide elements down one slot,
    /// filling the top from a scalar register.
    pub fn vslide1down(&mut self, vd: VReg, vs2: VReg, rs1: Reg) -> &mut Self {
        self.i(Instr::VSlide1 { vd, vs2, rs1 })
    }

    /// `vmv.x.s rd, vs2`: move element 0 to a scalar register.
    pub fn vmv_x_s(&mut self, rd: Reg, vs2: VReg) -> &mut Self {
        self.i(Instr::VMvXS { rd, vs2 })
    }

    // ----- control flow -----

    /// Conditional branch to a label.
    pub fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.reloc(
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset: 0,
            },
            target,
        )
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch(BranchCond::Eq, rs1, rs2, target)
    }

    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch(BranchCond::Ne, rs1, rs2, target)
    }

    /// `blt rs1, rs2, label`.
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch(BranchCond::Lt, rs1, rs2, target)
    }

    /// `bge rs1, rs2, label`.
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch(BranchCond::Ge, rs1, rs2, target)
    }

    /// `bltu rs1, rs2, label`.
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch(BranchCond::Ltu, rs1, rs2, target)
    }

    /// `j label`: unconditional jump.
    pub fn j(&mut self, target: &str) -> &mut Self {
        self.reloc(
            Instr::Jal {
                rd: Reg::Zero,
                offset: 0,
            },
            target,
        )
    }

    /// `jal label`: call, linking into `ra`.
    pub fn jal(&mut self, target: &str) -> &mut Self {
        self.reloc(
            Instr::Jal {
                rd: Reg::Ra,
                offset: 0,
            },
            target,
        )
    }

    /// Appends `instr` with its pc-relative operand (branch, jump or
    /// hardware-loop offset) resolved at assembly to `target`'s offset
    /// from the instruction.
    pub(crate) fn reloc(&mut self, instr: Instr, target: &str) -> &mut Self {
        self.items.push(Item::Reloc {
            instr,
            target: target.to_string(),
        });
        self
    }

    /// `ret` (`jalr zero, 0(ra)`).
    pub fn ret(&mut self) -> &mut Self {
        self.i(Instr::Jalr {
            rd: Reg::Zero,
            rs1: Reg::Ra,
            offset: 0,
        })
    }

    /// `ecall` — the SoC halt convention.
    pub fn ecall(&mut self) -> &mut Self {
        self.i(Instr::Ecall)
    }

    // ----- hardware loops -----

    /// `lp.starti l, label`.
    pub fn lp_starti(&mut self, l: LoopIdx, target: &str) -> &mut Self {
        self.reloc(Instr::LpStarti { l, offset: 0 }, target)
    }

    /// `lp.endi l, label` (the label marks the first instruction *after*
    /// the loop body, matching RI5CY's end-exclusive semantics).
    pub fn lp_endi(&mut self, l: LoopIdx, target: &str) -> &mut Self {
        self.reloc(Instr::LpEndi { l, offset: 0 }, target)
    }

    /// `lp.count l, rs1`.
    pub fn lp_count(&mut self, l: LoopIdx, rs1: Reg) -> &mut Self {
        self.i(Instr::LpCount { l, rs1 })
    }

    /// `lp.counti l, imm`.
    pub fn lp_counti(&mut self, l: LoopIdx, imm: u32) -> &mut Self {
        self.i(Instr::LpCounti { l, imm })
    }

    /// `lp.setup l, rs1, label`: one-instruction loop setup with a
    /// register trip count.
    pub fn lp_setup(&mut self, l: LoopIdx, rs1: Reg, target: &str) -> &mut Self {
        self.reloc(Instr::LpSetup { l, rs1, offset: 0 }, target)
    }

    /// `lp.setupi l, imm, label`: one-instruction loop setup with an
    /// immediate trip count (body limited to 62 bytes by the encoding).
    pub fn lp_setupi(&mut self, l: LoopIdx, imm: u32, target: &str) -> &mut Self {
        self.reloc(Instr::LpSetupi { l, imm, offset: 0 }, target)
    }

    /// Number of instruction words emitted so far.
    pub fn len_words(&self) -> u32 {
        self.items.iter().map(Item::size).sum()
    }

    /// Resolves labels and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] for undefined or duplicate labels, branch
    /// or loop targets out of encodable range, invalid instructions, or
    /// overlapping fixed-address data segments.
    pub fn assemble(&self) -> Result<Program, AsmError> {
        // Pass 1: lay out code and data, collecting label addresses.
        let mut symbols: BTreeMap<String, u32> = self.equs.clone();
        let mut addr = self.base;
        for item in &self.items {
            if let Item::Label(name) = item {
                if symbols.insert(name.clone(), addr).is_some() {
                    return Err(AsmError::DuplicateLabel(name.clone()));
                }
            }
            addr += item.size() * 4;
        }
        let code_end = addr;
        // Data segments: fixed-address first (checked for overlap with
        // code), then floating ones packed after the code, 16-byte
        // aligned.
        let mut data: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut float_addr = (code_end + 15) & !15;
        for (label, fixed, bytes) in &self.data {
            let at = match fixed {
                Some(a) => {
                    if *a < code_end && a + bytes.len() as u32 > self.base {
                        return Err(AsmError::DataOverlap {
                            label: label.clone(),
                            addr: *a,
                        });
                    }
                    *a
                }
                None => {
                    let a = float_addr;
                    float_addr = (a + bytes.len() as u32 + 15) & !15;
                    a
                }
            };
            if symbols.insert(label.clone(), at).is_some() {
                return Err(AsmError::DuplicateLabel(label.clone()));
            }
            data.push((at, bytes.clone()));
        }

        let lookup = |name: &str| -> Result<u32, AsmError> {
            symbols
                .get(name)
                .copied()
                .ok_or_else(|| AsmError::UndefinedLabel(name.to_string()))
        };

        // Pass 2: emit instructions with resolved offsets.
        let mut instrs: Vec<Instr> = Vec::with_capacity(self.items.len());
        let mut addr = self.base;
        for item in &self.items {
            match item {
                Item::Label(_) => {}
                Item::Fixed(instr) => {
                    instr.validate()?;
                    instrs.push(*instr);
                }
                Item::Reloc { instr, target } => {
                    let offset = lookup(target)? as i64 - addr as i64;
                    let mut instr = *instr;
                    let fits = instr.operands(|operand| match operand {
                        Operand::Imm(v, field) if field.pc_rel => {
                            v.set(offset);
                            if field.fits(offset) {
                                Ok(())
                            } else {
                                Err(())
                            }
                        }
                        _ => Ok(()),
                    });
                    if fits.is_err() {
                        let label = target.clone();
                        return Err(match instr {
                            Instr::Branch { .. } => AsmError::BranchRange { label, offset },
                            Instr::Jal { .. } => AsmError::JumpRange { label, offset },
                            _ => AsmError::LoopRange { label, offset },
                        });
                    }
                    instr.validate()?;
                    instrs.push(instr);
                }
                Item::La { rd, target } => {
                    let value = lookup(target)?;
                    let (hi, lo) = hi_lo(value);
                    instrs.push(Instr::Lui { rd: *rd, imm: hi });
                    instrs.push(Instr::AluImm {
                        op: AluOp::Add,
                        rd: *rd,
                        rs1: *rd,
                        imm: lo,
                    });
                }
            }
            addr += item.size() * 4;
        }

        let words = instrs.iter().map(encode).collect();
        Ok(Program {
            base: self.base,
            words,
            instrs,
            data,
            symbols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn li_small_and_large() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 5);
        a.li(Reg::A1, 0x1234_5678u32 as i32);
        a.li(Reg::A2, -1);
        a.li(Reg::A3, 0x8000_0000u32 as i32);
        a.li(Reg::A4, 0x1000); // lo == 0: single lui
        let p = a.assemble().unwrap();
        // 1 + 2 + 1 + 1 + 1 words (0x80000000 has lo 0 -> lui only).
        assert_eq!(p.instrs.len(), 6);
        assert_eq!(
            p.instrs[0],
            Instr::AluImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::Zero,
                imm: 5
            }
        );
    }

    /// Runs `li` through a tiny interpreter to confirm the hi/lo split.
    #[test]
    fn li_reconstructs_value() {
        for v in [
            0i32,
            5,
            -5,
            0x7ff,
            0x800,
            -2048,
            -2049,
            0x1234_5678,
            0x7fff_ffff,
            -0x8000_0000,
            0xdead_beefu32 as i32,
        ] {
            let mut a = Asm::new(0);
            a.li(Reg::A0, v);
            let p = a.assemble().unwrap();
            let mut reg: u32 = 0xaaaa_5555;
            for i in &p.instrs {
                match *i {
                    Instr::Lui { imm, .. } => reg = imm,
                    Instr::AluImm { imm, rs1, .. } => {
                        let src = if rs1 == Reg::Zero { 0 } else { reg };
                        reg = src.wrapping_add(imm as u32);
                    }
                    _ => unreachable!(),
                }
            }
            assert_eq!(reg, v as u32, "li {v:#x}");
        }
    }

    #[test]
    fn backward_and_forward_branches() {
        let mut a = Asm::new(0x100);
        a.label("top");
        a.addi(Reg::A0, Reg::A0, -1);
        a.bne(Reg::A0, Reg::Zero, "top"); // backward
        a.beq(Reg::A0, Reg::Zero, "done"); // forward
        a.nop();
        a.label("done");
        a.ecall();
        let p = a.assemble().unwrap();
        match p.instrs[1] {
            Instr::Branch { offset, .. } => assert_eq!(offset, -4),
            ref other => panic!("expected branch, got {other}"),
        }
        match p.instrs[2] {
            Instr::Branch { offset, .. } => assert_eq!(offset, 8),
            ref other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn undefined_and_duplicate_labels_error() {
        let mut a = Asm::new(0);
        a.j("nowhere");
        assert_eq!(
            a.assemble(),
            Err(AsmError::UndefinedLabel("nowhere".into()))
        );

        let mut a = Asm::new(0);
        a.label("x");
        a.nop();
        a.label("x");
        assert_eq!(a.assemble(), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn branch_out_of_range_errors() {
        let mut a = Asm::new(0);
        a.beq(Reg::A0, Reg::A0, "far");
        for _ in 0..2000 {
            a.nop();
        }
        a.label("far");
        a.ecall();
        assert!(matches!(a.assemble(), Err(AsmError::BranchRange { .. })));
    }

    #[test]
    fn hardware_loop_label_resolution() {
        let mut a = Asm::new(0x1c00_0000);
        a.li(Reg::T0, 8);
        a.lp_setup(LoopIdx::L0, Reg::T0, "end");
        a.label("body");
        a.addi(Reg::A0, Reg::A0, 1);
        a.addi(Reg::A1, Reg::A1, 2);
        a.label("end");
        a.ecall();
        let p = a.assemble().unwrap();
        match p.instrs[1] {
            Instr::LpSetup { offset, .. } => assert_eq!(offset, 12),
            ref other => panic!("expected lp.setup, got {other}"),
        }
        // lp.setupi body too large -> error
        let mut a = Asm::new(0);
        a.lp_setupi(LoopIdx::L0, 4, "end");
        for _ in 0..17 {
            a.nop();
        }
        a.label("end");
        assert!(matches!(a.assemble(), Err(AsmError::LoopRange { .. })));
    }

    #[test]
    fn la_resolves_data_and_equ_symbols() {
        let mut a = Asm::new(0x1c00_8000);
        a.equ("buffer", 0x1c01_0000);
        a.la(Reg::A0, "buffer");
        a.la(Reg::A1, "table");
        a.ecall();
        a.data_words("table", &[1, 2, 3]);
        let p = a.assemble().unwrap();
        assert_eq!(p.symbol("buffer"), Some(0x1c01_0000));
        let table = p.symbol("table").unwrap();
        assert!(table >= p.base + p.code_size());
        assert_eq!(table % 16, 0);
        assert_eq!(p.data[0].0, table);
        assert_eq!(p.data[0].1, vec![1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]);
    }

    #[test]
    fn fixed_data_overlapping_code_errors() {
        let mut a = Asm::new(0x100);
        a.nop();
        a.data_bytes_at("bad", 0x100, vec![0u8; 4]);
        assert!(matches!(a.assemble(), Err(AsmError::DataOverlap { .. })));
    }

    #[test]
    fn validate_errors_propagate() {
        let mut a = Asm::new(0);
        a.i(Instr::PvQnt {
            fmt: SimdFmt::Byte,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        });
        assert!(matches!(a.assemble(), Err(AsmError::Validate(_))));
    }

    #[test]
    fn len_words_tracks_pseudo_instruction_expansion() {
        let mut a = Asm::new(0);
        assert_eq!(a.len_words(), 0);
        a.la(Reg::A0, "x");
        assert_eq!(a.len_words(), 2);
        a.label("x");
        assert_eq!(a.len_words(), 2);
        a.nop();
        assert_eq!(a.len_words(), 3);
    }
}
