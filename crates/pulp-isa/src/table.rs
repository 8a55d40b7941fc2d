//! The ISA table: every field code, mnemonic and operand field of the
//! encoding, declared once.
//!
//! Each op enum is one `op_table!` block with one row per variant
//! (`Variant = code, "mnemonic";`); the enum, its `ALL` list, `code()`,
//! the O(1) `from_code()`, `mnemonic()`, `from_mnemonic()` and `Display`
//! are generated from the rows. Each operand field is one [`Field`]
//! declaration (bit position, width, sign, scale, alignment) that packs,
//! unpacks and range-checks it. [`crate::encode`], [`crate::decode`],
//! [`Instr`](crate::Instr)'s `Display` and `validate`, and the text
//! parser in `pulp-asm` are all written over these declarations.
//!
//! Base RV32IM instructions use the standard RISC-V encodings. The
//! XpulpV2/XpulpNN extensions use a documented, self-consistent encoding
//! inspired by RI5CY's custom opcode assignments (the upstream bit layouts
//! were never frozen as a ratified standard):
//!
//! | major opcode | use |
//! |---|---|
//! | `0x0b` (custom-0) | post-increment / register-offset loads |
//! | `0x2b` (custom-1) | post-increment stores |
//! | `0x5b` (custom-2) | bit-field extract/insert (`p.extract*`, `p.insert`) |
//! | `0x7b` (custom-3) | hardware loops (`lp.*`) |
//! | `0x57` | packed SIMD (`pv.*`), all four lane formats |
//! | `0x33` + funct7 ≥ `0x08` | scalar `p.*` ALU ops (min/max/abs/clip/mac/…) |
//!
//! The SIMD encoding at opcode `0x57` packs:
//!
//! ```text
//! 31      27 26  25 24   20 19   15 14    12 11   7 6      0
//! [ op5     ][fmt2 ][rs2/im][ rs1   ][ mode3  ][ rd   ][0x57  ]
//! ```
//!
//! `mode3` is `000` for register-register, `100` for `.sc`, and `11i` for
//! `.sci` where `i` is bit 5 of the 6-bit immediate (the low 5 bits live
//! in the `rs2` field). Because `.sci` needs those mode bits, there is no
//! room left to express it together with every format — mirroring the
//! paper's observation (§III-A) that the immediate variant was dropped
//! for nibble/crumb operands.
//!
//! Three oracles stay independent of this table: the literal GNU-as
//! words in `encode`'s `standard_encodings_match_riscv_spec`, the
//! every-form listing `pulp-asm/tests/golden/every_op.lst`, and the
//! kernel listings in `pulp-kernels/tests/golden`.

use crate::instr::ValidateError;
use std::fmt;

/// Declares an op enum from one row per variant:
/// `Variant = code, "mnemonic";`. The header gives the code's width in
/// bits, which sizes the `from_code` lookup array.
macro_rules! op_table {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $bits:literal bits {
            $( $(#[$vmeta:meta])* $var:ident = $code:expr, $mn:literal; )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis enum $name {
            $( $(#[$vmeta])* $var, )+
        }

        #[allow(dead_code)]
        impl $name {
            /// Every variant, in table order.
            pub const ALL: [$name; [$($mn),+].len()] = [$($name::$var),+];

            /// The variant's code in its encoding field.
            #[inline]
            pub const fn code(self) -> u32 {
                match self {
                    $($name::$var => $code,)+
                }
            }

            /// The variant with code `code`: one array index, `None` for
            /// an unassigned code.
            #[inline]
            pub const fn from_code(code: u32) -> Option<$name> {
                const BY_CODE: [Option<$name>; 1 << $bits] = {
                    let mut by_code = [None; 1 << $bits];
                    let mut i = 0;
                    while i < $name::ALL.len() {
                        let c = $name::ALL[i].code() as usize;
                        assert!(by_code[c].is_none(), "two rows share a code");
                        by_code[c] = Some($name::ALL[i]);
                        i += 1;
                    }
                    by_code
                };
                if (code as usize) < BY_CODE.len() {
                    BY_CODE[code as usize]
                } else {
                    None
                }
            }

            /// The assembly mnemonic (or mnemonic fragment).
            pub const fn mnemonic(self) -> &'static str {
                match self {
                    $($name::$var => $mn,)+
                }
            }

            /// Inverse of [`Self::mnemonic`].
            pub fn from_mnemonic(s: &str) -> Option<$name> {
                $name::ALL.into_iter().find(|v| v.mnemonic() == s)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.mnemonic())
            }
        }
    };
}

/// A `funct7_funct3` code: both fields of an R-type word, read as one
/// value by [`FUNCT10`].
const fn funct10(funct7: u32, funct3: u32) -> u32 {
    funct7 << 3 | funct3
}

/// Major opcodes (bits 6:0).
pub mod opcode {
    /// RV32I LUI.
    pub const LUI: u32 = 0x37;
    /// RV32I AUIPC.
    pub const AUIPC: u32 = 0x17;
    /// RV32I JAL.
    pub const JAL: u32 = 0x6f;
    /// RV32I JALR.
    pub const JALR: u32 = 0x67;
    /// RV32I conditional branches.
    pub const BRANCH: u32 = 0x63;
    /// RV32I loads.
    pub const LOAD: u32 = 0x03;
    /// RV32I stores.
    pub const STORE: u32 = 0x23;
    /// RV32I register-immediate ALU.
    pub const OP_IMM: u32 = 0x13;
    /// RV32I register-register ALU (and RV32M, and scalar `p.*`).
    pub const OP: u32 = 0x33;
    /// RV32I FENCE.
    pub const MISC_MEM: u32 = 0x0f;
    /// RV32I SYSTEM (ecall/ebreak/CSR).
    pub const SYSTEM: u32 = 0x73;
    /// XpulpV2 post-increment loads (custom-0).
    pub const PULP_LOAD: u32 = 0x0b;
    /// XpulpV2 post-increment stores (custom-1).
    pub const PULP_STORE: u32 = 0x2b;
    /// XpulpV2 bit-field ops (custom-2).
    pub const PULP_BITFIELD: u32 = 0x5b;
    /// XpulpV2 hardware loops (custom-3).
    pub const PULP_HWLOOP: u32 = 0x7b;
    /// XpulpV2/XpulpNN packed SIMD, plus the Xrvv vector ops at
    /// `op5 >= 26` (the packed-SIMD ops end at `shuffle2 = 25`). This is
    /// the standard RVV OP-V major opcode, so the co-location is also
    /// faithful to real encodings.
    pub const PULP_SIMD: u32 = 0x57;
    /// Xrvv vector loads (the otherwise-unused LOAD-FP major opcode,
    /// where RVV puts its loads).
    pub const VEC_LOAD: u32 = 0x07;
    /// Xrvv vector stores (STORE-FP, likewise).
    pub const VEC_STORE: u32 = 0x27;
}

// ----- op enums: one row per variant -----

op_table! {
    /// Condition of a conditional branch; the code is funct3.
    pub enum BranchCond: 3 bits {
        /// `beq`: branch if equal.
        Eq = 0b000, "beq";
        /// `bne`: branch if not equal.
        Ne = 0b001, "bne";
        /// `blt`: branch if less than (signed).
        Lt = 0b100, "blt";
        /// `bge`: branch if greater or equal (signed).
        Ge = 0b101, "bge";
        /// `bltu`: branch if less than (unsigned).
        Ltu = 0b110, "bltu";
        /// `bgeu`: branch if greater or equal (unsigned).
        Geu = 0b111, "bgeu";
    }
}

op_table! {
    /// Width/signedness of a load; the code is funct3. The
    /// register-offset forms (`p.l* rd, rs2(rs1[!])`) put the row's
    /// position in [`LoadKind::ALL`] in funct7\[2:0\] instead.
    pub enum LoadKind: 3 bits {
        /// `lb`: sign-extended byte.
        Byte = 0b000, "lb";
        /// `lh`: sign-extended half-word.
        Half = 0b001, "lh";
        /// `lw`: word.
        Word = 0b010, "lw";
        /// `lbu`: zero-extended byte.
        ByteU = 0b100, "lbu";
        /// `lhu`: zero-extended half-word.
        HalfU = 0b101, "lhu";
    }
}

op_table! {
    /// Width of a store; the code is funct3 (and funct7\[1:0\] in the
    /// register-increment form).
    pub enum StoreKind: 3 bits {
        /// `sb`: byte.
        Byte = 0b000, "sb";
        /// `sh`: half-word.
        Half = 0b001, "sh";
        /// `sw`: word.
        Word = 0b010, "sw";
    }
}

op_table! {
    /// Register-register ALU operation (RV32I `OP` major opcode). The
    /// code is `funct7_funct3` ([`FUNCT10`]); the `OP-IMM` forms use its
    /// funct3 and, for shifts, its funct7.
    pub enum AluOp: 10 bits {
        /// Addition.
        Add = funct10(0x00, 0b000), "add";
        /// Subtraction.
        Sub = funct10(0x20, 0b000), "sub";
        /// Shift left logical.
        Sll = funct10(0x00, 0b001), "sll";
        /// Set if less than (signed).
        Slt = funct10(0x00, 0b010), "slt";
        /// Set if less than (unsigned).
        Sltu = funct10(0x00, 0b011), "sltu";
        /// Bitwise exclusive or.
        Xor = funct10(0x00, 0b100), "xor";
        /// Shift right logical.
        Srl = funct10(0x00, 0b101), "srl";
        /// Shift right arithmetic.
        Sra = funct10(0x20, 0b101), "sra";
        /// Bitwise or.
        Or = funct10(0x00, 0b110), "or";
        /// Bitwise and.
        And = funct10(0x00, 0b111), "and";
    }
}

op_table! {
    /// RV32M multiply/divide operation; the code is `funct7_funct3`.
    pub enum MulDivOp: 10 bits {
        /// Low 32 bits of the product.
        Mul = funct10(0x01, 0b000), "mul";
        /// High 32 bits of signed × signed.
        Mulh = funct10(0x01, 0b001), "mulh";
        /// High 32 bits of signed × unsigned.
        Mulhsu = funct10(0x01, 0b010), "mulhsu";
        /// High 32 bits of unsigned × unsigned.
        Mulhu = funct10(0x01, 0b011), "mulhu";
        /// Signed division.
        Div = funct10(0x01, 0b100), "div";
        /// Unsigned division.
        Divu = funct10(0x01, 0b101), "divu";
        /// Signed remainder.
        Rem = funct10(0x01, 0b110), "rem";
        /// Unsigned remainder.
        Remu = funct10(0x01, 0b111), "remu";
    }
}

op_table! {
    /// XpulpV2 scalar ALU operation (`p.*`); the code is `funct7_funct3`
    /// in the funct7 blocks `0x08`–`0x0a` of the `OP` major opcode.
    pub enum PulpAluOp: 10 bits {
        /// `p.min`: signed minimum.
        Min = funct10(0x08, 0b000), "p.min";
        /// `p.minu`: unsigned minimum.
        Minu = funct10(0x08, 0b001), "p.minu";
        /// `p.max`: signed maximum.
        Max = funct10(0x08, 0b010), "p.max";
        /// `p.maxu`: unsigned maximum.
        Maxu = funct10(0x08, 0b011), "p.maxu";
        /// `p.abs`: absolute value (rs2 ignored).
        Abs = funct10(0x08, 0b100), "p.abs";
        /// `p.exths`: sign-extend half-word (rs2 ignored).
        Exths = funct10(0x09, 0b110), "p.exths";
        /// `p.exthz`: zero-extend half-word (rs2 ignored).
        Exthz = funct10(0x09, 0b111), "p.exthz";
        /// `p.extbs`: sign-extend byte (rs2 ignored).
        Extbs = funct10(0x0a, 0b000), "p.extbs";
        /// `p.extbz`: zero-extend byte (rs2 ignored).
        Extbz = funct10(0x0a, 0b001), "p.extbz";
    }
}

op_table! {
    /// XpulpV2 single-operand bit-counting operation; the code is
    /// `funct7_funct3`.
    pub enum BitOp: 10 bits {
        /// `p.ff1`: index of the first (least significant) set bit, 32 if none.
        Ff1 = funct10(0x09, 0b010), "p.ff1";
        /// `p.fl1`: index of the last (most significant) set bit, 32 if none.
        Fl1 = funct10(0x09, 0b011), "p.fl1";
        /// `p.cnt`: population count.
        Cnt = funct10(0x09, 0b100), "p.cnt";
        /// `p.clb`: count leading bits equal to the sign bit (minus one).
        Clb = funct10(0x09, 0b101), "p.clb";
    }
}

op_table! {
    /// Element-wise `pv.*` SIMD operation (everything except dot products,
    /// `pv.extract`/`pv.insert` and `pv.qnt`). The code is op5; the
    /// mnemonic is the stem between `pv.` and the mode/format suffix.
    pub enum SimdAluOp: 5 bits {
        /// `pv.add`: lane-wise addition.
        Add = 0, "add";
        /// `pv.sub`: lane-wise subtraction.
        Sub = 1, "sub";
        /// `pv.avg`: lane-wise signed average `(a+b)>>1`.
        Avg = 2, "avg";
        /// `pv.avgu`: lane-wise unsigned average.
        Avgu = 3, "avgu";
        /// `pv.min`: lane-wise signed minimum.
        Min = 4, "min";
        /// `pv.minu`: lane-wise unsigned minimum.
        Minu = 5, "minu";
        /// `pv.max`: lane-wise signed maximum.
        Max = 6, "max";
        /// `pv.maxu`: lane-wise unsigned maximum.
        Maxu = 7, "maxu";
        /// `pv.srl`: lane-wise logical shift right.
        Srl = 8, "srl";
        /// `pv.sra`: lane-wise arithmetic shift right.
        Sra = 9, "sra";
        /// `pv.sll`: lane-wise shift left.
        Sll = 10, "sll";
        /// `pv.or`: lane-wise (equivalently bit-wise) or.
        Or = 11, "or";
        /// `pv.and`: lane-wise and.
        And = 12, "and";
        /// `pv.xor`: lane-wise exclusive or.
        Xor = 13, "xor";
    }
}

op_table! {
    /// Operand signedness of a dot-product style instruction.
    ///
    /// The XpulpV2/XpulpNN dot products come in three flavours, matching
    /// Table II of the paper (`dotup`, `dotusp`, `dotsp`). The mnemonic
    /// is the infix; the code is added to the op5 of the `dot`/`sdot`
    /// family (`pv.dot*`, `pv.sdot*`) and is funct3 of `vdot*.vv`.
    pub enum DotSign: 2 bits {
        /// `*up`: both vectors are interpreted as unsigned.
        UnsignedUnsigned = 0, "up";
        /// `*usp`: `rs1` unsigned, `rs2` signed.
        UnsignedSigned = 1, "usp";
        /// `*sp`: both vectors are interpreted as signed.
        SignedSigned = 2, "sp";
    }
}

op_table! {
    /// Lane format of a packed-SIMD operation; the code is fmt2 and the
    /// mnemonic is the format suffix.
    pub enum SimdFmt: 2 bits {
        /// Two 16-bit lanes (`.h`), part of XpulpV2.
        Half = 0b00, "h";
        /// Four 8-bit lanes (`.b`), part of XpulpV2.
        Byte = 0b01, "b";
        /// Eight 4-bit lanes (`.n`), part of XpulpNN.
        Nibble = 0b10, "n";
        /// Sixteen 2-bit lanes (`.c`), part of XpulpNN.
        Crumb = 0b11, "c";
    }
}

op_table! {
    /// Selected element width (SEW) of the vector unit; the code sits in
    /// the fmt2 slot of `vsetvli`.
    ///
    /// The standard RVV minimum is 8 bits; the sub-byte widths are this
    /// model's extension (Quark's central idea), packing 2- or 4-bit
    /// elements contiguously so a VLEN=128 register holds 64 four-bit or
    /// 128 two-bit elements.
    pub enum VecSew: 2 bits {
        /// 2-bit elements (sub-byte extension).
        E2 = 0, "e2";
        /// 4-bit elements (sub-byte extension).
        E4 = 1, "e4";
        /// 8-bit elements.
        E8 = 2, "e8";
        /// 16-bit elements.
        E16 = 3, "e16";
    }
}

// ----- instruction-selector tables for the forms without an op enum -----

op_table! {
    /// Fixed scalar ops in the `p.*` funct7 blocks; the code is
    /// `funct7_funct3`.
    pub(crate) enum ScalarOp: 10 bits {
        Clip = funct10(0x08, 0b101), "p.clip";
        ClipU = funct10(0x08, 0b110), "p.clipu";
        Mac = funct10(0x09, 0b000), "p.mac";
        Msu = funct10(0x09, 0b001), "p.msu";
    }
}

op_table! {
    /// Bit-field ops at `PULP_BITFIELD`; the code is funct3.
    pub(crate) enum BitfieldOp: 3 bits {
        Extract = 0, "p.extract";
        ExtractU = 1, "p.extractu";
        Insert = 2, "p.insert";
    }
}

op_table! {
    /// Hardware-loop ops at `PULP_HWLOOP`; the code is funct3.
    pub(crate) enum LoopOp: 3 bits {
        Starti = 0, "lp.starti";
        Endi = 1, "lp.endi";
        Count = 2, "lp.count";
        Counti = 3, "lp.counti";
        Setup = 4, "lp.setup";
        Setupi = 5, "lp.setupi";
    }
}

op_table! {
    /// CSR access ops at `SYSTEM`; the code is funct3 and the row's
    /// position is `Instr::Csr`'s `op`.
    pub(crate) enum CsrOp: 3 bits {
        Rw = 1, "csrrw";
        Rs = 2, "csrrs";
        Rc = 3, "csrrc";
    }
}

op_table! {
    /// The op5 values of `PULP_SIMD` besides [`SimdAluOp`]'s. `dot` and
    /// `sdot` take three codes each: the base plus the [`DotSign`] code.
    /// The Xrvv vector ops start at `vsetvli`.
    pub(crate) enum SimdOp: 5 bits {
        Abs = 14, "abs";
        Extract = 15, "extract";
        ExtractU = 16, "extractu";
        Insert = 17, "insert";
        Dot = 18, "dot";
        Sdot = 21, "sdot";
        Qnt = 24, "qnt";
        Shuffle2 = 25, "shuffle2";
        Vsetvli = 26, "vsetvli";
        Vdot = 27, "vdot";
        Vqnt = 28, "vqnt";
        Vslide1down = 29, "vslide1down.vx";
        VmvXS = 30, "vmv.x.s";
    }
}

// ----- operand fields -----

/// One operand field of the encoding: where its bits sit in the word
/// and which values it can hold.
///
/// A value is packed by subtracting the bias and scattering bit runs
/// (`segs`: `(value_lsb, width, word_lsb)`) into the word. Value bits
/// below the lowest run must be zero (the field's alignment); the
/// highest run bounds the range, sign-extended when `signed`.
#[derive(Debug)]
pub struct Field {
    /// Name used in range errors.
    pub name: &'static str,
    segs: &'static [(u32, u32, u32)],
    /// `(lowest, one past highest)` value bit the runs cover.
    span: (u32, u32),
    signed: bool,
    bias: i64,
    /// `Some(s)`: written in hex as `value >> s`; `None`: decimal.
    pub hex_shift: Option<u32>,
    /// A pc-relative offset: the assembler also takes a label here.
    pub pc_rel: bool,
}

impl Field {
    const fn new(name: &'static str, segs: &'static [(u32, u32, u32)]) -> Field {
        let (mut lo, mut hi, mut i) = (u32::MAX, 0, 0);
        while i < segs.len() {
            let (lsb, width, _) = segs[i];
            lo = if lsb < lo { lsb } else { lo };
            hi = if lsb + width > hi { lsb + width } else { hi };
            i += 1;
        }
        Field {
            name,
            segs,
            span: (lo, hi),
            signed: false,
            bias: 0,
            hex_shift: None,
            pc_rel: false,
        }
    }

    const fn signed(self) -> Field {
        Field {
            signed: true,
            ..self
        }
    }

    const fn bias(self, bias: i64) -> Field {
        Field { bias, ..self }
    }

    const fn hex(self, shift: u32) -> Field {
        Field {
            hex_shift: Some(shift),
            ..self
        }
    }

    const fn pc_rel(self) -> Field {
        Field {
            pc_rel: true,
            ..self
        }
    }

    /// Places `v` in the word; bits the field cannot hold are dropped.
    #[inline]
    pub fn pack(&self, v: impl Into<i64>) -> u32 {
        let u = (v.into() - self.bias) as u64;
        let mut out = 0;
        for &(lsb, width, at) in self.segs {
            out |= (((u >> lsb) & ((1 << width) - 1)) as u32) << at;
        }
        out
    }

    /// Reads the field's value out of `word`.
    #[inline(always)]
    pub const fn unpack(&self, word: u32) -> i64 {
        let (mut u, mut i) = (0u64, 0);
        while i < self.segs.len() {
            let (lsb, width, at) = self.segs[i];
            u |= (((word >> at) & ((1 << width) - 1)) as u64) << lsb;
            i += 1;
        }
        let hi = self.span.1;
        let s = if self.signed {
            ((u << (64 - hi)) as i64) >> (64 - hi)
        } else {
            u as i64
        };
        s + self.bias
    }

    /// Whether the field holds `v` exactly.
    pub const fn fits(&self, v: i64) -> bool {
        let (lo, hi) = self.span;
        let Some(u) = v.checked_sub(self.bias) else {
            return false;
        };
        let (min, max) = if self.signed {
            (-(1 << (hi - 1)), (1 << (hi - 1)) - 1)
        } else {
            (0, (1 << hi) - 1)
        };
        min <= u && u <= max && u & ((1 << lo) - 1) == 0
    }

    /// [`Field::fits`] as a [`ValidateError::ImmRange`] naming the field.
    pub fn check(&self, v: i64) -> Result<(), ValidateError> {
        if self.fits(v) {
            Ok(())
        } else {
            Err(ValidateError::ImmRange {
                what: self.name,
                value: v,
            })
        }
    }
}

/// Major opcode, bits 6:0.
pub const OPCODE: Field = Field::new("opcode", &[(0, 7, 0)]);
/// Destination register (and `vd`/`vs` of the vector ops).
pub const RD: Field = Field::new("rd", &[(0, 5, 7)]);
/// First source register (and `vs1`).
pub const RS1: Field = Field::new("rs1", &[(0, 5, 15)]);
/// Second source register (and `vs2`).
pub const RS2: Field = Field::new("rs2", &[(0, 5, 20)]);
/// Third source register of `p.s* rs2, rs3(rs1!)`: funct7\[6:2\].
pub const RS3: Field = Field::new("rs3", &[(0, 5, 27)]);
/// funct3, bits 14:12 (the SIMD `mode3`).
pub const FUNCT3: Field = Field::new("funct3", &[(0, 3, 12)]);
/// funct7, bits 31:25.
pub const FUNCT7: Field = Field::new("funct7", &[(0, 7, 25)]);
/// funct7 and funct3 read as one `funct7_funct3` code.
pub const FUNCT10: Field = Field::new("funct10", &[(0, 3, 12), (3, 7, 25)]);
/// I-type immediate.
pub const I_IMM: Field = Field::new("I-immediate", &[(0, 12, 20)]).signed();
/// S-type immediate.
pub const S_IMM: Field = Field::new("S-immediate", &[(0, 5, 7), (5, 7, 25)]).signed();
/// B-type branch offset (bytes, even).
pub const B_IMM: Field = Field::new(
    "branch offset",
    &[(1, 4, 8), (5, 6, 25), (11, 1, 7), (12, 1, 31)],
)
.signed()
.pc_rel();
/// J-type jump offset (bytes, even).
pub const J_IMM: Field = Field::new(
    "jump offset",
    &[(1, 10, 21), (11, 1, 20), (12, 8, 12), (20, 1, 31)],
)
.signed()
.pc_rel();
/// U-type immediate, held shifted (low 12 bits zero), written `imm >> 12`.
pub const U_IMM: Field = Field::new("U-immediate", &[(12, 20, 12)]).hex(12);
/// Shift amount of `slli`/`srli`/`srai`.
pub const SHAMT: Field = Field::new("shift amount", &[(0, 5, 20)]);
/// CSR number.
pub const CSR: Field = Field::new("csr", &[(0, 12, 20)]).hex(0);
/// `p.clip`/`p.clipu` bit count.
pub const CLIP: Field = Field::new("clip bits", &[(0, 5, 20)]);
/// Bit-field length, stored as `len - 1`.
pub const BF_LEN: Field = Field::new("bit-field length", &[(0, 5, 25)]).bias(1);
/// Bit-field offset.
pub const BF_OFF: Field = Field::new("bit-field offset", &[(0, 5, 20)]);
/// Hardware-loop index (`x0`/`x1`).
pub const LOOP_IDX: Field = Field::new("loop index", &[(0, 1, 7)]);
/// `lp.starti`/`lp.endi`/`lp.setup` offset (bytes, even).
pub const LOOP_OFF: Field = Field::new("loop offset", &[(1, 12, 20)]).signed().pc_rel();
/// `lp.setupi` end offset, in the rs1 slot (bytes, even).
pub const SETUPI_OFF: Field = Field::new("lp.setupi offset", &[(1, 5, 15)]).pc_rel();
/// Hardware-loop trip count of `lp.counti`/`lp.setupi`.
pub const LOOP_COUNT: Field = Field::new("loop count", &[(0, 12, 20)]);
/// SIMD op5.
pub const OP5: Field = Field::new("op5", &[(0, 5, 27)]);
/// SIMD lane format (and `vsetvli`'s SEW).
pub const FMT2: Field = Field::new("fmt2", &[(0, 2, 25)]);
/// `.sci` immediate: low 5 bits in the rs2 slot, bit 5 in mode3\[0\].
pub const SCI: Field = Field::new("sci", &[(0, 5, 20), (5, 1, 12)]).signed();
/// Lane index of `pv.extract*`/`pv.insert`, in the rs2 slot.
pub const LANE: Field = Field::new("lane index", &[(0, 5, 20)]);

/// SIMD `mode3` of the register-register form.
pub(crate) const MODE_VECTOR: u32 = 0b000;
/// SIMD `mode3` of the `.sc` form.
pub(crate) const MODE_SCALAR: u32 = 0b100;
/// SIMD `mode3` of the `.sci` form, before the immediate's bit 5.
pub(crate) const MODE_IMM: u32 = 0b110;
/// funct3 of the register forms of `p.l*`/`p.s*`.
pub(crate) const REG_FORM: u32 = 0b111;
/// funct3 of the unit-stride vector loads/stores.
pub(crate) const UNIT_STRIDE: u32 = 0b000;
/// funct3 of the strided vector loads/stores.
pub(crate) const STRIDED: u32 = 0b010;
/// funct7 bit of `p.l* rd, rs2(rs1)` (no post-increment).
pub(crate) const REG_OFFSET: u32 = 0x08;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_their_extremes() {
        for f in [&I_IMM, &S_IMM, &B_IMM, &J_IMM, &LOOP_OFF, &SCI] {
            let (lo, hi) = f.span;
            for v in [-(1i64 << (hi - 1)), (1 << (hi - 1)) - (1 << lo), 0] {
                assert!(f.fits(v), "{} {v}", f.name);
                assert_eq!(f.unpack(f.pack(v)), v, "{} {v}", f.name);
            }
            assert!(!f.fits(1 << (hi - 1)), "{}", f.name);
            assert!(lo == 0 || !f.fits(1 << (lo - 1)), "{}", f.name);
        }
        assert!(BF_LEN.fits(32) && BF_LEN.fits(1) && !BF_LEN.fits(0) && !BF_LEN.fits(33));
        assert_eq!(BF_LEN.unpack(BF_LEN.pack(32)), 32);
        assert!(U_IMM.fits(0xffff_f000) && !U_IMM.fits(0x1_0000_0000) && !U_IMM.fits(0x800));
    }

    #[test]
    fn codes_invert_in_one_lookup() {
        for op in AluOp::ALL {
            assert_eq!(AluOp::from_code(op.code()), Some(op));
            assert_eq!(AluOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(LoadKind::from_code(0b011), None);
        assert_eq!(SimdFmt::from_code(4), None);
        assert_eq!(DotSign::from_code(3), None);
    }
}
