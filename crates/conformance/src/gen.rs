//! Seeded generation of legal, terminating RV32IMC+XpulpV2+XpulpNN
//! programs, and their lowering to a byte image.
//!
//! Programs are built from an item IR ([`Item`]) rather than raw
//! instruction lists so that every program is terminating *by
//! construction*:
//!
//! * control flow only ever skips **forward** over whole items
//!   (conditional branch, `jal`, `auipc`+`jalr`), never backward;
//! * hardware loops carry a bounded iteration count and a body with no
//!   control flow of its own (one level of nesting, `lp1` outer /
//!   `lp0` inner, as RI5CY prescribes);
//! * memory accesses re-materialize their base register immediately
//!   before the access, so every address provably lands in the data
//!   segment; `pv.qnt` bases point at well-formed Eytzinger threshold
//!   trees in that segment.
//!
//! Lowering ([`lower`]) turns the item list into bytes, compressing
//! every instruction RVC can express (so 16-bit parcels and misaligned
//! 32-bit fetches get differential coverage for free) and resolving
//! branch/loop offsets from the actual encoded sizes. The same item
//! structure is what the shrinker mutates: dropping an item can never
//! produce an out-of-range offset because offsets only exist after
//! lowering.

use pulp_isa::compressed::compress;
use pulp_isa::encode::encode;
use pulp_isa::instr::{
    AluOp, BitOp, BranchCond, Instr, LoadKind, LoopIdx, MulDivOp, PulpAluOp, SimdAluOp,
    SimdOperand, StoreKind,
};
use pulp_isa::reg::{Reg, ALL_REGS};
use pulp_isa::simd::{DotSign, SimdFmt};
use pulp_isa::vec::{VReg, VecSew, ALL_SEWS};
use xrand::Rng;

/// Base address of the code segment (also the PC reset value).
pub const CODE_BASE: u32 = 0x0001_0000;
/// Base address of the data segment (threshold trees + scratch bytes).
pub const DATA_BASE: u32 = 0x0001_2000;
/// Size of the data segment in bytes.
pub const DATA_LEN: u32 = 0x400;
/// Total size of the memory image mapped at [`CODE_BASE`].
pub const MEM_LEN: u32 = (DATA_BASE - CODE_BASE) + DATA_LEN;

/// Knobs for the program generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum number of top-level items per program (minimum 3 are
    /// always generated).
    pub max_items: usize,
    /// Mix Xrvv vector instructions into the stream (`vsetvli`, the
    /// unit/strided loads and stores, `vdot*`, `vqnt.*.v`,
    /// `vslide1down`, `vmv.x.s`). The differential harness locks both
    /// cores to the reference VLEN when this is set.
    pub vector: bool,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_items: 28,
            vector: false,
        }
    }
}

impl GenConfig {
    /// The vector-mode generator: everything the default mode emits
    /// plus the Xrvv vector-unit instructions.
    pub fn vector() -> GenConfig {
        GenConfig {
            vector: true,
            ..GenConfig::default()
        }
    }
}

/// One generated program: the item IR plus the data-segment image.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Seed this program was generated from (for replay messages).
    pub seed: u64,
    /// Top-level items, lowered in order followed by a final `ecall`.
    pub items: Vec<Item>,
    /// Data-segment image mapped at [`DATA_BASE`], [`DATA_LEN`] bytes.
    pub data: Vec<u8>,
    /// True when the program may contain Xrvv vector instructions; the
    /// differential harness enables the DUT's vector unit (at the
    /// reference VLEN) for such programs. The shrinker preserves it.
    pub vector: bool,
}

/// One unit of generated program structure.
///
/// Control transfers record how many *following top-level items* they
/// skip; byte offsets are resolved during [`lower`].
#[derive(Debug, Clone)]
pub enum Item {
    /// A single computational instruction (no memory, no control flow).
    Straight(Instr),
    /// A memory access (or `pv.qnt`) plus the setup instructions that
    /// materialize its base/index/value registers right before it.
    Mem {
        /// Register-materialization instructions (`lui`+`addi` pairs).
        setup: Vec<Instr>,
        /// The access itself.
        access: Instr,
    },
    /// A conditional branch forward over the next `skip` items.
    BranchOver {
        /// Branch condition.
        cond: BranchCond,
        /// Left comparison operand.
        rs1: Reg,
        /// Right comparison operand.
        rs2: Reg,
        /// Items skipped when taken.
        skip: usize,
    },
    /// An unconditional `jal` forward over the next `skip` items.
    JumpOver {
        /// Link register.
        rd: Reg,
        /// Items skipped.
        skip: usize,
    },
    /// An `auipc`+`jalr` pair jumping forward over the next `skip` items.
    JalrOver {
        /// Link register of the `jalr`.
        rd: Reg,
        /// Scratch register holding the `auipc` value.
        tmp: Reg,
        /// Items skipped.
        skip: usize,
    },
    /// A hardware loop over a straight-line body.
    Loop {
        /// Which loop register set (`lp0`/`lp1`).
        l: LoopIdx,
        /// Iteration count (0..=4; 0 and 1 both execute the body once).
        count: u32,
        /// Scratch register for the `lp.setup` register form.
        count_reg: Reg,
        /// Prefer the immediate `lp.setupi` form when the body is short
        /// enough for its 5-bit offset field.
        prefer_imm: bool,
        /// Body items: straight/mem/qnt, plus one nested loop level.
        body: Vec<Item>,
    },
}

/// A lowered program image.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// Code bytes, to be mapped at [`CODE_BASE`].
    pub code: Vec<u8>,
    /// `(pc, instr)` listing in address order (including the final
    /// `ecall`), for disassembly output.
    pub instrs: Vec<(u32, Instr)>,
}

// ---------------------------------------------------------------------
// Data segment
// ---------------------------------------------------------------------

/// Nibble trees: 8 trees of 15 thresholds, 32-byte stride, at offset 0.
const NIBBLE_TREES: u32 = 8;
/// Crumb trees: 8 trees of 3 thresholds, 8-byte stride, at offset 256.
const CRUMB_TREES_OFF: u32 = 256;
/// First data byte past the threshold-tree region.
const SCRATCH_OFF: u32 = 320;

/// Writes `sorted` (len + 1 must be a power of two) into `out` in
/// Eytzinger (BFS heap) order, the layout `pv.qnt` walks.
fn eytzinger_into(sorted: &[i16], out: &mut [i16]) {
    fn rec(sorted: &[i16], out: &mut [i16], next: &mut usize, k: usize) {
        if k <= sorted.len() {
            rec(sorted, out, next, 2 * k);
            out[k - 1] = sorted[*next];
            *next += 1;
            rec(sorted, out, next, 2 * k + 1);
        }
    }
    let mut next = 0;
    rec(sorted, out, &mut next, 1);
}

fn gen_tree(r: &mut Rng, levels: u32) -> Vec<i16> {
    let n = (1usize << levels) - 1;
    let mut sorted: Vec<i16> = (0..n).map(|_| r.range_i32(-3000, 3000) as i16).collect();
    sorted.sort_unstable();
    let mut out = vec![0i16; n];
    eytzinger_into(&sorted, &mut out);
    out
}

fn gen_data(r: &mut Rng) -> Vec<u8> {
    let mut data = vec![0u8; DATA_LEN as usize];
    for t in 0..NIBBLE_TREES {
        let tree = gen_tree(r, 4);
        for (i, v) in tree.iter().enumerate() {
            let off = (t * 32) as usize + i * 2;
            data[off..off + 2].copy_from_slice(&v.to_le_bytes());
        }
    }
    for t in 0..8 {
        let tree = gen_tree(r, 2);
        for (i, v) in tree.iter().enumerate() {
            let off = (CRUMB_TREES_OFF + t * 8) as usize + i * 2;
            data[off..off + 2].copy_from_slice(&v.to_le_bytes());
        }
    }
    for b in &mut data[SCRATCH_OFF as usize..] {
        *b = r.next_u32() as u8;
    }
    data
}

// ---------------------------------------------------------------------
// Instruction sampling
// ---------------------------------------------------------------------

pub(crate) const ALUI_ARITH: [AluOp; 6] = [
    AluOp::Add,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Xor,
    AluOp::Or,
    AluOp::And,
];
pub(crate) const ALUI_SHIFT: [AluOp; 3] = [AluOp::Sll, AluOp::Srl, AluOp::Sra];
pub(crate) const WORD_FMTS: [SimdFmt; 2] = [SimdFmt::Half, SimdFmt::Byte];

pub(crate) fn any_reg(r: &mut Rng) -> Reg {
    ALL_REGS[r.below(32) as usize]
}

pub(crate) fn nonzero_reg(r: &mut Rng) -> Reg {
    ALL_REGS[1 + r.below(31) as usize]
}

/// `lui`+`addi` pair that loads an arbitrary 32-bit constant.
fn li(rd: Reg, value: u32) -> [Instr; 2] {
    let lo = ((value as i32) << 20) >> 20;
    let hi = value.wrapping_sub(lo as u32) & 0xffff_f000;
    [
        Instr::Lui { rd, imm: hi },
        Instr::AluImm {
            op: AluOp::Add,
            rd,
            rs1: rd,
            imm: lo,
        },
    ]
}

pub(crate) fn simd_operand(r: &mut Rng, fmt: SimdFmt) -> SimdOperand {
    if fmt.is_sub_byte() {
        // `.sci` has no sub-byte encoding (validate rejects it).
        if r.flip() {
            SimdOperand::Vector(any_reg(r))
        } else {
            SimdOperand::Scalar(any_reg(r))
        }
    } else {
        match r.below(3) {
            0 => SimdOperand::Vector(any_reg(r)),
            1 => SimdOperand::Scalar(any_reg(r)),
            _ => SimdOperand::Imm(r.range_i32(-32, 31) as i8),
        }
    }
}

/// One computational instruction: writes registers, never touches
/// memory or the PC, never traps.
fn computational(r: &mut Rng) -> Instr {
    match r.below(13) {
        0 => Instr::Alu {
            op: *r.choose(&AluOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        1 => Instr::AluImm {
            op: *r.choose(&ALUI_ARITH),
            rd: any_reg(r),
            rs1: any_reg(r),
            imm: r.range_i32(-2048, 2047),
        },
        2 => Instr::AluImm {
            op: *r.choose(&ALUI_SHIFT),
            rd: any_reg(r),
            rs1: any_reg(r),
            imm: r.range_i32(0, 31),
        },
        3 => Instr::MulDiv {
            op: *r.choose(&MulDivOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        4 => Instr::PulpAlu {
            op: *r.choose(&PulpAluOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        5 => {
            if r.flip() {
                Instr::PClip {
                    rd: any_reg(r),
                    rs1: any_reg(r),
                    bits: r.below(32) as u8,
                }
            } else {
                Instr::PClipU {
                    rd: any_reg(r),
                    rs1: any_reg(r),
                    bits: r.below(32) as u8,
                }
            }
        }
        6 => Instr::PBit {
            op: *r.choose(&BitOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
        },
        7 => {
            let len = r.range_i32(1, 32) as u8;
            let off = r.below(32) as u8;
            let (rd, rs1) = (any_reg(r), any_reg(r));
            match r.below(3) {
                0 => Instr::PExtract { rd, rs1, len, off },
                1 => Instr::PExtractU { rd, rs1, len, off },
                _ => Instr::PInsert { rd, rs1, len, off },
            }
        }
        8 => {
            let (rd, rs1, rs2) = (any_reg(r), any_reg(r), any_reg(r));
            if r.flip() {
                Instr::PMac { rd, rs1, rs2 }
            } else {
                Instr::PMsu { rd, rs1, rs2 }
            }
        }
        9 => {
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
        10 => {
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
        11 => match r.below(3) {
            0 => {
                let fmt = *r.choose(&SimdFmt::ALL);
                Instr::PvExtract {
                    fmt,
                    rd: any_reg(r),
                    rs1: any_reg(r),
                    idx: r.below(fmt.lanes() as u64) as u8,
                    signed: r.flip(),
                }
            }
            1 => {
                let fmt = *r.choose(&SimdFmt::ALL);
                Instr::PvInsert {
                    fmt,
                    rd: any_reg(r),
                    rs1: any_reg(r),
                    idx: r.below(fmt.lanes() as u64) as u8,
                }
            }
            _ => Instr::PvShuffle2 {
                // No sub-byte shuffle encoding exists.
                fmt: *r.choose(&WORD_FMTS),
                rd: any_reg(r),
                rs1: any_reg(r),
                rs2: any_reg(r),
            },
        },
        _ => {
            if r.flip() {
                Instr::Lui {
                    rd: any_reg(r),
                    imm: r.next_u32() & 0xffff_f000,
                }
            } else {
                Instr::Auipc {
                    rd: any_reg(r),
                    imm: r.next_u32() & 0xffff_f000,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Item sampling
// ---------------------------------------------------------------------

/// A plain load/store item whose base register is materialized right
/// before the access, guaranteeing the address lands inside the data
/// segment (misaligned accesses are legal and deliberately covered).
fn gen_mem(r: &mut Rng) -> Item {
    let base = nonzero_reg(r);
    let base_off = r.range_i64(64, 960) as u32;
    let mut setup: Vec<Instr> = li(base, DATA_BASE + base_off).to_vec();
    let offset = r.range_i32(-32, 31);
    let access = match r.below(8) {
        0 | 1 => Instr::Load {
            kind: *r.choose(&LoadKind::ALL),
            rd: any_reg(r),
            rs1: base,
            offset,
        },
        2 => Instr::Store {
            kind: *r.choose(&StoreKind::ALL),
            rs1: base,
            rs2: any_reg(r),
            offset,
        },
        3 => {
            let mut rd = any_reg(r);
            while rd == base {
                rd = any_reg(r);
            }
            Instr::LoadPostInc {
                kind: *r.choose(&LoadKind::ALL),
                rd,
                rs1: base,
                offset,
            }
        }
        4 => Instr::StorePostInc {
            kind: *r.choose(&StoreKind::ALL),
            rs1: base,
            rs2: any_reg(r),
            offset,
        },
        5 | 6 => {
            let mut idx = nonzero_reg(r);
            while idx == base {
                idx = nonzero_reg(r);
            }
            setup.push(Instr::AluImm {
                op: AluOp::Add,
                rd: idx,
                rs1: Reg::Zero,
                imm: r.range_i32(0, 31),
            });
            if r.flip() {
                Instr::LoadRegOff {
                    kind: *r.choose(&LoadKind::ALL),
                    rd: any_reg(r),
                    rs1: base,
                    rs2: idx,
                }
            } else {
                let mut rd = any_reg(r);
                while rd == base || rd == idx {
                    rd = any_reg(r);
                }
                Instr::LoadPostIncReg {
                    kind: *r.choose(&LoadKind::ALL),
                    rd,
                    rs1: base,
                    rs2: idx,
                }
            }
        }
        _ => {
            let mut idx = nonzero_reg(r);
            while idx == base {
                idx = nonzero_reg(r);
            }
            setup.push(Instr::AluImm {
                op: AluOp::Add,
                rd: idx,
                rs1: Reg::Zero,
                imm: r.range_i32(0, 31),
            });
            Instr::StorePostIncReg {
                kind: *r.choose(&StoreKind::ALL),
                rs1: base,
                rs2: any_reg(r),
                rs3: idx,
            }
        }
    };
    Item::Mem { setup, access }
}

/// A `pv.qnt` item: random packed activations in `vreg`, a threshold
/// tree base in `breg` pointing at one of the pre-built Eytzinger trees
/// (the paired tree for the high halfword sits one stride further).
fn gen_qnt(r: &mut Rng) -> Item {
    let fmt = if r.flip() {
        SimdFmt::Nibble
    } else {
        SimdFmt::Crumb
    };
    let vreg = nonzero_reg(r);
    let mut breg = nonzero_reg(r);
    while breg == vreg {
        breg = nonzero_reg(r);
    }
    let tree_off = match fmt {
        SimdFmt::Nibble => 64 * r.below(4) as u32,
        _ => CRUMB_TREES_OFF + 16 * r.below(4) as u32,
    };
    let mut setup = li(vreg, r.next_u32()).to_vec();
    setup.extend_from_slice(&li(breg, DATA_BASE + tree_off));
    Item::Mem {
        setup,
        access: Instr::PvQnt {
            fmt,
            rd: any_reg(r),
            rs1: vreg,
            rs2: breg,
        },
    }
}

// ---------------------------------------------------------------------
// Vector items (Xrvv)
// ---------------------------------------------------------------------

/// The VLEN the vector-mode harness locks both cores to; spans below
/// are bounded against it.
const VEC_VLEN_BITS: u32 = 128;

fn any_vreg(r: &mut Rng) -> VReg {
    // A small window of the register file so generated programs reuse
    // (and therefore actually compare) the same vector registers.
    VReg::new(r.below(8) as usize).expect("index < 32")
}

/// One vector-unit computational instruction: register-file only,
/// never touches memory, never traps.
fn vec_computational(r: &mut Rng) -> Instr {
    match r.below(4) {
        0 => Instr::VSetvli {
            rd: any_reg(r),
            rs1: any_reg(r),
            sew: *r.choose(&ALL_SEWS),
        },
        1 => Instr::VDot {
            sign: *r.choose(&DotSign::ALL),
            rd: any_reg(r),
            vs1: any_vreg(r),
            vs2: any_vreg(r),
        },
        2 => Instr::VSlide1 {
            vd: any_vreg(r),
            vs2: any_vreg(r),
            rs1: any_reg(r),
        },
        _ => Instr::VMvXS {
            rd: any_reg(r),
            vs2: any_vreg(r),
        },
    }
}

/// A vector memory item. The setup materializes the base inside the
/// scratch region and, for the strided forms, pins `vl`/SEW with its
/// own `vsetvli` (strides only address whole-byte elements), so the
/// worst-case span provably stays inside the data segment: unit-stride
/// touches at most `VLEN/8` bytes whatever the current configuration,
/// strided at most `stride*(vl-1) + sew/8` with every factor bounded
/// here (`8*15 + 2 < 128` spare bytes left after the base).
fn gen_vec_mem(r: &mut Rng) -> Item {
    let base = nonzero_reg(r);
    let v = any_vreg(r);
    let base_off = SCRATCH_OFF + r.below(u64::from(DATA_LEN - SCRATCH_OFF - 128) + 1) as u32;
    let mut setup: Vec<Instr> = Vec::new();
    let access = if r.flip() {
        let sew = if r.flip() { VecSew::E8 } else { VecSew::E16 };
        let cnt = nonzero_reg(r);
        setup.push(Instr::AluImm {
            op: AluOp::Add,
            rd: cnt,
            rs1: Reg::Zero,
            imm: r.range_i32(0, 16),
        });
        setup.push(Instr::VSetvli {
            rd: Reg::Zero,
            rs1: cnt,
            sew,
        });
        setup.extend_from_slice(&li(base, DATA_BASE + base_off));
        let mut stride = nonzero_reg(r);
        while stride == base {
            stride = nonzero_reg(r);
        }
        setup.push(Instr::AluImm {
            op: AluOp::Add,
            rd: stride,
            rs1: Reg::Zero,
            imm: r.range_i32(0, 8),
        });
        if r.flip() {
            Instr::VLoadStrided {
                vd: v,
                rs1: base,
                rs2: stride,
            }
        } else {
            Instr::VStoreStrided {
                vs: v,
                rs1: base,
                rs2: stride,
            }
        }
    } else {
        if r.flip() {
            // Optionally reconfigure (any SEW, including sub-byte) so
            // unit-stride accesses cover packed-element transfers.
            let cnt = nonzero_reg(r);
            setup.push(Instr::AluImm {
                op: AluOp::Add,
                rd: cnt,
                rs1: Reg::Zero,
                imm: r.range_i32(0, 32),
            });
            setup.push(Instr::VSetvli {
                rd: Reg::Zero,
                rs1: cnt,
                sew: *r.choose(&ALL_SEWS),
            });
        }
        setup.extend_from_slice(&li(base, DATA_BASE + base_off));
        if r.flip() {
            Instr::VLoad { vd: v, rs1: base }
        } else {
            Instr::VStore { vs: v, rs1: base }
        }
    };
    Item::Mem { setup, access }
}

/// A `vqnt.{n,c}.v` item: pins `vl`/SEW to `e16`, loads real packed
/// activations from scratch into the source register, and points the
/// tree base at `vl` *consecutive* pre-built Eytzinger trees, so every
/// per-element walk (`base + i*stride`) stays inside the tree region.
fn gen_vec_qnt(r: &mut Rng) -> Item {
    let fmt = if r.flip() {
        SimdFmt::Nibble
    } else {
        SimdFmt::Crumb
    };
    let vl = 1 + r.below(u64::from(VEC_VLEN_BITS / 16)) as u32;
    let tree = r.below(u64::from(NIBBLE_TREES - vl) + 1) as u32;
    let tree_off = match fmt {
        SimdFmt::Nibble => tree * 32,
        _ => CRUMB_TREES_OFF + tree * 8,
    };
    let src = any_vreg(r);
    let cnt = nonzero_reg(r);
    let abase = nonzero_reg(r);
    let breg = nonzero_reg(r);
    let scratch = SCRATCH_OFF + r.below(u64::from(DATA_LEN - SCRATCH_OFF - 16) + 1) as u32;
    let mut setup: Vec<Instr> = vec![
        Instr::AluImm {
            op: AluOp::Add,
            rd: cnt,
            rs1: Reg::Zero,
            imm: vl as i32,
        },
        Instr::VSetvli {
            rd: Reg::Zero,
            rs1: cnt,
            sew: VecSew::E16,
        },
    ];
    setup.extend_from_slice(&li(abase, DATA_BASE + scratch));
    setup.push(Instr::VLoad {
        vd: src,
        rs1: abase,
    });
    setup.extend_from_slice(&li(breg, DATA_BASE + tree_off));
    Item::Mem {
        setup,
        access: Instr::VQnt {
            fmt,
            vd: any_vreg(r),
            rs1: breg,
            vs2: src,
        },
    }
}

/// One vector item: compute, memory, or quantization.
fn gen_vec_item(r: &mut Rng) -> Item {
    match r.below(10) {
        0..=4 => Item::Straight(vec_computational(r)),
        5..=7 => gen_vec_mem(r),
        _ => gen_vec_qnt(r),
    }
}

fn gen_loop(r: &mut Rng, depth: usize, vec: bool) -> Item {
    let l = if depth == 0 { LoopIdx::L1 } else { LoopIdx::L0 };
    let count = r.below(5) as u32;
    let count_reg = nonzero_reg(r);
    let prefer_imm = r.flip();
    let n = r.range_usize(1, 3);
    let body = (0..n).map(|_| gen_body_item(r, depth + 1, vec)).collect();
    Item::Loop {
        l,
        count,
        count_reg,
        prefer_imm,
        body,
    }
}

/// Items legal inside a hardware-loop body: no control flow, at most
/// one further nesting level.
fn gen_body_item(r: &mut Rng, depth: usize, vec: bool) -> Item {
    // `&&` keeps the RNG stream of the default mode untouched.
    if vec && r.below(10) < 3 {
        return gen_vec_item(r);
    }
    match r.below(100) {
        0..=54 => Item::Straight(computational(r)),
        55..=74 => gen_mem(r),
        75..=87 => gen_qnt(r),
        _ => {
            if depth == 1 {
                gen_loop(r, depth, vec)
            } else {
                Item::Straight(computational(r))
            }
        }
    }
}

fn gen_top_item(r: &mut Rng, vec: bool) -> Item {
    if vec && r.below(10) < 3 {
        return gen_vec_item(r);
    }
    match r.below(100) {
        0..=54 => Item::Straight(computational(r)),
        55..=69 => gen_mem(r),
        70..=77 => gen_qnt(r),
        78..=85 => Item::BranchOver {
            cond: *r.choose(&BranchCond::ALL),
            rs1: any_reg(r),
            rs2: any_reg(r),
            skip: r.below(3) as usize,
        },
        86..=89 => Item::JumpOver {
            rd: any_reg(r),
            skip: r.below(3) as usize,
        },
        90..=93 => Item::JalrOver {
            rd: any_reg(r),
            tmp: nonzero_reg(r),
            skip: r.below(3) as usize,
        },
        _ => gen_loop(r, 0, vec),
    }
}

/// Clamps every forward-skip so it stays within the item list. The
/// shrinker re-runs this after dropping items.
pub fn normalize(items: &mut [Item]) {
    let len = items.len();
    for (idx, item) in items.iter_mut().enumerate() {
        let max_skip = len - 1 - idx;
        match item {
            Item::BranchOver { skip, .. }
            | Item::JumpOver { skip, .. }
            | Item::JalrOver { skip, .. } => *skip = (*skip).min(max_skip),
            _ => {}
        }
    }
}

/// Generates one program from `seed`.
pub fn generate(seed: u64, cfg: &GenConfig) -> ProgramSpec {
    let mut r = Rng::new(seed);
    let data = gen_data(&mut r);
    let n = r.range_usize(3, cfg.max_items.max(3));
    let mut items: Vec<Item> = (0..n).map(|_| gen_top_item(&mut r, cfg.vector)).collect();
    normalize(&mut items);
    ProgramSpec {
        seed,
        items,
        data,
        vector: cfg.vector,
    }
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

enum Slot {
    Plain {
        instr: Instr,
        len: u32,
    },
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        skip: usize,
    },
    Jal {
        rd: Reg,
        skip: usize,
    },
    Jalr {
        rd: Reg,
        tmp: Reg,
        skip: usize,
    },
}

fn slot_len(s: &Slot) -> u32 {
    match s {
        Slot::Plain { len, .. } => *len,
        Slot::Branch { .. } | Slot::Jal { .. } => 4,
        Slot::Jalr { .. } => 8,
    }
}

/// Compresses when RVC can express the instruction — this is what puts
/// 16-bit parcels (and therefore misaligned 32-bit fetches) into the
/// differential stream.
fn plain(instr: Instr) -> Slot {
    let len = if compress(&instr).is_some() { 2 } else { 4 };
    Slot::Plain { instr, len }
}

fn item_slots(item: &Item, slots: &mut Vec<Slot>) {
    match item {
        Item::Straight(i) => slots.push(plain(*i)),
        Item::Mem { setup, access } => {
            for s in setup {
                slots.push(plain(*s));
            }
            slots.push(plain(*access));
        }
        Item::BranchOver {
            cond,
            rs1,
            rs2,
            skip,
        } => slots.push(Slot::Branch {
            cond: *cond,
            rs1: *rs1,
            rs2: *rs2,
            skip: *skip,
        }),
        Item::JumpOver { rd, skip } => slots.push(Slot::Jal {
            rd: *rd,
            skip: *skip,
        }),
        Item::JalrOver { rd, tmp, skip } => slots.push(Slot::Jalr {
            rd: *rd,
            tmp: *tmp,
            skip: *skip,
        }),
        Item::Loop {
            l,
            count,
            count_reg,
            prefer_imm,
            body,
        } => {
            let mut body_slots = Vec::new();
            for it in body {
                item_slots(it, &mut body_slots);
            }
            let body_bytes: u32 = body_slots.iter().map(slot_len).sum();
            // `lp.end` is the address *after* the last body instruction:
            // setup(4 bytes) + body.
            let offset = (4 + body_bytes) as i32;
            if *prefer_imm && offset <= 62 {
                slots.push(Slot::Plain {
                    instr: Instr::LpSetupi {
                        l: *l,
                        imm: *count,
                        offset,
                    },
                    len: 4,
                });
            } else {
                slots.push(plain(Instr::AluImm {
                    op: AluOp::Add,
                    rd: *count_reg,
                    rs1: Reg::Zero,
                    imm: *count as i32,
                }));
                slots.push(Slot::Plain {
                    instr: Instr::LpSetup {
                        l: *l,
                        rs1: *count_reg,
                        offset,
                    },
                    len: 4,
                });
            }
            slots.append(&mut body_slots);
        }
    }
}

/// Lowers `spec` to a code image, resolving every forward-skip and loop
/// offset from the actual encoded instruction sizes, and appending the
/// terminating `ecall`.
pub fn lower(spec: &ProgramSpec) -> Lowered {
    let chunks: Vec<Vec<Slot>> = spec
        .items
        .iter()
        .map(|item| {
            let mut s = Vec::new();
            item_slots(item, &mut s);
            s
        })
        .collect();
    let lens: Vec<u32> = chunks
        .iter()
        .map(|c| c.iter().map(slot_len).sum())
        .collect();

    let mut code: Vec<u8> = Vec::new();
    let mut instrs: Vec<(u32, Instr)> = Vec::new();
    let emit = |code: &mut Vec<u8>, instrs: &mut Vec<(u32, Instr)>, instr: Instr, len: u32| {
        let pc = CODE_BASE + code.len() as u32;
        if len == 2 {
            let parcel = compress(&instr).expect("slot marked compressible");
            code.extend_from_slice(&parcel.to_le_bytes());
        } else {
            code.extend_from_slice(&encode(&instr).to_le_bytes());
        }
        instrs.push((pc, instr));
    };

    for (ci, chunk) in chunks.iter().enumerate() {
        for slot in chunk {
            match *slot {
                Slot::Plain { instr, len } => emit(&mut code, &mut instrs, instr, len),
                Slot::Branch {
                    cond,
                    rs1,
                    rs2,
                    skip,
                } => {
                    let dist = 4 + lens[ci + 1..ci + 1 + skip].iter().sum::<u32>();
                    emit(
                        &mut code,
                        &mut instrs,
                        Instr::Branch {
                            cond,
                            rs1,
                            rs2,
                            offset: dist as i32,
                        },
                        4,
                    );
                }
                Slot::Jal { rd, skip } => {
                    let dist = 4 + lens[ci + 1..ci + 1 + skip].iter().sum::<u32>();
                    emit(
                        &mut code,
                        &mut instrs,
                        Instr::Jal {
                            rd,
                            offset: dist as i32,
                        },
                        4,
                    );
                }
                Slot::Jalr { rd, tmp, skip } => {
                    let dist = 8 + lens[ci + 1..ci + 1 + skip].iter().sum::<u32>();
                    emit(&mut code, &mut instrs, Instr::Auipc { rd: tmp, imm: 0 }, 4);
                    emit(
                        &mut code,
                        &mut instrs,
                        Instr::Jalr {
                            rd,
                            rs1: tmp,
                            offset: dist as i32,
                        },
                        4,
                    );
                }
            }
        }
    }
    emit(&mut code, &mut instrs, Instr::Ecall, 4);
    assert!(
        code.len() as u32 <= DATA_BASE - CODE_BASE,
        "generated code overflows the code segment"
    );
    Lowered { code, instrs }
}

/// Number of instructions `spec` lowers to, including the final `ecall`.
pub fn instr_count(spec: &ProgramSpec) -> usize {
    lower(spec).instrs.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_validate_and_fit() {
        for seed in 0..50u64 {
            let spec = generate(seed, &GenConfig::default());
            let lowered = lower(&spec);
            assert!(!lowered.instrs.is_empty());
            for (pc, instr) in &lowered.instrs {
                assert!(*pc >= CODE_BASE && *pc < DATA_BASE, "pc {pc:#x} in range");
                instr.validate().unwrap_or_else(|e| {
                    panic!("seed {seed}: {instr} at {pc:#x} fails validate: {e:?}")
                });
            }
        }
    }

    #[test]
    fn vector_mode_programs_validate_and_cover_the_vector_surface() {
        let cfg = GenConfig::vector();
        let mut vector_instrs = 0usize;
        for seed in 0..50u64 {
            let spec = generate(seed, &cfg);
            assert!(spec.vector, "vector mode must be recorded on the spec");
            for (pc, instr) in &lower(&spec).instrs {
                assert!(*pc >= CODE_BASE && *pc < DATA_BASE);
                instr.validate().unwrap_or_else(|e| {
                    panic!("seed {seed}: {instr} at {pc:#x} fails validate: {e:?}")
                });
                if instr.requires_rvv() {
                    vector_instrs += 1;
                }
            }
        }
        assert!(
            vector_instrs > 100,
            "vector mode generated only {vector_instrs} vector instructions over 50 programs"
        );
    }

    #[test]
    fn default_mode_emits_no_vector_instructions() {
        for seed in 0..50u64 {
            let spec = generate(seed, &GenConfig::default());
            assert!(!spec.vector);
            for (_, instr) in &lower(&spec).instrs {
                assert!(!instr.requires_rvv(), "default stream leaked {instr}");
            }
        }
    }

    #[test]
    fn li_materializes_exact_constants() {
        for v in [0u32, 1, 0x7ff, 0x800, 0xfff, 0x1000, 0xdead_beef, u32::MAX] {
            let [lui, addi] = li(Reg::A0, v);
            let Instr::Lui { imm: hi, .. } = lui else {
                unreachable!()
            };
            let Instr::AluImm { imm: lo, .. } = addi else {
                unreachable!()
            };
            assert_eq!(hi & 0xfff, 0);
            assert!((-2048..=2047).contains(&lo));
            assert_eq!(hi.wrapping_add(lo as u32), v, "li({v:#x})");
        }
    }

    #[test]
    fn eytzinger_layout_matches_bfs_order() {
        let sorted: Vec<i16> = (1..=7).collect();
        let mut out = vec![0i16; 7];
        eytzinger_into(&sorted, &mut out);
        assert_eq!(out, vec![4, 2, 6, 1, 3, 5, 7]);
    }
}
