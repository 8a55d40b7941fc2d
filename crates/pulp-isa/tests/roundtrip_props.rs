//! Property tests: `decode(encode(i)) == i` over randomly generated
//! instructions, and SIMD semantics against independent scalar references.
//!
//! These were originally `proptest` properties; the tree must build with
//! no registry access, so they are now seeded generator loops over
//! `xrand` (failures print the seed-derived case so they reproduce
//! exactly). The 16-bit parcel space is small enough to check
//! exhaustively instead of sampling.

use pulp_isa::decode::decode;
use pulp_isa::encode::encode;
use pulp_isa::instr::{
    AluOp, BitOp, BranchCond, Instr, LoadKind, LoopIdx, MulDivOp, PulpAluOp, SimdAluOp,
    SimdOperand, StoreKind, ValidateError,
};
use pulp_isa::reg::{Reg, ALL_REGS};
use pulp_isa::simd::{self, DotSign, SimdFmt};
use pulp_isa::vec::{VReg, VecSew};
use xrand::Rng;

const CASES: usize = 2048;

fn any_reg(r: &mut Rng) -> Reg {
    ALL_REGS[r.below(32) as usize]
}

fn any_fmt(r: &mut Rng) -> SimdFmt {
    *r.choose(&SimdFmt::ALL)
}

fn any_dot_sign(r: &mut Rng) -> DotSign {
    *r.choose(&DotSign::ALL)
}

/// Operand generator honouring the "no .sci for sub-byte" encoding rule.
fn operand_for(r: &mut Rng, fmt: SimdFmt) -> SimdOperand {
    let variants = if fmt.is_sub_byte() { 2 } else { 3 };
    match r.below(variants) {
        0 => SimdOperand::Vector(any_reg(r)),
        1 => SimdOperand::Scalar(any_reg(r)),
        _ => SimdOperand::Imm(r.range_i32(-32, 31) as i8),
    }
}

fn any_base(r: &mut Rng) -> Instr {
    match r.below(7) {
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
        _ => Instr::Store {
            kind: *r.choose(&StoreKind::ALL),
            rs1: any_reg(r),
            rs2: any_reg(r),
            offset: r.range_i32(-2048, 2047),
        },
    }
}

fn any_alu(r: &mut Rng) -> Instr {
    match r.below(4) {
        0 => Instr::Alu {
            op: *r.choose(&AluOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        1 => {
            const OPS: [AluOp; 6] = [
                AluOp::Add,
                AluOp::Slt,
                AluOp::Sltu,
                AluOp::Xor,
                AluOp::Or,
                AluOp::And,
            ];
            loop {
                let op = *r.choose(&OPS);
                let (rd, rs1) = (any_reg(r), any_reg(r));
                let imm = r.range_i32(-2048, 2047);
                // Skip the canonical nop: it decodes specially.
                if matches!(op, AluOp::Add) && rd == Reg::Zero && rs1 == Reg::Zero && imm == 0 {
                    continue;
                }
                return Instr::AluImm { op, rd, rs1, imm };
            }
        }
        2 => {
            const OPS: [AluOp; 3] = [AluOp::Sll, AluOp::Srl, AluOp::Sra];
            Instr::AluImm {
                op: *r.choose(&OPS),
                rd: any_reg(r),
                rs1: any_reg(r),
                imm: r.range_i32(0, 31),
            }
        }
        _ => Instr::MulDiv {
            op: *r.choose(&MulDivOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
    }
}

fn any_pulp_scalar(r: &mut Rng) -> Instr {
    match r.below(9) {
        0 => Instr::PulpAlu {
            op: *r.choose(&PulpAluOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        1 => Instr::PClip {
            rd: any_reg(r),
            rs1: any_reg(r),
            bits: r.below(32) as u8,
        },
        2 => Instr::PClipU {
            rd: any_reg(r),
            rs1: any_reg(r),
            bits: r.below(32) as u8,
        },
        3 => Instr::PMac {
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        4 => Instr::PMsu {
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        5 => Instr::PBit {
            op: *r.choose(&BitOp::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
        },
        6 => Instr::PExtract {
            rd: any_reg(r),
            rs1: any_reg(r),
            len: r.range_i32(1, 32) as u8,
            off: r.below(32) as u8,
        },
        7 => Instr::PExtractU {
            rd: any_reg(r),
            rs1: any_reg(r),
            len: r.range_i32(1, 32) as u8,
            off: r.below(32) as u8,
        },
        _ => Instr::PInsert {
            rd: any_reg(r),
            rs1: any_reg(r),
            len: r.range_i32(1, 32) as u8,
            off: r.below(32) as u8,
        },
    }
}

fn any_pulp_mem(r: &mut Rng) -> Instr {
    match r.below(5) {
        0 => Instr::LoadPostInc {
            kind: *r.choose(&LoadKind::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            offset: r.range_i32(-2048, 2047),
        },
        1 => Instr::LoadPostIncReg {
            kind: *r.choose(&LoadKind::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        2 => Instr::LoadRegOff {
            kind: *r.choose(&LoadKind::ALL),
            rd: any_reg(r),
            rs1: any_reg(r),
            rs2: any_reg(r),
        },
        3 => Instr::StorePostInc {
            kind: *r.choose(&StoreKind::ALL),
            rs1: any_reg(r),
            rs2: any_reg(r),
            offset: r.range_i32(-2048, 2047),
        },
        _ => Instr::StorePostIncReg {
            kind: *r.choose(&StoreKind::ALL),
            rs1: any_reg(r),
            rs2: any_reg(r),
            rs3: any_reg(r),
        },
    }
}

fn any_hwloop(r: &mut Rng) -> Instr {
    let l = if r.flip() { LoopIdx::L0 } else { LoopIdx::L1 };
    let rs1 = any_reg(r);
    let imm = r.below(4096) as u32;
    let off = r.range_i32(0, 2047);
    match r.below(6) {
        0 => Instr::LpStarti {
            l,
            offset: (off & !1) << 1,
        },
        1 => Instr::LpEndi {
            l,
            offset: (off & !1) << 1,
        },
        2 => Instr::LpCount { l, rs1 },
        3 => Instr::LpCounti { l, imm },
        4 => Instr::LpSetup {
            l,
            rs1,
            offset: off & !1,
        },
        _ => Instr::LpSetupi {
            l,
            imm,
            offset: (off & 0x1f) << 1,
        },
    }
}

fn any_simd(r: &mut Rng) -> Instr {
    match r.below(5) {
        0 => {
            let fmt = any_fmt(r);
            Instr::PvAlu {
                op: *r.choose(&SimdAluOp::ALL),
                fmt,
                rd: any_reg(r),
                rs1: any_reg(r),
                op2: operand_for(r, fmt),
            }
        }
        1 => Instr::PvAbs {
            fmt: any_fmt(r),
            rd: any_reg(r),
            rs1: any_reg(r),
        },
        2 => {
            let fmt = any_fmt(r);
            let idx = r.below(fmt.lanes() as u64) as u8;
            if r.flip() {
                Instr::PvExtract {
                    fmt,
                    rd: any_reg(r),
                    rs1: any_reg(r),
                    idx,
                    signed: r.flip(),
                }
            } else {
                Instr::PvInsert {
                    fmt,
                    rd: any_reg(r),
                    rs1: any_reg(r),
                    idx,
                }
            }
        }
        3 => {
            let fmt = any_fmt(r);
            let sign = any_dot_sign(r);
            let (rd, rs1) = (any_reg(r), any_reg(r));
            let op2 = operand_for(r, fmt);
            if r.flip() {
                Instr::PvSdot {
                    fmt,
                    sign,
                    rd,
                    rs1,
                    op2,
                }
            } else {
                Instr::PvDot {
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
                SimdFmt::Nibble
            } else {
                SimdFmt::Crumb
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

/// An arbitrary *valid, encodable* instruction, uniform over the six
/// encoding groups.
fn any_instr(r: &mut Rng) -> Instr {
    match r.below(6) {
        0 => any_base(r),
        1 => any_alu(r),
        2 => any_pulp_scalar(r),
        3 => any_pulp_mem(r),
        4 => any_hwloop(r),
        _ => any_simd(r),
    }
}

/// The fundamental encoder/decoder invariant over the whole ISA.
#[test]
fn encode_decode_round_trip() {
    let mut r = Rng::new(0x5eed_0001);
    for case in 0..CASES {
        let instr = any_instr(&mut r);
        assert_eq!(
            instr.validate(),
            Ok(()),
            "case {case}: generator produced invalid {instr}"
        );
        let word = encode(&instr);
        let back = decode(word);
        assert_eq!(back, Ok(instr), "case {case}: word {word:#010x}");
    }
}

/// Decoding arbitrary words either fails or yields a re-encodable
/// instruction that round-trips to the same word (no aliasing).
#[test]
fn decode_encode_consistent() {
    let mut r = Rng::new(0x5eed_0002);
    for case in 0..CASES * 4 {
        let word = r.next_u32();
        if let Ok(instr) = decode(word) {
            assert_eq!(instr.validate(), Ok(()), "case {case}: {word:#010x}");
            let re = encode(&instr);
            let back = decode(re);
            assert_eq!(back, Ok(instr), "case {case}: {word:#010x} -> {re:#010x}");
        }
    }
}

/// SIMD ALU semantics agree with a naive per-lane scalar model.
#[test]
fn simd_alu_matches_scalar_reference() {
    let mut r = Rng::new(0x5eed_0003);
    for _ in 0..CASES {
        let fmt = any_fmt(&mut r);
        let op = *r.choose(&SimdAluOp::ALL);
        let a = r.next_u32();
        let b = r.next_u32();
        let got = op.eval(fmt, a, b);
        for i in 0..fmt.lanes() {
            let x = simd::lane_s(fmt, a, i);
            let y = simd::lane_s(fmt, b, i);
            let xu = simd::lane_u(fmt, a, i);
            let yu = simd::lane_u(fmt, b, i);
            let bits = fmt.bits();
            let expect: u32 = match op {
                SimdAluOp::Add => (x.wrapping_add(y)) as u32,
                SimdAluOp::Sub => (x.wrapping_sub(y)) as u32,
                SimdAluOp::Avg => ((x.wrapping_add(y)) >> 1) as u32,
                SimdAluOp::Avgu => (xu + yu) >> 1,
                SimdAluOp::Min => x.min(y) as u32,
                SimdAluOp::Minu => xu.min(yu),
                SimdAluOp::Max => x.max(y) as u32,
                SimdAluOp::Maxu => xu.max(yu),
                SimdAluOp::Srl => xu >> (yu % bits),
                SimdAluOp::Sra => (x >> (yu % bits)) as u32,
                SimdAluOp::Sll => xu << (yu % bits),
                SimdAluOp::Or => xu | yu,
                SimdAluOp::And => xu & yu,
                SimdAluOp::Xor => xu ^ yu,
            };
            assert_eq!(
                simd::lane_u(fmt, got, i),
                expect & fmt.lane_mask(),
                "op {op:?} fmt {fmt:?} lane {i} a={a:#010x} b={b:#010x}"
            );
        }
    }
}

/// Dot products agree with an i64 scalar accumulation.
#[test]
fn dotp_matches_scalar_reference() {
    let mut r = Rng::new(0x5eed_0004);
    for _ in 0..CASES {
        let fmt = any_fmt(&mut r);
        let sign = any_dot_sign(&mut r);
        let acc = r.next_u32();
        let a = r.next_u32();
        let b = r.next_u32();
        let mut expect: i64 = 0;
        for i in 0..fmt.lanes() {
            let x = match sign {
                DotSign::SignedSigned => simd::lane_s(fmt, a, i) as i64,
                _ => simd::lane_u(fmt, a, i) as i64,
            };
            let y = match sign {
                DotSign::UnsignedUnsigned => simd::lane_u(fmt, b, i) as i64,
                _ => simd::lane_s(fmt, b, i) as i64,
            };
            expect += x * y;
        }
        assert_eq!(
            simd::dotp(fmt, sign, a, b),
            expect as u32,
            "fmt {fmt:?} sign {sign:?} a={a:#010x} b={b:#010x}"
        );
        assert_eq!(
            simd::sdotp(fmt, sign, acc, a, b),
            acc.wrapping_add(expect as u32)
        );
    }
}

/// Replication of a scalar equals a vector whose every lane is the
/// scalar's low bits.
#[test]
fn replicate_lane_law() {
    let mut r = Rng::new(0x5eed_0005);
    for _ in 0..CASES {
        let fmt = any_fmt(&mut r);
        let s = r.next_u32();
        let v = simd::replicate(fmt, s);
        for i in 0..fmt.lanes() {
            assert_eq!(
                simd::lane_u(fmt, v, i),
                s & fmt.lane_mask(),
                "fmt {fmt:?} s={s:#010x}"
            );
        }
    }
}

/// `.sc` variants equal the `rr` variant applied to a replicated
/// vector — the defining property of the scalar addressing mode.
#[test]
fn sc_equals_rr_on_replicated() {
    let mut r = Rng::new(0x5eed_0006);
    for _ in 0..CASES {
        let fmt = any_fmt(&mut r);
        let op = *r.choose(&SimdAluOp::ALL);
        let a = r.next_u32();
        let s = r.next_u32();
        let rep = simd::replicate(fmt, s);
        assert_eq!(
            op.eval(fmt, a, rep),
            op.eval(fmt, a, simd::replicate(fmt, s & fmt.lane_mask())),
            "op {op:?} fmt {fmt:?} a={a:#010x} s={s:#010x}"
        );
    }
}

/// RV32C: whenever an instruction has a compressed form, expanding
/// that parcel reproduces the instruction exactly.
#[test]
fn compress_decode16_round_trip() {
    use pulp_isa::compressed::{compress, decode16, is_compressed};
    let mut r = Rng::new(0x5eed_0007);
    for _ in 0..CASES {
        let instr = any_instr(&mut r);
        if let Some(parcel) = compress(&instr) {
            assert!(is_compressed(parcel as u32), "{instr}");
            let (_, back) =
                decode16(parcel).unwrap_or_else(|| panic!("{instr} -> {parcel:#06x} undecodable"));
            assert_eq!(back, instr, "parcel {parcel:#06x}");
        }
    }
}

/// RV32C: any decodable 16-bit parcel expands to a valid base
/// instruction, and re-compressing that instruction (when possible)
/// expands back to the same instruction. The parcel space is small, so
/// check it exhaustively rather than by sampling.
#[test]
fn decode16_yields_valid_instructions() {
    use pulp_isa::compressed::{compress, decode16};
    for parcel in 0..=u16::MAX {
        if let Some((_, instr)) = decode16(parcel) {
            assert_eq!(instr.validate(), Ok(()), "{parcel:#06x}");
            assert!(
                !instr.requires_xpulpv2() && !instr.requires_xpulpnn(),
                "RVC only covers the base ISA: {parcel:#06x}"
            );
            if let Some(p2) = compress(&instr) {
                let (_, again) = decode16(p2).expect("recompressed parcel decodes");
                assert_eq!(again, instr);
            }
        }
    }
}

/// Disassembly of b/h `.sci` forms embeds the decimal immediate.
#[test]
fn sci_disassembly_contains_imm() {
    for fmt in [SimdFmt::Half, SimdFmt::Byte] {
        for imm in -32i8..32 {
            let i = Instr::PvAlu {
                op: SimdAluOp::Add,
                fmt,
                rd: Reg::A0,
                rs1: Reg::A1,
                op2: SimdOperand::Imm(imm),
            };
            let text = i.to_string();
            assert!(text.contains(&imm.to_string()), "{text}");
            assert!(text.contains(".sci."), "{text}");
        }
    }
}

/// An `i32` from anywhere in its range, or near the field extremes.
fn wild_i32(r: &mut Rng) -> i32 {
    match r.below(4) {
        0 => r.next_u32() as i32,
        1 => r.range_i32(-(1 << 21), 1 << 21),
        2 => r.range_i32(-5000, 5000),
        _ => r.range_i32(-70, 70),
    }
}

/// A `u32` anywhere, page-aligned or not.
fn wild_u32(r: &mut Rng) -> u32 {
    match r.below(3) {
        0 => r.next_u32() & 0xffff_f000,
        1 => r.below(8192) as u32,
        _ => r.next_u32(),
    }
}

fn wild_u8(r: &mut Rng) -> u8 {
    if r.flip() {
        r.below(256) as u8
    } else {
        r.below(40) as u8
    }
}

fn any_vreg(r: &mut Rng) -> VReg {
    VReg::from_bits(r.next_u32())
}

/// An instruction of any variant whose integer fields take any value
/// their Rust type holds, encodable or not.
fn unconstrained_instr(r: &mut Rng) -> Instr {
    let (rd, rs1, rs2) = (any_reg(r), any_reg(r), any_reg(r));
    let l = LoopIdx::from_bit(r.next_u32());
    let fmt = any_fmt(r);
    let op2 = match r.below(3) {
        0 => SimdOperand::Vector(rs2),
        1 => SimdOperand::Scalar(rs2),
        _ => SimdOperand::Imm(r.next_u32() as i8),
    };
    let (offset, imm) = (wild_i32(r), wild_u32(r));
    let (a, b) = (wild_u8(r), wild_u8(r));
    match r.below(36) {
        0 => Instr::Lui { rd, imm },
        1 => Instr::Auipc { rd, imm },
        2 => Instr::Jal { rd, offset },
        3 => Instr::Jalr { rd, rs1, offset },
        4 => Instr::Branch {
            cond: *r.choose(&BranchCond::ALL),
            rs1,
            rs2,
            offset,
        },
        5 => Instr::Load {
            kind: *r.choose(&LoadKind::ALL),
            rd,
            rs1,
            offset,
        },
        6 => Instr::Store {
            kind: *r.choose(&StoreKind::ALL),
            rs1,
            rs2,
            offset,
        },
        7 => Instr::AluImm {
            op: *r.choose(&AluOp::ALL),
            rd,
            rs1,
            imm: offset,
        },
        8 => Instr::Csr {
            op: r.below(5) as u8,
            rd,
            rs1,
            csr: r.next_u32() as u16 >> r.below(8),
        },
        9 => Instr::PClip { rd, rs1, bits: a },
        10 => Instr::PClipU { rd, rs1, bits: a },
        11 => Instr::PExtract {
            rd,
            rs1,
            len: a,
            off: b,
        },
        12 => Instr::PExtractU {
            rd,
            rs1,
            len: a,
            off: b,
        },
        13 => Instr::PInsert {
            rd,
            rs1,
            len: a,
            off: b,
        },
        14 => Instr::LoadPostInc {
            kind: *r.choose(&LoadKind::ALL),
            rd,
            rs1,
            offset,
        },
        15 => Instr::StorePostInc {
            kind: *r.choose(&StoreKind::ALL),
            rs1,
            rs2,
            offset,
        },
        16 => Instr::LpStarti { l, offset },
        17 => Instr::LpEndi { l, offset },
        18 => Instr::LpCounti { l, imm },
        19 => Instr::LpSetup { l, rs1, offset },
        20 => Instr::LpSetupi { l, imm, offset },
        21 => Instr::PvAlu {
            op: *r.choose(&SimdAluOp::ALL),
            fmt,
            rd,
            rs1,
            op2,
        },
        22 => Instr::PvDot {
            fmt,
            sign: any_dot_sign(r),
            rd,
            rs1,
            op2,
        },
        23 => Instr::PvSdot {
            fmt,
            sign: any_dot_sign(r),
            rd,
            rs1,
            op2,
        },
        24 => Instr::PvExtract {
            fmt,
            rd,
            rs1,
            idx: a,
            signed: r.flip(),
        },
        25 => Instr::PvInsert {
            fmt,
            rd,
            rs1,
            idx: a,
        },
        26 => Instr::PvQnt { fmt, rd, rs1, rs2 },
        27 => Instr::PvShuffle2 { fmt, rd, rs1, rs2 },
        28 => Instr::VQnt {
            fmt,
            vd: any_vreg(r),
            rs1,
            vs2: any_vreg(r),
        },
        29 => Instr::VSetvli {
            rd,
            rs1,
            sew: *r.choose(&VecSew::ALL),
        },
        30 => Instr::VDot {
            sign: any_dot_sign(r),
            rd,
            vs1: any_vreg(r),
            vs2: any_vreg(r),
        },
        31 => Instr::PulpAlu {
            op: *r.choose(&PulpAluOp::ALL),
            rd,
            rs1,
            rs2,
        },
        32 => Instr::StorePostIncReg {
            kind: *r.choose(&StoreKind::ALL),
            rs1,
            rs2,
            rs3: any_reg(r),
        },
        33 => Instr::LoadRegOff {
            kind: *r.choose(&LoadKind::ALL),
            rd,
            rs1,
            rs2,
        },
        34 => Instr::VSlide1 {
            vd: any_vreg(r),
            vs2: any_vreg(r),
            rs1,
        },
        _ => Instr::PvAbs { fmt, rd, rs1 },
    }
}

/// `validate` accepts exactly what the encoding holds: whenever it
/// passes, the word decodes back to the same instruction, for field
/// values drawn from the whole range of their Rust types. (The one
/// alias, `addi zero, zero, 0`, decodes as the canonical `nop`.)
#[test]
fn validate_accepts_only_encodable_values() {
    let mut r = Rng::new(0x5eed_0008);
    let mut valid = 0;
    for case in 0..CASES * 8 {
        let instr = unconstrained_instr(&mut r);
        let nop_alias = encode(&instr) == encode(&Instr::Nop);
        if instr.validate().is_err() || nop_alias {
            continue;
        }
        valid += 1;
        let word = encode(&instr);
        assert_eq!(
            decode(word),
            Ok(instr),
            "case {case}: {instr:?} -> {word:#010x}"
        );
    }
    assert!(valid > CASES, "only {valid} valid draws");
}

/// The mis-assemblies the field checks exist for: each value is one the
/// encoding would silently drop or truncate.
#[test]
fn validate_rejects_values_the_encoding_drops() {
    let l = LoopIdx::L0;
    for bad in [
        Instr::PExtract {
            rd: Reg::A0,
            rs1: Reg::A1,
            len: 44,
            off: 40,
        },
        Instr::LpSetupi {
            l,
            imm: 4,
            offset: 200,
        },
        Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: 5,
        },
        Instr::Jal {
            rd: Reg::Ra,
            offset: 3,
        },
        Instr::LpStarti { l, offset: 3 },
        Instr::Lui {
            rd: Reg::A0,
            imm: 0x801,
        },
        Instr::Csr {
            op: 3,
            rd: Reg::A0,
            rs1: Reg::A1,
            csr: 0,
        },
    ] {
        assert!(
            matches!(bad.validate(), Err(ValidateError::ImmRange { .. })),
            "{bad:?}"
        );
    }
}
