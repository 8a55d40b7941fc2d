//! Bit-accurate packed-SIMD lane semantics.
//!
//! A 32-bit register is interpreted as a vector of equal-width lanes:
//!
//! | format | lane width | lanes | XpulpV2 | XpulpNN |
//! |--------|-----------:|------:|:-------:|:-------:|
//! | [`SimdFmt::Half`]   | 16 bit | 2  | ✓ |   |
//! | [`SimdFmt::Byte`]   |  8 bit | 4  | ✓ |   |
//! | [`SimdFmt::Nibble`] |  4 bit | 8  |   | ✓ |
//! | [`SimdFmt::Crumb`]  |  2 bit | 16 |   | ✓ |
//!
//! Lane 0 is the least-significant lane, matching RI5CY's little-endian
//! packing. All arithmetic is modular within the lane width, exactly as the
//! hardware datapath behaves.
//!
//! These helpers are the single source of truth for SIMD semantics: the
//! core simulator (`riscv-core`), the golden QNN models (`qnn`) and the
//! property tests all call into this module, so a bug here would be caught
//! by the cross-checks between independently written scalar references in
//! the test suites.

pub use crate::table::{DotSign, SimdFmt};

/// All formats, narrowest last; useful for sweeps in tests and benches.
pub const ALL_FMTS: [SimdFmt; 4] = SimdFmt::ALL;

/// The sub-byte formats introduced by XpulpNN.
pub const SUB_BYTE_FMTS: [SimdFmt; 2] = [SimdFmt::Nibble, SimdFmt::Crumb];

impl SimdFmt {
    /// Lane width in bits.
    #[inline]
    pub const fn bits(self) -> u32 {
        match self {
            SimdFmt::Half => 16,
            SimdFmt::Byte => 8,
            SimdFmt::Nibble => 4,
            SimdFmt::Crumb => 2,
        }
    }

    /// Number of lanes in a 32-bit register.
    #[inline]
    pub const fn lanes(self) -> usize {
        (32 / self.bits()) as usize
    }

    /// Bit mask covering one lane (e.g. `0xf` for nibbles).
    #[inline]
    pub const fn lane_mask(self) -> u32 {
        // `bits()` is at most 16, so the shift never overflows.
        (1u32 << self.bits()) - 1
    }

    /// Returns true for the XpulpNN sub-byte formats (`n` and `c`).
    #[inline]
    pub const fn is_sub_byte(self) -> bool {
        matches!(self, SimdFmt::Nibble | SimdFmt::Crumb)
    }
}

/// Extracts lane `i` as an unsigned value.
///
/// # Panics
///
/// Panics if `i >= fmt.lanes()`.
#[inline]
pub fn lane_u(fmt: SimdFmt, word: u32, i: usize) -> u32 {
    assert!(i < fmt.lanes(), "lane index {i} out of range for {fmt:?}");
    (word >> (i as u32 * fmt.bits())) & fmt.lane_mask()
}

/// Extracts lane `i` as a sign-extended value.
///
/// # Panics
///
/// Panics if `i >= fmt.lanes()`.
#[inline]
pub fn lane_s(fmt: SimdFmt, word: u32, i: usize) -> i32 {
    let u = lane_u(fmt, word, i);
    let shift = 32 - fmt.bits();
    ((u << shift) as i32) >> shift
}

/// Returns `word` with lane `i` replaced by the low bits of `value`.
///
/// # Panics
///
/// Panics if `i >= fmt.lanes()`.
#[inline]
pub fn with_lane(fmt: SimdFmt, word: u32, i: usize, value: u32) -> u32 {
    assert!(i < fmt.lanes(), "lane index {i} out of range for {fmt:?}");
    let shift = i as u32 * fmt.bits();
    let mask = fmt.lane_mask() << shift;
    (word & !mask) | ((value & fmt.lane_mask()) << shift)
}

/// Packs an iterator of lane values (low bits of each `u32`) into a word.
///
/// Missing lanes are zero; extra lanes are ignored.
pub fn pack_lanes<I: IntoIterator<Item = u32>>(fmt: SimdFmt, lanes: I) -> u32 {
    let mut word = 0u32;
    for (i, v) in lanes.into_iter().take(fmt.lanes()).enumerate() {
        word = with_lane(fmt, word, i, v);
    }
    word
}

/// Unpacks a word into its unsigned lane values.
pub fn unpack_lanes_u(fmt: SimdFmt, word: u32) -> Vec<u32> {
    (0..fmt.lanes()).map(|i| lane_u(fmt, word, i)).collect()
}

/// Unpacks a word into its sign-extended lane values.
pub fn unpack_lanes_s(fmt: SimdFmt, word: u32) -> Vec<i32> {
    (0..fmt.lanes()).map(|i| lane_s(fmt, word, i)).collect()
}

/// Replicates the lowest lane of `scalar` across all lanes.
///
/// This implements the `.sc` ("scalar") addressing variant of the `pv.*`
/// instructions, where the second operand register holds a scalar that is
/// broadcast to every lane.
#[inline]
pub fn replicate(fmt: SimdFmt, scalar: u32) -> u32 {
    let lane = scalar & fmt.lane_mask();
    let mut word = 0u32;
    let mut i = 0;
    while i < fmt.lanes() {
        word |= lane << (i as u32 * fmt.bits());
        i += 1;
    }
    word
}

/// Applies a binary operation lane-wise over two packed words.
///
/// The closure receives sign-extended lane values and returns a full-width
/// result that is truncated back to the lane width, matching the modular
/// behaviour of the hardware ALU lanes.
pub fn zip_map_s(fmt: SimdFmt, a: u32, b: u32, mut op: impl FnMut(i32, i32) -> i32) -> u32 {
    let mut out = 0u32;
    for i in 0..fmt.lanes() {
        let r = op(lane_s(fmt, a, i), lane_s(fmt, b, i)) as u32;
        out = with_lane(fmt, out, i, r);
    }
    out
}

/// Applies a binary operation lane-wise over unsigned lane values.
pub fn zip_map_u(fmt: SimdFmt, a: u32, b: u32, mut op: impl FnMut(u32, u32) -> u32) -> u32 {
    let mut out = 0u32;
    for i in 0..fmt.lanes() {
        let r = op(lane_u(fmt, a, i), lane_u(fmt, b, i));
        out = with_lane(fmt, out, i, r);
    }
    out
}

/// Applies a unary operation lane-wise over sign-extended lane values.
pub fn map_s(fmt: SimdFmt, a: u32, mut op: impl FnMut(i32) -> i32) -> u32 {
    let mut out = 0u32;
    for i in 0..fmt.lanes() {
        let r = op(lane_s(fmt, a, i)) as u32;
        out = with_lane(fmt, out, i, r);
    }
    out
}

/// All dot-product signedness variants.
pub const ALL_DOT_SIGNS: [DotSign; 3] = DotSign::ALL;

/// Dot product with lane width and operand signedness fixed at compile
/// time: the const generics let the compiler fully unroll the lane loop
/// and drop every per-lane branch.
#[inline(always)]
fn dot_mono<const BITS: u32, const SA: bool, const SB: bool>(a: u32, b: u32) -> u32 {
    let lanes = 32 / BITS;
    let mask = (1u32 << BITS) - 1;
    let ext = 32 - BITS;
    let mut acc = 0u32;
    let mut i = 0;
    while i < lanes {
        let ua = (a >> (i * BITS)) & mask;
        let ub = (b >> (i * BITS)) & mask;
        let x: i64 = if SA {
            (((ua << ext) as i32) >> ext) as i64
        } else {
            ua as i64
        };
        let y: i64 = if SB {
            (((ub << ext) as i32) >> ext) as i64
        } else {
            ub as i64
        };
        acc = acc.wrapping_add((x * y) as u32);
        i += 1;
    }
    acc
}

/// Computes the packed dot product `sum_i a[i] * b[i]` as a 32-bit value.
///
/// Lane values are extended according to `sign` before multiplication;
/// the accumulation wraps modulo 2³², matching the 32-bit adder tree of
/// the dot-product unit (Fig. 3 of the paper).
///
/// The twelve-way `(fmt, sign)` match compiles to a jump table whose
/// arms inline fully unrolled lane loops, so a caller that always
/// passes the same pair (a kernel loop, a vector register fold) pays
/// one predicted indirect branch per word.
#[inline]
pub fn dotp(fmt: SimdFmt, sign: DotSign, a: u32, b: u32) -> u32 {
    macro_rules! pick {
        ($bits:expr) => {
            match sign {
                DotSign::UnsignedUnsigned => dot_mono::<$bits, false, false>(a, b),
                DotSign::UnsignedSigned => dot_mono::<$bits, false, true>(a, b),
                DotSign::SignedSigned => dot_mono::<$bits, true, true>(a, b),
            }
        };
    }
    match fmt {
        SimdFmt::Half => pick!(16),
        SimdFmt::Byte => pick!(8),
        SimdFmt::Nibble => pick!(4),
        SimdFmt::Crumb => pick!(2),
    }
}

/// Computes the packed sum-of-dot-product `acc + sum_i a[i] * b[i]`.
///
/// This is the MAC-equivalent `pv.sdot*` operation: the 32-bit adder tree
/// receives the previous accumulator as an extra input.
#[inline]
pub fn sdotp(fmt: SimdFmt, sign: DotSign, acc: u32, a: u32, b: u32) -> u32 {
    acc.wrapping_add(dotp(fmt, sign, a, b))
}

/// Lane-wise shift amounts use only `log2(lane width)` bits of the second
/// operand, mirroring how the hardware truncates per-lane shift amounts.
#[inline]
pub fn shift_amount(fmt: SimdFmt, raw: u32) -> u32 {
    raw % fmt.bits()
}

/// Lane-wise logical shift right.
pub fn srl(fmt: SimdFmt, a: u32, b: u32) -> u32 {
    zip_map_u(fmt, a, b, |x, s| x >> shift_amount(fmt, s))
}

/// Lane-wise arithmetic shift right.
pub fn sra(fmt: SimdFmt, a: u32, b: u32) -> u32 {
    let mut out = 0u32;
    for i in 0..fmt.lanes() {
        let s = shift_amount(fmt, lane_u(fmt, b, i));
        let r = (lane_s(fmt, a, i) >> s) as u32;
        out = with_lane(fmt, out, i, r);
    }
    out
}

/// Lane-wise shift left.
pub fn sll(fmt: SimdFmt, a: u32, b: u32) -> u32 {
    zip_map_u(fmt, a, b, |x, s| x << shift_amount(fmt, s))
}

/// Lane-wise absolute value (wraps at the most negative lane value, as the
/// hardware two's-complement negation does).
pub fn abs(fmt: SimdFmt, a: u32) -> u32 {
    map_s(fmt, a, i32::wrapping_abs)
}

/// Two-source lane shuffle (`pv.shuffle2`): for each lane `i` the
/// selector `sel[i]` picks source lane `sel mod lanes` from `a` when
/// `sel & lanes == 0`, and from `old_d` (the destination's previous
/// value) otherwise. Selector bits above the source-choice bit are
/// ignored, matching CV32E40P.
pub fn shuffle2(fmt: SimdFmt, old_d: u32, a: u32, sel: u32) -> u32 {
    let lanes = fmt.lanes() as u32;
    let mut out = 0u32;
    for i in 0..fmt.lanes() {
        let s = lane_u(fmt, sel, i);
        let idx = (s % lanes) as usize;
        let src = if s & lanes == 0 { a } else { old_d };
        out = with_lane(fmt, out, i, lane_u(fmt, src, idx));
    }
    out
}

/// Lane-wise signed average `(a + b) >> 1` with arithmetic shift.
pub fn avg(fmt: SimdFmt, a: u32, b: u32) -> u32 {
    zip_map_s(fmt, a, b, |x, y| (x.wrapping_add(y)) >> 1)
}

/// Lane-wise unsigned average `(a + b) >> 1` with logical shift.
pub fn avgu(fmt: SimdFmt, a: u32, b: u32) -> u32 {
    zip_map_u(fmt, a, b, |x, y| {
        (x.wrapping_add(y) & ((fmt.lane_mask() << 1) | 1)) >> 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_geometry() {
        assert_eq!(SimdFmt::Half.lanes(), 2);
        assert_eq!(SimdFmt::Byte.lanes(), 4);
        assert_eq!(SimdFmt::Nibble.lanes(), 8);
        assert_eq!(SimdFmt::Crumb.lanes(), 16);
        for fmt in ALL_FMTS {
            assert_eq!(fmt.lanes() as u32 * fmt.bits(), 32);
            assert_eq!(fmt.lane_mask().count_ones(), fmt.bits());
            assert_eq!(SimdFmt::from_mnemonic(fmt.mnemonic()), Some(fmt));
        }
        assert_eq!(SimdFmt::from_mnemonic("z"), None);
    }

    #[test]
    fn lane_extract_and_insert() {
        let w = 0x8765_4321u32;
        assert_eq!(lane_u(SimdFmt::Nibble, w, 0), 0x1);
        assert_eq!(lane_u(SimdFmt::Nibble, w, 7), 0x8);
        assert_eq!(lane_s(SimdFmt::Nibble, w, 7), -8);
        assert_eq!(lane_s(SimdFmt::Nibble, w, 2), 3);
        assert_eq!(lane_u(SimdFmt::Byte, w, 3), 0x87);
        assert_eq!(lane_s(SimdFmt::Byte, w, 3), -121);
        assert_eq!(lane_u(SimdFmt::Crumb, w, 0), 0b01);
        assert_eq!(lane_s(SimdFmt::Crumb, w, 1), 0); // 0b00
        assert_eq!(lane_s(SimdFmt::Crumb, w, 2), -2); // 0b10 -> -2
        assert_eq!(with_lane(SimdFmt::Nibble, w, 0, 0xf), 0x8765_432f);
        assert_eq!(with_lane(SimdFmt::Nibble, w, 7, 0x0), 0x0765_4321);
        // Value is masked to the lane width.
        assert_eq!(with_lane(SimdFmt::Nibble, 0, 0, 0x123), 0x3);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for fmt in ALL_FMTS {
            let w = 0xdead_beefu32;
            assert_eq!(pack_lanes(fmt, unpack_lanes_u(fmt, w)), w);
        }
    }

    #[test]
    fn replicate_broadcasts_low_lane() {
        assert_eq!(replicate(SimdFmt::Nibble, 0x5), 0x5555_5555);
        assert_eq!(replicate(SimdFmt::Crumb, 0b10), 0xaaaa_aaaa);
        assert_eq!(replicate(SimdFmt::Byte, 0x1ff), 0xffff_ffff);
        assert_eq!(replicate(SimdFmt::Half, 0x1234), 0x1234_1234);
    }

    #[test]
    fn dotp_signedness_variants() {
        // nibble vectors: a = [1, -1, 0, 0, ...], b = [2, 3, 0, ...]
        let a = pack_lanes(SimdFmt::Nibble, [1, 0xf, 0, 0, 0, 0, 0, 0]);
        let b = pack_lanes(SimdFmt::Nibble, [2, 3, 0, 0, 0, 0, 0, 0]);
        // signed × signed: 1*2 + (-1)*3 = -1
        assert_eq!(
            dotp(SimdFmt::Nibble, DotSign::SignedSigned, a, b) as i32,
            -1
        );
        // unsigned × unsigned: 1*2 + 15*3 = 47
        assert_eq!(dotp(SimdFmt::Nibble, DotSign::UnsignedUnsigned, a, b), 47);
        // unsigned × signed: 1*2 + 15*3 = 47 (b lanes are positive)
        assert_eq!(dotp(SimdFmt::Nibble, DotSign::UnsignedSigned, a, b), 47);
        // unsigned × signed with negative rhs: 15 * -1 = -15
        let bneg = pack_lanes(SimdFmt::Nibble, [0, 0xf, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            dotp(SimdFmt::Nibble, DotSign::UnsignedSigned, a, bneg) as i32,
            -15
        );
    }

    #[test]
    fn sdotp_accumulates() {
        let a = 0x1111_1111;
        let b = 0x1111_1111;
        // each nibble product = 1, eight lanes -> dotp = 8
        let d = dotp(SimdFmt::Nibble, DotSign::SignedSigned, a, b);
        assert_eq!(d, 8);
        assert_eq!(
            sdotp(SimdFmt::Nibble, DotSign::SignedSigned, 100, a, b),
            108
        );
        // wrap-around accumulation
        assert_eq!(
            sdotp(SimdFmt::Nibble, DotSign::SignedSigned, u32::MAX - 3, a, b),
            4
        );
    }

    #[test]
    fn crumb_dot_product_covers_sixteen_lanes() {
        // All lanes = 1 (0b01): 16 products of 1.
        let ones = 0x5555_5555;
        assert_eq!(dotp(SimdFmt::Crumb, DotSign::SignedSigned, ones, ones), 16);
        // All lanes = -1 (0b11) squared = 16 as well.
        let minus = 0xffff_ffff;
        assert_eq!(
            dotp(SimdFmt::Crumb, DotSign::SignedSigned, minus, minus),
            16
        );
        // unsigned: 3*3 per lane = 144
        assert_eq!(
            dotp(SimdFmt::Crumb, DotSign::UnsignedUnsigned, minus, minus),
            144
        );
    }

    #[test]
    fn shifts_truncate_amounts() {
        // nibble shift amounts use 2 bits: shifting by 5 == shifting by 1.
        let a = pack_lanes(SimdFmt::Nibble, [0b1000; 8]);
        let s5 = replicate(SimdFmt::Nibble, 5);
        let s1 = replicate(SimdFmt::Nibble, 1);
        assert_eq!(srl(SimdFmt::Nibble, a, s5), srl(SimdFmt::Nibble, a, s1));
        // arithmetic shift right keeps the sign.
        assert_eq!(lane_s(SimdFmt::Nibble, sra(SimdFmt::Nibble, a, s1), 0), -4);
        assert_eq!(
            lane_u(SimdFmt::Nibble, srl(SimdFmt::Nibble, a, s1), 0),
            0b100
        );
        // shift left drops bits out of the lane.
        assert_eq!(lane_u(SimdFmt::Nibble, sll(SimdFmt::Nibble, a, s1), 0), 0);
    }

    #[test]
    fn avg_is_arithmetic_for_signed_logical_for_unsigned() {
        let a = pack_lanes(SimdFmt::Byte, [0x80, 2, 0, 0]); // -128, 2
        let b = pack_lanes(SimdFmt::Byte, [0x80, 4, 0, 0]); // -128, 4
        let r = avg(SimdFmt::Byte, a, b);
        assert_eq!(lane_s(SimdFmt::Byte, r, 0), -128);
        assert_eq!(lane_s(SimdFmt::Byte, r, 1), 3);
        let ru = avgu(SimdFmt::Byte, a, b);
        assert_eq!(lane_u(SimdFmt::Byte, ru, 0), 128);
        assert_eq!(lane_u(SimdFmt::Byte, ru, 1), 3);
        // unsigned avg keeps the carry bit: (0xff + 0xff) >> 1 = 0xff
        let m = replicate(SimdFmt::Byte, 0xff);
        assert_eq!(lane_u(SimdFmt::Byte, avgu(SimdFmt::Byte, m, m), 0), 0xff);
    }

    #[test]
    fn shuffle2_selects_from_both_sources() {
        // bytes of a: [a0, a1, a2, a3] = [0x10, 0x11, 0x12, 0x13]
        // bytes of d: [d0, d1, d2, d3] = [0x20, 0x21, 0x22, 0x23]
        let a = 0x1312_1110u32;
        let d = 0x2322_2120u32;
        // selector lanes: 0 -> a0, 4|1 -> d1, 2 -> a2, 4|3 -> d3
        let sel = pack_lanes(SimdFmt::Byte, [0, 5, 2, 7]);
        let r = shuffle2(SimdFmt::Byte, d, a, sel);
        assert_eq!(r, u32::from_le_bytes([0x10, 0x21, 0x12, 0x23]));
        // The PULP-NN interleave: sel (0, 4, 1, 5) weaves a and d.
        let sel = pack_lanes(SimdFmt::Byte, [0, 4, 1, 5]);
        let r = shuffle2(SimdFmt::Byte, d, a, sel);
        assert_eq!(r, u32::from_le_bytes([0x10, 0x20, 0x11, 0x21]));
    }

    #[test]
    fn abs_wraps_at_minimum() {
        let a = pack_lanes(SimdFmt::Nibble, [0x8, 0xf, 3, 0, 0, 0, 0, 0]); // -8, -1, 3
        let r = abs(SimdFmt::Nibble, a);
        assert_eq!(lane_s(SimdFmt::Nibble, r, 0), -8); // |-8| wraps to -8 in 4 bits
        assert_eq!(lane_s(SimdFmt::Nibble, r, 1), 1);
        assert_eq!(lane_s(SimdFmt::Nibble, r, 2), 3);
    }
}
