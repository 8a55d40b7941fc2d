//! Vector-extension register and element-width types.
//!
//! The second compute backend models an RVV-style integer vector unit
//! (the Quark/Ara lineage) rather than another packed-SIMD datapath:
//! 32 architectural vector registers of VLEN bits each, a `vl`/`vtype`
//! configuration register written by `vsetvli`, and *effective* element
//! widths that extend below one byte (2- and 4-bit elements packed
//! contiguously inside the register, exactly like the XpulpNN
//! nibble/crumb packing but over the whole vector register instead of a
//! 32-bit word).
//!
//! The subset is deliberately small — `m1` only (no LMUL grouping), no
//! masking, tail-zero semantics — because the comparison in
//! EXPERIMENTS.md needs a *deterministic, snapshot-friendly* model, not
//! full RVV conformance. DESIGN.md §15 documents every deviation.

use std::fmt;

/// One of the 32 architectural vector registers `v0`–`v31`.
///
/// Unlike [`crate::Reg`] there are no ABI names; the numeric form is
/// canonical in both directions.
///
/// # Example
///
/// ```
/// use pulp_isa::vec::VReg;
///
/// assert_eq!(VReg::new(4).unwrap().index(), 4);
/// assert_eq!(VReg::new(4).unwrap().to_string(), "v4");
/// assert_eq!(VReg::parse("v4"), VReg::new(4));
/// assert_eq!(VReg::new(32), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(u8);

impl VReg {
    /// Vector register 0 (the kernels' primary working register).
    pub const V0: VReg = VReg(0);

    /// Returns the register with the given index, or `None` if
    /// `idx >= 32`.
    #[inline]
    pub const fn new(idx: usize) -> Option<VReg> {
        if idx < 32 {
            Some(VReg(idx as u8))
        } else {
            None
        }
    }

    /// Returns the register for a 5-bit field extracted from an
    /// encoding (masks to 5 bits like [`crate::Reg::from_bits`]).
    #[inline]
    pub const fn from_bits(bits: u32) -> VReg {
        VReg((bits & 0x1f) as u8)
    }

    /// Returns the raw register index in `0..32`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Parses the numeric name (`"v12"`).
    pub fn parse(name: &str) -> Option<VReg> {
        let rest = name.strip_prefix('v')?;
        // Reject forms like "v04" so Display∘parse is the identity.
        if rest.len() > 1 && rest.starts_with('0') {
            return None;
        }
        rest.parse::<usize>().ok().and_then(VReg::new)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<VReg> for u32 {
    fn from(r: VReg) -> u32 {
        r.0 as u32
    }
}

pub use crate::table::VecSew;

/// All element widths, narrowest first; useful for sweeps in tests.
pub const ALL_SEWS: [VecSew; 4] = VecSew::ALL;

impl VecSew {
    /// Element width in bits.
    #[inline]
    pub const fn bits(self) -> u32 {
        match self {
            VecSew::E2 => 2,
            VecSew::E4 => 4,
            VecSew::E8 => 8,
            VecSew::E16 => 16,
        }
    }

    /// True for the widths a byte-addressed stride can express
    /// (strided accesses require whole-byte elements).
    #[inline]
    pub const fn is_byte_multiple(self) -> bool {
        matches!(self, VecSew::E8 | VecSew::E16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vreg_round_trip() {
        for i in 0..32 {
            let r = VReg::new(i).unwrap();
            assert_eq!(r.index(), i);
            assert_eq!(VReg::from_bits(i as u32), r);
            assert_eq!(VReg::parse(&r.to_string()), Some(r));
        }
        assert_eq!(VReg::new(32), None);
        assert_eq!(VReg::parse("v32"), None);
        assert_eq!(VReg::parse("v04"), None);
        assert_eq!(VReg::parse("a0"), None);
        assert_eq!(VReg::parse("v"), None);
    }

    #[test]
    fn sew_geometry_and_codes() {
        for sew in ALL_SEWS {
            assert_eq!(VecSew::from_code(sew.code()), Some(sew));
            assert_eq!(VecSew::from_mnemonic(sew.mnemonic()), Some(sew));
            assert_eq!(sew.to_string(), sew.mnemonic());
        }
        assert_eq!(VecSew::E2.bits(), 2);
        assert_eq!(VecSew::E16.bits(), 16);
        assert!(!VecSew::E4.is_byte_multiple());
        assert!(VecSew::E8.is_byte_multiple());
        assert_eq!(VecSew::from_mnemonic("e32"), None);
    }
}
