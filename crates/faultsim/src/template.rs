//! Template-corruption faults: seeded single-bit strikes against a
//! *stored* [`SocSnapshot`] rather than a running core.
//!
//! The serving layer keeps one pre-staged snapshot per kernel variant
//! and forks every worker from it, so a soft error striking that
//! checkpoint while it sits in host memory poisons *every* subsequent
//! fork — a much wider blast radius than the transient flips in
//! [`crate::plan`]. [`TemplateStrike`] models exactly that: a seeded,
//! replayable flip of one L2 bit inside the snapshot, which the
//! template checksum ([`SocSnapshot::checksum`]) must catch on the
//! next fork so the template can be quarantined and rebuilt.

use pulp_soc::SocSnapshot;
use xrand::Rng;

/// One seeded single-bit strike against a stored snapshot's L2 image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateStrike {
    /// The seed the strike was derived from (for replay/reporting).
    pub seed: u64,
    /// Byte offset into the logical 512 KiB L2 image (wrapped into
    /// range at apply time). The snapshot stores only non-zero pages; a
    /// strike on an absent page stores it, so the checksum still fails.
    pub offset: usize,
    /// Bit index in `0..8`.
    pub bit: u8,
}

impl TemplateStrike {
    /// Derives a strike from `seed`. Identical seeds always yield the
    /// identical strike, so a corruption campaign replays exactly.
    pub fn generate(seed: u64) -> TemplateStrike {
        let mut rng = Rng::new(seed ^ 0x7e3b_1a7e_c0cc_0c75);
        TemplateStrike {
            seed,
            offset: rng.below(pulp_soc::L2_SIZE as u64) as usize,
            bit: rng.below(8) as u8,
        }
    }

    /// Applies the strike to a stored snapshot (flips the bit).
    /// Applying the same strike twice restores the original image.
    pub fn apply(&self, snap: &mut SocSnapshot) {
        snap.corrupt_l2_bit(self.offset, self.bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_asm::Asm;
    use pulp_isa::Reg;
    use pulp_soc::{Soc, CODE_BASE};
    use riscv_core::IsaConfig;

    fn snapshot() -> SocSnapshot {
        let mut a = Asm::new(CODE_BASE);
        a.li(Reg::A0, 1);
        a.ecall();
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&a.assemble().unwrap());
        soc.snapshot()
    }

    #[test]
    fn strikes_are_seed_deterministic_and_checksum_visible() {
        assert_eq!(TemplateStrike::generate(9), TemplateStrike::generate(9));
        assert_ne!(TemplateStrike::generate(9), TemplateStrike::generate(10));

        let snap = snapshot();
        let clean = snap.checksum();
        let mut struck = snap.clone();
        let strike = TemplateStrike::generate(9);
        strike.apply(&mut struck);
        assert_ne!(struck.checksum(), clean, "strike must be detectable");
        strike.apply(&mut struck);
        assert_eq!(struck.checksum(), clean, "double strike restores");
    }
}
