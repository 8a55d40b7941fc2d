//! The cycle-attribution ledger's global invariant, checked over every
//! variant of the paper's benchmark layer: each retired instruction's
//! cycles land in exactly one bucket, so the buckets always sum to the
//! cycle counter. The core re-checks this with a `debug_assert!` at every
//! retire; these tests assert it explicitly so release builds (where
//! `debug_assert!` compiles out) are covered too.

use riscv_core::perf::ALL_CYCLE_CLASSES;
use riscv_core::CycleClass;
use xpulpnn::measure::{measure_paper_layer, profile_paper_layer};
use xpulpnn::report::Record;
use xpulpnn::{BitWidth, KernelIsa};

/// `cycles == Σ bucket cycles` for all 12 paper-layer variants
/// (3 widths × 2 ISAs × hw-quant on/off).
#[test]
fn ledger_balances_for_every_paper_variant() {
    for bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
        for isa in [KernelIsa::XpulpV2, KernelIsa::XpulpNN] {
            for hw in [false, true] {
                let m = measure_paper_layer(bits, isa, hw, 42)
                    .unwrap_or_else(|e| panic!("{bits}/{isa}/hw={hw}: {e}"));
                assert_eq!(
                    m.perf.cycles,
                    m.perf.ledger.total(),
                    "{bits}/{isa}/hw={hw}: ledger out of balance"
                );
                // The run did real work in the expected units.
                assert!(m.perf.ledger.get(CycleClass::Load) > 0);
                assert!(m.perf.ledger.get(CycleClass::HwLoop) > 0);
            }
        }
    }
}

/// Attribution is architecturally sensible: native sub-byte kernels on
/// the extended core spend their MAC cycles in the matching-format dotp
/// bucket, the baseline never touches sub-byte datapaths, and pv.qnt
/// cycles appear exactly when the hardware quantizer is in use.
#[test]
fn attribution_matches_the_datapath_in_use() {
    let nn4 = measure_paper_layer(BitWidth::W4, KernelIsa::XpulpNN, true, 42).unwrap();
    let l = &nn4.perf.ledger;
    assert!(l.get(CycleClass::Dotp(pulp_isa::SimdFmt::Nibble)) > 0);
    assert_eq!(l.get(CycleClass::Dotp(pulp_isa::SimdFmt::Crumb)), 0);
    assert!(
        l.get(CycleClass::Qnt) > 0,
        "hw-quant run must charge the qnt bucket"
    );

    let sw4 = measure_paper_layer(BitWidth::W4, KernelIsa::XpulpNN, false, 42).unwrap();
    assert_eq!(sw4.perf.ledger.get(CycleClass::Qnt), 0);

    let v2 = measure_paper_layer(BitWidth::W4, KernelIsa::XpulpV2, false, 42).unwrap();
    let lb = &v2.perf.ledger;
    for fmt in [pulp_isa::SimdFmt::Nibble, pulp_isa::SimdFmt::Crumb] {
        assert_eq!(
            lb.get(CycleClass::Dotp(fmt)),
            0,
            "baseline must not use {fmt:?} dotp"
        );
        assert_eq!(lb.get(CycleClass::SimdAlu(fmt)), 0);
    }
    assert_eq!(lb.get(CycleClass::Qnt), 0);
}

/// The traced profile agrees with the untraced measurement: attaching
/// the tracer never perturbs timing, the hot-PC histogram accounts for
/// every cycle, and the JSON report carries a balanced ledger.
#[test]
fn profile_is_consistent_with_measurement() {
    let m = measure_paper_layer(BitWidth::W4, KernelIsa::XpulpNN, true, 42).unwrap();
    let p = profile_paper_layer(BitWidth::W4, KernelIsa::XpulpNN, true, 42, 10).unwrap();
    assert_eq!(p.perf, m.perf, "tracing must not perturb the run");
    assert_eq!(p.perf.cycles, p.perf.ledger.total());

    // Every class is either in the ledger entries or zero.
    let entry_sum: u64 = ALL_CYCLE_CLASSES
        .iter()
        .map(|&c| p.perf.ledger.get(c))
        .sum();
    assert_eq!(entry_sum, p.perf.cycles);

    // Hotspots are sorted descending and genuinely hot: the top entry of
    // this kernel is from the inner loop, executed once per dot-product.
    assert!(!p.hotspots.is_empty());
    for w in p.hotspots.windows(2) {
        assert!(w[0].cycles >= w[1].cycles);
    }

    let json = Record::from(&p).to_json();
    assert!(json.contains(&format!("\"cycles\": {}", p.perf.cycles)));
    assert!(json.contains(&format!("\"total\": {}", p.perf.cycles)));
}
