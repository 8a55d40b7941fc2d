//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each `figure*`/`table*` function returns a typed result with a
//! `Display` implementation that prints the same rows/series the paper
//! reports, side by side with the paper's own numbers where the paper
//! states them. [`run_all`] produces the complete report (the content of
//! EXPERIMENTS.md).

use crate::measure::{measure, Error, LayerMeasurement};
use crate::report::Table;
use cortexm_model::{STM32H743, STM32L476};
use pulp_kernels::{ConvKernelConfig, KernelIsa};
use pulp_power::{
    efficiency_gmac_s_w, matmul_workload, soc_power_mw, AreaBreakdown, CoreVariant, Workload,
};
use qnn::conv::ConvShape;
use qnn::BitWidth;
use riscv_core::perf::ALL_CYCLE_CLASSES;
use std::fmt;

/// Paper-stated speedup of the 4-bit kernel, extended vs baseline core.
pub const PAPER_SPEEDUP_W4: f64 = 5.3;
/// Paper-stated speedup of the 2-bit kernel.
pub const PAPER_SPEEDUP_W2: f64 = 8.9;
/// Paper-stated kernel-cycle reduction from `pv.qnt`, 4-bit.
pub const PAPER_QNT_GAIN_W4: f64 = 1.21;
/// Paper-stated kernel-cycle reduction from `pv.qnt`, 2-bit.
pub const PAPER_QNT_GAIN_W2: f64 = 1.16;
/// Paper-stated maximum energy-efficiency gain over the baseline.
pub const PAPER_EFF_GAIN_MAX: f64 = 9.0;
/// Paper-stated 2-bit efficiency ratio vs the STM32L4.
pub const PAPER_EFF_VS_L4_W2: f64 = 103.0;
/// Paper-stated 2-bit efficiency ratio vs the STM32H7.
pub const PAPER_EFF_VS_H7_W2: f64 = 354.0;

/// All paper-layer measurements the figures draw from, verified against
/// the golden model.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// 8-bit kernel (identical on both cores; measured on the baseline).
    pub w8: LayerMeasurement,
    /// 4-bit on the baseline (software unpack + software quantization).
    pub w4_v2: LayerMeasurement,
    /// 4-bit on the extended core with software quantization.
    pub w4_nn_sw: LayerMeasurement,
    /// 4-bit on the extended core with `pv.qnt`.
    pub w4_nn_hw: LayerMeasurement,
    /// 2-bit on the baseline.
    pub w2_v2: LayerMeasurement,
    /// 2-bit on the extended core with software quantization.
    pub w2_nn_sw: LayerMeasurement,
    /// 2-bit on the extended core with `pv.qnt`.
    pub w2_nn_hw: LayerMeasurement,
}

impl Measurements {
    /// The benchmark layer geometry.
    pub fn shape(&self) -> ConvShape {
        self.w8.cfg.shape
    }
}

/// Runs the full measurement matrix on the paper layer.
///
/// # Errors
///
/// Propagates the first kernel failure (build, trap or golden
/// mismatch).
pub fn collect(seed: u64) -> Result<Measurements, Error> {
    let m = |bits, isa, hw| measure(ConvKernelConfig::paper(bits, isa, hw), seed);
    Ok(Measurements {
        w8: m(BitWidth::W8, KernelIsa::XpulpV2, false)?,
        w4_v2: m(BitWidth::W4, KernelIsa::XpulpV2, false)?,
        w4_nn_sw: m(BitWidth::W4, KernelIsa::XpulpNN, false)?,
        w4_nn_hw: m(BitWidth::W4, KernelIsa::XpulpNN, true)?,
        w2_v2: m(BitWidth::W2, KernelIsa::XpulpV2, false)?,
        w2_nn_sw: m(BitWidth::W2, KernelIsa::XpulpNN, false)?,
        w2_nn_hw: m(BitWidth::W2, KernelIsa::XpulpNN, true)?,
    })
}

// ---------------------------------------------------------------- Fig. 6

/// One row of Fig. 6: software vs hardware quantization on the extended
/// core, plus the sub-byte-vs-8-bit scaling.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Operand width.
    pub bits: BitWidth,
    /// Kernel cycles with the software tree.
    pub cycles_sw: u64,
    /// Kernel cycles with `pv.qnt`.
    pub cycles_hw: u64,
    /// Measured reduction (`sw / hw`).
    pub qnt_gain: f64,
    /// The paper's reduction.
    pub paper_qnt_gain: f64,
    /// Measured speedup vs the 8-bit kernel (with `pv.qnt`).
    pub scaling_vs_w8: f64,
    /// Ideal linear scaling (8 / bits).
    pub ideal_scaling: f64,
}

/// Fig. 6: impact of `pv.qnt` and linear scaling of sub-byte kernels.
#[derive(Debug, Clone)]
pub struct Figure6 {
    /// 8-bit reference cycles.
    pub w8_cycles: u64,
    /// The 4- and 2-bit rows.
    pub rows: [Fig6Row; 2],
}

/// Computes Fig. 6 from the measurement matrix.
pub fn figure6(m: &Measurements) -> Figure6 {
    let row = |bits, sw: &LayerMeasurement, hw: &LayerMeasurement, paper| Fig6Row {
        bits,
        cycles_sw: sw.cycles,
        cycles_hw: hw.cycles,
        qnt_gain: sw.cycles as f64 / hw.cycles as f64,
        paper_qnt_gain: paper,
        scaling_vs_w8: m.w8.cycles as f64 / hw.cycles as f64,
        ideal_scaling: 8.0 / bits_of(bits),
    };
    Figure6 {
        w8_cycles: m.w8.cycles,
        rows: [
            row(BitWidth::W4, &m.w4_nn_sw, &m.w4_nn_hw, PAPER_QNT_GAIN_W4),
            row(BitWidth::W2, &m.w2_nn_sw, &m.w2_nn_hw, PAPER_QNT_GAIN_W2),
        ],
    }
}

fn bits_of(b: BitWidth) -> f64 {
    b.bits() as f64
}

impl fmt::Display for Figure6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6 — pv.qnt impact and sub-byte scaling (8-bit reference: {} cycles)",
            self.w8_cycles
        )?;
        let mut t = Table::new(&[
            "kernel",
            "cycles (sw quant)",
            "cycles (pv.qnt)",
            "gain",
            "paper gain",
            "scaling vs 8-bit",
            "ideal",
        ]);
        for r in &self.rows {
            t.row(&[
                r.bits.to_string(),
                r.cycles_sw.to_string(),
                r.cycles_hw.to_string(),
                format!("{:.2}x", r.qnt_gain),
                format!("{:.2}x", r.paper_qnt_gain),
                format!("{:.2}x", r.scaling_vs_w8),
                format!("{:.2}x", r.ideal_scaling),
            ]);
        }
        t.fmt(f)
    }
}

// ---------------------------------------------------------------- Fig. 7

/// One row of Fig. 7: energy-efficiency gain over the baseline core.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Operand width.
    pub bits: BitWidth,
    /// Extended-core efficiency in GMAC/s/W (power-managed design).
    pub eff_ext: f64,
    /// Baseline-core efficiency on the same workload.
    pub eff_base: f64,
    /// Measured gain.
    pub gain: f64,
}

/// Fig. 7: energy efficiency of the extended core vs the baseline.
#[derive(Debug, Clone)]
pub struct Figure7 {
    /// One row per operand width.
    pub rows: [Fig7Row; 3],
    /// The paper's stated maximum gain (9×, on the 2-bit kernel).
    pub paper_max_gain: f64,
}

/// Computes Fig. 7.
pub fn figure7(m: &Measurements) -> Figure7 {
    let row = |bits: BitWidth, ext: &LayerMeasurement, base: &LayerMeasurement| {
        let wl = matmul_workload(bits.bits());
        let eff_ext =
            efficiency_gmac_s_w(ext.macs, ext.cycles, soc_power_mw(CoreVariant::ExtPm, wl));
        let eff_base =
            efficiency_gmac_s_w(base.macs, base.cycles, soc_power_mw(CoreVariant::Ri5cy, wl));
        Fig7Row {
            bits,
            eff_ext,
            eff_base,
            gain: eff_ext / eff_base,
        }
    };
    Figure7 {
        rows: [
            row(BitWidth::W8, &m.w8, &m.w8),
            row(BitWidth::W4, &m.w4_nn_hw, &m.w4_v2),
            row(BitWidth::W2, &m.w2_nn_hw, &m.w2_v2),
        ],
        paper_max_gain: PAPER_EFF_GAIN_MAX,
    }
}

impl fmt::Display for Figure7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7 — energy efficiency vs baseline RI5CY (paper: up to {:.0}x)",
            self.paper_max_gain
        )?;
        let mut t = Table::new(&["kernel", "ext [GMAC/s/W]", "baseline [GMAC/s/W]", "gain"]);
        for r in &self.rows {
            t.row(&[
                r.bits.to_string(),
                format!("{:.1}", r.eff_ext),
                format!("{:.1}", r.eff_base),
                format!("{:.2}x", r.gain),
            ]);
        }
        t.fmt(f)
    }
}

// ---------------------------------------------------------------- Fig. 8

/// One row of Fig. 8: layer cycles on the four platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    /// Operand width.
    pub bits: BitWidth,
    /// Extended core (best kernel).
    pub xpulpnn: u64,
    /// Baseline RI5CY.
    pub ri5cy: u64,
    /// STM32L476 model.
    pub stm32l4: u64,
    /// STM32H743 model.
    pub stm32h7: u64,
    /// Measured speedup of the extended core over the baseline.
    pub speedup_vs_ri5cy: f64,
    /// Paper's speedup (1.0 at 8-bit, 5.3/8.9 sub-byte).
    pub paper_speedup: f64,
}

/// Fig. 8: execution cycles across architectures.
#[derive(Debug, Clone)]
pub struct Figure8 {
    /// One row per width.
    pub rows: [Fig8Row; 3],
}

/// Computes Fig. 8 (the Cortex-M numbers come from the CMSIS-NN cost
/// model).
pub fn figure8(m: &Measurements) -> Figure8 {
    let shape = m.shape();
    let row = |bits: BitWidth, ext: &LayerMeasurement, base: &LayerMeasurement, paper| Fig8Row {
        bits,
        xpulpnn: ext.cycles,
        ri5cy: base.cycles,
        stm32l4: STM32L476.conv_cycles(&shape, bits),
        stm32h7: STM32H743.conv_cycles(&shape, bits),
        speedup_vs_ri5cy: base.cycles as f64 / ext.cycles as f64,
        paper_speedup: paper,
    };
    Figure8 {
        rows: [
            row(BitWidth::W8, &m.w8, &m.w8, 1.0),
            row(BitWidth::W4, &m.w4_nn_hw, &m.w4_v2, PAPER_SPEEDUP_W4),
            row(BitWidth::W2, &m.w2_nn_hw, &m.w2_v2, PAPER_SPEEDUP_W2),
        ],
    }
}

impl fmt::Display for Figure8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 8 — execution cycles per convolution layer")?;
        let mut t = Table::new(&[
            "kernel",
            "XpulpNN core",
            "RI5CY",
            "STM32L4",
            "STM32H7",
            "speedup vs RI5CY",
            "paper",
        ]);
        for r in &self.rows {
            t.row(&[
                r.bits.to_string(),
                r.xpulpnn.to_string(),
                r.ri5cy.to_string(),
                r.stm32l4.to_string(),
                r.stm32h7.to_string(),
                format!("{:.2}x", r.speedup_vs_ri5cy),
                format!("{:.1}x", r.paper_speedup),
            ]);
        }
        t.fmt(f)
    }
}

// ---------------------------------------------------------------- Fig. 9

/// One row of Fig. 9: energy efficiency across the platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    /// Operand width.
    pub bits: BitWidth,
    /// Extended core, GMAC/s/W.
    pub xpulpnn: f64,
    /// Baseline RI5CY.
    pub ri5cy: f64,
    /// STM32L476.
    pub stm32l4: f64,
    /// STM32H743.
    pub stm32h7: f64,
}

/// Fig. 9: efficiency comparison, with the 2-bit ratios the paper
/// headlines.
#[derive(Debug, Clone)]
pub struct Figure9 {
    /// One row per width.
    pub rows: [Fig9Row; 3],
    /// Measured 2-bit ratio vs the L4 (paper: 103×).
    pub ratio_vs_l4_w2: f64,
    /// Measured 2-bit ratio vs the H7 (paper: 354×).
    pub ratio_vs_h7_w2: f64,
}

/// Computes Fig. 9.
pub fn figure9(m: &Measurements) -> Figure9 {
    let shape = m.shape();
    let row = |bits: BitWidth, ext: &LayerMeasurement, base: &LayerMeasurement| {
        let wl = matmul_workload(bits.bits());
        Fig9Row {
            bits,
            xpulpnn: efficiency_gmac_s_w(
                ext.macs,
                ext.cycles,
                soc_power_mw(CoreVariant::ExtPm, wl),
            ),
            ri5cy: efficiency_gmac_s_w(
                base.macs,
                base.cycles,
                soc_power_mw(CoreVariant::Ri5cy, wl),
            ),
            stm32l4: STM32L476.conv_gmac_per_s_per_w(&shape, bits),
            stm32h7: STM32H743.conv_gmac_per_s_per_w(&shape, bits),
        }
    };
    let rows = [
        row(BitWidth::W8, &m.w8, &m.w8),
        row(BitWidth::W4, &m.w4_nn_hw, &m.w4_v2),
        row(BitWidth::W2, &m.w2_nn_hw, &m.w2_v2),
    ];
    Figure9 {
        ratio_vs_l4_w2: rows[2].xpulpnn / rows[2].stm32l4,
        ratio_vs_h7_w2: rows[2].xpulpnn / rows[2].stm32h7,
        rows,
    }
}

impl fmt::Display for Figure9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 9 — energy efficiency [GMAC/s/W]")?;
        let mut t = Table::new(&["kernel", "XpulpNN core", "RI5CY", "STM32L4", "STM32H7"]);
        for r in &self.rows {
            t.row(&[
                r.bits.to_string(),
                format!("{:.1}", r.xpulpnn),
                format!("{:.1}", r.ri5cy),
                format!("{:.2}", r.stm32l4),
                format!("{:.2}", r.stm32h7),
            ]);
        }
        t.fmt(f)?;
        writeln!(
            f,
            "2-bit ratio vs STM32L4: {:.0}x (paper {:.0}x); vs STM32H7: {:.0}x (paper {:.0}x)",
            self.ratio_vs_l4_w2, PAPER_EFF_VS_L4_W2, self.ratio_vs_h7_w2, PAPER_EFF_VS_H7_W2
        )
    }
}

// ---------------------------------------------------------------- Table I

/// Table I with the "This Work" row computed from measurements.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Literature rows plus the computed row.
    pub rows: Vec<pulp_power::PlatformRow>,
}

/// Computes Table I: the literature rows plus a "This Work" row whose
/// throughput/efficiency extremes come from the measured 8-bit and
/// 2-bit kernels.
pub fn table1(m: &Measurements) -> Table1 {
    let f9 = figure9(m);
    let min_gmacs = m.w8.gmacs();
    let max_gmacs = m.w2_nn_hw.gmacs();
    let min_eff = f9.rows[0].xpulpnn.min(f9.rows[0].ri5cy);
    let max_eff = f9.rows[2].xpulpnn;
    let mut rows = pulp_power::TABLE1_LITERATURE.to_vec();
    rows.push(pulp_power::this_work_row(
        min_gmacs, max_gmacs, min_eff, max_eff,
    ));
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table I — QNN embedded computing platforms")?;
        let mut t = Table::new(&[
            "platform",
            "perf [Gop/s]",
            "eff [Gop/s/W]",
            "budget [mW]",
            "flexibility",
        ]);
        for r in &self.rows {
            t.row(&[
                r.name.to_string(),
                format!("{:.1} - {:.0}", r.gops.0, r.gops.1),
                format!("{:.1} - {:.0}", r.gops_w.0, r.gops_w.1),
                format!("{:.0} - {:.0}", r.budget_mw.0, r.budget_mw.1),
                r.flexibility.to_string(),
            ]);
        }
        t.fmt(f)
    }
}

// --------------------------------------------------------------- Table III

/// Table III reproduction: the calibrated area/power model echoed with
/// its self-consistency figures.
#[derive(Debug, Clone, Copy)]
pub struct Table3;

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table III — area and power (22 nm FDX model, calibrated)"
        )?;
        let mut t = Table::new(&[
            "unit",
            "RI5CY [um2]",
            "ext no-PM [um2]",
            "ext PM [um2]",
            "PM overhead",
        ]);
        let b = AreaBreakdown::of(CoreVariant::Ri5cy);
        let n = AreaBreakdown::of(CoreVariant::ExtNoPm);
        let p = AreaBreakdown::of(CoreVariant::ExtPm);
        let rows: [(&str, f64, f64, f64); 5] = [
            ("total", b.total, n.total, p.total),
            ("dotp unit", b.dotp_unit, n.dotp_unit, p.dotp_unit),
            ("ID stage", b.id_stage, n.id_stage, p.id_stage),
            ("EX stage", b.ex_stage, n.ex_stage, p.ex_stage),
            ("LSU", b.lsu, n.lsu, p.lsu),
        ];
        for (name, base, no_pm, pm) in rows {
            t.row(&[
                name.to_string(),
                format!("{base:.1}"),
                format!("{no_pm:.1}"),
                format!("{pm:.1}"),
                format!("{:.1}%", (pm - base) / base * 100.0),
            ]);
        }
        t.fmt(f)?;
        writeln!(f)?;
        let mut t = Table::new(&[
            "SoC power @0.75V/250MHz",
            "RI5CY [mW]",
            "ext no-PM [mW]",
            "ext PM [mW]",
        ]);
        for (name, wl) in [
            ("8-bit MatMul", Workload::MatMul8),
            ("4-bit MatMul", Workload::MatMul4),
            ("2-bit MatMul", Workload::MatMul2),
            ("GP application", Workload::GeneralPurpose),
        ] {
            t.row(&[
                name.to_string(),
                format!("{:.2}", soc_power_mw(CoreVariant::Ri5cy, wl)),
                format!("{:.2}", soc_power_mw(CoreVariant::ExtNoPm, wl)),
                format!("{:.2}", soc_power_mw(CoreVariant::ExtPm, wl)),
            ]);
        }
        t.fmt(f)
    }
}

// ------------------------------------------------------- PM ablation

/// The power-management ablation (§III-B1/§IV-A): clock gating on the
/// dotp unit's bitwidth regions plus operand isolation on the
/// quantization unit, on and off, for each kernel and for the
/// general-purpose workload the extension must not tax.
struct PmAblation<'a>(&'a Measurements);

impl fmt::Display for PmAblation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        writeln!(f, "Ablation — clock gating + operand isolation (Table III)")?;
        let mut t = Table::new(&["kernel", "no-PM [GMAC/s/W]", "PM [GMAC/s/W]", "PM gain"]);
        for (name, lm) in [
            ("8-bit MatMul", &m.w8),
            ("4-bit MatMul (pv.qnt)", &m.w4_nn_hw),
            ("2-bit MatMul (pv.qnt)", &m.w2_nn_hw),
        ] {
            let wl = matmul_workload(lm.cfg.bits.bits());
            let eff = |v| efficiency_gmac_s_w(lm.macs, lm.cycles, soc_power_mw(v, wl));
            let (no_pm, pm) = (eff(CoreVariant::ExtNoPm), eff(CoreVariant::ExtPm));
            t.row(&[
                name.to_string(),
                format!("{no_pm:.1}"),
                format!("{pm:.1}"),
                format!("{:.2}x", pm / no_pm),
            ]);
        }
        t.fmt(f)?;
        let gp = |v| soc_power_mw(v, Workload::GeneralPurpose);
        let base = gp(CoreVariant::Ri5cy);
        let (no_pm, pm) = (gp(CoreVariant::ExtNoPm), gp(CoreVariant::ExtPm));
        write!(
            f,
            "general-purpose app power: baseline {base:.2} mW, ext no-PM {no_pm:.2} mW \
             (+{:.1}%), ext PM {pm:.2} mW (+{:.1}%)",
            (no_pm - base) / base * 100.0,
            (pm - base) / base * 100.0
        )
    }
}

// ------------------------------------------------------ quant microbench

/// The §III-A claim in isolation: `pv.qnt` latency vs the software tree.
#[derive(Debug, Clone, Copy)]
pub struct QuantMicrobench {
    /// Measured `pv.qnt.n` cycles (two activations).
    pub hw_nibble_pair: u64,
    /// Measured `pv.qnt.c` cycles (two activations).
    pub hw_crumb_pair: u64,
    /// Measured software-tree cycles for one 4-bit activation.
    pub sw_nibble_single: u64,
    /// Measured software-tree cycles for one 2-bit activation.
    pub sw_crumb_single: u64,
}

impl QuantMicrobench {
    /// Per-activation advantage of the hardware unit, 4-bit.
    pub fn nibble_gain(&self) -> f64 {
        self.sw_nibble_single as f64 / (self.hw_nibble_pair as f64 / 2.0)
    }
}

/// Measures quantization latencies with tiny dedicated programs.
///
/// # Errors
///
/// Propagates simulator traps (which would indicate a model bug).
pub fn quant_microbench() -> Result<QuantMicrobench, Error> {
    use pulp_asm::Asm;
    use pulp_isa::Reg;
    use pulp_isa::SimdFmt;
    use riscv_core::quant::{eytzinger, tree_stride};
    use riscv_core::{Core, IsaConfig, SliceMem};

    let measure_block = |emit: &dyn Fn(&mut Asm), fmt: SimdFmt| -> Result<u64, Error> {
        let mut a = Asm::new(0);
        a.equ("thr", 0x4000);
        a.la(Reg::A2, "thr");
        a.li(Reg::A1, 1234);
        emit(&mut a);
        a.ecall();
        let prog = a.assemble().map_err(|e| Error::Build(e.to_string()))?;
        let mut mem = SliceMem::new(0, 1 << 16);
        mem.load_program(&prog);
        let n = (1usize << fmt.bits()) - 1;
        let sorted: Vec<i16> = (0..n).map(|i| (i as i16 - n as i16 / 2) * 100).collect();
        let heap = eytzinger(&sorted);
        for tree in 0..2u32 {
            for (i, t) in heap.iter().enumerate() {
                mem.as_bytes_mut()[(0x4000 + tree * tree_stride(fmt) + i as u32 * 2) as usize
                    ..(0x4000 + tree * tree_stride(fmt) + i as u32 * 2 + 2) as usize]
                    .copy_from_slice(&t.to_le_bytes());
            }
        }
        let mut core = Core::new(IsaConfig::xpulpnn());
        core.pc = prog.base;
        // Baseline program: everything but the payload.
        core.run(&mut mem, 1_000_000).map_err(Error::Trap)?;
        Ok(core.perf.cycles)
    };

    let nop_cycles = measure_block(&|_a| {}, SimdFmt::Nibble)?;
    let hw_n = measure_block(
        &|a| {
            a.pv_qnt(SimdFmt::Nibble, Reg::A0, Reg::A1, Reg::A2);
        },
        SimdFmt::Nibble,
    )? - nop_cycles;
    let hw_c = measure_block(
        &|a| {
            a.pv_qnt(SimdFmt::Crumb, Reg::A0, Reg::A1, Reg::A2);
        },
        SimdFmt::Crumb,
    )? - nop_cycles;
    let sw_n = measure_block(
        &|a| {
            a.addi(Reg::T5, Reg::A2, -2);
            pulp_kernels::emit::quant::emit_sw_tree_walk(a, Reg::A1, Reg::T5, 4);
        },
        SimdFmt::Nibble,
    )? - nop_cycles
        - 1; // discount the tree-base addi
    let sw_c = measure_block(
        &|a| {
            a.addi(Reg::T5, Reg::A2, -2);
            pulp_kernels::emit::quant::emit_sw_tree_walk(a, Reg::A1, Reg::T5, 2);
        },
        SimdFmt::Crumb,
    )? - nop_cycles
        - 1;

    Ok(QuantMicrobench {
        hw_nibble_pair: hw_n,
        hw_crumb_pair: hw_c,
        sw_nibble_single: sw_n,
        sw_crumb_single: sw_c,
    })
}

impl fmt::Display for QuantMicrobench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Quantization microbenchmark (paper §III-A/§III-B2)")?;
        writeln!(
            f,
            "  pv.qnt.n: {} cycles / 2 activations (paper: 9)",
            self.hw_nibble_pair
        )?;
        writeln!(
            f,
            "  pv.qnt.c: {} cycles / 2 activations (paper: 5)",
            self.hw_crumb_pair
        )?;
        writeln!(
            f,
            "  software tree, 4-bit: {} cycles / activation (paper: ~18)",
            self.sw_nibble_single
        )?;
        write!(
            f,
            "  software tree, 2-bit: {} cycles / activation",
            self.sw_crumb_single
        )
    }
}

// -------------------------------------------------------- pooling speedup

/// One row of the pooling experiment: packed SIMD (`pv.maxu`) vs the
/// scalar byte-wise baseline on a 16×16 max-pooling layer.
#[derive(Debug, Clone, Copy)]
pub struct PoolRow {
    /// Operand width.
    pub bits: BitWidth,
    /// Cycles with packed-SIMD `pv.maxu`.
    pub simd_cycles: u64,
    /// Cycles of the scalar baseline over the 8-bit-unpacked tensor.
    pub scalar_cycles: u64,
    /// Speedup.
    pub speedup: f64,
}

/// §III-A's pooling claim quantified: `pv.max` per packed word vs
/// byte-wise scalar pooling.
#[derive(Debug, Clone)]
pub struct PoolingSpeedup {
    /// One row per width.
    pub rows: [PoolRow; 3],
}

/// Measures 2×2/stride-2 max pooling on a 16×16 tensor (32 channels for
/// 8-bit, more for sub-byte so words stay full), SIMD vs scalar.
///
/// # Errors
///
/// Propagates kernel build failures and traps.
pub fn pooling_speedup() -> Result<PoolingSpeedup, Error> {
    use pulp_kernels::pool::{PoolKernelConfig, PoolOp};
    use pulp_kernels::{Kernel, Testbench};
    use qnn::pool::PoolShape;
    let run = |bits: BitWidth, simd: bool| -> Result<u64, Error> {
        let c = (32 / bits.bits() as usize) * 4;
        let cfg = PoolKernelConfig {
            shape: PoolShape {
                in_h: 16,
                in_w: 16,
                c,
                k: 2,
                stride: 2,
            },
            bits,
            op: PoolOp::Max,
            simd,
        };
        let tb = Testbench::new(cfg, 9).map_err(|e| Error::Build(e.to_string()))?;
        let r = tb.run().map_err(Error::Trap)?;
        if !r.matches() {
            return Err(Error::Mismatch { config: cfg.name() });
        }
        Ok(r.cycles())
    };
    let mut rows = Vec::new();
    for bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
        let simd_cycles = run(bits, true)?;
        let scalar_cycles = run(bits, false)?;
        rows.push(PoolRow {
            bits,
            simd_cycles,
            scalar_cycles,
            speedup: scalar_cycles as f64 / simd_cycles as f64,
        });
    }
    Ok(PoolingSpeedup {
        rows: [rows[0], rows[1], rows[2]],
    })
}

impl fmt::Display for PoolingSpeedup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Pooling — pv.maxu vs scalar baseline (§III-A), 16x16 2x2/s2 max pooling"
        )?;
        let mut t = Table::new(&["operands", "SIMD cycles", "scalar cycles", "speedup"]);
        for r in &self.rows {
            t.row(&[
                r.bits.to_string(),
                r.simd_cycles.to_string(),
                r.scalar_cycles.to_string(),
                format!("{:.2}x", r.speedup),
            ]);
        }
        t.fmt(f)
    }
}

// ------------------------------------------------------- cycle attribution

/// Per-class cycle comparison of a baseline/extended kernel pair, from
/// the core's cycle ledger. This is the instrument behind deviation D1:
/// it shows *where* the baseline spends the cycles the extended core
/// eliminates, and which costs remain to cap the speedup.
#[derive(Debug, Clone)]
pub struct CycleAttribution {
    /// Operand width of the pair.
    pub bits: BitWidth,
    /// The baseline (XpulpV2, software everything) measurement.
    pub baseline: LayerMeasurement,
    /// The extended (XpulpNN + `pv.qnt`) measurement.
    pub extended: LayerMeasurement,
}

impl CycleAttribution {
    /// Measured speedup of the extended kernel over the baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline.cycles as f64 / self.extended.cycles as f64
    }

    /// Cycles the extended kernel spends outside the dot-product unit —
    /// the serial remainder that limits the speedup (Amdahl's bound).
    pub fn ext_non_dotp_cycles(&self) -> u64 {
        let dotp: u64 = ALL_CYCLE_CLASSES
            .iter()
            .filter(|c| matches!(c, riscv_core::CycleClass::Dotp(_)))
            .map(|c| self.extended.perf.ledger.get(*c))
            .sum();
        self.extended.cycles - dotp
    }
}

/// Builds the 4- and 2-bit attribution pairs from the measurement
/// matrix.
pub fn cycle_attribution(m: &Measurements) -> [CycleAttribution; 2] {
    [
        CycleAttribution {
            bits: BitWidth::W4,
            baseline: m.w4_v2.clone(),
            extended: m.w4_nn_hw.clone(),
        },
        CycleAttribution {
            bits: BitWidth::W2,
            baseline: m.w2_v2.clone(),
            extended: m.w2_nn_hw.clone(),
        },
    ]
}

impl fmt::Display for CycleAttribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cycle attribution, {} kernels (speedup {:.2}x):",
            self.bits,
            self.speedup()
        )?;
        let mut t = Table::new(&["class", "baseline", "extended", "base share", "ext share"]);
        for class in ALL_CYCLE_CLASSES {
            let b = self.baseline.perf.ledger.get(class);
            let e = self.extended.perf.ledger.get(class);
            if b == 0 && e == 0 {
                continue;
            }
            t.row(&[
                class.name().to_string(),
                b.to_string(),
                e.to_string(),
                format!("{:.1}%", b as f64 / self.baseline.cycles as f64 * 100.0),
                format!("{:.1}%", e as f64 / self.extended.cycles as f64 * 100.0),
            ]);
        }
        t.row(&[
            "total".to_string(),
            self.baseline.cycles.to_string(),
            self.extended.cycles.to_string(),
            "100.0%".to_string(),
            "100.0%".to_string(),
        ]);
        t.fmt(f)
    }
}

// ------------------------------------------------------------- full report

/// Everything [`run_all`] produces.
#[derive(Debug, Clone)]
pub struct FullReport {
    /// The raw measurement matrix.
    pub measurements: Measurements,
    /// Fig. 6 reproduction.
    pub figure6: Figure6,
    /// Fig. 7 reproduction.
    pub figure7: Figure7,
    /// Fig. 8 reproduction.
    pub figure8: Figure8,
    /// Fig. 9 reproduction.
    pub figure9: Figure9,
    /// Table I reproduction.
    pub table1: Table1,
    /// Quantization microbenchmark.
    pub quant: QuantMicrobench,
    /// Pooling SIMD-vs-scalar comparison.
    pub pooling: PoolingSpeedup,
    /// Attributed cycle breakdown of the sub-byte baseline/extended
    /// pairs (the deviation-D1 instrument).
    pub attribution: [CycleAttribution; 2],
}

/// Runs every experiment.
///
/// # Errors
///
/// Propagates the first measurement failure.
pub fn run_all(seed: u64) -> Result<FullReport, Error> {
    let measurements = collect(seed)?;
    Ok(FullReport {
        figure6: figure6(&measurements),
        figure7: figure7(&measurements),
        figure8: figure8(&measurements),
        figure9: figure9(&measurements),
        table1: table1(&measurements),
        quant: quant_microbench()?,
        pooling: pooling_speedup()?,
        attribution: cycle_attribution(&measurements),
        measurements,
    })
}

impl fmt::Display for FullReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.table1)?;
        writeln!(f, "{}", Table3)?;
        writeln!(f, "{}\n", PmAblation(&self.measurements))?;
        writeln!(f, "{}", self.figure6)?;
        writeln!(f, "{}", self.figure7)?;
        writeln!(f, "{}", self.figure8)?;
        writeln!(f, "{}", self.figure9)?;
        writeln!(f, "{}", self.quant)?;
        writeln!(f)?;
        writeln!(f, "{}", self.pooling)?;
        writeln!(f)?;
        writeln!(f, "{}", self.attribution[0])?;
        write!(f, "{}", self.attribution[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_display_echoes_calibration() {
        let s = Table3.to_string();
        assert!(s.contains("19729.9"));
        assert!(s.contains("11.1%"));
        assert!(s.contains("5.87"));
    }

    #[test]
    fn quant_microbench_matches_paper_latencies() {
        let q = quant_microbench().unwrap();
        assert_eq!(
            q.hw_nibble_pair, 9,
            "paper: 9 cycles for two 4-bit activations"
        );
        assert_eq!(
            q.hw_crumb_pair, 5,
            "paper: 5 cycles for two 2-bit activations"
        );
        // "favorably comparing to the 18 clock cycles needed on average
        // to compress only one activation ... in software"
        assert!(
            (15..=25).contains(&q.sw_nibble_single),
            "sw 4-bit quant at {} cycles",
            q.sw_nibble_single
        );
        assert!(q.nibble_gain() > 3.0);
    }
}
