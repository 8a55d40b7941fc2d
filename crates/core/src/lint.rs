//! The shipped-kernel lint suite: every program the benchmarks emit,
//! paired with the tensor regions its layout declares.
//!
//! This is the static half of the kernel-correctness argument (the
//! dynamic half being the golden-model testbenches): each emitted
//! program is analyzed by [`xcheck`] under [`xcheck::LintConfig::kernel`]
//! with regions derived from the *same* [`LayerLayout`] and shape
//! arithmetic the emitters use, so an emitter whose address computation
//! escapes its tensors — or that reads a register it never set — fails
//! `xpulpnn lint` without any input vector having to hit the bug.

use pulp_asm::Program;
use pulp_kernels::cluster::{ClusterPlan, PARAM_BYTES};
use pulp_kernels::depthwise::{build_depthwise_program, DepthwiseKernelConfig};
use pulp_kernels::descriptors::{encode_descriptors, im2col_descriptors};
use pulp_kernels::emit::{build_cluster_conv_program, build_conv_program, simd_fmt};
use pulp_kernels::linear::{build_linear_program, LinearKernelConfig};
use pulp_kernels::pool::{build_pool_program, build_relu_program, PoolKernelConfig, PoolOp};
use pulp_kernels::runner::BuildError;
use pulp_kernels::{ConvKernelConfig, Kernel, KernelIsa, LayerLayout, QuantMode};
use pulp_soc::cluster::EU_BARRIER;
use qnn::conv::ConvShape;
use qnn::depthwise::DepthwiseShape;
use qnn::linear::LinearShape;
use qnn::pool::PoolShape;
use qnn::BitWidth;
use riscv_core::quant::tree_stride;
use xcheck::{
    analyze_spmd, DispatchSlab, DmaBand, LintConfig, LintReport, Region, SpmdConfig, SpmdReport,
};

/// One shipped kernel program plus the lint contract it must satisfy.
pub struct ShippedKernel {
    /// Report name (`conv/4-bit/xpulpnn/pv.qnt`, `maxpool/4-bit/simd`, ...).
    pub name: String,
    /// The emitted program.
    pub program: Program,
    /// The kernel-profile lint configuration with its declared regions.
    pub config: LintConfig,
}

impl ShippedKernel {
    /// Runs the analyzer on this kernel.
    pub fn lint(&self) -> LintReport {
        xcheck::analyze_program(&self.program, &self.config)
    }
}

/// The paper's convolution matrix, deduplicated exactly like the golden
/// listing snapshots (`hw_quant` collapses where `pv.qnt` cannot exist).
fn conv_variants() -> Vec<ConvKernelConfig> {
    let mut variants: Vec<ConvKernelConfig> = Vec::new();
    for bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
        for isa in [KernelIsa::XpulpV2, KernelIsa::XpulpNN] {
            for hw in [false, true] {
                let cfg = ConvKernelConfig::paper(bits, isa, hw);
                if !variants.contains(&cfg) {
                    variants.push(cfg);
                }
            }
        }
    }
    variants
}

/// The vector-backend convolution matrix (the same width × quantizer
/// grid on the Xrvv core), deduplicated like [`conv_variants`]. The
/// emitted program is VLEN-independent — the strip loop sizes itself
/// with `vsetvli` — so one VLEN's worth of programs covers the backend;
/// the lint profile still pins the modeled VLEN for the VEC-03 spans.
fn vector_conv_variants() -> Vec<ConvKernelConfig> {
    let mut variants: Vec<ConvKernelConfig> = Vec::new();
    for bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
        for hw in [false, true] {
            let cfg = ConvKernelConfig::paper(bits, KernelIsa::vector(128), hw);
            if !variants.contains(&cfg) {
                variants.push(cfg);
            }
        }
    }
    variants
}

/// The tensor regions a convolution kernel may touch, sized with the
/// same arithmetic the emitter and testbench use.
pub fn conv_regions(cfg: &ConvKernelConfig, layout: &LayerLayout) -> Vec<Region> {
    let s: &ConvShape = &cfg.shape;
    let in_bytes = (s.input_len() * cfg.bits.bits() as usize / 8) as u32;
    let descs = im2col_descriptors(cfg, layout.input).len() as u32;
    let mut regions = vec![
        Region::new("input", layout.input, in_bytes),
        Region::new(
            "weights",
            layout.weights,
            s.out_c as u32 * LayerLayout::weight_row_bytes(cfg),
        ),
        Region::new("descriptors", layout.descriptors, descs * 12),
        Region::new(
            "im2col",
            layout.im2col,
            2 * LayerLayout::im2col_buffer_bytes(cfg),
        ),
        Region::new(
            "output",
            layout.output,
            s.pixels() as u32 * LayerLayout::out_pixel_bytes(cfg),
        ),
    ];
    if cfg.out_bits.is_sub_byte() {
        regions.push(Region::new(
            "thresholds",
            layout.thresholds,
            s.out_c as u32 * tree_stride(simd_fmt(cfg.out_bits)),
        ));
    }
    regions
}

fn depthwise_kernel(layout: &LayerLayout) -> Result<ShippedKernel, BuildError> {
    let cfg = DepthwiseKernelConfig {
        shape: DepthwiseShape {
            in_h: 8,
            in_w: 8,
            c: 16,
            k: 3,
            stride: 1,
            pad: 1,
        },
        shift: 7,
    };
    let s = cfg.shape;
    let padded = ((s.in_h + 2 * s.pad) * (s.in_w + 2 * s.pad) * s.c) as u32;
    let program = build_depthwise_program(&cfg, layout)?;
    Ok(ShippedKernel {
        name: cfg.name(),
        program,
        config: LintConfig::kernel(vec![
            Region::new("input", layout.input, padded),
            Region::new("weights", layout.weights, (s.c * s.k * s.k) as u32),
            Region::new(
                "output",
                layout.output,
                (s.out_h() * s.out_w() * s.c) as u32,
            ),
        ]),
    })
}

fn pool_kernel(
    layout: &LayerLayout,
    bits: BitWidth,
    op: PoolOp,
) -> Result<ShippedKernel, BuildError> {
    let cfg = PoolKernelConfig {
        shape: PoolShape {
            in_h: 8,
            in_w: 8,
            c: 8,
            k: 2,
            stride: 2,
        },
        bits,
        op,
        simd: true,
    };
    let s = cfg.shape;
    let c_bytes = (s.c * bits.bits() as usize / 8) as u32;
    let program = build_pool_program(&cfg, layout)?;
    Ok(ShippedKernel {
        name: cfg.name(),
        program,
        config: LintConfig::kernel(vec![
            Region::new("input", layout.input, (s.in_h * s.in_w) as u32 * c_bytes),
            Region::new(
                "output",
                layout.output,
                (s.out_h() * s.out_w()) as u32 * c_bytes,
            ),
        ]),
    })
}

fn relu_kernel(layout: &LayerLayout) -> Result<ShippedKernel, BuildError> {
    let len = 64usize;
    let program = build_relu_program(len, layout).map_err(BuildError::Asm)?;
    Ok(ShippedKernel {
        name: format!("relu/{len}"),
        program,
        config: LintConfig::kernel(vec![
            Region::new("input", layout.input, len as u32),
            Region::new("output", layout.output, len as u32),
        ]),
    })
}

fn linear_kernel(
    layout: &LayerLayout,
    bits: BitWidth,
    quant: QuantMode,
) -> Result<ShippedKernel, BuildError> {
    let cfg = LinearKernelConfig {
        shape: LinearShape {
            in_features: 64,
            out_features: 20,
        },
        bits,
        quant,
    };
    let s = cfg.shape;
    let row_bytes = (s.in_features * bits.bits() as usize / 8) as u32;
    let program = build_linear_program(&cfg, layout)?;
    let mut regions = vec![
        Region::new("input", layout.input, row_bytes),
        Region::new("weights", layout.weights, s.out_features as u32 * row_bytes),
        Region::new(
            "output",
            layout.output,
            (s.out_features * bits.bits() as usize / 8) as u32,
        ),
    ];
    if bits.is_sub_byte() {
        regions.push(Region::new(
            "thresholds",
            layout.thresholds,
            s.out_features as u32 * tree_stride(simd_fmt(bits)),
        ));
    }
    Ok(ShippedKernel {
        name: cfg.name(),
        program,
        config: LintConfig::kernel(regions),
    })
}

/// Builds every shipped kernel program with its lint contract: the
/// eight paper convolution variants, the five vector-backend variants
/// (linted under [`LintConfig::vector`] so the VEC rules run with the
/// modeled VLEN), plus the depthwise, pooling, ReLU and linear
/// testbench kernels.
///
/// # Errors
///
/// [`BuildError`] only for emitter bugs (the configurations are fixed).
pub fn shipped_kernels() -> Result<Vec<ShippedKernel>, BuildError> {
    let layout = LayerLayout::default_for_l2();
    let mut kernels = Vec::new();
    for cfg in conv_variants() {
        let program = build_conv_program(&cfg, &layout)?;
        kernels.push(ShippedKernel {
            name: format!("conv/{}", cfg.name()),
            program,
            config: LintConfig::kernel(conv_regions(&cfg, &layout)),
        });
    }
    for cfg in vector_conv_variants() {
        let vlen = cfg.isa.vlen_bits().expect("vector variant");
        let program = build_conv_program(&cfg, &layout)?;
        kernels.push(ShippedKernel {
            name: format!("conv/{}", cfg.name()),
            program,
            config: LintConfig::vector(conv_regions(&cfg, &layout), vlen),
        });
    }
    kernels.push(depthwise_kernel(&layout)?);
    kernels.push(pool_kernel(&layout, BitWidth::W4, PoolOp::Max)?);
    kernels.push(pool_kernel(&layout, BitWidth::W8, PoolOp::Avg2x2)?);
    kernels.push(relu_kernel(&layout)?);
    kernels.push(linear_kernel(
        &layout,
        BitWidth::W8,
        QuantMode::Shift8 { shift: 8 },
    )?);
    kernels.push(linear_kernel(
        &layout,
        BitWidth::W4,
        QuantMode::HardwareQnt,
    )?);
    kernels.push(linear_kernel(
        &layout,
        BitWidth::W2,
        QuantMode::HardwareQnt,
    )?);
    Ok(kernels)
}

/// The TCDM regions a cluster convolution kernel may touch, derived
/// from the same [`ClusterPlan`] allocation the DMA schedule stages —
/// plus the event unit's barrier register.
pub fn cluster_regions(plan: &ClusterPlan) -> Vec<Region> {
    let cfg = &plan.cfg;
    let t = &plan.tcdm;
    let s = &cfg.shape;
    let in_bytes = (s.input_len() * cfg.bits.bits() as usize / 8) as u32;
    let mut regions = vec![
        // Cursor words + parameter records: one contiguous dispatch
        // table, read (and cursor-advanced) by every hart's prologue.
        Region::new("dispatch", t.cursors, t.descriptors - t.cursors),
        Region::new(
            "descriptors",
            t.descriptors,
            plan.descriptors.len() as u32 * 12,
        ),
        Region::new("input", t.input, in_bytes),
        Region::new(
            "im2col",
            t.im2col,
            t.n_harts as u32 * pulp_kernels::cluster::TcdmLayout::im2col_stride(cfg),
        ),
        Region::new(
            "output",
            t.output,
            s.pixels() as u32 * LayerLayout::out_pixel_bytes(cfg),
        ),
        Region::new(
            "weights",
            t.weights,
            s.out_c as u32 * LayerLayout::weight_row_bytes(cfg),
        ),
        Region::new("event-unit", EU_BARRIER, 4),
    ];
    if cfg.out_bits.is_sub_byte() {
        regions.push(Region::new(
            "thresholds",
            t.thresholds,
            s.out_c as u32 * tree_stride(simd_fmt(cfg.out_bits)),
        ));
    }
    regions
}

/// Builds the cluster kernel suite: the same eight convolution variants
/// as [`shipped_kernels`], emitted by the parallel builder against an
/// `n_harts` TCDM plan and linted under [`LintConfig::cluster`].
///
/// Kept separate from [`shipped_kernels`] so the single-core suite's
/// precision-floor pin is unaffected: the cluster kernels address their
/// im2col buffers through a runtime-loaded `tp`, which the abstract
/// domains correctly count as unproven rather than proved-aligned.
///
/// # Errors
///
/// [`BuildError`] only for emitter bugs (the configurations are fixed).
pub fn cluster_kernels(n_harts: usize) -> Result<Vec<ShippedKernel>, BuildError> {
    let mut kernels = Vec::new();
    for cfg in conv_variants() {
        let plan = ClusterPlan::new(&cfg, n_harts)?;
        let program = build_cluster_conv_program(&cfg, &plan.tcdm)?;
        kernels.push(ShippedKernel {
            name: format!("cluster-conv/{}", cfg.name()),
            program,
            config: LintConfig::cluster(cluster_regions(&plan)),
        });
    }
    Ok(kernels)
}

/// The SPMD race-verification contract for one cluster plan, built from
/// the *same* plan the DMA schedule stages:
///
/// - known memory = exactly what the prologue DMA ships and kernel
///   control flow depends on — the cursor/record image and the encoded
///   im2col descriptors. Tensor data (input, weights, thresholds) stays
///   ⊤: the verifier proves control flow never depends on it;
/// - DRF-05 ownership: hart `h` owns its cursor word and its own
///   hart-major parameter-record row inside the dispatch slab;
/// - DRF-03 schedule: the input-band delta for band `t + 1` lands while
///   barrier region `t` computes ([`ClusterPlan::band_transfer`]).
pub fn spmd_config(plan: &ClusterPlan) -> SpmdConfig {
    let t = &plan.tcdm;
    let tiles = t.tiles;
    let mut c = SpmdConfig::new(t.n_harts, EU_BARRIER);
    c.regions = cluster_regions(plan);
    c.memory.push((t.cursors, plan.param_image()));
    c.memory
        .push((t.descriptors, encode_descriptors(&plan.descriptors)));
    c.slabs.push(DispatchSlab {
        name: "dispatch".to_string(),
        base: t.cursors,
        len: t.descriptors - t.cursors,
        allowed: (0..t.n_harts)
            .map(|h| {
                vec![
                    (t.cursors + 4 * h as u32, 4),
                    (
                        t.params + (h * (tiles + 1)) as u32 * PARAM_BYTES,
                        (tiles as u32 + 1) * PARAM_BYTES,
                    ),
                ]
            })
            .collect(),
    });
    let l2 = LayerLayout::default_for_l2();
    for r in 0..tiles {
        if let Some(x) = plan.band_transfer(&l2, r) {
            c.dma.push(DmaBand {
                name: format!("band {}", r + 1),
                region: r,
                base: x.dst,
                len: x.bytes,
            });
        }
    }
    c
}

/// One shipped kernel with its SPMD race-verification contract.
pub struct RaceKernel {
    /// Report name, matching the lint suite's naming.
    pub name: String,
    /// The emitted program.
    pub program: Program,
    /// The verification contract.
    pub config: SpmdConfig,
}

impl RaceKernel {
    /// Runs the SPMD race verifier on this kernel.
    pub fn verify(&self) -> SpmdReport {
        analyze_spmd(&self.program, &self.config)
    }
}

/// The full race-verification suite: the 20 single-core kernels (one
/// hart cannot race — the verifier short-circuits them clean, keeping
/// the suite's count honest about what was checked) plus the 8 cluster
/// convolution variants on `n_harts` harts with their full contracts.
///
/// # Errors
///
/// [`BuildError`] only for emitter bugs (the configurations are fixed).
pub fn race_kernels(n_harts: usize) -> Result<Vec<RaceKernel>, BuildError> {
    let mut kernels: Vec<RaceKernel> = shipped_kernels()?
        .into_iter()
        .map(|k| RaceKernel {
            name: k.name,
            program: k.program,
            config: SpmdConfig::new(1, EU_BARRIER),
        })
        .collect();
    for cfg in conv_variants() {
        let plan = ClusterPlan::new(&cfg, n_harts)?;
        let program = build_cluster_conv_program(&cfg, &plan.tcdm)?;
        kernels.push(RaceKernel {
            name: format!("cluster-conv/{}", cfg.name()),
            program,
            config: spmd_config(&plan),
        });
    }
    Ok(kernels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_twenty_kernels() {
        let kernels = shipped_kernels().expect("emitters");
        assert_eq!(
            kernels.len(),
            20,
            "8 conv + 5 vector conv + dw + 2 pool + relu + 3 linear"
        );
        let conv = kernels.iter().filter(|k| k.name.contains("conv")).count();
        assert_eq!(conv, 13);
        let vector = kernels.iter().filter(|k| k.name.contains("vector")).count();
        assert_eq!(vector, 5);
    }

    #[test]
    fn every_shipped_kernel_lints_clean() {
        for k in shipped_kernels().expect("emitters") {
            let r = k.lint();
            assert!(r.clean(), "{} is not lint-clean:\n{}", k.name, r.render());
        }
    }

    #[test]
    fn cluster_suite_covers_all_eight_variants_and_lints_clean() {
        let kernels = cluster_kernels(8).expect("cluster emitters");
        assert_eq!(kernels.len(), 8, "the eight conv variants");
        for k in kernels {
            assert!(k.name.starts_with("cluster-conv/"));
            let r = k.lint();
            assert!(r.clean(), "{} is not lint-clean:\n{}", k.name, r.render());
        }
    }

    #[test]
    fn race_suite_covers_all_twenty_eight_kernels() {
        let kernels = race_kernels(8).expect("emitters");
        assert_eq!(kernels.len(), 28, "20 single-core + 8 cluster");
        let cluster = kernels
            .iter()
            .filter(|k| k.name.starts_with("cluster-conv/"))
            .count();
        assert_eq!(cluster, 8);
    }

    #[test]
    fn every_kernel_is_race_clean() {
        for k in race_kernels(8).expect("emitters") {
            let r = k.verify();
            assert!(
                r.race_clean(),
                "{} is not race-clean:\n{}",
                k.name,
                r.render()
            );
        }
    }

    #[test]
    fn tampered_plan_with_overlapping_outputs_is_caught() {
        // Overlap two harts' output chunks in the *plan* (the program
        // is untouched): the verifier reads the staged parameter image
        // and must fire DRF-01 on the overlapping output range.
        let cfg = ConvKernelConfig::paper(qnn::BitWidth::W4, KernelIsa::XpulpNN, true);
        let mut plan = ClusterPlan::new(&cfg, 8).expect("plan");
        let tiles = plan.tcdm.tiles;
        plan.records[tiles + 1].out_ptr = plan.records[0].out_ptr; // hart 1 tile 0 → hart 0's chunk
        let program = build_cluster_conv_program(&cfg, &plan.tcdm).expect("emit");
        let r = analyze_spmd(&program, &spmd_config(&plan));
        assert!(!r.race_clean());
        assert!(r.findings.iter().any(
            |f| f.rule == xcheck::Rule::DrfWriteOverlap && f.contains(plan.records[0].out_ptr)
        ));
    }

    #[test]
    fn analyzer_precision_floor_holds() {
        // Pins the analyzer's precision on the shipped kernels: a
        // regression in the interval/congruence domain or the
        // hardware-loop summarization would silently shrink the
        // "proved" counters without producing any diagnostic.
        let mut accesses = 0;
        let mut align_proved = 0;
        for k in shipped_kernels().expect("emitters") {
            let m = k.lint().mem;
            accesses += m.accesses;
            align_proved += m.align_proved;
            if k.name.starts_with("relu") {
                // The straight-line hardware loop must be fully proved.
                assert_eq!(m.proved_in, m.accesses, "relu: {m:?}");
            }
        }
        assert!(
            align_proved * 10 >= accesses * 9,
            "alignment proofs regressed: {align_proved}/{accesses}"
        );
    }
}
