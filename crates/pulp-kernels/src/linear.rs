//! Fully-connected (linear) layer kernels — the classifier head of a
//! QNN, structured like one MatMul column: two output neurons per
//! iteration share the input vector, exactly as the paper's 2×2 MatMul
//! shares im2col buffers, so `pv.qnt` again receives two consecutive
//! channels.

use crate::config::{ConfigError, KernelIsa, QuantMode};
use crate::emit::quant::emit_sw_tree_walk;
use crate::emit::simd_fmt;
use crate::layout::LayerLayout;
use crate::runner::{BuildError, Kernel};
use pulp_asm::{Asm, Program};
use pulp_isa::instr::{Instr, LoopIdx};
use pulp_isa::simd::DotSign;
use pulp_isa::Reg::*;
use qnn::linear::LinearShape;
use qnn::quantizer::Quantizer;
use qnn::BitWidth;
use riscv_core::quant::tree_stride;

/// A linear-layer kernel to generate (native packed SIMD; sub-byte
/// widths require the XpulpNN core, as in the convolution kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearKernelConfig {
    /// Layer geometry.
    pub shape: LinearShape,
    /// Operand width.
    pub bits: BitWidth,
    /// Re-quantization path (same rules as convolutions).
    pub quant: QuantMode,
}

impl LinearKernelConfig {
    /// Output neurons per channel-loop iteration.
    pub fn channel_block(&self) -> usize {
        if self.bits == BitWidth::W2 {
            4
        } else {
            2
        }
    }

    /// Checks generator preconditions.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the violated rule.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shape.in_features == 0 {
            return Err(ConfigError::ZeroDimension {
                what: "in_features",
            });
        }
        if self.shape.out_features == 0 {
            return Err(ConfigError::ZeroDimension {
                what: "out_features",
            });
        }
        if !(self.shape.in_features * self.bits.bits() as usize).is_multiple_of(32) {
            return Err(ConfigError::ChannelAlignment {
                in_c: self.shape.in_features,
                bits: self.bits,
            });
        }
        let need = self.channel_block();
        if !self.shape.out_features.is_multiple_of(need) {
            return Err(ConfigError::OutChannelBlocking {
                out_c: self.shape.out_features,
                need,
            });
        }
        let ok = matches!(
            (self.bits, self.quant),
            (BitWidth::W8, QuantMode::Shift8 { .. })
                | (BitWidth::W4 | BitWidth::W2, QuantMode::SoftwareTree)
                | (BitWidth::W4 | BitWidth::W2, QuantMode::HardwareQnt)
        );
        if !ok {
            return Err(ConfigError::QuantMismatch {
                bits: self.bits,
                isa: KernelIsa::XpulpNN,
                quant: self.quant,
            });
        }
        Ok(())
    }
}

/// Quantizes the pair `(s4, s6)` of consecutive-channel accumulators to
/// the low `2·Q` bits of `dst`.
fn emit_quant_pair(a: &mut Asm, cfg: &LinearKernelConfig, dst: pulp_isa::Reg) {
    let fmt = simd_fmt(cfg.bits);
    let stride = tree_stride(fmt) as i32;
    match cfg.quant {
        QuantMode::HardwareQnt => {
            a.i(Instr::PClip {
                rd: S4,
                rs1: S4,
                bits: 16,
            });
            a.i(Instr::PClip {
                rd: S6,
                rs1: S6,
                bits: 16,
            });
            a.i(Instr::PvInsert {
                fmt: pulp_isa::SimdFmt::Half,
                rd: S4,
                rs1: S6,
                idx: 1,
            });
            a.pv_qnt(fmt, dst, S4, A1);
        }
        QuantMode::SoftwareTree => {
            let q = fmt.bits();
            a.addi(T5, A1, -2);
            emit_sw_tree_walk(a, S4, T5, q);
            a.mv(T6, T1);
            a.addi(T5, A1, stride - 2);
            emit_sw_tree_walk(a, S6, T5, q);
            a.slli(T1, T1, q as i32);
            a.or(dst, T1, T6);
        }
        QuantMode::Shift8 { .. } => unreachable!("validated"),
    }
    a.addi(A1, A1, 2 * stride);
}

/// Builds the linear-layer program.
///
/// # Errors
///
/// [`BuildError::Config`] on invalid configurations (including weight
/// rows too large for the generator's `addi` addressing);
/// [`BuildError::Asm`] for assembler failures (generator bugs).
pub fn build_linear_program(
    cfg: &LinearKernelConfig,
    layout: &LayerLayout,
) -> Result<Program, BuildError> {
    cfg.validate().map_err(BuildError::Config)?;
    let fmt = simd_fmt(cfg.bits);
    let row_bytes = (cfg.shape.in_features * cfg.bits.bits() as usize / 8) as i32;
    let words = row_bytes / 4;
    let blocks = (cfg.shape.out_features / cfg.channel_block()) as i32;
    if row_bytes >= 2048 {
        // The generator addresses the second weight row with a 12-bit
        // `addi`; larger rows need a different addressing scheme.
        return Err(BuildError::Config(ConfigError::TooLarge {
            what: "in_features (weight row exceeds addi range)",
        }));
    }

    let mut a = Asm::new(pulp_soc::CODE_BASE);
    a.li(A0, layout.weights as i32);
    if cfg.bits.is_sub_byte() {
        a.li(A1, layout.thresholds as i32);
    }
    a.li(A3, layout.output as i32);
    a.li(A2, blocks);
    a.label("ch_loop");
    a.jal("mm_block");
    match cfg.bits {
        BitWidth::W8 => {
            let QuantMode::Shift8 { shift } = cfg.quant else {
                unreachable!()
            };
            for acc in [S4, S6] {
                a.srai(T0, acc, shift as i32);
                a.i(Instr::PClipU {
                    rd: T0,
                    rs1: T0,
                    bits: 9,
                });
                a.p_sb_postinc(T0, 1, A3);
            }
        }
        BitWidth::W4 => {
            emit_quant_pair(&mut a, cfg, T0);
            a.p_sb_postinc(T0, 1, A3);
        }
        BitWidth::W2 => {
            emit_quant_pair(&mut a, cfg, Sp);
            a.jal("mm_block");
            emit_quant_pair(&mut a, cfg, T0);
            a.slli(T0, T0, 4);
            a.or(T0, T0, Sp);
            a.p_sb_postinc(T0, 1, A3);
        }
    }
    a.addi(A2, A2, -1);
    a.bne(A2, Zero, "ch_loop");
    a.li(A0, 0);
    a.ecall();

    // Two consecutive output neurons against the shared input vector.
    a.label("mm_block");
    a.mv(S0, A0);
    a.addi(S1, A0, row_bytes);
    a.li(S2, layout.input as i32);
    a.li(S4, 0);
    a.li(S6, 0);
    a.li(T6, words);
    a.lp_setup(LoopIdx::L0, T6, "mm_end");
    a.p_lw_postinc(T0, 4, S0);
    a.p_lw_postinc(T1, 4, S1);
    a.p_lw_postinc(T2, 4, S2);
    a.pv_sdot(fmt, DotSign::UnsignedSigned, S4, T2, T0);
    a.pv_sdot(fmt, DotSign::UnsignedSigned, S6, T2, T1);
    a.label("mm_end");
    a.mv(A0, S1);
    a.ret();

    a.assemble().map_err(BuildError::Asm)
}

impl Kernel for LinearKernelConfig {
    fn name(&self) -> String {
        format!("linear/{}/{}", self.bits, self.quant)
    }

    fn build(&self, layout: &LayerLayout) -> Result<Program, BuildError> {
        build_linear_program(self, layout)
    }

    fn cycle_budget(&self) -> u64 {
        50_000_000
    }

    fn macs(&self) -> u64 {
        self.shape.macs()
    }

    fn input(&self) -> (usize, BitWidth) {
        (self.shape.in_features, self.bits)
    }

    fn weights(&self) -> Option<(usize, BitWidth)> {
        Some((self.shape.weight_len(), self.bits))
    }

    fn output(&self) -> (usize, BitWidth) {
        (self.shape.out_features, self.bits)
    }

    fn thresholds(&self) -> Option<(BitWidth, usize, i16)> {
        match self.quant {
            QuantMode::Shift8 { .. } => None,
            QuantMode::SoftwareTree | QuantMode::HardwareQnt => {
                Some((self.bits, self.shape.out_features, 1200))
            }
        }
    }

    fn shift(&self) -> u32 {
        match self.quant {
            QuantMode::Shift8 { shift } => shift,
            QuantMode::SoftwareTree | QuantMode::HardwareQnt => 0,
        }
    }

    fn golden(&self, input: &[i16], weights: &[i16], quantizer: &Quantizer) -> Vec<i16> {
        qnn::linear::linear_quantized(&self.shape, input, weights, quantizer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunResult, Testbench};

    fn check(cfg: LinearKernelConfig, seed: u64) -> RunResult {
        let tb = Testbench::new(cfg, seed).unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
        let r = tb.run().unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
        assert!(r.report.exit.halted);
        assert!(
            r.matches(),
            "{}: {:?} vs {:?}",
            cfg.name(),
            &r.output[..4],
            &r.golden[..4]
        );
        r
    }

    #[test]
    fn linear_w8() {
        let cfg = LinearKernelConfig {
            shape: LinearShape {
                in_features: 64,
                out_features: 10 * 2,
            },
            bits: BitWidth::W8,
            quant: QuantMode::Shift8 { shift: 8 },
        };
        check(cfg, 41);
    }

    #[test]
    fn linear_w4_both_quant_paths_agree() {
        let shape = LinearShape {
            in_features: 128,
            out_features: 16,
        };
        let hw = check(
            LinearKernelConfig {
                shape,
                bits: BitWidth::W4,
                quant: QuantMode::HardwareQnt,
            },
            42,
        );
        let sw = check(
            LinearKernelConfig {
                shape,
                bits: BitWidth::W4,
                quant: QuantMode::SoftwareTree,
            },
            42,
        );
        assert_eq!(hw.output, sw.output);
        assert!(hw.cycles() < sw.cycles());
    }

    #[test]
    fn linear_w2() {
        let cfg = LinearKernelConfig {
            shape: LinearShape {
                in_features: 256,
                out_features: 8,
            },
            bits: BitWidth::W2,
            quant: QuantMode::HardwareQnt,
        };
        let r = check(cfg, 43);
        // 16 MACs per pv.sdotusp.c, 5 instructions per word pair-block.
        assert!(r.report.perf.dotp[3] > 0);
    }

    #[test]
    fn linear_validation() {
        let bad = LinearKernelConfig {
            shape: LinearShape {
                in_features: 6,
                out_features: 4,
            },
            bits: BitWidth::W4,
            quant: QuantMode::HardwareQnt,
        };
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::ChannelAlignment { .. })
        ));
        let odd = LinearKernelConfig {
            shape: LinearShape {
                in_features: 8,
                out_features: 3,
            },
            bits: BitWidth::W8,
            quant: QuantMode::Shift8 { shift: 8 },
        };
        assert!(matches!(
            odd.validate(),
            Err(ConfigError::OutChannelBlocking { .. })
        ));
    }

    #[test]
    fn linear_throughput_scales_with_width() {
        let mk = |bits, quant| LinearKernelConfig {
            shape: LinearShape {
                in_features: 512,
                out_features: 32,
            },
            bits,
            quant,
        };
        let w8 = check(mk(BitWidth::W8, QuantMode::Shift8 { shift: 8 }), 44).cycles();
        let w4 = check(mk(BitWidth::W4, QuantMode::HardwareQnt), 44).cycles();
        let w2 = check(mk(BitWidth::W2, QuantMode::HardwareQnt), 44).cycles();
        assert!(w4 < w8, "4-bit FC faster than 8-bit ({w4} vs {w8})");
        assert!(w2 < w4, "2-bit FC faster than 4-bit ({w2} vs {w4})");
    }
}
