//! Depthwise convolution kernels (8-bit operands).
//!
//! Depthwise layers have no cross-channel accumulation, so the packed
//! dot-product unit — which reduces *across* lanes — cannot help: the
//! kernel runs scalar `lbu`/`lb` + `p.mac` per tap. This reproduces the
//! well-known result that depthwise-separable blocks (MobileNetV1, the
//! paper's motivating network) are memory/ILP-bound on these cores and
//! run at a fraction of the MatMul kernels' MAC/cycle.
//!
//! Implementation notes:
//!
//! * the host **pre-pads** the input tensor (zero halo), so the device
//!   loop has no border conditionals — a standard embedded-deployment
//!   layout choice;
//! * weights are channel-major `w[c][ky][kx]` signed bytes;
//! * re-quantization is shift+clamp to 8-bit (depthwise stages in
//!   MobileNet-style networks keep 8-bit activations between the
//!   sub-byte pointwise stages).

use crate::config::ConfigError;
use crate::layout::LayerLayout;
use crate::runner::{BuildError, Kernel};
use pulp_asm::{Asm, Program};
use pulp_isa::instr::{Instr, LoadKind};
use pulp_isa::Reg::*;
use qnn::depthwise::DepthwiseShape;
use qnn::quantizer::Quantizer;
use qnn::BitWidth;

/// A depthwise kernel to generate (8-bit operands and outputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthwiseKernelConfig {
    /// Layer geometry.
    pub shape: DepthwiseShape,
    /// Right-shift of the shift+clamp re-quantization.
    pub shift: u32,
}

impl DepthwiseKernelConfig {
    /// Checks generator preconditions (tap offsets must fit the 12-bit
    /// load immediates of the unrolled window).
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroDimension`] for degenerate shapes,
    /// [`ConfigError::Window`] for unsupported window sizes (only 1×1
    /// and 3×3), and [`ConfigError::TooLarge`] when the largest tap
    /// offset exceeds the immediate range (the remedy is fewer
    /// channels).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let s = self.shape;
        for (what, dim) in [
            ("in_h", s.in_h),
            ("in_w", s.in_w),
            ("c", s.c),
            ("stride", s.stride),
        ] {
            if dim == 0 {
                return Err(ConfigError::ZeroDimension { what });
            }
        }
        if !matches!(s.k, 1 | 3) {
            return Err(ConfigError::Window {
                k: s.k,
                stride: s.stride,
            });
        }
        let padded_w = s.in_w + 2 * s.pad;
        let max_off = ((s.k - 1) * padded_w + (s.k - 1)) * s.c;
        if max_off >= 2048 {
            return Err(ConfigError::TooLarge {
                what: "c (tap offset exceeds the load immediate range)",
            });
        }
        Ok(())
    }
}

/// Builds the depthwise program over the pre-padded input at
/// `layout.input`.
///
/// # Errors
///
/// [`BuildError::Config`] on invalid configurations;
/// [`BuildError::Asm`] for assembler failures (generator bugs).
pub fn build_depthwise_program(
    cfg: &DepthwiseKernelConfig,
    layout: &LayerLayout,
) -> Result<Program, BuildError> {
    cfg.validate().map_err(BuildError::Config)?;
    let s = cfg.shape;
    let padded_w = (s.in_w + 2 * s.pad) as i32;
    let c = s.c as i32;
    let taps = s.k * s.k;

    let mut a = Asm::new(pulp_soc::CODE_BASE);
    a.li(A3, layout.output as i32);
    a.li(S1, layout.weights as i32); // channel-major weight base
    a.li(A1, layout.input as i32); // padded input, row base
    a.li(A7, s.out_h() as i32);
    a.label("oy_loop");
    a.mv(T2, A1); // pixel base within the row
    a.li(A2, s.out_w() as i32);
    a.label("ox_loop");
    a.mv(T5, T2); // channel walker (input)
    a.mv(T4, S1); // weight walker
    a.li(T3, c);
    a.label("ch_loop");
    a.li(S4, 0);
    for ky in 0..s.k {
        for kx in 0..s.k {
            let off = ((ky as i32) * padded_w + kx as i32) * c;
            a.i(Instr::Load {
                kind: LoadKind::ByteU,
                rd: T0,
                rs1: T5,
                offset: off,
            });
            a.i(Instr::Load {
                kind: LoadKind::Byte,
                rd: T1,
                rs1: T4,
                offset: (ky * s.k + kx) as i32,
            });
            a.i(Instr::PMac {
                rd: S4,
                rs1: T0,
                rs2: T1,
            });
        }
    }
    a.srai(T0, S4, cfg.shift as i32);
    a.i(Instr::PClipU {
        rd: T0,
        rs1: T0,
        bits: 9,
    });
    a.p_sb_postinc(T0, 1, A3);
    a.addi(T5, T5, 1);
    a.addi(T4, T4, taps as i32);
    a.addi(T3, T3, -1);
    a.bne(T3, Zero, "ch_loop");
    a.addi(T2, T2, (s.stride as i32) * c);
    a.addi(A2, A2, -1);
    a.bne(A2, Zero, "ox_loop");
    // Next output row: advance by stride input rows.
    for _ in 0..s.stride {
        a.addi(A1, A1, padded_w * c);
    }
    a.addi(A7, A7, -1);
    a.bne(A7, Zero, "oy_loop");
    a.li(A0, 0);
    a.ecall();
    a.assemble().map_err(BuildError::Asm)
}

/// Pads an HWC tensor with a zero halo of `pad` pixels on each side.
pub fn pad_input(shape: &DepthwiseShape, values: &[i16]) -> Vec<i16> {
    let (h, w, c, p) = (shape.in_h, shape.in_w, shape.c, shape.pad);
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    let mut out = vec![0i16; ph * pw * c];
    for y in 0..h {
        for x in 0..w {
            let src = (y * w + x) * c;
            let dst = ((y + p) * pw + (x + p)) * c;
            out[dst..dst + c].copy_from_slice(&values[src..src + c]);
        }
    }
    out
}

impl Kernel for DepthwiseKernelConfig {
    fn name(&self) -> String {
        format!(
            "depthwise/{}x{}/c{}",
            self.shape.k, self.shape.k, self.shape.c
        )
    }

    fn build(&self, layout: &LayerLayout) -> Result<Program, BuildError> {
        build_depthwise_program(self, layout)
    }

    fn cycle_budget(&self) -> u64 {
        100_000_000
    }

    fn macs(&self) -> u64 {
        self.shape.macs()
    }

    fn input(&self) -> (usize, BitWidth) {
        (self.shape.input_len(), BitWidth::W8)
    }

    fn weights(&self) -> Option<(usize, BitWidth)> {
        Some((self.shape.weight_len(), BitWidth::W8))
    }

    fn output(&self) -> (usize, BitWidth) {
        (self.shape.output_len(), BitWidth::W8)
    }

    fn thresholds(&self) -> Option<(BitWidth, usize, i16)> {
        None
    }

    fn shift(&self) -> u32 {
        self.shift
    }

    /// The pre-padded input, one byte per activation.
    fn input_image(&self, input: &[i16]) -> Vec<u8> {
        pad_input(&self.shape, input)
            .iter()
            .map(|&v| v as u8)
            .collect()
    }

    fn golden(&self, input: &[i16], weights: &[i16], quantizer: &Quantizer) -> Vec<i16> {
        qnn::depthwise::depthwise_quantized(&self.shape, input, weights, quantizer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunResult, Testbench};

    fn check(cfg: DepthwiseKernelConfig, seed: u64) -> RunResult {
        let tb = Testbench::new(cfg, seed).unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
        let r = tb.run().unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
        assert!(r.report.exit.halted);
        assert!(
            r.matches(),
            "{}: {:?} vs {:?}",
            cfg.name(),
            &r.output[..6.min(r.output.len())],
            &r.golden[..6.min(r.golden.len())]
        );
        r
    }

    #[test]
    fn depthwise_3x3_matches_golden() {
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
        let r = check(cfg, 51);
        // Depthwise is scalar-bound: well under 1 MAC/cycle.
        let mpc = r.macs_per_cycle(&cfg);
        assert!((0.1..0.6).contains(&mpc), "depthwise at {mpc:.2} MAC/cycle");
    }

    #[test]
    fn depthwise_strided_and_1x1() {
        check(
            DepthwiseKernelConfig {
                shape: DepthwiseShape {
                    in_h: 8,
                    in_w: 8,
                    c: 8,
                    k: 3,
                    stride: 2,
                    pad: 1,
                },
                shift: 6,
            },
            52,
        );
        check(
            DepthwiseKernelConfig {
                shape: DepthwiseShape {
                    in_h: 5,
                    in_w: 7,
                    c: 4,
                    k: 1,
                    stride: 1,
                    pad: 0,
                },
                shift: 4,
            },
            53,
        );
    }

    #[test]
    fn depthwise_is_far_slower_per_mac_than_matmul() {
        // The reproduction's version of the depthwise bottleneck:
        // compare MAC rates of a depthwise 3x3 and the 8-bit MatMul conv.
        let dw = check(
            DepthwiseKernelConfig {
                shape: DepthwiseShape {
                    in_h: 8,
                    in_w: 8,
                    c: 16,
                    k: 3,
                    stride: 1,
                    pad: 1,
                },
                shift: 7,
            },
            54,
        );
        let dw_rate = dw.macs_per_cycle(&DepthwiseKernelConfig {
            shape: DepthwiseShape {
                in_h: 8,
                in_w: 8,
                c: 16,
                k: 3,
                stride: 1,
                pad: 1,
            },
            shift: 7,
        });
        assert!(
            dw_rate < 1.0,
            "depthwise cannot use the dotp unit ({dw_rate:.2})"
        );
    }

    #[test]
    fn pad_input_places_halo() {
        let s = DepthwiseShape {
            in_h: 2,
            in_w: 2,
            c: 1,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let p = pad_input(&s, &[1, 2, 3, 4]);
        assert_eq!(p.len(), 16);
        assert_eq!(p[5], 1);
        assert_eq!(p[6], 2);
        assert_eq!(p[9], 3);
        assert_eq!(p[10], 4);
        assert_eq!(p.iter().filter(|&&v| v == 0).count(), 12);
    }

    #[test]
    fn too_many_channels_rejected() {
        let cfg = DepthwiseKernelConfig {
            shape: DepthwiseShape {
                in_h: 16,
                in_w: 16,
                c: 64,
                k: 3,
                stride: 1,
                pad: 1,
            },
            shift: 7,
        };
        assert!(
            cfg.validate().is_err(),
            "tap offsets exceed the load immediate"
        );
    }
}
