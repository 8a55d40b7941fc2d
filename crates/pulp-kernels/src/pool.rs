//! Pooling and ReLU kernels.
//!
//! The paper motivates the SIMD `pv.max`/`pv.min`/`pv.avg` instructions
//! with "average/maximum pooling QNN layers, as well as the ReLU
//! activation function" (§III-A). This module generates those kernels in
//! two flavours per operand width:
//!
//! * **SIMD** — lane-parallel over packed HWC tensors: one `pv.maxu`
//!   (or `pv.avgu` cascade) per 32-bit word covers 4/8/16 channels;
//! * **scalar baseline** — what a core without packed-SIMD support for
//!   the width does: byte-wise `lbu` + `p.maxu` over an 8-bit-unpacked
//!   tensor.
//!
//! Both are verified against the golden [`qnn::pool`] models; the cycle
//! ratio is the pooling counterpart of the paper's MatMul speedups.

use crate::config::ConfigError;
use crate::layout::LayerLayout;
use crate::runner::{BuildError, Kernel};
use pulp_asm::{Asm, Program};
use pulp_isa::instr::{Instr, LoopIdx, SimdAluOp, SimdOperand};
use pulp_isa::Reg::{self, *};
use qnn::pool::PoolShape;
use qnn::quantizer::Quantizer;
use qnn::BitWidth;
use std::fmt;

/// Which pooling operation to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolOp {
    /// Max pooling (window 2 or 3, any stride).
    Max,
    /// 2×2/stride-2 average pooling via the `pv.avgu` cascade.
    Avg2x2,
}

impl fmt::Display for PoolOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolOp::Max => f.write_str("maxpool"),
            PoolOp::Avg2x2 => f.write_str("avgpool2x2"),
        }
    }
}

/// A pooling kernel to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolKernelConfig {
    /// Layer geometry.
    pub shape: PoolShape,
    /// Logical operand width of the activations.
    pub bits: BitWidth,
    /// Operation.
    pub op: PoolOp,
    /// SIMD (packed) or scalar-baseline (8-bit unpacked) kernel.
    pub simd: bool,
}

impl PoolKernelConfig {
    /// Checks generator preconditions.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroDimension`] for degenerate shapes,
    /// [`ConfigError::Window`] for unsupported window geometry (only
    /// 2×2 and 3×3 windows; the average kernel is 2×2/s2 only), and
    /// [`ConfigError::ChannelAlignment`] when packed channel groups are
    /// not whole words (SIMD kernels only).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let s = &self.shape;
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
        if !matches!(s.k, 2 | 3) {
            return Err(ConfigError::Window {
                k: s.k,
                stride: s.stride,
            });
        }
        if self.op == PoolOp::Avg2x2 && !(s.k == 2 && s.stride == 2) {
            return Err(ConfigError::Window {
                k: s.k,
                stride: s.stride,
            });
        }
        if self.simd && !(self.shape.c * self.bits.bits() as usize).is_multiple_of(32) {
            return Err(ConfigError::ChannelAlignment {
                in_c: self.shape.c,
                bits: self.bits,
            });
        }
        Ok(())
    }
}

fn maxu(a: &mut Asm, fmt: pulp_isa::SimdFmt, rd: Reg, rs1: Reg, rs2: Reg) {
    a.i(Instr::PvAlu {
        op: SimdAluOp::Maxu,
        fmt,
        rd,
        rs1,
        op2: SimdOperand::Vector(rs2),
    });
}

fn avgu(a: &mut Asm, fmt: pulp_isa::SimdFmt, rd: Reg, rs1: Reg, rs2: Reg) {
    a.i(Instr::PvAlu {
        op: SimdAluOp::Avgu,
        fmt,
        rd,
        rs1,
        op2: SimdOperand::Vector(rs2),
    });
}

/// Emits the SIMD pooling kernel over the packed tensor.
///
/// Register plan: `a3` current-output-row input base, `a7` input row
/// stride constant, `a1`/`a2` oy/ox counters, `a5` output pointer,
/// `s2`–`s4` window row pointers, `t0`/`t1` data.
fn build_simd_pool(
    cfg: &PoolKernelConfig,
    layout: &LayerLayout,
) -> Result<Program, pulp_asm::AsmError> {
    let s = cfg.shape;
    let fmt = crate::emit::simd_fmt(cfg.bits);
    let c_bytes = (s.c * cfg.bits.bits() as usize / 8) as i32;
    let c_words = c_bytes / 4;
    let row_bytes = (s.in_w as i32) * c_bytes;
    let rows: &[Reg] = if s.k == 2 { &[S2, S3] } else { &[S2, S3, S4] };

    let mut a = Asm::new(pulp_soc::CODE_BASE);
    a.li(A5, layout.output as i32);
    a.li(A7, row_bytes);
    a.li(A6, layout.input as i32); // current output-row base
    a.li(A1, s.out_h() as i32);
    a.label("oy_loop");
    a.mv(A3, A6);
    a.li(A2, s.out_w() as i32);
    a.label("ox_loop");
    // Window row pointers.
    a.mv(S2, A3);
    a.add(S3, A3, A7);
    if s.k == 3 {
        a.add(S4, S3, A7);
    }
    a.li(T6, c_words);
    a.lp_setup(LoopIdx::L0, T6, "cw_end");
    {
        // First element: row 0, col 0 (post-increment walks the channel
        // words); remaining window elements via immediate offsets.
        a.p_lw_postinc(T0, 4, rows[0]);
        for dx in 1..s.k {
            a.lw(T1, (dx as i32) * c_bytes - 4, rows[0]);
            if cfg.op == PoolOp::Max {
                maxu(&mut a, fmt, T0, T0, T1);
            } else {
                avgu(&mut a, fmt, T0, T0, T1);
            }
        }
        for (r, row) in rows.iter().enumerate().skip(1) {
            a.p_lw_postinc(T1, 4, *row);
            if cfg.op == PoolOp::Max {
                maxu(&mut a, fmt, T0, T0, T1);
                for dx in 1..s.k {
                    a.lw(T2, (dx as i32) * c_bytes - 4, *row);
                    maxu(&mut a, fmt, T0, T0, T2);
                }
            } else {
                // Cascade: t1 = avg(row1 col0, row1 col1); t0 already
                // avg(row0 col0, row0 col1); final avg(t0, t1).
                a.lw(T2, c_bytes - 4, *row);
                avgu(&mut a, fmt, T1, T1, T2);
                avgu(&mut a, fmt, T0, T0, T1);
            }
            let _ = r;
        }
        a.p_sw_postinc(T0, 4, A5);
    }
    a.label("cw_end");
    a.addi(A3, A3, (s.stride as i32) * c_bytes);
    a.addi(A2, A2, -1);
    a.bne(A2, Zero, "ox_loop");
    for _ in 0..s.stride {
        a.add(A6, A6, A7);
    }
    a.addi(A1, A1, -1);
    a.bne(A1, Zero, "oy_loop");
    a.li(A0, 0);
    a.ecall();
    a.assemble()
}

/// Emits the scalar-baseline pooling kernel over the 8-bit-unpacked
/// tensor: `lbu` + `p.maxu` per element (average baseline: add + shift).
fn build_scalar_pool(
    cfg: &PoolKernelConfig,
    layout: &LayerLayout,
) -> Result<Program, pulp_asm::AsmError> {
    let s = cfg.shape;
    let c_bytes = s.c as i32; // one byte per channel, unpacked
    let row_bytes = (s.in_w as i32) * c_bytes;
    let rows: &[Reg] = if s.k == 2 { &[S2, S3] } else { &[S2, S3, S4] };

    let mut a = Asm::new(pulp_soc::CODE_BASE);
    a.li(A5, layout.output as i32);
    a.li(A7, row_bytes);
    a.li(A6, layout.input as i32);
    a.li(A1, s.out_h() as i32);
    a.label("oy_loop");
    a.mv(A3, A6);
    a.li(A2, s.out_w() as i32);
    a.label("ox_loop");
    a.mv(S2, A3);
    a.add(S3, A3, A7);
    if s.k == 3 {
        a.add(S4, S3, A7);
    }
    a.li(T6, c_bytes);
    a.lp_setup(LoopIdx::L0, T6, "ch_end");
    {
        a.i(Instr::LoadPostInc {
            kind: pulp_isa::LoadKind::ByteU,
            rd: T0,
            rs1: S2,
            offset: 1,
        });
        let combine = |a: &mut Asm, dst: Reg, src: Reg| {
            if cfg.op == PoolOp::Max {
                a.i(Instr::PulpAlu {
                    op: pulp_isa::instr::PulpAluOp::Maxu,
                    rd: dst,
                    rs1: dst,
                    rs2: src,
                });
            } else {
                a.add(dst, dst, src);
            }
        };
        for dx in 1..s.k {
            a.lbu(T1, (dx as i32) * c_bytes - 1, S2);
            combine(&mut a, T0, T1);
        }
        for row in rows.iter().skip(1) {
            a.i(Instr::LoadPostInc {
                kind: pulp_isa::LoadKind::ByteU,
                rd: T1,
                rs1: *row,
                offset: 1,
            });
            combine(&mut a, T0, T1);
            for dx in 1..s.k {
                a.lbu(T2, (dx as i32) * c_bytes - 1, *row);
                combine(&mut a, T0, T2);
            }
        }
        if cfg.op == PoolOp::Avg2x2 {
            a.srli(T0, T0, 2);
        }
        a.p_sb_postinc(T0, 1, A5);
    }
    a.label("ch_end");
    a.addi(A3, A3, (s.stride as i32) * c_bytes);
    a.addi(A2, A2, -1);
    a.bne(A2, Zero, "ox_loop");
    for _ in 0..s.stride {
        a.add(A6, A6, A7);
    }
    a.addi(A1, A1, -1);
    a.bne(A1, Zero, "oy_loop");
    a.li(A0, 0);
    a.ecall();
    a.assemble()
}

/// Builds a SIMD ReLU kernel over a signed 8-bit tensor of `len`
/// elements: one `pv.max.sci.b rd, rs1, 0` per four elements, in a
/// zero-overhead hardware loop.
///
/// # Errors
///
/// Propagates assembler errors (emitter bugs).
///
/// # Panics
///
/// Panics unless `len` is a multiple of 4 (whole words).
pub fn build_relu_program(len: usize, layout: &LayerLayout) -> Result<Program, pulp_asm::AsmError> {
    assert_eq!(len % 4, 0, "ReLU kernel processes whole words");
    let mut a = Asm::new(pulp_soc::CODE_BASE);
    a.li(A1, layout.input as i32);
    a.li(A2, layout.output as i32);
    a.li(T6, (len / 4) as i32);
    a.lp_setup(LoopIdx::L0, T6, "relu_end");
    a.p_lw_postinc(T0, 4, A1);
    a.i(Instr::PvAlu {
        op: SimdAluOp::Max,
        fmt: pulp_isa::SimdFmt::Byte,
        rd: T0,
        rs1: T0,
        op2: SimdOperand::Imm(0),
    });
    a.p_sw_postinc(T0, 4, A2);
    a.label("relu_end");
    a.li(A0, 0);
    a.ecall();
    a.assemble()
}

/// Builds the pooling program: the SIMD kernel over the packed tensor,
/// or the scalar baseline over the 8-bit-unpacked one.
///
/// # Errors
///
/// [`BuildError::Config`] on invalid configurations;
/// [`BuildError::Asm`] for assembler failures (generator bugs).
pub fn build_pool_program(
    cfg: &PoolKernelConfig,
    layout: &LayerLayout,
) -> Result<Program, BuildError> {
    cfg.validate().map_err(BuildError::Config)?;
    if cfg.simd {
        build_simd_pool(cfg, layout)
    } else {
        build_scalar_pool(cfg, layout)
    }
    .map_err(BuildError::Asm)
}

impl Kernel for PoolKernelConfig {
    fn name(&self) -> String {
        let kind = if self.simd { "simd" } else { "scalar" };
        format!("{}/{}/{}", self.op, self.bits, kind)
    }

    fn build(&self, layout: &LayerLayout) -> Result<Program, BuildError> {
        build_pool_program(self, layout)
    }

    fn cycle_budget(&self) -> u64 {
        50_000_000
    }

    fn macs(&self) -> u64 {
        0
    }

    fn input(&self) -> (usize, BitWidth) {
        (self.shape.input_len(), self.bits)
    }

    fn weights(&self) -> Option<(usize, BitWidth)> {
        None
    }

    /// SIMD kernels write the packed tensor; the scalar baseline one
    /// byte per element.
    fn output(&self) -> (usize, BitWidth) {
        let bits = if self.simd { self.bits } else { BitWidth::W8 };
        (self.shape.output_len(), bits)
    }

    fn thresholds(&self) -> Option<(BitWidth, usize, i16)> {
        None
    }

    /// SIMD kernels read the packed tensor; the scalar baseline reads
    /// it unpacked to one byte per element.
    fn input_image(&self, input: &[i16]) -> Vec<u8> {
        if self.simd {
            qnn::tensor::pack(self.bits, input)
        } else {
            input.iter().map(|&v| v as u8).collect()
        }
    }

    fn golden(&self, input: &[i16], _weights: &[i16], _quantizer: &Quantizer) -> Vec<i16> {
        match (self.op, self.simd) {
            (PoolOp::Max, _) => qnn::pool::maxpool(&self.shape, input),
            // The SIMD kernel averages pairwise (pv.avgu cascade); the
            // scalar baseline accumulates and shifts (exact sum/4).
            (PoolOp::Avg2x2, true) => qnn::pool::avgpool_2x2_cascaded(&self.shape, input),
            (PoolOp::Avg2x2, false) => qnn::pool::avgpool(&self.shape, input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunResult, Testbench};
    use pulp_soc::Soc;
    use qnn::rng::TensorRng;
    use riscv_core::IsaConfig;

    fn shape(c: usize) -> PoolShape {
        PoolShape {
            in_h: 8,
            in_w: 8,
            c,
            k: 2,
            stride: 2,
        }
    }

    fn check(cfg: PoolKernelConfig, seed: u64) -> RunResult {
        let tb = Testbench::new(cfg, seed).unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
        let r = tb.run().unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
        assert!(r.report.exit.halted, "{}", cfg.name());
        if !r.matches() {
            let diffs: Vec<_> = r
                .output
                .iter()
                .zip(&r.golden)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .take(6)
                .collect();
            panic!("{}: mismatch {diffs:?}", cfg.name());
        }
        r
    }

    #[test]
    fn simd_maxpool_all_widths() {
        for bits in qnn::bits::ALL_WIDTHS {
            let c = (32 / bits.bits() as usize) * 2;
            check(
                PoolKernelConfig {
                    shape: shape(c),
                    bits,
                    op: PoolOp::Max,
                    simd: true,
                },
                21,
            );
        }
    }

    #[test]
    fn simd_maxpool_3x3_window() {
        let s = PoolShape {
            in_h: 9,
            in_w: 9,
            c: 8,
            k: 3,
            stride: 3,
        };
        check(
            PoolKernelConfig {
                shape: s,
                bits: BitWidth::W4,
                op: PoolOp::Max,
                simd: true,
            },
            22,
        );
        let s = PoolShape {
            in_h: 7,
            in_w: 7,
            c: 4,
            k: 3,
            stride: 1,
        };
        check(
            PoolKernelConfig {
                shape: s,
                bits: BitWidth::W8,
                op: PoolOp::Max,
                simd: true,
            },
            23,
        );
    }

    #[test]
    fn simd_avgpool_all_widths() {
        for bits in qnn::bits::ALL_WIDTHS {
            let c = (32 / bits.bits() as usize) * 2;
            check(
                PoolKernelConfig {
                    shape: shape(c),
                    bits,
                    op: PoolOp::Avg2x2,
                    simd: true,
                },
                24,
            );
        }
    }

    #[test]
    fn scalar_baseline_matches_golden() {
        for op in [PoolOp::Max, PoolOp::Avg2x2] {
            check(
                PoolKernelConfig {
                    shape: shape(16),
                    bits: BitWidth::W8,
                    op,
                    simd: false,
                },
                25,
            );
        }
    }

    #[test]
    fn scalar_avg_equals_cascade_for_byte_inputs() {
        // The scalar baseline computes sum>>2; for the golden comparison
        // to hold we verify against the cascade — confirm the two agree
        // on this seed's data or the test above would already fail.
        // Here we only check it runs for sub-byte logical widths too
        // (data range 0..=3 keeps sum>>2 == cascade).
        check(
            PoolKernelConfig {
                shape: shape(16),
                bits: BitWidth::W2,
                op: PoolOp::Max,
                simd: false,
            },
            26,
        );
    }

    #[test]
    fn simd_beats_scalar_by_lane_factor() {
        let c = 32;
        let mk = |simd| PoolKernelConfig {
            shape: shape(c),
            bits: BitWidth::W8,
            op: PoolOp::Max,
            simd,
        };
        let fast = check(mk(true), 27).cycles();
        let slow = check(mk(false), 27).cycles();
        let ratio = slow as f64 / fast as f64;
        // 4 lanes per word at 8-bit: expect roughly 3–5×.
        assert!((2.5..6.0).contains(&ratio), "simd/scalar ratio {ratio:.2}");
    }

    #[test]
    fn relu_kernel_matches_golden() {
        let len = 256;
        let layout = LayerLayout::default_for_l2();
        let input = TensorRng::new(31).weights(BitWidth::W8, len); // signed bytes
        let mut soc = Soc::new(IsaConfig::xpulpnn());
        soc.load(&build_relu_program(len, &layout).unwrap());
        soc.mem.write_bytes(layout.input, &input.pack());
        let report = soc.run(10_000_000).unwrap();
        let packed = soc.mem.read_bytes(layout.output, len);
        let output = qnn::tensor::unpack(BitWidth::W8, true, packed, len);
        assert_eq!(output, qnn::pool::relu(input.values()));
        // One word per 4 elements, 3 instructions per word, zero loop
        // overhead: ~3 cycles per word plus prologue.
        assert!(report.perf.cycles < (len / 4 * 3 + 20) as u64);
    }

    #[test]
    fn misaligned_channels_rejected_for_simd() {
        let cfg = PoolKernelConfig {
            shape: shape(3),
            bits: BitWidth::W8,
            op: PoolOp::Max,
            simd: true,
        };
        assert!(matches!(
            Testbench::new(cfg, 0),
            Err(BuildError::Config(ConfigError::ChannelAlignment { .. }))
        ));
    }
}
