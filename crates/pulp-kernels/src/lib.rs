#![warn(missing_docs)]

//! PULP-NN-style QNN kernels for the XpulpNN core simulator.
//!
//! This crate is the reproduction of the kernel library the paper
//! benchmarks (§IV): quantized convolutions implemented as
//! **im2col + MatMul** (the ARM/PULP execution model of §II-2), generated
//! as hand-scheduled assembly for every point of the evaluation matrix:
//!
//! | operands | ISA | MatMul inner loop | re-quantization |
//! |---|---|---|---|
//! | 8-bit | XpulpV2/XpulpNN | `pv.sdotusp.b`, 2×2 blocking | shift + clip |
//! | 4-bit | XpulpNN | `pv.sdotusp.n` on packed nibbles | `pv.qnt.n` **or** software tree |
//! | 2-bit | XpulpNN | `pv.sdotusp.c` on packed crumbs | `pv.qnt.c` **or** software tree |
//! | 4-bit | XpulpV2 (baseline) | unpack to 8-bit (shuffle-based), `pv.sdotusp.b` | software tree |
//! | 2-bit | XpulpV2 (baseline) | two-stage unpack to 8-bit, `pv.sdotusp.b` | software tree |
//!
//! The 2×2 MatMul blocking follows the paper exactly: weights from two
//! consecutive filters × activations from two im2col buffers, so each
//! inner-loop iteration feeds four accumulators, and the two per-pixel
//! accumulators handed to `pv.qnt` belong to *consecutive output
//! channels* — matching the quantization unit's hard-wired second-tree
//! offset.
//!
//! The im2col phase is descriptor-driven: the host (playing the role of
//! the compiler's static address computation) emits one `(src, pre,
//! copy, post)` run descriptor per kernel row, and the device walks them
//! with word copies — the baseline sub-byte variants fuse the
//! unpack-to-8-bit into this copy, exactly as PULP-NN's `im2col_u4_to_u8`
//! does.
//!
//! Depthwise, pooling and linear kernels sit beside the convolutions.
//! Every kind's configuration implements [`Kernel`], and one
//! [`Testbench`] drives them all: it stages each tensor in L2 in its
//! kind's byte format, runs the kernel, reads the output back and
//! verifies it bit-exactly against the golden [`qnn`] model. Start
//! from [`ConvKernelConfig`] and [`ConvTestbench`]
//! (`Testbench<ConvKernelConfig>`).

pub mod cluster;
pub mod config;
pub mod depthwise;
pub mod descriptors;
pub mod emit;
pub mod layout;
pub mod linear;
pub mod pool;
pub mod runner;

pub use config::{ConvKernelConfig, KernelIsa, QuantMode};
pub use layout::LayerLayout;
pub use runner::{BuildError, ConvTestbench, Kernel, RunResult, Testbench};
