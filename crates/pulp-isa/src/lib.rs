#![warn(missing_docs)]

//! Instruction-set definitions for the XpulpNN reproduction.
//!
//! This crate models the ISA layers implemented by the extended RI5CY core
//! evaluated in *XpulpNN: Accelerating Quantized Neural Networks on RISC-V
//! Processors Through ISA Extensions* (DATE 2020):
//!
//! * **RV32IM** — the base integer ISA plus the multiply/divide extension.
//! * **RV32C** — the compressed extension (decoded to base operations).
//! * **XpulpV2** — RI5CY's DSP extension: hardware loops, post-increment
//!   memory accesses, bit manipulation, scalar min/max/clip/MAC, and packed
//!   SIMD on 8-bit (`b`) and 16-bit (`h`) lanes.
//! * **XpulpNN** — the paper's contribution: packed SIMD on 4-bit *nibble*
//!   (`n`) and 2-bit *crumb* (`c`) lanes, including dot products and
//!   sum-of-dot-products, plus the multi-cycle `pv.qnt.{n,c}` quantization
//!   instruction.
//! * **Xrvv** — the comparison backend: an RVV-style vector subset with
//!   sub-byte effective element widths (`vsetvli`, unit-stride and strided
//!   `vle.v`/`vse.v`, `vdot*.vv`, `vqnt.{n,c}.v`, `vslide1down.vx`,
//!   `vmv.x.s`), see [`vec`](mod@vec) and DESIGN.md §15.
//!
//! The crate provides:
//!
//! * [`Reg`] — architectural register names,
//! * [`Instr`] — the decoded instruction enum,
//! * [`table`] — the ISA table: every op's field codes and mnemonic and
//!   every operand field, declared once,
//! * [`encode::encode`] / [`decode::decode`] — binary encoding and decoding
//!   over that table (round-trip tested),
//! * [`simd`] — bit-accurate lane semantics shared by the simulator and the
//!   golden models,
//! * a disassembler via [`Instr`]'s `Display` implementation.
//!
//! # Example
//!
//! ```
//! use pulp_isa::{Instr, Reg, SimdFmt, decode::decode, encode::encode};
//! use pulp_isa::instr::SimdOperand;
//! use pulp_isa::simd::DotSign;
//!
//! // An XpulpNN 4-bit sum-of-dot-product: rd += sum(rs1[i] * rs2[i]).
//! let instr = Instr::PvSdot {
//!     fmt: SimdFmt::Nibble,
//!     sign: DotSign::SignedSigned,
//!     rd: Reg::A0,
//!     rs1: Reg::A1,
//!     op2: SimdOperand::Vector(Reg::A2),
//! };
//! let word = encode(&instr);
//! assert_eq!(decode(word)?, instr);
//! assert_eq!(instr.to_string(), "pv.sdotsp.n a0, a1, a2");
//! # Ok::<(), pulp_isa::DecodeError>(())
//! ```

pub mod compressed;
pub mod csr;
pub mod decode;
pub mod encode;
pub mod instr;
pub mod reg;
pub mod simd;
pub mod table;
pub mod vec;

pub use decode::DecodeError;
pub use instr::{BranchCond, Instr, LoadKind, StoreKind};
pub use reg::Reg;
pub use simd::SimdFmt;
pub use vec::{VReg, VecSew};
