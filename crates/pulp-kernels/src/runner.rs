//! Host-side testbench, one for every kernel kind: generates a layer's
//! tensors, builds the kernel, stages the SoC, runs, and checks the
//! device output against the golden model.
//!
//! A kind (convolution, depthwise, pooling, linear) is a [`Kernel`]: it
//! supplies its program, tensor shapes, L2 byte formats, golden model,
//! ISA and watchdog budget. [`Testbench`] owns everything else — where
//! each tensor lives in L2 and in what bytes, how the output is read
//! back, verification and forensics — once for all kinds.

use crate::config::{ConvKernelConfig, KernelIsa, QuantMode};
use crate::descriptors::{encode_descriptors, im2col_descriptors};
use crate::emit::{build_conv_program, simd_fmt};
use crate::layout::LayerLayout;
use pulp_asm::{AsmError, Program};
use pulp_soc::{RunReport, Soc};
use qnn::quantizer::{Quantizer, ThresholdSet};
use qnn::rng::TensorRng;
use qnn::tensor::QuantTensor;
use qnn::BitWidth;
use riscv_core::quant::{eytzinger, tree_stride};
use riscv_core::{IsaConfig, Trap};
use std::fmt;

/// Failed to construct (or, for one-shot helpers, run) a testbench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The kernel configuration is invalid.
    Config(crate::config::ConfigError),
    /// The generator produced un-assemblable code (a generator bug).
    Asm(AsmError),
    /// The simulator trapped while running a one-shot helper.
    Trap(Trap),
    /// A caller-supplied tensor does not fit the configuration (wrong
    /// length, width, out-of-range values, or a missing/superfluous
    /// threshold set).
    Tensor {
        /// What was wrong.
        what: &'static str,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => e.fmt(f),
            BuildError::Asm(e) => e.fmt(f),
            BuildError::Trap(t) => t.fmt(f),
            BuildError::Tensor { what } => write!(f, "tensor mismatch: {what}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// What one kernel kind supplies to the shared [`Testbench`].
pub trait Kernel: Copy + fmt::Debug {
    /// Short name for reports.
    fn name(&self) -> String;

    /// Validates the configuration and generates the program.
    ///
    /// # Errors
    ///
    /// [`BuildError::Config`] on invalid configurations;
    /// [`BuildError::Asm`] for assembler failures (generator bugs).
    fn build(&self, layout: &LayerLayout) -> Result<Program, BuildError>;

    /// The core the kernel runs on.
    fn isa(&self) -> KernelIsa {
        KernelIsa::XpulpNN
    }

    /// The watchdog budget: generous, so exhausting it means a runaway
    /// kernel, not a slow one.
    fn cycle_budget(&self) -> u64;

    /// Multiply-accumulates per run (pooling counts zero).
    fn macs(&self) -> u64;

    /// Input activations: element count and width.
    fn input(&self) -> (usize, BitWidth);

    /// Signed weights, if the kernel has any: element count and width,
    /// packed at `layout.weights`.
    fn weights(&self) -> Option<(usize, BitWidth)>;

    /// Output: element count and the width each element occupies
    /// packed at `layout.output` (read back zero-extended).
    fn output(&self) -> (usize, BitWidth);

    /// Threshold sets the kernel re-quantizes with — width, channels,
    /// and the bound `b` a synthetic set is drawn from (`[-b, b]`) —
    /// or `None` for shift+clamp kernels and pooling.
    fn thresholds(&self) -> Option<(BitWidth, usize, i16)>;

    /// Right-shift of shift+clamp re-quantization; unused when the
    /// kernel takes thresholds or does not re-quantize.
    fn shift(&self) -> u32 {
        0
    }

    /// The input's L2 image at `layout.input` (default: packed).
    fn input_image(&self, input: &[i16]) -> Vec<u8> {
        qnn::tensor::pack(self.input().1, input)
    }

    /// Host-computed tables the program reads besides the tensors, as
    /// `(address, bytes)`.
    fn tables(&self, _layout: &LayerLayout) -> Vec<(u32, Vec<u8>)> {
        Vec::new()
    }

    /// The golden software model (`weights` is empty without a weight
    /// tensor).
    fn golden(&self, input: &[i16], weights: &[i16], quantizer: &Quantizer) -> Vec<i16>;
}

/// Result of one verified kernel run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Exit status and performance counters.
    pub report: RunReport,
    /// Device output, unpacked to logical values.
    pub output: Vec<i16>,
    /// Golden output from the kernel's software model.
    pub golden: Vec<i16>,
    /// Forensic tail of the instruction stream, captured by a traced
    /// re-run when the output mismatches the golden model (`None` on a
    /// clean run).
    pub trace: Option<String>,
}

impl RunResult {
    /// True when the device output matches the golden model bit-exactly.
    pub fn matches(&self) -> bool {
        self.output == self.golden
    }

    /// Total kernel cycles.
    pub fn cycles(&self) -> u64 {
        self.report.perf.cycles
    }

    /// Multiply-accumulates per cycle achieved by the kernel; 0 when no
    /// cycles were recorded (e.g. an immediately-trapping run).
    pub fn macs_per_cycle(&self, cfg: &impl Kernel) -> f64 {
        if self.report.perf.cycles == 0 {
            0.0
        } else {
            cfg.macs() as f64 / self.report.perf.cycles as f64
        }
    }
}

/// A ready-to-run layer: program + tensors.
#[derive(Debug, Clone)]
pub struct Testbench<K> {
    /// The kernel configuration.
    pub cfg: K,
    /// The L2 layout in use.
    pub layout: LayerLayout,
    /// The generated program (inspect `program.listing()` for the code).
    pub program: Program,
    input: QuantTensor,
    weights: Option<QuantTensor>,
    quantizer: Quantizer,
}

/// A convolution layer's testbench.
pub type ConvTestbench = Testbench<ConvKernelConfig>;

impl<K: Kernel> Testbench<K> {
    /// Builds the kernel and deterministic synthetic tensors for `cfg`,
    /// drawn from `seed` in the order input, weights, thresholds.
    ///
    /// # Errors
    ///
    /// [`BuildError`] if the configuration is invalid or the generator
    /// emits un-assemblable code.
    pub fn new(cfg: K, seed: u64) -> Result<Testbench<K>, BuildError> {
        let layout = LayerLayout::default_for_l2();
        let program = cfg.build(&layout)?;
        let mut rng = TensorRng::new(seed);
        let (in_len, in_bits) = cfg.input();
        let input = rng.activations(in_bits, in_len);
        let weights = cfg.weights().map(|(len, bits)| rng.weights(bits, len));
        let thresholds = cfg
            .thresholds()
            .map(|(bits, channels, b)| rng.thresholds(bits, channels, -b, b));
        Ok(Testbench {
            quantizer: quantizer(&cfg, thresholds),
            cfg,
            layout,
            program,
            input,
            weights,
        })
    }

    /// Builds a testbench around caller-supplied tensors (e.g. to chain
    /// layers: feed one layer's output in as the next layer's input).
    ///
    /// # Errors
    ///
    /// [`BuildError`] for invalid configurations, and
    /// [`BuildError::Tensor`] if tensor lengths or widths do not match
    /// the configuration, or if a weight tensor or threshold set is
    /// missing or superfluous.
    pub fn from_parts(
        cfg: K,
        input: QuantTensor,
        weights: Option<QuantTensor>,
        thresholds: Option<ThresholdSet>,
    ) -> Result<Testbench<K>, BuildError> {
        let layout = LayerLayout::default_for_l2();
        let program = cfg.build(&layout)?;
        check_input(&cfg, &input)?;
        let tensor_err = |what| Err(BuildError::Tensor { what });
        match (cfg.weights(), &weights) {
            (None, None) => {}
            (Some((len, bits)), Some(w)) => {
                if w.len() != len {
                    return tensor_err("weight length mismatch");
                }
                if w.bits() != bits {
                    return tensor_err("weight width mismatch");
                }
            }
            (None, Some(_)) => return tensor_err("kernel takes no weights"),
            (Some(_), None) => return tensor_err("kernel needs weights"),
        }
        match (cfg.thresholds(), &thresholds) {
            (None, None) => {}
            (Some((bits, channels, _)), Some(t)) => {
                if t.channels() != channels {
                    return tensor_err("threshold channel mismatch");
                }
                if t.bits() != bits {
                    return tensor_err("threshold width mismatch");
                }
            }
            (None, Some(_)) => return tensor_err("kernel takes no thresholds"),
            (Some(_), None) => return tensor_err("sub-byte kernels need thresholds"),
        }
        Ok(Testbench {
            quantizer: quantizer(&cfg, thresholds),
            cfg,
            layout,
            program,
            input,
            weights,
        })
    }

    /// The same layer (program, weights, thresholds) fed `input`
    /// instead of its own activations.
    ///
    /// # Errors
    ///
    /// [`BuildError::Tensor`] if `input` has the wrong length or width.
    pub fn with_input(self, input: QuantTensor) -> Result<Testbench<K>, BuildError> {
        check_input(&self.cfg, &input)?;
        Ok(Testbench { input, ..self })
    }

    /// The input tensor this testbench will load.
    pub fn input(&self) -> &QuantTensor {
        &self.input
    }

    /// The threshold sets the kernel re-quantizes with, if any.
    pub fn thresholds(&self) -> Option<&ThresholdSet> {
        match &self.quantizer {
            Quantizer::Thresholds(t) => Some(t),
            Quantizer::Shift8 { .. } => None,
        }
    }

    /// The tensors' L2 images as `(address, bytes)`: the input, the
    /// packed weights, and the threshold trees (channel `ch`'s Eytzinger
    /// heap at `layout.thresholds + ch · stride`).
    pub fn tensor_images(&self) -> Vec<(u32, Vec<u8>)> {
        let mut images = vec![(self.layout.input, self.cfg.input_image(self.input.values()))];
        if let Some(w) = &self.weights {
            images.push((self.layout.weights, w.pack()));
        }
        if let Some(t) = self.thresholds() {
            let stride = tree_stride(simd_fmt(t.bits())) as usize;
            let mut image = vec![0u8; t.channels() * stride];
            for (ch, tree) in image.chunks_exact_mut(stride).enumerate() {
                for (dst, v) in tree.chunks_exact_mut(2).zip(eytzinger(t.channel(ch))) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
            images.push((self.layout.thresholds, image));
        }
        images
    }

    /// Writes `input`'s L2 image over a staged SoC's input region.
    pub fn write_input(&self, soc: &mut Soc, input: &[i16]) {
        soc.mem
            .write_bytes(self.layout.input, &self.cfg.input_image(input));
    }

    /// Reads the output back through `read(address, len)` (an L2 view
    /// of whichever machine ran the kernel) and unpacks it.
    pub fn read_output<'m>(&self, read: impl FnOnce(u32, usize) -> &'m [u8]) -> Vec<i16> {
        let (len, bits) = self.cfg.output();
        let packed = read(self.layout.output, qnn::tensor::packed_len(bits, len));
        qnn::tensor::unpack(bits, false, packed, len)
    }

    /// The core configuration this kernel requires.
    pub fn isa_config(&self) -> IsaConfig {
        match self.cfg.isa() {
            KernelIsa::XpulpV2 => IsaConfig::xpulpv2(),
            KernelIsa::XpulpNN => IsaConfig::xpulpnn(),
            KernelIsa::Vector { .. } => IsaConfig::vector(),
        }
    }

    /// Loads program, tensors and tables into a fresh SoC (carrying a
    /// vector unit of the configured VLEN for the vector backend).
    pub fn stage(&self) -> Soc {
        let mut soc = match self.cfg.isa().vlen_bits() {
            Some(vlen) => Soc::with_vlen(self.isa_config(), vlen),
            None => Soc::new(self.isa_config()),
        };
        soc.load(&self.program);
        for (addr, bytes) in self
            .tensor_images()
            .into_iter()
            .chain(self.cfg.tables(&self.layout))
        {
            soc.mem.write_bytes(addr, &bytes);
        }
        soc
    }

    /// The watchdog budget [`Testbench::run`] uses. Public so external
    /// drivers (fault injection, network recovery) apply the same
    /// contract.
    pub fn cycle_budget(&self) -> u64 {
        self.cfg.cycle_budget()
    }

    /// Runs the kernel to completion and verifies against the golden
    /// model.
    ///
    /// Failures come with forensics: the simulation is deterministic, so
    /// on a trap or a golden-model mismatch the kernel is re-run with an
    /// execution tracer attached and the tail of the instruction stream
    /// is reported — on stderr for a trap, in [`RunResult::trace`] for a
    /// mismatch. The first (hot) run itself is never traced.
    ///
    /// # Errors
    ///
    /// Propagates simulator traps (a trap always indicates a kernel or
    /// model bug).
    pub fn run(&self) -> Result<RunResult, Trap> {
        self.run_staged(self.stage())
    }

    /// Runs like [`Testbench::run`] but with the core's decoded-block
    /// fast path enabled (see [`riscv_core::fastpath`]). Simulated
    /// results — output tensor, exit status, every cycle and event
    /// counter — are bit-exact with [`Testbench::run`]; only host
    /// wall-clock differs.
    ///
    /// # Errors
    ///
    /// Propagates simulator traps, like [`Testbench::run`].
    pub fn run_fastpath(&self) -> Result<RunResult, Trap> {
        let mut soc = self.stage();
        soc.enable_fastpath();
        self.run_staged(soc)
    }

    fn run_staged(&self, mut soc: Soc) -> Result<RunResult, Trap> {
        match soc.run(self.cycle_budget()) {
            Ok(report) => Ok(self.collect(&soc, report)),
            Err(trap) => {
                eprintln!(
                    "kernel {} trapped: {trap}\n{}",
                    self.cfg.name(),
                    self.trace_tail()
                );
                Err(trap)
            }
        }
    }

    /// Runs like [`Testbench::run`] but with an execution tracer
    /// attached for the whole run, returning the tracer alongside the
    /// verified result — the input to hotspot profiling.
    ///
    /// # Errors
    ///
    /// Propagates simulator traps, after dumping the trace tail to
    /// stderr.
    pub fn run_profiled(
        &self,
        ring: usize,
    ) -> Result<(RunResult, Box<riscv_core::ExecTracer>), Trap> {
        let mut soc = self.stage();
        soc.core.attach_tracer(ring);
        let outcome = soc.run(self.cycle_budget());
        let tracer = soc.core.take_tracer().expect("tracer was attached");
        match outcome {
            Ok(report) => Ok((self.collect(&soc, report), tracer)),
            Err(trap) => {
                eprintln!(
                    "kernel {} trapped: {trap}\n{}",
                    self.cfg.name(),
                    tracer.dump_tail()
                );
                Err(trap)
            }
        }
    }

    /// The layer's golden output from the software model — what the
    /// device must produce, and what graceful degradation falls back to.
    pub fn golden(&self) -> Vec<i16> {
        self.golden_for(self.input.values())
    }

    /// The golden output for a *caller-supplied* input under this
    /// testbench's weights and quantizer — what a serving worker must
    /// produce for a request carrying that input. The values must
    /// already be range-valid for the input width (the serving layer
    /// validates at submit time).
    pub fn golden_for(&self, input: &[i16]) -> Vec<i16> {
        let weights = self.weights.as_ref().map_or(&[][..], QuantTensor::values);
        self.cfg.golden(input, weights, &self.quantizer)
    }

    /// Unpacks the device output, runs the golden model, and flags a
    /// mismatch with a forensic re-run. Public so external drivers
    /// (fault injection, network recovery) can run a staged SoC
    /// themselves and still get a verified result.
    pub fn collect(&self, soc: &Soc, report: RunReport) -> RunResult {
        let mut result = RunResult {
            report,
            output: self.read_output(|addr, len| soc.mem.read_bytes(addr, len)),
            golden: self.golden(),
            trace: None,
        };
        if !result.matches() {
            result.trace = Some(self.trace_tail());
        }
        result
    }

    /// Re-runs the kernel with an execution tracer attached and returns
    /// the dump of the last retired instructions (plus the trap, if the
    /// run ends in one). The simulator is deterministic, so this
    /// reproduces a failing run exactly.
    pub fn trace_tail(&self) -> String {
        const RING: usize = 64;
        let mut soc = self.stage();
        soc.core.attach_tracer(RING);
        let outcome = soc.run(self.cycle_budget());
        let tracer = soc.core.take_tracer().expect("tracer was attached");
        let mut s = tracer.dump_tail();
        if let Err(trap) = outcome {
            s.push_str(&format!("run ended in trap: {trap}\n"));
        }
        s
    }
}

fn check_input(cfg: &impl Kernel, input: &QuantTensor) -> Result<(), BuildError> {
    let (len, bits) = cfg.input();
    if input.len() != len {
        return Err(BuildError::Tensor {
            what: "input length mismatch",
        });
    }
    if input.bits() != bits {
        return Err(BuildError::Tensor {
            what: "input width mismatch",
        });
    }
    Ok(())
}

fn quantizer(cfg: &impl Kernel, thresholds: Option<ThresholdSet>) -> Quantizer {
    thresholds.map_or(
        Quantizer::Shift8 {
            shift: cfg.shift(),
            bias: vec![],
        },
        Quantizer::Thresholds,
    )
}

impl Kernel for ConvKernelConfig {
    fn name(&self) -> String {
        ConvKernelConfig::name(self)
    }

    fn build(&self, layout: &LayerLayout) -> Result<Program, BuildError> {
        build_conv_program(self, layout)
    }

    fn isa(&self) -> KernelIsa {
        self.isa
    }

    /// Every variant runs well under 40 cycles/MAC.
    fn cycle_budget(&self) -> u64 {
        10_000_000 + self.shape.macs() * 40
    }

    fn macs(&self) -> u64 {
        self.shape.macs()
    }

    fn input(&self) -> (usize, BitWidth) {
        (self.shape.input_len(), self.bits)
    }

    fn weights(&self) -> Option<(usize, BitWidth)> {
        Some((self.shape.weight_len(), self.bits))
    }

    fn output(&self) -> (usize, BitWidth) {
        (self.shape.output_len(), self.out_bits)
    }

    fn thresholds(&self) -> Option<(BitWidth, usize, i16)> {
        match self.quant {
            QuantMode::Shift8 { .. } => None,
            QuantMode::SoftwareTree | QuantMode::HardwareQnt => {
                Some((self.out_bits, self.shape.out_c, 2000))
            }
        }
    }

    fn shift(&self) -> u32 {
        match self.quant {
            QuantMode::Shift8 { shift } => shift,
            QuantMode::SoftwareTree | QuantMode::HardwareQnt => 0,
        }
    }

    /// The im2col run descriptors at `layout.descriptors`.
    fn tables(&self, layout: &LayerLayout) -> Vec<(u32, Vec<u8>)> {
        let descs = im2col_descriptors(self, layout.input);
        vec![(layout.descriptors, encode_descriptors(&descs))]
    }

    fn golden(&self, input: &[i16], weights: &[i16], quantizer: &Quantizer) -> Vec<i16> {
        qnn::conv::conv2d_quantized(&self.shape, input, weights, quantizer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn::conv::ConvShape;
    use qnn::BitWidth;

    /// A small layer exercising padding, multiple channel blocks and
    /// several pixel pairs, sized so in_c·bits is word-aligned at every
    /// width.
    fn small_shape(bits: BitWidth) -> ConvShape {
        let in_c = (32 / bits.bits() as usize) * 2;
        ConvShape {
            in_h: 4,
            in_w: 4,
            in_c,
            out_c: 8,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        }
    }

    fn check(cfg: ConvKernelConfig, seed: u64) -> RunResult {
        let tb = ConvTestbench::new(cfg, seed).unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
        let r = tb.run().unwrap_or_else(|e| panic!("{}: {e}", cfg.name()));
        assert!(r.report.exit.halted, "{} did not halt", cfg.name());
        assert_eq!(r.report.exit.exit_code, 0, "{}", cfg.name());
        if !r.matches() {
            let diffs: Vec<_> = r
                .output
                .iter()
                .zip(&r.golden)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .take(8)
                .collect();
            panic!(
                "{}: output mismatch, first diffs {:?}\n{}",
                cfg.name(),
                diffs,
                r.trace.as_deref().unwrap_or("")
            );
        }
        r
    }

    #[test]
    fn trace_tail_reproduces_the_run() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::HardwareQnt,
        };
        let tb = ConvTestbench::new(cfg, 12).unwrap();
        let tail = tb.trace_tail();
        // The dump ends at the halt and carries disassembly + pc columns.
        assert!(tail.contains("ecall"), "missing halt in:\n{tail}");
        assert!(tail.contains("retired instructions"));
        // A clean run attaches no trace to the result.
        let r = tb.run().unwrap();
        assert!(r.matches());
        assert!(r.trace.is_none());
        // And the per-run ledger balances.
        assert_eq!(r.report.perf.ledger.total(), r.report.perf.cycles);
    }

    #[test]
    fn fastpath_run_is_bit_exact_with_interpreter() {
        for (bits, quant) in [
            (BitWidth::W8, QuantMode::Shift8 { shift: 8 }),
            (BitWidth::W4, QuantMode::HardwareQnt),
            (BitWidth::W4, QuantMode::SoftwareTree),
            (BitWidth::W2, QuantMode::HardwareQnt),
        ] {
            let cfg = ConvKernelConfig {
                shape: small_shape(bits),
                bits,
                out_bits: bits,
                isa: KernelIsa::XpulpNN,
                quant,
            };
            let tb = ConvTestbench::new(cfg, 21).unwrap();
            let interp = tb.run().unwrap();
            let fast = tb.run_fastpath().unwrap();
            assert!(fast.matches(), "{}", cfg.name());
            assert_eq!(interp.report, fast.report, "{}", cfg.name());
            assert_eq!(interp.output, fast.output, "{}", cfg.name());
        }
    }

    /// The Fig. 8 pinned cycle count (4-bit hardware-quantized layer,
    /// standard seed) must hold bit-exactly under the decoded-block
    /// fast path; `faultsim`'s `disarmed_runs_cost_nothing` pins the
    /// same constants for the interpreter.
    #[test]
    fn paper_layer_fastpath_pins_fig8_cycle_count() {
        let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
        let tb = ConvTestbench::new(cfg, 42).unwrap();
        let r = tb.run_fastpath().unwrap();
        assert!(r.matches());
        assert_eq!(r.report.perf.cycles, 1_440_804);
        assert_eq!(r.report.perf.instret, 1_337_750);
        assert_eq!(r.report.perf.ledger.total(), r.report.perf.cycles);
    }

    #[test]
    fn trace_tail_rerun_never_perturbs_caller_observed_counters() {
        // The auto-dump re-run (`trace_tail`) must stage a *fresh* SoC:
        // the perf counters and cycle ledger a caller observes from
        // `run()` have to be identical whether or not a forensic dump
        // fired in between.
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::HardwareQnt,
        };
        let tb = ConvTestbench::new(cfg, 12).unwrap();
        let r1 = tb.run().unwrap();
        let _ = tb.trace_tail(); // simulate a trap-triggered dump
        let r2 = tb.run().unwrap();
        assert_eq!(r1.report.perf, r2.report.perf);
        assert_eq!(r1.report.perf.ledger, r2.report.perf.ledger);
        assert_eq!(r1.report.perf.ledger.total(), r1.report.perf.cycles);
        // Same invariant under the fast path.
        let f1 = tb.run_fastpath().unwrap();
        let _ = tb.trace_tail();
        let f2 = tb.run_fastpath().unwrap();
        assert_eq!(f1.report.perf, f2.report.perf);
        assert_eq!(f1.report.perf, r1.report.perf);
    }

    #[test]
    fn native_w8_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W8),
            bits: BitWidth::W8,
            out_bits: BitWidth::W8,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::Shift8 { shift: 8 },
        };
        check(cfg, 11);
    }

    #[test]
    fn native_w4_hwquant_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::HardwareQnt,
        };
        check(cfg, 12);
    }

    #[test]
    fn native_w4_swquant_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::SoftwareTree,
        };
        check(cfg, 13);
    }

    #[test]
    fn native_w2_hwquant_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W2),
            bits: BitWidth::W2,
            out_bits: BitWidth::W2,
            isa: KernelIsa::XpulpNN,
            quant: QuantMode::HardwareQnt,
        };
        check(cfg, 14);
    }

    /// Every vector-backend variant, at both comparison VLENs, must be
    /// bit-identical to the golden `qnn` reference — the same contract
    /// the SIMD kernels hold.
    #[test]
    fn vector_small_layers_match_golden_at_both_vlens() {
        for vlen in [128u32, 256] {
            for (bits, quant) in [
                (BitWidth::W8, QuantMode::Shift8 { shift: 8 }),
                (BitWidth::W4, QuantMode::HardwareQnt),
                (BitWidth::W4, QuantMode::SoftwareTree),
                (BitWidth::W2, QuantMode::HardwareQnt),
                (BitWidth::W2, QuantMode::SoftwareTree),
            ] {
                let cfg = ConvKernelConfig {
                    shape: small_shape(bits),
                    bits,
                    out_bits: bits,
                    isa: KernelIsa::vector(vlen),
                    quant,
                };
                check(cfg, 31);
            }
        }
    }

    #[test]
    fn vector_and_simd_backends_agree_bit_exactly() {
        // Same data, same quantizer semantics: the two backends differ
        // only in cycles.
        for bits in [BitWidth::W4, BitWidth::W2] {
            let mk = |isa| ConvKernelConfig {
                shape: small_shape(bits),
                bits,
                out_bits: bits,
                isa,
                quant: QuantMode::HardwareQnt,
            };
            let r_nn = check(mk(KernelIsa::XpulpNN), 33);
            let r_vec = check(mk(KernelIsa::vector(128)), 33);
            assert_eq!(r_nn.output, r_vec.output, "{bits}");
        }
    }

    #[test]
    fn wider_vlen_never_costs_more_cycles() {
        let mk = |vlen| ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::vector(vlen),
            quant: QuantMode::HardwareQnt,
        };
        let r128 = check(mk(128), 35);
        let r256 = check(mk(256), 35);
        assert_eq!(r128.output, r256.output);
        assert!(
            r256.cycles() < r128.cycles(),
            "doubling VLEN must shorten the strip loop: {} vs {}",
            r256.cycles(),
            r128.cycles()
        );
    }

    #[test]
    fn vector_run_charges_the_vector_ledger_buckets() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::vector(128),
            quant: QuantMode::HardwareQnt,
        };
        let tb = ConvTestbench::new(cfg, 36).unwrap();
        let r = tb.run().unwrap();
        assert!(r.matches());
        use riscv_core::perf::CycleClass;
        let ledger = r.report.perf.ledger;
        assert!(ledger.get(CycleClass::VecDot) > 0, "vdot cycles");
        assert!(ledger.get(CycleClass::VecQnt) > 0, "vqnt cycles");
        assert!(ledger.get(CycleClass::VecLoad) > 0, "vle cycles");
        assert!(ledger.get(CycleClass::VecCfg) > 0, "vsetvli cycles");
        assert!(r.report.perf.vec_macs > 0, "vector MACs counted");
        assert_eq!(ledger.total(), r.report.perf.cycles);
        // And the fast path reproduces the run bit-exactly.
        let fast = tb.run_fastpath().unwrap();
        assert_eq!(fast.report, r.report);
        assert_eq!(fast.output, r.output);
    }

    #[test]
    fn baseline_w4_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpV2,
            quant: QuantMode::SoftwareTree,
        };
        check(cfg, 15);
    }

    #[test]
    fn baseline_w2_small_layer_matches_golden() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W2),
            bits: BitWidth::W2,
            out_bits: BitWidth::W2,
            isa: KernelIsa::XpulpV2,
            quant: QuantMode::SoftwareTree,
        };
        check(cfg, 16);
    }

    #[test]
    fn baseline_w8_equals_native_w8_cycles() {
        // The 8-bit kernel is identical on both cores (XpulpNN adds
        // nothing at 8 bits).
        let mk = |isa| ConvKernelConfig {
            shape: small_shape(BitWidth::W8),
            bits: BitWidth::W8,
            out_bits: BitWidth::W8,
            isa,
            quant: QuantMode::Shift8 { shift: 8 },
        };
        let r_v2 = check(mk(KernelIsa::XpulpV2), 17);
        let r_nn = check(mk(KernelIsa::XpulpNN), 17);
        assert_eq!(r_v2.cycles(), r_nn.cycles());
        assert_eq!(r_v2.output, r_nn.output);
    }

    #[test]
    fn hw_and_sw_quant_agree_bit_exactly() {
        // Fig. 6's two variants must produce identical tensors — only
        // the cycle count differs.
        let mk = |quant| ConvKernelConfig {
            shape: small_shape(BitWidth::W4),
            bits: BitWidth::W4,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpNN,
            quant,
        };
        let hw = check(mk(QuantMode::HardwareQnt), 18);
        let sw = check(mk(QuantMode::SoftwareTree), 18);
        assert_eq!(hw.output, sw.output);
        assert!(
            hw.cycles() < sw.cycles(),
            "pv.qnt must beat the software tree ({} vs {})",
            hw.cycles(),
            sw.cycles()
        );
    }

    /// Mixed precision (per-layer quantization, the introduction's
    /// motivating use-case): every operand-width → output-width
    /// combination verifies against the golden model.
    #[test]
    fn mixed_precision_all_combinations_match_golden() {
        for bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
            for out_bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
                if bits == out_bits {
                    continue; // homogeneous cases covered elsewhere
                }
                let cfg = ConvKernelConfig::mixed(small_shape(bits), bits, out_bits);
                check(cfg, 60 + out_bits.bits() as u64);
            }
        }
    }

    /// Mixed precision with the software tree (works on the baseline ISA
    /// too: thresholding needs no XpulpNN instruction).
    #[test]
    fn mixed_precision_sw_tree_on_baseline() {
        let cfg = ConvKernelConfig {
            shape: small_shape(BitWidth::W8),
            bits: BitWidth::W8,
            out_bits: BitWidth::W4,
            isa: KernelIsa::XpulpV2,
            quant: QuantMode::SoftwareTree,
        };
        check(cfg, 61);
    }

    #[test]
    fn strided_and_rectangular_shapes_match_golden() {
        for bits in [BitWidth::W4, BitWidth::W2] {
            let in_c = (32 / bits.bits() as usize) * 2;
            let shape = ConvShape {
                in_h: 6,
                in_w: 5,
                in_c,
                out_c: 4,
                k_h: 3,
                k_w: 3,
                stride: 2,
                pad: 1,
            };
            // 3×3 output = 9 pixels (odd) -> bump width for even pixels.
            let shape = ConvShape { in_w: 7, ..shape }; // 3×4 = 12 pixels
            let cfg = ConvKernelConfig {
                shape,
                bits,
                out_bits: bits,
                isa: KernelIsa::XpulpNN,
                quant: QuantMode::HardwareQnt,
            };
            check(cfg, 19);
        }
    }
}
