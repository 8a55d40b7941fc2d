//! Whole-network deployment: describe a quantized network as a sequence
//! of layers, compile every layer to a simulator kernel, and run
//! inference end to end on the simulated SoC — each layer verified
//! against its golden model on the way.
//!
//! This is the downstream-user API the kernel library exists for; the
//! `network_inference` example drives it end to end.
//!
//! # Graceful degradation
//!
//! An always-on inference deployment cannot crash because one kernel
//! invocation misbehaved. [`Network::run`] therefore never propagates a
//! raw [`Trap`](riscv_core::Trap): every layer executes under a
//! watchdog cycle budget, failures (trap, watchdog, or output/golden
//! divergence) trigger a bounded rollback-retry from the layer's
//! pre-fault checkpoint, and if retries are exhausted the layer falls
//! back to its golden software model so inference still completes —
//! with the degradation recorded in the per-layer [`LayerOutcome`]. [`Network::run_with_policy`] can
//! additionally arm seeded transient-fault injection
//! ([`faultsim::FaultPlan`]) to exercise exactly these paths.
//!
//! # Example
//!
//! ```no_run
//! use xpulpnn::network::{Layer, Network};
//! use xpulpnn::qnn::conv::ConvShape;
//! use xpulpnn::qnn::pool::PoolShape;
//! use xpulpnn::BitWidth;
//!
//! # fn main() -> Result<(), xpulpnn::network::NetworkError> {
//! let net = Network::new(vec![
//!     Layer::conv(
//!         ConvShape { in_h: 8, in_w: 8, in_c: 8, out_c: 16, k_h: 3, k_w: 3, stride: 1, pad: 1 },
//!         BitWidth::W8,
//!         BitWidth::W4,
//!     ),
//!     Layer::maxpool(PoolShape { in_h: 8, in_w: 8, c: 16, k: 2, stride: 2 }, BitWidth::W4),
//! ])?;
//! let result = net.run(42)?;
//! println!("{} cycles total", result.total_cycles());
//! # Ok(())
//! # }
//! ```

use faultsim::{run_armed, ArmConfig, FaultPlan, TargetSpace};
use pulp_kernels::depthwise::DepthwiseKernelConfig;
use pulp_kernels::linear::LinearKernelConfig;
use pulp_kernels::pool::{PoolKernelConfig, PoolOp};
use pulp_kernels::{BuildError, ConvKernelConfig, ConvTestbench, Kernel, QuantMode, Testbench};
use pulp_soc::RunReport;
use qnn::conv::ConvShape;
use qnn::depthwise::DepthwiseShape;
use qnn::linear::LinearShape;
use qnn::pool::PoolShape;
use qnn::rng::TensorRng;
use qnn::tensor::QuantTensor;
use qnn::BitWidth;
use std::fmt;

/// One layer of a network description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Standard convolution (`bits`-wide operands, `out_bits`-wide
    /// outputs; `pv.qnt` / shift+clip on the extended core).
    Conv {
        /// Geometry.
        shape: ConvShape,
        /// Operand width.
        bits: BitWidth,
        /// Output width.
        out_bits: BitWidth,
    },
    /// Depthwise convolution (8-bit only; see
    /// [`pulp_kernels::depthwise`]).
    Depthwise {
        /// Geometry.
        shape: DepthwiseShape,
        /// Re-quantization shift.
        shift: u32,
    },
    /// Max pooling (packed SIMD).
    MaxPool {
        /// Geometry.
        shape: PoolShape,
        /// Activation width.
        bits: BitWidth,
    },
    /// Fully connected layer.
    Linear {
        /// Geometry.
        shape: LinearShape,
        /// Operand (and output) width.
        bits: BitWidth,
    },
}

impl Layer {
    /// Convolution layer shorthand.
    pub fn conv(shape: ConvShape, bits: BitWidth, out_bits: BitWidth) -> Layer {
        Layer::Conv {
            shape,
            bits,
            out_bits,
        }
    }

    /// Depthwise layer shorthand (8-bit, shift 7).
    pub fn depthwise(shape: DepthwiseShape) -> Layer {
        Layer::Depthwise { shape, shift: 7 }
    }

    /// Max-pooling layer shorthand.
    pub fn maxpool(shape: PoolShape, bits: BitWidth) -> Layer {
        Layer::MaxPool { shape, bits }
    }

    /// Linear layer shorthand.
    pub fn linear(shape: LinearShape, bits: BitWidth) -> Layer {
        Layer::Linear { shape, bits }
    }

    /// `(input elements, input width)` this layer consumes.
    pub fn input_spec(&self) -> (usize, BitWidth) {
        match *self {
            Layer::Conv { shape, bits, .. } => (shape.input_len(), bits),
            Layer::Depthwise { shape, .. } => (shape.input_len(), BitWidth::W8),
            Layer::MaxPool { shape, bits } => (shape.input_len(), bits),
            Layer::Linear { shape, bits } => (shape.in_features, bits),
        }
    }

    /// `(output elements, output width)` this layer produces.
    pub fn output_spec(&self) -> (usize, BitWidth) {
        match *self {
            Layer::Conv {
                shape, out_bits, ..
            } => (shape.output_len(), out_bits),
            Layer::Depthwise { shape, .. } => (shape.output_len(), BitWidth::W8),
            Layer::MaxPool { shape, bits } => (shape.output_len(), bits),
            Layer::Linear { shape, bits } => (shape.out_features, bits),
        }
    }

    /// MACs (pooling counts zero).
    pub fn macs(&self) -> u64 {
        match *self {
            Layer::Conv { shape, .. } => shape.macs(),
            Layer::Depthwise { shape, .. } => shape.macs(),
            Layer::MaxPool { .. } => 0,
            Layer::Linear { shape, .. } => shape.macs(),
        }
    }

    /// Short description.
    pub fn describe(&self) -> String {
        match *self {
            Layer::Conv {
                shape,
                bits,
                out_bits,
            } => format!(
                "conv {}x{} {}ch->{}ch {}->{}",
                shape.k_h, shape.k_w, shape.in_c, shape.out_c, bits, out_bits
            ),
            Layer::Depthwise { shape, .. } => {
                format!("depthwise {}x{} {}ch 8-bit", shape.k, shape.k, shape.c)
            }
            Layer::MaxPool { shape, bits } => {
                format!("maxpool {}x{}/s{} {}", shape.k, shape.k, shape.stride, bits)
            }
            Layer::Linear { shape, bits } => {
                format!(
                    "linear {}->{} {}",
                    shape.in_features, shape.out_features, bits
                )
            }
        }
    }
}

/// A network whose layer interfaces have been checked for consistency.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
}

/// A broken network description or an unbuildable layer.
///
/// Runtime misbehaviour (traps, watchdog expiry, golden divergence) is
/// *not* an error: [`Network::run`] absorbs it through
/// retry-from-checkpoint and golden fallback, recording the
/// [`LayerOutcome`] instead.
#[derive(Debug)]
pub enum NetworkError {
    /// The network has no layers.
    Empty,
    /// Layer `index`'s input does not match the previous layer's output.
    InterfaceMismatch {
        /// 0-based layer index.
        index: usize,
        /// What the previous layer produces.
        produced: (usize, BitWidth),
        /// What this layer expects.
        expected: (usize, BitWidth),
    },
    /// A layer kernel failed to build (zero-sized shapes, alignment
    /// rules, oversized tensors — all surfaced as typed
    /// [`BuildError`]s, never panics).
    Build {
        /// 0-based layer index.
        index: usize,
        /// Underlying error.
        source: BuildError,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Empty => f.write_str("network has no layers"),
            NetworkError::InterfaceMismatch {
                index,
                produced,
                expected,
            } => write!(
                f,
                "layer {index}: expects {} × {}, previous layer produces {} × {}",
                expected.0, expected.1, produced.0, produced.1
            ),
            NetworkError::Build { index, source } => write!(f, "layer {index}: {source}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// How a layer failure was noticed, and what happened to one layer
/// under the run policy: the shared outcome ladder of every recovering
/// run ([`faultsim::Outcome`]), under this module's names.
pub use faultsim::{Detection as FaultDetection, Outcome as LayerOutcome};

/// Seeded fault arming for [`Network::run_with_policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultArming {
    /// Master seed; layer `i` uses plan seed `seed + i`.
    pub seed: u64,
    /// Transient flips scheduled per layer.
    pub flips_per_layer: usize,
    /// Cycles between rolling pre-fault checkpoints.
    pub checkpoint_interval: u64,
}

impl Default for FaultArming {
    fn default() -> FaultArming {
        FaultArming {
            seed: 1,
            flips_per_layer: 1,
            checkpoint_interval: 2_000,
        }
    }
}

/// Execution policy of a network run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunPolicy {
    /// Rollback retries per layer before degrading to the golden
    /// fallback (default 1).
    pub max_retries: u32,
    /// Per-layer watchdog cycle budget; `None` uses each testbench's
    /// default.
    pub cycle_budget: Option<u64>,
    /// Arm seeded transient-fault injection.
    pub faults: Option<FaultArming>,
}

impl RunPolicy {
    /// The default policy: no injected faults, one rollback retry.
    pub fn resilient() -> RunPolicy {
        RunPolicy {
            max_retries: 1,
            cycle_budget: None,
            faults: None,
        }
    }
}

/// Per-layer outcome of a network run.
#[derive(Debug, Clone)]
pub struct LayerRun {
    /// The layer.
    pub layer: Layer,
    /// Simulated cycles spent on the layer, including failed attempts
    /// and retries (0 when only the host-side fallback ran).
    pub cycles: u64,
    /// MACs.
    pub macs: u64,
    /// What happened under the policy.
    pub outcome: LayerOutcome,
}

/// Outcome of a full network inference.
///
/// Always structurally complete: a degraded layer contributes its
/// golden-model output instead of failing the run.
#[derive(Debug, Clone)]
pub struct NetworkRun {
    /// One entry per layer, in order.
    pub layers: Vec<LayerRun>,
    /// The final activation tensor.
    pub output: QuantTensor,
}

impl NetworkRun {
    /// Total cycles over all layers.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total MACs over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Layers that fell back to the golden software model.
    pub fn degraded_layers(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| !l.outcome.device_served())
            .count()
    }

    /// True when every layer's output came from the device and verified
    /// against its golden model on the first or a retried attempt.
    pub fn fully_on_device(&self) -> bool {
        self.degraded_layers() == 0
    }

    /// Inference latency in milliseconds at the 250 MHz operating point.
    pub fn latency_ms(&self) -> f64 {
        self.total_cycles() as f64 / 250e3
    }
}

impl fmt::Display for NetworkRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.layers.iter().enumerate() {
            let rate = if l.macs > 0 && l.cycles > 0 {
                format!("{:5.2} MAC/cycle", l.macs as f64 / l.cycles as f64)
            } else {
                "     —       ".to_string()
            };
            let note = match l.outcome {
                LayerOutcome::Ok => String::new(),
                ref o => format!("  [{o}]"),
            };
            writeln!(
                f,
                "layer {:>2}: {:<36} {:>9} cycles  {rate}{note}",
                i + 1,
                l.layer.describe(),
                l.cycles
            )?;
        }
        write!(
            f,
            "total: {} cycles, {} MACs, {:.2} ms @ 250 MHz",
            self.total_cycles(),
            self.total_macs(),
            self.latency_ms()
        )?;
        if self.degraded_layers() > 0 {
            write!(f, " ({} layer(s) degraded)", self.degraded_layers())?;
        }
        Ok(())
    }
}

impl Network {
    /// Builds a network, checking that every layer's input interface
    /// matches the previous layer's output.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Empty`] or [`NetworkError::InterfaceMismatch`].
    pub fn new(layers: Vec<Layer>) -> Result<Network, NetworkError> {
        if layers.is_empty() {
            return Err(NetworkError::Empty);
        }
        for i in 1..layers.len() {
            let produced = layers[i - 1].output_spec();
            let expected = layers[i].input_spec();
            if produced != expected {
                return Err(NetworkError::InterfaceMismatch {
                    index: i,
                    produced,
                    expected,
                });
            }
        }
        Ok(Network { layers })
    }

    /// The layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Runs inference over deterministic synthetic weights and input
    /// (derived from `seed`) under the default resilient policy: every
    /// layer verified against its golden model, one rollback retry,
    /// golden fallback on persistent failure. Never propagates a trap.
    ///
    /// # Errors
    ///
    /// Only description/build problems ([`NetworkError`]); runtime
    /// failures degrade gracefully and are recorded per layer.
    pub fn run(&self, seed: u64) -> Result<NetworkRun, NetworkError> {
        self.run_with_policy(seed, &RunPolicy::resilient())
    }

    /// [`Network::run`] under an explicit [`RunPolicy`] — watchdog
    /// budget, retry bound, and optional seeded fault injection.
    ///
    /// # Errors
    ///
    /// See [`Network::run`].
    pub fn run_with_policy(
        &self,
        seed: u64,
        policy: &RunPolicy,
    ) -> Result<NetworkRun, NetworkError> {
        let mut rng = TensorRng::new(seed);
        let (in_len, in_bits) = self.layers[0].input_spec();
        let mut activations = rng.activations(in_bits, in_len);
        let mut runs = Vec::with_capacity(self.layers.len());

        for (index, layer) in self.layers.iter().enumerate() {
            let (cycles, output, outcome) =
                build_and_run(layer, index, activations, &mut rng, policy)
                    .map_err(|source| NetworkError::Build { index, source })?;
            runs.push(LayerRun {
                layer: *layer,
                cycles,
                macs: layer.macs(),
                outcome,
            });
            let (_, out_bits) = layer.output_spec();
            // Outputs came from a golden-verified device run or from the
            // golden model itself; both are in range by construction.
            activations = QuantTensor::activations(out_bits, output)
                .expect("verified layer outputs are in range");
        }
        Ok(NetworkRun {
            layers: runs,
            output: activations,
        })
    }
}

/// Compiles one layer into a testbench around `activations` and runs it
/// under the policy. Convolutions draw their weights and thresholds
/// from the network's `rng`; the other kinds keep their testbench's
/// own seeded weights.
fn build_and_run(
    layer: &Layer,
    index: usize,
    activations: QuantTensor,
    rng: &mut TensorRng,
    policy: &RunPolicy,
) -> Result<(u64, Vec<i16>, LayerOutcome), BuildError> {
    const SEED: u64 = 1234;
    Ok(match *layer {
        Layer::Conv {
            shape,
            bits,
            out_bits,
        } => {
            let cfg = ConvKernelConfig::mixed(shape, bits, out_bits);
            let weights = rng.weights(bits, shape.weight_len());
            let thresholds = out_bits
                .is_sub_byte()
                .then(|| rng.thresholds(out_bits, shape.out_c, -1800, 1800));
            let tb = ConvTestbench::from_parts(cfg, activations, Some(weights), thresholds)?;
            run_layer(&tb, index, policy)
        }
        Layer::Depthwise { shape, shift } => {
            let cfg = DepthwiseKernelConfig { shape, shift };
            run_layer(
                &Testbench::new(cfg, SEED)?.with_input(activations)?,
                index,
                policy,
            )
        }
        Layer::MaxPool { shape, bits } => {
            let cfg = PoolKernelConfig {
                shape,
                bits,
                op: PoolOp::Max,
                simd: true,
            };
            run_layer(
                &Testbench::new(cfg, SEED)?.with_input(activations)?,
                index,
                policy,
            )
        }
        Layer::Linear { shape, bits } => {
            let quant = match bits {
                BitWidth::W8 => QuantMode::Shift8 { shift: 8 },
                _ => QuantMode::HardwareQnt,
            };
            let cfg = LinearKernelConfig { shape, bits, quant };
            run_layer(
                &Testbench::new(cfg, SEED)?.with_input(activations)?,
                index,
                policy,
            )
        }
    })
}

/// Executes one layer under the policy. Never returns a trap: detected
/// failures roll back to the pre-fault checkpoint (bounded by
/// `max_retries`), then degrade to the golden model.
fn run_layer<K: Kernel>(
    tb: &Testbench<K>,
    index: usize,
    policy: &RunPolicy,
) -> (u64, Vec<i16>, LayerOutcome) {
    let budget = policy.cycle_budget.unwrap_or_else(|| tb.cycle_budget());

    let (plan, interval) = match policy.faults {
        None => (FaultPlan::none(), budget),
        Some(fa) => {
            // A clean pre-run bounds the injection window to cycles the
            // kernel actually executes (and doubles as a sanity check
            // that the layer is healthy before faults are armed).
            let clean_cycles = match tb.stage().run(budget) {
                Ok(r) => r.perf.cycles,
                Err(_) => budget,
            };
            let space = TargetSpace::layer(tb, &tb.layout, clean_cycles);
            (
                FaultPlan::generate(
                    fa.seed.wrapping_add(index as u64),
                    &space,
                    fa.flips_per_layer,
                ),
                fa.checkpoint_interval,
            )
        }
    };

    let mut soc = tb.stage();
    let armed = run_armed(
        &mut soc,
        &plan,
        &ArmConfig {
            budget,
            checkpoint_interval: interval,
            trace_depth: 64,
        },
    );
    let mut spent = armed.perf.cycles;
    let detection = match armed.exit {
        Ok(exit) => {
            let r = tb.collect(
                &soc,
                RunReport {
                    exit,
                    perf: armed.perf,
                },
            );
            if r.matches() {
                let outcome = if armed.injections.is_empty() {
                    LayerOutcome::Ok
                } else {
                    LayerOutcome::Masked {
                        flips: armed.injections.len(),
                    }
                };
                return (r.cycles(), r.output, outcome);
            }
            FaultDetection::Sdc
        }
        Err(trap) => FaultDetection::Trap(trap),
    };

    // Rollback-retry: restore the newest checkpoint taken before the
    // first flip and re-run disarmed. Under the transient fault model
    // this deterministic re-execution completes cleanly.
    for attempt in 1..=policy.max_retries {
        let mut retry = tb.stage();
        retry.restore(&armed.pre_fault);
        match retry.run(budget) {
            Ok(report) => {
                spent += report.perf.cycles;
                let r = tb.collect(&retry, report);
                if r.matches() {
                    let outcome = LayerOutcome::Recovered {
                        detection,
                        retries: attempt,
                    };
                    return (spent, r.output, outcome);
                }
            }
            Err(_) => spent += budget,
        }
    }

    // Retries exhausted (or disabled): golden software fallback keeps
    // the inference alive; the degradation is recorded, not raised.
    (spent, tb.golden(), LayerOutcome::Degraded { detection })
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_core::Trap;

    fn small_conv() -> Layer {
        Layer::conv(
            ConvShape {
                in_h: 4,
                in_w: 4,
                in_c: 8,
                out_c: 8,
                k_h: 3,
                k_w: 3,
                stride: 1,
                pad: 1,
            },
            BitWidth::W4,
            BitWidth::W4,
        )
    }

    #[test]
    fn interface_checking() {
        assert!(matches!(Network::new(vec![]), Err(NetworkError::Empty)));
        let bad = Network::new(vec![
            small_conv(),
            // expects 16 channels, gets 8
            Layer::maxpool(
                PoolShape {
                    in_h: 4,
                    in_w: 4,
                    c: 16,
                    k: 2,
                    stride: 2,
                },
                BitWidth::W4,
            ),
        ]);
        assert!(matches!(
            bad,
            Err(NetworkError::InterfaceMismatch { index: 1, .. })
        ));
        // Width mismatch is also caught.
        let bad = Network::new(vec![
            small_conv(),
            Layer::maxpool(
                PoolShape {
                    in_h: 4,
                    in_w: 4,
                    c: 8,
                    k: 2,
                    stride: 2,
                },
                BitWidth::W8,
            ),
        ]);
        assert!(matches!(bad, Err(NetworkError::InterfaceMismatch { .. })));
    }

    #[test]
    fn zero_sized_shapes_are_build_errors_not_panics() {
        let net = Network::new(vec![Layer::conv(
            ConvShape {
                in_h: 0,
                in_w: 4,
                in_c: 8,
                out_c: 8,
                k_h: 3,
                k_w: 3,
                stride: 1,
                pad: 1,
            },
            BitWidth::W4,
            BitWidth::W4,
        )])
        .expect("single-layer network always has consistent interfaces");
        assert!(matches!(
            net.run(1),
            Err(NetworkError::Build { index: 0, .. })
        ));

        let net = Network::new(vec![Layer::maxpool(
            PoolShape {
                in_h: 4,
                in_w: 4,
                c: 8,
                k: 0,
                stride: 2,
            },
            BitWidth::W8,
        )])
        .expect("consistent");
        assert!(matches!(
            net.run(1),
            Err(NetworkError::Build { index: 0, .. })
        ));
    }

    #[test]
    fn small_network_runs_verified() {
        let net = Network::new(vec![
            Layer::conv(
                ConvShape {
                    in_h: 8,
                    in_w: 8,
                    in_c: 8,
                    out_c: 16,
                    k_h: 3,
                    k_w: 3,
                    stride: 1,
                    pad: 1,
                },
                BitWidth::W8,
                BitWidth::W4,
            ),
            Layer::maxpool(
                PoolShape {
                    in_h: 8,
                    in_w: 8,
                    c: 16,
                    k: 2,
                    stride: 2,
                },
                BitWidth::W4,
            ),
            Layer::conv(
                ConvShape {
                    in_h: 4,
                    in_w: 4,
                    in_c: 16,
                    out_c: 16,
                    k_h: 3,
                    k_w: 3,
                    stride: 1,
                    pad: 1,
                },
                BitWidth::W4,
                BitWidth::W4,
            ),
            Layer::linear(
                LinearShape {
                    in_features: 4 * 4 * 16,
                    out_features: 10 * 2,
                },
                BitWidth::W4,
            ),
        ])
        .expect("consistent network");
        let run = net.run(42).expect("verified inference");
        assert_eq!(run.layers.len(), 4);
        assert!(run.total_cycles() > 0);
        assert_eq!(run.output.len(), 20);
        assert!(run.fully_on_device());
        assert!(run.layers.iter().all(|l| l.outcome == LayerOutcome::Ok));
        let text = run.to_string();
        assert!(text.contains("maxpool"));
        assert!(text.contains("linear"));
        assert!(!text.contains("degraded"));
    }

    /// Per-layer mixed precision (Rusci et al.): an 8-bit stem, a 4-bit
    /// middle layer and a stride-2 conv down to 2-bit outputs, each
    /// layer's output width feeding the next layer's operands.
    #[test]
    fn mixed_precision_chain_8_4_4_2() {
        let conv = |in_hw, in_c, out_c, stride, bits, out_bits| {
            let shape = ConvShape {
                in_h: in_hw,
                in_w: in_hw,
                in_c,
                out_c,
                k_h: 3,
                k_w: 3,
                stride,
                pad: 1,
            };
            Layer::conv(shape, bits, out_bits)
        };
        let net = Network::new(vec![
            conv(8, 8, 16, 1, BitWidth::W8, BitWidth::W4),
            conv(8, 16, 16, 1, BitWidth::W4, BitWidth::W4),
            conv(8, 16, 32, 2, BitWidth::W4, BitWidth::W2),
        ])
        .expect("consistent network");
        let run = net.run(7).expect("verified inference");
        assert!(run.layers.iter().all(|l| l.outcome == LayerOutcome::Ok));
        // Stride 2 halves the 8x8 map: 4x4 pixels x 32 channels, 2-bit.
        assert_eq!(run.output.len(), 4 * 4 * 32);
        assert_eq!(run.output.bits(), BitWidth::W2);
    }

    #[test]
    fn depthwise_separable_network() {
        let net = Network::new(vec![
            Layer::depthwise(DepthwiseShape {
                in_h: 8,
                in_w: 8,
                c: 16,
                k: 3,
                stride: 1,
                pad: 1,
            }),
            Layer::conv(
                ConvShape {
                    in_h: 8,
                    in_w: 8,
                    in_c: 16,
                    out_c: 16,
                    k_h: 1,
                    k_w: 1,
                    stride: 1,
                    pad: 0,
                },
                BitWidth::W8,
                BitWidth::W8,
            ),
        ])
        .expect("consistent network");
        let run = net.run(9).expect("verified inference");
        assert_eq!(run.layers.len(), 2);
        // Depthwise contributes far fewer MACs per cycle.
        let dw_rate = run.layers[0].macs as f64 / run.layers[0].cycles as f64;
        let pw_rate = run.layers[1].macs as f64 / run.layers[1].cycles as f64;
        assert!(pw_rate > dw_rate);
    }

    #[test]
    fn deterministic_across_runs() {
        let net = Network::new(vec![small_conv()]).unwrap();
        let a = net.run(7).unwrap();
        let b = net.run(7).unwrap();
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(a.output.values(), b.output.values());
    }

    #[test]
    fn watchdog_budget_degrades_gracefully() {
        let net = Network::new(vec![small_conv()]).unwrap();
        // A 50-cycle budget cannot finish the kernel: the watchdog fires,
        // the (equally budgeted) retry fires too, and the layer must
        // degrade to the golden fallback instead of erroring out.
        let policy = RunPolicy {
            max_retries: 1,
            cycle_budget: Some(50),
            faults: None,
        };
        let run = net.run_with_policy(7, &policy).expect("still completes");
        assert_eq!(run.degraded_layers(), 1);
        match run.layers[0].outcome {
            LayerOutcome::Degraded {
                detection: FaultDetection::Trap(Trap::Watchdog { budget: 50, .. }),
            } => {}
            ref o => panic!("expected watchdog degradation, got {o}"),
        }
        // The output equals the clean run's: golden fallback is correct.
        let clean = net.run(7).unwrap();
        assert_eq!(run.output.values(), clean.output.values());
    }

    #[test]
    fn injected_faults_recover_or_mask_and_never_change_the_output() {
        let net = Network::new(vec![
            small_conv(),
            Layer::maxpool(
                PoolShape {
                    in_h: 4,
                    in_w: 4,
                    c: 8,
                    k: 2,
                    stride: 2,
                },
                BitWidth::W4,
            ),
        ])
        .unwrap();
        let clean = net.run(11).expect("clean run");
        // Sweep a few fault seeds; whatever mix of masked / recovered /
        // degraded outcomes shows up, the final tensor must always equal
        // the clean one, and nothing may escape as an error.
        let mut non_ok = 0;
        for fault_seed in 0..6 {
            let policy = RunPolicy {
                max_retries: 2,
                cycle_budget: None,
                faults: Some(FaultArming {
                    seed: fault_seed,
                    flips_per_layer: 1,
                    checkpoint_interval: 500,
                }),
            };
            let run = net
                .run_with_policy(11, &policy)
                .expect("faulted run still completes");
            assert_eq!(run.output.values(), clean.output.values());
            non_ok += run
                .layers
                .iter()
                .filter(|l| l.outcome != LayerOutcome::Ok)
                .count();
        }
        assert!(
            non_ok > 0,
            "six seeded single-flip runs must perturb at least one layer"
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let net = Network::new(vec![small_conv()]).unwrap();
        let policy = RunPolicy {
            max_retries: 1,
            cycle_budget: None,
            faults: Some(FaultArming::default()),
        };
        let a = net.run_with_policy(3, &policy).unwrap();
        let b = net.run_with_policy(3, &policy).unwrap();
        assert_eq!(a.output.values(), b.output.values());
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(
            a.layers.iter().map(|l| l.outcome).collect::<Vec<_>>(),
            b.layers.iter().map(|l| l.outcome).collect::<Vec<_>>()
        );
    }
}
