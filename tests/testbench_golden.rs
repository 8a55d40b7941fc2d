//! Golden record of what the layer testbenches stage and produce, pinned
//! in `tests/golden/testbench.txt`:
//!
//! - every shipped single-core kernel (the `xpulpnn lint` set) plus the
//!   scalar pooling baseline: the checksum of the staged SoC, the
//!   kernel's cycles and a digest of its output;
//! - the cluster memory image staged for the 8-hart Fig. 8 layer;
//! - the MobileNet-style network at seed 1: each layer's cycles and a
//!   digest of the network's output tensor.
//!
//! A change to tensor placement, byte format, RNG draw order, golden
//! model or output read-back shows up as a changed line here.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! XPULPNN_BLESS=1 cargo test -p xpulpnn --test testbench_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use xpulpnn::lint::shipped_kernels;
use xpulpnn::network::{Layer, Network};
use xpulpnn::pulp_cluster::ClusterConvTestbench;
use xpulpnn::pulp_kernels::depthwise::DepthwiseKernelConfig;
use xpulpnn::pulp_kernels::linear::LinearKernelConfig;
use xpulpnn::pulp_kernels::pool::{build_relu_program, PoolKernelConfig, PoolOp};
use xpulpnn::pulp_kernels::{Kernel, LayerLayout, Testbench};
use xpulpnn::pulp_soc::Soc;
use xpulpnn::qnn::conv::ConvShape;
use xpulpnn::qnn::depthwise::DepthwiseShape;
use xpulpnn::qnn::linear::LinearShape;
use xpulpnn::qnn::pool::PoolShape;
use xpulpnn::qnn::rng::TensorRng;
use xpulpnn::riscv_core::IsaConfig;
use xpulpnn::{BitWidth, ConvKernelConfig, KernelIsa, QuantMode};

const BLESS_ENV: &str = "XPULPNN_BLESS";
const SEED: u64 = 42;

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(values: &[i16]) -> u64 {
    fnv(values.iter().flat_map(|v| v.to_le_bytes()))
}

/// One pinned line per kernel: name, staged-SoC checksum, cycles and
/// output digest.
fn line(out: &mut String, name: &str, staged: u64, cycles: u64, output: &[i16]) {
    writeln!(
        out,
        "{name} staged={staged:016x} cycles={cycles} output={:016x}",
        digest(output)
    )
    .unwrap();
}

/// Pins one kernel's testbench at [`SEED`]; returns its name.
fn kernel<K: Kernel>(out: &mut String, cfg: K, prefix: &str) -> String {
    let name = format!("{prefix}{}", cfg.name());
    let tb = Testbench::new(cfg, SEED).unwrap();
    let r = tb.run_fastpath().unwrap();
    assert!(r.matches(), "{name}");
    let staged = tb.stage().snapshot().checksum();
    line(out, &name, staged, r.cycles(), &r.output);
    name
}

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

fn pool_config(bits: BitWidth, op: PoolOp, simd: bool) -> PoolKernelConfig {
    PoolKernelConfig {
        shape: PoolShape {
            in_h: 8,
            in_w: 8,
            c: 8,
            k: 2,
            stride: 2,
        },
        bits,
        op,
        simd,
    }
}

fn linear_config(bits: BitWidth, quant: QuantMode) -> LinearKernelConfig {
    LinearKernelConfig {
        shape: LinearShape {
            in_features: 64,
            out_features: 20,
        },
        bits,
        quant,
    }
}

/// The single-core kernels, in `shipped_kernels()` order, then the
/// scalar pooling baseline. Returns the shipped kernels' names.
fn single_core(out: &mut String) -> Vec<String> {
    let mut names: Vec<String> = conv_variants()
        .into_iter()
        .map(|cfg| kernel(out, cfg, "conv/"))
        .collect();
    let dw = DepthwiseKernelConfig {
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
    names.push(kernel(out, dw, ""));
    names.push(kernel(
        out,
        pool_config(BitWidth::W4, PoolOp::Max, true),
        "",
    ));
    names.push(kernel(
        out,
        pool_config(BitWidth::W8, PoolOp::Avg2x2, true),
        "",
    ));

    // ReLU: 64 signed bytes through the `pv.max.sci.b` kernel.
    let len = 64;
    let layout = LayerLayout::default_for_l2();
    let program = build_relu_program(len, &layout).unwrap();
    let input = TensorRng::new(SEED).weights(BitWidth::W8, len);
    let mut soc = Soc::new(IsaConfig::xpulpnn());
    soc.load(&program);
    soc.mem.write_bytes(layout.input, &input.pack());
    let staged = soc.snapshot().checksum();
    let report = soc.run(10_000_000).unwrap();
    let packed = soc.mem.read_bytes(layout.output, len);
    let output = xpulpnn::qnn::tensor::unpack(BitWidth::W8, true, packed, len);
    assert_eq!(output, xpulpnn::qnn::pool::relu(input.values()));
    let name = format!("relu/{len}");
    line(out, &name, staged, report.perf.cycles, &output);
    names.push(name);

    for (bits, quant) in [
        (BitWidth::W8, QuantMode::Shift8 { shift: 8 }),
        (BitWidth::W4, QuantMode::HardwareQnt),
        (BitWidth::W2, QuantMode::HardwareQnt),
    ] {
        names.push(kernel(out, linear_config(bits, quant), ""));
    }

    // The scalar baseline is not a shipped (linted) kernel.
    let scalar = kernel(out, pool_config(BitWidth::W8, PoolOp::Max, false), "");
    assert!(!names.contains(&scalar));
    names
}

/// The 8-hart Fig. 8 layer's staged cluster memory (L2 and TCDM).
fn cluster(out: &mut String) {
    let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
    let tb = ClusterConvTestbench::new(cfg, 8, SEED).unwrap();
    let sim = tb.stage();
    writeln!(
        out,
        "cluster8/{} l2={:016x} tcdm={:016x}",
        cfg.name(),
        fnv(sim.mem.l2.iter().copied()),
        fnv(sim.mem.tcdm.iter().copied())
    )
    .unwrap();
}

fn square_conv(hw: usize, in_c: usize, out_c: usize, k: usize) -> ConvShape {
    ConvShape {
        in_h: hw,
        in_w: hw,
        in_c,
        out_c,
        k_h: k,
        k_w: k,
        stride: 1,
        pad: k / 2,
    }
}

/// The benchmark suite's MobileNet-style network at seed 1.
fn network(out: &mut String) {
    let net = Network::new(vec![
        Layer::conv(square_conv(16, 8, 16, 3), BitWidth::W8, BitWidth::W8),
        Layer::depthwise(DepthwiseShape {
            in_h: 16,
            in_w: 16,
            c: 16,
            k: 3,
            stride: 1,
            pad: 1,
        }),
        Layer::conv(square_conv(16, 16, 32, 1), BitWidth::W8, BitWidth::W4),
        Layer::maxpool(
            PoolShape {
                in_h: 16,
                in_w: 16,
                c: 32,
                k: 2,
                stride: 2,
            },
            BitWidth::W4,
        ),
        Layer::conv(square_conv(8, 32, 32, 3), BitWidth::W4, BitWidth::W2),
        Layer::linear(
            LinearShape {
                in_features: 8 * 8 * 32,
                out_features: 16,
            },
            BitWidth::W2,
        ),
    ])
    .unwrap();
    let run = net.run(1).unwrap();
    assert!(run.fully_on_device());
    for (i, l) in run.layers.iter().enumerate() {
        writeln!(out, "net_mobilenet layer{} cycles={}", i + 1, l.cycles).unwrap();
    }
    writeln!(
        out,
        "net_mobilenet total={} output={:016x}",
        run.total_cycles(),
        digest(run.output.values())
    )
    .unwrap();
}

#[test]
fn testbench_staging_and_outputs_match_golden() {
    let mut out = String::new();
    let names = single_core(&mut out);
    let shipped: Vec<String> = shipped_kernels()
        .unwrap()
        .into_iter()
        .map(|k| k.name)
        .collect();
    assert_eq!(
        names, shipped,
        "the golden must cover every shipped kernel, in order"
    );
    cluster(&mut out);
    network(&mut out);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/testbench.txt");
    if std::env::var(BLESS_ENV).is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("tests/golden/testbench.txt");
    for (i, (got, want)) in out.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "line {} of tests/golden/testbench.txt", i + 1);
    }
    assert_eq!(out.lines().count(), want.lines().count());
}
