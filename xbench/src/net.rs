//! `net_mobilenet`: whole-network inference through `Network::run` on
//! a six-layer MobileNet-style stack. One op is one inference on seed
//! `S + i`; `Network::run` checks every layer against its golden model
//! and records any fallback in the layer's outcome.

use crate::harness::{op_loop, rounds, Ctx, Measured, Round};
use crate::trace::Tracer;
use xpulpnn::network::{Layer, LayerOutcome, Network, NetworkRun};
use xpulpnn::qnn::conv::ConvShape;
use xpulpnn::qnn::depthwise::DepthwiseShape;
use xpulpnn::qnn::linear::LinearShape;
use xpulpnn::qnn::pool::PoolShape;
use xpulpnn::BitWidth;

/// Fewest timed inferences per phase, however slow the host.
const MIN_OPS: u64 = 4;

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

/// conv3×3 8b → dw3×3 8b → pw1×1 8→4b → maxpool → conv3×3 4→2b →
/// linear 2b, on a 16×16×8 input.
///
/// # Errors
///
/// When the layer interfaces do not chain (a bug in this table).
fn mobilenet() -> Result<Network, String> {
    Network::new(vec![
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
    .map_err(|e| e.to_string())
}

/// Per-layer cycles of a run: what every inference must repeat.
fn layer_cycles(run: &NetworkRun) -> Vec<u64> {
    run.layers.iter().map(|l| l.cycles).collect()
}

fn verified(run: &NetworkRun) -> bool {
    run.layers.iter().all(|l| l.outcome == LayerOutcome::Ok)
}

/// One set-up: builds the network and completes its first, cold,
/// verified inference.
fn build(seed: u64) -> Result<(Network, NetworkRun), String> {
    let net = mobilenet()?;
    let first = net.run(seed).map_err(|e| e.to_string())?;
    if verified(&first) {
        Ok((net, first))
    } else {
        Err("the first inference did not verify against the golden model".into())
    }
}

/// Runs inferences on seeds `seed + base + i` for `seconds`, counting
/// each into `m`; every one must repeat `want`'s per-layer cycles.
fn phase(
    net: &Network,
    want: &[u64],
    m: &mut Measured,
    tr: &mut Tracer,
    seed: u64,
    base: u64,
    seconds: f64,
) -> Result<Vec<f64>, String> {
    op_loop(seconds, MIN_OPS, |i| {
        tr.set_op(base + i);
        let run = tr.span("network.run", |_| net.run(seed.wrapping_add(base + i)));
        let run = run.map_err(|e| e.to_string())?;
        m.op(verified(&run) && layer_cycles(&run) == want);
        Ok(())
    })
}

/// Runs `net_mobilenet`.
///
/// # Errors
///
/// When the network cannot be built or its first inference does not
/// verify.
pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let first = if ctx.trace {
        let (net, first) = build(ctx.seed)?;
        let want = layer_cycles(&first);
        let untraced = phase(
            &net,
            &want,
            &mut m,
            &mut Tracer::off(),
            ctx.seed,
            0,
            ctx.seconds / 2.0,
        )?;
        let mut tr = Tracer::on();
        let base = untraced.len() as u64;
        let traced = phase(
            &net,
            &want,
            &mut m,
            &mut tr,
            ctx.seed,
            base,
            ctx.seconds / 2.0,
        )?;
        m.set_op_latency(&untraced);
        m.set_overhead(&untraced, &traced);
        m.tracer = Some(tr);
        first
    } else {
        let mut first: Option<NetworkRun> = None;
        let mut done = 0u64;
        let results = rounds(
            ctx.seconds,
            || build(ctx.seed),
            |(net, run), secs| {
                let want = layer_cycles(first.get_or_insert(run));
                let op_ms = phase(
                    &net,
                    &want,
                    &mut m,
                    &mut Tracer::off(),
                    ctx.seed,
                    done,
                    secs,
                )?;
                done += op_ms.len() as u64;
                Ok(Round { op_ms, rate: None })
            },
        )?;
        m.set_rounds(results);
        first.expect("at least one round")
    };

    m.set_exact("sim_cycles", first.total_cycles());
    for (i, l) in first.layers.iter().enumerate() {
        m.set_exact(&format!("network.layer{}.cycles", i + 1), l.cycles);
        if l.macs > 0 {
            m.set_exact(
                &format!("network.layer{}.macs_per_cycle", i + 1),
                l.macs as f64 / l.cycles.max(1) as f64,
            );
        }
    }
    m.set_exact("network.degraded_layers", first.degraded_layers() as u64);
    Ok(m)
}
