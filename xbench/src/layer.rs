//! The paper's Fig. 8 layer (4-bit operands, `pv.qnt` quantization) as
//! three workloads: on the single core with the decoded-block fast path
//! (`layer_simd4`), on the rvv-vec vector unit at VLEN 128
//! (`layer_vector4`), and on the 8-hart cluster driven by one host
//! thread (`layer_cluster8`). One op is one verified layer run.

use crate::harness::{op_loop, perf_sum, rounds, Ctx, Measured, Round};
use crate::trace::Tracer;
use xpulpnn::pulp_cluster::{ClusterConvTestbench, ClusterStats};
use xpulpnn::pulp_soc::RunReport;
use xpulpnn::riscv_core::{FastPathStats, PerfCounters};
use xpulpnn::{BitWidth, ConvKernelConfig, ConvTestbench, KernelIsa};

/// Which machine runs the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// Single core, XpulpNN SIMD, fast path.
    Simd,
    /// Single core, vector unit at VLEN 128.
    Vector,
    /// 8-hart cluster, interpreted, one host thread (the traced run
    /// also times two).
    Cluster8,
}

const CLUSTER_HARTS: usize = 8;
/// Host threads driving the cluster. Two threads make every op depend
/// on both host cores staying free of other load, which widened the
/// run-to-run spread; the traced run reports the two-thread time and
/// speed-up as per-layer metrics instead.
const HOST_THREADS: usize = 1;
/// Fewest timed ops per phase, however slow the host.
const MIN_OPS: u64 = 4;

enum Bench {
    Core(Box<ConvTestbench>),
    Cluster(Box<ClusterConvTestbench>),
}

/// The deterministic counters of one op; every op must repeat the
/// first op's exactly.
#[derive(Debug, Clone, PartialEq)]
enum Counters {
    Core {
        report: Box<RunReport>,
        fast: Option<FastPathStats>,
    },
    Cluster {
        cycles: u64,
        stats: ClusterStats,
        harts: Vec<PerfCounters>,
    },
}

impl Counters {
    fn cycles(&self) -> u64 {
        match self {
            Counters::Core { report, .. } => report.perf.cycles,
            Counters::Cluster { cycles, .. } => *cycles,
        }
    }

    /// Instructions and ledger summed over every core that ran.
    fn perf_total(&self) -> PerfCounters {
        match self {
            Counters::Core { report, .. } => report.perf,
            Counters::Cluster { harts, .. } => perf_sum(harts),
        }
    }
}

impl Bench {
    fn build(machine: Machine, seed: u64) -> Result<Bench, String> {
        let isa = match machine {
            Machine::Vector => KernelIsa::vector(128),
            Machine::Simd | Machine::Cluster8 => KernelIsa::XpulpNN,
        };
        let cfg = ConvKernelConfig::paper(BitWidth::W4, isa, true);
        let err = |e: xpulpnn::pulp_kernels::BuildError| format!("{}: {e}", cfg.name());
        Ok(match machine {
            Machine::Cluster8 => Bench::Cluster(Box::new(
                ClusterConvTestbench::new(cfg, CLUSTER_HARTS, seed).map_err(err)?,
            )),
            _ => Bench::Core(Box::new(ConvTestbench::new(cfg, seed).map_err(err)?)),
        })
    }

    fn core(&self) -> &ConvTestbench {
        match self {
            Bench::Core(tb) => tb,
            Bench::Cluster(tb) => &tb.bench,
        }
    }

    /// One verified layer run: stage, simulate, read the output back
    /// and compare it with the golden model. `None` on a trap.
    fn op(&self, tr: &mut Tracer, threads: usize) -> Option<(bool, Counters)> {
        let tb = self.core();
        let (exits_clean, counters, output) = match self {
            Bench::Core(tb) => {
                let mut soc = tr.span("pulp_kernels.stage", |_| tb.stage());
                soc.enable_fastpath();
                let report = tr
                    .span("riscv_core.fast", |_| soc.run(tb.cycle_budget()))
                    .ok()?;
                let output = tr.span("pulp_kernels.collect", |_| {
                    read_output(tb, soc.mem.read_bytes(tb.layout.output, out_bytes(tb)))
                });
                let clean = report.exit.halted && report.exit.exit_code == 0;
                let fast = soc.core.fastpath_stats();
                (
                    clean,
                    Counters::Core {
                        report: Box::new(report),
                        fast,
                    },
                    output,
                )
            }
            Bench::Cluster(ctb) => {
                let mut sim = tr.span("pulp_cluster.stage", |_| ctb.stage());
                sim.set_host_threads(threads);
                tr.span("pulp_cluster.drive", |_| ctb.drive(&mut sim))
                    .ok()?;
                let output = tr.span("pulp_kernels.collect", |_| {
                    read_output(tb, sim.mem.read_bytes(tb.layout.output, out_bytes(tb)))
                });
                let clean = sim.all_halted() && sim.exit_codes().iter().all(|&c| c == 0);
                let counters = Counters::Cluster {
                    cycles: sim.clock(),
                    stats: sim.stats.clone(),
                    harts: (0..ctb.n_harts()).map(|h| sim.hart(h).perf).collect(),
                };
                (clean, counters, output)
            }
        };
        let golden = tr.span("pulp_kernels.golden", |_| tb.golden());
        Some((exits_clean && output == golden, counters))
    }
}

fn out_bytes(tb: &ConvTestbench) -> usize {
    xpulpnn::qnn::tensor::packed_len(tb.cfg.out_bits, tb.cfg.shape.output_len())
}

fn read_output(tb: &ConvTestbench, packed: &[u8]) -> Vec<i16> {
    xpulpnn::qnn::tensor::unpack(tb.cfg.out_bits, false, packed, tb.cfg.shape.output_len())
}

/// Runs ops for `seconds`, counting each into `m` and checking its
/// counters against `first`; returns per-op milliseconds.
fn phase(
    bench: &Bench,
    m: &mut Measured,
    first: &Counters,
    tr: &mut Tracer,
    threads: usize,
    seconds: f64,
) -> Result<Vec<f64>, String> {
    op_loop(seconds, MIN_OPS, |i| {
        tr.set_op(i);
        let ok = tr
            .span("op", |tr| bench.op(tr, threads))
            .is_some_and(|(ok, c)| ok && c == *first);
        m.op(ok);
        Ok(())
    })
}

/// One set-up: builds the layer and completes its first, cold,
/// verified run. Returns the bench, that run's counters and the build
/// time in ms.
fn build(machine: Machine, seed: u64) -> Result<(Bench, Counters, f64), String> {
    let t = std::time::Instant::now();
    let bench = Bench::build(machine, seed)?;
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    match bench.op(&mut Tracer::off(), HOST_THREADS) {
        Some((true, counters)) => Ok((bench, counters, build_ms)),
        _ => Err("the first layer run did not verify against the golden model".into()),
    }
}

/// Runs one layer workload.
///
/// # Errors
///
/// When the layer cannot be built or its first run does not verify.
pub fn run(machine: Machine, ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    if !ctx.trace {
        let mut first = None;
        let results = rounds(
            ctx.seconds,
            || build(machine, ctx.seed),
            |(bench, counters, _), secs| {
                let want = first.get_or_insert(counters);
                Ok(Round {
                    op_ms: phase(&bench, &mut m, want, &mut Tracer::off(), HOST_THREADS, secs)?,
                    rate: None,
                })
            },
        )?;
        m.set_rounds(results);
        exact_counters(&mut m, &first.expect("at least one round"));
        return Ok(m);
    }

    let (bench, first, build_ms) = build(machine, ctx.seed)?;
    m.set("pulp_kernels.build_ms", build_ms);
    let share = if machine == Machine::Cluster8 {
        3.0
    } else {
        2.0
    };
    let untraced = phase(
        &bench,
        &mut m,
        &first,
        &mut Tracer::off(),
        HOST_THREADS,
        ctx.seconds / share,
    )?;
    let mut tr = Tracer::on();
    let traced = phase(
        &bench,
        &mut m,
        &first,
        &mut tr,
        HOST_THREADS,
        ctx.seconds / share,
    )?;
    m.set_op_latency(&untraced);
    m.set_overhead(&untraced, &traced);
    let ops = traced.len() as u64;
    m.set_self_times(
        &tr,
        ops,
        &[
            ("pulp_kernels.stage", "pulp_kernels.stage_us"),
            ("pulp_kernels.collect", "pulp_kernels.collect_us"),
            ("pulp_kernels.golden", "pulp_kernels.golden_us"),
            ("pulp_cluster.stage", "pulp_cluster.stage_us"),
            ("pulp_cluster.drive", "pulp_cluster.drive_us"),
        ],
    );
    if let Counters::Core {
        report,
        fast: Some(fast),
    } = &first
    {
        let run_ns = crate::trace::self_times(tr.spans())
            .get("riscv_core.fast")
            .map_or(0, |t| t.self_ns);
        m.set(
            "riscv_core.fast.ns_per_instr",
            run_ns as f64 / (report.perf.instret * ops.max(1)) as f64,
        );
        m.set_exact("riscv_core.fast.translations", fast.translations);
        m.set_exact("riscv_core.fast.interp_fallbacks", fast.interp_fallbacks);
        m.set_exact("riscv_core.fast.invalidations", fast.invalidations);
        m.set_exact("riscv_core.fast.hit_rate", fast.hit_rate());
    }
    if machine == Machine::Cluster8 {
        let two = phase(
            &bench,
            &mut m,
            &first,
            &mut Tracer::off(),
            2,
            ctx.seconds / share,
        )?;
        let (one, two) = (median(&untraced), median(&two));
        m.set("pulp_cluster.run_ms_2t", two);
        m.set("pulp_cluster.thread_speedup", one / two);
    }
    m.tracer = Some(tr);
    exact_counters(&mut m, &first);
    Ok(m)
}

fn median(ms: &[f64]) -> f64 {
    crate::stats::percentile(&crate::stats::sorted(ms), 50.0)
}

/// The exact counters of one op: cycles, instructions, every non-empty
/// ledger bucket, and for the cluster its conflict/DMA/barrier stats.
fn exact_counters(m: &mut Measured, first: &Counters) {
    m.set_exact("sim_cycles", first.cycles());
    m.set_exact_perf(&first.perf_total());
    if let Counters::Cluster { cycles, stats, .. } = first {
        m.set_exact("pulp_cluster.conflicts", stats.conflicts);
        m.set_exact("pulp_cluster.conflict_stall_cycles", stats.conflict_stalls);
        m.set_exact(
            "pulp_cluster.barrier_wait_cycles",
            stats.barrier_wait.iter().sum::<u64>(),
        );
        m.set_exact("pulp_cluster.dma_prologue_cycles", stats.dma_prologue);
        m.set_exact("pulp_cluster.dma_hidden_cycles", stats.dma_hidden);
        m.set_exact("pulp_cluster.dma_exposed_cycles", stats.dma_exposed);
        m.set_exact("pulp_cluster.dma_writeback_cycles", stats.dma_writeback);
        let least_busy = stats.busy.iter().min().copied().unwrap_or(0);
        m.set_exact(
            "pulp_cluster.utilization_min",
            least_busy as f64 / (*cycles).max(1) as f64,
        );
    }
}
