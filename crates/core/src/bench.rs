//! Benchmark artifacts for `xpulpnn bench`, `loadgen` and `soak`.
//!
//! `bench` measures the paper's Fig. 8 4-bit layer — simulated cycles,
//! MACs/cycle, the stall/conflict breakdown and per-core utilization —
//! on the seed single core, the 8-core cluster and the vector backend;
//! `bench --host` times the simulator itself. Every artifact is written
//! through [`Record`]: deterministic fields at top level, wall-clock and
//! scheduling-dependent fields under one `"host"` object.

use crate::measure::{measure, Error};
use crate::report::{Record, Value};
use pulp_cluster::{ClusterConvTestbench, ClusterError};
use pulp_kernels::RunResult;
use pulp_kernels::{ConvKernelConfig, ConvTestbench, KernelIsa};
use qnn::BitWidth;
use riscv_core::FastPathStats;
use std::time::Instant;

/// One core's share of a benchmark run.
#[derive(Debug, Clone)]
pub struct CoreActivity {
    /// Hart index.
    pub hart: usize,
    /// Instructions the hart retired.
    pub instret: u64,
    /// Cycles the hart was executing or stalled on a bank conflict.
    pub busy: u64,
    /// Cycles the hart idled at barriers waiting for slower harts.
    pub barrier_wait: u64,
    /// `busy / total cycles`.
    pub utilization: f64,
}

/// One benchmark configuration's measurement; every field is
/// deterministic.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Artifact label (`"single_core"`, `"cluster8"`, ...); the CLI
    /// writes the record to `BENCH_<label>.json`.
    pub label: String,
    /// Kernel configuration name.
    pub kernel: String,
    /// Cores the run used.
    pub cores: usize,
    /// Total simulated cycles (for the cluster: DMA prologue + compute
    /// regions + write-back).
    pub cycles: u64,
    /// Multiply-accumulates in the layer.
    pub macs: u64,
    /// Named cycle/stall breakdown. Single-core records carry the
    /// per-class cycle ledger; cluster records carry conflict and DMA
    /// accounting.
    pub breakdown: Vec<(&'static str, u64)>,
    /// Per-core activity, one entry per hart.
    pub per_core: Vec<CoreActivity>,
}

impl BenchRecord {
    /// Multiply-accumulates per cycle; 0 when no cycles were recorded.
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.cycles as f64
        }
    }

    /// Benchmarks `cfg` on the seed single-core SoC (verified against
    /// the golden model) and records its cycle-ledger breakdown.
    pub fn single_core(
        label: &str,
        cfg: ConvKernelConfig,
        seed: u64,
    ) -> Result<BenchRecord, Error> {
        let m = measure(cfg, seed)?;
        let breakdown = m
            .perf
            .ledger
            .entries()
            .map(|(c, n)| (c.name(), n))
            .collect();
        Ok(BenchRecord {
            label: label.to_string(),
            kernel: m.cfg.name(),
            cores: 1,
            cycles: m.cycles,
            macs: m.macs,
            breakdown,
            per_core: vec![CoreActivity {
                hart: 0,
                instret: m.perf.instret,
                busy: m.cycles,
                barrier_wait: 0,
                utilization: 1.0,
            }],
        })
    }

    /// Benchmarks `cfg` on an `cores`-hart cluster (verified bit-exact
    /// against the golden model) and records the conflict/DMA breakdown
    /// plus per-hart utilization.
    pub fn cluster(
        label: &str,
        cfg: ConvKernelConfig,
        cores: usize,
        seed: u64,
    ) -> Result<BenchRecord, Error> {
        let tb =
            ClusterConvTestbench::new(cfg, cores, seed).map_err(|e| Error::Build(e.to_string()))?;
        let r = tb.run(cores).map_err(|e| match e {
            ClusterError::Trap { trap, .. } => Error::Trap(trap),
        })?;
        if !r.matches() {
            return Err(Error::Mismatch { config: cfg.name() });
        }
        let breakdown = vec![
            ("bank_conflicts", r.stats.conflicts),
            ("conflict_stall_cycles", r.stats.conflict_stalls),
            ("barrier_wait_cycles", r.stats.barrier_wait.iter().sum()),
            ("dma_prologue_cycles", r.stats.dma_prologue),
            ("dma_hidden_cycles", r.stats.dma_hidden),
            ("dma_exposed_cycles", r.stats.dma_exposed),
            ("dma_writeback_cycles", r.stats.dma_writeback),
        ];
        let cycles = r.cycles;
        let per_core = (0..cores)
            .map(|h| CoreActivity {
                hart: h,
                instret: r.per_hart[h].instret,
                busy: r.stats.busy[h],
                barrier_wait: r.stats.barrier_wait[h],
                utilization: r.utilization(h),
            })
            .collect();
        Ok(BenchRecord {
            label: label.to_string(),
            kernel: cfg.name(),
            cores,
            cycles,
            macs: cfg.shape.macs(),
            breakdown,
            per_core,
        })
    }
}

impl From<&BenchRecord> for Record {
    fn from(r: &BenchRecord) -> Record {
        let breakdown = r
            .breakdown
            .iter()
            .map(|&(name, cycles)| (name, Value::from(cycles)));
        let per_core = r.per_core.iter().map(|c| {
            Value::object([
                ("hart", Value::from(c.hart)),
                ("instret", Value::from(c.instret)),
                ("busy", Value::from(c.busy)),
                ("barrier_wait", Value::from(c.barrier_wait)),
                ("utilization", Value::float(c.utilization, 4)),
            ])
        });
        Record::new(&r.label)
            .field("kernel", r.kernel.as_str())
            .field("cores", r.cores)
            .field("cycles", r.cycles)
            .field("macs", r.macs)
            .field("macs_per_cycle", Value::float(r.macs_per_cycle(), 4))
            .field("breakdown", Value::object(breakdown))
            .field("per_core", Value::List(per_core.collect()))
    }
}

/// Interleaved interpreted/fast-path pairs `bench --host` times.
pub const HOST_SAMPLES: usize = 5;

/// The median and range of a host-timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Middle value (the upper middle for an even count).
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Spread {
    /// The spread of a non-empty sample.
    fn of(mut xs: Vec<f64>) -> Spread {
        xs.sort_by(f64::total_cmp);
        Spread {
            median: xs[xs.len() / 2],
            min: xs[0],
            max: xs[xs.len() - 1],
        }
    }
}

/// Host-side throughput of the simulator itself: the Fig. 8 4-bit
/// layer, interpreted vs. the decoded-block fast path, on this machine,
/// over [`HOST_SAMPLES`] interleaved pairs.
///
/// Simulated results are bit-exact between the two paths (checked on
/// every pair before the record is built); only host wall-clock
/// differs, so the record is about the *simulator*, not the kernel.
#[derive(Debug, Clone)]
pub struct HostThroughput {
    /// Kernel configuration name.
    pub kernel: String,
    /// Simulated cycles of the layer (identical on both paths).
    pub cycles: u64,
    /// Instructions retired (identical on both paths).
    pub instret: u64,
    /// Wall-clock seconds of the interpreted runs.
    pub interp_secs: Spread,
    /// Wall-clock seconds of the fast-path runs.
    pub fast_secs: Spread,
    /// Per-pair wall-clock speedup of the fast path over the interpreter.
    pub speedup: Spread,
    /// Block-cache counters of the last fast-path run (every run
    /// translates and hits the same blocks).
    pub stats: FastPathStats,
}

impl HostThroughput {
    /// Simulated cycles per wall-clock second at the median interpreted
    /// time.
    pub fn interp_cps(&self) -> f64 {
        self.cycles as f64 / self.interp_secs.median.max(1e-9)
    }

    /// Simulated cycles per wall-clock second at the median fast-path
    /// time.
    pub fn fast_cps(&self) -> f64 {
        self.cycles as f64 / self.fast_secs.median.max(1e-9)
    }
}

impl From<&HostThroughput> for Record {
    fn from(r: &HostThroughput) -> Record {
        let spread = |rec: Record, key: &str, s: Spread, decimals| {
            rec.host(key, Value::float(s.median, decimals))
                .host(&format!("{key}_min"), Value::float(s.min, decimals))
                .host(&format!("{key}_max"), Value::float(s.max, decimals))
        };
        let rec = Record::new("host_throughput")
            .field("kernel", r.kernel.as_str())
            .field("cycles", r.cycles)
            .field("instret", r.instret)
            .field("samples", HOST_SAMPLES)
            .field("block_cache_hit_rate", Value::float(r.stats.hit_rate(), 6))
            .field("block_cache_misses", r.stats.misses)
            .field("blocks_translated", r.stats.translations)
            .field("interp_fallbacks", r.stats.interp_fallbacks)
            .field("invalidations", r.stats.invalidations);
        let rec = spread(rec, "interp_secs", r.interp_secs, 6);
        let rec = spread(rec, "fast_secs", r.fast_secs, 6)
            .host("interp_cycles_per_sec", Value::float(r.interp_cps(), 0))
            .host("fast_cycles_per_sec", Value::float(r.fast_cps(), 0));
        spread(rec, "speedup", r.speedup, 2)
    }
}

/// Stages `tb`, times its run — on the decoded-block fast path when
/// `fast` — and verifies the output against the golden model. Staging
/// and verification stay outside the timed span on both paths. The
/// block-cache counters are all zero for an interpreted run.
fn timed_run(tb: &ConvTestbench, fast: bool) -> Result<(f64, RunResult, FastPathStats), Error> {
    let mut soc = tb.stage();
    if fast {
        soc.enable_fastpath();
    }
    let t0 = Instant::now();
    let report = soc.run(tb.cycle_budget())?;
    let secs = t0.elapsed().as_secs_f64();
    let result = tb.collect(&soc, report);
    if !result.matches() {
        return Err(Error::Mismatch {
            config: tb.cfg.name(),
        });
    }
    let stats = soc.core.fastpath_stats().unwrap_or_default();
    Ok((secs, result, stats))
}

/// Measures host throughput on `cfg` (`xpulpnn bench --host` runs the
/// Fig. 8 4-bit `pv.qnt` layer): [`HOST_SAMPLES`] interleaved
/// interpreted/fast-path pairs, every run verified against the golden
/// model and against its partner in the pair (every counter bit-exact).
///
/// # Errors
///
/// [`Error`] on build failure, trap or golden mismatch;
/// [`Error::FastPathDiverged`] when a fast-path run differs from its
/// interpreted partner.
pub fn host_throughput(cfg: ConvKernelConfig, seed: u64) -> Result<HostThroughput, Error> {
    let tb = ConvTestbench::new(cfg, seed)?;
    let (mut interp_secs, mut fast_secs) = (Vec::new(), Vec::new());
    loop {
        let (secs, interp, _) = timed_run(&tb, false)?;
        interp_secs.push(secs);
        let (secs, fast, stats) = timed_run(&tb, true)?;
        fast_secs.push(secs);
        if interp.report != fast.report {
            return Err(Error::FastPathDiverged { config: cfg.name() });
        }
        if fast_secs.len() == HOST_SAMPLES {
            let speedup = interp_secs.iter().zip(&fast_secs);
            return Ok(HostThroughput {
                kernel: cfg.name(),
                cycles: interp.report.perf.cycles,
                instret: interp.report.perf.instret,
                speedup: Spread::of(speedup.map(|(i, f)| i / f.max(1e-9)).collect()),
                interp_secs: Spread::of(interp_secs),
                fast_secs: Spread::of(fast_secs),
                stats,
            });
        }
    }
}

/// The `BENCH_serving.json` record of one seeded loadgen run: outcome
/// counts, the response digest and simulated-cycle latency at top
/// level; host latency, throughput and the pool's cold-fork/warm-run
/// split (which depends on how workers raced for requests) under
/// `"host"`.
impl From<&serve::LoadReport> for Record {
    fn from(r: &serve::LoadReport) -> Record {
        Record::new("serving")
            .field("seed", r.cfg.seed)
            .field("workers", r.cfg.workers)
            .field("requests", r.responses.len())
            .field("digest", format!("{:016x}", r.digest))
            .field("ok", r.count("ok"))
            .field("masked", r.count("masked"))
            .field("recovered", r.count("recovered"))
            .field("degraded", r.count("degraded"))
            .field("sim_cycles_p50", r.sim_cycles.p50)
            .field("sim_cycles_p99", r.sim_cycles.p99)
            .field("sim_cycles_max", r.sim_cycles.max)
            .field("total_sim_cycles", r.total_sim_cycles)
            .host("host_us_p50", r.host_us.p50)
            .host("host_us_p99", r.host_us.p99)
            .host("host_us_max", r.host_us.max)
            .host("wall_secs", Value::float(r.wall_secs, 6))
            .host("sustained_req_per_sec", Value::float(r.req_per_sec, 2))
            .host("cold_forks", r.stats.cold_forks)
            .host("warm_runs", r.stats.warm_runs)
    }
}

/// The `BENCH_soak.json` record of one seeded resilience campaign
/// (overload → fault storm → hang injection → template corruption →
/// recovery): the resilience counters, per-phase deltas and the
/// response digest, with only the wall-clock time under `"host"`.
impl From<&serve::SoakReport> for Record {
    fn from(r: &serve::SoakReport) -> Record {
        let c = &r.counters;
        let phases = r.phases.iter().map(|p| {
            Value::object([
                ("phase", Value::from(p.phase.name())),
                ("requests", Value::from(p.requests)),
                ("shed", Value::from(p.shed)),
                ("retried", Value::from(p.retried)),
                ("timed_out", Value::from(p.timed_out)),
                ("breaker_trips", Value::from(p.breaker_trips)),
                ("fallback_served", Value::from(p.fallback_served)),
            ])
        });
        Record::new("soak")
            .field("seed", r.cfg.seed)
            .field("workers", r.cfg.workers)
            .field("scale", r.cfg.scale)
            .field("requests", r.responses.len())
            .field("digest", format!("{:016x}", r.digest))
            .field("shed_queue_full", c.shed_queue_full)
            .field("shed_pressure", c.shed_pressure)
            .field("retried", c.retried)
            .field("timed_out", c.timed_out)
            .field("breaker_trips", c.breaker_trips)
            .field("breaker_closes", c.breaker_closes)
            .field("fallback_served", c.fallback_served)
            .field("reaps", r.pool_stats.reaps)
            .field("quarantines", r.pool_stats.quarantines)
            .field("breakers_closed", r.breakers_closed)
            .field("phases", Value::List(phases.collect()))
            .host("wall_secs", Value::float(r.wall_secs, 6))
    }
}

/// The benchmark suite `xpulpnn bench` runs: the paper's Fig. 8 4-bit
/// hardware-quantized layer on the seed single core, on the 8-core
/// cluster, and on the single-core Xrvv vector backend (VLEN 128) —
/// the third point of the XpulpV2 / XpulpNN-SIMD / vector comparison.
pub fn paper_bench_suite(seed: u64) -> Result<Vec<BenchRecord>, Error> {
    let cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
    let vec_cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::vector(128), true);
    Ok(vec![
        BenchRecord::single_core("single_core", cfg, seed)?,
        BenchRecord::cluster("cluster8", cfg, 8, seed)?,
        BenchRecord::single_core("vector", vec_cfg, seed)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn::conv::ConvShape;

    fn small_cfg() -> ConvKernelConfig {
        let mut cfg = ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
        cfg.shape = ConvShape {
            in_h: 4,
            in_w: 4,
            in_c: 16,
            out_c: 8,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        cfg
    }

    fn loadgen(requests: u64, workers: usize) -> serve::LoadReport {
        serve::run_loadgen(serve::LoadgenConfig {
            requests,
            workers,
            ..serve::LoadgenConfig::default()
        })
        .unwrap()
    }

    fn soak(workers: usize) -> serve::SoakReport {
        serve::run_soak(serve::SoakConfig {
            seed: 1,
            workers,
            scale: 4,
            ..serve::SoakConfig::default()
        })
        .unwrap()
    }

    /// The record with its `"host"` object emptied: what must repeat
    /// byte for byte.
    fn exact_json(rec: Record) -> String {
        Record {
            host: Vec::new(),
            ..rec
        }
        .to_json()
    }

    #[test]
    fn single_core_record_carries_the_cycle_ledger() {
        let r = BenchRecord::single_core("single_core", small_cfg(), 42).unwrap();
        assert_eq!(r.cores, 1);
        assert!(r.cycles > 0);
        assert!(r.macs_per_cycle() > 0.0);
        let ledger_total: u64 = r.breakdown.iter().map(|(_, c)| c).sum();
        assert_eq!(ledger_total, r.cycles, "ledger must account every cycle");
        assert_eq!(r.per_core.len(), 1);
        assert!((r.per_core[0].utilization - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn cluster_record_accounts_conflicts_and_dma() {
        let r = BenchRecord::cluster("cluster4", small_cfg(), 4, 42).unwrap();
        assert_eq!(r.cores, 4);
        assert_eq!(r.per_core.len(), 4);
        let get = |name: &str| {
            r.breakdown
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, c)| *c)
                .unwrap()
        };
        assert!(get("dma_prologue_cycles") > 0);
        assert!(get("dma_writeback_cycles") > 0);
        for c in &r.per_core {
            assert!(c.utilization > 0.0 && c.utilization <= 1.0);
        }
    }

    #[test]
    fn host_throughput_record_is_verified_and_balanced() {
        let r = host_throughput(small_cfg(), 42).unwrap();
        assert!(r.cycles > 0 && r.instret > 0);
        for s in [r.interp_secs, r.fast_secs, r.speedup] {
            assert!(
                s.min > 0.0 && s.min <= s.median && s.median <= s.max,
                "{s:?}"
            );
        }
        // The small layer still caches well; the hot loops dominate.
        assert!(
            r.stats.hit_rate() > 0.9,
            "hit rate {:.3}",
            r.stats.hit_rate()
        );
        assert_eq!(r.stats.interp_fallbacks, 0);
    }

    fn assert_balanced_with(j: &str, needles: &[&str]) {
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        assert_eq!(j.matches('[').count(), j.matches(']').count(), "{j}");
        for key in needles {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }

    #[test]
    fn serving_record_json_is_balanced_and_sane() {
        let r = loadgen(8, 2);
        assert_eq!(r.responses.len(), 8);
        assert!(r.sim_cycles.p50 <= r.sim_cycles.p99);
        assert!(r.sim_cycles.p99 <= r.sim_cycles.max);
        assert_balanced_with(
            &Record::from(&r).to_json(),
            &[
                "\"label\": \"serving\"",
                "\"requests\": 8",
                "\"digest\"",
                "\"sim_cycles_p50\"",
                "\"sim_cycles_p99\"",
                "\"host_us_p99\"",
                "\"sustained_req_per_sec\"",
                "\"degraded\"",
            ],
        );
    }

    #[test]
    fn soak_record_json_is_balanced_and_sane() {
        let r = soak(2);
        assert_eq!(r.responses.len(), 32);
        assert!(r.lost_ids().is_empty());
        assert_eq!(r.phases.len(), 5);
        assert_balanced_with(
            &Record::from(&r).to_json(),
            &[
                "\"label\": \"soak\"",
                "\"requests\": 32",
                "\"digest\"",
                "\"shed_queue_full\"",
                "\"shed_pressure\"",
                "\"retried\"",
                "\"timed_out\"",
                "\"breaker_trips\"",
                "\"reaps\"",
                "\"quarantines\"",
                "\"breakers_closed\": true",
                "\"phase\": \"overload\"",
                "\"phase\": \"recovery\"",
            ],
        );
    }

    /// The cluster and host-throughput records carry their label and the
    /// fields readers (and `ci.sh`) look up by name.
    #[test]
    fn json_is_balanced_and_carries_the_fields() {
        assert_balanced_with(
            &Record::from(&BenchRecord::cluster("cluster2", small_cfg(), 2, 42).unwrap()).to_json(),
            &[
                "\"label\": \"cluster2\"",
                "\"cores\": 2",
                "\"macs_per_cycle\"",
                "\"bank_conflicts\"",
                "\"per_core\"",
                "\"utilization\"",
            ],
        );
        assert_balanced_with(
            &Record::from(&host_throughput(small_cfg(), 42).unwrap()).to_json(),
            &[
                "\"label\": \"host_throughput\"",
                "\"samples\": 5",
                "\"speedup\"",
                "\"speedup_min\"",
                "\"speedup_max\"",
                "\"block_cache_hit_rate\"",
                "\"fast_cycles_per_sec\"",
                "\"interp_fallbacks\"",
            ],
        );
    }

    /// Every scheduling-dependent field sits under `"host"`: the rest of
    /// a record repeats byte for byte across runs, and across worker
    /// counts differs only in `"workers"`.
    #[test]
    fn host_fields_hold_everything_that_varies() {
        assert_eq!(
            exact_json(Record::from(&loadgen(64, 2))),
            exact_json(Record::from(&loadgen(64, 2)))
        );
        let one = exact_json(Record::from(&soak(1)));
        let two = exact_json(Record::from(&soak(2)));
        assert_eq!(one.replace("\"workers\": 1,", "\"workers\": 2,"), two);
        assert_ne!(one, two);
    }
}
