//! What every workload shares: the run context, the measurement record,
//! set-up rounds, the timed op loop and the process's peak memory.

use crate::json::Value;
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use xpulpnn::riscv_core::PerfCounters;

/// Rounds per untraced run: each sets the system up afresh (timed)
/// and measures it for an equal share of the run.
const ROUNDS: usize = 9;

/// How one workload run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds (set-up excluded).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted (layer runs, inferences, requests).
    pub attempted: u64,
    /// Operations that failed: wrong, trapped, lost, refused or
    /// degraded.
    pub failed: u64,
    /// Operations whose output was wrong, that trapped or were lost,
    /// or whose exact counters differed from the first op's.
    pub wrong: u64,
    /// Timed samples behind the op-latency percentiles.
    pub samples: usize,
    /// `(percentile, ms)`: the highest percentile of the op latency
    /// with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
    /// Metric values by name (end-to-end and per-layer alike).
    pub metrics: BTreeMap<String, f64>,
    /// Per round of an untraced run: `(setup_s, op_ms_p50, ops_per_s)`.
    pub rounds: Vec<(f64, f64, f64)>,
    /// Exact (deterministic) values, compared by `--check`.
    pub exact: Vec<(String, Value)>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Measured {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records an exact value, also as a metric when it is a number. An
    /// exact value recorded twice must repeat; a different second value
    /// counts as a wrong result.
    pub(crate) fn set_exact(&mut self, name: &str, value: impl Into<Value>) {
        let value = value.into();
        if let Some(x) = value.as_f64() {
            self.set(name, x);
        }
        match self.exact.iter().find(|(k, _)| k == name) {
            Some((_, old)) if *old != value => self.wrong += 1,
            Some(_) => {}
            None => self.exact.push((name.to_string(), value)),
        }
    }

    /// Records `riscv_core.instret` and every non-empty ledger bucket of
    /// `perf` as exact values.
    pub(crate) fn set_exact_perf(&mut self, perf: &PerfCounters) {
        self.set_exact("riscv_core.instret", perf.instret);
        for (class, cycles) in perf.ledger.entries().filter(|(_, c)| *c > 0) {
            self.set_exact(&format!("riscv_core.ledger.{}", class.name()), cycles);
        }
    }

    /// Counts one operation; `ok == false` makes it failed and wrong.
    pub(crate) fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
        }
    }

    /// Records `op_ms_p50`, `op_ms_p90`, the sample count and the
    /// latency tail from per-op milliseconds.
    pub(crate) fn set_op_latency(&mut self, ms: &[f64]) {
        let sorted = stats::sorted(ms);
        if sorted.is_empty() {
            return;
        }
        self.samples = sorted.len();
        self.set("op_ms_p50", stats::percentile(&sorted, 50.0));
        self.set("op_ms_p90", stats::percentile(&sorted, 90.0));
        self.tail =
            stats::tail_percentile(sorted.len()).map(|p| (p, stats::percentile(&sorted, p)));
    }

    /// The end-to-end host metrics of an untraced run from its rounds:
    /// `setup_s` is the median set-up time; `op_ms_p50` is the first
    /// quartile of the per-round median op latencies and `ops_per_s` the
    /// third quartile of the per-round rates. Other tenants of the host
    /// only ever slow a round down, in episodes that can cover most of a
    /// run, so the faster rounds are the steadier estimate of the code's
    /// own speed; taking the quartile rather than the best round keeps
    /// one lucky round from setting the value.
    pub(crate) fn set_rounds(&mut self, rounds: Vec<(f64, Round)>) {
        let mut all_ms = Vec::new();
        for (setup_s, round) in rounds {
            let Some(p50) = Summary::of(&round.op_ms).map(|s| s.median) else {
                continue;
            };
            let rate = round.rate.unwrap_or(1e3 / p50);
            self.rounds.push((setup_s, p50, rate));
            all_ms.extend(round.op_ms);
        }
        let setup: Vec<f64> = self.rounds.iter().map(|r| r.0).collect();
        if let Some(s) = Summary::of(&setup) {
            self.set("setup_s", s.median);
        }
        self.set_op_latency(&all_ms);
        if !self.rounds.is_empty() {
            let p50: Vec<f64> = self.rounds.iter().map(|r| r.1).collect();
            let rate: Vec<f64> = self.rounds.iter().map(|r| r.2).collect();
            self.set("op_ms_p50", stats::percentile(&stats::sorted(&p50), 25.0));
            self.set("ops_per_s", stats::percentile(&stats::sorted(&rate), 75.0));
        }
    }

    /// Per-layer self time per op, in µs, for every span name in
    /// `names` (`(span, metric)`), from the traced spans over `ops`
    /// operations.
    pub(crate) fn set_self_times(&mut self, tracer: &Tracer, ops: u64, names: &[(&str, &str)]) {
        let times = trace::self_times(tracer.spans());
        for &(span, metric) in names {
            let ns = times.get(span).map_or(0, |t| t.self_ns);
            self.set(metric, ns as f64 / 1e3 / ops.max(1) as f64);
        }
    }

    /// `trace.*` metrics: traced and untraced op medians side by side.
    pub(crate) fn set_overhead(&mut self, untraced_ms: &[f64], traced_ms: &[f64]) {
        let (Some(u), Some(t)) = (Summary::of(untraced_ms), Summary::of(traced_ms)) else {
            return;
        };
        self.set("trace.op_ms_p50_untraced", u.median);
        self.set("trace.op_ms_p50_traced", t.median);
        self.set("trace.overhead_pct", (t.median / u.median - 1.0) * 100.0);
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub(crate) struct Round {
    /// Per-op latency samples, ms.
    pub(crate) op_ms: Vec<f64>,
    /// The round's throughput, ops/s, when ops overlap; `None` for a
    /// closed loop of one op at a time, whose rate follows from its
    /// median latency.
    pub(crate) rate: Option<f64>,
}

/// Alternates timed set-up with measurement, [`ROUNDS`] times: builds
/// a fresh system with `build` (timed), then hands it to `measure` for
/// `seconds / ROUNDS`. Returns each round's set-up seconds and
/// measurement.
///
/// # Errors
///
/// The first error `build` or `measure` returns.
pub(crate) fn rounds<T>(
    seconds: f64,
    mut build: impl FnMut() -> Result<T, String>,
    mut measure: impl FnMut(T, f64) -> Result<Round, String>,
) -> Result<Vec<(f64, Round)>, String> {
    let mut out = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let built = build()?;
        let setup_s = t.elapsed().as_secs_f64();
        out.push((setup_s, measure(built, seconds / ROUNDS as f64)?));
    }
    Ok(out)
}

/// Calls `op(i)` for `i = 0, 1, …` until `seconds` have passed and at
/// least `min_ops` ran; returns each call's wall-clock milliseconds.
///
/// # Errors
///
/// The first error `op` returns.
pub(crate) fn op_loop(
    seconds: f64,
    min_ops: u64,
    mut op: impl FnMut(u64) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut ms = Vec::new();
    let mut i = 0u64;
    while i < min_ops || start.elapsed() < budget {
        let t = Instant::now();
        op(i)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        i += 1;
    }
    Ok(ms)
}

/// Sums the instruction count and cycle ledger of several runs.
pub(crate) fn perf_sum<'a>(runs: impl IntoIterator<Item = &'a PerfCounters>) -> PerfCounters {
    let mut acc = PerfCounters::new();
    for p in runs {
        acc.instret += p.instret;
        for (class, cycles) in p.ledger.entries() {
            acc.ledger.charge(class, cycles);
        }
    }
    acc
}

/// Peak resident set of this process (`VmHWM`), MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
