//! `serve_clean` and `serve_chaos`: the seeded mixed-variant request
//! stream through a two-worker `ServePool`.
//!
//! An untraced run is a few rounds; each starts a pool and serves its
//! first request (the timed set-up), then runs two phases on it:
//! 1. capacity — requests submitted with backpressure as fast as the
//!    pool takes them (closed loop); gives the round's `ops_per_s`;
//! 2. open loop — Poisson arrivals at a fixed rate, each request timed
//!    from the moment it was due; gives the round's `op_ms_p50`.
//!
//! The traced run is one such round plus a single-thread replay of the
//! pool's per-request path (`serve_one`) through the public calls it
//! makes, so each call's host time can be spanned.
//!
//! Every response is checked against the golden output of its input.
//! The first [`PINNED_IDS`] responses are folded into the pool's
//! scheduling-independent digest, an exact value `--check` compares.

use crate::harness::{perf_sum, rounds, Ctx, Measured, Round};
use crate::stats;
use crate::trace::Tracer;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use xpulpnn::faultsim::{run_armed, ArmConfig};
use xpulpnn::pulp_soc::Soc;
use xpulpnn::serve::{
    digest, generate_requests, Outcome, PoolConfig, Request, Response, ServeFaults, ServePool,
    SubmitError, Variant, WorkerTemplate,
};
use xrand::Rng;

/// Distinct requests in the stream; request `id` carries entry
/// `id % STREAM_LEN`.
const STREAM_LEN: u64 = 4096;
/// Responses with `id <` this are digested and counted exactly.
const PINNED_IDS: u64 = 1000;
/// Fault-plan seed of chaos mode: one flip in every request.
const CHAOS_SEED: u64 = 13;
const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 256;
/// Open-loop arrival rates (req/s), a fifth to a quarter of each mode's
/// capacity on a 2-core host, so the queue stays short.
const RATE_CLEAN: f64 = 2000.0;
const RATE_CHAOS: f64 = 400.0;
/// Longest wait for a pool to drain before the run is declared wedged.
const DRAIN_BOUND: Duration = Duration::from_secs(60);

/// Which fault mode the pool serves in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No injected faults.
    Clean,
    /// `ServeFaults::always(13)`: every request armed with one flip.
    Chaos,
}

/// The seeded stream and the golden output of each entry.
struct Stream {
    requests: Vec<Request>,
    golden: Vec<Vec<i16>>,
}

impl Stream {
    fn new(seed: u64, templates: &[WorkerTemplate]) -> Stream {
        let requests = generate_requests(seed, STREAM_LEN);
        let golden = requests
            .iter()
            .map(|r| templates[r.variant.index()].golden(&r.input))
            .collect();
        Stream { requests, golden }
    }

    fn request(&self, id: u64) -> Request {
        let base = &self.requests[(id % STREAM_LEN) as usize];
        Request {
            id,
            variant: base.variant,
            input: base.input.clone(),
        }
    }

    fn golden(&self, id: u64) -> &[i16] {
        &self.golden[(id % STREAM_LEN) as usize]
    }

    fn variant(&self, id: u64) -> Variant {
        self.requests[(id % STREAM_LEN) as usize].variant
    }
}

fn pool_config(mode: Mode) -> PoolConfig {
    PoolConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        faults: (mode == Mode::Chaos).then(|| ServeFaults::always(CHAOS_SEED)),
        ..PoolConfig::default()
    }
}

/// Starts a pool and serves its first request: one set-up.
fn start_pool(mode: Mode, stream: &Stream) -> Result<ServePool, String> {
    let pool = ServePool::start(pool_config(mode)).map_err(|e| e.to_string())?;
    let mut first = stream.request(0);
    first.id = u64::MAX;
    pool.submit_timeout(first, DRAIN_BOUND)
        .map_err(|e| e.to_string())?;
    drain_to(&pool, 1)?;
    let r = pool.drain_responses();
    if r.len() == 1 && r[0].output == stream.golden(0) {
        Ok(pool)
    } else {
        Err("the first served request did not verify".into())
    }
}

/// Waits until `pool` has completed `n` responses over its life.
fn drain_to(pool: &ServePool, n: usize) -> Result<(), String> {
    let deadline = Instant::now() + DRAIN_BOUND;
    while pool.completed() < n {
        if Instant::now() > deadline {
            return Err(format!(
                "pool completed {} of {n} requests within {DRAIN_BOUND:?}",
                pool.completed()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// Submits between two drains of the pool's finished responses.
const STRIDE: u64 = 128;

/// What the pool phases of a run measured, across its rounds.
struct PoolRun<'a> {
    mode: Mode,
    stream: &'a Stream,
    /// Next request id; ids are unique across rounds.
    next_id: u64,
    /// Responses with `id < PINNED_IDS`, for the digest and exact counts.
    pinned: Vec<Response>,
    /// Open-loop requests in flight: id → ms the submit ran late.
    in_flight: HashMap<u64, f64>,
    /// Open-loop latency from due time, ms.
    latency_ms: Vec<f64>,
    /// How late the generator submitted, ms.
    late_ms: Vec<f64>,
    /// Queue depth seen at each open-loop submit.
    depth: Vec<f64>,
    served: u64,
    cold_forks: u64,
    warm_runs: u64,
    arrivals: Rng,
}

impl PoolRun<'_> {
    /// Checks responses against the stream's golden outputs and counts
    /// each into `m`.
    fn take(&mut self, m: &mut Measured, responses: Vec<Response>) {
        for r in responses {
            let right =
                r.variant == self.stream.variant(r.id) && r.output == self.stream.golden(r.id);
            let unexpected = self.mode == Mode::Clean && r.outcome != Outcome::Ok;
            let degraded = matches!(r.outcome, Outcome::Degraded { .. });
            m.attempted += 1;
            m.wrong += u64::from(!right || unexpected);
            m.failed += u64::from(!right || unexpected || degraded);
            if let Some(late) = self.in_flight.remove(&r.id) {
                self.latency_ms.push(late + r.host_us as f64 / 1e3);
            }
            if r.id < PINNED_IDS {
                self.pinned.push(r);
            }
        }
    }

    /// One round on a started pool: capacity phase, open-loop phase,
    /// shutdown. Returns the round's open-loop latencies and its
    /// capacity-phase rate.
    fn round(&mut self, pool: ServePool, m: &mut Measured, seconds: f64) -> Result<Round, String> {
        let latency_from = self.latency_ms.len();
        let rate = self.capacity(&pool, m, seconds / 2.0)?;
        self.open_loop(&pool, m, seconds / 2.0)?;
        let report = pool.shutdown();
        self.take(m, report.responses);
        self.served += report.stats.served;
        self.cold_forks += report.stats.cold_forks;
        self.warm_runs += report.stats.warm_runs;
        // Accepted open-loop requests that never came back are lost.
        let lost = self.in_flight.drain().count() as u64;
        m.attempted += lost;
        m.failed += lost;
        m.wrong += lost;
        Ok(Round {
            op_ms: self.latency_ms[latency_from..].to_vec(),
            rate: Some(rate),
        })
    }

    /// Submits with backpressure for `seconds` (and until every pinned
    /// id went out), then waits for the pool to drain; returns the
    /// requests served per second.
    fn capacity(
        &mut self,
        pool: &ServePool,
        m: &mut Measured,
        seconds: f64,
    ) -> Result<f64, String> {
        let budget = Duration::from_secs_f64(seconds);
        let base = pool.completed();
        let start = Instant::now();
        let mut submitted = 0u64;
        while self.next_id < PINNED_IDS || start.elapsed() < budget {
            let id = self.next_id;
            pool.submit_timeout(self.stream.request(id), DRAIN_BOUND)
                .map_err(|e| format!("capacity submit {id}: {e}"))?;
            self.next_id += 1;
            submitted += 1;
            if submitted.is_multiple_of(STRIDE) {
                self.take(m, pool.drain_responses());
            }
        }
        drain_to(pool, base + submitted as usize)?;
        let rate = submitted as f64 / start.elapsed().as_secs_f64();
        self.take(m, pool.drain_responses());
        Ok(rate)
    }

    /// Poisson arrivals at the mode's rate for `seconds`; a refused
    /// submit counts as failed.
    fn open_loop(
        &mut self,
        pool: &ServePool,
        m: &mut Measured,
        seconds: f64,
    ) -> Result<(), String> {
        let rate = if self.mode == Mode::Clean {
            RATE_CLEAN
        } else {
            RATE_CHAOS
        };
        let base = pool.completed();
        let mut accepted = 0;
        let mut due_s = 0.0f64;
        let start = Instant::now();
        loop {
            let u = (self.arrivals.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            due_s += -(1.0 - u).ln() / rate;
            if due_s > seconds {
                break;
            }
            let ahead = due_s - start.elapsed().as_secs_f64();
            if ahead > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(ahead));
            }
            let late_ms = (start.elapsed().as_secs_f64() - due_s) * 1e3;
            let id = self.next_id;
            self.next_id += 1;
            self.late_ms.push(late_ms);
            self.depth.push(pool.queued() as f64);
            match pool.submit(self.stream.request(id)) {
                Ok(()) => {
                    self.in_flight.insert(id, late_ms);
                    accepted += 1;
                }
                Err(SubmitError::Overloaded { .. }) => {
                    m.attempted += 1;
                    m.failed += 1;
                }
                Err(e) => return Err(format!("open-loop submit {id}: {e}")),
            }
            if id.is_multiple_of(STRIDE) {
                self.take(m, pool.drain_responses());
            }
        }
        drain_to(pool, base + accepted)?;
        self.take(m, pool.drain_responses());
        Ok(())
    }
}

/// What the single-thread replay measured and counted.
#[derive(Default)]
struct Replay {
    service_us: Vec<f64>,
    fast_instret: u64,
    armed_instret: u64,
    injections: u64,
    checkpoints: u64,
    masked: u64,
    recovered: u64,
    degraded: u64,
    fast: Option<xpulpnn::riscv_core::FastPathStats>,
}

/// A replay worker's machine, as `serve_one` keeps it.
struct Machine {
    soc: Soc,
    variant: Variant,
    clean: bool,
}

/// Serves `req` the way a pool worker does, one public call per
/// span: verify the template, compute the golden output, fork / re-fork
/// / re-arm, stage the input, run (armed in chaos mode, with a cold
/// retry on a detected fault), read the output back.
fn replay_one(
    tr: &mut Tracer,
    templates: &[WorkerTemplate],
    machine: &mut Option<Machine>,
    req: &Request,
    plan_seed: Option<u64>,
    rep: &mut Replay,
) -> bool {
    let t = &templates[req.variant.index()];
    if tr.span("pulp_soc.checksum", |_| t.verify()).is_err() {
        return false;
    }
    let golden = tr.span("pulp_kernels.golden", |_| t.golden(&req.input));
    let warm = plan_seed.is_none()
        && machine
            .as_ref()
            .is_some_and(|m| m.variant == req.variant && m.clean);
    let mut m = match machine.take() {
        Some(mut m) if warm => {
            tr.span("serve.rearm", |_| t.rearm_entry(&mut m.soc));
            m
        }
        Some(mut m) => {
            tr.span("pulp_soc.restore", |_| t.refork(&mut m.soc));
            m.variant = req.variant;
            m
        }
        None => Machine {
            soc: tr.span("pulp_soc.restore", |_| t.fork()),
            variant: req.variant,
            clean: false,
        },
    };
    tr.span("serve.stage_input", |_| {
        t.stage_input(&mut m.soc, &req.input)
    });
    let first_ok = match plan_seed {
        Some(seed) => {
            let plan = t.fault_plan(seed);
            let cfg = ArmConfig {
                budget: t.budget(),
                checkpoint_interval: 10_000,
                trace_depth: 0,
            };
            let armed = tr.span("faultsim.run_armed", |_| run_armed(&mut m.soc, &plan, &cfg));
            rep.armed_instret += armed.perf.instret;
            rep.injections += armed.injections.len() as u64;
            rep.checkpoints += armed.checkpoints;
            let out = tr.span("serve.collect_output", |_| t.collect_output(&m.soc));
            let ok = armed.exit.is_ok() && out == golden;
            if ok {
                rep.masked += u64::from(!armed.injections.is_empty());
            }
            ok
        }
        None => {
            let run = tr.span("riscv_core.fast", |_| m.soc.run(t.budget()));
            rep.fast_instret += run.as_ref().map_or(0, |r| r.perf.instret);
            let out = tr.span("serve.collect_output", |_| t.collect_output(&m.soc));
            run.is_ok() && out == golden
        }
    };
    let ok = first_ok || {
        // Detected: one cold re-fork and a disarmed retry.
        tr.span("pulp_soc.restore", |_| t.refork(&mut m.soc));
        tr.span("serve.stage_input", |_| {
            t.stage_input(&mut m.soc, &req.input)
        });
        let run = tr.span("riscv_core.fast", |_| m.soc.run(t.budget()));
        rep.fast_instret += run.as_ref().map_or(0, |r| r.perf.instret);
        let out = tr.span("serve.collect_output", |_| t.collect_output(&m.soc));
        let ok = run.is_ok() && out == golden;
        if ok {
            rep.recovered += 1;
        } else {
            rep.degraded += 1;
        }
        ok
    };
    m.clean = ok && plan_seed.is_none();
    if plan_seed.is_none() {
        rep.fast = m.soc.core.fastpath_stats();
    }
    *machine = Some(m);
    ok
}

/// Replays the stream single-threaded for `seconds` (at least
/// [`PINNED_IDS`] requests), counting each into `m`.
fn replay(
    tr: &mut Tracer,
    templates: &[WorkerTemplate],
    stream: &Stream,
    mode: Mode,
    seed: u64,
    seconds: f64,
    m: &mut Measured,
) -> Replay {
    let mut rep = Replay::default();
    let mut machine = None;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut id = 0u64;
    while id < PINNED_IDS || start.elapsed() < budget {
        let req = stream.request(id);
        let plan_seed = (mode == Mode::Chaos)
            .then(|| Rng::new(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64());
        tr.set_op(id);
        let t = Instant::now();
        let ok = tr.span("serve.request", |tr| {
            replay_one(tr, templates, &mut machine, &req, plan_seed, &mut rep)
        });
        rep.service_us.push(t.elapsed().as_secs_f64() * 1e6);
        m.op(ok);
        id += 1;
        if id == PINNED_IDS {
            m.set_exact("serve.replay.masked", rep.masked);
            m.set_exact("serve.replay.recovered", rep.recovered);
            m.set_exact("serve.replay.degraded", rep.degraded);
            m.set_exact("faultsim.injections", rep.injections);
            m.set_exact("faultsim.checkpoints", rep.checkpoints);
        }
    }
    rep
}

fn build_templates() -> Result<Vec<WorkerTemplate>, String> {
    Variant::ALL
        .into_iter()
        .map(|v| {
            WorkerTemplate::build(v, PoolConfig::default().weight_seed).map_err(|e| e.to_string())
        })
        .collect()
}

/// Runs `serve_clean` or `serve_chaos`.
///
/// # Errors
///
/// When the pool cannot start, its first request does not verify, or a
/// phase wedges.
pub fn run(mode: Mode, ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let t = Instant::now();
    let templates = build_templates()?;
    m.set("pulp_kernels.build_ms", t.elapsed().as_secs_f64() * 1e3);
    let stream = Stream::new(ctx.seed, &templates);

    let mut pool_run = PoolRun {
        mode,
        stream: &stream,
        next_id: 0,
        pinned: Vec::new(),
        in_flight: HashMap::new(),
        latency_ms: Vec::new(),
        late_ms: Vec::new(),
        depth: Vec::new(),
        served: 0,
        cold_forks: 0,
        warm_runs: 0,
        arrivals: Rng::new(ctx.seed ^ 0x09e2_100b),
    };
    if ctx.trace {
        pool_run.round(start_pool(mode, &stream)?, &mut m, ctx.seconds / 2.0)?;
        m.set_op_latency(&pool_run.latency_ms);
    } else {
        let results = rounds(
            ctx.seconds,
            || start_pool(mode, &stream),
            |pool, secs| pool_run.round(pool, &mut m, secs),
        )?;
        m.set_rounds(results);
    }

    // Exact values over the first PINNED_IDS responses.
    let mut pinned = std::mem::take(&mut pool_run.pinned);
    pinned.sort_by_key(|r| r.id);
    if pinned.len() as u64 != PINNED_IDS {
        m.wrong += 1;
    }
    m.set_exact("serve.digest", format!("{:016x}", digest(&pinned)));
    m.set_exact_perf(&perf_sum(pinned.iter().map(|r| &r.perf)));
    for label in ["ok", "masked", "recovered", "degraded"] {
        let count = pinned.iter().filter(|r| r.outcome.label() == label).count() as u64;
        m.set_exact(&format!("serve.{label}"), count);
    }
    // The simulated cost of one request, averaged over the variant mix.
    let clean_cycles: u64 = templates.iter().map(WorkerTemplate::clean_cycles).sum();
    m.set_exact("sim_cycles", clean_cycles as f64 / templates.len() as f64);

    m.set(
        "serve.cold_forks_per_req",
        pool_run.cold_forks as f64 / pool_run.served.max(1) as f64,
    );
    m.set(
        "serve.warm_runs_per_req",
        pool_run.warm_runs as f64 / pool_run.served.max(1) as f64,
    );
    let depth = stats::sorted(&pool_run.depth);
    let late = stats::sorted(&pool_run.late_ms);
    let latency = stats::sorted(&pool_run.latency_ms);
    if !latency.is_empty() {
        m.set("serve.queue_depth_p99", stats::percentile(&depth, 99.0));
        m.set("serve.gen_late_ms_p99", stats::percentile(&late, 99.0));
        m.set("serve.latency_ms_p99", stats::percentile(&latency, 99.0));
    }

    if ctx.trace {
        let replay_secs = ctx.seconds / 4.0;
        let untraced = replay(
            &mut Tracer::off(),
            &templates,
            &stream,
            mode,
            ctx.seed,
            replay_secs,
            &mut m,
        );
        let mut tr = Tracer::on();
        let traced = replay(
            &mut tr,
            &templates,
            &stream,
            mode,
            ctx.seed,
            replay_secs,
            &mut m,
        );
        let to_ms = |us: &[f64]| us.iter().map(|u| u / 1e3).collect::<Vec<_>>();
        m.set_overhead(&to_ms(&untraced.service_us), &to_ms(&traced.service_us));
        m.set(
            "serve.service_us_p50",
            stats::percentile(&stats::sorted(&untraced.service_us), 50.0),
        );
        let ops = traced.service_us.len() as u64;
        m.set_self_times(
            &tr,
            ops,
            &[
                ("pulp_soc.checksum", "pulp_soc.checksum_us"),
                ("pulp_soc.restore", "pulp_soc.restore_us"),
                ("pulp_kernels.golden", "pulp_kernels.golden_us"),
                ("serve.stage_input", "serve.stage_input_us"),
                ("serve.collect_output", "serve.collect_output_us"),
                ("serve.rearm", "serve.rearm_us"),
                ("faultsim.run_armed", "faultsim.run_armed_us"),
            ],
        );
        let times = crate::trace::self_times(tr.spans());
        let self_ns = |name: &str| times.get(name).map_or(0, |t| t.self_ns) as f64;
        if traced.fast_instret > 0 {
            m.set(
                "riscv_core.fast.ns_per_instr",
                self_ns("riscv_core.fast") / traced.fast_instret as f64,
            );
        }
        if traced.armed_instret > 0 {
            m.set(
                "riscv_core.interp.ns_per_instr",
                self_ns("faultsim.run_armed") / traced.armed_instret as f64,
            );
        }
        if let Some(fast) = traced.fast {
            m.set(
                "riscv_core.fast.translations",
                fast.translations as f64 / ops.max(1) as f64,
            );
            m.set(
                "riscv_core.fast.interp_fallbacks",
                fast.interp_fallbacks as f64 / ops.max(1) as f64,
            );
            m.set(
                "riscv_core.fast.invalidations",
                fast.invalidations as f64 / ops.max(1) as f64,
            );
            m.set("riscv_core.fast.hit_rate", fast.hit_rate());
        }
        m.tracer = Some(tr);
    }
    Ok(m)
}
