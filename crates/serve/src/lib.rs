//! Inference-serving layer: snapshot-forked SoC worker pools under a
//! bounded MPMC queue, with a deterministic load-test harness.
//!
//! The simulated XpulpNN SoC becomes a servable inference worker:
//!
//! * [`WorkerTemplate`] — one pre-warmed, health-checked template per
//!   kernel [`Variant`]: program build, weight/threshold staging and
//!   golden-model wiring paid once; workers fork from its page-sparse
//!   `SocSnapshot` in a single restore.
//! * [`BoundedQueue`] — bounded MPMC work queue with typed
//!   backpressure ([`SubmitError::Overloaded`]) and drain-on-close.
//! * [`ServePool`] — N worker threads, same-variant batching, warm
//!   reruns, per-request watchdog, and the `run_with_policy`-style
//!   degradation ladder ([`Outcome`]): a poisoned request never kills
//!   its worker, which re-forks from the template.
//! * [`run_loadgen`] — seeded open-loop generator plus a
//!   scheduling-independent response [`digest`]: a fixed `(seed,
//!   trace)` pair replays bit-identically across 1/2/8 workers.

mod loadgen;
mod pool;
mod queue;
mod request;
mod supervisor;
pub mod sync;
mod template;

pub use loadgen::{
    digest, generate_requests, run_loadgen, LatencyStats, LoadReport, LoadgenConfig,
};
pub use pool::{HangFaults, PoolConfig, PoolReport, PoolStats, ServeFaults, ServePool};
pub use queue::{BoundedQueue, PushError};
pub use request::{Detection, Outcome, Request, RequestError, Response, SubmitError, Variant};
pub use supervisor::{
    run_soak, soak_digest, Breaker, BreakerState, PhaseSummary, RejectReason, ServedVia,
    SoakConfig, SoakCounters, SoakPhase, SoakReport, Supervisor, SupervisorConfig,
    SupervisorOutcome, SupervisorResponse,
};
pub use template::{serving_config, ServeError, WorkerTemplate};
