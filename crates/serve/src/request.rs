//! Request/response types of the serving layer.
//!
//! A [`Request`] carries an input tensor plus a [`Variant`] selector
//! naming the kernel (precision + quantization path) that must serve
//! it; a [`Response`] carries the output tensor, a typed [`Outcome`]
//! mirroring the network layer's degradation ladder, and the
//! per-request cycle ledger. Every field a response digest covers is a
//! pure function of the request and the pool's template configuration
//! — never of scheduling — which is what makes a (seed, trace) pair
//! replay bit-identically across worker counts.

use riscv_core::PerfCounters;
use std::fmt;

/// The kernel variant a request selects: operand precision plus the
/// quantization path, all on the XpulpNN ISA. One pre-staged
/// [`crate::WorkerTemplate`] exists per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// 8-bit operands, shift quantization (no thresholds).
    W8,
    /// 4-bit operands, hardware `pv.qnt` threshold quantization.
    W4,
    /// 4-bit operands, software Eytzinger threshold tree.
    W4Tree,
    /// 2-bit operands, hardware `pv.qnt` threshold quantization.
    W2,
}

impl Variant {
    /// All servable variants, in template-index order.
    pub const ALL: [Variant; 4] = [Variant::W8, Variant::W4, Variant::W4Tree, Variant::W2];

    /// Dense index into the pool's template table.
    pub fn index(self) -> usize {
        match self {
            Variant::W8 => 0,
            Variant::W4 => 1,
            Variant::W4Tree => 2,
            Variant::W2 => 3,
        }
    }

    /// Stable name used by the CLI and reports.
    pub fn name(self) -> &'static str {
        match self {
            Variant::W8 => "w8",
            Variant::W4 => "w4",
            Variant::W4Tree => "w4-tree",
            Variant::W2 => "w2",
        }
    }

    /// Parses a [`Variant::name`] back.
    pub fn parse(s: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.name() == s)
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One inference request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-assigned identifier; echoed in the response. The pool
    /// does not require uniqueness, but the loadgen digest assumes it.
    pub id: u64,
    /// Which kernel template serves this request.
    pub variant: Variant,
    /// Logical (unpacked) activation values, length and range valid
    /// for the variant's serving shape — validated at submit time.
    pub input: Vec<i16>,
}

/// Why a request payload was rejected at submit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// Zero-size payload.
    Empty,
    /// Payload length does not match the variant's serving shape.
    WrongLength {
        /// Submitted element count.
        got: usize,
        /// Element count the variant's shape requires.
        want: usize,
    },
    /// An activation value falls outside the variant's unsigned range.
    OutOfRange {
        /// Index of the first offending element.
        index: usize,
        /// Its value.
        value: i16,
        /// Largest representable activation (`2^bits - 1`).
        max: i16,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Empty => write!(f, "empty input payload"),
            RequestError::WrongLength { got, want } => {
                write!(
                    f,
                    "input length {got} does not match serving shape ({want})"
                )
            }
            RequestError::OutOfRange { index, value, max } => {
                write!(
                    f,
                    "input[{index}] = {value} outside activation range 0..={max}"
                )
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Why a submit call did not enqueue the request. `Overloaded` is the
/// backpressure signal: the bounded queue is full and the caller must
/// retry/shed — the pool never blocks a `try`-submit and never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Payload validation failed (see [`RequestError`]).
    Invalid {
        /// The rejected request's id.
        id: u64,
        /// What was wrong with the payload.
        error: RequestError,
    },
    /// The bounded work queue is at capacity.
    Overloaded {
        /// The queue's capacity, for caller-side shed policies.
        capacity: usize,
    },
    /// A bounded wait for queue space expired before a slot freed up
    /// (see [`crate::ServePool::submit_timeout`]) — the liveness-safe
    /// alternative to blocking forever on a wedged pool.
    Timeout {
        /// How long the submitter waited, in milliseconds.
        waited_ms: u64,
    },
    /// The pool is shutting down and no longer accepts work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid { id, error } => write!(f, "request {id} rejected: {error}"),
            SubmitError::Overloaded { capacity } => {
                write!(f, "queue at capacity ({capacity}); shed or retry")
            }
            SubmitError::Timeout { waited_ms } => {
                write!(f, "no queue space freed within {waited_ms} ms")
            }
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a fault was detected mid-request, and the per-request
/// outcome ladder: a poisoned request degrades to the golden-software
/// fallback — it never kills its worker, which re-forks from the
/// template. The same types as `Network::run_with_policy`'s.
pub use faultsim::{Detection, Outcome};

/// One served request's result.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// Echo of [`Request::variant`].
    pub variant: Variant,
    /// How the request was served.
    pub outcome: Outcome,
    /// Output tensor (logical values). Verified against the golden
    /// model for every outcome; for `Degraded` it *is* the golden
    /// output.
    pub output: Vec<i16>,
    /// Cycle ledger of the attempt that produced the output (the last
    /// attempt for `Degraded`).
    pub perf: PerfCounters,
    /// Total simulated cycles spent on this request, failed attempts
    /// included — the deterministic latency measure.
    pub cycles: u64,
    /// Index of the worker that served the request. Observability
    /// only: excluded from the digest (it depends on scheduling).
    pub worker: usize,
    /// True when served by a warm rerun (no template re-restore).
    /// Observability only: excluded from the digest.
    pub warm: bool,
    /// Host-side submit→completion latency in microseconds. Wall
    /// clock, so excluded from the digest.
    pub host_us: u64,
}

impl Response {
    /// Folds every *deterministic* field into an FNV-1a style digest
    /// accumulator: id, variant, outcome, output tensor, simulated
    /// cycles, and the ledger's headline counters. Worker index, warm
    /// flag and host latency are deliberately excluded — they depend
    /// on scheduling, the digest must not.
    pub fn fold_digest(&self, h: &mut u64) {
        let mut fold = |x: u64| {
            *h ^= x;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        fold(self.id);
        fold(self.variant.index() as u64);
        match &self.outcome {
            Outcome::Ok => fold(1),
            Outcome::Masked { flips } => {
                fold(2);
                fold(*flips as u64);
            }
            Outcome::Recovered { detection, retries } => {
                fold(3);
                fold(u64::from(*retries));
                fold_detection(detection, &mut fold);
            }
            Outcome::Degraded { detection } => {
                fold(4);
                fold_detection(detection, &mut fold);
            }
        }
        fold(self.output.len() as u64);
        for &v in &self.output {
            fold(v as u16 as u64);
        }
        fold(self.cycles);
        fold(self.perf.cycles);
        fold(self.perf.instret);
    }
}

fn fold_detection(d: &Detection, fold: &mut impl FnMut(u64)) {
    match d {
        Detection::Sdc => fold(0x5dc),
        Detection::Trap(t) => {
            // The trap's rendering is deterministic (pc, cause).
            fold(0x7247);
            for b in format!("{t}").bytes() {
                fold(u64::from(b));
            }
        }
    }
}
