//! The outcome ladder of a recovering run: ok → masked → recovered →
//! degraded. Every run that can be armed with faults, retried from a
//! checkpoint and, as a last resort, served from the golden software
//! model reports one of these — a network layer
//! (`xpulpnn::network::LayerOutcome`) and a served request
//! (`serve::Outcome`) alike.

use riscv_core::Trap;
use std::fmt;

/// How a failure was noticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// The core trapped (bus error, illegal instruction, watchdog, ...).
    Trap(Trap),
    /// The run halted but its output diverged from the golden model.
    Sdc,
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detection::Trap(t) => write!(f, "trap: {t}"),
            Detection::Sdc => f.write_str("silent data corruption vs golden model"),
        }
    }
}

/// What happened to one recovering run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Clean first-attempt run, output verified against the golden
    /// model, no faults injected.
    Ok,
    /// Faults were injected but the verified output is still correct —
    /// the flips were architecturally masked.
    Masked {
        /// Bit flips applied.
        flips: usize,
    },
    /// A failure was detected and a retry from a clean checkpoint
    /// produced a verified output.
    Recovered {
        /// How the failure was noticed.
        detection: Detection,
        /// Retries spent (≥ 1).
        retries: u32,
    },
    /// Retries were exhausted (or disabled); the output is the golden
    /// software model's, computed on the host.
    Degraded {
        /// How the failure was noticed.
        detection: Detection,
    },
}

impl Outcome {
    /// True when the device produced the output (possibly after
    /// retries); false when the golden fallback did.
    pub fn device_served(&self) -> bool {
        !matches!(self, Outcome::Degraded { .. })
    }

    /// Stable one-word label used by reports and digests.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Masked { .. } => "masked",
            Outcome::Recovered { .. } => "recovered",
            Outcome::Degraded { .. } => "degraded",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Ok => f.write_str("ok"),
            Outcome::Masked { flips } => write!(f, "masked ({flips} flips)"),
            Outcome::Recovered { detection, retries } => {
                write!(f, "recovered after {retries} retry(s) [{detection}]")
            }
            Outcome::Degraded { detection } => {
                write!(f, "degraded to golden fallback [{detection}]")
            }
        }
    }
}
