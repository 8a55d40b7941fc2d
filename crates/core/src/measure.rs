//! Verified cycle measurements of the paper's benchmark layer.

use crate::report::HotspotProfile;
use pulp_kernels::runner::BuildError;
use pulp_kernels::{ConvKernelConfig, ConvTestbench, KernelIsa};
use qnn::BitWidth;
use riscv_core::{PerfCounters, Trap};
use std::fmt;

/// Any failure while measuring a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The kernel could not be built.
    Build(String),
    /// The simulator trapped.
    Trap(Trap),
    /// The device output did not match the golden model — measurements
    /// of incorrect kernels are worthless, so this is an error, not a
    /// flag.
    Mismatch {
        /// The offending configuration.
        config: String,
    },
    /// A decoded-block fast-path run did not reproduce its interpreted
    /// partner bit for bit.
    FastPathDiverged {
        /// The offending configuration.
        config: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Build(e) => write!(f, "kernel build failed: {e}"),
            Error::Trap(t) => write!(f, "simulator trap: {t}"),
            Error::Mismatch { config } => {
                write!(f, "kernel {config} output does not match the golden model")
            }
            Error::FastPathDiverged { config } => write!(
                f,
                "kernel {config}: the fast path is not bit-exact with the interpreter"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        Error::Build(e.to_string())
    }
}

impl From<Trap> for Error {
    fn from(t: Trap) -> Self {
        Error::Trap(t)
    }
}

/// One verified kernel measurement.
#[derive(Debug, Clone)]
pub struct LayerMeasurement {
    /// The configuration measured.
    pub cfg: ConvKernelConfig,
    /// Total kernel cycles.
    pub cycles: u64,
    /// MACs in the layer.
    pub macs: u64,
    /// Full performance counters of the run.
    pub perf: PerfCounters,
}

impl LayerMeasurement {
    /// Multiply-accumulates per cycle; 0 when no cycles were recorded
    /// (guards the inf/NaN a bare division would produce).
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.cycles as f64
        }
    }

    /// GMAC/s at the PULPissimo operating point (250 MHz).
    pub fn gmacs(&self) -> f64 {
        self.macs_per_cycle() * pulp_power::FREQ_MHZ * 1e6 / 1e9
    }
}

/// Measures any configuration, insisting the output matches the golden
/// model.
///
/// # Errors
///
/// [`Error`] on build failure, trap, or output mismatch.
pub fn measure(cfg: ConvKernelConfig, seed: u64) -> Result<LayerMeasurement, Error> {
    let tb = ConvTestbench::new(cfg, seed)?;
    let r = tb.run()?;
    if !r.matches() {
        return Err(Error::Mismatch { config: cfg.name() });
    }
    Ok(LayerMeasurement {
        cfg,
        cycles: r.report.perf.cycles,
        macs: cfg.shape.macs(),
        perf: r.report.perf,
    })
}

/// Measures the paper's benchmark layer (16×16×32 input, 64×3×3×32
/// filters) for a width/ISA point.
///
/// # Errors
///
/// See [`measure`].
pub fn measure_paper_layer(
    bits: BitWidth,
    isa: KernelIsa,
    hw_quant: bool,
    seed: u64,
) -> Result<LayerMeasurement, Error> {
    measure(ConvKernelConfig::paper(bits, isa, hw_quant), seed)
}

/// Runs a kernel with the execution tracer attached and returns its
/// attributed cycle profile: the per-class cycle ledger plus the `top`
/// hottest static instructions. The output is verified against the
/// golden model first — profiles of broken kernels are worthless.
///
/// # Errors
///
/// [`Error`] on build failure, trap, or output mismatch.
pub fn profile(cfg: ConvKernelConfig, seed: u64, top: usize) -> Result<HotspotProfile, Error> {
    const RING: usize = 64;
    let tb = ConvTestbench::new(cfg, seed)?;
    let (r, tracer) = tb.run_profiled(RING)?;
    if !r.matches() {
        return Err(Error::Mismatch { config: cfg.name() });
    }
    Ok(HotspotProfile {
        kernel: cfg.name(),
        perf: r.report.perf,
        hotspots: tracer.hotspots(top),
    })
}

/// [`profile`] for the paper's benchmark layer at a width/ISA point.
///
/// # Errors
///
/// See [`profile`].
pub fn profile_paper_layer(
    bits: BitWidth,
    isa: KernelIsa,
    hw_quant: bool,
    seed: u64,
    top: usize,
) -> Result<HotspotProfile, Error> {
    profile(ConvKernelConfig::paper(bits, isa, hw_quant), seed, top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_derives_rates() {
        let m = LayerMeasurement {
            cfg: ConvKernelConfig::paper(BitWidth::W8, KernelIsa::XpulpNN, false),
            cycles: 1_000_000,
            macs: 2_000_000,
            perf: PerfCounters::new(),
        };
        assert!((m.macs_per_cycle() - 2.0).abs() < 1e-12);
        assert!((m.gmacs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_measurement_has_finite_rates() {
        let m = LayerMeasurement {
            cfg: ConvKernelConfig::paper(BitWidth::W8, KernelIsa::XpulpNN, false),
            cycles: 0,
            macs: 2_000_000,
            perf: PerfCounters::new(),
        };
        assert_eq!(m.macs_per_cycle(), 0.0);
        assert_eq!(m.gmacs(), 0.0);
    }
}
