//! Cluster convolution testbench: stages a layer in L2, drives the
//! DMA schedule and the barrier regions, and verifies the written-back
//! output against the golden model.
//!
//! The single-core [`ConvTestbench`] supplies the tensors, the golden
//! model and the L2 layout; this wrapper adds the [`ClusterPlan`]
//! (TCDM allocation + work split + DMA schedule) and the parallel
//! kernel, so the same layer runs on 1–8 harts with the same seeds.

use crate::sim::{ClusterSim, ClusterStats};
use crate::ClusterError;
use pulp_asm::Program;
use pulp_kernels::cluster::ClusterPlan;
use pulp_kernels::descriptors::encode_descriptors;
use pulp_kernels::emit::build_cluster_conv_program;
use pulp_kernels::{BuildError, ConvKernelConfig, ConvTestbench};
use pulp_soc::cluster::ClusterMem;
use riscv_core::PerfCounters;

/// Result of one verified cluster layer run.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// Total simulated cluster cycles: DMA prologue + compute regions
    /// (with overlapped input DMA) + write-back.
    pub cycles: u64,
    /// Device output (written back to L2), unpacked to logical values.
    pub output: Vec<i16>,
    /// Golden output from [`qnn::conv::conv2d_quantized`].
    pub golden: Vec<i16>,
    /// Cluster-level accounting (stalls, barrier waits, DMA split).
    pub stats: ClusterStats,
    /// Per-hart core counters for the whole run.
    pub per_hart: Vec<PerfCounters>,
    /// Per-hart exit codes.
    pub exit_codes: Vec<u32>,
}

impl ClusterRunResult {
    /// True when the device output matches the golden model bit-exactly.
    pub fn matches(&self) -> bool {
        self.output == self.golden
    }

    /// Cluster-level multiply-accumulates per cycle.
    pub fn macs_per_cycle(&self, cfg: &ConvKernelConfig) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            cfg.shape.macs() as f64 / self.cycles as f64
        }
    }

    /// Fraction of the total run hart `h` spent active (executing or
    /// stalled on a bank conflict, as opposed to waiting at a barrier).
    pub fn utilization(&self, h: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stats.busy[h] as f64 / self.cycles as f64
        }
    }
}

/// A ready-to-run cluster convolution layer.
#[derive(Debug, Clone)]
pub struct ClusterConvTestbench {
    /// The wrapped single-core testbench (tensors, golden model, L2
    /// layout).
    pub bench: ConvTestbench,
    /// The cluster execution plan.
    pub plan: ClusterPlan,
    /// The parallel kernel (dispatch prologue + shared pixel loop).
    pub program: Program,
}

impl ClusterConvTestbench {
    /// Builds the parallel kernel, the plan, and deterministic
    /// synthetic tensors for `cfg` on `n_harts` harts.
    ///
    /// # Errors
    ///
    /// [`BuildError`] for invalid configurations or layers that do not
    /// fit the cluster TCDM.
    pub fn new(
        cfg: ConvKernelConfig,
        n_harts: usize,
        seed: u64,
    ) -> Result<ClusterConvTestbench, BuildError> {
        let bench = ConvTestbench::new(cfg, seed)?;
        let plan = ClusterPlan::new(&cfg, n_harts)?;
        let program = build_cluster_conv_program(&cfg, &plan.tcdm)?;
        Ok(ClusterConvTestbench {
            bench,
            plan,
            program,
        })
    }

    /// Cluster size the plan was built for.
    pub fn n_harts(&self) -> usize {
        self.plan.tcdm.n_harts
    }

    /// Loads program and L2 staging images into a fresh cluster. The
    /// TCDM starts empty: everything the kernel touches arrives by DMA.
    pub fn stage(&self) -> ClusterSim {
        let l2 = &self.bench.layout;
        let mut mem = ClusterMem::new();
        mem.load(&self.program);
        for (addr, bytes) in self.bench.tensor_images() {
            mem.write_bytes(addr, &bytes);
        }
        mem.write_bytes(l2.descriptors, &encode_descriptors(&self.plan.descriptors));
        mem.write_bytes(self.plan.l2_param_addr(l2), &self.plan.param_image());
        let mut sim = ClusterSim::new(self.bench.isa_config(), self.n_harts(), mem);
        sim.start(self.program.base);
        sim
    }

    /// Drives a staged cluster through the full schedule: blocking
    /// prologue DMA, one region per tile with the next input band
    /// overlapped, the sentinel-drain region, and the blocking output
    /// write-back.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Trap`] if any hart traps.
    pub fn drive(&self, sim: &mut ClusterSim) -> Result<(), ClusterError> {
        let l2 = &self.bench.layout;
        for t in &self.plan.prologue_transfers(l2) {
            let c = sim.dma_blocking(t);
            sim.stats.dma_prologue += c;
        }
        let budget = self.bench.cycle_budget();
        let mut region = 0;
        loop {
            let band = self.plan.band_transfer(l2, region);
            let done = sim.run_region(budget, band.as_ref())?;
            region += 1;
            if done {
                break;
            }
        }
        let c = sim.dma_blocking(&self.plan.writeback(l2));
        sim.stats.dma_writeback += c;
        Ok(())
    }

    /// Stages, drives with `host_threads` host worker threads, and
    /// collects the verified result. Simulated cycles and outputs are
    /// identical for every `host_threads` value.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Trap`] if any hart traps.
    pub fn run(&self, host_threads: usize) -> Result<ClusterRunResult, ClusterError> {
        let mut sim = self.stage();
        sim.set_host_threads(host_threads);
        self.drive(&mut sim)?;
        Ok(self.collect(&sim))
    }

    /// [`ClusterConvTestbench::run`] with every hart's decoded-block
    /// fast path enabled. Bit-exact with the interpreted run — only
    /// host wall-clock differs.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Trap`] if any hart traps.
    pub fn run_fastpath(&self, host_threads: usize) -> Result<ClusterRunResult, ClusterError> {
        let mut sim = self.stage();
        sim.set_host_threads(host_threads);
        sim.enable_fastpath();
        self.drive(&mut sim)?;
        Ok(self.collect(&sim))
    }

    /// Reads back and verifies the output of a driven cluster. Public
    /// so external drivers (fault injection) can run a staged cluster
    /// themselves and still get a verified result.
    pub fn collect(&self, sim: &ClusterSim) -> ClusterRunResult {
        ClusterRunResult {
            cycles: sim.clock(),
            output: self
                .bench
                .read_output(|addr, len| sim.mem.read_bytes(addr, len)),
            golden: self.bench.golden(),
            stats: sim.stats.clone(),
            // Harts start from fresh cores, so totals are run deltas.
            per_hart: (0..self.n_harts()).map(|h| sim.hart(h).perf).collect(),
            exit_codes: sim.exit_codes().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_kernels::{KernelIsa, QuantMode};
    use qnn::conv::ConvShape;
    use qnn::BitWidth;

    fn small_cfg(bits: BitWidth) -> ConvKernelConfig {
        let in_c = (32 / bits.bits() as usize) * 2;
        ConvKernelConfig {
            shape: ConvShape {
                in_h: 4,
                in_w: 4,
                in_c,
                out_c: 8,
                k_h: 3,
                k_w: 3,
                stride: 1,
                pad: 1,
            },
            bits,
            out_bits: bits,
            isa: KernelIsa::XpulpNN,
            quant: if bits == BitWidth::W8 {
                QuantMode::Shift8 { shift: 8 }
            } else {
                QuantMode::HardwareQnt
            },
        }
    }

    #[test]
    fn small_w4_layer_matches_golden_on_four_harts() {
        let tb = ClusterConvTestbench::new(small_cfg(BitWidth::W4), 4, 12).unwrap();
        let r = tb.run(1).unwrap();
        assert_eq!(r.exit_codes, vec![0; 4]);
        assert!(r.matches(), "cluster output diverged from golden");
        assert_eq!(r.stats.regions as usize, tb.plan.regions());
        assert!(r.stats.dma_prologue > 0);
        assert!(r.stats.dma_writeback > 0);
    }

    #[test]
    fn work_is_actually_distributed() {
        let tb = ClusterConvTestbench::new(small_cfg(BitWidth::W4), 8, 12).unwrap();
        let r = tb.run(1).unwrap();
        assert!(r.matches());
        // 8 pairs over 8 harts: every hart retires real work.
        for h in 0..8 {
            assert!(
                r.per_hart[h].instret > 50,
                "hart {h} retired only {} instructions",
                r.per_hart[h].instret
            );
        }
    }
}
