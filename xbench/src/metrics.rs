//! The metric catalogue: every name the suite reports, with its unit.
//! `BENCHMARK.json` lists the same names (a test keeps the two equal).

/// A metric name and its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// The workloads, in `--all` order.
pub const WORKLOADS: [&str; 6] = [
    "layer_simd4",
    "layer_vector4",
    "layer_cluster8",
    "net_mobilenet",
    "serve_clean",
    "serve_chaos",
];

/// End-to-end metrics, measured untraced; every workload reports each.
pub const END_TO_END: [Def; 5] = [
    def("sim_cycles", "cycles"),
    def("op_ms_p50", "ms"),
    def("ops_per_s", "1/s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run. A workload whose path does
/// not cross a layer (or cannot observe its counter from outside)
/// reports 0 for it.
pub const PER_LAYER: &[Def] = &[
    def("op_ms_p90", "ms"),
    def("riscv_core.instret", "count"),
    def("riscv_core.ledger.alu", "cycles"),
    def("riscv_core.ledger.load", "cycles"),
    def("riscv_core.ledger.store", "cycles"),
    def("riscv_core.ledger.branch", "cycles"),
    def("riscv_core.ledger.jump", "cycles"),
    def("riscv_core.ledger.hwloop", "cycles"),
    def("riscv_core.ledger.csr", "cycles"),
    def("riscv_core.ledger.qnt", "cycles"),
    def("riscv_core.ledger.simd_alu.h", "cycles"),
    def("riscv_core.ledger.dotp.b", "cycles"),
    def("riscv_core.ledger.dotp.n", "cycles"),
    def("riscv_core.ledger.dotp.c", "cycles"),
    def("riscv_core.ledger.vec_cfg", "cycles"),
    def("riscv_core.ledger.vec_load", "cycles"),
    def("riscv_core.ledger.vec_alu", "cycles"),
    def("riscv_core.ledger.vec_dot", "cycles"),
    def("riscv_core.ledger.vec_qnt", "cycles"),
    def("riscv_core.ledger.misalign_stall", "cycles"),
    def("riscv_core.fast.ns_per_instr", "ns"),
    def("riscv_core.interp.ns_per_instr", "ns"),
    def("riscv_core.fast.translations", "count"),
    def("riscv_core.fast.hit_rate", "ratio"),
    def("riscv_core.fast.interp_fallbacks", "count"),
    def("riscv_core.fast.invalidations", "count"),
    def("pulp_soc.restore_us", "us"),
    def("pulp_soc.checksum_us", "us"),
    def("pulp_kernels.build_ms", "ms"),
    def("pulp_kernels.stage_us", "us"),
    def("pulp_kernels.collect_us", "us"),
    def("pulp_kernels.golden_us", "us"),
    def("pulp_cluster.stage_us", "us"),
    def("pulp_cluster.drive_us", "us"),
    def("pulp_cluster.run_ms_2t", "ms"),
    def("pulp_cluster.thread_speedup", "ratio"),
    def("pulp_cluster.conflicts", "count"),
    def("pulp_cluster.conflict_stall_cycles", "cycles"),
    def("pulp_cluster.barrier_wait_cycles", "cycles"),
    def("pulp_cluster.dma_prologue_cycles", "cycles"),
    def("pulp_cluster.dma_hidden_cycles", "cycles"),
    def("pulp_cluster.dma_exposed_cycles", "cycles"),
    def("pulp_cluster.dma_writeback_cycles", "cycles"),
    def("pulp_cluster.utilization_min", "ratio"),
    def("network.layer1.cycles", "cycles"),
    def("network.layer2.cycles", "cycles"),
    def("network.layer3.cycles", "cycles"),
    def("network.layer4.cycles", "cycles"),
    def("network.layer5.cycles", "cycles"),
    def("network.layer6.cycles", "cycles"),
    def("network.layer1.macs_per_cycle", "MAC/cycle"),
    def("network.layer2.macs_per_cycle", "MAC/cycle"),
    def("network.layer3.macs_per_cycle", "MAC/cycle"),
    def("network.layer5.macs_per_cycle", "MAC/cycle"),
    def("network.layer6.macs_per_cycle", "MAC/cycle"),
    def("network.degraded_layers", "count"),
    def("faultsim.run_armed_us", "us"),
    def("faultsim.injections", "count"),
    def("faultsim.checkpoints", "count"),
    def("serve.ok", "count"),
    def("serve.masked", "count"),
    def("serve.recovered", "count"),
    def("serve.degraded", "count"),
    def("serve.replay.masked", "count"),
    def("serve.replay.recovered", "count"),
    def("serve.replay.degraded", "count"),
    def("serve.cold_forks_per_req", "ratio"),
    def("serve.warm_runs_per_req", "ratio"),
    def("serve.service_us_p50", "us"),
    def("serve.stage_input_us", "us"),
    def("serve.collect_output_us", "us"),
    def("serve.rearm_us", "us"),
    def("serve.queue_depth_p99", "count"),
    def("serve.latency_ms_p99", "ms"),
    def("serve.gen_late_ms_p99", "ms"),
    def("trace.op_ms_p50_untraced", "ms"),
    def("trace.op_ms_p50_traced", "ms"),
    def("trace.overhead_pct", "%"),
];
