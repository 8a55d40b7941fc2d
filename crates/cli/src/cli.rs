//! Command parsing and execution (separated from `main` for testing).

use std::fmt::Write as _;
use xpulpnn::pulp_asm::text::parse;
use xpulpnn::pulp_isa::compressed::code_size_report;
use xpulpnn::pulp_isa::reg::ALL_REGS;
use xpulpnn::pulp_kernels::cluster::MAX_HARTS;
use xpulpnn::pulp_soc::Soc;
use xpulpnn::report::Record;
use xpulpnn::riscv_core::{IsaConfig, Trap};
use xpulpnn::{BitWidth, KernelIsa};

/// Usage text shown on errors.
pub const USAGE: &str = "\
usage:
  xpulpnn run <file.s> [--isa rv32im|xpulpv2|xpulpnn] [--backend simd|vector]
                [--vlen N] [--max-cycles N] [--trace] [--cores N]
      assemble and execute a program on the simulated SoC; --backend
      selects the compute core: simd is the paper's XpulpNN
      packed-SIMD machine (the default ISA), vector swaps in the Xrvv
      sub-byte vector unit (XpulpV2 scalar + vector, no pv.*), --vlen
      bits wide (a power of two in 32..256, default 128); with
      --cores N (2..8) the program runs SPMD on an N-hart cluster
      sharing the banked TCDM (each hart reads its id from mhartid)
  xpulpnn dis <file.s>
      assemble and print the listing with encodings
  xpulpnn codesize <file.s>
      report how much RV32C compression would shrink the program
  xpulpnn sweep [--seed N]
      run the paper's convolution benchmark matrix (Figs. 6/8 data)
  xpulpnn report [--seed N]
      regenerate every table and figure of the paper's evaluation
  xpulpnn profile [--bits 8|4|2] [--isa xpulpv2|xpulpnn] [--sw-quant]
                  [--seed N] [--top N]
      run one paper-layer kernel with the execution tracer attached and
      print a JSON cycle-attribution profile (per-class ledger + hottest
      instructions); defaults to the 4-bit XpulpNN kernel with pv.qnt
  xpulpnn cluster [--cores N] [--bits 8|4|2] [--isa xpulpv2|xpulpnn]
                  [--sw-quant] [--seed N] [--threads N]
      run the paper-layer convolution on an N-hart cluster (banked
      TCDM, event-unit barriers, double-buffered DMA), verify the
      output bit-exactly against the golden model and print cycles,
      speedup over the single-core SoC, the conflict/DMA breakdown and
      per-hart utilization; simulated cycles are independent of
      --threads (host parallelism)
  xpulpnn bench [--json | --host] [--seed N] [--out DIR]
      benchmark the Fig. 8 4-bit layer on the seed single core, the
      8-core cluster and the Xrvv vector backend (VLEN 128); --json
      writes one BENCH_<label>.json artifact
      per configuration (cycles, MACs/cycle, stall/conflict breakdown,
      per-core utilization) instead of printing a table; --host instead
      benchmarks the *simulator* on this machine — the layer runs in
      five interleaved interpreted/fast-path pairs (each pair verified
      bit-exact), and BENCH_host_throughput.json records the median
      simulated cycles/second of both paths, the median speedup with
      its min/max, and the block-cache hit rate
  xpulpnn lint [<file.s>] [--races [--cores N]]
      statically verify a program: CFG + hardware-loop legality,
      dataflow (uninitialized reads, dead stores, reserved-register
      clobbers), abstract interpretation over address arithmetic
      (region containment, SIMD alignment, pv.qnt threshold trees);
      with no file, lints every shipped kernel and every 8-hart
      parallel cluster kernel against the tensor regions its layout
      declares and fails on any diagnostic; --races instead runs the
      SPMD race verifier over the same kernels — per-hart abstract
      execution proves all N harts (default 8) write-disjoint within
      every barrier region (DRF-01..05: write/write overlap, unsynced
      read of a peer write, DMA band overlap, barrier protocol,
      dispatch-slab ownership) and fails on any finding
  xpulpnn conformance [--cases N] [--seed S] [--vector] [--crossval]
                      [--fastpath] [--races]
      differentially fuzz the cycle-approximate core against the
      independent reference interpreter on N random programs; on
      divergence, prints a shrunk repro and the exact replay command;
      --vector mixes the Xrvv vector instructions into the generated
      stream and lock-steps the vector unit too (registers, vl and
      SEW compared before every step, both cores at VLEN 128);
      --fastpath instead lock-steps cached against uncached
      translation (PC, registers and perf counters compared every
      step) over the same corpus, then replays each case through the
      batched run() against the per-op result, shrinking any
      divergence;
      --crossval instead cross-validates the static analyzer: every
      generated program is linted and then executed with a dynamic
      uninit/out-of-bounds oracle (lint-clean programs must run
      trap-free, dynamic oracle hits must be caught statically or
      land in the recorded imprecision counters);
      --races instead cross-validates the static SPMD race verifier
      against the cluster merge's dynamic conflict detector: every
      shipped cluster variant on 1/2/4/8 harts must be clean on both
      sides, and injected races (tampered dispatch table, missing
      barrier, overlapping DMA band) must be caught by both at
      overlapping address ranges
  xpulpnn faults [--seed S] [--trials N] [--replay V:T]
                 [--cluster [--cores N]]
      run a seeded transient-fault campaign over the eight-kernel
      convolution matrix and print per-variant detected/masked/SDC
      rates (AVF); --replay re-runs one trial from its seed, restores
      the pre-fault checkpoint, and lock-steps faulted-vs-clean
      execution to pinpoint the first corrupted architectural state;
      --cluster runs the campaign on an N-hart cluster instead
      (faults strike per-hart register files and the shared TCDM)
  xpulpnn serve [--workers N] [--seed S] [--weight-seed S]
      bring up the inference-serving pool (N snapshot-forked SoC
      workers behind a bounded queue), serve one smoke request per
      kernel variant and print the per-variant template cost plus
      each response's outcome and cycle ledger
  xpulpnn loadgen [--seed S] [--requests N] [--workers N] [--batch N]
                  [--queue N] [--weight-seed S] [--faults SEED]
                  [--gap-us N] [--no-warm] [--out DIR]
      run a seeded open-loop load test against the serving pool:
      a deterministic request stream (mixed variants; --gap-us adds
      Poisson-ish arrival pacing) is served to completion, printing
      outcome counts, the scheduling-independent response digest,
      p50/p99 latency (simulated cycles and host µs) and sustained
      req/s, and writing the BENCH_serving.json artifact to --out;
      --faults arms one seeded transient fault per request (chaos
      mode), --no-warm disables warm same-variant reruns; the digest
      is a pure function of (seed, config) — identical across any
      worker count
  xpulpnn soak [--seed S] [--workers N] [--scale N] [--weight-seed S]
               [--out DIR]
      run the seeded multi-phase resilience campaign through the
      supervisor: overload burst (typed shedding at both watermarks),
      fault storm (deadlines, retry-with-backoff, circuit-breaker
      trips and golden fallback), hang injection (heartbeat reaps +
      re-forks), template corruption (checksum quarantine + rebuild),
      then recovery (half-open probes re-close every breaker);
      asserts zero lost requests and prints the resilience counters
      plus the scheduling-independent digest (identical across any
      worker count), writing BENCH_soak.json to --out; --scale sets
      the per-phase request count (8 phases of work, 8×scale requests)";

/// A user-facing CLI error, classified so the process exit code tells
/// scripts *what kind* of failure occurred.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError {
    /// Message shown to the user.
    pub message: String,
    /// True for usage errors — a malformed flag or argument. `main`
    /// prints the USAGE text for these and exits with code 2; runtime
    /// failures (traps, divergences, lint findings, I/O) exit with 1.
    pub usage: bool,
}

impl CliError {
    /// Process exit code for this error: 2 for usage, 1 for runtime.
    pub fn exit_code(&self) -> u8 {
        if self.usage {
            2
        } else {
            1
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// A usage error: bad flags or arguments (exit code 2, USAGE shown).
fn err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        usage: true,
    }
}

/// A runtime failure: the arguments were fine, the work failed
/// (exit code 1, no USAGE dump burying the actual diagnostic).
fn fail(msg: impl std::fmt::Display) -> CliError {
    CliError {
        message: msg.to_string(),
        usage: false,
    }
}

/// How a flag's value is checked before any command sees it.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// A switch: the flag takes no value.
    Switch,
    /// An unsigned integer in `lo..=hi`.
    Int(u64, u64),
    /// A power of two in `lo..=hi`.
    Pow2(u64, u64),
    /// One of the named choices.
    Choice(&'static [&'static str]),
    /// Any string.
    Text,
}

const ANY: Check = Check::Int(0, u64::MAX);
const BITS: Check = Check::Choice(&["8", "4", "2"]);
const KERNEL_ISA: Check = Check::Choice(&["xpulpv2", "xpulpnn"]);
const WORKERS: Check = Check::Int(1, 16);

impl Check {
    fn accepts(self, v: &str) -> bool {
        match self {
            Check::Switch | Check::Text => true,
            Check::Int(lo, hi) => v.parse().is_ok_and(|n| (lo..=hi).contains(&n)),
            Check::Pow2(lo, hi) => v
                .parse::<u64>()
                .is_ok_and(|n| n.is_power_of_two() && (lo..=hi).contains(&n)),
            Check::Choice(names) => names.contains(&v),
        }
    }

    fn want(self) -> String {
        match self {
            Check::Int(0, u64::MAX) => "an unsigned integer".to_string(),
            Check::Int(lo, u64::MAX) => format!("an integer >= {lo}"),
            Check::Int(lo, hi) => format!("an integer in {lo}..={hi}"),
            Check::Pow2(lo, hi) => format!("a power of two in {lo}..={hi}"),
            Check::Choice(names) => names.join("|"),
            Check::Switch | Check::Text => "a value".to_string(),
        }
    }
}

/// The positional argument's name in a flag table.
const FILE: &str = "<file.s>";

/// One entry of a subcommand's flag table: a `--flag`, or [`FILE`]
/// when the subcommand takes an input file.
#[derive(Debug, Clone, Copy)]
struct Flag {
    name: &'static str,
    check: Check,
    /// Entries that must also be given, each as `--flag`, or as
    /// `--flag value` when that flag must have that value.
    requires: &'static [&'static str],
    /// Entries that must not be given alongside this one.
    excludes: &'static [&'static str],
}

const fn flag(name: &'static str, check: Check) -> Flag {
    Flag {
        name,
        check,
        requires: &[],
        excludes: &[],
    }
}

impl Flag {
    const fn requires(self, requires: &'static [&'static str]) -> Flag {
        Flag { requires, ..self }
    }

    const fn excludes(self, excludes: &'static [&'static str]) -> Flag {
        Flag { excludes, ..self }
    }
}

/// A command line checked against its flag table: `(entry, value)`
/// pairs in command-line order, switches carrying `""`.
struct Args<'a>(Vec<(&'static str, &'a str)>);

/// Walks `args` against `table`. Every malformed command line is a
/// usage error: a missing, malformed or out-of-range value, an argument
/// not in the table, or a requires/excludes conflict.
fn parse_args<'a>(table: &[Flag], args: &'a [String]) -> Result<Args<'a>, CliError> {
    let mut out = Args(Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        // A bare argument is the input file, given at most once.
        let name = Some(a.as_str())
            .filter(|a| a.starts_with("--"))
            .unwrap_or(FILE);
        let f = table
            .iter()
            .find(|f| f.name == name && !(name == FILE && out.has(FILE)))
            .ok_or_else(|| err(format!("unknown argument `{a}`")))?;
        let value = match f.check {
            _ if name == FILE => a.as_str(),
            Check::Switch => "",
            check => {
                let v = it.next().ok_or_else(|| err(format!("{a} needs a value")))?;
                if !check.accepts(v) {
                    return Err(err(format!("bad {a} `{v}` (want {})", check.want())));
                }
                v
            }
        };
        out.0.push((f.name, value));
    }
    for f in table.iter().filter(|f| out.has(f.name)) {
        for req in f.requires {
            let met = match req.split_once(' ') {
                Some((name, want)) => out.get(name) == Some(want),
                None => out.has(req),
            };
            if !met {
                return Err(err(format!("{} requires {req}", f.name)));
            }
        }
        if let Some(x) = f.excludes.iter().find(|x| out.has(x)) {
            return Err(err(format!("{} and {x} are mutually exclusive", f.name)));
        }
    }
    Ok(out)
}

impl<'a> Args<'a> {
    /// The last value given for `name`.
    fn get(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of a numeric flag, converted to the field's type.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| err(format!("bad {name} `{v}`"))))
            .transpose()
    }

    /// The input file, for subcommands that require one.
    fn file(&self) -> Result<&'a str, CliError> {
        self.get(FILE)
            .ok_or_else(|| err(format!("missing input file {FILE}")))
    }
}

/// The paper-layer kernel `--bits`/`--isa`/`--sw-quant` select, with
/// `pv.qnt` dropped where it cannot exist (8-bit or XpulpV2 kernels).
fn paper_kernel(a: &Args) -> (BitWidth, KernelIsa, bool) {
    let bits = match a.get("--bits") {
        Some("8") => BitWidth::W8,
        Some("2") => BitWidth::W2,
        _ => BitWidth::W4,
    };
    let isa = match a.get("--isa") {
        Some("xpulpv2") => KernelIsa::XpulpV2,
        _ => KernelIsa::XpulpNN,
    };
    let hw_quant = !a.has("--sw-quant") && isa == KernelIsa::XpulpNN && bits != BitWidth::W8;
    (bits, isa, hw_quant)
}

/// Parsed options for `run`.
#[derive(Debug, PartialEq, Eq)]
pub struct RunOpts {
    /// Source path.
    pub path: String,
    /// Core configuration.
    pub isa: IsaConfig,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Print each retired instruction.
    pub trace: bool,
    /// Harts to run the program on (1 = the plain single-core SoC).
    pub cores: usize,
    /// Explicit vector-unit width (`--backend vector` only); `None`
    /// leaves the core at its default VLEN.
    pub vlen: Option<u32>,
}

const RUN: &[Flag] = &[
    flag(FILE, Check::Text),
    flag("--isa", Check::Choice(&["rv32im", "xpulpv2", "xpulpnn"])),
    flag("--backend", Check::Choice(&["simd", "vector"])).excludes(&["--isa"]),
    flag("--vlen", Check::Pow2(32, 256)).requires(&["--backend vector"]),
    flag("--max-cycles", ANY),
    flag("--trace", Check::Switch),
    flag("--cores", Check::Int(1, 8)),
];

/// Parses the flags of the `run` subcommand.
pub fn parse_run_opts(args: &[String]) -> Result<RunOpts, CliError> {
    let a = parse_args(RUN, args)?;
    let isa = match (a.get("--isa"), a.get("--backend")) {
        (Some("rv32im"), _) => IsaConfig::rv32im(),
        (Some("xpulpv2"), _) => IsaConfig::xpulpv2(),
        (_, Some("vector")) => IsaConfig::vector(),
        _ => IsaConfig::xpulpnn(),
    };
    let cores = a.num("--cores")?.unwrap_or(1);
    if let Some(f) = ["--trace", "--vlen"]
        .into_iter()
        .find(|f| cores > 1 && a.has(f))
    {
        return Err(err(format!("{f} is single-core only (use --cores 1)")));
    }
    Ok(RunOpts {
        path: a.file()?.to_string(),
        isa,
        max_cycles: a.num("--max-cycles")?.unwrap_or(100_000_000),
        trace: a.has("--trace"),
        cores,
        vlen: a.num("--vlen")?,
    })
}

/// `sweep` and `report`: a tensor seed only.
const SEED: &[Flag] = &[flag("--seed", ANY)];

fn parse_seed(args: &[String]) -> Result<u64, CliError> {
    Ok(parse_args(SEED, args)?.num("--seed")?.unwrap_or(42))
}

/// Writes a `BENCH_*.json` artifact into `dir`, returning the line
/// that reports it.
fn write_artifact(dir: &str, name: &str, json: &str) -> Result<String, CliError> {
    let path = std::path::Path::new(dir).join(name);
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| fail(format!("cannot write `{}`: {e}", path.display())))?;
    Ok(format!("wrote {}\n", path.display()))
}

fn load_program(path: &str) -> Result<xpulpnn::pulp_asm::Program, CliError> {
    let source =
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read `{path}`: {e}")))?;
    parse(&source).map_err(|e| fail(format!("{path}: {e}")))
}

fn cmd_run(args: &[String]) -> Result<String, CliError> {
    let opts = parse_run_opts(args)?;
    let prog = load_program(&opts.path)?;
    if opts.cores > 1 {
        return run_spmd_report(&opts, &prog);
    }
    let mut soc = match opts.vlen {
        Some(v) => Soc::with_vlen(opts.isa, v),
        None => Soc::new(opts.isa),
    };
    soc.load(&prog);
    let mut out = String::new();
    const TRACE_CAP: usize = 5000;
    let before = soc.core.perf;
    let exit = if opts.trace {
        let mut lines = 0usize;
        let mut trace_buf = String::new();
        let exit = soc.core.run_traced(&mut soc.mem, opts.max_cycles, |pc, i| {
            if lines < TRACE_CAP {
                let _ = writeln!(trace_buf, "  {pc:08x}:  {i}");
            }
            lines += 1;
        });
        out.push_str(&trace_buf);
        if lines > TRACE_CAP {
            let _ = writeln!(out, "  ... ({} more instructions)", lines - TRACE_CAP);
        }
        exit
    } else {
        soc.run(opts.max_cycles).map(|r| r.exit)
    };
    let perf = soc.core.perf.delta_since(&before);
    match exit {
        Ok(exit) => {
            let _ = writeln!(out, "exit code : {}", exit.exit_code);
        }
        // Budget exhaustion is a reportable outcome, not an error: show
        // where the program was stuck along with the final state.
        Err(Trap::Watchdog { pc, budget }) => {
            let _ = writeln!(out, "cycle budget ({budget}) exhausted at pc {pc:#010x}");
        }
        Err(t) => return Err(fail(t.to_string())),
    }
    let _ = writeln!(out, "cycles    : {}", perf.cycles);
    let _ = writeln!(out, "instret   : {}", perf.instret);
    let console = soc.console_text();
    if !console.is_empty() {
        let _ = writeln!(out, "console   : {console:?}");
    }
    let _ = writeln!(out, "\nregisters:");
    for chunk in ALL_REGS.chunks(4) {
        let mut line = String::new();
        for r in chunk {
            let _ = write!(line, "  {:>4} = {:#010x}", r.abi_name(), soc.core.reg(*r));
        }
        let _ = writeln!(out, "{line}");
    }
    Ok(out)
}

/// `run --cores N`: the program runs SPMD on an N-hart cluster.
fn run_spmd_report(opts: &RunOpts, prog: &xpulpnn::pulp_asm::Program) -> Result<String, CliError> {
    let r =
        xpulpnn::pulp_cluster::run_spmd(opts.isa, opts.cores, prog, opts.max_cycles, opts.cores)
            .map_err(fail)?;
    let mut out = String::new();
    let _ = writeln!(out, "exit codes: {:?}", r.exit_codes);
    let _ = writeln!(out, "cycles    : {}", r.clock);
    let _ = writeln!(
        out,
        "conflicts : {} ({} stall cycles)",
        r.stats.conflicts, r.stats.conflict_stalls
    );
    for (h, p) in r.per_hart.iter().enumerate() {
        let _ = writeln!(
            out,
            "  hart {h} : instret {:<10} busy {:<10} barrier-wait {}",
            p.instret, r.stats.busy[h], r.stats.barrier_wait[h]
        );
    }
    if !r.console.is_empty() {
        let _ = writeln!(out, "console   : {:?}", r.console);
    }
    Ok(out)
}

/// Parsed options for `cluster`.
#[derive(Debug, PartialEq, Eq)]
pub struct ClusterOpts {
    /// Harts in the cluster.
    pub cores: usize,
    /// Operand width of the paper-layer kernel.
    pub bits: BitWidth,
    /// Kernel ISA.
    pub isa: KernelIsa,
    /// Use `pv.qnt` (sub-byte XpulpNN kernels only).
    pub hw_quant: bool,
    /// Tensor seed.
    pub seed: u64,
    /// Host threads simulating the harts (never affects cycles).
    pub threads: usize,
}

const CLUSTER: &[Flag] = &[
    flag("--cores", Check::Int(1, 8)),
    flag("--bits", BITS),
    flag("--isa", KERNEL_ISA),
    flag("--sw-quant", Check::Switch),
    flag("--seed", ANY),
    flag("--threads", Check::Int(1, u64::MAX)),
];

/// Parses the flags of the `cluster` subcommand.
pub fn parse_cluster_opts(args: &[String]) -> Result<ClusterOpts, CliError> {
    let a = parse_args(CLUSTER, args)?;
    let (bits, isa, hw_quant) = paper_kernel(&a);
    let cores = a.num("--cores")?.unwrap_or(8);
    Ok(ClusterOpts {
        cores,
        bits,
        isa,
        hw_quant,
        seed: a.num("--seed")?.unwrap_or(42),
        threads: a.num("--threads")?.unwrap_or(cores),
    })
}

fn cmd_cluster(args: &[String]) -> Result<String, CliError> {
    let o = parse_cluster_opts(args)?;
    let cfg = xpulpnn::ConvKernelConfig::paper(o.bits, o.isa, o.hw_quant);
    let tb =
        xpulpnn::pulp_cluster::ClusterConvTestbench::new(cfg, o.cores, o.seed).map_err(fail)?;
    let r = tb.run(o.threads).map_err(fail)?;
    if !r.matches() {
        return Err(fail(format!(
            "{}: cluster output diverged from the golden model",
            cfg.name()
        )));
    }
    let single = xpulpnn::measure::measure(cfg, o.seed).map_err(fail)?;
    let mut out = String::new();
    let _ = writeln!(out, "kernel      : {} on {} core(s)", cfg.name(), o.cores);
    let _ = writeln!(out, "output      : matches golden model (bit-exact)");
    let _ = writeln!(
        out,
        "cycles      : {} ({:.2} MACs/cycle)",
        r.cycles,
        r.macs_per_cycle(&cfg)
    );
    let _ = writeln!(
        out,
        "speedup     : {:.2}x over single-core ({} cycles)",
        single.cycles as f64 / r.cycles as f64,
        single.cycles
    );
    let _ = writeln!(
        out,
        "conflicts   : {} ({} stall cycles)",
        r.stats.conflicts, r.stats.conflict_stalls
    );
    let _ = writeln!(
        out,
        "dma         : prologue {} + writeback {} blocking; {} hidden, {} exposed",
        r.stats.dma_prologue, r.stats.dma_writeback, r.stats.dma_hidden, r.stats.dma_exposed
    );
    for h in 0..o.cores {
        let _ = writeln!(
            out,
            "  hart {h}    : busy {:<10} barrier-wait {:<8} utilization {:.1}%",
            r.stats.busy[h],
            r.stats.barrier_wait[h],
            r.utilization(h) * 100.0
        );
    }
    Ok(out)
}

/// Parsed options for `bench`.
#[derive(Debug, PartialEq, Eq)]
pub struct BenchOpts {
    /// Write `BENCH_<label>.json` artifacts instead of a table.
    pub json: bool,
    /// Benchmark the simulator itself (interpreter vs. fast path) and
    /// write `BENCH_host_throughput.json`.
    pub host: bool,
    /// Tensor seed.
    pub seed: u64,
    /// Directory the JSON artifacts land in.
    pub out_dir: String,
}

const BENCH: &[Flag] = &[
    flag("--json", Check::Switch),
    flag("--host", Check::Switch).excludes(&["--json"]),
    flag("--seed", ANY),
    flag("--out", Check::Text),
];

/// Parses the flags of the `bench` subcommand.
pub fn parse_bench_opts(args: &[String]) -> Result<BenchOpts, CliError> {
    let a = parse_args(BENCH, args)?;
    Ok(BenchOpts {
        json: a.has("--json"),
        host: a.has("--host"),
        seed: a.num("--seed")?.unwrap_or(42),
        out_dir: a.get("--out").unwrap_or(".").to_string(),
    })
}

fn cmd_bench(args: &[String]) -> Result<String, CliError> {
    let o = parse_bench_opts(args)?;
    if o.host {
        return cmd_bench_host(&o);
    }
    let records = xpulpnn::bench::paper_bench_suite(o.seed).map_err(fail)?;
    let mut out = String::new();
    if o.json {
        for r in &records {
            let name = format!("BENCH_{}.json", r.label);
            out.push_str(&write_artifact(
                &o.out_dir,
                &name,
                &Record::from(r).to_json(),
            )?);
        }
        return Ok(out);
    }
    for r in &records {
        let _ = writeln!(
            out,
            "{:<12} {} core(s)  {:>9} cycles  {:.2} MACs/cycle",
            r.label,
            r.cores,
            r.cycles,
            r.macs_per_cycle()
        );
        for (name, cycles) in &r.breakdown {
            let _ = writeln!(out, "    {name:<24} {cycles}");
        }
    }
    Ok(out)
}

/// `bench --host`: time the simulator itself on the Fig. 8 layer,
/// interpreted vs. fast path, and write `BENCH_host_throughput.json`.
fn cmd_bench_host(o: &BenchOpts) -> Result<String, CliError> {
    let cfg = xpulpnn::ConvKernelConfig::paper(BitWidth::W4, KernelIsa::XpulpNN, true);
    let r = xpulpnn::bench::host_throughput(cfg, o.seed).map_err(fail)?;
    let json = Record::from(&r).to_json();
    let wrote = write_artifact(&o.out_dir, "BENCH_host_throughput.json", &json)?;
    let mut out = String::new();
    let _ = writeln!(out, "kernel          : {}", r.kernel);
    let _ = writeln!(
        out,
        "simulated       : {} cycles / {} instructions (bit-exact on both paths)",
        r.cycles, r.instret
    );
    let _ = writeln!(
        out,
        "interpreter     : {:.3}s  ({:.2} Mcycles/s)",
        r.interp_secs.median,
        r.interp_cps() / 1e6
    );
    let _ = writeln!(
        out,
        "fast path       : {:.3}s  ({:.2} Mcycles/s)",
        r.fast_secs.median,
        r.fast_cps() / 1e6
    );
    let _ = writeln!(out, "speedup         : {:.2}x", r.speedup.median);
    let _ = writeln!(
        out,
        "block cache     : {:.4} hit rate, {} blocks translated, {} interp fallbacks, {} invalidations",
        r.stats.hit_rate(),
        r.stats.translations,
        r.stats.interp_fallbacks,
        r.stats.invalidations
    );
    out.push_str(&wrote);
    Ok(out)
}

/// `dis` and `codesize`: one input file, no flags.
const FILE_ONLY: &[Flag] = &[flag(FILE, Check::Text)];

fn cmd_dis(args: &[String]) -> Result<String, CliError> {
    let prog = load_program(parse_args(FILE_ONLY, args)?.file()?)?;
    Ok(prog.listing())
}

fn cmd_codesize(args: &[String]) -> Result<String, CliError> {
    let prog = load_program(parse_args(FILE_ONLY, args)?.file()?)?;
    let r = code_size_report(prog.instrs.iter());
    Ok(format!(
        "instructions        : {}\ncompressible (RVC)  : {}\nbytes (32-bit only) : {}\nbytes (with RVC)    : {}\nsavings             : {:.1}%\n",
        r.instructions,
        r.compressible,
        r.bytes_uncompressed,
        r.bytes_compressed,
        r.savings() * 100.0
    ))
}

fn cmd_sweep(args: &[String]) -> Result<String, CliError> {
    let seed = parse_seed(args)?;
    let m = xpulpnn::experiments::collect(seed).map_err(fail)?;
    Ok(format!(
        "{}\n{}",
        xpulpnn::experiments::figure6(&m),
        xpulpnn::experiments::figure8(&m)
    ))
}

fn cmd_report(args: &[String]) -> Result<String, CliError> {
    let seed = parse_seed(args)?;
    let r = xpulpnn::experiments::run_all(seed).map_err(fail)?;
    Ok(format!("{r}\n"))
}

/// Parsed options for `profile`.
#[derive(Debug, PartialEq, Eq)]
pub struct ProfileOpts {
    /// Operand width of the paper-layer kernel.
    pub bits: BitWidth,
    /// Kernel ISA.
    pub isa: KernelIsa,
    /// Use `pv.qnt` (sub-byte XpulpNN kernels only).
    pub hw_quant: bool,
    /// Tensor seed.
    pub seed: u64,
    /// Number of hotspots to report.
    pub top: usize,
}

const PROFILE: &[Flag] = &[
    flag("--bits", BITS),
    flag("--isa", KERNEL_ISA),
    flag("--sw-quant", Check::Switch),
    flag("--seed", ANY),
    flag("--top", ANY),
];

/// Parses the flags of the `profile` subcommand.
pub fn parse_profile_opts(args: &[String]) -> Result<ProfileOpts, CliError> {
    let a = parse_args(PROFILE, args)?;
    let (bits, isa, hw_quant) = paper_kernel(&a);
    Ok(ProfileOpts {
        bits,
        isa,
        hw_quant,
        seed: a.num("--seed")?.unwrap_or(42),
        top: a.num("--top")?.unwrap_or(10),
    })
}

fn cmd_profile(args: &[String]) -> Result<String, CliError> {
    let o = parse_profile_opts(args)?;
    let p = xpulpnn::measure::profile_paper_layer(o.bits, o.isa, o.hw_quant, o.seed, o.top)
        .map_err(fail)?;
    Ok(format!("{}\n", Record::from(&p).to_json()))
}

const LINT: &[Flag] = &[
    flag(FILE, Check::Text),
    flag("--races", Check::Switch).excludes(&[FILE]),
    flag("--cores", Check::Int(1, MAX_HARTS as u64)).requires(&["--races"]),
];

fn cmd_lint(args: &[String]) -> Result<String, CliError> {
    let a = parse_args(LINT, args)?;
    if a.has("--races") {
        return cmd_lint_races(a.num("--cores")?.unwrap_or(8));
    }
    if let Some(p) = a.get(FILE) {
        // Lint one assembly file. No tensor regions are declared, so
        // memory checks report as unproven rather than diagnostics.
        let prog = load_program(p)?;
        let config = xpulpnn::xcheck::LintConfig::kernel(vec![]);
        let report = xpulpnn::xcheck::analyze_program(&prog, &config);
        return if report.clean() {
            Ok(format!("{p}: {}\n", report.summary()))
        } else {
            Err(fail(format!("{p}:\n{}", report.render())))
        };
    }
    // No file: lint every shipped kernel against its declared regions,
    // plus the eight parallel cluster kernels (8-hart split).
    let mut kernels = xpulpnn::lint::shipped_kernels().map_err(fail)?;
    kernels.extend(xpulpnn::lint::cluster_kernels(8).map_err(fail)?);
    let mut out = String::new();
    let mut dirty = 0usize;
    for k in &kernels {
        let r = k.lint();
        if r.clean() {
            let _ = writeln!(out, "{:<28} {}", k.name, r.summary());
        } else {
            dirty += 1;
            let _ = writeln!(out, "{:<28} FAIL\n{}", k.name, r.render());
        }
    }
    if dirty > 0 {
        Err(fail(format!("{out}{dirty} kernel(s) failed lint")))
    } else {
        let _ = writeln!(out, "{} kernels lint-clean", kernels.len());
        Ok(out)
    }
}

/// `lint --races`: prove every shipped kernel data-race-free under the
/// SPMD analyzer — single-core kernels trivially, cluster kernels by
/// per-hart abstract execution over their dispatch/DMA contracts.
fn cmd_lint_races(cores: usize) -> Result<String, CliError> {
    let kernels = xpulpnn::lint::race_kernels(cores).map_err(fail)?;
    let mut out = String::new();
    let mut dirty = 0usize;
    for k in &kernels {
        let r = k.verify();
        if r.race_clean() {
            let _ = writeln!(out, "{:<28} {}", k.name, r.summary());
        } else {
            dirty += 1;
            let _ = writeln!(out, "{:<28} RACY\n{}", k.name, r.render());
        }
    }
    if dirty > 0 {
        Err(fail(format!(
            "{out}{dirty} kernel(s) failed race verification"
        )))
    } else {
        let _ = writeln!(out, "{} kernels race-clean", kernels.len());
        Ok(out)
    }
}

/// Parsed options for `conformance`.
#[derive(Debug, PartialEq, Eq)]
pub struct ConformanceOpts {
    /// Number of random programs to run in lock step.
    pub cases: u64,
    /// Master seed (case `i` runs at seed `S + i`).
    pub seed: u64,
    /// Cross-validate the static analyzer instead of the reference
    /// interpreter: lint each generated program and execute it with a
    /// dynamic uninit/out-of-bounds oracle attached.
    pub crossval: bool,
    /// Lock-step the decoded-block fast path against the interpreter
    /// instead of the reference interpreter.
    pub fastpath: bool,
    /// Cross-validate the static SPMD race verifier against the
    /// cluster merge's dynamic conflict detector instead.
    pub races: bool,
    /// Mix Xrvv vector instructions into the generated stream and
    /// lock-step the vector unit state too.
    pub vector: bool,
}

const CONFORMANCE: &[Flag] = &[
    flag("--cases", ANY),
    flag("--seed", ANY),
    flag("--vector", Check::Switch).excludes(&["--crossval", "--fastpath", "--races"]),
    flag("--crossval", Check::Switch).excludes(&["--fastpath", "--races"]),
    flag("--fastpath", Check::Switch).excludes(&["--races"]),
    flag("--races", Check::Switch),
];

/// Parses the flags of the `conformance` subcommand.
pub fn parse_conformance_opts(args: &[String]) -> Result<ConformanceOpts, CliError> {
    let a = parse_args(CONFORMANCE, args)?;
    Ok(ConformanceOpts {
        cases: a.num("--cases")?.unwrap_or(1000),
        seed: a.num("--seed")?.unwrap_or(1),
        crossval: a.has("--crossval"),
        fastpath: a.has("--fastpath"),
        races: a.has("--races"),
        vector: a.has("--vector"),
    })
}

fn cmd_conformance(args: &[String]) -> Result<String, CliError> {
    use xpulpnn::conformance::{DiffConfig, FastDiffConfig, GenConfig};
    let o = parse_conformance_opts(args)?;
    if o.races {
        let r = xpulpnn::races::run_races(o.seed).map_err(fail)?;
        return if r.passed() {
            Ok(r.render())
        } else {
            Err(fail(r.render()))
        };
    }
    if o.crossval {
        let r = xpulpnn::conformance::run_crossval(o.seed, o.cases, &GenConfig::default());
        return if r.ok() {
            Ok(format!("{r}\n"))
        } else {
            Err(fail(r))
        };
    }
    let (mode, report) = if o.fastpath {
        let cfg = FastDiffConfig::default();
        (
            " --fastpath",
            xpulpnn::conformance::run_fast_suite(o.seed, o.cases, &cfg),
        )
    } else if o.vector {
        let cfg = DiffConfig {
            gen: GenConfig::vector(),
            ..DiffConfig::default()
        };
        (
            " --vector",
            xpulpnn::conformance::run_suite(o.seed, o.cases, &cfg),
        )
    } else {
        let cfg = DiffConfig::default();
        ("", xpulpnn::conformance::run_suite(o.seed, o.cases, &cfg))
    };
    match report.failure {
        None => Ok(format!(
            "conformance{mode}: {} cases, 0 divergences (seed {})\n",
            report.cases_run, o.seed
        )),
        Some(f) => Err(fail(f)),
    }
}

/// Parsed options for `faults`.
#[derive(Debug, PartialEq, Eq)]
pub struct FaultsOpts {
    /// Master campaign seed.
    pub seed: u64,
    /// Trials per kernel variant.
    pub trials: u64,
    /// Replay one trial (`variant:trial`) instead of running a campaign.
    pub replay: Option<(usize, u64)>,
    /// Run the campaign on a multi-core cluster instead of the
    /// single-core SoC.
    pub cluster: bool,
    /// Harts in the cluster campaign (with `--cluster`).
    pub cores: usize,
}

const FAULTS: &[Flag] = &[
    flag("--seed", ANY),
    flag("--trials", ANY),
    flag("--replay", Check::Text),
    flag("--cluster", Check::Switch).excludes(&["--replay"]),
    flag("--cores", Check::Int(1, 8)).requires(&["--cluster"]),
];

/// Parses the flags of the `faults` subcommand.
pub fn parse_faults_opts(args: &[String]) -> Result<FaultsOpts, CliError> {
    let a = parse_args(FAULTS, args)?;
    let replay = a
        .get("--replay")
        .map(|spec| {
            spec.split_once(':')
                .and_then(|(v, t)| Some((v.parse().ok()?, t.parse().ok()?)))
                .ok_or_else(|| err(format!("bad --replay `{spec}` (want variant:trial)")))
        })
        .transpose()?;
    Ok(FaultsOpts {
        seed: a.num("--seed")?.unwrap_or(42),
        trials: a.num("--trials")?.unwrap_or(25),
        replay,
        cluster: a.has("--cluster"),
        cores: a.num("--cores")?.unwrap_or(8),
    })
}

fn cmd_faults(args: &[String]) -> Result<String, CliError> {
    let o = parse_faults_opts(args)?;
    if o.cluster {
        let r = xpulpnn::faultsim::run_cluster_campaign(o.seed, o.trials, o.cores).map_err(fail)?;
        return Ok(format!("{r}"));
    }
    match o.replay {
        Some((variant, trial)) => {
            let r = xpulpnn::faultsim::replay(o.seed, variant, trial).map_err(fail)?;
            Ok(format!("{r}"))
        }
        None => {
            let r = xpulpnn::faultsim::run_campaign(o.seed, o.trials).map_err(fail)?;
            Ok(format!("{r}"))
        }
    }
}

/// Parsed options for `serve`.
#[derive(Debug, PartialEq, Eq)]
pub struct ServeOpts {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Seed for the smoke-request inputs.
    pub seed: u64,
    /// Template weight seed.
    pub weight_seed: u64,
}

const SERVE: &[Flag] = &[
    flag("--workers", WORKERS),
    flag("--seed", ANY),
    flag("--weight-seed", ANY),
];

/// Parses the flags of the `serve` subcommand.
pub fn parse_serve_opts(args: &[String]) -> Result<ServeOpts, CliError> {
    let a = parse_args(SERVE, args)?;
    Ok(ServeOpts {
        workers: a.num("--workers")?.unwrap_or(2),
        seed: a.num("--seed")?.unwrap_or(1),
        weight_seed: a.num("--weight-seed")?.unwrap_or(42),
    })
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    use xpulpnn::serve::{PoolConfig, Request, ServePool, Variant};
    let o = parse_serve_opts(args)?;
    let pool = ServePool::start(PoolConfig {
        workers: o.workers,
        weight_seed: o.weight_seed,
        ..PoolConfig::default()
    })
    .map_err(fail)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pool   : {} worker(s), each forked from the 4 staged templates",
        o.workers
    );
    for (id, &variant) in Variant::ALL.iter().enumerate() {
        let t = pool.template(variant);
        let _ = writeln!(
            out,
            "template {:<7} {:>5} -> {:>4} i16  {:>9} clean cycles",
            variant.name(),
            t.input_len(),
            t.output_len(),
            t.clean_cycles()
        );
        // A deterministic, range-valid smoke input per variant.
        let span = u64::from(t.max_activation() as u16) + 1;
        let input = (0..t.input_len() as u64)
            .map(|i| ((o.seed.wrapping_add(i * 7)) % span) as i16)
            .collect();
        pool.submit_blocking(Request {
            id: id as u64,
            variant,
            input,
        })
        .map_err(fail)?;
    }
    let report = pool.shutdown();
    for r in &report.responses {
        let _ = writeln!(
            out,
            "served   {:<7} {:>9} cycles  {} ({})",
            r.variant.name(),
            r.cycles,
            r.outcome.label(),
            if r.warm { "warm" } else { "cold fork" }
        );
    }
    let _ = writeln!(
        out,
        "served {} request(s): {} ok, {} cold fork(s), {} warm run(s)",
        report.stats.served, report.stats.ok, report.stats.cold_forks, report.stats.warm_runs
    );
    Ok(out)
}

/// Parsed options for `loadgen`.
#[derive(Debug, PartialEq, Eq)]
pub struct LoadgenOpts {
    /// The serving-layer loadgen configuration.
    pub cfg: xpulpnn::serve::LoadgenConfig,
    /// Directory receiving `BENCH_serving.json`.
    pub out_dir: String,
}

const LOADGEN: &[Flag] = &[
    flag("--seed", ANY),
    flag("--requests", ANY),
    flag("--workers", WORKERS),
    flag("--batch", Check::Int(1, u64::MAX)),
    flag("--queue", Check::Int(1, u64::MAX)),
    flag("--weight-seed", ANY),
    flag("--faults", ANY),
    flag("--gap-us", ANY),
    flag("--no-warm", Check::Switch),
    flag("--out", Check::Text),
];

/// Parses the flags of the `loadgen` subcommand.
pub fn parse_loadgen_opts(args: &[String]) -> Result<LoadgenOpts, CliError> {
    let a = parse_args(LOADGEN, args)?;
    let d = xpulpnn::serve::LoadgenConfig::default();
    let cfg = xpulpnn::serve::LoadgenConfig {
        seed: a.num("--seed")?.unwrap_or(d.seed),
        requests: a.num("--requests")?.unwrap_or(d.requests),
        workers: a.num("--workers")?.unwrap_or(d.workers),
        batch_max: a.num("--batch")?.unwrap_or(d.batch_max),
        queue_capacity: a.num("--queue")?.unwrap_or(d.queue_capacity),
        weight_seed: a.num("--weight-seed")?.unwrap_or(d.weight_seed),
        faults: a
            .num("--faults")?
            .map(xpulpnn::serve::ServeFaults::always)
            .or(d.faults),
        mean_gap_us: a.num("--gap-us")?.unwrap_or(d.mean_gap_us),
        warm_reruns: d.warm_reruns && !a.has("--no-warm"),
    };
    Ok(LoadgenOpts {
        cfg,
        out_dir: a.get("--out").unwrap_or(".").to_string(),
    })
}

fn cmd_loadgen(args: &[String]) -> Result<String, CliError> {
    let o = parse_loadgen_opts(args)?;
    let r = xpulpnn::serve::run_loadgen(o.cfg).map_err(fail)?;
    let wrote = write_artifact(
        &o.out_dir,
        "BENCH_serving.json",
        &Record::from(&r).to_json(),
    )?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "responses : {} ({} ok, {} masked, {} recovered, {} degraded)",
        r.responses.len(),
        r.count("ok"),
        r.count("masked"),
        r.count("recovered"),
        r.count("degraded")
    );
    let _ = writeln!(out, "digest    : {:016x}", r.digest);
    let _ = writeln!(
        out,
        "sim cycles: p50 {}  p99 {}  max {}",
        r.sim_cycles.p50, r.sim_cycles.p99, r.sim_cycles.max
    );
    let _ = writeln!(
        out,
        "host us   : p50 {}  p99 {}  max {}",
        r.host_us.p50, r.host_us.p99, r.host_us.max
    );
    let _ = writeln!(
        out,
        "throughput: {:.1} req/s sustained over {:.3}s ({} cold forks, {} warm runs)",
        r.req_per_sec, r.wall_secs, r.stats.cold_forks, r.stats.warm_runs
    );
    out.push_str(&wrote);
    Ok(out)
}

/// Parsed options for `soak`.
#[derive(Debug, PartialEq, Eq)]
pub struct SoakOpts {
    /// The resilience-campaign configuration.
    pub cfg: xpulpnn::serve::SoakConfig,
    /// Directory receiving `BENCH_soak.json`.
    pub out_dir: String,
}

const SOAK: &[Flag] = &[
    flag("--seed", ANY),
    flag("--workers", WORKERS),
    flag("--scale", Check::Int(1, u64::MAX)),
    flag("--weight-seed", ANY),
    flag("--out", Check::Text),
];

/// Parses the flags of the `soak` subcommand.
pub fn parse_soak_opts(args: &[String]) -> Result<SoakOpts, CliError> {
    let a = parse_args(SOAK, args)?;
    let d = xpulpnn::serve::SoakConfig::default();
    let cfg = xpulpnn::serve::SoakConfig {
        seed: a.num("--seed")?.unwrap_or(d.seed),
        workers: a.num("--workers")?.unwrap_or(d.workers),
        scale: a.num("--scale")?.unwrap_or(d.scale),
        weight_seed: a.num("--weight-seed")?.unwrap_or(d.weight_seed),
    };
    Ok(SoakOpts {
        cfg,
        out_dir: a.get("--out").unwrap_or(".").to_string(),
    })
}

fn cmd_soak(args: &[String]) -> Result<String, CliError> {
    let o = parse_soak_opts(args)?;
    let r = xpulpnn::serve::run_soak(o.cfg).map_err(fail)?;
    // The campaign's own invariants gate the artifact: a lost request
    // or a stuck breaker is a runtime failure, not a report detail.
    let lost = r.lost_ids();
    if !lost.is_empty() {
        return Err(fail(format!(
            "soak lost {} request(s): first missing id {}",
            lost.len(),
            lost[0]
        )));
    }
    if !r.breakers_closed {
        return Err(fail("soak ended with an open circuit breaker"));
    }
    let wrote = write_artifact(&o.out_dir, "BENCH_soak.json", &Record::from(&r).to_json())?;
    let c = &r.counters;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "responses : {} ({} requests, zero lost, every outcome typed)",
        r.responses.len(),
        c.requests
    );
    let _ = writeln!(
        out,
        "shed      : {} queue-full, {} deadline-pressure",
        c.shed_queue_full, c.shed_pressure
    );
    let _ = writeln!(
        out,
        "deadlines : {} retried, {} timed out",
        c.retried, c.timed_out
    );
    let _ = writeln!(
        out,
        "breakers  : {} trip(s), {} re-close(s), {} golden fallback(s)",
        c.breaker_trips, c.breaker_closes, c.fallback_served
    );
    let _ = writeln!(
        out,
        "workers   : {} reap(s), {} template quarantine(s)",
        r.pool_stats.reaps, r.pool_stats.quarantines
    );
    for p in &r.phases {
        let _ = writeln!(
            out,
            "phase     : {:<19} {:>3} req  {} shed  {} retried  {} timed-out  {} trip(s)  {} fallback",
            p.phase.name(),
            p.requests,
            p.shed,
            p.retried,
            p.timed_out,
            p.breaker_trips,
            p.fallback_served
        );
    }
    let _ = writeln!(out, "digest    : {:016x}", r.digest);
    let _ = writeln!(out, "wall      : {:.3}s", r.wall_secs);
    out.push_str(&wrote);
    Ok(out)
}

/// Dispatches a full argument vector.
///
/// # Errors
///
/// [`CliError`] with a message for the user.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| err("missing subcommand"))?;
    match cmd.as_str() {
        "run" => cmd_run(rest),
        "cluster" => cmd_cluster(rest),
        "bench" => cmd_bench(rest),
        "dis" => cmd_dis(rest),
        "codesize" => cmd_codesize(rest),
        "sweep" => cmd_sweep(rest),
        "report" => cmd_report(rest),
        "profile" => cmd_profile(rest),
        "lint" => cmd_lint(rest),
        "conformance" => cmd_conformance(rest),
        "faults" => cmd_faults(rest),
        "serve" => cmd_serve(rest),
        "loadgen" => cmd_loadgen(rest),
        "soak" => cmd_soak(rest),
        "--help" | "-h" | "help" => Ok(format!("{USAGE}\n")),
        other => Err(err(format!("unknown subcommand `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn run_opts_defaults_and_flags() {
        let o = parse_run_opts(&v(&["prog.s"])).unwrap();
        assert_eq!(o.path, "prog.s");
        assert_eq!(o.isa, IsaConfig::xpulpnn());
        assert_eq!(o.max_cycles, 100_000_000);

        let o = parse_run_opts(&v(&["--isa", "xpulpv2", "p.s", "--max-cycles", "5"])).unwrap();
        assert_eq!(o.isa, IsaConfig::xpulpv2());
        assert_eq!(o.max_cycles, 5);
        assert_eq!(o.path, "p.s");
        assert_eq!(o.cores, 1);

        let o = parse_run_opts(&v(&["p.s", "--cores", "4"])).unwrap();
        assert_eq!(o.cores, 4);
    }

    #[test]
    fn run_opts_errors() {
        assert!(parse_run_opts(&v(&[])).is_err());
        assert!(parse_run_opts(&v(&["a.s", "b.s"])).is_err());
        assert!(parse_run_opts(&v(&["a.s", "--isa", "armv7"])).is_err());
        assert!(parse_run_opts(&v(&["a.s", "--max-cycles", "lots"])).is_err());
        assert!(parse_run_opts(&v(&["a.s", "--bogus"])).is_err());
        assert!(parse_run_opts(&v(&["a.s", "--cores", "9"])).is_err());
        assert!(parse_run_opts(&v(&["a.s", "--cores", "0"])).is_err());
        // Tracing interleaves harts unreadably; reject the combination.
        assert!(parse_run_opts(&v(&["a.s", "--cores", "2", "--trace"])).is_err());
    }

    #[test]
    fn conformance_opts_defaults_and_flags() {
        let o = parse_conformance_opts(&[]).unwrap();
        assert_eq!(
            o,
            ConformanceOpts {
                cases: 1000,
                seed: 1,
                crossval: false,
                fastpath: false,
                races: false,
                vector: false,
            }
        );

        let o =
            parse_conformance_opts(&v(&["--cases", "25", "--seed", "7", "--crossval"])).unwrap();
        assert_eq!(
            o,
            ConformanceOpts {
                cases: 25,
                seed: 7,
                crossval: true,
                fastpath: false,
                races: false,
                vector: false,
            }
        );

        let o = parse_conformance_opts(&v(&["--vector", "--cases", "12"])).unwrap();
        assert!(o.vector);
        assert_eq!(o.cases, 12);

        let o = parse_conformance_opts(&v(&["--fastpath", "--cases", "5"])).unwrap();
        assert!(o.fastpath);
        assert_eq!(o.cases, 5);

        let o = parse_conformance_opts(&v(&["--races", "--seed", "9"])).unwrap();
        assert!(o.races);
        assert_eq!(o.seed, 9);

        assert!(parse_conformance_opts(&v(&["--cases"])).is_err());
        assert!(parse_conformance_opts(&v(&["--cases", "many"])).is_err());
        assert!(parse_conformance_opts(&v(&["--bogus"])).is_err());
        assert!(parse_conformance_opts(&v(&["--crossval", "--fastpath"])).is_err());
        assert!(parse_conformance_opts(&v(&["--crossval", "--races"])).is_err());
        assert!(parse_conformance_opts(&v(&["--fastpath", "--races"])).is_err());
    }

    #[test]
    fn conformance_fastpath_smoke_reports_clean() {
        let out = dispatch(&v(&[
            "conformance",
            "--fastpath",
            "--cases",
            "20",
            "--seed",
            "1",
        ]))
        .unwrap();
        assert!(
            out.contains("--fastpath: 20 cases, 0 divergences (seed 1)"),
            "{out}"
        );
    }

    #[test]
    fn conformance_smoke_reports_clean() {
        let out = dispatch(&v(&["conformance", "--cases", "20", "--seed", "1"])).unwrap();
        assert!(out.contains("20 cases, 0 divergences (seed 1)"), "{out}");
    }

    #[test]
    fn conformance_crossval_smoke() {
        let out = dispatch(&v(&[
            "conformance",
            "--crossval",
            "--cases",
            "15",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("15 cases"), "{out}");
        assert!(out.contains("0 clean-but-trapped"), "{out}");
        assert!(out.contains("0 missed statically"), "{out}");
    }

    #[test]
    fn conformance_races_smoke() {
        let out = dispatch(&v(&["conformance", "--races", "--seed", "42"])).unwrap();
        assert!(out.contains("32/32 clean configs agree"), "{out}");
        assert!(
            out.contains("3/3 injected races caught by both detectors"),
            "{out}"
        );
    }

    #[test]
    fn serve_and_loadgen_opts_defaults_and_flags() {
        let o = parse_serve_opts(&[]).unwrap();
        assert_eq!(
            o,
            ServeOpts {
                workers: 2,
                seed: 1,
                weight_seed: 42,
            }
        );
        let o = parse_serve_opts(&v(&["--workers", "8", "--seed", "7"])).unwrap();
        assert_eq!((o.workers, o.seed), (8, 7));

        let o = parse_loadgen_opts(&[]).unwrap();
        assert_eq!(o.cfg, xpulpnn::serve::LoadgenConfig::default());
        assert_eq!(o.out_dir, ".");
        let o = parse_loadgen_opts(&v(&[
            "--seed",
            "9",
            "--requests",
            "500",
            "--workers",
            "8",
            "--batch",
            "4",
            "--queue",
            "32",
            "--faults",
            "13",
            "--gap-us",
            "50",
            "--no-warm",
            "--out",
            "/tmp",
        ]))
        .unwrap();
        assert_eq!(o.cfg.seed, 9);
        assert_eq!(o.cfg.requests, 500);
        assert_eq!(o.cfg.workers, 8);
        assert_eq!(o.cfg.batch_max, 4);
        assert_eq!(o.cfg.queue_capacity, 32);
        assert_eq!(o.cfg.faults, Some(xpulpnn::serve::ServeFaults::always(13)));
        assert_eq!(o.cfg.mean_gap_us, 50);
        assert!(!o.cfg.warm_reruns);
        assert_eq!(o.out_dir, "/tmp");

        let o = parse_soak_opts(&[]).unwrap();
        assert_eq!(o.cfg, xpulpnn::serve::SoakConfig::default());
        assert_eq!(o.out_dir, ".");
        let o = parse_soak_opts(&v(&[
            "--seed",
            "3",
            "--workers",
            "4",
            "--scale",
            "8",
            "--weight-seed",
            "11",
            "--out",
            "/tmp",
        ]))
        .unwrap();
        assert_eq!(o.cfg.seed, 3);
        assert_eq!(o.cfg.workers, 4);
        assert_eq!(o.cfg.scale, 8);
        assert_eq!(o.cfg.weight_seed, 11);
        assert_eq!(o.out_dir, "/tmp");

        assert!(parse_serve_opts(&v(&["--bogus"])).is_err());
        assert!(parse_loadgen_opts(&v(&["--bogus"])).is_err());
        assert!(parse_soak_opts(&v(&["--bogus"])).is_err());
    }

    /// End-to-end `loadgen` smoke: a tiny seeded run prints the exact
    /// summary lines ci.sh greps for and writes BENCH_serving.json.
    #[test]
    fn loadgen_end_to_end_writes_artifact() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-loadgen-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dispatch(&v(&[
            "loadgen",
            "--seed",
            "1",
            "--requests",
            "6",
            "--workers",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            out.contains("responses : 6 (6 ok, 0 masked, 0 recovered, 0 degraded)"),
            "{out}"
        );
        assert!(out.contains("digest    : "), "{out}");
        assert!(out.contains("sim cycles: p50 "), "{out}");
        assert!(out.contains("wrote "), "{out}");
        let json = std::fs::read_to_string(dir.join("BENCH_serving.json")).unwrap();
        assert!(json.contains("\"label\": \"serving\""), "{json}");
        assert!(json.contains("\"requests\": 6"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end `soak` smoke at the smallest scale: all five phases
    /// run, the invariant gates pass, and BENCH_soak.json lands with
    /// the resilience counters ci.sh pins.
    #[test]
    fn soak_end_to_end_writes_artifact() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-soak-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dispatch(&v(&[
            "soak",
            "--seed",
            "1",
            "--workers",
            "2",
            "--scale",
            "4",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("responses : 32 (32 requests"), "{out}");
        assert!(out.contains("digest    : "), "{out}");
        assert!(out.contains("phase     : overload"), "{out}");
        assert!(out.contains("phase     : recovery"), "{out}");
        assert!(out.contains("wrote "), "{out}");
        let json = std::fs::read_to_string(dir.join("BENCH_soak.json")).unwrap();
        assert!(json.contains("\"label\": \"soak\""), "{json}");
        assert!(json.contains("\"breakers_closed\": true"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dispatch_rejects_unknown() {
        assert!(dispatch(&v(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&v(&["--help"])).unwrap().contains("usage"));
    }

    /// Satellite of the fast-path PR: a malformed numeric argument on
    /// *any* subcommand is a typed usage error (exit code 2), never a
    /// panic and never a runtime failure. Exercised through `dispatch`
    /// so the per-subcommand wiring is covered, not just the parsers.
    #[test]
    fn malformed_numeric_args_are_usage_errors_on_every_subcommand() {
        let cases: &[&[&str]] = &[
            &["run", "a.s", "--max-cycles", "lots"],
            &["run", "a.s", "--max-cycles", "-3"],
            &["run", "a.s", "--cores", "nine"],
            &["run", "a.s", "--cores", "9"],
            &["run", "a.s", "--cores", "0"],
            &["run", "a.s", "--backend", "avx"],
            &["run", "a.s", "--backend", "vector", "--isa", "xpulpnn"],
            &["run", "a.s", "--vlen", "96"],
            &["run", "a.s", "--vlen", "512"],
            &["run", "a.s", "--vlen", "lots"],
            &["run", "a.s", "--vlen", "128"], // --vlen without --backend vector
            &[
                "run",
                "a.s",
                "--backend",
                "vector",
                "--vlen",
                "128",
                "--cores",
                "2",
            ],
            &["sweep", "--seed", "0x2a"],
            &["report", "--seed", ""],
            &["profile", "--seed", "4.2"],
            &["profile", "--top", "ten"],
            &["cluster", "--cores", "-1"],
            &["cluster", "--threads", "0"],
            &["cluster", "--seed", "seed"],
            &["bench", "--seed", "1e6"],
            &["bench", "--json", "--host"],
            &["conformance", "--cases", "many"],
            &["conformance", "--cases", "-5"],
            &["conformance", "--seed", "later"],
            &["conformance", "--fastpath", "--cases", "many"],
            &["conformance", "--vector", "--crossval"],
            &["conformance", "--vector", "--races"],
            &["faults", "--trials", "many"],
            &["faults", "--seed", "√2"],
            &["faults", "--cores", "8.0"],
            &["serve", "--workers", "lots"],
            &["serve", "--workers", "0"],
            &["serve", "--seed", "-1"],
            &["loadgen", "--requests", "many"],
            &["loadgen", "--workers", "0"],
            &["loadgen", "--workers", "17"],
            &["loadgen", "--batch", "0"],
            &["loadgen", "--queue", "0"],
            &["loadgen", "--faults", "maybe"],
            &["loadgen", "--gap-us", "1ms"],
            &["soak", "--seed", "one"],
            &["soak", "--workers", "0"],
            &["soak", "--workers", "17"],
            &["soak", "--scale", "0"],
            &["soak", "--scale", "lots"],
            &["soak", "--weight-seed", "-1"],
            // A flag the subcommand does not declare.
            &["run", "a.s", "--bogus"],
            &["dis", "a.s", "--bogus"],
            &["dis", "--bogus"],
            &["codesize", "a.s", "--bogus"],
            &["codesize", "a.s", "extra"],
            &["sweep", "--bogus"],
            &["report", "--bogus"],
            &["profile", "--bogus"],
            &["cluster", "--bogus"],
            &["bench", "--bogus"],
            &["lint", "--bogus"],
            &["conformance", "--bogus"],
            &["faults", "--bogus"],
            &["serve", "--bogus"],
            &["loadgen", "--bogus"],
            &["soak", "--bogus"],
            // A dependent flag without the flag it depends on.
            &["faults", "--cores", "4"],
            &["lint", "--cores", "4", "a.s"],
        ];
        for args in cases {
            let e = dispatch(&v(args)).expect_err(&format!("{args:?} must be rejected"));
            assert!(e.usage, "{args:?} must be a usage error, got: {e}");
            assert_eq!(e.exit_code(), 2, "{args:?}");
        }
        // Missing values behave the same as malformed ones.
        for args in [
            &["run", "a.s", "--max-cycles"][..],
            &["run", "a.s", "--backend"][..],
            &["run", "a.s", "--vlen"][..],
            &["conformance", "--cases"][..],
            &["faults", "--trials"][..],
            &["cluster", "--cores"][..],
            &["loadgen", "--requests"][..],
            &["serve", "--workers"][..],
            &["soak", "--scale"][..],
        ] {
            let e = dispatch(&v(args)).unwrap_err();
            assert!(e.usage, "{args:?}: {e}");
        }
    }

    /// Every flag a subcommand's table declares appears in that
    /// subcommand's USAGE synopsis, and every `--flag` the synopsis
    /// names is in the table.
    #[test]
    fn usage_synopsis_matches_flag_tables() {
        use std::collections::BTreeSet;
        let tables: &[(&str, &[Flag])] = &[
            ("run", RUN),
            ("dis", FILE_ONLY),
            ("codesize", FILE_ONLY),
            ("sweep", SEED),
            ("report", SEED),
            ("profile", PROFILE),
            ("cluster", CLUSTER),
            ("bench", BENCH),
            ("lint", LINT),
            ("conformance", CONFORMANCE),
            ("faults", FAULTS),
            ("serve", SERVE),
            ("loadgen", LOADGEN),
            ("soak", SOAK),
        ];
        for &(cmd, table) in tables {
            // The synopsis is the `xpulpnn <cmd>` line plus its
            // continuation lines, which start with `[`.
            let mut lines = USAGE
                .lines()
                .skip_while(|l| !l.split_whitespace().take(2).eq(["xpulpnn", cmd]));
            let first = lines.next().expect("subcommand in USAGE");
            let synopsis: String = std::iter::once(first)
                .chain(lines.take_while(|l| l.trim_start().starts_with('[')))
                .collect();
            let mut named: BTreeSet<&str> = synopsis
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--"))
                .collect();
            if synopsis.contains(FILE) {
                named.insert(FILE);
            }
            let declared: BTreeSet<&str> = table.iter().map(|f| f.name).collect();
            assert_eq!(named, declared, "`{cmd}`: USAGE synopsis vs flag table");
        }
    }

    /// Runtime failures keep exit code 1 — scripts can tell "you called
    /// it wrong" (2) from "it ran and found a problem" (1).
    #[test]
    fn runtime_failures_are_not_usage_errors() {
        let e = dispatch(&v(&["run", "/nonexistent/prog.s"])).unwrap_err();
        assert!(!e.usage, "{e}");
        assert_eq!(e.exit_code(), 1);
        let e = dispatch(&v(&["dis", "/nonexistent/prog.s"])).unwrap_err();
        assert!(!e.usage, "{e}");
        // But a missing *argument* is a usage error.
        let e = dispatch(&v(&["dis"])).unwrap_err();
        assert!(e.usage, "{e}");
    }

    #[test]
    fn end_to_end_run_and_dis_and_codesize() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prog.s");
        std::fs::write(
            &path,
            "li a0, 6\nslli a0, a0, 3\nli t0, 4\nlp.setup x0, t0, end\naddi a1, a1, 1\nend:\necall\n",
        )
        .unwrap();
        let p = path.to_str().unwrap().to_string();

        let out = dispatch(&v(&["run", &p])).unwrap();
        assert!(out.contains("exit code : 48"), "{out}");
        assert!(out.contains("a1 = 0x00000004"), "{out}");

        let out = dispatch(&v(&["dis", &p])).unwrap();
        assert!(out.contains("lp.setup"), "{out}");

        let out = dispatch(&v(&["codesize", &p])).unwrap();
        assert!(out.contains("compressible"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_trace_prints_retired_instructions() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.s");
        std::fs::write(
            &path,
            "li t0, 2\nlp.setup x0, t0, end\naddi a0, a0, 7\nend:\necall\n",
        )
        .unwrap();
        let p = path.to_str().unwrap().to_string();
        let out = dispatch(&v(&["run", &p, "--trace"])).unwrap();
        // The single-instruction loop body retires twice.
        assert_eq!(out.matches("addi a0, a0, 7").count(), 2, "{out}");
        assert!(out.contains("exit code : 14"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_opts_defaults_and_flags() {
        let o = parse_profile_opts(&v(&[])).unwrap();
        assert_eq!(o.bits, BitWidth::W4);
        assert_eq!(o.isa, KernelIsa::XpulpNN);
        assert!(o.hw_quant);
        assert_eq!(o.top, 10);

        let o = parse_profile_opts(&v(&["--bits", "2", "--sw-quant", "--top", "3"])).unwrap();
        assert_eq!(o.bits, BitWidth::W2);
        assert!(!o.hw_quant);
        assert_eq!(o.top, 3);

        // pv.qnt silently drops where it cannot exist.
        let o = parse_profile_opts(&v(&["--isa", "xpulpv2"])).unwrap();
        assert!(!o.hw_quant);
        let o = parse_profile_opts(&v(&["--bits", "8"])).unwrap();
        assert!(!o.hw_quant);

        assert!(parse_profile_opts(&v(&["--bits", "3"])).is_err());
        assert!(parse_profile_opts(&v(&["--frob"])).is_err());
    }

    #[test]
    fn profile_emits_balanced_json() {
        let out = dispatch(&v(&["profile", "--top", "5"])).unwrap();
        assert!(
            out.contains("\"kernel\": \"4-bit/xpulpnn/pv.qnt\""),
            "{out}"
        );
        assert!(out.contains("\"ledger\""), "{out}");
        assert!(out.contains("\"hotspots\""), "{out}");
        // The ledger's total equals the Fig. 8 layer's pinned cycle count.
        assert!(out.contains("\"cycles\": 1440804,"), "{out}");
        assert!(out.contains("\"total\": 1440804\n"), "{out}");
        // The 4-bit XpulpNN kernel's hottest class is the dotp unit.
        assert!(out.contains("\"dotp.n\""), "{out}");
    }

    #[test]
    fn faults_opts_defaults_and_flags() {
        let o = parse_faults_opts(&[]).unwrap();
        assert_eq!(
            o,
            FaultsOpts {
                seed: 42,
                trials: 25,
                replay: None,
                cluster: false,
                cores: 8,
            }
        );

        let o = parse_faults_opts(&v(&["--cluster", "--cores", "2"])).unwrap();
        assert!(o.cluster);
        assert_eq!(o.cores, 2);
        // Replay lock-steps a single core; it has no cluster form.
        assert!(parse_faults_opts(&v(&["--cluster", "--replay", "0:0"])).is_err());

        let o =
            parse_faults_opts(&v(&["--seed", "7", "--trials", "3", "--replay", "4:12"])).unwrap();
        assert_eq!(o.seed, 7);
        assert_eq!(o.trials, 3);
        assert_eq!(o.replay, Some((4, 12)));

        assert!(parse_faults_opts(&v(&["--replay"])).is_err());
        assert!(parse_faults_opts(&v(&["--replay", "4"])).is_err());
        assert!(parse_faults_opts(&v(&["--replay", "a:b"])).is_err());
        assert!(parse_faults_opts(&v(&["--trials", "many"])).is_err());
        assert!(parse_faults_opts(&v(&["--bogus"])).is_err());
    }

    #[test]
    fn faults_campaign_and_replay_smoke() {
        let out = dispatch(&v(&["faults", "--seed", "1", "--trials", "2"])).unwrap();
        assert!(out.contains("totals: detected="), "{out}");
        assert!(out.contains("8-bit"), "{out}");
        // Replay trial 0 of variant 0 under the same seed.
        let out = dispatch(&v(&["faults", "--seed", "1", "--replay", "0:0"])).unwrap();
        assert!(out.contains("class:"), "{out}");
        assert!(out.contains("checkpoint: cycle"), "{out}");
        // Unknown variants surface as CLI errors, not panics.
        assert!(dispatch(&v(&["faults", "--replay", "99:0"])).is_err());
    }

    #[test]
    fn lint_all_shipped_kernels_is_clean() {
        let out = dispatch(&v(&["lint"])).unwrap();
        // 20 single-core kernels (including the five vector-backend
        // conv variants) + the 8 parallel cluster variants.
        assert!(out.contains("28 kernels lint-clean"), "{out}");
        assert!(out.contains("conv/4-bit/xpulpnn/pv.qnt"), "{out}");
        assert!(out.contains("conv/4-bit/vector128/pv.qnt"), "{out}");
        assert!(out.contains("cluster-conv/"), "{out}");
    }

    #[test]
    fn lint_races_proves_kernels_race_clean() {
        // Small core count keeps the abstract execution fast in tests;
        // ci.sh runs the full default 8-hart proof.
        let out = dispatch(&v(&["lint", "--races", "--cores", "2"])).unwrap();
        assert!(out.contains("28 kernels race-clean"), "{out}");
        assert!(out.contains("cluster-conv/"), "{out}");

        assert!(dispatch(&v(&["lint", "--races", "--cores", "0"])).is_err());
        assert!(dispatch(&v(&["lint", "--races", "--cores", "9"])).is_err());
        let e = dispatch(&v(&["lint", "--races", "some.s"])).unwrap_err();
        assert!(e.usage, "{}", e.message);
    }

    #[test]
    fn cluster_opts_defaults_and_flags() {
        let o = parse_cluster_opts(&[]).unwrap();
        assert_eq!(o.cores, 8);
        assert_eq!(o.bits, BitWidth::W4);
        assert_eq!(o.isa, KernelIsa::XpulpNN);
        assert!(o.hw_quant);
        assert_eq!(o.threads, 8); // defaults to --cores

        let o = parse_cluster_opts(&v(&["--cores", "2", "--bits", "8", "--threads", "1"])).unwrap();
        assert_eq!(o.cores, 2);
        assert_eq!(o.bits, BitWidth::W8);
        assert_eq!(o.threads, 1);
        assert!(!o.hw_quant); // pv.qnt drops at 8 bits

        assert!(parse_cluster_opts(&v(&["--cores", "9"])).is_err());
        assert!(parse_cluster_opts(&v(&["--threads", "0"])).is_err());
        assert!(parse_cluster_opts(&v(&["--bogus"])).is_err());
    }

    #[test]
    fn bench_opts_defaults_and_flags() {
        let o = parse_bench_opts(&[]).unwrap();
        assert!(!o.json);
        assert!(!o.host);
        assert_eq!(o.seed, 42);
        assert_eq!(o.out_dir, ".");

        let o = parse_bench_opts(&v(&["--host"])).unwrap();
        assert!(o.host);

        let o = parse_bench_opts(&v(&["--json", "--seed", "7", "--out", "/tmp/x"])).unwrap();
        assert!(o.json);
        assert_eq!(o.seed, 7);
        assert_eq!(o.out_dir, "/tmp/x");

        assert!(parse_bench_opts(&v(&["--out"])).is_err());
        assert!(parse_bench_opts(&v(&["--bogus"])).is_err());
    }

    #[test]
    fn run_cores_executes_spmd_on_the_cluster() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-spmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spmd.s");
        // Each hart exits with twice its id (mhartid = csr 0xf14).
        std::fs::write(&path, "csrr t0, 0xf14\nslli a0, t0, 1\necall\n").unwrap();
        let p = path.to_str().unwrap().to_string();
        let out = dispatch(&v(&["run", &p, "--cores", "4"])).unwrap();
        assert!(out.contains("exit codes: [0, 2, 4, 6]"), "{out}");
        assert!(out.contains("hart 3"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_smoke_verifies_and_reports_speedup() {
        let out = dispatch(&v(&["cluster", "--cores", "8"])).unwrap();
        assert!(out.contains("8 core(s)"), "{out}");
        assert!(out.contains("matches golden model"), "{out}");
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("hart 7"), "{out}");
    }

    #[test]
    fn bench_json_writes_the_artifacts() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dispatch(&v(&["bench", "--json", "--out", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("BENCH_single_core.json"), "{out}");
        assert!(out.contains("BENCH_cluster8.json"), "{out}");
        assert!(out.contains("BENCH_vector.json"), "{out}");
        for (label, cores) in [("single_core", 1), ("cluster8", 8), ("vector", 1)] {
            let j = std::fs::read_to_string(dir.join(format!("BENCH_{label}.json"))).unwrap();
            assert!(j.contains(&format!("\"cores\": {cores}")), "{j}");
            assert!(j.contains("\"macs_per_cycle\""), "{j}");
            assert!(j.contains("\"per_core\""), "{j}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faults_cluster_campaign_smoke() {
        let out = dispatch(&v(&[
            "faults",
            "--cluster",
            "--cores",
            "2",
            "--seed",
            "1",
            "--trials",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("cluster totals: detected="), "{out}");
    }

    #[test]
    fn lint_flags_a_broken_file() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-lint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.s");
        // `a0` and `t0` are both read before any definition.
        std::fs::write(&bad, "sw t0, 0(a0)\necall\n").unwrap();
        let e = dispatch(&v(&["lint", bad.to_str().unwrap()])).unwrap_err();
        assert!(e.message.contains("DF-01"), "{e}");

        let good = dir.join("good.s");
        std::fs::write(&good, "li a0, 0\necall\n").unwrap();
        let out = dispatch(&v(&["lint", good.to_str().unwrap()])).unwrap();
        assert!(out.contains("0 diagnostics"), "{out}");

        assert!(dispatch(&v(&["lint", "--bogus"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_reports_watchdog_exhaustion_gracefully() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-wd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spin.s");
        std::fs::write(&path, "spin:\nj spin\n").unwrap();
        let p = path.to_str().unwrap().to_string();
        let out = dispatch(&v(&["run", &p, "--max-cycles", "100"])).unwrap();
        assert!(out.contains("cycle budget (100) exhausted at pc"), "{out}");
        assert!(out.contains("registers:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_respects_isa_flag() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-isa-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nn.s");
        std::fs::write(&path, "pv.sdotsp.n a0, a1, a2\necall\n").unwrap();
        let p = path.to_str().unwrap().to_string();
        assert!(dispatch(&v(&["run", &p])).is_ok());
        let e = dispatch(&v(&["run", &p, "--isa", "xpulpv2"])).unwrap_err();
        assert!(e.message.contains("xpulpnn extension"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--backend vector` turns on the Xrvv unit and `--vlen` scales it:
    /// `vsetvli` grants min(avl, vlmax), so asking for 9 e16 elements
    /// yields 8 at the default VLEN 128 and the full 9 at VLEN 256.
    /// Without the backend flag the same program is an extension fault.
    #[test]
    fn run_backend_vector_enables_the_vector_unit() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-vec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.s");
        std::fs::write(&path, "li t0, 9\nvsetvli a0, t0, e16\necall\n").unwrap();
        let p = path.to_str().unwrap().to_string();

        let out = dispatch(&v(&["run", &p, "--backend", "vector"])).unwrap();
        assert!(out.contains("exit code : 8"), "{out}");
        let out = dispatch(&v(&["run", &p, "--backend", "vector", "--vlen", "256"])).unwrap();
        assert!(out.contains("exit code : 9"), "{out}");
        let e = dispatch(&v(&["run", &p])).unwrap_err();
        assert!(e.message.contains("xrvv extension"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The vector differential suite is reachable from the CLI and clean
    /// on a small case count (ci.sh runs the full suite in release mode).
    #[test]
    fn conformance_vector_smoke() {
        let out = dispatch(&v(&[
            "conformance",
            "--vector",
            "--cases",
            "25",
            "--seed",
            "1",
        ]))
        .unwrap();
        assert!(
            out.contains("conformance --vector: 25 cases, 0 divergences"),
            "{out}"
        );
    }
}
