//! The repository's benchmark suite.
//!
//! ```sh
//! cargo run --release --manifest-path xbench/Cargo.toml --bin suite -- \
//!     --workload layer_simd4 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation runs one workload (or, with `--all`, each workload in
//! a process of its own), prints every metric by name with its unit,
//! writes a JSON record under `--out`, and prints as its last stdout
//! line `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics from a traced run and writes the spans. `--check` compares
//! the run's exact values with `pins.json`; `--compare FILE` judges
//! paired runs written by `compare.sh`. See README.md for the catalogue.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use xbench::harness::{self, Ctx, Measured};
use xbench::json::{self, Value};
use xbench::{compare, layer, metrics, net, serve};

/// Exact values the suite must reproduce at the seed the file names.
const PINS: &str = include_str!("../pins.json");
/// Spans written to a workload's spans file at most.
const SPAN_FILE_CAP: usize = 100_000;

const USAGE: &str = "usage:
  suite --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--check] [--out DIR]
  suite --all [--seed S] [--seconds T] [--trace 0|1] [--check] [--out DIR]
  suite --compare RESULTS [--bench BENCHMARK.json]
workloads: layer_simd4 layer_vector4 layer_cluster8 net_mobilenet serve_clean serve_chaos";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    out: PathBuf,
    compare: Option<PathBuf>,
    bench: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
        out: PathBuf::from("target/xbench"),
        compare: None,
        bench: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !metrics::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workload = Some(w.clone());
            }
            "--all" => a.all = true,
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--check" => a.check = true,
            "--out" => a.out = PathBuf::from(value()?),
            "--compare" => a.compare = Some(PathBuf::from(value()?)),
            "--bench" => a.bench = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes =
        usize::from(a.workload.is_some()) + usize::from(a.all) + usize::from(a.compare.is_some());
    if modes != 1 {
        return Err("give exactly one of --workload, --all, --compare".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(results) = &args.compare {
        run_compare(results, &args.bench)
    } else if args.all {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Measured, String> {
    match name {
        "layer_simd4" => layer::run(layer::Machine::Simd, ctx),
        "layer_vector4" => layer::run(layer::Machine::Vector, ctx),
        "layer_cluster8" => layer::run(layer::Machine::Cluster8, ctx),
        "net_mobilenet" => net::run(ctx),
        "serve_clean" => serve::run(serve::Mode::Clean, ctx),
        "serve_chaos" => serve::run(serve::Mode::Chaos, ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The reported metrics of a run, in catalogue order: the end-to-end
/// set untraced, the per-layer set traced.
fn reported(m: &Measured, trace: bool) -> Result<Vec<(metrics::Def, f64)>, String> {
    if trace {
        Ok(metrics::PER_LAYER
            .iter()
            .map(|d| (*d, m.metrics.get(d.name).copied().unwrap_or(0.0)))
            .collect())
    } else {
        metrics::END_TO_END
            .iter()
            .map(|d| {
                m.metrics
                    .get(d.name)
                    .map(|v| (*d, *v))
                    .ok_or(format!("end-to-end metric {} was not measured", d.name))
            })
            .collect()
    }
}

fn metrics_json(values: &[(metrics::Def, f64)]) -> Value {
    Value::Obj(
        values
            .iter()
            .map(|(d, v)| {
                let entry = Value::Obj(vec![
                    ("value".into(), (*v).into()),
                    ("unit".into(), d.unit.into()),
                ]);
                (d.name.to_string(), entry)
            })
            .collect(),
    )
}

/// Compares the run's exact values with the pins; returns the drifts.
fn check(workload: &str, seed: u64, exact: &[(String, Value)]) -> Result<Vec<String>, String> {
    let pins = json::parse(PINS)?;
    let pin_seed = pins
        .get("seed")
        .and_then(Value::as_f64)
        .ok_or("pins.json has no seed")?;
    if seed as f64 != pin_seed {
        return Err(format!(
            "pins.json holds seed {pin_seed}; run --check with --seed {pin_seed}"
        ));
    }
    let pinned = pins
        .get("workloads")
        .and_then(|w| w.get(workload))
        .ok_or(format!("pins.json has no entry for {workload}"))?;
    Ok(exact
        .iter()
        .filter_map(|(name, got)| match pinned.get(name) {
            Some(want) if want == got => None,
            Some(want) => Some(format!("{name}: pinned {want}, got {got}")),
            None => Some(format!("{name}: not pinned (got {got})")),
        })
        .collect())
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args
        .workload
        .as_deref()
        .expect("parse_args checked the mode");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut m = run_workload(name, &ctx)?;
    if !ctx.trace {
        m.set("peak_rss_mb", harness::peak_rss_mb()?);
    }
    let values = reported(&m, ctx.trace)?;
    let correct = m.wrong == 0;

    println!(
        "{name}: seed {} seconds {} trace {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    for (d, v) in &values {
        println!("  {:<40} {v:>16.6} {}", d.name, d.unit);
    }
    println!(
        "  ops {} attempted, {} failed, {} wrong",
        m.attempted, m.failed, m.wrong
    );
    if let Some((p, ms)) = m.tail {
        println!("  op latency: {} samples, p{p} {ms:.6} ms", m.samples);
    }

    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let suffix = if ctx.trace { "traced" } else { "untraced" };
    let record = Value::Obj(vec![
        ("workload".into(), name.into()),
        ("seed".into(), ctx.seed.into()),
        ("seconds".into(), ctx.seconds.into()),
        ("trace".into(), ctx.trace.into()),
        ("correct".into(), correct.into()),
        ("attempted".into(), m.attempted.into()),
        ("failed".into(), m.failed.into()),
        ("samples".into(), (m.samples as u64).into()),
        (
            "rounds".into(),
            Value::Arr(
                m.rounds
                    .iter()
                    .map(|&(setup_s, p50, rate)| {
                        Value::Obj(vec![
                            ("setup_s".into(), setup_s.into()),
                            ("op_ms_p50".into(), p50.into()),
                            ("ops_per_s".into(), rate.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "op_ms_tail".into(),
            m.tail.map_or(Value::Null, |(p, ms)| {
                Value::Obj(vec![
                    ("percentile".into(), p.into()),
                    ("value".into(), ms.into()),
                ])
            }),
        ),
        ("metrics".into(), metrics_json(&values)),
        ("exact".into(), Value::Obj(m.exact.clone())),
    ]);
    write_file(
        &args.out.join(format!("{name}.{suffix}.json")),
        &format!("{record}\n"),
    )?;
    if let Some(tr) = &m.tracer {
        let path = args.out.join(format!("{name}.spans.jsonl"));
        let dropped = tr
            .write_jsonl(&path, SPAN_FILE_CAP)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "  spans: {} recorded, {} written to {}",
            tr.spans().len(),
            tr.spans().len() - dropped,
            path.display()
        );
    }

    let mut code = ExitCode::SUCCESS;
    if args.check {
        let drifts = check(name, ctx.seed, &m.exact)?;
        if drifts.is_empty() {
            println!("  check: {} exact values match pins.json", m.exact.len());
        } else {
            for d in &drifts {
                println!("  check: DRIFT {d}");
            }
            code = ExitCode::FAILURE;
        }
    }
    let last = Value::Obj(vec![
        ("correct".into(), correct.into()),
        ("attempted".into(), m.attempted.into()),
        ("failed".into(), m.failed.into()),
        ("metrics".into(), metrics_json(&values)),
    ]);
    println!("{last}");
    Ok(code)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs every workload in a process of its own, then prints one
/// summary row per workload.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut failed = Vec::new();
    let mut rows = Vec::new();
    for w in metrics::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.check {
            cmd.arg("--check");
        }
        let out = cmd.output().map_err(|e| format!("cannot run {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let last = stdout.lines().last().and_then(|l| json::parse(l).ok());
        let clean = last.as_ref().is_some_and(|l| {
            l.get("correct") == Some(&Value::Bool(true))
                && l.get("failed").and_then(Value::as_f64) == Some(0.0)
        });
        if !out.status.success() || !clean {
            failed.push(w);
        }
        rows.push((w, clean, last));
    }
    println!(
        "\nsummary (seed {}, {} s per workload):",
        args.seed, args.seconds
    );
    for (w, clean, last) in &rows {
        let cells: Vec<String> = match last
            .as_ref()
            .and_then(|l| l.get("metrics"))
            .and_then(Value::as_obj)
        {
            Some(metrics) if !args.trace => metrics
                .iter()
                .map(|(k, v)| format!("{k}={}", v.get("value").unwrap_or(&Value::Null)))
                .collect(),
            _ => Vec::new(),
        };
        println!(
            "  {w:<15} {:<6} {}",
            if *clean { "ok" } else { "FAILED" },
            cells.join("  ")
        );
    }
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("failed: {}", failed.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn run_compare(results: &Path, bench: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let rules = compare::rules(&read(bench)?)?;
    let regressions = compare::compare(&read(results)?, &rules)?;
    if regressions == 0 {
        println!("no regression beyond the BENCHMARK.json bounds");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("{regressions} regression(s) beyond the BENCHMARK.json bounds");
        Ok(ExitCode::FAILURE)
    }
}
