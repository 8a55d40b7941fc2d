//! A short run of every workload, untraced and traced, through the
//! built `suite` binary: every metric `BENCHMARK.json` names is emitted
//! with its unit, every op verifies, and the exact values match
//! `pins.json` (`--check`).

use std::process::Command;
use xbench::json::{self, Value};

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn section(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_arr)
        .expect("section present")
        .iter()
        .map(|d| {
            let field = |k| {
                d.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads(bench: &Value) -> Vec<String> {
    bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_matches_its_pins() {
    let bench = benchmark();
    let out = std::env::temp_dir().join(format!("xbench-smoke-{}", std::process::id()));
    for workload in workloads(&bench) {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_suite"))
                .args([
                    "--workload",
                    &workload,
                    "--seconds",
                    "0.3",
                    "--trace",
                    trace,
                    "--check",
                ])
                .arg("--out")
                .arg(&out)
                .output()
                .expect("suite runs");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let last =
                json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
            let keys: Vec<&str> = last
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{workload}");
            assert_eq!(
                last.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(last.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let metrics = last
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics");
            let want = section(&bench, key);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload} trace {trace}: metric count"
            );
            for ((name, unit), (got_name, got)) in want.iter().zip(metrics) {
                assert_eq!(name, got_name, "{workload}: catalogue order");
                assert_eq!(
                    got.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{workload} {name}"
                );
                let v = got
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                if key == "end_to_end" {
                    assert!(
                        v > 0.0,
                        "{workload} {name} = {v}: end-to-end metrics are never 0"
                    );
                }
            }
        }
        let spans = std::fs::read_to_string(out.join(format!("{workload}.spans.jsonl")))
            .expect("spans file");
        let first =
            json::parse(spans.lines().next().expect("at least one span")).expect("span is JSON");
        for key in ["name", "start_ns", "end_ns", "parent", "op"] {
            assert!(first.get(key).is_some(), "{workload}: span has no {key}");
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "layer_simd4", "--trace", "2"],
        &["--workload", "layer_simd4", "--seconds", "0"],
        &["--all", "--workload", "layer_simd4"],
        &["--bogus"],
        &[],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_suite"))
            .args(args)
            .output()
            .expect("suite runs");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
