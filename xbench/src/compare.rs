//! `suite --compare RESULTS`: the pair protocol's verdicts.
//!
//! `RESULTS` holds one JSON object per line, `{"side": "parent" |
//! "change", "workload": NAME, "result": <the suite's last stdout
//! line>}`, as `compare.sh` writes it; the k-th parent and k-th change
//! run of a workload form pair k. Each metric is reported with each
//! side's median and quartiles. An end-to-end metric whose change
//! median is worse than the parent's by more than its `BENCHMARK.json`
//! bound is a regression; a gain needs the change to win at least nine
//! tenths of the pairs (ties count for neither) and the medians to
//! differ by more than the parent's interquartile range.

use crate::json::{self, Value};
use crate::stats::Summary;
use std::collections::BTreeMap;

/// One metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// True when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent median (`None` for
    /// per-layer metrics, which have no bound).
    pub bound: Option<f64>,
}

/// Verdict on one (workload, metric) pair series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Change median worse than the parent's by more than the bound.
    Regression,
    /// Change wins ≥ 90 % of pairs and beats the parent's spread.
    Gain,
    /// The parent's own spread exceeds the bound, so "no worse" cannot
    /// be shown.
    Unresolved,
    /// Within the bound.
    Same,
    /// A per-layer metric: reported, not judged.
    Reported,
}

/// Judges paired samples (`parent[k]`, `change[k]`) under `rule`.
fn judge(parent: &[f64], change: &[f64], rule: Rule) -> Verdict {
    let (Some(p), Some(c)) = (Summary::of(parent), Summary::of(change)) else {
        return Verdict::Unresolved;
    };
    let Some(bound) = rule.bound else {
        return Verdict::Reported;
    };
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let worsening = if p.median == 0.0 {
        0.0
    } else if rule.lower_is_better {
        (c.median - p.median) / p.median.abs()
    } else {
        (p.median - c.median) / p.median.abs()
    };
    if worsening > bound {
        return Verdict::Regression;
    }
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&k| better(change[k], parent[k])).count();
    if pairs > 0
        && wins * 10 >= pairs * 9
        && (c.median - p.median).abs() > p.q3 - p.q1
        && better(c.median, p.median)
    {
        return Verdict::Gain;
    }
    let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
    if p.spread() > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

/// Reads each metric's rule from `BENCHMARK.json` text.
///
/// # Errors
///
/// Malformed JSON or a metric entry without a name.
pub fn rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let doc = json::parse(benchmark_json)?;
    let mut out = BTreeMap::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for def in doc.get(section).and_then(Value::as_arr).unwrap_or_default() {
            let name = def
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let rule = Rule {
                lower_is_better: def.get("better").and_then(Value::as_str) == Some("lower"),
                bound: if bounded {
                    def.get("bound").and_then(Value::as_f64)
                } else {
                    None
                },
            };
            out.insert(name.to_string(), rule);
        }
    }
    Ok(out)
}

/// Runs the comparison over `results` (JSON lines) and prints one row
/// per workload and metric; returns the number of regressions.
///
/// # Errors
///
/// Malformed input.
pub fn compare(results: &str, rules: &BTreeMap<String, Rule>) -> Result<usize, String> {
    // (workload, metric) -> (parent samples, change samples)
    type Series = (Vec<f64>, Vec<f64>);
    let mut series: BTreeMap<(String, String), Series> = BTreeMap::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    for (i, line) in results
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let parent_side = match rec.get("side").and_then(Value::as_str) {
            Some("parent") => true,
            Some("change") => false,
            other => {
                return Err(format!(
                    "line {}: side {other:?} is not parent or change",
                    i + 1
                ))
            }
        };
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or(format!("line {}: no result metrics", i + 1))?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: {name} has no value", i + 1))?;
            if let Some(unit) = m.get("unit").and_then(Value::as_str) {
                units.insert(name.clone(), unit.to_string());
            }
            let e = series
                .entry((workload.to_string(), name.clone()))
                .or_default();
            if parent_side {
                e.0.push(v);
            } else {
                e.1.push(v);
            }
        }
    }
    let mut regressions = 0;
    println!(
        "{:<15} {:<36} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins"
    );
    for ((workload, metric), (parent, change)) in &series {
        let rule = rules.get(metric).copied().unwrap_or(Rule {
            lower_is_better: true,
            bound: None,
        });
        let verdict = judge(parent, change, rule);
        regressions += usize::from(verdict == Verdict::Regression);
        let show = |s: Option<Summary>| {
            s.map_or("-".to_string(), |s| {
                format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3)
            })
        };
        let (p, c) = (Summary::of(parent), Summary::of(change));
        let delta = match (p, c) {
            (Some(p), Some(c)) if p.median != 0.0 => {
                format!("{:+.2}%", (c.median / p.median - 1.0) * 100.0)
            }
            _ => "-".to_string(),
        };
        let pairs = parent.len().min(change.len());
        let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
        let wins = (0..pairs).filter(|&k| better(change[k], parent[k])).count();
        println!(
            "{workload:<15} {:<36} {:>30} {:>30} {delta:>8} {:>6}  {verdict:?}",
            format!(
                "{metric} ({})",
                units.get(metric).map_or("", String::as_str)
            ),
            show(p),
            show(c),
            format!("{wins}/{pairs}"),
        );
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.1),
    };

    #[test]
    fn verdicts_follow_the_pair_protocol() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.0];
        let same = [10.1, 10.0, 10.0, 10.2, 9.9, 10.1, 10.0, 10.0, 10.2, 9.9];
        assert_eq!(judge(&parent, &same, LOWER), Verdict::Same);
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&parent, &slower, LOWER), Verdict::Regression);
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&parent, &faster, LOWER), Verdict::Gain);
        // Higher-is-better flips the direction.
        let higher = Rule {
            lower_is_better: false,
            bound: Some(0.1),
        };
        assert_eq!(judge(&parent, &slower, higher), Verdict::Gain);
        assert_eq!(judge(&parent, &faster, higher), Verdict::Regression);
        // A parent spread wider than the bound leaves "no worse" unshown.
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&noisy, &noisy, LOWER), Verdict::Unresolved);
        assert_eq!(
            judge(
                &parent,
                &slower,
                Rule {
                    lower_is_better: true,
                    bound: None
                }
            ),
            Verdict::Reported
        );
    }

    #[test]
    fn rules_and_rows_come_from_the_files() {
        let bench = r#"{"end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}],
                        "per_layer": [{"name": "x.y", "unit": "us", "better": "lower"}]}"#;
        let r = rules(bench).unwrap();
        assert_eq!(r["op_ms_p50"], LOWER);
        assert_eq!(r["x.y"].bound, None);
        let mut lines = String::new();
        for (side, v) in [
            ("parent", 10.0),
            ("change", 13.0),
            ("parent", 10.0),
            ("change", 13.0),
        ] {
            lines.push_str(&format!(
                "{{\"side\": \"{side}\", \"workload\": \"w\", \"result\": {{\"metrics\": {{\"op_ms_p50\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}}}\n"
            ));
        }
        assert_eq!(compare(&lines, &r).unwrap(), 1);
        assert!(compare(
            "{\"side\": \"left\", \"workload\": \"w\", \"result\": {\"metrics\": {}}}",
            &r
        )
        .is_err());
        assert!(compare("not json", &r).is_err());
    }
}
