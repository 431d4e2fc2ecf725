//! Order statistics, the metric catalogue read from `BENCHMARK.json`, and
//! the `--compare` mode that judges two result sets against the bounds.

use std::path::Path;

use serde::Value;

/// `BENCHMARK.json`, the single source of metric names, units and bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only; zero for per-layer metrics).
    pub bound: f64,
}

/// The metric catalogue of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// Metrics printed with tracing off.
    pub end_to_end: Vec<Metric>,
    /// Metrics printed with tracing on.
    pub per_layer: Vec<Metric>,
}

impl Catalogue {
    /// Parses the embedded `BENCHMARK.json`.
    pub fn load() -> Catalogue {
        let root = serde_json::parse_value(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Metric> {
            let Some(Value::Array(items)) = root.get(key) else {
                panic!("BENCHMARK.json lacks `{key}`");
            };
            items
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: m
                        .get("better")
                        .is_some_and(|b| *b == Value::Str("higher".into())),
                    bound: m.get("bound").and_then(number).unwrap_or(0.0),
                })
                .collect()
        };
        Catalogue {
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }

    /// The unit of metric `name`.
    pub fn unit(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
            .unwrap_or_else(|| panic!("metric `{name}` is not in BENCHMARK.json"))
    }
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        _ => panic!("BENCHMARK.json entry lacks string `{key}`"),
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; needs two or more values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One side of a comparison: a metric's values over a result set's runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// The verdict on one metric of one workload, comparing runs `b` against
/// baseline runs `a` (paired by position).
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> (usize, usize, &'static str) {
    let better = |x: f64, y: f64| {
        if metric.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let pairs = a.len().min(b.len());
    let won = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let all_better = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
    let all_worse = b.iter().all(|y| a.iter().all(|x| better(*x, *y)));
    let worse_by = if metric.higher_is_better {
        (sa.median - sb.median) / sa.median
    } else {
        (sb.median - sa.median) / sa.median
    };
    let word = if pairs == 0 {
        "no data"
    } else if sa.spread() > metric.bound || sb.spread() > metric.bound {
        if all_better {
            "better"
        } else if all_worse {
            "worse"
        } else {
            "unresolved"
        }
    } else if won * 10 >= pairs * 9 && (sb.median - sa.median).abs() > sa.q3 - sa.q1 {
        "better"
    } else if worse_by > metric.bound {
        "regression"
    } else {
        "within bound"
    };
    (won, pairs, word)
}

/// One run's result line, reduced to what the comparison needs.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells failed.
    pub failed: u64,
    metrics: Value,
}

impl RunResult {
    /// Parses one printed result line.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let v = serde_json::parse_value(line).map_err(|e| e.to_string())?;
        let int = |key: &str| v.get(key).and_then(number).map(|x| x as u64);
        Ok(RunResult {
            attempted: int("attempted").ok_or("result lacks `attempted`")?,
            failed: int("failed").ok_or("result lacks `failed`")?,
            metrics: v.get("metrics").cloned().ok_or("result lacks `metrics`")?,
        })
    }

    /// The value of metric `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)?.get("value").and_then(number)
    }
}

/// Reads a result set: `<dir>/<workload>.jsonl`, one result per line.
pub fn read_set(dir: &Path, workload: &str) -> Result<Vec<RunResult>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let body = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .map(RunResult::parse)
        .collect()
}

/// Prints, per workload and end-to-end metric, each side's median and
/// quartiles, the pairs `b` won and the verdict. Returns whether any
/// metric regressed beyond its bound or any run failed.
pub fn compare(
    a_dir: &Path,
    b_dir: &Path,
    workloads: &[&str],
    cat: &Catalogue,
) -> Result<bool, String> {
    let mut bad = false;
    println!(
        "{:<15} {:<15} {:>13} {:>13} {:>13} {:>7} | {:>13} {:>13} {:>13} {:>7} | {:>5} verdict",
        "workload",
        "metric",
        "A median",
        "A q1",
        "A q3",
        "spread",
        "B median",
        "B q1",
        "B q3",
        "spread",
        "won"
    );
    for w in workloads {
        let file = format!("{w}.jsonl");
        if !a_dir.join(&file).exists() && !b_dir.join(&file).exists() {
            continue;
        }
        let (a, b) = (read_set(a_dir, w)?, read_set(b_dir, w)?);
        for m in &cat.end_to_end {
            let va: Vec<f64> = a.iter().filter_map(|r| r.value(&m.name)).collect();
            let vb: Vec<f64> = b.iter().filter_map(|r| r.value(&m.name)).collect();
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{w}: no `{}` values in one of the sets", m.name));
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let (won, pairs, word) = verdict(m, &va, &vb);
            bad |= word == "regression";
            println!(
                "{:<15} {:<15} {:>13.6e} {:>13.6e} {:>13.6e} {:>7.4} | {:>13.6e} {:>13.6e} {:>13.6e} {:>7.4} | {:>2}/{:<2} {} (bound {}, {})",
                w, m.name, sa.median, sa.q1, sa.q3, sa.spread(), sb.median, sb.q1, sb.q3,
                sb.spread(), won, pairs, word, m.bound, m.unit
            );
        }
        let failed = |set: &[RunResult]| -> (u64, u64) {
            set.iter()
                .fold((0, 0), |(f, t), r| (f + r.failed, t + r.attempted))
        };
        let ((fa, ta), (fb, tb)) = (failed(&a), failed(&b));
        bad |= fb > 0;
        println!("{w:<15} failed_runs     A {fa}/{ta} cells, B {fb}/{tb} cells");
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_rule() {
        let lower = Metric {
            name: "wall_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: 0.1,
        };
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&lower, &a, &faster), (10, 10, "better"));
        assert_eq!(verdict(&lower, &a, &slower).2, "regression");
        assert_eq!(verdict(&lower, &a, &a).2, "within bound");
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(verdict(&lower, &a, &noisy).2, "unresolved");
    }

    #[test]
    fn the_catalogue_names_every_metric_once() {
        let cat = Catalogue::load();
        let mut names: Vec<&str> = cat
            .end_to_end
            .iter()
            .chain(&cat.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(cat
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
