//! `--compare A.json B.json`: applies each end-to-end metric's bound to two
//! recorded runs, or two sets of runs, and fails on a regression — the gate
//! with teeth. A file that holds several runs of a workload (`--repeat`)
//! stands for the median of their values.

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics::{self, Better};
use crate::{stats, workload};

/// One workload × metric pairing present in both files.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median in file A (the base).
    pub base: f64,
    /// Median in file B.
    pub new: f64,
    /// Relative worsening of B against A; negative is an improvement.
    pub worsening: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// True when B is worse than A by more than the bound.
    pub fn regressed(&self) -> bool {
        self.worsening > self.bound
    }
}

/// The untraced runs of a document: a single run, or a suite's `runs`.
fn runs(doc: &Value) -> Vec<&Value> {
    let all: Vec<&Value> = match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    };
    all.into_iter()
        .filter(|r| r.get("traced").and_then(Value::as_bool) == Some(false))
        .collect()
}

/// Median over a document's runs of `workload` of `metric`'s value.
fn median_of(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    let values: Vec<f64> = runs(doc)
        .into_iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect();
    stats::summarize(&values).map(|s| s.median)
}

/// Pairs up every workload × end-to-end metric the two documents share.
pub fn rows(a: &Value, b: &Value) -> Vec<Row> {
    let mut out = Vec::new();
    for workload in workload::NAMES {
        for def in &metrics::END_TO_END {
            let (Some(base), Some(new)) = (
                median_of(a, workload, def.name),
                median_of(b, workload, def.name),
            ) else {
                continue;
            };
            let change = (new - base) / base.abs().max(f64::MIN_POSITIVE);
            out.push(Row {
                workload: workload.to_string(),
                metric: def.name,
                base,
                new,
                worsening: match def.better {
                    Better::Lower => change,
                    Better::Higher => -change,
                },
                bound: def.bound.expect("end-to-end metrics carry a bound"),
            });
        }
    }
    out
}

/// Compares two files; returns the table and whether B regressed.
pub fn compare_files(a: &str, b: &str) -> Result<(String, bool), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("parsing {path}: {e}")))
    };
    let rows = rows(&read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err(format!("{a} and {b} share no untraced workload"));
    }
    let mut table = format!("base {a}\nnew  {b}\n");
    for r in &rows {
        let _ = writeln!(
            table,
            "{:<14} {:<15} {:>14.6} -> {:>14.6}  {:>6.2}% {:<6} (bound {:.0}%){}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worsening.abs() * 100.0,
            if r.worsening > 0.0 { "worse" } else { "better" },
            r.bound * 100.0,
            if r.regressed() { "  REGRESSION" } else { "" },
        );
    }
    let regressed = rows.iter().any(Row::regressed);
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, gnps: f64, p50: f64) -> Value {
        let metric = |v: f64| Value::obj([("value", Value::Num(v))]);
        Value::obj([
            ("workload", Value::Str(workload.into())),
            ("traced", Value::Bool(false)),
            (
                "metrics",
                Value::obj([("train_gnps", metric(gnps)), ("serve_p50_us", metric(p50))]),
            ),
        ])
    }

    #[test]
    fn direction_decides_what_worse_means() {
        // Every bound is at most 25%, so halving and doubling are clear.
        let a = run("dense_shared", 1.0, 50.0);
        let b = run("dense_shared", 0.5, 25.0);
        let rows = rows(&a, &b);
        assert_eq!(rows.len(), 2);
        let gnps = &rows[0];
        assert_eq!(gnps.metric, "train_gnps");
        assert!((gnps.worsening - 0.5).abs() < 1e-12 && gnps.regressed());
        let p50 = &rows[1];
        assert!((p50.worsening + 0.5).abs() < 1e-12 && !p50.regressed());
        // The other way round the throughput doubled, which is no
        // regression, but the latency is twice its base.
        let back = super::rows(&b, &a);
        assert!((back[0].worsening + 1.0).abs() < 1e-12 && !back[0].regressed());
        assert!((back[1].worsening - 1.0).abs() < 1e-12 && back[1].regressed());
    }

    #[test]
    fn a_set_stands_for_the_median_of_its_runs() {
        let set = |gnps: [f64; 3]| {
            Value::obj([(
                "runs",
                Value::Arr(gnps.map(|g| run("sparse_shared", g, 800.0)).to_vec()),
            )])
        };
        // One run in three is 40% slow; the median does not care.
        let rows = rows(&set([1.0, 1.02, 0.98]), &set([0.6, 1.01, 0.99]));
        assert_eq!((rows[0].base, rows[0].new), (1.0, 0.99));
        assert!(!rows[0].regressed());
    }

    #[test]
    fn suites_pair_by_workload_and_skip_traced_runs() {
        let suite = |runs: Vec<Value>| Value::obj([("runs", Value::Arr(runs))]);
        let mut traced = run("dense_shared", 9.0, 9.0);
        if let Value::Obj(members) = &mut traced {
            members[1].1 = Value::Bool(true);
        }
        let a = suite(vec![
            run("dense_shared", 1.0, 50.0),
            run("serve_hotswap", 1.0, 40.0),
            traced,
        ]);
        let b = suite(vec![run("serve_hotswap", 1.0, 41.0)]);
        let rows = rows(&a, &b);
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|r| r.workload == "serve_hotswap" && !r.regressed()));
    }
}
