//! How a run is shown: a table for people, one full JSON document for
//! `--compare`, and the one-line result the driver reads.

use std::fmt::Write as _;

use crate::host;
use crate::json::Value;
use crate::run::Report;
use crate::surface::isa_tier;

/// The hardware preamble: what the numbers below were taken on.
fn host_line() -> String {
    format!(
        "host: nproc {}, isa {}, caches {}",
        host::nproc(),
        isa_tier(),
        host::cache_summary()
    )
}

/// The table: every metric by name with unit, direction, bound, quartiles
/// and samples; then checks, failures and the traced self-time ledger.
pub fn text(report: &Report) -> String {
    let args = &report.args;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} · seed {} · {} pass · {} s{}",
        args.spec.name,
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        args.seconds,
        if report.noisy() {
            " · NOISY (steal > 5%)"
        } else {
            ""
        },
    );
    let _ = writeln!(out, "{}", host_line());
    let _ = writeln!(out, "why: {}", args.spec.why);
    for m in &report.metrics {
        let bound = m
            .def
            .bound
            .map_or(String::new(), |b| format!(" · bound {:.0}%", b * 100.0));
        let _ = write!(
            out,
            "{:<32} {:>14.6} {:<7} ({} is better{bound})",
            m.def.name,
            m.value,
            m.def.unit,
            m.def.better.as_str(),
        );
        if let Some(s) = m.summary.as_ref().filter(|s| s.n > 1) {
            // The full list is in the `--out` document.
            let shown = &s.samples[..s.n.min(9)];
            let more = if s.n > 9 { " …" } else { "" };
            let _ = write!(
                out,
                "  n={} q1={:.6} q3={:.6} samples={shown:.4?}{more}",
                s.n, s.q1, s.q3
            );
        }
        out.push('\n');
    }
    let max_steal = report.steal.iter().copied().fold(0.0, f64::max);
    let _ = writeln!(
        out,
        "steal per repetition and serving phase: max {:.2}% over {} intervals",
        max_steal * 100.0,
        report.steal.len()
    );
    for c in &report.checks {
        let _ = writeln!(
            out,
            "[{}] {} — {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    let _ = writeln!(
        out,
        "operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    for f in &report.failures {
        let _ = writeln!(out, "  failure: {f}");
    }
    if let Some(path) = &report.trace_file {
        let _ = writeln!(out, "trace: {path}");
        let _ = writeln!(out, "self time by span (duration minus children):");
        for (name, ns, count) in &report.self_times {
            let _ = writeln!(out, "  {name:<28} {:>12.3} ms  x{count}", *ns as f64 / 1e6);
        }
    }
    out
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(report: &Report) -> String {
    let metrics = report.metrics.iter().map(|m| {
        let unit = Value::Str(m.def.unit.to_string());
        (
            m.def.name,
            Value::obj([("value", Value::Num(m.value)), ("unit", unit)]),
        )
    });
    Value::obj([
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::Num(report.attempted.max(1) as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
    .to_json()
}

/// The full document of one run, as `--out` writes and `--compare` reads.
pub fn document(report: &Report) -> Value {
    let args = &report.args;
    let metrics = report.metrics.iter().map(|m| {
        let mut members = vec![
            ("value", Value::Num(m.value)),
            ("unit", Value::Str(m.def.unit.to_string())),
            ("better", Value::Str(m.def.better.as_str().to_string())),
        ];
        if let Some(bound) = m.def.bound {
            members.push(("bound", Value::Num(bound)));
        }
        if let Some(s) = &m.summary {
            members.push(("n", Value::Num(s.n as f64)));
            members.push(("q1", Value::Num(s.q1)));
            members.push(("q3", Value::Num(s.q3)));
            members.push(("samples", Value::nums(&s.samples)));
        }
        (m.def.name, Value::obj(members))
    });
    let checks = report.checks.iter().map(|c| {
        Value::obj([
            ("name", Value::Str(c.name.to_string())),
            ("ok", Value::Bool(c.ok)),
            ("detail", Value::Str(c.detail.clone())),
        ])
    });
    Value::obj([
        ("workload", Value::Str(args.spec.name.to_string())),
        ("why", Value::Str(args.spec.why.to_string())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("traced", Value::Bool(args.traced)),
        ("host", Value::Str(host_line())),
        ("noisy", Value::Bool(report.noisy())),
        ("steal_frac", Value::nums(&report.steal)),
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        (
            "failures",
            Value::Arr(report.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("checks", Value::Arr(checks.collect())),
        ("metrics", Value::obj(metrics)),
    ])
}
