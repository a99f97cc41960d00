//! The performance-baseline gate: `cargo run --release -p buckwild-bench
//! --bin gate`.
//!
//! ```text
//! gate                       # measure, print table, write BENCH_core.json
//! gate --out <path>          # write the JSON somewhere else
//! gate --check               # re-measure ALL committed baselines and warn
//! gate --check --baseline <path>
//! gate --seconds 0.2 --repeats 9
//! gate --serve               # serving rows instead: BENCH_serve.json
//! gate --serve --check       # warn against the serving baseline only
//! gate --kernels             # bit-serial rows instead: BENCH_kernels.json
//! gate --kernels --check     # warn against the bit-serial baseline only
//! gate --isa scalar          # pin the kernel ISA tier for this run
//! ```
//!
//! `--check` never fails the process: regressions print as warnings for
//! CI logs. A bare `--check` (no suite flag) re-measures and validates
//! every committed baseline — `BENCH_core.json`, `BENCH_kernels.json`,
//! and `BENCH_serve.json` — in one invocation; `--serve` / `--kernels`
//! restrict the check to that suite. `--serve` switches to the
//! online-serving benchmark set (closed-loop load against the prediction
//! server while training runs) and the `BENCH_serve.json` baseline. See
//! [`buckwild_bench::gate`] for the methodology.

use std::process::ExitCode;

use buckwild_bench::gate::{
    run_gate, run_kernels_gate, run_serve_gate, GateReport, GATE_REPEATS, GATE_SECONDS,
    GATE_SERVE_SECONDS,
};

/// Where the committed baselines live, relative to the repo root.
const DEFAULT_BASELINE: &str = "BENCH_core.json";
const DEFAULT_SERVE_BASELINE: &str = "BENCH_serve.json";
const DEFAULT_KERNELS_BASELINE: &str = "BENCH_kernels.json";

struct Args {
    out: Option<String>,
    check: bool,
    serve: bool,
    kernels: bool,
    baseline: Option<String>,
    seconds: Option<f64>,
    repeats: usize,
}

fn usage() -> String {
    format!(
        "usage: gate [--serve | --kernels] [--out <path>] [--check] [--baseline <path>]\n\
                     [--seconds <f64>] [--repeats <n>]\n\
         \n\
         --serve            measure the online-serving rows instead of the\n\
                            kernel/train rows (baseline {DEFAULT_SERVE_BASELINE})\n\
         --kernels          measure the bit-serial (MLWeaving) kernel rows\n\
                            instead (baseline {DEFAULT_KERNELS_BASELINE})\n\
         --out <path>       write the baseline JSON to <path> (default\n\
                            {DEFAULT_BASELINE}, or {DEFAULT_SERVE_BASELINE}\n\
                            with --serve; ignored with --check)\n\
         --check            compare fresh runs against the committed\n\
                            baselines and print warnings (always exits 0);\n\
                            bare --check validates all three baselines,\n\
                            --serve/--kernels restrict it to one suite\n\
         --baseline <path>  baseline to check against\n\
         --seconds <f64>    budget per sample (default {GATE_SECONDS}, or\n\
                            {GATE_SERVE_SECONDS} with --serve)\n\
         --repeats <n>      samples per row (default {GATE_REPEATS})\n\
         --isa <isa>        pin the kernel ISA tier: scalar | avx2 | auto\n\
                            (default: auto-detect)"
    )
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut parsed = Args {
        out: None,
        check: false,
        serve: false,
        kernels: false,
        baseline: None,
        seconds: None,
        repeats: GATE_REPEATS,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => parsed.out = Some(path),
                None => return Err("--out requires a path".into()),
            },
            "--check" => parsed.check = true,
            "--serve" => parsed.serve = true,
            "--kernels" => parsed.kernels = true,
            "--baseline" => match args.next() {
                Some(path) => parsed.baseline = Some(path),
                None => return Err("--baseline requires a path".into()),
            },
            "--seconds" => match args.next().map(|v| v.parse()) {
                Some(Ok(s)) if s > 0.0 => parsed.seconds = Some(s),
                Some(_) => return Err("--seconds requires a positive number".into()),
                None => return Err("--seconds requires a value".into()),
            },
            "--repeats" => match args.next().map(|v| v.parse()) {
                Some(Ok(r)) if r >= 1 => parsed.repeats = r,
                Some(_) => return Err("--repeats requires a positive integer".into()),
                None => return Err("--repeats requires a value".into()),
            },
            "--isa" => match args
                .next()
                .map(|v| v.parse::<buckwild_kernels::KernelIsa>())
            {
                Some(Ok(isa)) => {
                    let _ = buckwild_kernels::isa::set_active(isa);
                }
                Some(Err(e)) => return Err(format!("--isa: {e}")),
                None => return Err("--isa requires scalar|avx2|auto".into()),
            },
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(Some(parsed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("gate: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.serve && args.kernels {
        eprintln!(
            "gate: --serve and --kernels are mutually exclusive\n{}",
            usage()
        );
        return ExitCode::from(2);
    }
    if args.check {
        // A bare --check sweeps every committed baseline; a suite flag
        // (or an explicit --baseline) narrows the check to one suite.
        let suites: &[Suite] = if args.serve {
            &[Suite::Serve]
        } else if args.kernels {
            &[Suite::Kernels]
        } else if args.baseline.is_some() {
            &[Suite::Core]
        } else {
            &[Suite::Core, Suite::Kernels, Suite::Serve]
        };
        for suite in suites {
            let baseline_path = args.baseline.as_deref().unwrap_or(suite.baseline());
            let report = suite.run(args.seconds, args.repeats);
            print!("{}", report.render_text());
            check_one(&report, baseline_path);
        }
    } else {
        let suite = if args.serve {
            Suite::Serve
        } else if args.kernels {
            Suite::Kernels
        } else {
            Suite::Core
        };
        let report = suite.run(args.seconds, args.repeats);
        print!("{}", report.render_text());
        let path = args.out.as_deref().unwrap_or(suite.baseline());
        let json = report.to_json_value().to_json_pretty();
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("gate: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("gate: baseline written to {path}");
    }
    ExitCode::SUCCESS
}

/// One benchmark suite with its committed baseline.
#[derive(Clone, Copy)]
enum Suite {
    Core,
    Kernels,
    Serve,
}

impl Suite {
    fn baseline(self) -> &'static str {
        match self {
            Suite::Core => DEFAULT_BASELINE,
            Suite::Kernels => DEFAULT_KERNELS_BASELINE,
            Suite::Serve => DEFAULT_SERVE_BASELINE,
        }
    }

    fn run(self, seconds: Option<f64>, repeats: usize) -> GateReport {
        match self {
            Suite::Core => run_gate(seconds.unwrap_or(GATE_SECONDS), repeats),
            Suite::Kernels => run_kernels_gate(seconds.unwrap_or(GATE_SECONDS), repeats),
            Suite::Serve => run_serve_gate(seconds.unwrap_or(GATE_SERVE_SECONDS), repeats),
        }
    }
}

/// Compare one fresh report against its committed baseline, printing
/// warnings but never failing the process.
fn check_one(report: &GateReport, baseline_path: &str) {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => match GateReport::from_json(&text) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("gate: warning: cannot parse {baseline_path}: {e}");
                return;
            }
        },
        Err(e) => {
            eprintln!("gate: warning: cannot read {baseline_path}: {e}");
            return;
        }
    };
    let warnings = report.check_against(&baseline);
    if warnings.is_empty() {
        println!("gate: all rows within tolerance of {baseline_path}");
    }
    for w in &warnings {
        eprintln!("gate: warning: {w}");
    }
}
