//! The repo's benchmark: one command that generates each workload from a
//! seed, trains and serves it, checks the outputs, and prints every metric
//! by name. See `README.md` in this directory for what is measured and why.

mod compare;
mod host;
mod json;
mod metrics;
mod probe;
mod report;
mod run;
mod serve;
mod span;
mod stats;
mod surface;
mod train;
mod workload;

use std::process::{Command, ExitCode};

use json::Value;

const USAGE: &str = "\
usage: buckwild-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out FILE] [--repeat N]
       buckwild-benchmark --compare BASE.json NEW.json

  --workload NAME  dense_shared | dense_sharded | sparse_shared | serve_hotswap
                   (default: all four, one process each)
  --seed N         seed of every generated input (default 1701)
  --seconds N      seconds the measured phases take together (default 20)
  --trace 0|1      0: end-to-end metrics, untraced (default)
                   1: per-layer ledger, and a Chrome trace in benchmark/out/
  --smoke          tiny sizes; every check, no meaningful timing
  --out FILE       also write the full JSON document (samples, quartiles)
  --repeat N       without --workload: run the suite N times, on seeds S, S+1, …,
                   into one --out file: a set, whose medians --compare uses
  --compare A B    apply each end-to-end bound to two --out files (medians over
                   each file's runs of a workload); exit 1 on regression";

/// Seed used when none is given; the README's recorded numbers use it.
const DEFAULT_SEED: u64 = 1701;
/// `--seconds` when none is given; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--seconds` of a `--smoke` run when none is given.
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<String>,
    repeat: u64,
    compare: Option<(String, String)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
        repeat: 1,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value()?),
            "--repeat" => {
                cli.repeat = value()?
                    .parse()
                    .map_err(|_| "--repeat takes a whole number")?;
                if !(1..=100).contains(&cli.repeat) {
                    return Err("--repeat must be in 1..=100".into());
                }
            }
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn write_out(path: &str, doc: &Value) -> Result<(), String> {
    std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("writing {path}: {e}"))
}

/// One workload in this process. The last line printed is the result.
fn run_one(cli: &Cli, name: &str) -> Result<bool, String> {
    let spec = workload::spec(name, cli.smoke)
        .ok_or_else(|| format!("unknown workload {name}; one of {:?}", workload::NAMES))?;
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let report = run::run(run::Args {
        spec,
        seed: cli.seed,
        seconds,
        traced: cli.traced,
    })?;
    print!("{}", report::text(&report));
    if let Some(path) = &cli.out {
        write_out(path, &report::document(&report))?;
    }
    println!("{}", report::result_line(&report));
    Ok(report.correct())
}

/// All four workloads, one child process each so that `peak_rss_mb` is a
/// workload's own, `--repeat` times over on consecutive seeds (the whole
/// suite each time, so host drift falls on every workload alike); their
/// documents are gathered into one suite file.
fn run_suite(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let dir = run::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    let seeds = cli.seed..cli.seed.saturating_add(cli.repeat);
    for (seed, name) in seeds.flat_map(|s| workload::NAMES.map(|n| (s, n))) {
        let part = dir.join(format!("part-{name}.json"));
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--trace", if cli.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if let Some(s) = cli.seconds {
            child.args(["--seconds", &s.to_string()]);
        }
        if cli.smoke {
            child.arg("--smoke");
        }
        // `status` waits for the child to end.
        let status = child.status().map_err(|e| format!("running {name}: {e}"))?;
        all_correct &= status.success();
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("{name} left no document ({status}): {e}"))?;
        runs.push(json::parse(&text).map_err(|e| format!("{name}'s document: {e}"))?);
        let _ = std::fs::remove_file(&part);
    }
    if let Some(path) = &cli.out {
        write_out(path, &Value::obj([("runs", Value::Arr(runs))]))?;
    }
    println!(
        "suite: {} workloads x {} seeds, {}",
        workload::NAMES.len(),
        cli.repeat,
        if all_correct { "all correct" } else { "FAILED" }
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&cli.compare, &cli.workload) {
        (Some((a, b)), _) => compare::compare_files(a, b).map(|(table, regressed)| {
            print!("{table}");
            !regressed
        }),
        (None, Some(name)) => run_one(&cli, name),
        (None, None) => run_suite(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod contract {
    //! `BENCHMARK.json` repeats the metric and workload tables for the
    //! driver; these tests keep it in step with the code and inside the
    //! driver's limits.

    use super::*;
    use metrics::{Def, END_TO_END, PER_LAYER};

    fn contract() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn keys(v: &Value) -> Vec<&str> {
        let Value::Obj(members) = v else {
            panic!("not an object: {v:?}");
        };
        members.iter().map(|(k, _)| k.as_str()).collect()
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).expect("string member")
    }

    #[test]
    fn top_level_is_exactly_the_six_keys_within_limits() {
        let c = contract();
        assert_eq!(
            keys(&c),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let command = c.get("command").and_then(Value::as_array).unwrap();
        assert!(command.len() <= 32);
        assert_eq!(command[0].as_str(), Some("cargo"));
        assert!(command
            .iter()
            .any(|a| a.as_str() == Some("benchmark/Cargo.toml")));
        let paths = c.get("paths").and_then(Value::as_array).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
        assert_eq!(
            c.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert!((1.0..=60.0).contains(&DEFAULT_SECONDS) && DEFAULT_SECONDS.fract() == 0.0);
    }

    #[test]
    fn workloads_match_the_specs() {
        let c = contract();
        let listed = c.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), workload::NAMES.len());
        for (entry, name) in listed.iter().zip(workload::NAMES) {
            assert_eq!(keys(entry), ["name", "why"]);
            for smoke in [false, true] {
                let spec = workload::spec(name, smoke).expect("every name has a spec");
                assert_eq!(spec.name, name);
                assert_eq!(text(entry, "name"), name);
                assert_eq!(text(entry, "why"), spec.why);
                assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
            }
        }
        assert!(workload::spec("sparse_sharded", false).is_none());
    }

    fn assert_metrics(listed: &Value, defs: &[Def], with_bound: bool) {
        let listed = listed.as_array().unwrap();
        assert_eq!(listed.len(), defs.len());
        for (entry, def) in listed.iter().zip(defs) {
            if with_bound {
                assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
                assert_eq!(entry.get("bound").and_then(Value::as_f64), def.bound);
            } else {
                assert_eq!(keys(entry), ["name", "unit", "better"]);
            }
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit);
            assert_eq!(text(entry, "better"), def.better.as_str());
        }
    }

    #[test]
    fn metrics_match_the_tables() {
        let c = contract();
        assert_metrics(c.get("end_to_end").unwrap(), &END_TO_END, true);
        assert_metrics(c.get("per_layer").unwrap(), &PER_LAYER, false);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args = [
            "--workload",
            "dense_shared",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ];
        let cli = parse(&args.map(String::from)).expect("the driver's arguments parse");
        assert_eq!(cli.workload.as_deref(), Some("dense_shared"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.traced, cli.smoke),
            (42, Some(20.0), true, false)
        );
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--seed"],
            &["--what"],
        ] {
            assert!(parse(&bad.iter().map(|s| s.to_string()).collect::<Vec<_>>()).is_err());
        }
    }
}
