//! Drives the built binary the way the driver does, at `--smoke` size:
//! all four workloads through every check, both passes, and the
//! `--compare` gate.

use std::path::{Path, PathBuf};
use std::process::Command;

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Value;

const WORKLOADS: [&str; 4] = [
    "dense_shared",
    "dense_sharded",
    "sparse_shared",
    "serve_hotswap",
];

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_buckwild-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

fn contract() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn names(contract: &Value, list: &str) -> Vec<(String, String)> {
    contract
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn scratch(file: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("tmp dir");
    dir.join(file)
}

#[test]
fn smoke_drives_every_workload_through_every_check_in_both_passes() {
    let contract = contract();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = names(&contract, list);
        for workload in WORKLOADS {
            let (ok, stdout) = bench(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert!(ok, "{workload} --trace {trace} exited non-zero:\n{stdout}");
            let last = stdout.lines().last().expect("some output");
            let result = json::parse(last).expect("the last line is one JSON object");
            let Value::Obj(members) = &result else {
                panic!("not an object: {last}");
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            // Every metric of the pass, exactly once, under exactly the
            // contract's names and units; nothing else.
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics is not an object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload} {name}: {value:?}"
                    );
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, expected, "{workload} --trace {trace}");
            if trace == "0" {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Value::as_f64).unwrap();
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
                }
            }
        }
    }
    // The traced pass left one Chrome trace per workload, with the span
    // families the ledger is built from.
    for workload in WORKLOADS {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.json"));
        let trace = json::parse(&std::fs::read_to_string(&path).expect("trace file written"))
            .expect("trace parses");
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
        let has = |name: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some(name))
        };
        for span in [
            "setup",
            "layer_probe",
            "rep",
            "train_call",
            "prepare",
            "epoch[0]",
            "busy",
            "driver",
            "tail",
            "t1_baseline",
            "request",
            "wire.encode_request",
            "write_frame",
            "wait_read_frame",
            "wire.decode_response",
            "hub.publish",
        ] {
            assert!(
                has(span),
                "{workload}: no {span} span in {}",
                path.display()
            );
        }
    }
}

#[test]
fn compare_passes_equal_runs_and_fails_a_regression() {
    let base = scratch("base.json");
    let (ok, stdout) = bench(&[
        "--workload",
        "serve_hotswap",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--smoke",
        "--out",
        base.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    let text = std::fs::read_to_string(&base).unwrap();
    let doc = json::parse(&text).expect("--out document parses");
    let rps = doc
        .get("metrics")
        .and_then(|m| m.get("serve_rps"))
        .expect("serve_rps recorded");
    assert!(rps.get("samples").and_then(Value::as_array).unwrap().len() >= 5);
    assert!(rps.get("q1").is_some() && rps.get("q3").is_some() && rps.get("bound").is_some());

    let same = [base.to_str().unwrap(), base.to_str().unwrap()];
    let (ok, table) = bench(&["--compare", same[0], same[1]]);
    assert!(ok, "a run compared with itself regressed:\n{table}");

    // Halve the recorded throughput: a 50% worsening, beyond any bound.
    let value = rps.get("value").and_then(Value::as_f64).unwrap();
    let mut needle = String::from("\"serve_rps\":{\"value\":");
    json::write_number(&mut needle, value);
    let mut replacement = String::from("\"serve_rps\":{\"value\":");
    json::write_number(&mut replacement, value / 2.0);
    assert!(text.contains(&needle));
    let worse = scratch("worse.json");
    std::fs::write(&worse, text.replace(&needle, &replacement)).unwrap();
    let (ok, table) = bench(&["--compare", base.to_str().unwrap(), worse.to_str().unwrap()]);
    assert!(!ok && table.contains("REGRESSION"), "{table}");
    // The other way round it is an improvement.
    let (ok, _) = bench(&["--compare", worse.to_str().unwrap(), base.to_str().unwrap()]);
    assert!(ok);
}

#[test]
fn repeat_gathers_a_set_of_suites_that_compare_reads() {
    let set = scratch("set.json");
    let path = set.to_str().unwrap();
    let (ok, stdout) = bench(&[
        "--smoke",
        "--seconds",
        "0.5",
        "--seed",
        "11",
        "--repeat",
        "2",
        "--out",
        path,
    ]);
    assert!(ok, "{stdout}");
    let doc = json::parse(&std::fs::read_to_string(&set).unwrap()).expect("suite document parses");
    let runs = doc.get("runs").and_then(Value::as_array).expect("runs");
    let seen: Vec<(&str, f64)> = runs
        .iter()
        .map(|r| {
            (
                r.get("workload").and_then(Value::as_str).unwrap(),
                r.get("seed").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    let expected: Vec<(&str, f64)> = [11.0, 12.0]
        .iter()
        .flat_map(|&seed| WORKLOADS.map(|w| (w, seed)))
        .collect();
    assert_eq!(seen, expected);
    let (ok, table) = bench(&["--compare", path, path]);
    assert!(ok && table.lines().count() == 2 + 4 * 7, "{table}");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let (ok, stdout) = bench(args);
        assert!(!ok && !stdout.contains("\"correct\""), "{args:?}: {stdout}");
    }
}
