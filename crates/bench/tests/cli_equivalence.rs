//! `buckwild-bench` emits exactly what `tests/golden/` holds.
//!
//! The goldens were recorded from the per-experiment executables
//! (`chaos_sweep`, `watchdog_dump`, `all_experiments`) before they were
//! folded into one, so a change to the command-line layer cannot move a
//! seeded document by a byte or rename a series, column or scalar.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use buckwild_telemetry::{json, ExperimentResult};

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn bench(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_buckwild-bench"));
    command.args(args);
    command
}

fn succeed(mut command: Command) -> Output {
    let output = command.output().expect("executable spawns");
    assert!(
        output.status.success(),
        "{command:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

#[test]
fn chaos_sweep_seed_7_json_is_byte_identical() {
    let output = succeed(bench(&["chaos_sweep", "--seed", "7", "--format", "json"]));
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert_eq!(stdout, golden("chaos_sweep_seed7.json"));
}

#[test]
fn watchdog_seed_7_stall_bundle_is_byte_identical() {
    let out: PathBuf =
        std::env::temp_dir().join(format!("buckwild-watchdog-{}", std::process::id()));
    let mut command = bench(&["watchdog", "--seed", "7", "--fault", "stall", "--out"]);
    command.arg(&out);
    succeed(command);
    let written = |name: &str| {
        std::fs::read_to_string(out.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    for name in ["flight.jsonl", "anomalies.json"] {
        assert_eq!(
            written(name),
            golden(&format!("watchdog_seed7_stall/{name}")),
            "{name}"
        );
    }
    // The preamble ends with the probed `hardware` block, which belongs
    // to the host; everything before it is a function of the flags.
    let flags_part = |text: String| -> String {
        let at = text.find("\"hardware\"").expect("preamble has hardware");
        text[..at].to_string()
    };
    assert_eq!(
        flags_part(written("preamble.json")),
        flags_part(golden("watchdog_seed7_stall/preamble.json"))
    );
    let _ = std::fs::remove_dir_all(&out);
}

/// One line per experiment id, series (with its columns) and scalar.
fn shapes(documents: &[ExperimentResult]) -> String {
    let mut out = String::new();
    for doc in documents {
        out.push_str(&format!("{}\n", doc.id));
        for series in &doc.series {
            let columns = series.columns.join(" | ");
            out.push_str(&format!("  series {}: {columns}\n", series.name));
        }
        for (name, _) in &doc.scalars {
            out.push_str(&format!("  scalar {name}\n"));
        }
    }
    out
}

#[test]
#[ignore = "runs all 22 experiments; use `cargo test --release -- --ignored` (~40 s)"]
fn every_experiment_keeps_its_series_columns_and_scalars() {
    let mut command = bench(&["all", "--format", "json"]);
    command.env("BUCKWILD_SECONDS", "0.02");
    let stdout = String::from_utf8(succeed(command).stdout).expect("utf-8");
    let array = json::parse(&stdout).expect("one JSON array");
    let documents: Vec<ExperimentResult> = array
        .as_array()
        .expect("array of documents")
        .iter()
        .map(|doc| ExperimentResult::from_json_value(doc).expect("schema-valid document"))
        .collect();
    assert_eq!(shapes(&documents), golden("shapes.txt"));
}
