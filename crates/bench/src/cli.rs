//! The `buckwild-bench` command line.
//!
//! ```text
//! buckwild-bench <experiment> [flags]   one entry of the registry
//! buckwild-bench all [flags]            every entry, in paper order
//! buckwild-bench serve [flags]          load generator (see `serve`)
//! buckwild-bench watchdog [flags]       post-mortem run (see `watchdog`)
//! ```
//!
//! Dispatch, `all` and the usage text all read [`REGISTRY`]. Every
//! experiment accepts the same flags:
//!
//! * `--format {text,json}` — stdout rendering (default `text`, the
//!   classic aligned tables; `json` prints the [`ExperimentResult`]
//!   document described in README.md, or an array of them for `all`).
//! * `--json <path>` — additionally write the JSON document to `path`,
//!   regardless of the stdout format.
//! * `--trace <path>` — after the experiment, run the traced reference
//!   training run and write its Chrome trace-event JSON to `path` (see
//!   [`observe`](crate::observe)).
//! * `--roofline` — print the DMGC roofline (compute / memory / coherence
//!   breakdown with predicted and measured GNPS) after the experiment; on
//!   stderr under `--format json`, so stdout stays one document.
//! * `--help` — print usage.
//!
//! Emitted JSON is validated against the schema (a parse round-trip
//! through [`ExperimentResult::from_json`]) before it is printed or
//! written, so a schema regression fails the command instead of producing
//! an unreadable trajectory file.

use std::io::{self, Write};
use std::process::ExitCode;

use buckwild::Backend;
use buckwild_kernels::KernelIsa;
use buckwild_telemetry::json::Value;
use buckwild_telemetry::ExperimentResult;

use crate::experiments::{Experiment, REGISTRY};

/// Stdout rendering choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned human-readable tables (the default).
    Text,
    /// The machine-readable JSON document.
    Json,
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Stdout rendering.
    pub format: Format,
    /// Optional path to also write the JSON document to.
    pub json_path: Option<String>,
    /// Optional experiment seed override (consumed by seeded experiments;
    /// ignored by the rest).
    pub seed: Option<u64>,
    /// Optional path to write the reference-run Chrome trace to.
    pub trace_path: Option<String>,
    /// Print the DMGC roofline after the experiment.
    pub roofline: bool,
    /// Optional training-backend override, applied process-wide before the
    /// experiment builds its configurations.
    pub backend: Option<Backend>,
    /// Optional kernel-ISA override, pinned process-wide before the
    /// experiment runs (`--isa scalar` forces the chunked fallback;
    /// requests above the hardware are clamped).
    pub isa: Option<KernelIsa>,
}

/// The usage text: synopsis, every registry entry, and the shared flags.
fn usage() -> String {
    let experiments: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: buckwild-bench <experiment> [--format {{text,json}}] [--json <path>]\n\
         \x20                     [--seed <u64>] [--trace <path>] [--roofline]\n\
         \x20                     [--backend {{shared,sharded}}] [--isa {{scalar,avx2,auto}}]\n\
         \x20      buckwild-bench all [same flags]      every experiment, in paper order\n\
         \x20      buckwild-bench serve [--help]        load generator for the prediction server\n\
         \x20      buckwild-bench watchdog [--help]     seeded chaos run with a post-mortem bundle\n\
         \n\
         experiments: {}\n\
         \n\
         --format text   aligned tables on stdout (default)\n\
         --format json   ExperimentResult JSON on stdout (`all`: an array)\n\
         --json <path>   also write the JSON document to <path>\n\
         --seed <u64>    override the experiment seed (seeded experiments)\n\
         --trace <path>  write a Chrome trace of the reference traced run\n\
         --roofline      print the DMGC compute/memory/coherence roofline\n\
         \x20               (on stderr with --format json)\n\
         --backend <b>   train on `shared` (Hogwild!) or `sharded` (delta\n\
         \x20               rings) model storage; default shared\n\
         --isa <isa>     kernel instruction-set tier: `scalar`, `avx2`, or\n\
         \x20               `auto` (default: BUCKWILD_ISA or the hardware\n\
         \x20               probe; clamped to what the CPU supports)\n\
         \n\
         budget knobs (environment): BUCKWILD_SECONDS, BUCKWILD_FULL=1",
        experiments.join(" ")
    )
}

/// Parses flags; `Ok(None)` means `--help` was requested.
///
/// # Errors
///
/// Returns a message naming the offending flag or missing value.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Options>, String> {
    let mut options = Options {
        format: Format::Text,
        json_path: None,
        seed: None,
        trace_path: None,
        roofline: false,
        backend: None,
        isa: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().as_deref() {
                Some("text") => options.format = Format::Text,
                Some("json") => options.format = Format::Json,
                Some(other) => {
                    return Err(format!("unknown format `{other}` (expected text or json)"))
                }
                None => return Err("--format requires a value (text or json)".into()),
            },
            "--json" => match it.next() {
                Some(path) => options.json_path = Some(path),
                None => return Err("--json requires a path".into()),
            },
            "--seed" => match it.next() {
                Some(value) => match value.parse() {
                    Ok(seed) => options.seed = Some(seed),
                    Err(_) => return Err(format!("invalid seed `{value}` (expected a u64)")),
                },
                None => return Err("--seed requires a value".into()),
            },
            "--trace" => match it.next() {
                Some(path) => options.trace_path = Some(path),
                None => return Err("--trace requires a path".into()),
            },
            "--roofline" => options.roofline = true,
            "--backend" => match it.next() {
                Some(value) => match value.parse() {
                    Ok(backend) => options.backend = Some(backend),
                    Err(e) => return Err(format!("invalid backend `{value}`: {e}")),
                },
                None => return Err("--backend requires a value (shared or sharded)".into()),
            },
            "--isa" => match it.next() {
                Some(value) => match value.parse() {
                    Ok(isa) => options.isa = Some(isa),
                    Err(e) => return Err(format!("invalid ISA `{value}`: {e}")),
                },
                None => return Err("--isa requires a value (scalar, avx2, or auto)".into()),
            },
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(Some(options))
}

/// The value of a flag that takes a positive integer (the `serve` and
/// `watchdog` subcommands' counts).
pub(crate) fn positive(flag: &str, value: Option<String>) -> Result<usize, String> {
    match value.map(|v| v.parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => Ok(n),
        Some(_) => Err(format!("{flag} requires a positive integer")),
        None => Err(format!("{flag} requires a value")),
    }
}

/// Serializes a result set, validating each document against the schema.
///
/// # Errors
///
/// Returns the schema violation if a result does not round-trip.
fn validated_json(results: &[ExperimentResult]) -> Result<String, String> {
    for r in results {
        ExperimentResult::from_json_value(&r.to_json_value())
            .map_err(|e| format!("experiment `{}` violates the schema: {e}", r.id))?;
    }
    if results.len() == 1 {
        Ok(results[0].to_json())
    } else {
        Ok(Value::Array(
            results
                .iter()
                .map(ExperimentResult::to_json_value)
                .collect(),
        )
        .to_json_pretty())
    }
}

/// Renders `results` per the flags: the documents on `out`, diagnostics
/// on `err`.
fn emit(
    results: &[ExperimentResult],
    options: &Options,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> io::Result<ExitCode> {
    let json = match validated_json(results) {
        Ok(json) => json,
        Err(e) => {
            writeln!(err, "buckwild-bench: {e}")?;
            return Ok(ExitCode::FAILURE);
        }
    };
    match options.format {
        Format::Text => {
            for r in results {
                write!(out, "{}", r.render_text())?;
            }
        }
        Format::Json => writeln!(out, "{json}")?,
    }
    if let Some(path) = &options.json_path {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            writeln!(err, "buckwild-bench: cannot write {path}: {e}")?;
            return Ok(ExitCode::FAILURE);
        }
    }
    // The post-experiment `--trace` / `--roofline` pass.
    let seed = options.seed.unwrap_or(crate::observe::DEFAULT_SEED);
    if let Some(path) = &options.trace_path {
        if let Err(e) = crate::observe::write_reference_trace(path, seed) {
            writeln!(err, "buckwild-bench: cannot write trace {path}: {e}")?;
            return Ok(ExitCode::FAILURE);
        }
    }
    if options.roofline {
        let (report, comparison) = crate::observe::roofline_with_backends(seed);
        // Under `--format json` stdout is exactly one JSON document.
        let sink: &mut dyn Write = match options.format {
            Format::Text => &mut *out,
            Format::Json => &mut *err,
        };
        write!(sink, "{}", report.render_text())?;
        writeln!(sink, "{}", comparison.headline())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Installs the `--backend` override as the process default, so every
/// `SgdConfig::new` the experiment builds picks it up, and pins `--isa`.
fn apply_backend(options: &Options) {
    if let Some(backend) = options.backend {
        buckwild::set_default_backend(backend);
    }
    if let Some(isa) = options.isa {
        // First pin wins by design; kernels have not run yet at this point,
        // so the flag always lands.
        let _ = buckwild_kernels::isa::set_active(isa);
    }
}

fn dispatch(
    mut args: impl Iterator<Item = String>,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> io::Result<ExitCode> {
    let selected: &[Experiment] = match args.next().as_deref() {
        None => {
            writeln!(err, "{}", usage())?;
            return Ok(ExitCode::from(2));
        }
        Some("--help" | "-h") => {
            writeln!(out, "{}", usage())?;
            return Ok(ExitCode::SUCCESS);
        }
        Some("serve") => return Ok(crate::serve::main(args)),
        Some("watchdog") => return Ok(crate::watchdog::main(args)),
        Some("all") => &REGISTRY,
        Some(name) => match REGISTRY.iter().find(|(entry, _)| *entry == name) {
            Some(experiment) => std::slice::from_ref(experiment),
            None => {
                writeln!(
                    err,
                    "buckwild-bench: unknown experiment `{name}`\n{}",
                    usage()
                )?;
                return Ok(ExitCode::from(2));
            }
        },
    };
    match parse(args) {
        Ok(Some(options)) => {
            apply_backend(&options);
            let results: Vec<ExperimentResult> = selected
                .iter()
                .map(|(_, experiment)| experiment(options.seed))
                .collect();
            emit(&results, &options, out, err)
        }
        Ok(None) => {
            writeln!(out, "{}", usage())?;
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            writeln!(err, "buckwild-bench: {e}\n{}", usage())?;
            Ok(ExitCode::from(2))
        }
    }
}

/// Entry point of the `buckwild-bench` executable: `args` are the process
/// arguments after the program name. Exits 2 with the usage text on a bad
/// subcommand or flag, 1 when an output cannot be written.
pub fn run(
    args: impl Iterator<Item = String>,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> ExitCode {
    dispatch(args, out, err).unwrap_or_else(|e| {
        // A closed pipe on stdout/stderr; nothing left to report it on.
        let _ = writeln!(err, "buckwild-bench: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_to_text() {
        let options = parse(args(&[])).unwrap().unwrap();
        assert_eq!(options.format, Format::Text);
        assert_eq!(options.json_path, None);
    }

    #[test]
    fn parses_format_and_path() {
        let options = parse(args(&["--format", "json", "--json", "/tmp/out.json"]))
            .unwrap()
            .unwrap();
        assert_eq!(options.format, Format::Json);
        assert_eq!(options.json_path.as_deref(), Some("/tmp/out.json"));
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(args(&["--help"])).unwrap(), None);
        assert_eq!(parse(args(&["-h"])).unwrap(), None);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(args(&["--format"])).is_err());
        assert!(parse(args(&["--format", "yaml"])).is_err());
        assert!(parse(args(&["--json"])).is_err());
        assert!(parse(args(&["--frobnicate"])).is_err());
        assert!(parse(args(&["--seed"])).is_err());
        assert!(parse(args(&["--seed", "not-a-number"])).is_err());
        assert!(parse(args(&["--seed", "-1"])).is_err());
        assert!(parse(args(&["--trace"])).is_err());
        assert!(parse(args(&["--backend"])).is_err());
        assert!(parse(args(&["--backend", "mongodb"])).is_err());
        assert!(parse(args(&["--isa"])).is_err());
        assert!(parse(args(&["--isa", "quantum"])).is_err());
    }

    #[test]
    fn parses_isa() {
        let options = parse(args(&["--isa", "scalar"])).unwrap().unwrap();
        assert_eq!(options.isa, Some(KernelIsa::Scalar));
        let options = parse(args(&["--isa", "avx2"])).unwrap().unwrap();
        assert_eq!(options.isa, Some(KernelIsa::Avx2));
        let options = parse(args(&["--isa", "auto"])).unwrap().unwrap();
        assert_eq!(options.isa, Some(buckwild_kernels::isa::detected()));
        assert_eq!(parse(args(&[])).unwrap().unwrap().isa, None);
    }

    #[test]
    fn parses_backend() {
        let options = parse(args(&["--backend", "sharded"])).unwrap().unwrap();
        assert_eq!(options.backend, Some(Backend::ShardedDelta));
        let options = parse(args(&["--backend", "shared"])).unwrap().unwrap();
        assert_eq!(options.backend, Some(Backend::SharedModel));
        assert_eq!(parse(args(&[])).unwrap().unwrap().backend, None);
    }

    #[test]
    fn parses_trace_and_roofline() {
        let options = parse(args(&["--trace", "/tmp/trace.json", "--roofline"]))
            .unwrap()
            .unwrap();
        assert_eq!(options.trace_path.as_deref(), Some("/tmp/trace.json"));
        assert!(options.roofline);
        let defaults = parse(args(&[])).unwrap().unwrap();
        assert_eq!(defaults.trace_path, None);
        assert!(!defaults.roofline);
    }

    #[test]
    fn parses_seed() {
        let options = parse(args(&["--seed", "42"])).unwrap().unwrap();
        assert_eq!(options.seed, Some(42));
        assert_eq!(parse(args(&[])).unwrap().unwrap().seed, None);
    }

    #[test]
    fn validated_json_round_trips() {
        let mut r = ExperimentResult::new("t", "title");
        r.scalar("x", 1.0);
        let one = validated_json(std::slice::from_ref(&r)).unwrap();
        assert!(ExperimentResult::from_json(&one).is_ok());
        let many = validated_json(&[r.clone(), r]).unwrap();
        assert!(many.trim_start().starts_with('['));
    }

    /// Runs the command line in-process, capturing `(exit, stdout, stderr)`.
    fn run_captured(list: &[&str]) -> (ExitCode, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run(args(list).into_iter(), &mut out, &mut err);
        let text = |bytes| String::from_utf8(bytes).expect("utf-8");
        (code, text(out), text(err))
    }

    #[test]
    fn unknown_subcommand_exits_2_and_lists_every_experiment() {
        let (code, out, err) = run_captured(&["table9"]);
        assert_eq!(code, ExitCode::from(2));
        assert!(out.is_empty(), "{out}");
        assert!(err.contains("unknown experiment `table9`"), "{err}");
        for (name, _) in REGISTRY {
            assert!(err.contains(name), "{name} missing from {err}");
        }
    }

    #[test]
    fn usage_lists_every_registry_entry() {
        let (code, out, err) = run_captured(&["--help"]);
        assert_eq!(code, ExitCode::SUCCESS);
        assert!(err.is_empty(), "{err}");
        let (bare_code, bare_out, bare_err) = run_captured(&[]);
        assert_eq!(bare_code, ExitCode::from(2));
        assert!(bare_out.is_empty(), "{bare_out}");
        for usage in [&out, &bare_err] {
            for word in ["all", "serve", "watchdog"] {
                assert!(usage.contains(&format!("buckwild-bench {word}")), "{usage}");
            }
            for (name, _) in REGISTRY {
                assert!(usage.contains(name), "{name} missing from {usage}");
            }
        }
    }

    #[test]
    fn seed_flag_reaches_the_seeded_experiment() {
        let (code, out, _) = run_captured(&["chaos_sweep", "--seed", "9", "--format", "json"]);
        assert_eq!(code, ExitCode::SUCCESS);
        let doc = ExperimentResult::from_json(&out).expect("one document");
        assert_eq!(doc.id, "chaos_sweep");
        assert!(
            doc.meta.contains(&("seed".to_string(), "9".to_string())),
            "{:?}",
            doc.meta
        );
    }

    #[test]
    fn json_stdout_is_one_document_even_with_roofline() {
        let _serial = crate::isa_pin_lock();
        let (code, out, err) = run_captured(&["table1", "--roofline", "--format", "json"]);
        assert_eq!(code, ExitCode::SUCCESS);
        let doc = ExperimentResult::from_json(&out).expect("stdout is exactly one document");
        assert_eq!(doc.id, "table1");
        assert!(err.contains("DMGC roofline"), "{err}");
        assert!(err.contains("coherence saved"), "{err}");
    }
}
