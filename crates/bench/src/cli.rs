//! Shared command-line handling for the experiment binaries.
//!
//! Every binary under `src/bin/` accepts the same flags:
//!
//! * `--format {text,json}` — stdout rendering (default `text`, the
//!   classic aligned tables; `json` prints the [`ExperimentResult`]
//!   document described in README.md).
//! * `--json <path>` — additionally write the JSON document to `path`,
//!   regardless of the stdout format.
//! * `--trace <path>` — after the experiment, run the traced reference
//!   training run and write its Chrome trace-event JSON to `path` (see
//!   [`observe`](crate::observe)).
//! * `--roofline` — print the DMGC roofline (compute / memory / coherence
//!   breakdown with predicted and measured GNPS) after the experiment.
//! * `--help` — print usage.
//!
//! Emitted JSON is validated against the schema (a parse round-trip
//! through [`ExperimentResult::from_json`]) before it is printed or
//! written, so a schema regression fails the binary instead of producing
//! an unreadable trajectory file.

use std::process::ExitCode;

use buckwild::Backend;
use buckwild_kernels::KernelIsa;
use buckwild_telemetry::json::Value;
use buckwild_telemetry::ExperimentResult;

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
    /// Optional experiment seed override (consumed by seeded binaries;
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

fn usage(name: &str) -> String {
    format!(
        "usage: {name} [--format {{text,json}}] [--json <path>] [--seed <u64>]\n\
                       [--trace <path>] [--roofline] [--backend {{shared,sharded}}]\n\
                       [--isa {{scalar,avx2,auto}}]\n\
         \n\
           --format text   aligned tables on stdout (default)\n\
         --format json   ExperimentResult JSON on stdout\n\
         --json <path>   also write the JSON document to <path>\n\
         --seed <u64>    override the experiment seed (seeded binaries)\n\
         --trace <path>  write a Chrome trace of the reference traced run\n\
         --roofline      print the DMGC compute/memory/coherence roofline\n\
         --backend <b>   train on `shared` (Hogwild!) or `sharded` (delta\n\
                         rings) model storage; default shared\n\
         --isa <isa>     kernel instruction-set tier: `scalar`, `avx2`, or\n\
                         `auto` (default: BUCKWILD_ISA or the hardware\n\
                         probe; clamped to what the CPU supports)\n\
         \n\
         budget knobs (environment): BUCKWILD_SECONDS, BUCKWILD_FULL=1"
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

fn emit(name: &str, results: &[ExperimentResult], options: &Options) -> ExitCode {
    let json = match validated_json(results) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match options.format {
        Format::Text => {
            for r in results {
                print!("{}", r.render_text());
            }
        }
        Format::Json => println!("{json}"),
    }
    if let Some(path) = &options.json_path {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("{name}: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    observability_pass(name, options)
}

/// Runs the post-experiment `--trace` / `--roofline` pass.
fn observability_pass(name: &str, options: &Options) -> ExitCode {
    let seed = options.seed.unwrap_or(crate::observe::DEFAULT_SEED);
    if let Some(path) = &options.trace_path {
        if let Err(e) = crate::observe::write_reference_trace(path, seed) {
            eprintln!("{name}: cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if options.roofline {
        let (report, comparison) = crate::observe::roofline_with_backends(seed);
        print!("{}", report.render_text());
        println!("{}", comparison.headline());
    }
    ExitCode::SUCCESS
}

fn dispatch<F: FnOnce() -> Vec<ExperimentResult>>(name: &str, build: F) -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Some(options)) => {
            apply_backend(&options);
            emit(name, &build(), &options)
        }
        Ok(None) => {
            println!("{}", usage(name));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: {e}\n{}", usage(name));
            ExitCode::from(2)
        }
    }
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

/// Entry point for a single-experiment binary: parses the process
/// arguments, runs `build`, and renders per the flags.
pub fn run<F: FnOnce() -> ExperimentResult>(name: &str, build: F) -> ExitCode {
    dispatch(name, || vec![build()])
}

/// Entry point for a multi-experiment binary; JSON output is an array of
/// experiment documents.
pub fn run_many<F: FnOnce() -> Vec<ExperimentResult>>(name: &str, build: F) -> ExitCode {
    dispatch(name, build)
}

/// Entry point for a seeded single-experiment binary: like [`run`], but
/// `build` receives the `--seed` value (or `default_seed` when the flag is
/// absent), so the same invocation always reproduces the same document.
pub fn run_seeded<F: FnOnce(u64) -> ExperimentResult>(
    name: &str,
    default_seed: u64,
    build: F,
) -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Some(options)) => {
            apply_backend(&options);
            let seed = options.seed.unwrap_or(default_seed);
            emit(name, &[build(seed)], &options)
        }
        Ok(None) => {
            println!("{}", usage(name));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: {e}\n{}", usage(name));
            ExitCode::from(2)
        }
    }
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
}
