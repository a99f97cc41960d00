//! Seeded chaos-validated watchdog run: `buckwild-bench watchdog`.
//!
//! Trains under the deterministic chaos engine with an injected fault
//! schedule, feeds the run through the flight recorder (virtual clock)
//! and the anomaly watchdog, and writes the post-mortem bundle. The
//! whole pipeline is a pure function of the seed: two runs with the same
//! seed produce byte-identical `flight.jsonl` dumps — CI compares them
//! with `cmp`. The injected fault must trip its corresponding detector
//! (stalls → the `chaos.stalls` ceiling, dropped writes → the
//! `chaos.dropped_writes` ceiling); if nothing trips, the command exits
//! nonzero. `--help` lists the flags.

use std::path::PathBuf;
use std::process::ExitCode;

use buckwild::{ChaosSgdConfig, FaultPlan, Loss};
use buckwild_dataset::generate;
use buckwild_obs::{
    run_id_from_seed, CeilingDetector, ConvergenceStall, FlightRecorder, FlightTracer, ObsSample,
    Watchdog,
};
use buckwild_telemetry::json::Value;
use buckwild_telemetry::ShardedRecorder;

use crate::cli::positive;

const FEATURES: usize = 32;
const EXAMPLES: usize = 400;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    Stall,
    Drop,
    None,
}

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::Stall => "stall",
            Fault::Drop => "drop",
            Fault::None => "none",
        }
    }
}

/// The `hardware` block of `preamble.json`: the machine the bundle was
/// written on, and the kernel ISA tier the run executed under (the
/// *active* tier, so a `BUCKWILD_ISA` override shows up here).
fn hardware() -> Value {
    Value::object(vec![
        (
            "core_count",
            Value::from(buckwild_affinity::core_count() as u64),
        ),
        (
            "cache_line_bytes",
            Value::from(buckwild_affinity::cache_line_bytes()),
        ),
        (
            "simd_width_bits",
            Value::from(u64::from(buckwild_affinity::simd_width_bits())),
        ),
        ("isa", Value::from(buckwild_kernels::isa::active().name())),
    ])
}

struct Args {
    seed: u64,
    fault: Fault,
    out: PathBuf,
    epochs: usize,
    threads: usize,
    compact: bool,
}

fn usage() -> &'static str {
    "usage: buckwild-bench watchdog [--seed <n>] [--fault stall|drop|none] [--out <dir>]\n\
     \x20                              [--epochs <n>] [--threads <n>] [--compact]\n\
     \n\
     --seed <n>     fault-schedule and problem seed (default 7)\n\
     --fault <f>    injected fault: stall | drop | none (default stall)\n\
     --out <dir>    post-mortem bundle directory (default postmortem)\n\
     --epochs <n>   chaos-engine epochs (default 8)\n\
     --threads <n>  virtual workers (default 4)\n\
     --compact      single-line JSON summary instead of pretty"
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        seed: 7,
        fault: Fault::Stall,
        out: PathBuf::from("postmortem"),
        epochs: 8,
        threads: 4,
        compact: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => parsed.seed = s,
                Some(_) => return Err("--seed requires an integer".into()),
                None => return Err("--seed requires a value".into()),
            },
            "--fault" => match args.next().as_deref() {
                Some("stall") => parsed.fault = Fault::Stall,
                Some("drop") => parsed.fault = Fault::Drop,
                Some("none") => parsed.fault = Fault::None,
                Some(other) => return Err(format!("unknown fault `{other}`")),
                None => return Err("--fault requires stall|drop|none".into()),
            },
            "--out" => match args.next() {
                Some(dir) if !dir.is_empty() => parsed.out = PathBuf::from(dir),
                _ => return Err("--out requires a directory".into()),
            },
            "--epochs" => parsed.epochs = positive("--epochs", args.next())?,
            "--threads" => parsed.threads = positive("--threads", args.next())?,
            "--compact" => parsed.compact = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(Some(parsed))
}

/// The `buckwild-bench watchdog` subcommand: runs the seeded chaos run,
/// writes the post-mortem bundle and prints a JSON summary on stdout.
pub fn main(args: impl Iterator<Item = String>) -> ExitCode {
    let args = match parse_args(args) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("buckwild-bench watchdog: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let plan = match args.fault {
        Fault::Stall => FaultPlan::new(args.seed).stalls(0.05, 8),
        Fault::Drop => FaultPlan::new(args.seed).drop_writes(0.2),
        Fault::None => FaultPlan::new(args.seed),
    };
    let problem = generate::logistic_dense(FEATURES, EXAMPLES, args.seed);
    let config = ChaosSgdConfig::new(Loss::Logistic, plan)
        .threads(args.threads)
        .epochs(args.epochs);

    // Virtual-clock flight recorder: the dump is a pure function of the
    // seed, which is what CI's byte-identity check relies on.
    let run_id = run_id_from_seed(args.seed);
    let flight = FlightRecorder::virtual_clock(run_id, FlightRecorder::DEFAULT_CAPACITY);
    let tracer = FlightTracer::new(flight.clone());
    let recorder = ShardedRecorder::new(args.threads);
    let report = match config.train_traced(&problem.data, &recorder, &tracer) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("buckwild-bench watchdog: chaos training failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The detector corresponding to the injected fault, plus a stall
    // rule over the loss curve; a `none` run arms both fault ceilings
    // and demonstrates that a healthy run trips neither.
    let mut watchdog = Watchdog::new()
        .with_flight(flight.clone())
        .detect(ConvergenceStall::new(3, 1e-9));
    watchdog = match args.fault {
        Fault::Stall => watchdog.detect(CeilingDetector::new("chaos.stalls", 0.0)),
        Fault::Drop => watchdog.detect(CeilingDetector::new("chaos.dropped_writes", 0.0)),
        Fault::None => watchdog
            .detect(CeilingDetector::new("chaos.stalls", 0.0))
            .detect(CeilingDetector::new("chaos.dropped_writes", 0.0)),
    };

    // Replay the run's per-epoch losses, then judge the final metrics
    // snapshot. Sample times are epoch indices: deterministic.
    for (epoch, loss) in report.epoch_losses().iter().enumerate() {
        let _ = watchdog.observe(&ObsSample {
            epoch: epoch as u64,
            time: epoch as u64,
            loss: Some(*loss),
            snapshot: None,
        });
    }
    let last_epoch = args.epochs as u64 - 1;
    let _ = watchdog.observe(&ObsSample {
        epoch: last_epoch,
        time: last_epoch,
        loss: None,
        snapshot: Some(report.metrics().clone()),
    });

    let preamble = Value::object(vec![
        // The executable's old name: kept so a bundle stays byte-identical
        // per seed across the fold into `buckwild-bench watchdog`.
        ("tool", Value::from("watchdog_dump")),
        ("run_id", Value::from(format!("{run_id:016x}"))),
        ("seed", Value::from(args.seed)),
        ("fault", Value::from(args.fault.name())),
        ("epochs", Value::from(args.epochs as u64)),
        ("threads", Value::from(args.threads as u64)),
        ("features", Value::from(FEATURES as u64)),
        ("examples", Value::from(EXAMPLES as u64)),
        ("hardware", hardware()),
    ]);
    if let Err(e) = watchdog.write_postmortem(&args.out, &preamble, Some(report.metrics())) {
        eprintln!("buckwild-bench watchdog: writing bundle failed: {e}");
        return ExitCode::FAILURE;
    }

    let summary = Value::object(vec![
        ("out", Value::from(args.out.display().to_string())),
        ("run_id", Value::from(format!("{run_id:016x}"))),
        ("fault", Value::from(args.fault.name())),
        ("tripped", Value::from(watchdog.tripped())),
        ("anomalies", Value::from(watchdog.anomalies().len() as u64)),
        ("flight_events", Value::from(flight.recorded())),
        ("final_loss", Value::from(report.final_loss())),
    ]);
    if args.compact {
        println!("{}", summary.to_json());
    } else {
        println!("{}", summary.to_json_pretty());
    }

    // With a fault injected, the corresponding detector must have fired.
    if args.fault != Fault::None && !watchdog.tripped() {
        eprintln!(
            "buckwild-bench watchdog: injected `{}` fault but no detector tripped",
            args.fault.name()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
