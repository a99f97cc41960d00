//! Quickstart: train low-precision asynchronous SGD on logistic regression.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --backend sharded
//! cargo run --release --example quickstart -- --isa scalar
//! cargo run --release --example quickstart -- --trace /tmp/quickstart.json
//! cargo run --release --example quickstart -- --metrics-addr 127.0.0.1:9187
//! cargo run --release --example quickstart -- --obs-log /tmp/quickstart_obs.jsonl
//! ```
//!
//! Generates a synthetic logistic-regression problem (the paper's §4
//! generative model), trains it at full precision and at the paper's
//! flagship D8M8 signature, and compares quality and throughput. With
//! `--backend sharded`, workers train on private per-core model replicas
//! synchronized over delta rings instead of one shared atomic model. With
//! `--trace <path>`, the runs are traced and their merged span timeline is
//! written as Chrome trace-event JSON (load it in `chrome://tracing` or
//! Perfetto); a per-phase self-time summary prints to stderr. With
//! `--metrics-addr`, the training metrics are scrapeable live
//! (`curl http://<addr>/metrics` returns Prometheus text exposition);
//! with `--obs-log`, a JSONL time series of stamped metric snapshots is
//! written for offline plotting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use buckwild::prelude::*;
use buckwild::Backend;
use buckwild_dataset::generate;
use buckwild_obs::{MetricsExporter, ObsLogThread, ObsLogger};
use buckwild_telemetry::{Recorder, ShardedRecorder};

struct Args {
    trace_path: Option<String>,
    backend: Backend,
    metrics_addr: Option<String>,
    obs_log: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        trace_path: None,
        backend: Backend::SharedModel,
        metrics_addr: None,
        obs_log: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => match args.next() {
                Some(path) => parsed.trace_path = Some(path),
                None => {
                    eprintln!("quickstart: --trace requires a path");
                    std::process::exit(2);
                }
            },
            "--backend" => match args.next().map(|v| v.parse()) {
                Some(Ok(backend)) => parsed.backend = backend,
                Some(Err(e)) => {
                    eprintln!("quickstart: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("quickstart: --backend requires `shared` or `sharded`");
                    std::process::exit(2);
                }
            },
            "--isa" => match args.next().map(|v| v.parse::<buckwild::KernelIsa>()) {
                Some(Ok(isa)) => {
                    let _ = buckwild::kernel_isa::set_active(isa);
                }
                Some(Err(e)) => {
                    eprintln!("quickstart: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("quickstart: --isa requires `scalar`, `avx2`, or `auto`");
                    std::process::exit(2);
                }
            },
            "--metrics-addr" => match args.next() {
                Some(addr) if !addr.is_empty() => parsed.metrics_addr = Some(addr),
                _ => {
                    eprintln!("quickstart: --metrics-addr requires a host:port");
                    std::process::exit(2);
                }
            },
            "--obs-log" => match args.next() {
                Some(path) if !path.is_empty() => parsed.obs_log = Some(path),
                _ => {
                    eprintln!("quickstart: --obs-log requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("quickstart: unrecognized argument `{other}`");
                eprintln!(
                    "usage: quickstart [--backend {{shared,sharded}}] \
                     [--isa {{scalar,avx2,auto}}] [--trace <path>] \
                     [--metrics-addr <host:port>] [--obs-log <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn main() {
    let Args {
        trace_path,
        backend,
        metrics_addr,
        obs_log,
    } = parse_args();
    let n = 256; // model size
    let m = 4000; // examples
    println!("generating logistic regression problem: n = {n}, m = {m}");
    let problem = generate::logistic_dense(n, m, 42);

    println!("backend: {backend}");
    let base = SgdConfig::new(Loss::Logistic)
        .backend(backend)
        .step_size(0.15)
        .step_decay(0.8)
        .epochs(12)
        .threads(2)
        .seed(7);

    // One shared tracer: the three runs land in one timeline. One shared
    // recorder: the exporter and the obs log see cumulative metrics.
    let tracer = trace_path.as_ref().map(|_| RingTracer::new());
    let observing = metrics_addr.is_some() || obs_log.is_some();
    let recorder = Arc::new(ShardedRecorder::new(2));
    let exporter = metrics_addr.as_deref().map(|addr| {
        let source = recorder.clone();
        let exporter = MetricsExporter::start(addr, Arc::new(move || source.snapshot()))
            .unwrap_or_else(|e| {
                eprintln!("quickstart: cannot serve metrics on {addr}: {e}");
                std::process::exit(1);
            });
        eprintln!(
            "metrics: live at http://{}/metrics while training runs",
            exporter.local_addr()
        );
        exporter
    });
    let finished_runs = Arc::new(AtomicU64::new(0));
    let obs_thread = obs_log.as_deref().map(|path| {
        let logger = ObsLogger::create(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("quickstart: cannot create {path}: {e}");
            std::process::exit(1);
        });
        let source = recorder.clone();
        let runs = finished_runs.clone();
        ObsLogThread::spawn(
            logger,
            Duration::from_millis(100),
            Box::new(move || (runs.load(Ordering::Relaxed), source.snapshot())),
        )
    });

    for sig in ["D32fM32f", "D16M16", "D8M8"] {
        let config = base
            .clone()
            .signature(sig.parse().expect("static signature"));
        let report = match &tracer {
            Some(tracer) => config
                .train_traced(&problem.data, &*recorder, tracer)
                .expect("valid config"),
            None if observing => config
                .train_traced(&problem.data, &*recorder, &NoopTracer)
                .expect("valid config"),
            None => config.train(&problem.data).expect("valid config"),
        };
        finished_runs.fetch_add(1, Ordering::Relaxed);
        let acc = accuracy(Loss::Logistic, report.model(), &problem.data);
        println!(
            "{sig:>9}: final loss {:.4}, train accuracy {:.1}%, throughput {:.3} GNPS",
            report.final_loss(),
            acc * 100.0,
            report.gnps(),
        );
    }
    if let Some(thread) = obs_thread {
        if let Err(e) = thread.stop() {
            eprintln!("quickstart: obs log write failed: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "obs log: JSONL time series written to {}",
            obs_log.as_deref().unwrap_or_default()
        );
    }
    drop(exporter);
    if let (Some(path), Some(tracer)) = (&trace_path, tracer) {
        let trace = tracer.drain();
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            eprintln!("quickstart: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "trace: {} spans -> {path} (open in chrome://tracing or Perfetto)",
            trace.events().len()
        );
        eprintln!("{}", trace.self_time_summary());
    }
    println!();
    println!(
        "The low-precision runs match full-precision quality — the paper's core claim. \
         The SIMD throughput wins show up in the single-thread kernel benchmarks \
         (`cargo run --release -p buckwild-bench -- table2`); the multi-threaded \
         engine above pays for Rust's per-element atomic accesses either way."
    );
}
