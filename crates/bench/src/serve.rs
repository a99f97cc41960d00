//! Closed-loop load harness for the `buckwild-serve` prediction server.
//!
//! One [`run_serve_load`] sample is the full online-serving story in
//! miniature: training runs on its own threads publishing epoch-tagged
//! snapshots into a [`SnapshotHub`], a sharded [`PredictServer`] answers
//! the wire protocol, and a pool of **closed-loop** clients (next request
//! issued the moment the previous response lands — the saturating regime)
//! hammers it over real TCP for a fixed window. The report combines the
//! client-side view (request/prediction throughput over the window) with
//! the server's own telemetry (p50/p95/p99 request latency from the
//! `serve.request_ns` histogram, epoch lag of served snapshots) and the
//! training side (GNPS sustained *while serving*).
//!
//! `buckwild-bench serve` ([`main`]) is a flag parser around this harness
//! (`--help` lists the flags). With `--metrics-addr` the run is scrapeable
//! while it is live (`curl http://<addr>/metrics` returns Prometheus text
//! exposition of the `serve.*` metrics); with `--obs-log` a JSONL time
//! series of stamped snapshots is written for offline plotting.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use buckwild::{Backend, Loss, SgdConfig, TrainControl};
use buckwild_dataset::generate;
use buckwild_obs::{ObsLogThread, ObsLogger};
use buckwild_prng::{split_seed, Prng, Xorshift128};
use buckwild_serve::wire::status;
use buckwild_serve::{PredictClient, PredictServer, ServeConfig, SnapshotHub};
use buckwild_telemetry::json::Value;
use buckwild_telemetry::{HistogramSummary, Recorder};

use crate::cli::positive;

/// Upper bound on epochs for the open-ended training loop; the stop flag
/// fires long before this.
const EPOCH_CAP: usize = 1_000_000;

/// How long to wait for the first snapshot before giving up.
const FIRST_SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(30);

/// Sampling period of the `--obs-log` JSONL time series.
const OBS_LOG_INTERVAL: Duration = Duration::from_millis(200);

/// One load-generation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLoadOptions {
    /// Model features (also the request row width).
    pub features: usize,
    /// Training examples in the synthetic logistic problem.
    pub examples: usize,
    /// Measurement window in seconds (after the first snapshot lands).
    pub seconds: f64,
    /// Closed-loop client workers.
    pub clients: usize,
    /// Rows per predict request.
    pub rows_per_request: usize,
    /// Server shards (accept/serve threads).
    pub shards: usize,
    /// Training backend publishing the snapshots.
    pub backend: Backend,
    /// Training worker threads.
    pub train_threads: usize,
    /// Seed pinning the problem and the client batches.
    pub seed: u64,
    /// Bind a live Prometheus scrape endpoint here for the duration of
    /// the run (`--metrics-addr`).
    pub metrics_addr: Option<String>,
    /// Write a JSONL metrics time series here while the run is live
    /// (`--obs-log`).
    pub obs_log: Option<PathBuf>,
}

impl ServeLoadOptions {
    /// The pinned scenario `buckwild-bench serve` defaults to: an 8-bit (`D8M8`) model of
    /// 256 features, 2 training workers, 2 server shards, 2 clients
    /// sending 16-row batches.
    #[must_use]
    pub fn pinned(backend: Backend, seconds: f64, seed: u64) -> Self {
        ServeLoadOptions {
            features: 256,
            examples: 2048,
            seconds,
            clients: 2,
            rows_per_request: 16,
            shards: 2,
            backend,
            train_threads: 2,
            seed,
            metrics_addr: None,
            obs_log: None,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLoadReport {
    /// Backend that trained under the load.
    pub backend: Backend,
    /// Measured window length in seconds.
    pub wall_seconds: f64,
    /// Requests the server answered during the window.
    pub requests: u64,
    /// Individual predictions returned (sum of OK batch sizes).
    pub predictions: u64,
    /// Requests answered before the first snapshot (should be 0: the
    /// window opens after the first publication).
    pub no_model: u64,
    /// Server-side request latency distribution, nanoseconds
    /// (`serve.request_ns`).
    pub latency_ns: HistogramSummary,
    /// Epochs between each served snapshot and the newest published one
    /// (`serve.epoch_lag`).
    pub epoch_lag: HistogramSummary,
    /// Snapshots training published over the whole run.
    pub epochs_published: u64,
    /// Training throughput (GNPS) sustained while serving.
    pub train_gnps: f64,
    /// Final training loss (sanity: serving must not break training).
    pub final_loss: f64,
}

impl ServeLoadReport {
    /// Requests per second over the window.
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.requests as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Predictions per second over the window.
    #[must_use]
    pub fn predictions_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.predictions as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// The report as a JSON document (what `buckwild-bench serve` prints).
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let summary = |h: &HistogramSummary| {
            Value::object(vec![
                ("count", Value::from(h.count)),
                ("mean", Value::from(h.mean())),
                ("min", Value::from(if h.count == 0 { 0.0 } else { h.min })),
                ("max", Value::from(if h.count == 0 { 0.0 } else { h.max })),
                ("p50", Value::from(h.p50)),
                ("p95", Value::from(h.p95)),
                ("p99", Value::from(h.p99)),
            ])
        };
        Value::object(vec![
            ("backend", Value::from(self.backend.name())),
            ("wall_seconds", Value::from(self.wall_seconds)),
            ("requests", Value::from(self.requests)),
            ("predictions", Value::from(self.predictions)),
            ("no_model", Value::from(self.no_model)),
            ("requests_per_sec", Value::from(self.requests_per_sec())),
            (
                "predictions_per_sec",
                Value::from(self.predictions_per_sec()),
            ),
            ("latency_ns", summary(&self.latency_ns)),
            ("epoch_lag", summary(&self.epoch_lag)),
            ("epochs_published", Value::from(self.epochs_published)),
            ("train_gnps", Value::from(self.train_gnps)),
            ("final_loss", Value::from(self.final_loss)),
        ])
    }
}

/// Runs one closed-loop load sample: train + serve + saturate.
///
/// # Panics
///
/// Panics if the server cannot bind, training fails, or no snapshot is
/// published within `FIRST_SNAPSHOT_TIMEOUT` (30 s).
#[must_use]
pub fn run_serve_load(opts: &ServeLoadOptions) -> ServeLoadReport {
    let hub = Arc::new(SnapshotHub::new());
    let mut config = ServeConfig::new("127.0.0.1:0").shards(opts.shards);
    if let Some(metrics_addr) = &opts.metrics_addr {
        config = config.metrics_addr(metrics_addr.clone());
    }
    let server = PredictServer::start(Arc::clone(&hub), &config).expect("bind prediction server");
    if let Some(metrics_addr) = server.metrics_addr() {
        eprintln!("metrics endpoint listening on http://{metrics_addr}/metrics");
    }
    let obs_log = opts.obs_log.as_ref().map(|path| {
        let logger = ObsLogger::create(path).expect("create obs log");
        let hub = Arc::clone(&hub);
        let recorder = server.recorder();
        ObsLogThread::spawn(
            logger,
            OBS_LOG_INTERVAL,
            Box::new(move || (hub.latest_epoch().unwrap_or(0), recorder.snapshot())),
        )
    });
    let addr = server.local_addr();

    // Training runs open-ended on its own thread until the window ends.
    let stop_training = Arc::new(AtomicBool::new(false));
    let trainer = {
        let stop = Arc::clone(&stop_training);
        let observer = hub.observer();
        let opts = opts.clone();
        std::thread::spawn(move || {
            let problem = generate::logistic_dense(opts.features, opts.examples, opts.seed);
            SgdConfig::new(Loss::Logistic)
                .signature("D8M8".parse().expect("valid signature"))
                .backend(opts.backend)
                .threads(opts.train_threads)
                .epochs(EPOCH_CAP)
                .seed(opts.seed)
                .on_epoch(move |_| {
                    if stop.load(Ordering::Relaxed) {
                        TrainControl::Stop
                    } else {
                        TrainControl::Continue
                    }
                })
                .on_snapshot(observer)
                .train(&problem.data)
                .expect("training under load")
        })
    };

    // Open the measurement window only once a model is being served, so
    // throughput numbers measure serving, not training warm-up.
    let waited = Instant::now();
    while hub.latest_epoch().is_none() {
        assert!(
            waited.elapsed() < FIRST_SNAPSHOT_TIMEOUT,
            "training never published a snapshot"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(opts.seconds);
    let clients: Vec<_> = (0..opts.clients)
        .map(|c| {
            let opts = opts.clone();
            std::thread::spawn(move || {
                let mut rng = Xorshift128::seed_from(split_seed(opts.seed, 7 + c as u64));
                let batch: Vec<f32> = (0..opts.rows_per_request * opts.features)
                    .map(|_| rng.next_f32() * 2.0 - 1.0)
                    .collect();
                let mut client = PredictClient::connect(addr).expect("connect client");
                let mut no_model = 0u64;
                while Instant::now() < deadline {
                    let resp = client
                        .predict(&batch, opts.features)
                        .expect("predict request");
                    match resp.status {
                        status::OK => {}
                        status::NO_MODEL => no_model += 1,
                        other => panic!("unexpected response status {other}"),
                    }
                }
                no_model
            })
        })
        .collect();

    let mut no_model = 0u64;
    for c in clients {
        no_model += c.join().expect("client panicked");
    }
    let wall_seconds = window.elapsed().as_secs_f64();

    stop_training.store(true, Ordering::Relaxed);
    let report = trainer.join().expect("trainer panicked");
    let metrics = server.shutdown();
    if let Some(obs_log) = obs_log {
        // The sampler takes one final snapshot (with the final counts,
        // since it shares the server's recorder) before stopping.
        obs_log.stop().expect("obs log write");
    }

    ServeLoadReport {
        backend: opts.backend,
        wall_seconds,
        requests: metrics
            .counter(buckwild_serve::metric::REQUESTS)
            .unwrap_or(0),
        predictions: metrics
            .counter(buckwild_serve::metric::PREDICTIONS)
            .unwrap_or(0),
        no_model,
        latency_ns: metrics
            .histogram(buckwild_serve::metric::REQUEST_NS)
            .unwrap_or_default(),
        epoch_lag: metrics
            .histogram(buckwild_serve::metric::EPOCH_LAG)
            .unwrap_or_default(),
        epochs_published: hub.published(),
        train_gnps: report.gnps(),
        final_loss: report.final_loss(),
    }
}

struct Args {
    opts: ServeLoadOptions,
    compact: bool,
}

fn default_opts() -> ServeLoadOptions {
    ServeLoadOptions::pinned(Backend::SharedModel, 2.0, 1701)
}

fn usage() -> String {
    let d = default_opts();
    format!(
        "usage: buckwild-bench serve [--seconds <f64>] [--clients <n>] [--rows <n>]\n\
         \x20                           [--shards <n>] [--backend shared|sharded]\n\
         \x20                           [--features <n>] [--examples <n>]\n\
         \x20                           [--train-threads <n>] [--seed <n>] [--compact]\n\
         \n\
         --seconds <f64>      measurement window (default {})\n\
         --clients <n>        closed-loop client workers (default {})\n\
         --rows <n>           rows per predict request (default {})\n\
         --shards <n>         server accept/serve threads (default {})\n\
         --backend <name>     training backend: shared | sharded (default shared)\n\
         --features <n>       model features (default {})\n\
         --examples <n>       training examples (default {})\n\
         --train-threads <n>  training workers (default {})\n\
         --seed <n>           problem/batch seed (default {})\n\
         --isa <isa>          kernel ISA tier: scalar | avx2 | auto\n\
         --metrics-addr <a>   serve live Prometheus metrics at <host:port>\n\
         --obs-log <path>     write a JSONL metrics time series to <path>\n\
         --compact            single-line JSON instead of pretty",
        d.seconds,
        d.clients,
        d.rows_per_request,
        d.shards,
        d.features,
        d.examples,
        d.train_threads,
        d.seed,
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        opts: default_opts(),
        compact: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seconds" => match args.next().map(|v| v.parse::<f64>()) {
                Some(Ok(s)) if s > 0.0 => parsed.opts.seconds = s,
                Some(_) => return Err("--seconds requires a positive number".into()),
                None => return Err("--seconds requires a value".into()),
            },
            "--clients" => parsed.opts.clients = positive("--clients", args.next())?,
            "--rows" => parsed.opts.rows_per_request = positive("--rows", args.next())?,
            "--shards" => parsed.opts.shards = positive("--shards", args.next())?,
            "--features" => parsed.opts.features = positive("--features", args.next())?,
            "--examples" => parsed.opts.examples = positive("--examples", args.next())?,
            "--train-threads" => {
                parsed.opts.train_threads = positive("--train-threads", args.next())?;
            }
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => parsed.opts.seed = s,
                Some(_) => return Err("--seed requires an integer".into()),
                None => return Err("--seed requires a value".into()),
            },
            "--backend" => match args.next().as_deref() {
                Some("shared") => parsed.opts.backend = Backend::SharedModel,
                Some("sharded") => parsed.opts.backend = Backend::ShardedDelta,
                Some(other) => return Err(format!("unknown backend `{other}`")),
                None => return Err("--backend requires shared|sharded".into()),
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
            "--metrics-addr" => match args.next() {
                Some(addr) if !addr.is_empty() => parsed.opts.metrics_addr = Some(addr),
                _ => return Err("--metrics-addr requires a host:port".into()),
            },
            "--obs-log" => match args.next() {
                Some(path) if !path.is_empty() => {
                    parsed.opts.obs_log = Some(std::path::PathBuf::from(path));
                }
                _ => return Err("--obs-log requires a path".into()),
            },
            "--compact" => parsed.compact = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(Some(parsed))
}

/// The `buckwild-bench serve` subcommand: runs one load scenario and
/// prints its report as one JSON document on stdout.
pub fn main(args: impl Iterator<Item = String>) -> ExitCode {
    let args = match parse_args(args) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("buckwild-bench serve: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = run_serve_load(&args.opts);
    let json = report.to_json_value();
    if args.compact {
        println!("{}", json.to_json());
    } else {
        println!("{}", json.to_json_pretty());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_harness_saturates_and_reports() {
        let mut opts = ServeLoadOptions::pinned(Backend::SharedModel, 0.2, 1701);
        opts.features = 32;
        opts.examples = 512;
        opts.clients = 2;
        let report = run_serve_load(&opts);
        assert!(report.requests > 0, "closed loop sent nothing");
        assert_eq!(
            report.predictions,
            report.requests * opts.rows_per_request as u64
                - report.no_model * opts.rows_per_request as u64
        );
        assert!(report.latency_ns.count >= report.requests);
        assert!(report.latency_ns.p50 > 0.0);
        assert!(report.latency_ns.p99 >= report.latency_ns.p50);
        assert!(report.epochs_published > 0);
        assert!(report.train_gnps > 0.0);
        assert!(report.final_loss.is_finite());
        let json = report.to_json_value().to_json_pretty();
        let parsed = buckwild_telemetry::json::parse(&json).expect("valid json");
        assert!(
            parsed
                .get("requests_per_sec")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(parsed
            .get("latency_ns")
            .and_then(|l| l.get("p95"))
            .is_some());
    }

    #[test]
    fn obs_log_captures_a_parseable_time_series() {
        let log_path = std::env::temp_dir().join(format!(
            "buckwild-serve-obslog-{}.jsonl",
            std::process::id()
        ));
        let mut opts = ServeLoadOptions::pinned(Backend::SharedModel, 0.3, 42);
        opts.features = 32;
        opts.examples = 512;
        opts.metrics_addr = Some("127.0.0.1:0".to_string());
        opts.obs_log = Some(log_path.clone());
        let report = run_serve_load(&opts);
        assert!(report.requests > 0);
        let text = std::fs::read_to_string(&log_path).expect("obs log written");
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "no samples in the obs log");
        for line in &lines {
            let v = buckwild_telemetry::json::parse(line).expect("valid JSONL line");
            assert!(v.get("epoch").is_some());
            assert!(v.get("wall_ns").is_some());
            assert!(v.get("metrics").is_some());
        }
        // The final sample carries the run's closing counts.
        let last = buckwild_telemetry::json::parse(lines[lines.len() - 1]).unwrap();
        let requests = last
            .get("metrics")
            .and_then(|m| m.get("serve.requests"))
            .and_then(|c| c.get("value"))
            .and_then(Value::as_f64)
            .expect("serve.requests in final sample");
        assert_eq!(requests as u64, report.requests);
        let _ = std::fs::remove_file(&log_path);
    }
}
