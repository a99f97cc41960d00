//! Closed-loop load generator for the online prediction server:
//! `cargo run --release -p buckwild-bench --bin serve_bench`.
//!
//! Trains an 8-bit logistic model on background threads (publishing an
//! epoch-tagged snapshot into the serving hub after every epoch), starts
//! the sharded TCP server, and saturates it with closed-loop clients for
//! the measurement window. Prints one structured JSON report to stdout:
//! request/prediction throughput, p50/p95/p99 request latency from the
//! server's telemetry histograms, the epoch lag of served snapshots, and
//! the training GNPS sustained under the serving load.
//!
//! ```text
//! serve_bench [--seconds <f64>] [--clients <n>] [--rows <n>]
//!             [--shards <n>] [--backend shared|sharded]
//!             [--features <n>] [--examples <n>] [--train-threads <n>]
//!             [--seed <n>] [--isa <isa>] [--compact]
//!             [--metrics-addr <host:port>] [--obs-log <path>]
//! ```
//!
//! With `--metrics-addr` the run is scrapeable while it is live
//! (`curl http://<addr>/metrics` returns Prometheus text exposition of
//! the `serve.*` metrics); with `--obs-log` a JSONL time series of
//! stamped snapshots is written for offline plotting.

use std::process::ExitCode;

use buckwild::Backend;
use buckwild_bench::serve::{run_serve_load, ServeLoadOptions};

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
        "usage: serve_bench [--seconds <f64>] [--clients <n>] [--rows <n>]\n\
         \x20                  [--shards <n>] [--backend shared|sharded]\n\
         \x20                  [--features <n>] [--examples <n>]\n\
         \x20                  [--train-threads <n>] [--seed <n>] [--compact]\n\
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

fn parse_args() -> Result<Option<Args>, String> {
    let mut parsed = Args {
        opts: default_opts(),
        compact: false,
    };
    let mut args = std::env::args().skip(1);
    let positive = |flag: &str, value: Option<String>| -> Result<usize, String> {
        match value.map(|v| v.parse::<usize>()) {
            Some(Ok(n)) if n >= 1 => Ok(n),
            Some(_) => Err(format!("{flag} requires a positive integer")),
            None => Err(format!("{flag} requires a value")),
        }
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("serve_bench: {e}\n{}", usage());
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
