//! One workload, one pass: set up, measure, check, report.
//!
//! The untraced pass yields the end-to-end metrics; the traced pass yields
//! the per-layer ledger and a trace file. Both run every correctness
//! check that applies to what they executed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::host::{self, StealMeter};
use crate::metrics::{self, Def};
use crate::probe::{self, Probes};
use crate::serve::{self, Served, Window};
use crate::span::SpanLog;
use crate::stats::{self, Summary};
use crate::surface::Data;
use crate::train::{self, Rep};
use crate::workload::Spec;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed training repetitions per untraced run: at least, and at most.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 9;
/// Share of `--seconds` phase 1 may use before it stops adding repetitions.
const TRAIN_SHARE: f64 = 0.55;
/// Serving windows per run, at least.
const MIN_WINDOWS: usize = 8;
/// Ledger repetitions of the traced pass, and the share of `--seconds`
/// its serving phase may use.
const TRACED_REPS: usize = 3;
const TRACED_SERVE_SHARE: f64 = 0.3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub spec: Spec,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the measured phases should take together.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
}

/// One metric as measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Its definition.
    pub def: &'static Def,
    /// The reported value: a median of repetitions where there are any.
    pub value: f64,
    /// The repetitions behind the value.
    pub summary: Option<Summary>,
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was seen.
    pub detail: String,
}

/// Everything one run found.
#[derive(Debug, Clone)]
pub struct Report {
    /// What was run.
    pub args: Args,
    /// Every metric of the pass, in definition order.
    pub metrics: Vec<Measured>,
    /// Operations attempted: training repetitions plus requests.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
    /// The run's checks.
    pub checks: Vec<Check>,
    /// Stolen CPU share of each repetition and serving phase.
    pub steal: Vec<f64>,
    /// Where the trace was written, for a traced pass.
    pub trace_file: Option<String>,
    /// Self time per span name, for a traced pass.
    pub self_times: Vec<(String, u64, usize)>,
}

impl Report {
    /// True when nothing failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// True when some repetition lost more than 5% of the machine to the
    /// hypervisor: its numbers say more about the neighbours.
    pub fn noisy(&self) -> bool {
        self.steal.iter().any(|&s| s > host::NOISY_STEAL_FRAC)
    }
}

/// Operations attempted and failed so far.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    steal: Vec<f64>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    /// Keeps the first few failure messages for the report.
    fn note(&mut self, why: String) {
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Counts a full-length repetition and applies its checks.
    fn rep(&mut self, spec: &Spec, data: &Data, rep: &Rep) {
        self.attempted += 1;
        self.steal.push(rep.steal_frac);
        if let Some(why) = train::check(spec, data, rep) {
            self.fail(format!("training repetition: {why}"));
        }
    }

    fn window(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        if let Some(why) = &w.first_failure {
            self.note(format!("request: {why}"));
        }
    }
}

/// A generated dataset with a server answering for it.
struct Ctx {
    data: Data,
    served: Served,
    pool: Vec<Vec<f32>>,
}

/// Set-up as a user meets it: generate the dataset, bind the server,
/// connect, publish a first snapshot (a one-epoch `train()`), and get one
/// verified response. Returns the context and the seconds generation took.
fn set_up(args: &Args, tally: &mut Tally, log: Option<&mut SpanLog>) -> Result<(Ctx, f64), String> {
    let spec = &args.spec;
    let start = Instant::now();
    let data = Data::generate(spec.problem, args.seed);
    let generated = Instant::now();
    let mut served = Served::start(args.traced).map_err(|e| format!("server start: {e}"))?;
    let pool = serve::request_pool(&data, spec.serve_rows);
    let first = Spec {
        epochs: 1,
        ..spec.clone()
    };
    tally.attempted += 1;
    let rep = train::run_rep(&first, &data, args.seed, 1, &served.publisher, None)
        .expect("no stop flag was given");
    if let Some(why) = rep.failure {
        tally.fail(format!("first snapshot: {why}"));
    }
    tally.attempted += 1;
    let n = data.features();
    match served.client.request(&pool[0], n) {
        Err(e) => tally.fail(format!("first request: {e}")),
        Ok((response, _)) => {
            let mut scratch = Vec::new();
            if let Err(why) =
                serve::check_response(&mut served, &pool[0], n, &response, true, &mut scratch)
            {
                tally.fail(format!("first request: {why}"));
            }
        }
    }
    if let Some(log) = log {
        let outer = log.push("setup", start, Instant::now(), None, 0, 0);
        log.push("dataset.generate", start, generated, Some(outer), 0, 0);
    }
    let generate_s = (generated - start).as_secs_f64();
    Ok((Ctx { data, served, pool }, generate_s))
}

/// Phase 2's result.
struct ServePhase {
    /// Consecutive windows of [`serve::WINDOW_REQUESTS`] requests.
    windows: Vec<Window>,
    /// Which windows recorded spans.
    traced: Vec<bool>,
    /// Completed `train()` calls of the background trainer, the warm-up
    /// one included.
    trainer_reps: Vec<Rep>,
    publishes_per_s: f64,
}

/// Phase 2: one closed-loop client against the server while a 1-worker
/// trainer of the same task publishes a snapshot every epoch. The first
/// window warms up and is discarded; the phase ends with the first window
/// that finishes after `budget`, but not before [`MIN_WINDOWS`]. With a
/// `log`, even windows record spans and odd ones do not.
fn serve_phase(
    args: &Args,
    ctx: &mut Ctx,
    tally: &mut Tally,
    budget: Duration,
    mut log: Option<&mut SpanLog>,
) -> ServePhase {
    let Ctx { data, served, pool } = ctx;
    let (data, pool) = (&*data, &*pool);
    let n = data.features();
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = Arc::clone(&served.publisher);
    let published_before = publisher.hub().published();
    let steal = StealMeter::start();
    let begin = Instant::now();
    let mut out = ServePhase {
        windows: Vec::new(),
        traced: Vec::new(),
        trainer_reps: Vec::new(),
        publishes_per_s: 0.0,
    };
    std::thread::scope(|s| {
        let trainer = s.spawn(|| {
            let mut reps = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                match train::run_rep(&args.spec, data, args.seed, 1, &publisher, Some(&stop)) {
                    Some(rep) => reps.push(rep),
                    None => break,
                }
            }
            reps
        });
        tally.window(&serve::run_window(served, pool, n, None));
        while out.windows.len() < MIN_WINDOWS || begin.elapsed() < budget {
            let traced = log.is_some() && out.windows.len().is_multiple_of(2);
            let window_log = if traced { log.as_deref_mut() } else { None };
            let window = serve::run_window(served, pool, n, window_log);
            tally.window(&window);
            // A dead connection fails at once, forever: stop asking.
            let dead = window.latency_ns.is_empty();
            out.windows.push(window);
            out.traced.push(traced);
            if dead {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        out.trainer_reps = trainer.join().expect("trainer thread panicked");
    });
    for rep in &out.trainer_reps {
        tally.rep(&args.spec, data, rep);
    }
    tally.steal.push(steal.frac());
    let published = publisher.hub().published() - published_before;
    out.publishes_per_s = published as f64 / begin.elapsed().as_secs_f64();
    out
}

fn def(name: &str, traced: bool) -> &'static Def {
    metrics::defs(traced)
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} is not a defined metric"))
}

/// An end-to-end metric: the median of its repetitions.
fn measured(name: &str, samples: &[f64]) -> Measured {
    let summary = stats::summarize(samples);
    Measured {
        def: def(name, false),
        value: summary.as_ref().map_or(0.0, |s| s.median),
        summary,
    }
}

/// Percentile `p` of every window's latencies, in microseconds.
fn latency_us(windows: &[&Window], p: f64) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| !w.latency_ns.is_empty())
        .map(|w| quantile_us(&stats::sorted_f64(&mut w.latency_ns.clone()), p))
        .collect()
}

/// Shuts the server down and checks its request count against the
/// client's.
fn shut_down(ctx: Ctx) -> (Check, u64) {
    let sent = ctx.served.client.sent;
    let counted = ctx.served.shutdown();
    let check = Check {
        name: "serve: server's request counter equals the client's",
        ok: counted == sent,
        detail: format!("server {counted}, client {sent}"),
    };
    (check, counted)
}

fn serving_checks(windows: &[Window]) -> Check {
    let verified: u64 = windows.iter().map(|w| w.verified).sum();
    let ok: usize = windows.iter().map(|w| w.latency_ns.len()).sum();
    Check {
        name: "serve: responses verified bit-for-bit against their snapshot",
        ok: verified > 0,
        detail: format!("{verified} of {ok} OK responses recomputed"),
    }
}

/// Runs the pass `args` asks for.
pub fn run(args: Args) -> Result<Report, String> {
    if args.traced {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: Args) -> Result<Report, String> {
    let spec = &args.spec;
    let mut tally = Tally::default();
    let mut checks = Vec::new();

    let mut setup_s = Vec::new();
    let mut ctx = None;
    for _ in 0..SETUPS {
        if let Some(old) = ctx.take() {
            // Five identical passes would only pad the report.
            checks.extend(Some(shut_down(old).0).filter(|c| !c.ok));
        }
        let start = Instant::now();
        ctx = Some(set_up(&args, &mut tally, None)?.0);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut ctx = ctx.expect("SETUPS > 0");

    let begin = Instant::now();
    let mut reps = Vec::new();
    if spec.phase1 {
        let workers = spec.workers();
        let rep = |tally: &mut Tally| {
            let rep = train::run_rep(
                spec,
                &ctx.data,
                args.seed,
                workers,
                &ctx.served.publisher,
                None,
            )
            .expect("no stop flag was given");
            tally.rep(spec, &ctx.data, &rep);
            rep
        };
        rep(&mut tally); // warm-up: page faults, first-touch, lazy init
        let budget = Duration::from_secs_f64(args.seconds * TRAIN_SHARE);
        while reps.len() < MIN_REPS || (reps.len() < MAX_REPS && begin.elapsed() < budget) {
            reps.push(rep(&mut tally));
        }
    }
    let left = (args.seconds - begin.elapsed().as_secs_f64()).max(args.seconds * 0.3);
    let budget = Duration::from_secs_f64(left);
    let phase = serve_phase(&args, &mut ctx, &mut tally, budget, None);
    if !spec.phase1 {
        // Training under serving load; the first call warms up.
        reps = phase.trainer_reps.iter().skip(1).cloned().collect();
    }
    checks.push(Check {
        name: "train: at least five timed repetitions",
        ok: reps.len() >= MIN_REPS,
        detail: format!("{} repetitions", reps.len()),
    });
    checks.push(serving_checks(&phase.windows));
    checks.push(shut_down(ctx).0);

    let gnps: Vec<f64> = reps.iter().map(Rep::gnps).collect();
    let to_loss: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.crossing(spec.target_loss).map(|k| r.at_s(k)))
        .collect();
    let windows: Vec<&Window> = phase.windows.iter().collect();
    let rps: Vec<f64> = windows.iter().map(|w| w.rps()).collect();
    let metrics = vec![
        measured("setup_s", &setup_s),
        measured("train_gnps", &gnps),
        measured("time_to_loss_s", &to_loss),
        measured("serve_rps", &rps),
        measured("serve_p50_us", &latency_us(&windows, 0.5)),
        measured("serve_p99_us", &latency_us(&windows, 0.99)),
        measured("peak_rss_mb", &[host::peak_rss_mib()]),
    ];
    Ok(Report {
        args,
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        checks,
        steal: tally.steal,
        trace_file: None,
        self_times: Vec::new(),
    })
}

fn traced(args: Args) -> Result<Report, String> {
    let spec = &args.spec;
    let workers = spec.workers();
    let mut tally = Tally::default();
    let mut checks = Vec::new();
    let mut log = SpanLog::new();
    let run_steal = StealMeter::start();

    let (mut ctx, generate_s) = set_up(&args, &mut tally, Some(&mut log))?;
    let probes = probe::run(spec, &ctx.data, args.seed, &ctx.pool[0], workers, &mut log);
    let overhead_s = probes.epoch_overhead_s();

    let mut rep_id = 0u64;
    let mut spans = |log: &mut SpanLog, outer: &str, rep: &Rep, lane: u32| {
        train::push_rep_spans(log, outer, rep, rep_id, overhead_s, lane);
        rep_id += 1;
    };
    let run_rep = |tally: &mut Tally, threads: usize| {
        let rep = train::run_rep(
            spec,
            &ctx.data,
            args.seed,
            threads,
            &ctx.served.publisher,
            None,
        )
        .expect("no stop flag was given");
        tally.rep(spec, &ctx.data, &rep);
        rep
    };

    let mut ledger = Vec::new();
    if spec.phase1 {
        run_rep(&mut tally, workers); // warm-up
        for _ in 0..TRACED_REPS {
            let rep = run_rep(&mut tally, workers);
            spans(&mut log, "rep", &rep, 0);
            ledger.push(rep);
        }
    }
    // A plain single-worker run of the same task, twice: the baseline for
    // scaling, and — one worker being deterministic — a bit-identity check.
    let t1: Vec<Rep> = (0..2).map(|_| run_rep(&mut tally, 1)).collect();
    for rep in &t1 {
        spans(&mut log, "t1_baseline", rep, 0);
    }
    let same_bits = |a: &Rep, b: &Rep| {
        a.losses.len() == b.losses.len()
            && a.losses
                .iter()
                .zip(&b.losses)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    };
    checks.push(Check {
        name: "train: 1-worker epoch losses bit-identical across two runs of one seed",
        ok: same_bits(&t1[0], &t1[1]),
        detail: format!(
            "final losses {:?} and {:?}",
            t1[0].losses.last(),
            t1[1].losses.last()
        ),
    });

    let budget = Duration::from_secs_f64(args.seconds * TRACED_SERVE_SHARE);
    let phase = serve_phase(&args, &mut ctx, &mut tally, budget, Some(&mut log));
    if !spec.phase1 {
        for rep in phase.trainer_reps.iter().skip(1) {
            spans(&mut log, "rep", rep, 3);
            ledger.push(rep.clone());
        }
    }
    ctx.served.publisher.drain_spans(&mut log);
    checks.push(Check {
        name: "train: at least one ledger repetition",
        ok: !ledger.is_empty(),
        detail: format!("{} repetitions", ledger.len()),
    });
    checks.push(serving_checks(&phase.windows));
    let (count_check, server_requests) = shut_down(ctx);
    checks.push(count_check);

    let trace_file = write_trace(spec.name, &log)?;
    let metrics = ledger_metrics(
        &args,
        &probes,
        generate_s,
        &ledger,
        &t1,
        &phase,
        server_requests,
        run_steal.frac(),
    );
    Ok(Report {
        args,
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        checks,
        steal: tally.steal,
        trace_file: Some(trace_file),
        self_times: log.self_time_by_name(),
    })
}

/// `benchmark/out/`, next to the manifest: inside the checkout wherever
/// the command is run from.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_trace(workload: &str, log: &SpanLog) -> Result<String, String> {
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, log.to_chrome_json()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn median_over(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    stats::median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Quantile `p` of ascending nanosecond samples, in microseconds; 0 of none.
fn quantile_us(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        0.0
    } else {
        stats::quantile(sorted_ns, p) / 1e3
    }
}

#[allow(clippy::too_many_arguments)]
fn ledger_metrics(
    args: &Args,
    probes: &Probes,
    generate_s: f64,
    ledger: &[Rep],
    t1: &[Rep],
    phase: &ServePhase,
    server_requests: u64,
    steal_frac: f64,
) -> Vec<Measured> {
    let spec = &args.spec;
    let workers = spec.workers() as f64;
    let epochs = spec.epochs as f64;
    let overhead_s = probes.epoch_overhead_s();
    let busy_gnps = |r: &Rep| r.numbers_processed as f64 / r.busy_s() / 1e9;

    let busy_s = median_over(ledger, Rep::busy_s);
    let gnps = median_over(ledger, busy_gnps);
    let t1_gnps = median_over(t1, busy_gnps);
    let eval_s = probes.eval_call_s * epochs;
    let publish_s = (probes.snapshot_ns + probes.hub_publish_ns) * epochs / 1e9;
    let unaccounted =
        |r: &Rep| (r.wall_s() - probes.quantize_s - r.busy_s() - eval_s - publish_s) / r.wall_s();
    let crossed: Vec<(f64, f64)> = ledger
        .iter()
        .filter_map(|r| {
            r.crossing(spec.target_loss)
                .map(|k| ((k + 1) as f64, r.marks[k].busy_s))
        })
        .collect();
    let shard = |i: usize| median_over(ledger, |r| r.shard[i] as f64);
    let packet_ns = probes.delta_quantize_ns / (workers - 1.0).max(1.0)
        + probes.ring_push_pop_ns
        + probes.delta_apply_ns;
    let sync_frac = shard(0) * packet_ns / (busy_s * workers * 1e9);

    let all: Vec<&Window> = phase.windows.iter().collect();
    let pick = |traced: bool| -> Vec<&Window> {
        let chosen = phase.windows.iter().zip(&phase.traced);
        chosen
            .filter(|(_, &t)| t == traced)
            .map(|(w, _)| w)
            .collect()
    };
    let p50 = |windows: &[&Window]| stats::median(&latency_us(windows, 0.5));
    let p50_all = p50(&all);
    let (p50_traced, p50_plain) = (p50(&pick(true)), p50(&pick(false)));
    let mut pooled: Vec<u64> = all
        .iter()
        .flat_map(|w| w.latency_ns.iter().copied())
        .collect();
    let pooled = stats::sorted_f64(&mut pooled);
    let tail = |p: f64| quantile_us(&pooled, p);
    let us = |pick: fn(&Window) -> &Vec<u64>| {
        let mut ns: Vec<u64> = all.iter().flat_map(|w| pick(w).iter().copied()).collect();
        quantile_us(&stats::sorted_f64(&mut ns), 0.5)
    };
    let in_process_us = (probes.encode_request_ns
        + probes.decode_request_ns
        + probes.score_batch_ns
        + probes.encode_response_ns
        + probes.decode_response_ns)
        / 1e3;
    let lag_samples: u64 = all.iter().map(|w| w.lag_samples).sum();
    let lag_sum: u64 = all.iter().map(|w| w.lag_sum).sum();

    let values: Vec<(&str, f64)> = vec![
        ("dataset.generate_s", generate_s),
        ("dataset.quantize_s", probes.quantize_s),
        ("kernels.dot_ns", probes.kernels_dot_ns),
        ("kernels.axpy_ns", probes.kernels_axpy_ns),
        ("kernels.iter_gnps", probes.kernels_iter_gnps),
        ("core.model.dot_ns", probes.model_dot_ns),
        ("core.model.axpy_ns", probes.model_axpy_ns),
        ("core.model.iter_gnps", probes.model_iter_gnps),
        (
            "core.model.contended_iter_gnps",
            probes.model_contended_iter_gnps,
        ),
        ("core.train.busy_s", busy_s),
        ("core.train.busy_gnps", gnps),
        ("core.train.t1_busy_gnps", t1_gnps),
        ("core.train.scaling_eff", gnps / (workers * t1_gnps)),
        (
            "core.train.loop_overhead_frac",
            1.0 - t1_gnps / probes.model_iter_gnps,
        ),
        (
            "core.train.prepare_s",
            median_over(ledger, |r| train::prepare_s(r, overhead_s)),
        ),
        (
            "core.train.driver_s",
            median_over(ledger, |r| train::driver_s(r, overhead_s)),
        ),
        ("core.metrics.eval_s", eval_s),
        (
            "core.train.epochs_to_loss",
            stats::median(&crossed.iter().map(|c| c.0).collect::<Vec<_>>()),
        ),
        (
            "core.train.busy_s_to_loss",
            stats::median(&crossed.iter().map(|c| c.1).collect::<Vec<_>>()),
        ),
        (
            "core.train.unaccounted_frac",
            median_over(ledger, unaccounted),
        ),
        ("core.shard.delta_packets", shard(0)),
        ("core.shard.delta_bytes", shard(1)),
        ("core.shard.ring_full_skips", shard(2)),
        ("kernels.delta.quantize_ns", probes.delta_quantize_ns),
        ("kernels.delta.apply_ns", probes.delta_apply_ns),
        ("core.ring.push_pop_ns", probes.ring_push_pop_ns),
        ("core.shard.sync_frac", sync_frac),
        ("serve.wire.encode_request_ns", probes.encode_request_ns),
        ("serve.wire.decode_request_ns", probes.decode_request_ns),
        ("serve.wire.encode_response_ns", probes.encode_response_ns),
        ("serve.wire.decode_response_ns", probes.decode_response_ns),
        ("core.predict.score_batch_ns", probes.score_batch_ns),
        ("core.predict.snapshot_ns", probes.snapshot_ns),
        ("serve.hub.publish_ns", probes.hub_publish_ns),
        ("serve.hub.current_ns", probes.hub_current_ns),
        ("serve.hub.publishes_per_s", phase.publishes_per_s),
        (
            "serve.hub.epoch_lag_mean",
            lag_sum as f64 / lag_samples as f64,
        ),
        ("serve.client.write_us", us(|w| &w.write_ns)),
        ("serve.client.wait_us", us(|w| &w.wait_ns)),
        ("serve.server.transport_us", p50_all - in_process_us),
        (
            "serve.client.p999_us",
            // Or the highest percentile the pooled samples support, when
            // a short run has fewer than ten beyond the 99.9th.
            stats::highest_supported_percentile(pooled.len()).map_or(0.0, tail),
        ),
        ("serve.client.max_us", tail(1.0)),
        ("serve.server.requests", server_requests as f64),
        ("host.steal_frac", steal_frac),
        ("host.nproc", host::nproc() as f64),
        ("bench.trace_overhead_frac", p50_traced / p50_plain - 1.0),
    ];
    values
        .into_iter()
        .map(|(name, value)| Measured {
            def: def(name, true),
            // A ratio over nothing (no packets, no windows) is 0, not NaN.
            value: if value.is_finite() { value } else { 0.0 },
            summary: None,
        })
        .collect()
}
