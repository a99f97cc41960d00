//! Integration tests for the sharded-delta training backend.
//!
//! The load-bearing contract: with a single worker the sharded engine is
//! a *bit-identical* mirror of the shared-model engine — same model
//! bits, same per-epoch losses — at every precision signature, dense and
//! sparse, with and without minibatching. On top of that, multi-worker
//! sharded runs must converge to the same neighborhood as shared runs,
//! fault injection (stalls, drops, crash + checkpoint recovery) must
//! compose with the new backend, and the delta-exchange telemetry must
//! appear exactly when more than one worker is running.

use std::sync::{Arc, Mutex};

use buckwild::prelude::*;
use buckwild::{metric, Backend};
use buckwild_dataset::generate;

fn base(loss: Loss) -> SgdConfig {
    // Pin the backend explicitly so a BUCKWILD_BACKEND env override in the
    // ambient environment cannot skew the comparisons below.
    SgdConfig::new(loss)
        .backend(Backend::SharedModel)
        .step_size(0.5)
        .step_decay(0.9)
        .epochs(4)
        .seed(71)
}

#[test]
fn one_worker_dense_is_bit_identical_across_backends() {
    let p = generate::logistic_dense(48, 300, 7);
    for sig in ["D32fM32f", "D16M16", "D8M8"] {
        let config = base(Loss::Logistic)
            .signature(sig.parse().unwrap())
            .threads(1);
        let shared = config.clone().train(&p.data).unwrap();
        let sharded = config
            .backend(Backend::ShardedDelta)
            .train(&p.data)
            .unwrap();
        assert_eq!(
            shared.model(),
            sharded.model(),
            "{sig}: one-worker sharded must mirror shared bit-for-bit"
        );
        assert_eq!(shared.epoch_losses(), sharded.epoch_losses(), "{sig}");
        assert_eq!(shared.iterations(), sharded.iterations(), "{sig}");
        assert_eq!(
            shared.numbers_processed(),
            sharded.numbers_processed(),
            "{sig}"
        );
    }
}

#[test]
fn one_worker_minibatch_is_bit_identical_across_backends() {
    let p = generate::logistic_dense(32, 240, 13);
    for sig in ["D8M8", "D32fM32f"] {
        let config = base(Loss::Logistic)
            .signature(sig.parse().unwrap())
            .minibatch(8)
            .threads(1);
        let shared = config.clone().train(&p.data).unwrap();
        let sharded = config
            .backend(Backend::ShardedDelta)
            .train(&p.data)
            .unwrap();
        assert_eq!(shared.model(), sharded.model(), "{sig} minibatch=8");
        assert_eq!(shared.epoch_losses(), sharded.epoch_losses(), "{sig}");
    }
}

#[test]
fn one_worker_sparse_is_bit_identical_across_backends() {
    let p = generate::logistic_sparse(64, 300, 0.2, 23);
    for sig in ["D8M8", "D16M16", "D32fM32f"] {
        let config = base(Loss::Logistic)
            .signature(sig.parse().unwrap())
            .threads(1);
        let shared = config.clone().train(&p.data).unwrap();
        let sharded = config
            .backend(Backend::ShardedDelta)
            .train(&p.data)
            .unwrap();
        assert_eq!(shared.model(), sharded.model(), "{sig} sparse");
        assert_eq!(shared.epoch_losses(), sharded.epoch_losses(), "{sig}");
    }
}

#[test]
fn multi_worker_sharded_converges_near_shared() {
    let p = generate::logistic_dense(48, 600, 41);
    // Default delta_every (16): short enough to keep replicas in sync,
    // long enough that timeshared workers (CI boxes can have fewer cores
    // than threads) don't exchange pathologically stale deltas.
    let config = base(Loss::Logistic).epochs(8).threads(4);
    let shared = config.clone().train(&p.data).unwrap();
    let sharded = config
        .backend(Backend::ShardedDelta)
        .train(&p.data)
        .unwrap();
    assert!(
        shared.final_loss() < 0.55 && sharded.final_loss() < 0.55,
        "both backends beat chance: shared {} sharded {}",
        shared.final_loss(),
        sharded.final_loss()
    );
    assert!(
        sharded.final_loss() < shared.final_loss() + 0.1,
        "sharded lands in the shared backend's neighborhood: shared {} sharded {}",
        shared.final_loss(),
        sharded.final_loss()
    );
}

#[test]
fn delta_exchange_telemetry_appears_only_with_peers() {
    let p = generate::logistic_dense(32, 200, 3);
    let solo = base(Loss::Logistic)
        .backend(Backend::ShardedDelta)
        .threads(1)
        .train(&p.data)
        .unwrap();
    assert_eq!(
        solo.metrics().counter(metric::DELTA_PACKETS),
        None,
        "a single worker has no peers and records no shard.* metrics"
    );
    let duo = base(Loss::Logistic)
        .backend(Backend::ShardedDelta)
        .threads(2)
        .delta_every(1)
        .train(&p.data)
        .unwrap();
    let packets = duo.metrics().counter(metric::DELTA_PACKETS).unwrap_or(0);
    let bytes = duo.metrics().counter(metric::DELTA_BYTES).unwrap_or(0);
    assert!(
        packets > 0,
        "two workers exchanging every iteration send packets"
    );
    assert!(
        bytes >= packets * (32 + 4) as u64,
        "each packet is at least payload + scale bytes: {bytes} for {packets}"
    );
}

#[test]
fn sharded_backend_counts_injected_faults() {
    let p = generate::logistic_dense(32, 300, 29);
    let report = base(Loss::Logistic)
        .backend(Backend::ShardedDelta)
        .threads(2)
        .epochs(2)
        .faults(FaultPlan::new(11).stalls(0.5, 1).drop_writes(0.3))
        .train(&p.data)
        .unwrap();
    let stalls = report.metrics().counter(buckwild_chaos::metric::STALLS);
    let dropped = report
        .metrics()
        .counter(buckwild_chaos::metric::DROPPED_WRITES);
    assert!(stalls.unwrap_or(0) > 0, "expected stalls, got {stalls:?}");
    assert!(dropped.unwrap_or(0) > 0, "expected drops, got {dropped:?}");
}

#[test]
fn sharded_crash_recovery_converges_near_clean_loss() {
    let p = generate::logistic_dense(48, 500, 31);
    let config = base(Loss::Logistic)
        .backend(Backend::ShardedDelta)
        .threads(2)
        .epochs(6);
    let clean = config.clone().train(&p.data).unwrap();
    let faulty = config
        .faults(FaultPlan::new(31).crash(0, 2, 50))
        .train(&p.data)
        .unwrap();
    assert_eq!(
        faulty.metrics().counter(buckwild_chaos::metric::RECOVERIES),
        Some(1)
    );
    assert!(
        faulty.final_loss() < clean.final_loss() + 0.1,
        "crashed {} vs clean {}",
        faulty.final_loss(),
        clean.final_loss()
    );
}

#[test]
fn sharded_traced_run_captures_delta_sync_phase() {
    let p = generate::logistic_dense(32, 200, 5);
    let tracer = RingTracer::with_capacity(1 << 14);
    base(Loss::Logistic)
        .backend(Backend::ShardedDelta)
        .threads(2)
        .delta_every(2)
        .epochs(2)
        .train_traced(&p.data, &buckwild_telemetry::NoopRecorder, &tracer)
        .unwrap();
    let trace = tracer.drain();
    assert!(
        trace.events().iter().any(|s| s.phase == Phase::DeltaSync),
        "the exchange protocol must appear in the timeline"
    );
}

/// Logs every completed span as `(timeline row, phase, arg)` in completion
/// order — no clock, so the log is a pure function of the schedule.
#[derive(Default)]
struct OrderTracer(Arc<Mutex<Vec<(usize, Phase, u64)>>>);

struct OrderWorker {
    row: usize,
    log: Arc<Mutex<Vec<(usize, Phase, u64)>>>,
}

impl Tracer for OrderTracer {
    type Worker = OrderWorker;
    const ACTIVE: bool = true;

    fn worker(&self, row: usize) -> OrderWorker {
        OrderWorker {
            row,
            log: Arc::clone(&self.0),
        }
    }
}

impl WorkerTracer for OrderWorker {
    const ACTIVE: bool = true;

    fn now(&self) -> u64 {
        0
    }

    fn record(&mut self, phase: Phase, _start: u64, _dur: u64, arg: u64) {
        self.log.lock().unwrap().push((self.row, phase, arg));
    }

    fn set_time(&mut self, _time: u64) {}
}

fn span_shape<D: TrainData>(config: &SgdConfig, data: &D) -> Vec<(usize, Phase, u64)> {
    let tracer = OrderTracer::default();
    config
        .train_traced(data, &buckwild_telemetry::NoopRecorder, &tracer)
        .unwrap();
    let log = std::mem::take(&mut *tracer.0.lock().unwrap());
    log.into_iter()
        .filter(|&(_, phase, _)| phase != Phase::DeltaSync)
        .collect()
}

#[test]
fn one_worker_span_shape_is_identical_across_backends() {
    // The tracer contract the observability plane and the benchmark's
    // `--trace 1` ledger read: same phases, same arguments, same order.
    let dense = generate::logistic_dense(32, 120, 5);
    let sparse = generate::logistic_sparse(64, 120, 0.2, 5);
    for minibatch in [1, 8] {
        let config = base(Loss::Logistic)
            .signature("D8M8".parse().unwrap())
            .minibatch(minibatch)
            .epochs(2)
            .threads(1);
        let sharded = config.clone().backend(Backend::ShardedDelta);
        let shape = span_shape(&config, &dense.data);
        assert!(
            shape.iter().any(|&(_, p, _)| p == Phase::ModelWrite)
                && shape
                    .iter()
                    .any(|&(row, p, _)| row == 1 && p == Phase::Epoch),
            "worker and driver rows are both traced"
        );
        assert_eq!(
            shape,
            span_shape(&sharded, &dense.data),
            "dense minibatch={minibatch}"
        );
        assert_eq!(
            span_shape(&config, &sparse.data),
            span_shape(&sharded, &sparse.data),
            "sparse minibatch={minibatch}"
        );
    }
}

#[test]
fn backend_round_trips_through_parse_and_display() {
    for (text, backend) in [
        ("shared", Backend::SharedModel),
        ("hogwild", Backend::SharedModel),
        ("sharded", Backend::ShardedDelta),
        ("sharded-delta", Backend::ShardedDelta),
    ] {
        assert_eq!(text.parse::<Backend>().unwrap(), backend);
    }
    assert_eq!(Backend::ShardedDelta.to_string(), "sharded");
    assert!("ring-of-fire".parse::<Backend>().is_err());
}
