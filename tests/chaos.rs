//! Integration tests for the fault & staleness injection engine.
//!
//! Two determinism contracts are exercised end-to-end: a [`FaultPlan`]'s
//! schedule is a pure function of its seed (byte-identical on expansion),
//! and the single-thread simulator ([`ChaosSgdConfig`]) produces
//! bit-identical reports for the same seed. Recovery is exercised by
//! crashing a worker mid-epoch and checking the run still converges close
//! to the fault-free loss.

use std::num::NonZeroU64;

use buckwild::prelude::*;
use buckwild_dataset::generate;

#[test]
fn schedule_bytes_are_a_pure_function_of_the_seed() {
    let knobs = |seed| {
        FaultPlan::new(seed)
            .stalls(0.1, 2)
            .drop_writes(0.2)
            .delay_writes(0.1, 4)
    };
    let a = knobs(42).schedule_bytes(4, 3, 128);
    let b = knobs(42).schedule_bytes(4, 3, 128);
    assert_eq!(a, b, "same seed must expand to a byte-identical schedule");
    let c = knobs(43).schedule_bytes(4, 3, 128);
    assert_ne!(a, c, "different seeds must produce different schedules");
}

#[test]
fn simulator_reports_are_bit_identical_per_seed() {
    let p = generate::logistic_dense(48, 400, 17);
    let plan = FaultPlan::new(5)
        .stalls(0.05, 2)
        .drop_writes(0.1)
        .delay_writes(0.2, 3)
        .obstinacy(0.5)
        .skew(1, 2);
    let config = ChaosSgdConfig::new(Loss::Logistic, plan)
        .threads(3)
        .epochs(6);
    let a = config.train(&p.data).unwrap();
    let b = config.train(&p.data).unwrap();
    // Full-report equality: model bits, losses, and telemetry all match.
    assert_eq!(a, b);
    assert!(a.final_loss().is_finite());
}

#[test]
fn simulator_crash_recovers_within_one_epoch_and_converges() {
    let p = generate::logistic_dense(48, 400, 19);
    let clean = ChaosSgdConfig::new(Loss::Logistic, FaultPlan::new(3))
        .epochs(8)
        .train(&p.data)
        .unwrap();
    let faulty = ChaosSgdConfig::new(Loss::Logistic, FaultPlan::new(3).crash(1, 3, 40))
        .epochs(8)
        .train(&p.data)
        .unwrap();
    assert_eq!(faulty.recoveries(), 1);
    // The implicit epoch-start checkpoint bounds the replay to < 1 epoch
    // of total work (2 workers x 200 iterations each).
    assert!(
        faulty.replayed_iterations() <= 400,
        "replayed {}",
        faulty.replayed_iterations()
    );
    assert_eq!(faulty.epoch_losses().len(), clean.epoch_losses().len());
    assert!(
        faulty.final_loss() < clean.final_loss() + 0.1,
        "crashed run {} vs clean {}",
        faulty.final_loss(),
        clean.final_loss()
    );
}

#[test]
fn periodic_checkpoints_bound_replay_tighter() {
    let p = generate::logistic_dense(32, 300, 23);
    let plan = FaultPlan::new(2)
        .crash(0, 2, 100)
        .checkpoint_every(NonZeroU64::new(64).unwrap());
    let report = ChaosSgdConfig::new(Loss::Logistic, plan)
        .epochs(5)
        .train(&p.data)
        .unwrap();
    assert_eq!(report.recoveries(), 1);
    // With a checkpoint every 64 total iterations, a rollback can lose at
    // most one full period of work.
    assert!(
        report.replayed_iterations() < 64,
        "{}",
        report.replayed_iterations()
    );
}

#[test]
fn threaded_engine_counts_injected_faults() {
    let p = generate::logistic_dense(32, 300, 29);
    let report = SgdConfig::new(Loss::Logistic)
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
fn threaded_crash_recovery_converges_near_clean_loss() {
    let p = generate::logistic_dense(48, 500, 31);
    let config = SgdConfig::new(Loss::Logistic).threads(2).epochs(6);
    let clean = config.train(&p.data).unwrap();
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
fn benign_plan_matches_uninjected_training() {
    let p = generate::logistic_dense(24, 200, 37);
    let config = SgdConfig::new(Loss::Logistic).threads(1).epochs(3);
    let plain = config.train(&p.data).unwrap();
    let benign = config.faults(FaultPlan::new(99)).train(&p.data).unwrap();
    assert_eq!(plain.model(), benign.model());
    assert_eq!(plain.epoch_losses(), benign.epoch_losses());
}

#[test]
fn invalid_plans_are_rejected_by_every_engine() {
    let p = generate::logistic_dense(8, 40, 47);
    let bad = FaultPlan::new(0).drop_writes(1.5);
    assert!(matches!(
        SgdConfig::new(Loss::Logistic)
            .faults(bad.clone())
            .train(&p.data),
        Err(TrainError::Plan(PlanError::InvalidRate(_)))
    ));
    assert!(ChaosSgdConfig::new(Loss::Logistic, bad)
        .train(&p.data)
        .is_err());
}

#[test]
fn every_engine_rejects_the_same_step_decays() {
    let p = generate::logistic_dense(8, 40, 47);
    for decay in [f32::NAN, f32::INFINITY, 0.0, -1.0] {
        let result = SgdConfig::new(Loss::Logistic)
            .epochs(3)
            .step_decay(decay)
            .train(&p.data);
        assert!(
            matches!(
                result,
                Err(TrainError::Config(ConfigError::InvalidParameter(_)))
            ),
            "SgdConfig step_decay {decay}: {result:?}"
        );
        let result = ChaosSgdConfig::new(Loss::Logistic, FaultPlan::new(0))
            .epochs(3)
            .step_decay(decay)
            .train(&p.data);
        assert!(
            matches!(
                result,
                Err(TrainError::Config(ConfigError::InvalidParameter(_)))
            ),
            "ChaosSgdConfig step_decay {decay}: {result:?}"
        );
    }
}

#[test]
fn every_engine_rejects_the_same_step_sizes_and_counts() {
    let p = generate::logistic_dense(8, 40, 47);
    let sgd = SgdConfig::new(Loss::Logistic).epochs(3);
    let chaos = ChaosSgdConfig::new(Loss::Logistic, FaultPlan::new(0)).epochs(3);
    let mut cases: Vec<_> = [f32::NAN, f32::INFINITY, 0.0, -1.0]
        .into_iter()
        .map(|step| {
            let what = format!("step_size {step}");
            (
                what,
                sgd.clone().step_size(step),
                chaos.clone().step_size(step),
            )
        })
        .collect();
    cases.push((
        "threads 0".into(),
        sgd.clone().threads(0),
        chaos.clone().threads(0),
    ));
    cases.push(("epochs 0".into(), sgd.epochs(0), chaos.epochs(0)));
    for (what, sgd, chaos) in cases {
        let result = sgd.train(&p.data);
        assert!(
            matches!(
                result,
                Err(TrainError::Config(ConfigError::InvalidParameter(_)))
            ),
            "SgdConfig {what}: {result:?}"
        );
        let result = chaos.train(&p.data);
        assert!(
            matches!(
                result,
                Err(TrainError::Config(ConfigError::InvalidParameter(_)))
            ),
            "ChaosSgdConfig {what}: {result:?}"
        );
    }
}

#[test]
fn one_virtual_worker_reproduces_the_threaded_engine() {
    // One virtual worker under a benign plan is sequential SGD, and so is
    // the threaded engine at one thread: at D32fM32f the two must agree
    // bit for bit, on either backend.
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let loss_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for seed in [1, 5, 9] {
        let p = generate::logistic_dense(32, 300, seed);
        for loss in Loss::ALL {
            let simulated = ChaosSgdConfig::new(loss, FaultPlan::new(seed))
                .threads(1)
                .step_size(0.3)
                .step_decay(0.9)
                .epochs(5)
                .train(&p.data)
                .unwrap();
            for backend in [Backend::SharedModel, Backend::ShardedDelta] {
                let threaded = SgdConfig::new(loss)
                    .backend(backend)
                    .threads(1)
                    .step_size(0.3)
                    .step_decay(0.9)
                    .epochs(5)
                    .train(&p.data)
                    .unwrap();
                let tag = format!("{loss:?}, seed {seed}, {backend:?}");
                assert_eq!(bits(simulated.model()), bits(threaded.model()), "{tag}");
                assert_eq!(
                    loss_bits(simulated.epoch_losses()),
                    loss_bits(threaded.epoch_losses()),
                    "{tag}"
                );
            }
        }
    }
}

#[test]
fn threaded_faults_and_a_tracer_combine() {
    let p = generate::logistic_dense(48, 500, 31);
    let tracer = RingTracer::with_capacity(1 << 16);
    let report = SgdConfig::new(Loss::Logistic)
        .threads(2)
        .epochs(6)
        .faults(FaultPlan::new(31).crash(0, 2, 50))
        .train_traced(&p.data, &buckwild_telemetry::NoopRecorder, &tracer)
        .unwrap();
    assert_eq!(report.epoch_losses().len(), 6);
    let trace = tracer.drain();
    assert!(
        trace
            .events()
            .iter()
            .any(|e| e.phase == Phase::ChaosFault && e.arg == buckwild::fault_kind::RECOVERY),
        "the crash's rollback must appear as a recovery span"
    );
}

#[test]
fn prelude_exposes_the_full_training_surface() {
    // Compile-time check: every engine, report, and vocabulary type is
    // reachable through `buckwild::prelude::*` alone.
    let _ = Loss::Logistic;
    let _ = FaultPlan::new(0);
    let _: Option<SgdConfig> = None;
    let _: Option<ChaosSgdConfig> = None;
    let _: Option<TrainReport> = None;
    let _: Option<CrashSpec> = None;
    let _ = (IterFate::Proceed, WriteFate::Apply);
    let _ = TrainControl::Continue;
    let _: Option<Signature> = None;
    let _ = Rounding::Unbiased;
}
