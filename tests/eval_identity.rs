//! The per-epoch loss the engine records is exactly the public metric.
//!
//! For every dataset shape, backend, worker count and signature below, a
//! run's [`TrainReport::final_loss`] is bit-equal to
//! `mean_loss`/`mean_loss_sparse` of the report's model, and each loss the
//! `on_epoch` observer sees is bit-equal to the matching entry of
//! [`TrainReport::epoch_losses`]. However the engine splits or schedules
//! the evaluation, it must sum the same per-example losses in the same
//! order as the public functions.
//!
//! Hogwild! with more than one worker is not reproducible run to run, so
//! this states an identity within each run, not recorded loss values.
//! `m = 3` with four workers gives more threads than examples.

use std::sync::{Arc, Mutex};

use buckwild::prelude::*;
use buckwild::Backend;
use buckwild_dataset::generate;

const EXAMPLES: [usize; 3] = [3, 7, 100];
const THREADS: [usize; 4] = [1, 2, 3, 4];
const SIGNATURES: [&str; 2] = ["D8M8", "D32fM32f"];
const BACKENDS: [Backend; 2] = [Backend::SharedModel, Backend::ShardedDelta];

/// Every configuration of the sweep, with an observer that records each
/// epoch's `progress.loss` into the returned log.
fn configs() -> impl Iterator<Item = (String, SgdConfig, Arc<Mutex<Vec<Option<f64>>>>)> {
    BACKENDS.into_iter().flat_map(|backend| {
        THREADS.into_iter().flat_map(move |threads| {
            SIGNATURES.into_iter().map(move |sig| {
                let seen = Arc::new(Mutex::new(Vec::new()));
                let log = Arc::clone(&seen);
                let config = SgdConfig::new(Loss::Logistic)
                    .backend(backend)
                    .signature(sig.parse().unwrap())
                    .threads(threads)
                    .step_size(0.5)
                    .step_decay(0.8)
                    .epochs(3)
                    .seed(41)
                    .on_epoch(move |progress| {
                        log.lock().unwrap().push(progress.loss);
                        TrainControl::Continue
                    });
                (format!("{backend} T={threads} {sig}"), config, seen)
            })
        })
    })
}

fn assert_observer_saw_the_report(label: &str, report: &TrainReport, seen: &[Option<f64>]) {
    let seen: Vec<u64> = seen
        .iter()
        .map(|loss| loss.expect("losses are recorded").to_bits())
        .collect();
    let recorded: Vec<u64> = report.epoch_losses().iter().map(|l| l.to_bits()).collect();
    assert_eq!(seen, recorded, "{label}: on_epoch vs epoch_losses");
    assert_eq!(recorded.len(), 3, "{label}");
}

#[test]
fn dense_epoch_losses_are_the_public_mean_loss() {
    for m in EXAMPLES {
        let p = generate::logistic_dense(24, m, 5 + m as u64);
        for (label, config, seen) in configs() {
            let label = format!("dense m={m} {label}");
            let report = config.train(&p.data).unwrap();
            assert_eq!(
                report.final_loss().to_bits(),
                mean_loss(Loss::Logistic, report.model(), &p.data).to_bits(),
                "{label}: final_loss vs mean_loss"
            );
            assert_observer_saw_the_report(&label, &report, &seen.lock().unwrap());
        }
    }
}

#[test]
fn sparse_epoch_losses_are_the_public_mean_loss() {
    for m in EXAMPLES {
        let p = generate::logistic_sparse(64, m, 0.2, 9 + m as u64);
        for (label, config, seen) in configs() {
            let label = format!("sparse m={m} {label}");
            let report = config.train(&p.data).unwrap();
            assert_eq!(
                report.final_loss().to_bits(),
                mean_loss_sparse(Loss::Logistic, report.model(), &p.data).to_bits(),
                "{label}: final_loss vs mean_loss_sparse"
            );
            assert_observer_saw_the_report(&label, &report, &seen.lock().unwrap());
        }
    }
}
