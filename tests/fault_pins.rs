//! Exact pins of fault-injected runs, recorded from the engine before
//! the fault plan moved from an entry-point argument onto the config (the
//! stall/crash pin) and before the engine's fault stream stopped being a
//! type parameter (the write-drop pin).
//!
//! `trajectory_pins` hashes a one-worker fault row but not the `chaos.*`
//! counters. These do: the values below are the engine's own output, so any
//! change to how a plan reaches a run — or to the schedule it expands to —
//! moves a bit here.
//!
//! Everything pinned is IEEE-exact on any host: the data comes from integer
//! PRNG draws and `f32` adds/multiplies, the loss is `LeastSquares` (no
//! `exp`/`ln`), and the step decays by 0.5.

use buckwild::prelude::*;
use buckwild_chaos::metric as chaos;
use buckwild_dataset::{DenseDataset, SparseDataset};
use buckwild_prng::{Prng, Xorshift128};

const FEATURES: usize = 40;
const EXAMPLES: usize = 160;

/// Least-squares rows whose labels are a quarter of a hidden dot product.
fn data() -> DenseDataset<f32> {
    let mut rng = Xorshift128::seed_from(5);
    let truth: Vec<f32> = (0..FEATURES).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    let mut values = Vec::with_capacity(FEATURES * EXAMPLES);
    let mut labels = Vec::with_capacity(EXAMPLES);
    for _ in 0..EXAMPLES {
        let mut dot = 0f32;
        for &t in &truth {
            let x = rng.range_f32(-1.0, 1.0);
            dot += x * t;
            values.push(x);
        }
        labels.push(dot * 0.25);
    }
    DenseDataset::from_flat(values, FEATURES, labels)
}

/// The same hidden model behind sparse rows of 6 nonzeros each.
fn sparse_data() -> SparseDataset<f32, u32> {
    let mut rng = Xorshift128::seed_from(6);
    let truth: Vec<f32> = (0..FEATURES).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    let mut rows = Vec::with_capacity(EXAMPLES);
    let mut labels = Vec::with_capacity(EXAMPLES);
    for _ in 0..EXAMPLES {
        // 6 strictly increasing indices: gaps of 1..=6 from a start in 0..4
        // stay below 4 + 6 * 6 = 40.
        let mut idx = rng.next_below(4) as usize;
        let mut row = Vec::with_capacity(6);
        let mut dot = 0f32;
        for _ in 0..6 {
            let x = rng.range_f32(-1.0, 1.0);
            dot += x * truth[idx];
            row.push((idx, x));
            idx += 1 + rng.next_below(6) as usize;
        }
        labels.push(dot * 0.25);
        rows.push(row);
    }
    SparseDataset::from_triplets(FEATURES, rows, labels)
}

fn loss_bits(losses: &[f64]) -> Vec<u64> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// A stall + crash plan on one worker: the crash rolls epoch 2 back to its
/// checkpoint and replays it.
fn sgd_plan() -> FaultPlan {
    FaultPlan::new(31).stalls(0.2, 2).crash(0, 2, 50)
}

const SGD_LOSS_BITS: [u64; 4] = [
    0x3f95_ce89_5372_1c00,
    0x3f83_6986_3ec3_accd,
    0x3f82_897f_849b_d700,
    0x3f81_b612_5eed_4000,
];
/// `chaos.stalls`, `chaos.dropped_writes`, `chaos.recoveries`,
/// `chaos.replayed_iterations`, and the `chaos.stall_ticks` count.
const SGD_COUNTERS: [u64; 5] = [137, 0, 1, 160, 137];

#[test]
fn faulted_threaded_run_matches_its_pin() {
    for backend in [Backend::SharedModel, Backend::ShardedDelta] {
        let config = SgdConfig::new(Loss::LeastSquares)
            .backend(backend)
            .signature("D8M8".parse().unwrap())
            .step_size(0.03125)
            .step_decay(0.5)
            .epochs(4)
            .threads(1)
            .seed(71);
        let report = config.faults(sgd_plan()).train(&data()).unwrap();
        let m = report.metrics();
        let counter = |name| m.counter(name).unwrap_or(0);
        let counters = [
            counter(chaos::STALLS),
            counter(chaos::DROPPED_WRITES),
            counter(chaos::RECOVERIES),
            counter(chaos::REPLAYED_ITERATIONS),
            m.histogram(chaos::STALL_TICKS).map_or(0, |h| h.count),
        ];
        assert_eq!(
            (loss_bits(report.epoch_losses()), counters),
            (SGD_LOSS_BITS.to_vec(), SGD_COUNTERS),
            "{backend}"
        );
    }
}

/// Write drops under mini-batches: a dense run drops whole `DenseBatch`
/// flushes, a sparse run drops single `SparseBatch` example writes.
fn drop_config(backend: Backend) -> SgdConfig {
    SgdConfig::new(Loss::LeastSquares)
        .backend(backend)
        .signature("D8M8".parse().unwrap())
        .step_size(0.03125)
        .step_decay(0.5)
        .epochs(4)
        .minibatch(4)
        .threads(1)
        .seed(73)
        .faults(FaultPlan::new(37).drop_writes(0.3))
}

const DROP_DENSE_LOSS_BITS: [u64; 4] = [
    0x3f97_989c_d607_d31a,
    0x3f90_378c_4b0a_7030,
    0x3f8c_c150_0863_2ccd,
    0x3f89_49f3_7e49_a533,
];
const DROP_DENSE_DROPPED: u64 = 55;
const DROP_SPARSE_LOSS_BITS: [u64; 4] = [
    0x3f85_495b_4d8c_71e6,
    0x3f83_417b_5589_5333,
    0x3f81_6307_b113_5666,
    0x3f80_5620_0da5_7ccd,
];
const DROP_SPARSE_DROPPED: u64 = 180;

#[test]
fn write_drops_under_minibatches_match_their_pins() {
    for backend in [Backend::SharedModel, Backend::ShardedDelta] {
        let config = drop_config(backend);
        let dense = config.train(&data()).unwrap();
        let sparse = config.train(&sparse_data()).unwrap();
        let dropped = |r: &TrainReport| r.metrics().counter(chaos::DROPPED_WRITES).unwrap_or(0);
        assert_eq!(
            (loss_bits(dense.epoch_losses()), dropped(&dense)),
            (DROP_DENSE_LOSS_BITS.to_vec(), DROP_DENSE_DROPPED),
            "dense {backend}"
        );
        assert_eq!(
            (loss_bits(sparse.epoch_losses()), dropped(&sparse)),
            (DROP_SPARSE_LOSS_BITS.to_vec(), DROP_SPARSE_DROPPED),
            "sparse {backend}"
        );
    }
}
