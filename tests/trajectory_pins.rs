//! Golden trajectory pins: seeded one-worker runs hashed against
//! constants recorded from the engine *before* the worker loops and the
//! epoch driver were collapsed into one.
//!
//! `backend_equivalence` and `simd_training_equivalence` compare two
//! paths of the same commit, so a reordering applied to both would pass
//! them. These pins compare against a past commit: any change to the
//! order of `QuantState` draws, `keep_write`/`iter_fate` calls, counter
//! updates or the arithmetic moves a hash.
//!
//! Everything hashed is IEEE-exact on any host and ISA tier: the data is
//! built from integer PRNG draws and `f32` adds/multiplies, the losses are
//! `LeastSquares` and `Hinge` (no `exp`/`ln`), and the step decays by 0.5.
//!
//! One pin folds every {loss × minibatch × quantizer} case of its row; a
//! mismatch prints the per-case hashes so two commits can be diffed.

use buckwild::prelude::*;
use buckwild::{metric, Backend};
use buckwild_dataset::{DenseDataset, SparseDataset};
use buckwild_kernels::cost::QuantizerKind;
use buckwild_prng::{Prng, Xorshift128};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over everything a trajectory determines: model bits, per-epoch
/// loss bits, and the four exact counters.
fn report_hash(report: &TrainReport) -> u64 {
    let mut h = FNV_OFFSET;
    for w in report.model() {
        h = fnv1a(h, &w.to_bits().to_le_bytes());
    }
    for l in report.epoch_losses() {
        h = fnv1a(h, &l.to_bits().to_le_bytes());
    }
    let counter = |name| report.metrics().counter(name).unwrap_or(0);
    for c in [
        report.iterations(),
        report.numbers_processed(),
        counter(metric::ROUND_EVENTS),
        counter(buckwild_chaos::metric::DROPPED_WRITES),
    ] {
        h = fnv1a(h, &c.to_le_bytes());
    }
    h
}

/// 70 features: two 64-element blocks, the second partial, and not a multiple
/// of the 8-lane offset block.
const DENSE_FEATURES: usize = 70;
const SPARSE_FEATURES: usize = 200;
const EXAMPLES: usize = 96;

/// Real-valued labels for least squares, their signs for the hinge.
fn label_for(loss: Loss, dot: f32) -> f32 {
    match loss {
        Loss::Hinge => {
            if dot >= 0.0 {
                1.0
            } else {
                -1.0
            }
        }
        _ => dot * 0.25,
    }
}

fn dense_data(loss: Loss) -> DenseDataset<f32> {
    let mut rng = Xorshift128::seed_from(9);
    let truth: Vec<f32> = (0..DENSE_FEATURES)
        .map(|_| rng.range_f32(-1.0, 1.0))
        .collect();
    let mut values = Vec::with_capacity(DENSE_FEATURES * EXAMPLES);
    let mut labels = Vec::with_capacity(EXAMPLES);
    for _ in 0..EXAMPLES {
        let mut dot = 0f32;
        for &t in &truth {
            let x = rng.range_f32(-1.0, 1.0);
            dot += x * t;
            values.push(x);
        }
        labels.push(label_for(loss, dot));
    }
    DenseDataset::from_flat(values, DENSE_FEATURES, labels)
}

fn sparse_data(loss: Loss) -> SparseDataset<f32, u32> {
    let mut rng = Xorshift128::seed_from(10);
    let truth: Vec<f32> = (0..SPARSE_FEATURES)
        .map(|_| rng.range_f32(-1.0, 1.0))
        .collect();
    let mut rows = Vec::with_capacity(EXAMPLES);
    let mut labels = Vec::with_capacity(EXAMPLES);
    for _ in 0..EXAMPLES {
        // 12 strictly increasing indices: gaps of 1..=16 from a start in
        // 0..8 stay below 8 + 12 * 16 = 200.
        let mut idx = rng.next_below(8) as usize;
        let mut row = Vec::with_capacity(12);
        let mut dot = 0f32;
        for _ in 0..12 {
            let x = rng.range_f32(-1.0, 1.0);
            dot += x * truth[idx];
            row.push((idx, x));
            idx += 1 + rng.next_below(16) as usize;
        }
        labels.push(label_for(loss, dot));
        rows.push(row);
    }
    SparseDataset::from_triplets(SPARSE_FEATURES, rows, labels)
}

#[derive(Clone, Copy, PartialEq)]
enum Layout {
    Dense,
    Sparse,
}

fn config(loss: Loss, sig: &str, backend: Backend) -> SgdConfig {
    // Least squares needs a step under 2 / |x|^2 (|x|^2 is about 23 for
    // the dense rows); the hinge step is bounded by construction.
    let step = if loss == Loss::Hinge { 0.25 } else { 0.03125 };
    SgdConfig::new(loss)
        .backend(backend)
        .signature(sig.parse().unwrap())
        .step_size(step)
        .step_decay(0.5)
        .epochs(3)
        .threads(1)
        .seed(71)
}

fn train(layout: Layout, config: &SgdConfig, plan: Option<&FaultPlan>) -> TrainReport {
    match (layout, plan) {
        (Layout::Dense, None) => config.train(&dense_data(config.loss)),
        (Layout::Dense, Some(p)) => config
            .clone()
            .faults(p.clone())
            .train(&dense_data(config.loss)),
        (Layout::Sparse, None) => config.train(&sparse_data(config.loss)),
        (Layout::Sparse, Some(p)) => config
            .clone()
            .faults(p.clone())
            .train(&sparse_data(config.loss)),
    }
    .unwrap()
}

/// Folds every {loss × minibatch × quantizer} case of one row into a
/// single hash, collecting the per-case hashes for the failure message.
fn row_hash(
    layout: Layout,
    sig: &str,
    backend: Backend,
    plan: Option<&FaultPlan>,
    cases: &mut Vec<String>,
) -> u64 {
    let mut row = FNV_OFFSET;
    for loss in [Loss::LeastSquares, Loss::Hinge] {
        for minibatch in [1, 8] {
            for quantizer in [
                QuantizerKind::Biased,
                QuantizerKind::XorshiftFresh,
                QuantizerKind::XorshiftShared,
            ] {
                let config = config(loss, sig, backend)
                    .minibatch(minibatch)
                    .quantizer(quantizer);
                let h = report_hash(&train(layout, &config, plan));
                cases.push(format!(
                    "    {loss:?} minibatch={minibatch} {quantizer:?}: {h:#018x}"
                ));
                row = fnv1a(row, &h.to_le_bytes());
            }
        }
    }
    row
}

const SIGNATURES: [&str; 4] = ["D32fM32f", "D16M16", "D8M8", "D8M16"];

/// Recorded from the engine with ten worker functions and two epoch
/// drivers. A refactor must not touch these; an intended arithmetic change
/// must say which rows it moves and why. Each pin holds on both backends.
const PINS: &[(&str, u64)] = &[
    ("dense/D32fM32f", 0x38e2_3749_eb3d_36fe),
    ("dense/D16M16", 0x1068_8b4c_6b55_df53),
    ("dense/D8M8", 0x7b8c_d038_bdfa_3f76),
    ("dense/D8M16", 0xff74_32e2_da74_7615),
    ("dense/D8M8/faults", 0xa77f_f906_5c78_4ced),
    ("sparse/D32fM32f", 0xaa97_929f_e38f_5a8a),
    ("sparse/D16M16", 0xd45e_ca96_b541_843c),
    ("sparse/D8M8", 0x4ad2_d780_9b0f_f803),
    ("sparse/D8M16", 0x603a_00a8_9db5_a60b),
    ("sparse/D8M8/faults", 0x9ff0_6a43_e9df_14aa),
];

/// Stalls, write drops, and one mid-epoch crash that rolls the run back to
/// the epoch-boundary checkpoint and replays the epoch.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(11)
        .stalls(0.2, 2)
        .drop_writes(0.3)
        .crash(0, 1, 40)
}

#[test]
fn seeded_trajectories_match_recorded_pins() {
    let plan = fault_plan();
    let mut rows: Vec<(String, Layout, &str, Option<&FaultPlan>)> = Vec::new();
    for (layout, l) in [(Layout::Dense, "dense"), (Layout::Sparse, "sparse")] {
        for sig in SIGNATURES {
            rows.push((format!("{l}/{sig}"), layout, sig, None));
        }
        rows.push((format!("{l}/D8M8/faults"), layout, "D8M8", Some(&plan)));
    }

    let mut mismatches = String::new();
    for (name, layout, sig, plan) in &rows {
        let want = PINS.iter().find(|(n, _)| n == name).map(|&(_, h)| h);
        for backend in [Backend::SharedModel, Backend::ShardedDelta] {
            let mut cases = Vec::new();
            let got = row_hash(*layout, sig, backend, *plan, &mut cases);
            if want != Some(got) {
                mismatches.push_str(&format!(
                    "(\"{name}\", {got:#018x}) on {backend}, pinned {want:x?}; \
                     per-case hashes now:\n{}\n",
                    cases.join("\n")
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "trajectories moved:\n{mismatches}");
    assert_eq!(rows.len(), PINS.len(), "pin table has stale rows");
}
