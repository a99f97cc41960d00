//! Golden `Predictor` score pins: seeded models and rows hashed against
//! constants recorded from `core::predict` while it still routed every
//! dense score through `kernels::dispatch` and the process-wide kernel
//! flavour.
//!
//! The unit tests in `predict.rs` compare `score_batch` against `score`
//! of the same commit; these pins compare against a past commit, so an
//! edit to which kernel a score reaches must leave every bit in place.
//!
//! Everything hashed is IEEE-exact on any host and ISA tier: weights and
//! rows are integer PRNG draws scaled by `f32` multiplies, and the SIMD
//! kernels promise bit-identity with the scalar ones.

use buckwild::{ModelPrecision, Predictor, QuantizedModel};
use buckwild_prng::{Prng, Xorshift128};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn fold_scores(hash: u64, scores: &[f32]) -> u64 {
    scores
        .iter()
        .fold(hash, |h, s| fnv1a(h, &s.to_bits().to_le_bytes()))
}

/// One lane, a partial 8-lane block, one full weave block, and a full
/// block plus a ragged tail.
const FEATURES: [usize; 4] = [1, 7, 64, 70];
/// Odd on purpose: the batched kernels tile rows in pairs and fours.
const BATCHES: [usize; 3] = [1, 3, 5];

/// FNV-1a over `score`, `score_sparse` and `score_batch` bits of one model
/// representation across every feature count and batch size.
fn predictor_hash<P: Predictor + ?Sized>(build: impl Fn(&[f32]) -> Box<P>) -> u64 {
    let mut h = FNV_OFFSET;
    for n in FEATURES {
        let mut rng = Xorshift128::seed_from(31 + n as u64);
        let weights: Vec<f32> = (0..n).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let model = build(&weights);
        assert_eq!(model.features(), n);
        for rows in BATCHES {
            let batch: Vec<f32> = (0..rows * n).map(|_| rng.range_f32(-2.0, 2.0)).collect();
            for row in batch.chunks_exact(n) {
                h = fold_scores(h, &[model.score(row)]);
                // Every third coordinate, starting at a seeded offset.
                let start = rng.next_below(3) as usize;
                let indices: Vec<u32> = (start..n).step_by(3).map(|i| i as u32).collect();
                let values: Vec<f32> = indices.iter().map(|&i| row[i as usize]).collect();
                h = fold_scores(h, &[model.score_sparse(&values, &indices)]);
            }
            let mut out = vec![0f32; rows];
            model.score_batch(&batch, &mut out);
            h = fold_scores(h, &out);
        }
    }
    h
}

fn quantized(precision: ModelPrecision) -> impl Fn(&[f32]) -> Box<QuantizedModel> {
    move |w| Box::new(QuantizedModel::quantize(w, precision))
}

/// Recorded from `core::predict` on the commit before the engine's kernel
/// axis was removed. A refactor must not touch these.
const PINS: &[(&str, u64)] = &[
    ("f32-slice", 0x76fc_bd37_6748_9bab),
    ("quantized/F32", 0x76fc_bd37_6748_9bab),
    ("quantized/I16", 0x79dc_ada3_f42a_c0eb),
    ("quantized/I8", 0xb81c_7ba8_6651_604f),
];

#[test]
fn seeded_scores_match_recorded_pins() {
    let got = [
        predictor_hash(|w| Box::<[f32]>::from(w)),
        predictor_hash(quantized(ModelPrecision::F32)),
        predictor_hash(quantized(ModelPrecision::I16)),
        predictor_hash(quantized(ModelPrecision::I8)),
    ];
    let mut mismatches = String::new();
    for (&(name, want), got) in PINS.iter().zip(got) {
        if want != got {
            mismatches.push_str(&format!("(\"{name}\", {got:#018x}), pinned {want:#018x}\n"));
        }
    }
    assert!(mismatches.is_empty(), "scores moved:\n{mismatches}");
}
