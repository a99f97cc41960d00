//! One first-class prediction API for every consumer of a trained model.
//!
//! Before this module the repo scored models in three ad-hoc places: the
//! scalar [`Loss::predict`] mapping in `loss.rs`, inlined dot loops in
//! `metrics.rs`, and the one-vs-all margins in `rff.rs`. Serving forces
//! them to converge: the online inference server, the accuracy metrics,
//! and the RFF classifier all consume the same [`Predictor`] trait, so a
//! model scores identically whether it is evaluated offline or served
//! over the wire.
//!
//! The trait is implemented for three model representations:
//!
//! * `[f32]` — a plain float weight vector (checkpoints, RFF classes);
//! * [`QuantizedModel`] — raw fixed-point words plus their [`FixedSpec`],
//!   the low-precision serving representation produced by
//!   [`SharedModel::snapshot_quantized`]. Scoring runs the batched
//!   integer-model kernels directly on the words — no dequantized copy is
//!   ever materialized (the MLWeaving argument: low-precision inference
//!   is memory-bound, so serve from the small representation);
//! * [`SharedModel`] — the live training vector, scored with relaxed
//!   racy reads (a fuzzy mid-epoch probe, exactly like `snapshot()`).
//!
//! Batched scoring on a [`QuantizedModel`] is deterministic: it is
//! bit-identical to scoring each row alone, which is what lets the serve
//! crate promise that a served prediction equals offline evaluation of
//! the same epoch-tagged snapshot.

use std::sync::Arc;

use buckwild_fixed::FixedSpec;
use buckwild_kernels::optimized;

use crate::model::{ModelPrecision, SharedModel};
use crate::words::Word;
use crate::Loss;

/// Raw model words at their storage precision.
#[derive(Debug, Clone, PartialEq)]
pub enum FixedWords {
    /// 32-bit float words (`M32f` — no quantization grid).
    F32(Vec<f32>),
    /// 16-bit fixed-point words.
    I16(Vec<i16>),
    /// 8-bit fixed-point words.
    I8(Vec<i8>),
}

impl FixedWords {
    /// Number of model words.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            FixedWords::F32(v) => v.len(),
            FixedWords::I16(v) => v.len(),
            FixedWords::I8(v) => v.len(),
        }
    }

    /// True if there are no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An immutable model snapshot in its storage representation: the raw
/// fixed-point (or float) words plus the [`FixedSpec`] that interprets
/// them.
///
/// This is what [`SharedModel::snapshot_quantized`] returns and what the
/// serving path publishes at epoch boundaries — an 8-bit model stays 8
/// bits from the training arena all the way to the inference dot product.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedModel {
    words: FixedWords,
    spec: FixedSpec,
}

impl QuantizedModel {
    /// Wraps raw words and their interpretation.
    #[must_use]
    pub fn new(words: FixedWords, spec: FixedSpec) -> Self {
        QuantizedModel { words, spec }
    }

    /// Quantizes a float vector onto the grid of `precision` with nearest
    /// rounding — the same convention as [`SharedModel::from_f32`]. The
    /// sharded backend publishes its replica-mean snapshot through this.
    #[must_use]
    pub fn quantize(values: &[f32], precision: ModelPrecision) -> Self {
        let spec = precision.spec();
        let words = match precision {
            ModelPrecision::F32 => FixedWords::F32(values.to_vec()),
            ModelPrecision::I16 => FixedWords::I16(
                values
                    .iter()
                    .map(|&v| spec.quantize_unbiased(v, 0.5) as i16)
                    .collect(),
            ),
            ModelPrecision::I8 => FixedWords::I8(
                values
                    .iter()
                    .map(|&v| spec.quantize_unbiased(v, 0.5) as i8)
                    .collect(),
            ),
        };
        QuantizedModel { words, spec }
    }

    /// The raw words.
    #[must_use]
    pub fn words(&self) -> &FixedWords {
        &self.words
    }

    /// The fixed-point interpretation of the words.
    #[must_use]
    pub fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// The storage precision of the words.
    #[must_use]
    pub fn precision(&self) -> ModelPrecision {
        match self.words {
            FixedWords::F32(_) => ModelPrecision::F32,
            FixedWords::I16(_) => ModelPrecision::I16,
            FixedWords::I8(_) => ModelPrecision::I8,
        }
    }

    /// Number of parameters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the model has no parameters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Bytes of model storage — what a serving shard actually streams.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        match &self.words {
            FixedWords::F32(v) => v.len() * 4,
            FixedWords::I16(v) => v.len() * 2,
            FixedWords::I8(v) => v.len(),
        }
    }

    /// Dequantizes into a float vector (the old `snapshot()` contract).
    #[must_use]
    pub fn to_f32(&self) -> Vec<f32> {
        match &self.words {
            FixedWords::F32(v) => v.clone(),
            FixedWords::I16(v) => v.iter().map(|w| w.dequantize(&self.spec)).collect(),
            FixedWords::I8(v) => v.iter().map(|w| w.dequantize(&self.spec)).collect(),
        }
    }
}

/// An epoch-tagged model snapshot, as delivered to a snapshot observer
/// installed with `SgdConfig::on_snapshot`.
///
/// Both training backends publish one of these after every completed
/// epoch (outside the timed region, so publication never pollutes
/// throughput numbers). The tag makes staleness observable: a consumer —
/// the serve crate's hub, a checkpointer — always knows *which* epoch's
/// weights it holds.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Zero-based index of the epoch whose completed pass this reflects.
    pub epoch: u64,
    /// The quantized model at the epoch boundary. `Arc`ed so publication
    /// is a pointer hand-off: the driver never copies the words twice and
    /// readers can hold a snapshot for as long as they like.
    pub model: Arc<QuantizedModel>,
}

/// Scores examples against a model: the one prediction API.
///
/// `score` returns the raw margin `x·w`; `predict` maps it through a
/// [`Loss`] (sign for classifiers, identity for regression);
/// `predict_batch` does the same for a row-major packed batch. Batch
/// variants on deterministic representations are bit-identical to their
/// per-row counterparts.
pub trait Predictor {
    /// Number of input features an example must have.
    fn features(&self) -> usize;

    /// Raw margin of one dense example.
    fn score(&self, x: &[f32]) -> f32;

    /// Raw margin of one sparse example (`values[j]` at `indices[j]`).
    fn score_sparse(&self, values: &[f32], indices: &[u32]) -> f32;

    /// Scores `out.len()` row-major packed examples into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `batch.len() != features() * out.len()`.
    fn score_batch(&self, batch: &[f32], out: &mut [f32]) {
        let n = self.features();
        assert_eq!(batch.len(), n * out.len(), "batch/model shape mismatch");
        for (o, row) in out.iter_mut().zip(batch.chunks_exact(n)) {
            *o = self.score(row);
        }
    }

    /// Prediction of one dense example under `loss`.
    fn predict(&self, loss: Loss, x: &[f32]) -> f32 {
        loss.predict(self.score(x))
    }

    /// Predictions for a row-major packed batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch.len() != features() * out.len()`.
    fn predict_batch(&self, loss: Loss, batch: &[f32], out: &mut [f32]) {
        self.score_batch(batch, out);
        for o in out.iter_mut() {
            *o = loss.predict(*o);
        }
    }
}

impl Predictor for [f32] {
    fn features(&self) -> usize {
        self.len()
    }

    fn score(&self, x: &[f32]) -> f32 {
        optimized::dot_f32_f32(x, self)
    }

    fn score_sparse(&self, values: &[f32], indices: &[u32]) -> f32 {
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        values
            .iter()
            .zip(indices)
            .map(|(&v, &i)| v * self[i as usize])
            .sum()
    }

    fn score_batch(&self, batch: &[f32], out: &mut [f32]) {
        assert_eq!(
            batch.len(),
            self.len() * out.len(),
            "batch/model shape mismatch"
        );
        optimized::dot_batch_f32_f32(batch, self, out);
    }
}

impl Predictor for QuantizedModel {
    fn features(&self) -> usize {
        self.len()
    }

    fn score(&self, x: &[f32]) -> f32 {
        match &self.words {
            FixedWords::F32(w) => optimized::dot_f32_f32(x, w),
            FixedWords::I16(w) => optimized::dot_f32_fixed(x, w, &self.spec),
            FixedWords::I8(w) => optimized::dot_f32_fixed(x, w, &self.spec),
        }
    }

    fn score_sparse(&self, values: &[f32], indices: &[u32]) -> f32 {
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        match &self.words {
            FixedWords::F32(w) => values
                .iter()
                .zip(indices)
                .map(|(&v, &i)| v * w[i as usize])
                .sum(),
            FixedWords::I16(w) => {
                let acc: f32 = values
                    .iter()
                    .zip(indices)
                    .map(|(&v, &i)| v * w[i as usize] as f32)
                    .sum();
                acc * self.spec.quantum()
            }
            FixedWords::I8(w) => {
                let acc: f32 = values
                    .iter()
                    .zip(indices)
                    .map(|(&v, &i)| v * w[i as usize] as f32)
                    .sum();
                acc * self.spec.quantum()
            }
        }
    }

    fn score_batch(&self, batch: &[f32], out: &mut [f32]) {
        assert_eq!(
            batch.len(),
            self.len() * out.len(),
            "batch/model shape mismatch"
        );
        match &self.words {
            FixedWords::F32(w) => optimized::dot_batch_f32_f32(batch, w, out),
            FixedWords::I16(w) => optimized::dot_batch_f32_fixed(batch, w, &self.spec, out),
            FixedWords::I8(w) => optimized::dot_batch_f32_fixed(batch, w, &self.spec, out),
        }
    }
}

/// The live training model as a predictor: relaxed racy reads, so a
/// mid-epoch score is a fuzzy probe — exactly the `snapshot()` semantics.
/// Serving uses immutable [`QuantizedModel`] snapshots instead.
impl Predictor for SharedModel {
    fn features(&self) -> usize {
        self.len()
    }

    fn score(&self, x: &[f32]) -> f32 {
        self.dot_f32(x)
    }

    fn score_sparse(&self, values: &[f32], indices: &[u32]) -> f32 {
        self.dot_sparse_f32(values, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_round_trips_on_grid_values() {
        let values = [0.5f32, -1.25, 0.0, 0.09375];
        for p in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let q = QuantizedModel::quantize(&values, p);
            assert_eq!(q.precision(), p);
            assert_eq!(q.len(), 4);
            assert_eq!(q.to_f32(), values.to_vec(), "{p:?}");
        }
    }

    #[test]
    fn storage_bytes_shrink_with_precision() {
        let values = vec![0.1f32; 100];
        let b32 = QuantizedModel::quantize(&values, ModelPrecision::F32).storage_bytes();
        let b16 = QuantizedModel::quantize(&values, ModelPrecision::I16).storage_bytes();
        let b8 = QuantizedModel::quantize(&values, ModelPrecision::I8).storage_bytes();
        assert_eq!((b32, b16, b8), (400, 200, 100));
    }

    #[test]
    fn quantized_score_matches_dequantized_reference() {
        let values = [0.5f32, -0.25, 1.0, 0.0, 0.75];
        let x = [1.0f32, 2.0, -1.0, 0.5, 0.25];
        for p in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let q = QuantizedModel::quantize(&values, p);
            let reference: f32 = x.iter().zip(q.to_f32()).map(|(&a, b)| a * b).sum();
            assert!(
                (q.score(&x) - reference).abs() < 1e-5,
                "{p:?}: {} vs {reference}",
                q.score(&x)
            );
        }
    }

    #[test]
    fn batch_is_bit_identical_to_per_row() {
        let values: Vec<f32> = (0..33).map(|i| ((i * 7 % 13) as f32 - 6.0) / 8.0).collect();
        let batch: Vec<f32> = (0..5 * 33).map(|i| ((i % 17) as f32 - 8.0) / 9.0).collect();
        for p in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let q = QuantizedModel::quantize(&values, p);
            let mut out = vec![0f32; 5];
            q.score_batch(&batch, &mut out);
            for (r, &got) in out.iter().enumerate() {
                let one = q.score(&batch[r * 33..(r + 1) * 33]);
                assert_eq!(got.to_bits(), one.to_bits(), "{p:?} row {r}");
            }
        }
    }

    #[test]
    fn sparse_score_matches_dense() {
        let model = [0.5f32, -0.5, 0.25, 0.0];
        let q = QuantizedModel::quantize(&model, ModelPrecision::I8);
        let dense = [0.0f32, 2.0, 0.0, 1.0];
        let sparse_vals = [2.0f32, 1.0];
        let sparse_idx = [1u32, 3];
        assert!((q.score(&dense) - q.score_sparse(&sparse_vals, &sparse_idx)).abs() < 1e-6);
        let m: &[f32] = &model;
        assert!((m.score(&dense) - m.score_sparse(&sparse_vals, &sparse_idx)).abs() < 1e-6);
    }

    #[test]
    fn predict_applies_loss_mapping() {
        let model: &[f32] = &[1.0, -1.0];
        assert_eq!(model.predict(Loss::Logistic, &[1.0, 0.0]), 1.0);
        assert_eq!(model.predict(Loss::Logistic, &[0.0, 1.0]), -1.0);
        // Regression passes the margin through.
        assert_eq!(model.predict(Loss::LeastSquares, &[0.5, 0.0]), 0.5);
        let mut out = vec![0f32; 2];
        model.predict_batch(Loss::Hinge, &[1.0, 0.0, 0.0, 1.0], &mut out);
        assert_eq!(out, vec![1.0, -1.0]);
    }

    #[test]
    fn shared_model_scores_like_its_snapshot() {
        let w = SharedModel::from_f32(ModelPrecision::I8, &[0.5, -0.25, 1.0]);
        let x = [1.0f32, 2.0, 0.5];
        let snap = w.snapshot();
        let reference: f32 = x.iter().zip(&snap).map(|(&a, &b)| a * b).sum();
        assert!((w.score(&x) - reference).abs() < 1e-6);
        assert!((w.score_sparse(&[2.0], &[1]) - (2.0 * snap[1])).abs() < 1e-6);
    }
}
