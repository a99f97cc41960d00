//! Statistical-efficiency metrics: loss and accuracy of a model snapshot.
//!
//! All scoring goes through the [`Predictor`] trait — the same API the
//! online inference server consumes — so offline accuracy and served
//! predictions come from one code path. The `&[f32]`-model entry points
//! are kept as thin wrappers over the generic `_of` forms.

use buckwild_dataset::{DenseDataset, SparseDataset};

use crate::predict::Predictor;
use crate::Loss;

/// Mean loss of any [`Predictor`] over a dense dataset.
///
/// # Panics
///
/// Panics if `predictor.features() != data.features()`.
#[must_use]
pub fn mean_loss_of<P: Predictor + ?Sized>(
    loss: Loss,
    predictor: &P,
    data: &DenseDataset<f32>,
) -> f64 {
    let mut losses = vec![0f64; data.examples()];
    losses_into(loss, predictor, data, 0, &mut losses);
    mean_in_order(&losses)
}

/// Writes the loss of dense examples `first..first + out.len()` into `out`.
///
/// With [`mean_in_order`] this is the one evaluation body: the public
/// mean-loss functions and the training engine's per-epoch loss (which
/// fills disjoint chunks of one buffer on several threads) both run it.
///
/// # Panics
///
/// Panics if `predictor.features() != data.features()` or the range runs
/// past the last example.
pub(crate) fn losses_into<P: Predictor + ?Sized>(
    loss: Loss,
    predictor: &P,
    data: &DenseDataset<f32>,
    first: usize,
    out: &mut [f64],
) {
    assert_eq!(
        predictor.features(),
        data.features(),
        "model/data shape mismatch"
    );
    for (i, slot) in (first..).zip(out) {
        *slot = loss.value(predictor.score(data.example(i)), data.label(i)) as f64;
    }
}

/// The sparse counterpart of [`losses_into`].
pub(crate) fn losses_sparse_into<P: Predictor + ?Sized>(
    loss: Loss,
    predictor: &P,
    data: &SparseDataset<f32, u32>,
    first: usize,
    out: &mut [f64],
) {
    assert_eq!(
        predictor.features(),
        data.features(),
        "model/data shape mismatch"
    );
    for (i, slot) in (first..).zip(out) {
        let ex = data.example(i);
        *slot = loss.value(predictor.score_sparse(ex.values, ex.indices), data.label(i)) as f64;
    }
}

/// The mean of per-example losses, summed in example order so that any
/// split of the scoring gives the same bits.
pub(crate) fn mean_in_order(losses: &[f64]) -> f64 {
    let mut total = 0f64;
    for &l in losses {
        total += l;
    }
    total / losses.len() as f64
}

/// Mean loss of a float model over a dense dataset.
///
/// # Panics
///
/// Panics if `model.len() != data.features()`.
#[must_use]
pub fn mean_loss(loss: Loss, model: &[f32], data: &DenseDataset<f32>) -> f64 {
    mean_loss_of(loss, model, data)
}

/// Fraction of dense examples any [`Predictor`] classifies correctly
/// (`±1` labels).
///
/// # Panics
///
/// Panics if shapes mismatch or the loss is not a classification loss.
#[must_use]
pub fn accuracy_of<P: Predictor + ?Sized>(
    loss: Loss,
    predictor: &P,
    data: &DenseDataset<f32>,
) -> f64 {
    assert!(loss.is_classification(), "accuracy needs a classifier loss");
    assert_eq!(
        predictor.features(),
        data.features(),
        "model/data shape mismatch"
    );
    let mut correct = 0usize;
    for i in 0..data.examples() {
        if predictor.predict(loss, data.example(i)) == data.label(i) {
            correct += 1;
        }
    }
    correct as f64 / data.examples() as f64
}

/// Fraction of dense examples a float model classifies correctly.
///
/// # Panics
///
/// Panics if shapes mismatch or the loss is not a classification loss.
#[must_use]
pub fn accuracy(loss: Loss, model: &[f32], data: &DenseDataset<f32>) -> f64 {
    accuracy_of(loss, model, data)
}

/// Mean loss of any [`Predictor`] over a sparse dataset.
///
/// # Panics
///
/// Panics if `predictor.features() != data.features()`.
#[must_use]
pub fn mean_loss_sparse_of<P: Predictor + ?Sized>(
    loss: Loss,
    predictor: &P,
    data: &SparseDataset<f32, u32>,
) -> f64 {
    let mut losses = vec![0f64; data.examples()];
    losses_sparse_into(loss, predictor, data, 0, &mut losses);
    mean_in_order(&losses)
}

/// Mean loss of a float model over a sparse dataset.
///
/// # Panics
///
/// Panics if `model.len() != data.features()`.
#[must_use]
pub fn mean_loss_sparse(loss: Loss, model: &[f32], data: &SparseDataset<f32, u32>) -> f64 {
    mean_loss_sparse_of(loss, model, data)
}

/// Fraction of sparse examples any [`Predictor`] classifies correctly.
///
/// # Panics
///
/// Panics if shapes mismatch or the loss is not a classification loss.
#[must_use]
pub fn accuracy_sparse_of<P: Predictor + ?Sized>(
    loss: Loss,
    predictor: &P,
    data: &SparseDataset<f32, u32>,
) -> f64 {
    assert!(loss.is_classification(), "accuracy needs a classifier loss");
    assert_eq!(
        predictor.features(),
        data.features(),
        "model/data shape mismatch"
    );
    let mut correct = 0usize;
    for i in 0..data.examples() {
        let ex = data.example(i);
        if loss.predict(predictor.score_sparse(ex.values, ex.indices)) == data.label(i) {
            correct += 1;
        }
    }
    correct as f64 / data.examples() as f64
}

/// Fraction of sparse examples a float model classifies correctly.
///
/// # Panics
///
/// Panics if shapes mismatch or the loss is not a classification loss.
#[must_use]
pub fn accuracy_sparse(loss: Loss, model: &[f32], data: &SparseDataset<f32, u32>) -> f64 {
    accuracy_sparse_of(loss, model, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::QuantizedModel;
    use crate::ModelPrecision;

    fn tiny() -> DenseDataset<f32> {
        DenseDataset::from_rows(
            vec![vec![1.0, 0.0], vec![-1.0, 0.0], vec![0.0, 1.0]],
            vec![1.0, -1.0, -1.0],
        )
    }

    #[test]
    fn zero_model_logistic_loss_is_ln2() {
        let loss = mean_loss(Loss::Logistic, &[0.0, 0.0], &tiny());
        assert!((loss - std::f64::consts::LN_2) < 1e-6);
    }

    #[test]
    fn perfect_model_has_high_accuracy() {
        // w = (1, -1) classifies all three examples correctly.
        let acc = accuracy(Loss::Logistic, &[1.0, -1.0], &tiny());
        assert_eq!(acc, 1.0);
        let loss = mean_loss(Loss::Logistic, &[10.0, -10.0], &tiny());
        assert!(loss < 1e-3);
    }

    #[test]
    fn sparse_metrics_match_dense_equivalent() {
        let sparse = SparseDataset::from_triplets(
            2,
            vec![vec![(0, 1.0)], vec![(0, -1.0)], vec![(1, 1.0)]],
            vec![1.0, -1.0, -1.0],
        );
        let model = [0.5f32, -0.5];
        let dl = mean_loss(Loss::Logistic, &model, &tiny());
        let sl = mean_loss_sparse(Loss::Logistic, &model, &sparse);
        assert!((dl - sl).abs() < 1e-9);
        assert_eq!(
            accuracy(Loss::Hinge, &model, &tiny()),
            accuracy_sparse(Loss::Hinge, &model, &sparse)
        );
    }

    #[test]
    fn quantized_predictor_drives_the_same_metrics() {
        // The generic forms accept a quantized snapshot directly — the
        // serving representation evaluates without dequantizing.
        let q = QuantizedModel::quantize(&[1.0, -1.0], ModelPrecision::I8);
        assert_eq!(accuracy_of(Loss::Logistic, &q, &tiny()), 1.0);
        let sparse = SparseDataset::from_triplets(
            2,
            vec![vec![(0, 1.0)], vec![(0, -1.0)], vec![(1, 1.0)]],
            vec![1.0, -1.0, -1.0],
        );
        assert_eq!(accuracy_sparse_of(Loss::Hinge, &q, &sparse), 1.0);
        let dl = mean_loss_of(Loss::Logistic, &q, &tiny());
        let sl = mean_loss_sparse_of(Loss::Logistic, &q, &sparse);
        assert!((dl - sl).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "classifier loss")]
    fn accuracy_rejects_regression() {
        let _ = accuracy(Loss::LeastSquares, &[0.0, 0.0], &tiny());
    }
}
