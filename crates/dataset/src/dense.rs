//! Dense example matrices with quantized storage.

use buckwild_fixed::{FixedSpec, Rounding};

use crate::element::reencode;
use crate::{Element, Label};

/// A dense dataset: `m` examples of `n` features stored row-major, plus
/// binary labels.
///
/// The element type `T` is the *storage* precision — the `D` term of the
/// DMGC signature. Fixed-point storage carries its [`FixedSpec`] so values
/// can always be decoded.
///
/// # Example
///
/// ```
/// use buckwild_dataset::DenseDataset;
///
/// let data = DenseDataset::from_rows(
///     vec![vec![0.5, -0.5], vec![1.0, 0.0]],
///     vec![1.0, -1.0],
/// );
/// assert_eq!(data.features(), 2);
/// assert_eq!(data.example(1), &[1.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseDataset<T = f32> {
    values: Vec<T>,
    labels: Vec<Label>,
    features: usize,
    spec: FixedSpec,
}

impl DenseDataset<f32> {
    /// Builds a full-precision dataset from example rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths, if `rows.len() !=
    /// labels.len()`, or if there are no rows.
    #[must_use]
    pub fn from_rows(rows: Vec<Vec<f32>>, labels: Vec<Label>) -> Self {
        assert!(!rows.is_empty(), "dataset must have at least one example");
        assert_eq!(rows.len(), labels.len(), "one label per example");
        let features = rows[0].len();
        assert!(features > 0, "examples must have at least one feature");
        let mut values = Vec::with_capacity(rows.len() * features);
        for row in &rows {
            assert_eq!(row.len(), features, "ragged rows");
            values.extend_from_slice(row);
        }
        DenseDataset {
            values,
            labels,
            features,
            // Placeholder spec; f32 storage never consults it.
            spec: FixedSpec::unit_range(32),
        }
    }

    /// Builds a dataset from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != features * labels.len()` or either
    /// dimension is zero.
    #[must_use]
    pub fn from_flat(values: Vec<f32>, features: usize, labels: Vec<Label>) -> Self {
        assert!(features > 0, "features must be positive");
        assert!(!labels.is_empty(), "dataset must have at least one example");
        assert_eq!(values.len(), features * labels.len(), "shape mismatch");
        DenseDataset {
            values,
            labels,
            features,
            spec: FixedSpec::unit_range(32),
        }
    }
}

impl<T: Element> DenseDataset<T> {
    /// Number of features per example (`n`, the model size).
    #[must_use]
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of examples (`m`).
    #[must_use]
    pub fn examples(&self) -> usize {
        self.labels.len()
    }

    /// Total number of stored dataset numbers (`n * m`).
    #[must_use]
    pub fn numbers(&self) -> usize {
        self.values.len()
    }

    /// The fixed-point interpretation of the stored values (ignored for
    /// `f32` storage).
    #[must_use]
    pub fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// The example at `index` as a raw storage slice.
    ///
    /// # Panics
    ///
    /// Panics if `index >= examples()`.
    #[must_use]
    pub fn example(&self, index: usize) -> &[T] {
        let start = index * self.features;
        &self.values[start..start + self.features]
    }

    /// The label of example `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= examples()`.
    #[must_use]
    pub fn label(&self, index: usize) -> Label {
        self.labels[index]
    }

    /// All labels.
    #[must_use]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The full row-major value buffer.
    #[must_use]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Decodes example `index` to `f32`.
    #[must_use]
    pub fn example_f32(&self, index: usize) -> Vec<f32> {
        self.example(index)
            .iter()
            .map(|&v| v.decode(&self.spec))
            .collect()
    }

    /// Re-encodes this dataset at a different storage precision.
    ///
    /// Quantization is deterministic given `seed`; `rounding` selects the
    /// discipline (the paper quantizes datasets once, up front).
    ///
    /// # Panics
    ///
    /// Panics if `spec` is wider than `U`'s storage (a 16-bit spec into
    /// `i8`, say).
    #[must_use]
    pub fn requantize<U: Element>(
        &self,
        spec: FixedSpec,
        rounding: Rounding,
        seed: u64,
    ) -> DenseDataset<U> {
        DenseDataset {
            values: reencode(&self.values, &self.spec, spec, rounding, seed),
            labels: self.labels.clone(),
            features: self.features,
            spec,
        }
    }

    /// Shorthand: biased 8-bit quantization.
    #[must_use]
    pub fn quantize_i8(&self, spec: FixedSpec) -> DenseDataset<i8> {
        self.requantize(spec, Rounding::Biased, 0)
    }

    /// Shorthand: biased 16-bit quantization.
    #[must_use]
    pub fn quantize_i16(&self, spec: FixedSpec) -> DenseDataset<i16> {
        self.requantize(spec, Rounding::Biased, 0)
    }

    /// Splits into `(train, test)` with the first `train_fraction` of
    /// examples in train (callers should shuffle at generation time).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_fraction < 1` produces nonempty halves.
    #[must_use]
    pub fn split(&self, train_fraction: f64) -> (DenseDataset<T>, DenseDataset<T>)
    where
        T: Clone,
    {
        let m = self.examples();
        let cut = (m as f64 * train_fraction).round() as usize;
        assert!(cut > 0 && cut < m, "split must leave both halves nonempty");
        let take = |range: std::ops::Range<usize>| DenseDataset {
            values: self.values[range.start * self.features..range.end * self.features].to_vec(),
            labels: self.labels[range.clone()].to_vec(),
            features: self.features,
            spec: self.spec,
        };
        (take(0..cut), take(cut..m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DenseDataset<f32> {
        DenseDataset::from_rows(
            vec![vec![0.5, -0.5, 0.25], vec![1.0, 0.0, -1.0]],
            vec![1.0, -1.0],
        )
    }

    #[test]
    fn shape_accessors() {
        let d = small();
        assert_eq!(d.features(), 3);
        assert_eq!(d.examples(), 2);
        assert_eq!(d.numbers(), 6);
        assert_eq!(d.label(0), 1.0);
        assert_eq!(d.labels(), &[1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = DenseDataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]], vec![1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "one label per example")]
    fn label_count_checked() {
        let _ = DenseDataset::from_rows(vec![vec![1.0]], vec![]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_flat_checks_shape() {
        let _ = DenseDataset::from_flat(vec![1.0; 5], 2, vec![1.0, -1.0]);
    }

    #[test]
    fn quantize_preserves_shape_and_labels() {
        let d = small();
        let q = d.quantize_i8(FixedSpec::unit_range(8));
        assert_eq!(q.features(), 3);
        assert_eq!(q.examples(), 2);
        assert_eq!(q.labels(), d.labels());
    }

    #[test]
    fn quantize_error_bounded_by_half_quantum() {
        let d = small();
        let spec = FixedSpec::unit_range(8);
        let q = d.quantize_i8(spec);
        for i in 0..d.examples() {
            for (orig, dec) in d.example_f32(i).iter().zip(q.example_f32(i)) {
                let clamped = orig.clamp(spec.min_value(), spec.max_value());
                assert!((dec - clamped).abs() <= spec.quantum() / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn requantize_to_i16_then_back_to_f32() {
        let d = small();
        let q16 = d.quantize_i16(FixedSpec::unit_range(16));
        let back: DenseDataset<f32> =
            q16.requantize(FixedSpec::unit_range(32), Rounding::Biased, 0);
        for i in 0..d.examples() {
            for (a, b) in d.example_f32(i).iter().zip(back.example_f32(i)) {
                assert!((a - b).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn unbiased_requantize_is_deterministic_per_seed() {
        let d = small();
        let spec = FixedSpec::unit_range(8);
        let a: DenseDataset<i8> = d.requantize(spec, Rounding::Unbiased, 7);
        let b: DenseDataset<i8> = d.requantize(spec, Rounding::Unbiased, 7);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "spec width 16 exceeds storage width 8")]
    fn requantize_rejects_spec_wider_than_storage() {
        let _: DenseDataset<i8> =
            small().requantize(FixedSpec::unit_range(16), Rounding::Biased, 0);
    }

    #[test]
    fn split_partitions_examples() {
        let rows: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        let labels: Vec<f32> = (0..10)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let d = DenseDataset::from_rows(rows, labels);
        let (train, test) = d.split(0.7);
        assert_eq!(train.examples(), 7);
        assert_eq!(test.examples(), 3);
        assert_eq!(test.example(0), &[7.0]);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn degenerate_split_rejected() {
        let _ = small().split(0.01);
    }
}
