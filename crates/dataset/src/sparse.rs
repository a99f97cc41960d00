//! Sparse example matrices in CSR layout with quantized values and indices.

use buckwild_fixed::{FixedSpec, Rounding};

use crate::element::reencode;
use crate::{Element, Label};

/// One sparse example: parallel index/value slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseExample<'a, T, I> {
    /// Feature indices of the nonzero entries, strictly increasing.
    pub indices: &'a [I],
    /// The nonzero values, parallel to `indices`.
    pub values: &'a [T],
}

impl<T, I> SparseExample<'_, T, I> {
    /// Number of nonzero entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }
}

/// A sparse dataset in CSR (compressed sparse row) layout.
///
/// `T` is the value storage type (the `D` precision) and `I` the index
/// storage type (the `i` precision of the DMGC signature). The paper notes
/// that index precision can be lowered with *no* statistical cost since it
/// does not change dataset semantics — for models too large to index
/// directly, deltas between successive indices are stored instead
/// (§3 footnote 6); [`SparseDataset::needs_delta_encoding`] reports whether
/// that is needed.
///
/// # Example
///
/// ```
/// use buckwild_dataset::SparseDataset;
///
/// let data = SparseDataset::<f32, u32>::from_triplets(
///     4,
///     vec![vec![(0, 1.0), (3, -1.0)], vec![(2, 0.5)]],
///     vec![1.0, -1.0],
/// );
/// assert_eq!(data.example(0).nnz(), 2);
/// assert_eq!(data.density(), 3.0 / 8.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDataset<T = f32, I = u32> {
    indptr: Vec<usize>,
    indices: Vec<I>,
    values: Vec<T>,
    labels: Vec<Label>,
    features: usize,
    spec: FixedSpec,
}

/// Index storage types for sparse datasets.
pub trait IndexElement: Copy + Send + Sync + std::fmt::Debug + 'static {
    /// Bits of storage per index.
    const BITS: u32;
    /// Converts from a usize feature index.
    ///
    /// # Panics
    ///
    /// Panics if the index does not fit (callers should check
    /// [`SparseDataset::needs_delta_encoding`] first).
    fn from_usize(index: usize) -> Self;
    /// Converts back to a usize feature index.
    fn to_usize(self) -> usize;
}

macro_rules! index_element {
    ($ty:ty, $bits:expr) => {
        impl IndexElement for $ty {
            const BITS: u32 = $bits;
            fn from_usize(index: usize) -> Self {
                <$ty>::try_from(index).expect("index exceeds index-precision range")
            }
            fn to_usize(self) -> usize {
                self as usize
            }
        }
    };
}

index_element!(u8, 8);
index_element!(u16, 16);
index_element!(u32, 32);

impl SparseDataset<f32, u32> {
    /// Builds a full-precision sparse dataset from per-example
    /// `(index, value)` triplet lists.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or not strictly increasing
    /// within an example, if `rows.len() != labels.len()`, or if `features`
    /// is zero.
    #[must_use]
    pub fn from_triplets(
        features: usize,
        rows: Vec<Vec<(usize, f32)>>,
        labels: Vec<Label>,
    ) -> Self {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        for row in rows {
            for (idx, val) in row {
                // An index past `u32` is out of range of any storable model.
                indices.push(u32::try_from(idx).unwrap_or(u32::MAX));
                values.push(val);
            }
            indptr.push(indices.len());
        }
        Self::from_csr(features, indptr, indices, values, labels)
    }

    /// Builds a full-precision dataset from CSR arrays: example `i` is
    /// `indices[indptr[i]..indptr[i + 1]]` with the parallel `values`.
    ///
    /// # Panics
    ///
    /// Panics as [`SparseDataset::from_triplets`] does, or if `indptr` does
    /// not start at 0, never decrease and end at the length of `indices`
    /// and `values`.
    pub(crate) fn from_csr(
        features: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
        labels: Vec<Label>,
    ) -> Self {
        assert!(features > 0, "features must be positive");
        assert_eq!(indptr.len(), labels.len() + 1, "one label per example");
        assert!(
            indptr[0] == 0
                && indptr[labels.len()] == indices.len()
                && indices.len() == values.len(),
            "row pointers must span the indices and values"
        );
        for row in indptr.windows(2) {
            let row = &indices[row[0]..row[1]];
            for (k, &idx) in row.iter().enumerate() {
                assert!(
                    (idx as usize) < features,
                    "index {idx} out of range {features}"
                );
                if k > 0 {
                    assert!(idx > row[k - 1], "indices must be strictly increasing");
                }
            }
        }
        SparseDataset {
            indptr,
            indices,
            values,
            labels,
            features,
            spec: FixedSpec::unit_range(32),
        }
    }
}

impl<T: Element, I: IndexElement> SparseDataset<T, I> {
    /// Number of features (`n`, the model size).
    #[must_use]
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of examples (`m`).
    #[must_use]
    pub fn examples(&self) -> usize {
        self.labels.len()
    }

    /// Total nonzero entries across all examples.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are nonzero.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.features as f64 * self.examples() as f64)
    }

    /// The value storage spec.
    #[must_use]
    pub fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// The example at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= examples()`.
    #[must_use]
    pub fn example(&self, index: usize) -> SparseExample<'_, T, I> {
        let start = self.indptr[index];
        let end = self.indptr[index + 1];
        SparseExample {
            indices: &self.indices[start..end],
            values: &self.values[start..end],
        }
    }

    /// The label of example `index`.
    #[must_use]
    pub fn label(&self, index: usize) -> Label {
        self.labels[index]
    }

    /// All labels.
    #[must_use]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// True if the model is too large to index directly with `J`, so the
    /// delta-between-successive-indices encoding of §3 footnote 6 would be
    /// required.
    #[must_use]
    pub fn needs_delta_encoding<J: IndexElement>(&self) -> bool {
        J::BITS < 64 && self.features - 1 > ((1u64 << J::BITS) - 1) as usize
    }

    /// Decodes example `index` into a dense `f32` vector.
    #[must_use]
    pub fn example_dense_f32(&self, index: usize) -> Vec<f32> {
        let mut out = vec![0f32; self.features];
        let ex = self.example(index);
        for (i, v) in ex.indices.iter().zip(ex.values) {
            out[i.to_usize()] = v.decode(&self.spec);
        }
        out
    }

    /// Re-encodes values (and re-types indices) at different precisions.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is wider than `U`'s storage, or if any feature
    /// index does not fit in `J` — use wider indices or delta encoding for
    /// larger models.
    #[must_use]
    pub fn requantize<U: Element, J: IndexElement>(
        &self,
        spec: FixedSpec,
        rounding: Rounding,
        seed: u64,
    ) -> SparseDataset<U, J> {
        let values = reencode(&self.values, &self.spec, spec, rounding, seed);
        let indices = self
            .indices
            .iter()
            .map(|&i| J::from_usize(i.to_usize()))
            .collect();
        SparseDataset {
            indptr: self.indptr.clone(),
            indices,
            values,
            labels: self.labels.clone(),
            features: self.features,
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparseDataset<f32, u32> {
        SparseDataset::from_triplets(
            4,
            vec![vec![(0, 1.0), (3, -1.0)], vec![(2, 0.5)], vec![]],
            vec![1.0, -1.0, 1.0],
        )
    }

    #[test]
    fn shape_and_density() {
        let d = small();
        assert_eq!(d.features(), 4);
        assert_eq!(d.examples(), 3);
        assert_eq!(d.nnz(), 3);
        assert!((d.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn example_views() {
        let d = small();
        let e0 = d.example(0);
        assert_eq!(e0.indices, &[0, 3]);
        assert_eq!(e0.values, &[1.0, -1.0]);
        assert_eq!(d.example(2).nnz(), 0);
    }

    #[test]
    fn dense_decoding() {
        let d = small();
        assert_eq!(d.example_dense_f32(0), vec![1.0, 0.0, 0.0, -1.0]);
        assert_eq!(d.example_dense_f32(2), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_indices_rejected() {
        let _ = SparseDataset::from_triplets(4, vec![vec![(2, 1.0), (1, 1.0)]], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_rejected() {
        let _ = SparseDataset::from_triplets(4, vec![vec![(4, 1.0)]], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn repeated_index_rejected() {
        let _ = SparseDataset::from_triplets(4, vec![vec![(1, 1.0), (1, 1.0)]], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "one label per example")]
    fn label_count_mismatch_rejected() {
        let _ = SparseDataset::from_triplets(4, vec![vec![(0, 1.0)], vec![]], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "row pointers must span the indices and values")]
    fn short_row_pointers_rejected() {
        let _ = SparseDataset::from_csr(4, vec![0, 1], vec![0, 2], vec![1.0, 1.0], vec![1.0]);
    }

    #[test]
    fn requantize_values_and_indices() {
        let d = small();
        let q: SparseDataset<i8, u8> = d.requantize(FixedSpec::unit_range(8), Rounding::Biased, 0);
        assert_eq!(q.nnz(), 3);
        let e0 = q.example(0);
        assert_eq!(e0.indices, &[0u8, 3]);
        assert_eq!(e0.values[0], 127); // 1.0 saturates to 127/128
        assert_eq!(e0.values[1], -128);
    }

    #[test]
    #[should_panic(expected = "spec width 16 exceeds storage width 8")]
    fn requantize_rejects_spec_wider_than_storage() {
        let _: SparseDataset<i8, u32> =
            small().requantize(FixedSpec::unit_range(16), Rounding::Biased, 0);
    }

    #[test]
    fn needs_delta_encoding_thresholds() {
        let wide = SparseDataset::from_triplets(300, vec![vec![(299, 1.0)]], vec![1.0]);
        assert!(wide.needs_delta_encoding::<u8>());
        assert!(!wide.needs_delta_encoding::<u16>());
    }

    #[test]
    #[should_panic(expected = "exceeds index-precision range")]
    fn requantize_narrow_index_panics_when_too_wide() {
        let wide = SparseDataset::from_triplets(300, vec![vec![(299, 1.0)]], vec![1.0]);
        let _: SparseDataset<i8, u8> =
            wide.requantize(FixedSpec::unit_range(8), Rounding::Biased, 0);
    }
}
