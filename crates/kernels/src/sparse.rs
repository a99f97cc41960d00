//! Sparse (CSR) dot and AXPY kernels: gather/scatter variants.
//!
//! Sparse SGD touches only the nonzero coordinates of each example, so the
//! inner loops are index-gather (`w[idx[j]]`) and index-scatter, which
//! vectorize far less profitably than the dense streams — this is why the
//! paper's Table 2 shows sub-linear precision speedups for sparse problems,
//! and why hand-optimization can even *hurt* small sparse models
//! (Figure 4b). Lowering the *index* precision still pays: it halves or
//! quarters the bytes fetched per nonzero with zero statistical cost.

use buckwild_dataset::{Element, IndexElement};
use buckwild_fixed::{FixedSpec, Rounding};

use crate::optimized::FixedInt;
use crate::AxpyRand;

/// Sparse dot product, widening path: `Σ_j x_val[j] · w[x_idx[j]]`.
///
/// # Panics
///
/// Panics if `values.len() != indices.len()` or any index is out of range.
#[must_use]
pub fn dot_generic<D: Element, I: IndexElement, M: Element>(
    values: &[D],
    indices: &[I],
    w: &[M],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
) -> f32 {
    assert_eq!(values.len(), indices.len(), "values/indices mismatch");
    let mut acc = 0f32;
    for (&v, &i) in values.iter().zip(indices) {
        acc += v.decode(x_spec) * w[i.to_usize()].decode(w_spec);
    }
    acc
}

/// Sparse AXPY, widening path: `w[idx[j]] ← Q(w[idx[j]] + a·x_val[j])`.
///
/// # Panics
///
/// Panics if `values.len() != indices.len()` or any index is out of range.
#[allow(clippy::too_many_arguments)] // mirrors the dense kernel signature plus the index stream
pub fn axpy_generic<D: Element, I: IndexElement, M: Element, F: FnMut() -> f32>(
    w: &mut [M],
    a: f32,
    values: &[D],
    indices: &[I],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
    rounding: Rounding,
    mut uniform: F,
) {
    assert_eq!(values.len(), indices.len(), "values/indices mismatch");
    for (&v, &i) in values.iter().zip(indices) {
        let slot = &mut w[i.to_usize()];
        let updated = slot.decode(w_spec) + a * v.decode(x_spec);
        *slot = M::encode(updated, w_spec, rounding, &mut uniform);
    }
}

/// Sparse integer-MAC dot product: products in `i32`, gathered model reads,
/// `i64` total, one final scale.
///
/// # Panics
///
/// Panics if `values.len() != indices.len()` or any index is out of range.
#[must_use]
pub fn dot_fixed_fixed<D: FixedInt, I: IndexElement, M: FixedInt>(
    values: &[D],
    indices: &[I],
    w: &[M],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
) -> f32 {
    assert_eq!(values.len(), indices.len(), "values/indices mismatch");
    let mut total = 0i64;
    // Four-way partial sums: the gather dominates, but independent chains
    // still let the CPU overlap loads.
    let mut acc = [0i64; 4];
    let chunks = values.chunks_exact(4);
    let idx_chunks = indices.chunks_exact(4);
    let rem_v = chunks.remainder();
    let rem_i = idx_chunks.remainder();
    for (vb, ib) in chunks.zip(idx_chunks) {
        for j in 0..4 {
            acc[j] += (vb[j].widen() * w[ib[j].to_usize()].widen()) as i64;
        }
    }
    total += acc.iter().sum::<i64>();
    for (&v, &i) in rem_v.iter().zip(rem_i) {
        total += (v.widen() * w[i.to_usize()].widen()) as i64;
    }
    total as f32 * x_spec.quantum() * w_spec.quantum()
}

/// Sparse integer AXPY with quantized scatter writes.
///
/// Uses the same pre-scaled `Q17.15` multiplier and fold-randomness-before-
/// shift scheme as the dense optimized kernel.
///
/// # Panics
///
/// Panics if `values.len() != indices.len()` or any index is out of range.
pub fn axpy_fixed_fixed<D: FixedInt, I: IndexElement, M: FixedInt>(
    w: &mut [M],
    a: f32,
    values: &[D],
    indices: &[I],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
    mut rand: AxpyRand<'_>,
) {
    assert_eq!(values.len(), indices.len(), "values/indices mismatch");
    const K_SHIFT: u32 = 15;
    let k_real = a as f64 * x_spec.quantum() as f64 / w_spec.quantum() as f64;
    let k = (k_real * (1i64 << K_SHIFT) as f64)
        .round()
        .clamp(i32::MIN as f64, i32::MAX as f64) as i64;
    const MASK: u32 = (1u32 << 15) - 1;
    const HALF: i64 = 1i64 << 14;
    let mut lane_buf = [0u32; 8];
    let mut cursor = 8usize;
    for (j, (&v, &i)) in values.iter().zip(indices).enumerate() {
        let r = match &mut rand {
            AxpyRand::Biased => HALF,
            AxpyRand::Scalar(f) => (f() * (1u32 << K_SHIFT) as f32) as i64,
            AxpyRand::Shared(block) => (block[j % 8] & MASK) as i64,
            AxpyRand::FreshLanes(lanes) => {
                if cursor >= 8 {
                    lane_buf = lanes.step();
                    cursor = 0;
                }
                let word = lane_buf[cursor];
                cursor += 1;
                (word & MASK) as i64
            }
        };
        let slot = &mut w[i.to_usize()];
        let delta = (v.widen() as i64 * k + r) >> K_SHIFT;
        *slot = M::saturate(slot.widen() as i64 + delta);
    }
}

/// Sparse dot over a delta-encoded example (paper §3 footnote 6): gaps are
/// decoded on the fly, so narrow index types address arbitrarily large
/// models. Escape entries (max gap code, zero value) contribute nothing.
///
/// # Panics
///
/// Panics if a decoded index falls outside `w`.
#[must_use]
pub fn dot_delta<D: FixedInt, I: IndexElement, M: FixedInt>(
    example: &buckwild_dataset::DeltaExample<D, I>,
    w: &[M],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
) -> f32 {
    let mut total = 0i64;
    for (index, value) in example.iter() {
        total += (value.widen() * w[index].widen()) as i64;
    }
    total as f32 * x_spec.quantum() * w_spec.quantum()
}

/// Sparse AXPY over a delta-encoded example with quantized scatter writes.
///
/// # Panics
///
/// Panics if a decoded index falls outside `w`.
pub fn axpy_delta<D: FixedInt, I: IndexElement, M: FixedInt>(
    w: &mut [M],
    a: f32,
    example: &buckwild_dataset::DeltaExample<D, I>,
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
    mut rand: AxpyRand<'_>,
) {
    const K_SHIFT: u32 = 15;
    const MASK: u32 = (1u32 << K_SHIFT) - 1;
    const HALF: i64 = 1i64 << (K_SHIFT - 1);
    let k_real = a as f64 * x_spec.quantum() as f64 / w_spec.quantum() as f64;
    let k = (k_real * (1i64 << K_SHIFT) as f64)
        .round()
        .clamp(i32::MIN as f64, i32::MAX as f64) as i64;
    let mut lane_buf = [0u32; 8];
    let mut cursor = 8usize;
    for (j, (index, value)) in example.iter().enumerate() {
        let r = match &mut rand {
            AxpyRand::Biased => HALF,
            AxpyRand::Scalar(f) => (f() * (1u32 << K_SHIFT) as f32) as i64,
            AxpyRand::Shared(block) => (block[j % 8] & MASK) as i64,
            AxpyRand::FreshLanes(lanes) => {
                if cursor >= 8 {
                    lane_buf = lanes.step();
                    cursor = 0;
                }
                let word = lane_buf[cursor];
                cursor += 1;
                (word & MASK) as i64
            }
        };
        let slot = &mut w[index];
        let delta = (value.widen() as i64 * k + r) >> K_SHIFT;
        *slot = M::saturate(slot.widen() as i64 + delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buckwild_prng::{Prng, Xorshift128};

    fn specs8() -> (FixedSpec, FixedSpec) {
        (FixedSpec::unit_range(8), FixedSpec::model_range(8))
    }

    fn sparse_example(n: usize, nnz: usize, seed: u64) -> (Vec<i8>, Vec<u32>) {
        let mut rng = Xorshift128::seed_from(seed);
        let mut indices: Vec<u32> = Vec::new();
        let stride = n / nnz;
        for j in 0..nnz {
            indices
                .push((j * stride) as u32 + rng.next_below(stride as u32).min(stride as u32 - 1));
        }
        let values: Vec<i8> = (0..nnz).map(|_| rng.next_u32() as i8).collect();
        (values, indices)
    }

    #[test]
    fn sparse_dot_matches_generic() {
        let (xs, ws) = specs8();
        let (values, indices) = sparse_example(256, 16, 1);
        let mut rng = Xorshift128::seed_from(2);
        let w: Vec<i8> = (0..256).map(|_| rng.next_u32() as i8).collect();
        let fast = dot_fixed_fixed(&values, &indices, &w, &xs, &ws);
        let slow = dot_generic(&values, &indices, &w, &xs, &ws);
        assert!((fast - slow).abs() < 1e-3, "{fast} vs {slow}");
    }

    #[test]
    fn sparse_dot_handles_remainder_lengths() {
        let (xs, ws) = specs8();
        for nnz in [1usize, 2, 3, 5, 7] {
            let (values, indices) = sparse_example(64, nnz, nnz as u64);
            let w: Vec<i8> = vec![16; 64];
            let fast = dot_fixed_fixed(&values, &indices, &w, &xs, &ws);
            let slow = dot_generic(&values, &indices, &w, &xs, &ws);
            assert!((fast - slow).abs() < 1e-3, "nnz={nnz}");
        }
    }

    #[test]
    fn sparse_axpy_touches_only_indexed_slots() {
        let (xs, ws) = specs8();
        let values: Vec<i8> = vec![127, -127];
        let indices: Vec<u32> = vec![3, 10];
        let mut w: Vec<i8> = vec![5; 16];
        axpy_fixed_fixed(&mut w, 0.5, &values, &indices, &xs, &ws, AxpyRand::Biased);
        for (i, &v) in w.iter().enumerate() {
            if i == 3 || i == 10 {
                assert_ne!(v, 5, "slot {i} should change");
            } else {
                assert_eq!(v, 5, "slot {i} must not change");
            }
        }
    }

    #[test]
    fn sparse_axpy_biased_close_to_generic() {
        let (xs, ws) = specs8();
        let (values, indices) = sparse_example(128, 12, 3);
        let mut w_fast: Vec<i8> = vec![0; 128];
        let mut w_slow = w_fast.clone();
        axpy_fixed_fixed(
            &mut w_fast,
            0.07,
            &values,
            &indices,
            &xs,
            &ws,
            AxpyRand::Biased,
        );
        axpy_generic(
            &mut w_slow,
            0.07,
            &values,
            &indices,
            &xs,
            &ws,
            Rounding::Biased,
            || 0.0,
        );
        for (f, s) in w_fast.iter().zip(&w_slow) {
            assert!((*f as i32 - *s as i32).abs() <= 1);
        }
    }

    #[test]
    fn sparse_axpy_shared_randomness_deterministic() {
        let (xs, ws) = specs8();
        let (values, indices) = sparse_example(64, 8, 4);
        let block = [0x1234_5678u32; 8];
        let mut w1: Vec<i8> = vec![0; 64];
        let mut w2: Vec<i8> = vec![0; 64];
        axpy_fixed_fixed(
            &mut w1,
            0.1,
            &values,
            &indices,
            &xs,
            &ws,
            AxpyRand::Shared(&block),
        );
        axpy_fixed_fixed(
            &mut w2,
            0.1,
            &values,
            &indices,
            &xs,
            &ws,
            AxpyRand::Shared(&block),
        );
        assert_eq!(w1, w2);
    }

    #[test]
    fn narrow_index_types_work() {
        let (xs, ws) = specs8();
        let values: Vec<i8> = vec![64, 32];
        let indices: Vec<u8> = vec![1, 200];
        let mut w: Vec<i8> = vec![0; 256];
        axpy_fixed_fixed(&mut w, 0.5, &values, &indices, &xs, &ws, AxpyRand::Biased);
        assert_ne!(w[1], 0);
        assert_ne!(w[200], 0);
        let d = dot_fixed_fixed(&values, &indices, &w, &xs, &ws);
        let g = dot_generic(&values, &indices, &w, &xs, &ws);
        assert!((d - g).abs() < 1e-4);
    }

    #[test]
    fn delta_kernels_match_plain_sparse() {
        use buckwild_dataset::DeltaExample;
        let (xs, ws) = specs8();
        // Indices spanning beyond u8 range to exercise escapes.
        let indices = [0usize, 30, 300, 301, 900];
        let values: [i8; 5] = [64, -32, 127, -128, 8];
        let de = DeltaExample::<i8, u8>::encode(&indices, &values);
        let mut rng = Xorshift128::seed_from(9);
        let w: Vec<i8> = (0..1024).map(|_| rng.next_u32() as i8).collect();
        let idx32: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
        let plain = dot_fixed_fixed(&values, &idx32, &w, &xs, &ws);
        let delta = dot_delta(&de, &w, &xs, &ws);
        assert!((plain - delta).abs() < 1e-5, "{plain} vs {delta}");

        let mut w_plain = w.clone();
        let mut w_delta = w.clone();
        let block = [0xdead_beefu32; 8];
        axpy_fixed_fixed(
            &mut w_plain,
            0.2,
            &values,
            &idx32,
            &xs,
            &ws,
            AxpyRand::Shared(&block),
        );
        axpy_delta(&mut w_delta, 0.2, &de, &xs, &ws, AxpyRand::Shared(&block));
        // Offsets index by position (plain: entry position; delta: entry
        // position including escapes) so individual writes may use
        // different block words — but every touched slot must land within
        // one quantum of the plain path, and untouched slots are identical.
        for (i, (p, d)) in w_plain.iter().zip(&w_delta).enumerate() {
            if indices.contains(&i) {
                assert!((*p as i32 - *d as i32).abs() <= 1, "slot {i}: {p} vs {d}");
            } else {
                assert_eq!(p, d, "untouched slot {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "values/indices mismatch")]
    fn mismatched_lengths_panic() {
        let (xs, ws) = specs8();
        let w: Vec<i8> = vec![0; 8];
        let _ = dot_fixed_fixed(&[1i8, 2], &[0u32], &w, &xs, &ws);
    }
}
