//! Compiler-style kernels: widen everything to `f32`, then do float math.
//!
//! This is the instruction pattern a general-purpose compiler produces for
//! naive low-precision C++ (paper §5.1): to dot two 8-bit vectors GCC
//! "(1) converts the 8-bit numbers into 32-bit floats, … (2) multiplies the
//! floating point vectors, and (3) sums the resulting floating point
//! numbers" — roughly a dozen instructions where the hand-optimized code
//! uses one fused multiply-add. We reproduce that shape faithfully: one
//! element at a time, decode to `f32`, compute in `f32`, re-encode.
//!
//! These functions are *correct* for every precision pair and serve as the
//! semantic reference the optimized kernels are tested against.

use buckwild_dataset::Element;
use buckwild_fixed::{FixedSpec, Rounding};

/// Dot product with per-element widening to `f32`.
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
#[must_use]
pub fn dot<D: Element, M: Element>(
    x: &[D],
    w: &[M],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
) -> f32 {
    assert_eq!(x.len(), w.len(), "length mismatch");
    let mut acc = 0f32;
    for (&xi, &wi) in x.iter().zip(w) {
        acc += xi.decode(x_spec) * wi.decode(w_spec);
    }
    acc
}

/// AXPY `w[i] ← Q(w[i] + a·x[i])` with per-element widening to `f32`.
///
/// `uniform` supplies `[0, 1)` samples consumed only when `rounding` is
/// [`Rounding::Unbiased`] **and** the model type is fixed point.
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
pub fn axpy<D: Element, M: Element, F: FnMut() -> f32>(
    w: &mut [M],
    a: f32,
    x: &[D],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
    rounding: Rounding,
    mut uniform: F,
) {
    assert_eq!(x.len(), w.len(), "length mismatch");
    for (wi, &xi) in w.iter_mut().zip(x) {
        let updated = wi.decode(w_spec) + a * xi.decode(x_spec);
        *wi = M::encode(updated, w_spec, rounding, &mut uniform);
    }
}

/// Squared L2 norm via the widening path (used by diagnostics).
#[must_use]
pub fn norm_sq<T: Element>(v: &[T], spec: &FixedSpec) -> f32 {
    v.iter().map(|&e| e.decode(spec).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_f32_matches_manual() {
        let spec = FixedSpec::unit_range(32);
        let x = [1.0f32, 2.0, 3.0];
        let w = [4.0f32, -5.0, 6.0];
        assert_eq!(dot(&x, &w, &spec, &spec), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn dot_mixed_precision() {
        let xs = FixedSpec::unit_range(8); // quantum 1/128
        let ws = FixedSpec::model_range(16); // quantum 1/8192
        let x: Vec<i8> = vec![64, -128]; // 0.5, -1.0
        let w: Vec<i16> = vec![8192, 4096]; // 1.0, 0.5
        let d = dot(&x, &w, &xs, &ws);
        assert!((d - (0.5 - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn axpy_biased_quantizes_to_model_grid() {
        let xs = FixedSpec::unit_range(8);
        let ws = FixedSpec::model_range(8); // quantum 1/64
        let x: Vec<i8> = vec![-128, 64]; // -1.0, 0.5
        let mut w: Vec<i8> = vec![0, 0];
        axpy(&mut w, 0.1, &x, &xs, &ws, Rounding::Biased, || 0.0);
        // w0 = 0 + 0.1 * -1.0 = -0.1 -> -6.4/64 -> repr -6
        assert_eq!(w[0], -6);
        // w1 = 0 + 0.1 * 0.5 = 0.05 -> 3.2/64 -> repr 3
        assert_eq!(w[1], 3);
    }

    #[test]
    fn axpy_unbiased_brackets() {
        let xs = FixedSpec::unit_range(8);
        let ws = FixedSpec::model_range(8);
        let x: Vec<i8> = vec![64]; // 0.5
        for (u, expected) in [(0.0f32, 3i8), (0.99, 4)] {
            let mut w: Vec<i8> = vec![0];
            // 0.1 * 0.5 = 0.05 -> 3.2 quanta
            axpy(&mut w, 0.1, &x, &xs, &ws, Rounding::Unbiased, || u);
            assert_eq!(w[0], expected, "u={u}");
        }
    }

    #[test]
    fn axpy_f32_model_ignores_rounding() {
        let xs = FixedSpec::unit_range(8);
        let ws = FixedSpec::unit_range(32);
        let x: Vec<i8> = vec![64];
        let mut w = vec![0.25f32];
        axpy(&mut w, -0.5, &x, &xs, &ws, Rounding::Unbiased, || 0.77);
        assert!((w[0] - 0.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_checks_lengths() {
        let spec = FixedSpec::unit_range(32);
        let _ = dot(&[1.0f32], &[1.0f32, 2.0], &spec, &spec);
    }

    #[test]
    fn norm_sq_works() {
        let spec = FixedSpec::unit_range(32);
        assert_eq!(norm_sq(&[3.0f32, 4.0], &spec), 25.0);
    }
}
