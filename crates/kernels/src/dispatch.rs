//! The two flavour-routed dots: one call per operand layout that runs
//! whichever [`KernelFlavor`] the caller names.
//!
//! The paper's kernel comparison (Figure 4, §5.1, §6.1) is a kernel-level
//! experiment, and this module is where it is written down once: given a
//! flavour, [`dot_fixed_fixed`] and [`dot_sparse_fixed`] run the matching
//! fixed-point dot from [`generic`] / [`optimized`] / [`sparse`] /
//! [`weave`], so a comparison harness sweeps [`KernelFlavor::ALL`] without
//! matching on it. Nothing else routes through here: the training engine
//! and the `Predictor` call the `optimized` / `sparse` kernels directly —
//! those free functions are the crate's API.
//!
//! Routing rules:
//!
//! * [`KernelFlavor::Generic`] → the widen-to-`f32` paths in
//!   [`generic`] / [`sparse`].
//! * [`KernelFlavor::Optimized`] and [`KernelFlavor::Proposed`] → the
//!   integer-MAC paths (`Proposed` differs only in the cost model).
//! * [`KernelFlavor::BitSerial`] → the plane-serial kernels in [`weave`]
//!   when the data precision fits `1..=16`, else the integer-MAC path.

use buckwild_dataset::IndexElement;
use buckwild_fixed::FixedSpec;

use crate::optimized::FixedInt;
use crate::{generic, optimized, sparse, weave, KernelFlavor};

/// Dense dot, fixed data × fixed model — the paper's flagship path.
///
/// `BitSerial` runs the transient plane-serial kernel when the data
/// precision is weavable (`1..=16` bits), else falls back to the
/// integer-MAC path.
#[must_use]
pub fn dot_fixed_fixed<D: FixedInt, M: FixedInt>(
    flavor: KernelFlavor,
    x: &[D],
    w: &[M],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
) -> f32 {
    match flavor {
        KernelFlavor::Generic => generic::dot(x, w, x_spec, w_spec),
        KernelFlavor::Optimized | KernelFlavor::Proposed => {
            optimized::dot_fixed_fixed(x, w, x_spec, w_spec)
        }
        KernelFlavor::BitSerial => {
            if x_spec.bits() <= weave::MAX_BITS {
                weave::dot_bitserial(x, w, x_spec, w_spec)
            } else {
                optimized::dot_fixed_fixed(x, w, x_spec, w_spec)
            }
        }
    }
}

/// Sparse dot, fixed values × fixed model.
#[must_use]
pub fn dot_sparse_fixed<D: FixedInt, I: IndexElement, M: FixedInt>(
    flavor: KernelFlavor,
    values: &[D],
    indices: &[I],
    w: &[M],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
) -> f32 {
    match flavor {
        KernelFlavor::Generic => sparse::dot_generic(values, indices, w, x_spec, w_spec),
        KernelFlavor::Optimized | KernelFlavor::Proposed => {
            sparse::dot_fixed_fixed(values, indices, w, x_spec, w_spec)
        }
        KernelFlavor::BitSerial => {
            if x_spec.bits() <= weave::MAX_BITS {
                weave::dot_sparse_fixed(values, indices, w, x_spec, w_spec)
            } else {
                sparse::dot_fixed_fixed(values, indices, w, x_spec, w_spec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reprs_i8(n: usize, seed: u32) -> Vec<i8> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state & 0xff) as u8 as i8
            })
            .collect()
    }

    #[test]
    fn all_flavors_agree_on_dense_fixed() {
        let spec = FixedSpec::unit_range(8);
        let x = reprs_i8(200, 3);
        let w = reprs_i8(200, 4);
        let reference = dot_fixed_fixed(KernelFlavor::Optimized, &x, &w, &spec, &spec);
        for flavor in KernelFlavor::ALL {
            let got = dot_fixed_fixed(flavor, &x, &w, &spec, &spec);
            let tol = reference.abs().max(1.0) * 1e-4;
            assert!(
                (got - reference).abs() <= tol,
                "{flavor}: got {got}, want {reference}"
            );
        }
    }

    #[test]
    fn all_flavors_agree_on_sparse_fixed() {
        let spec = FixedSpec::unit_range(8);
        let w = reprs_i8(512, 9);
        let values = reprs_i8(60, 10);
        let indices: Vec<u16> = (0..60).map(|j| (j * 7 % 512) as u16).collect();
        let reference =
            dot_sparse_fixed(KernelFlavor::Optimized, &values, &indices, &w, &spec, &spec);
        for flavor in KernelFlavor::ALL {
            let got = dot_sparse_fixed(flavor, &values, &indices, &w, &spec, &spec);
            let tol = reference.abs().max(1.0) * 1e-4;
            assert!(
                (got - reference).abs() <= tol,
                "{flavor}: got {got}, want {reference}"
            );
        }
    }
}
