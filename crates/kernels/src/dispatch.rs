//! Unified kernel dispatch: one entry point per operation, keyed by
//! [`KernelFlavor`].
//!
//! With three flavours (`generic`, `optimized`/`proposed`, `bitserial`)
//! the old pattern — every caller matching on flavour and picking a free
//! function from `generic`/`optimized`/`sparse`/`weave` — stopped
//! scaling: adding a flavour meant auditing every trainer, the
//! `Predictor`, the cachesim workloads, and every bench driver. This
//! module is the single routing table. Callers pass the flavour (and
//! their slices) and get the right kernel; the free functions in the
//! per-flavour modules stay `pub` for the kernel crate's own tests but
//! are `#[doc(hidden)]` to discourage new out-of-crate callers.
//!
//! Routing rules:
//!
//! * [`KernelFlavor::Generic`] → the widen-to-`f32` paths in
//!   [`generic`] / [`sparse`].
//! * [`KernelFlavor::Optimized`] and [`KernelFlavor::Proposed`] → the
//!   integer-MAC paths (`Proposed` differs only in the cost model).
//! * [`KernelFlavor::BitSerial`] → the plane-serial kernels in
//!   [`weave`] when both operands are fixed-point and the
//!   data precision fits `1..=16`; float operands fall back to the
//!   optimized path (there is no bit-plane decomposition of IEEE
//!   floats worth serializing).
//!
//! [`plan`] exposes the same routing decision declaratively so cost
//! models, cache simulators, and docs can classify a `(flavour,
//! signature)` pair without running a kernel.

use buckwild_dataset::{Element, IndexElement};
use buckwild_dmgc::Signature;
use buckwild_fixed::FixedSpec;

use crate::optimized::FixedInt;
use crate::{generic, optimized, sparse, weave, KernelFlavor};

/// Memory layout a flavour reads its dataset through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Element-major slices (`&[i8]`, `&[i16]`, `&[f32]`, …).
    Slice,
    /// Bit-plane-major weave blocks ([`weave::WeavedVec`]).
    Weaved,
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Layout::Slice => "slice",
            Layout::Weaved => "weaved",
        })
    }
}

/// The routing decision for a `(flavour, signature)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelPlan {
    /// Flavour whose kernels actually run (after fallbacks).
    pub flavor: KernelFlavor,
    /// Dataset layout the executing kernels consume.
    pub layout: Layout,
    /// True if the requested flavour could not serve this signature and
    /// a fallback flavour was substituted.
    pub fell_back: bool,
}

/// True if the bit-serial kernels can serve this signature natively:
/// fixed-point dataset and model, with a weavable data precision.
#[must_use]
pub fn bitserial_supports(signature: &Signature) -> bool {
    !signature.dataset().is_float()
        && !signature.model().is_float()
        && signature.dataset_bits() >= 1
        && signature.dataset_bits() <= weave::MAX_BITS
}

/// Resolves the flavour actually used for a signature, applying the same
/// fallback rules the executing entry points below apply.
#[must_use]
pub fn plan(flavor: KernelFlavor, signature: &Signature) -> KernelPlan {
    match flavor {
        KernelFlavor::BitSerial if bitserial_supports(signature) => KernelPlan {
            flavor,
            layout: Layout::Weaved,
            fell_back: false,
        },
        KernelFlavor::BitSerial => KernelPlan {
            flavor: KernelFlavor::Optimized,
            layout: Layout::Slice,
            fell_back: true,
        },
        other => KernelPlan {
            flavor: other,
            layout: Layout::Slice,
            fell_back: false,
        },
    }
}

/// Spec stand-in for `f32` operands where a fixed-spec argument is
/// required by a generic kernel (the spec is ignored for floats).
fn f32_spec() -> FixedSpec {
    FixedSpec::unit_range(32)
}

/// Dense dot, `f32` data × `f32` model.
#[must_use]
pub fn dot_f32_f32(flavor: KernelFlavor, x: &[f32], w: &[f32]) -> f32 {
    match flavor {
        KernelFlavor::Generic => generic::dot(x, w, &f32_spec(), &f32_spec()),
        // No integer planes to serialize: BitSerial falls back.
        KernelFlavor::Optimized | KernelFlavor::Proposed | KernelFlavor::BitSerial => {
            optimized::dot_f32_f32(x, w)
        }
    }
}

/// Dense batch dot, `f32` data × `f32` model: row-major flat `batch`
/// with `out.len()` rows of `w.len()` each.
///
/// # Panics
///
/// Panics if `batch.len() != w.len() * out.len()`.
pub fn dot_batch_f32_f32(flavor: KernelFlavor, batch: &[f32], w: &[f32], out: &mut [f32]) {
    match flavor {
        KernelFlavor::Generic => {
            assert_eq!(
                batch.len(),
                w.len() * out.len(),
                "batch/model shape mismatch"
            );
            for (o, row) in out.iter_mut().zip(batch.chunks_exact(w.len())) {
                *o = generic::dot(row, w, &f32_spec(), &f32_spec());
            }
        }
        KernelFlavor::Optimized | KernelFlavor::Proposed | KernelFlavor::BitSerial => {
            optimized::dot_batch_f32_f32(batch, w, out);
        }
    }
}

/// Dense dot, `f32` data × fixed model.
#[must_use]
pub fn dot_f32_fixed<M: FixedInt>(
    flavor: KernelFlavor,
    x: &[f32],
    w: &[M],
    w_spec: &FixedSpec,
) -> f32 {
    match flavor {
        KernelFlavor::Generic => generic::dot(x, w, &f32_spec(), w_spec),
        KernelFlavor::Optimized | KernelFlavor::Proposed | KernelFlavor::BitSerial => {
            optimized::dot_f32_fixed(x, w, w_spec)
        }
    }
}

/// Dense batch dot, `f32` data × fixed model (row-major flat `batch`).
///
/// # Panics
///
/// Panics if `batch.len() != w.len() * out.len()`.
pub fn dot_batch_f32_fixed<M: FixedInt>(
    flavor: KernelFlavor,
    batch: &[f32],
    w: &[M],
    w_spec: &FixedSpec,
    out: &mut [f32],
) {
    match flavor {
        KernelFlavor::Generic => {
            assert_eq!(
                batch.len(),
                w.len() * out.len(),
                "batch/model shape mismatch"
            );
            for (o, row) in out.iter_mut().zip(batch.chunks_exact(w.len())) {
                *o = generic::dot(row, w, &f32_spec(), w_spec);
            }
        }
        KernelFlavor::Optimized | KernelFlavor::Proposed | KernelFlavor::BitSerial => {
            optimized::dot_batch_f32_fixed(batch, w, w_spec, out);
        }
    }
}

/// Dense dot, fixed data × `f32` model.
#[must_use]
pub fn dot_fixed_f32<D: FixedInt>(
    flavor: KernelFlavor,
    x: &[D],
    x_spec: &FixedSpec,
    w: &[f32],
) -> f32 {
    match flavor {
        KernelFlavor::Generic => generic::dot(x, w, x_spec, &f32_spec()),
        KernelFlavor::Optimized | KernelFlavor::Proposed | KernelFlavor::BitSerial => {
            optimized::dot_fixed_f32(x, w, x_spec)
        }
    }
}

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

/// Sparse dot with any element mix, via the widening path.
///
/// Float operands have no integer fast path, so every flavour routes to
/// the generic sparse gather.
#[must_use]
pub fn dot_sparse_f32<D: Element, I: IndexElement, M: Element>(
    flavor: KernelFlavor,
    values: &[D],
    indices: &[I],
    w: &[M],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
) -> f32 {
    let _ = flavor;
    sparse::dot_generic(values, indices, w, x_spec, w_spec)
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

    #[test]
    fn all_flavors_agree_on_float_paths() {
        let spec = FixedSpec::unit_range(8);
        let xq = reprs_i8(100, 21);
        let x: Vec<f32> = xq.iter().map(|&v| v as f32 / 128.0).collect();
        let wq = reprs_i8(100, 22);
        let wf: Vec<f32> = wq.iter().map(|&v| v as f32 / 128.0).collect();
        for flavor in KernelFlavor::ALL {
            let a = dot_f32_f32(flavor, &x, &wf);
            let b = dot_f32_fixed(flavor, &x, &wq, &spec);
            let c = dot_fixed_f32(flavor, &xq, &spec, &wf);
            for v in [a, b, c] {
                assert!(v.is_finite(), "{flavor}");
            }
        }
    }

    #[test]
    fn batch_matches_per_row_for_every_flavor() {
        let spec = FixedSpec::unit_range(8);
        let n = 64;
        let rows = 5; // odd row count exercises the batch remainder path
        let batch: Vec<f32> = reprs_i8(n * rows, 30)
            .iter()
            .map(|&v| v as f32 / 128.0)
            .collect();
        let wf: Vec<f32> = reprs_i8(n, 40).iter().map(|&v| v as f32 / 128.0).collect();
        let wq = reprs_i8(n, 41);
        for flavor in KernelFlavor::ALL {
            let mut out = vec![0f32; rows];
            dot_batch_f32_f32(flavor, &batch, &wf, &mut out);
            for (o, row) in out.iter().zip(batch.chunks_exact(n)) {
                let per_row = dot_f32_f32(flavor, row, &wf);
                assert!(
                    (o - per_row).abs() <= per_row.abs().max(1.0) * 1e-5,
                    "{flavor}"
                );
            }
            dot_batch_f32_fixed(flavor, &batch, &wq, &spec, &mut out);
            for (o, row) in out.iter().zip(batch.chunks_exact(n)) {
                let per_row = dot_f32_fixed(flavor, row, &wq, &spec);
                assert!(
                    (o - per_row).abs() <= per_row.abs().max(1.0) * 1e-5,
                    "{flavor}"
                );
            }
        }
    }

    #[test]
    fn plan_classifies_layouts_and_fallbacks() {
        let d8m8 = Signature::dense_fixed(8, 8);
        let fp = Signature::full_precision();
        let p = plan(KernelFlavor::BitSerial, &d8m8);
        assert_eq!(p.layout, Layout::Weaved);
        assert!(!p.fell_back);
        assert_eq!(p.flavor, KernelFlavor::BitSerial);
        let p = plan(KernelFlavor::BitSerial, &fp);
        assert_eq!(p.layout, Layout::Slice);
        assert!(p.fell_back);
        assert_eq!(p.flavor, KernelFlavor::Optimized);
        for flavor in [
            KernelFlavor::Generic,
            KernelFlavor::Optimized,
            KernelFlavor::Proposed,
        ] {
            let p = plan(flavor, &d8m8);
            assert_eq!(p.layout, Layout::Slice);
            assert!(!p.fell_back);
        }
        assert_eq!(Layout::Weaved.to_string(), "weaved");
        assert_eq!(Layout::Slice.to_string(), "slice");
    }
}
