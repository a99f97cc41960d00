//! Explicit `std::arch` x86-64 kernels behind the [`crate::isa`] probe.
//!
//! Every function here is a *drop-in accelerator* for one scalar loop in
//! [`crate::optimized`] or [`crate::delta`]: the safe wrappers return
//! `None`/`false` when the active [`KernelIsa`] tier (or the target
//! architecture) cannot run the vector path, and the caller falls back
//! to its chunked-accumulator scalar code. The contract that
//! makes this transparent is **bit identity**:
//!
//! * integer kernels compute the exact same `i64`/`i32` values — integer
//!   addition is associative, so lane order is free;
//! * float kernels replicate the scalar code's operation sequence per
//!   lane (separate `mul` + `add`, never FMA) and its fixed 8-lane
//!   horizontal reduction order, so float results never depend on the
//!   machine;
//! * the integer AXPY packs with signed saturation
//!   (`vpackssdw`/`vpacksswb`), which is exactly the scalar
//!   `saturate_i32` clamp.
//!
//! The paper's §5.1 observation — hand-written AVX2 keeping 8-bit
//! products in 16-bit intermediates beats compiler output by up to 11x —
//! is implemented literally: the D8M8 dot is `vpmovsxbw` + `vpmaddwd`
//! into 32-bit lanes (`_mm256_madd_epi16` pair sums of 8-bit products
//! are ≤ 2^15, exact), flushed to an `i64` total well before any lane
//! can overflow. The i16 dot deliberately avoids `vpmaddwd`, whose
//! single saturating case (both pair products = (−2^15)²) would break
//! exactness; it widens through `vpmulld` into 64-bit accumulators
//! instead.

// The one module of this crate allowed `unsafe`: `std::arch` intrinsics
// behind runtime feature detection. Every `unsafe` block's safety
// argument is the same — the surrounding dispatch only selects a tier
// that `isa::detected()` confirmed executable, and all pointer access
// stays within caller-provided slices.
#![allow(unsafe_code)]

use crate::isa::{self, KernelIsa};

/// Slice reinterpretation hooks for the sealed fixed-point element types:
/// the safe type-dispatch bridge from generic `FixedInt` kernels to the
/// concrete `i8`/`i16` SIMD paths (no `TypeId`, no transmute — the
/// identity implementations live on the matching type).
#[doc(hidden)]
pub trait Reinterpret: Sized {
    /// `Some(x)` iff `Self` is `i8`.
    fn as_i8s(x: &[Self]) -> Option<&[i8]> {
        let _ = x;
        None
    }
    /// `Some(x)` iff `Self` is `i8`.
    fn as_i8s_mut(x: &mut [Self]) -> Option<&mut [i8]> {
        let _ = x;
        None
    }
    /// `Some(x)` iff `Self` is `i16`.
    fn as_i16s(x: &[Self]) -> Option<&[i16]> {
        let _ = x;
        None
    }
    /// `Some(x)` iff `Self` is `i16`.
    fn as_i16s_mut(x: &mut [Self]) -> Option<&mut [i16]> {
        let _ = x;
        None
    }
}

impl Reinterpret for i8 {
    fn as_i8s(x: &[i8]) -> Option<&[i8]> {
        Some(x)
    }
    fn as_i8s_mut(x: &mut [i8]) -> Option<&mut [i8]> {
        Some(x)
    }
}

impl Reinterpret for i16 {
    fn as_i16s(x: &[i16]) -> Option<&[i16]> {
        Some(x)
    }
    fn as_i16s_mut(x: &mut [i16]) -> Option<&mut [i16]> {
        Some(x)
    }
}

impl Reinterpret for i32 {}

/// `Some` when the active tier has vector paths at all (shared gate for
/// the wrappers below).
#[inline]
fn vector_tier() -> Option<()> {
    (isa::active() != KernelIsa::Scalar).then_some(())
}

/// Raw i8×i8 dot product total (pre-quantum). `None` → scalar fallback.
#[inline]
#[must_use]
pub(crate) fn dot_i8_i8(x: &[i8], w: &[i8]) -> Option<i64> {
    debug_assert_eq!(x.len(), w.len());
    #[cfg(target_arch = "x86_64")]
    {
        vector_tier()?;
        // SAFETY: any vector tier implies AVX2.
        Some(unsafe { x86::dot_i8_i8_avx2(x, w) })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Raw i16×i16 dot product total (pre-quantum). `None` → scalar fallback.
#[inline]
#[must_use]
pub(crate) fn dot_i16_i16(x: &[i16], w: &[i16]) -> Option<i64> {
    debug_assert_eq!(x.len(), w.len());
    #[cfg(target_arch = "x86_64")]
    {
        vector_tier()?;
        // SAFETY: any vector tier implies AVX2.
        Some(unsafe { x86::dot_i16_i16_avx2(x, w) })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Float dot with the optimized kernels' fixed 8-lane reduction order.
#[inline]
#[must_use]
pub(crate) fn dot_f32_f32(x: &[f32], w: &[f32]) -> Option<f32> {
    debug_assert_eq!(x.len(), w.len());
    #[cfg(target_arch = "x86_64")]
    {
        vector_tier()?;
        // SAFETY: any vector tier implies AVX2.
        Some(unsafe { x86::dot_f32_f32_avx2(x, w) })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

macro_rules! mixed_dot_wrapper {
    ($(#[$doc:meta])* $name:ident, $fixed:ty, $imp:ident, fixed_first) => {
        $(#[$doc])*
        #[inline]
        #[must_use]
        pub(crate) fn $name(x: &[$fixed], w: &[f32]) -> Option<f32> {
            debug_assert_eq!(x.len(), w.len());
            #[cfg(target_arch = "x86_64")]
            {
                vector_tier()?;
                // SAFETY: any vector tier implies AVX2.
                Some(unsafe { x86::$imp(x, w) })
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                None
            }
        }
    };
    ($(#[$doc:meta])* $name:ident, $fixed:ty, $imp:ident, float_first) => {
        $(#[$doc])*
        #[inline]
        #[must_use]
        pub(crate) fn $name(x: &[f32], w: &[$fixed]) -> Option<f32> {
            debug_assert_eq!(x.len(), w.len());
            #[cfg(target_arch = "x86_64")]
            {
                vector_tier()?;
                // SAFETY: any vector tier implies AVX2.
                Some(unsafe { x86::$imp(x, w) })
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                None
            }
        }
    };
}

mixed_dot_wrapper!(
    /// Raw i8-data × f32-model dot (pre-quantum).
    dot_i8_f32, i8, dot_i8_f32_avx2, fixed_first
);
mixed_dot_wrapper!(
    /// Raw i16-data × f32-model dot (pre-quantum).
    dot_i16_f32, i16, dot_i16_f32_avx2, fixed_first
);
mixed_dot_wrapper!(
    /// Raw f32-data × i8-model dot (pre-quantum).
    dot_f32_i8, i8, dot_f32_i8_avx2, float_first
);
mixed_dot_wrapper!(
    /// Raw f32-data × i16-model dot (pre-quantum).
    dot_f32_i16, i16, dot_f32_i16_avx2, float_first
);

macro_rules! batch4_wrapper {
    ($(#[$doc:meta])* $name:ident, $model:ty, $imp:ident) => {
        $(#[$doc])*
        #[inline]
        #[must_use]
        pub(crate) fn $name(rows: [&[f32]; 4], w: &[$model]) -> Option<[f32; 4]> {
            #[cfg(target_arch = "x86_64")]
            {
                vector_tier()?;
                // SAFETY: any vector tier implies AVX2.
                Some(unsafe { x86::$imp(rows, w) })
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let _ = (rows, w);
                None
            }
        }
    };
}

batch4_wrapper!(
    /// Four-row batched raw totals (pre-quantum) against an i8 model —
    /// the register-blocked serving inner loop.
    dot_batch4_f32_i8, i8, dot_batch4_f32_i8_avx2
);
batch4_wrapper!(
    /// Four-row batched raw totals (pre-quantum) against an i16 model.
    dot_batch4_f32_i16, i16, dot_batch4_f32_i16_avx2
);
batch4_wrapper!(
    /// Four-row batched totals against an f32 model.
    dot_batch4_f32_f32, f32, dot_batch4_f32_f32_avx2
);

macro_rules! axpy_offsets_wrapper {
    ($(#[$doc:meta])* $name:ident, $data:ty, $model:ty, $imp:ident) => {
        $(#[$doc])*
        #[inline]
        #[must_use]
        pub(crate) fn $name(w: &mut [$model], x: &[$data], k: i32, offs: &[i32; 8]) -> bool {
            debug_assert_eq!(x.len(), w.len());
            #[cfg(target_arch = "x86_64")]
            {
                if vector_tier().is_none() {
                    return false;
                }
                // SAFETY: any vector tier implies AVX2.
                unsafe { x86::$imp(w, x, k, offs) };
                true
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let _ = (w, x, k, offs);
                false
            }
        }
    };
}

axpy_offsets_wrapper!(
    /// Integer AXPY i32 fast path, D8M8 (see `optimized::axpy_block_offsets`).
    axpy_offsets_i8_i8, i8, i8, axpy_offsets_i8_i8_avx2
);
axpy_offsets_wrapper!(
    /// Integer AXPY i32 fast path, D8M16.
    axpy_offsets_i8_i16, i8, i16, axpy_offsets_i8_i16_avx2
);
axpy_offsets_wrapper!(
    /// Integer AXPY i32 fast path, D16M8.
    axpy_offsets_i16_i8, i16, i8, axpy_offsets_i16_i8_avx2
);
axpy_offsets_wrapper!(
    /// Integer AXPY i32 fast path, D16M16.
    axpy_offsets_i16_i16, i16, i16, axpy_offsets_i16_i16_avx2
);

/// Float AXPY `w[i] += a·x[i]` (element-independent, trivially
/// bit-identical per lane). Returns `false` → scalar fallback.
#[inline]
#[must_use]
pub(crate) fn axpy_f32_f32(w: &mut [f32], a: f32, x: &[f32]) -> bool {
    debug_assert_eq!(x.len(), w.len());
    #[cfg(target_arch = "x86_64")]
    {
        if vector_tier().is_none() {
            return false;
        }
        // SAFETY: any vector tier implies AVX2.
        unsafe { x86::axpy_f32_f32_avx2(w, a, x) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (w, x, a);
        false
    }
}

/// Fused `acc[i] += scale · q[i]` for `i8` payloads — the delta-apply
/// sweep of the sharded backend and the fixed-data/float-model AXPY.
#[inline]
#[must_use]
pub(crate) fn axpy_i8_f32(acc: &mut [f32], q: &[i8], scale: f32) -> bool {
    debug_assert_eq!(acc.len(), q.len());
    #[cfg(target_arch = "x86_64")]
    {
        if vector_tier().is_none() {
            return false;
        }
        // SAFETY: any vector tier implies AVX2.
        unsafe { x86::axpy_i8_f32_avx2(acc, q, scale) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (acc, q, scale);
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `#[target_feature]` implementations. Callers guarantee the
    //! named features are present (checked via `crate::isa`); all loads
    //! and stores stay inside the caller's slices.

    use core::arch::x86_64::*;

    /// Horizontal i64 sum of 8 packed i32 lanes.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32_i64(v: __m256i) -> i64 {
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes.iter().map(|&l| i64::from(l)).sum()
    }

    /// Horizontal i64 sum of 4 packed i64 lanes.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> i64 {
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes.iter().sum()
    }

    /// The §5.1 hand-vectorized D8M8 dot: sign-extend bytes to words,
    /// `vpmaddwd` pair products into i32 lanes (each pair sum ≤ 2^15,
    /// exact), flush lanes to the i64 total every [`I8_FLUSH`] blocks —
    /// lane growth is ≤ 2·2^15 per block, so 2^13 blocks stay ≤ 2^29,
    /// far from i32 overflow.
    const I8_FLUSH: usize = 1 << 13;

    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_i8_avx2(x: &[i8], w: &[i8]) -> i64 {
        const STEP: usize = 32;
        let n = x.len();
        let blocks = n / STEP;
        let mut total = 0i64;
        let mut i = 0usize;
        let mut done = 0usize;
        while done < blocks {
            let batch = (blocks - done).min(I8_FLUSH);
            let mut acc = _mm256_setzero_si256();
            for _ in 0..batch {
                let xv = _mm256_loadu_si256(x.as_ptr().add(i).cast());
                let wv = _mm256_loadu_si256(w.as_ptr().add(i).cast());
                let xlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(xv));
                let wlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(wv));
                let xhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(xv, 1));
                let whi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(wv, 1));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xlo, wlo));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xhi, whi));
                i += STEP;
            }
            done += batch;
            total += hsum_epi32_i64(acc);
        }
        while i < n {
            total += i64::from(x[i]) * i64::from(w[i]);
            i += 1;
        }
        total
    }

    /// Exact i16 dot: widen to i32, `vpmulld` (products ≤ 2^30, exact),
    /// accumulate in i64 lanes. Never `vpmaddwd` — its lone saturating
    /// case (two (−2^15)² pair products) would silently clip.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i16_i16_avx2(x: &[i16], w: &[i16]) -> i64 {
        const STEP: usize = 16;
        let n = x.len();
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + STEP <= n {
            let xv = _mm256_loadu_si256(x.as_ptr().add(i).cast());
            let wv = _mm256_loadu_si256(w.as_ptr().add(i).cast());
            let xlo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(xv));
            let wlo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(wv));
            let xhi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(xv, 1));
            let whi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(wv, 1));
            let plo = _mm256_mullo_epi32(xlo, wlo);
            let phi = _mm256_mullo_epi32(xhi, whi);
            acc0 = _mm256_add_epi64(acc0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(plo)));
            acc1 = _mm256_add_epi64(
                acc1,
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256(plo, 1)),
            );
            acc0 = _mm256_add_epi64(acc0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(phi)));
            acc1 = _mm256_add_epi64(
                acc1,
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256(phi, 1)),
            );
            i += STEP;
        }
        let mut total = hsum_epi64(_mm256_add_epi64(acc0, acc1));
        while i < n {
            total += i64::from(x[i]) * i64::from(w[i]);
            i += 1;
        }
        total
    }

    /// Float dot with the scalar kernels' exact reduction: one 8-lane
    /// accumulator updated with separate `vmulps` + `vaddps` (no FMA),
    /// lanes summed left-to-right, sequential scalar tail.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_f32_f32_avx2(x: &[f32], w: &[f32]) -> f32 {
        let n = x.len();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let wv = _mm256_loadu_ps(w.as_ptr().add(i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, wv));
            i += 8;
        }
        let mut lanes = [0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut total: f32 = lanes.iter().sum();
        while i < n {
            total += x[i] * w[i];
            i += 1;
        }
        total
    }

    /// Loads 8 `i8` as an 8-lane f32 vector (exact int→float convert).
    #[target_feature(enable = "avx2")]
    unsafe fn load8_i8_ps(p: *const i8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(p.cast())))
    }

    /// Loads 8 `i16` as an 8-lane f32 vector (exact int→float convert).
    #[target_feature(enable = "avx2")]
    unsafe fn load8_i16_ps(p: *const i16) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm_loadu_si128(p.cast())))
    }

    macro_rules! mixed_dot_impl {
        ($name:ident, $fixed:ty, $load:ident, fixed_first) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(x: &[$fixed], w: &[f32]) -> f32 {
                let n = x.len();
                let mut acc = _mm256_setzero_ps();
                let mut i = 0usize;
                while i + 8 <= n {
                    let xv = $load(x.as_ptr().add(i));
                    let wv = _mm256_loadu_ps(w.as_ptr().add(i));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, wv));
                    i += 8;
                }
                let mut lanes = [0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                let mut total: f32 = lanes.iter().sum();
                while i < n {
                    total += x[i] as f32 * w[i];
                    i += 1;
                }
                total
            }
        };
        ($name:ident, $fixed:ty, $load:ident, float_first) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(x: &[f32], w: &[$fixed]) -> f32 {
                let n = x.len();
                let mut acc = _mm256_setzero_ps();
                let mut i = 0usize;
                while i + 8 <= n {
                    let xv = _mm256_loadu_ps(x.as_ptr().add(i));
                    let wv = $load(w.as_ptr().add(i));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, wv));
                    i += 8;
                }
                let mut lanes = [0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                let mut total: f32 = lanes.iter().sum();
                while i < n {
                    total += x[i] * w[i] as f32;
                    i += 1;
                }
                total
            }
        };
    }

    mixed_dot_impl!(dot_i8_f32_avx2, i8, load8_i8_ps, fixed_first);
    mixed_dot_impl!(dot_i16_f32_avx2, i16, load8_i16_ps, fixed_first);
    mixed_dot_impl!(dot_f32_i8_avx2, i8, load8_i8_ps, float_first);
    mixed_dot_impl!(dot_f32_i16_avx2, i16, load8_i16_ps, float_first);

    macro_rules! batch4_impl {
        ($name:ident, $model:ty, $wj:expr, $load:expr) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(rows: [&[f32]; 4], w: &[$model]) -> [f32; 4] {
                let n = w.len();
                let mut acc = [
                    _mm256_setzero_ps(),
                    _mm256_setzero_ps(),
                    _mm256_setzero_ps(),
                    _mm256_setzero_ps(),
                ];
                let mut i = 0usize;
                while i + 8 <= n {
                    let wv = $load(w.as_ptr().add(i));
                    for (r, a) in acc.iter_mut().enumerate() {
                        let xv = _mm256_loadu_ps(rows[r].as_ptr().add(i));
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, wv));
                    }
                    i += 8;
                }
                let mut totals = [0f32; 4];
                for (r, a) in acc.iter().enumerate() {
                    let mut lanes = [0f32; 8];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), *a);
                    totals[r] = lanes.iter().sum();
                }
                while i < n {
                    let wj = $wj(w[i]);
                    for (r, t) in totals.iter_mut().enumerate() {
                        *t += rows[r][i] * wj;
                    }
                    i += 1;
                }
                totals
            }
        };
    }

    batch4_impl!(dot_batch4_f32_i8_avx2, i8, |v: i8| v as f32, |p| {
        load8_i8_ps(p)
    });
    batch4_impl!(dot_batch4_f32_i16_avx2, i16, |v: i16| v as f32, |p| {
        load8_i16_ps(p)
    });
    batch4_impl!(dot_batch4_f32_f32_avx2, f32, |v: f32| v, |p| {
        _mm256_loadu_ps(p)
    });

    /// Loads 8 `i8` sign-extended to i32 lanes.
    #[target_feature(enable = "avx2")]
    unsafe fn load8_i8_epi32(p: *const i8) -> __m256i {
        _mm256_cvtepi8_epi32(_mm_loadl_epi64(p.cast()))
    }

    /// Loads 8 `i16` sign-extended to i32 lanes.
    #[target_feature(enable = "avx2")]
    unsafe fn load8_i16_epi32(p: *const i16) -> __m256i {
        _mm256_cvtepi16_epi32(_mm_loadu_si128(p.cast()))
    }

    /// Stores 8 i32 lanes to `i8` with signed saturation — exactly the
    /// scalar `saturate_i32` clamp to `[-128, 127]`.
    #[target_feature(enable = "avx2")]
    unsafe fn store8_epi32_i8(p: *mut i8, v: __m256i) {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let w16 = _mm_packs_epi32(lo, hi);
        let w8 = _mm_packs_epi16(w16, w16);
        _mm_storel_epi64(p.cast(), w8);
    }

    /// Stores 8 i32 lanes to `i16` with signed saturation.
    #[target_feature(enable = "avx2")]
    unsafe fn store8_epi32_i16(p: *mut i16, v: __m256i) {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        _mm_storeu_si128(p.cast(), _mm_packs_epi32(lo, hi));
    }

    macro_rules! axpy_offsets_impl {
        ($name:ident, $data:ty, $model:ty, $loadx:ident, $loadw:ident, $storew:ident,
         $mmin:expr, $mmax:expr) => {
            /// The branch-free integer AXPY fast path:
            /// `w[i] ← sat_i32(w[i] + ((x[i]·k + offs[i&7]) >> 15))`,
            /// the caller having guaranteed `|x·k| + 2^15 < 2^30`.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(w: &mut [$model], x: &[$data], k: i32, offs: &[i32; 8]) {
                const K_SHIFT: i32 = 15;
                let n = w.len();
                let kv = _mm256_set1_epi32(k);
                let ov = _mm256_loadu_si256(offs.as_ptr().cast());
                let mut i = 0usize;
                while i + 8 <= n {
                    let xv = $loadx(x.as_ptr().add(i));
                    let delta = _mm256_srai_epi32::<K_SHIFT>(_mm256_add_epi32(
                        _mm256_mullo_epi32(xv, kv),
                        ov,
                    ));
                    let wv = $loadw(w.as_ptr().add(i));
                    $storew(w.as_mut_ptr().add(i), _mm256_add_epi32(wv, delta));
                    i += 8;
                }
                let mut j = 0usize;
                while i < n {
                    let delta = (i32::from(x[i]) * k + offs[j & 7]) >> K_SHIFT;
                    let v = i32::from(w[i]) + delta;
                    w[i] = v.clamp($mmin, $mmax) as $model;
                    i += 1;
                    j += 1;
                }
            }
        };
    }

    axpy_offsets_impl!(
        axpy_offsets_i8_i8_avx2,
        i8,
        i8,
        load8_i8_epi32,
        load8_i8_epi32,
        store8_epi32_i8,
        i32::from(i8::MIN),
        i32::from(i8::MAX)
    );
    axpy_offsets_impl!(
        axpy_offsets_i8_i16_avx2,
        i8,
        i16,
        load8_i8_epi32,
        load8_i16_epi32,
        store8_epi32_i16,
        i32::from(i16::MIN),
        i32::from(i16::MAX)
    );
    axpy_offsets_impl!(
        axpy_offsets_i16_i8_avx2,
        i16,
        i8,
        load8_i16_epi32,
        load8_i8_epi32,
        store8_epi32_i8,
        i32::from(i8::MIN),
        i32::from(i8::MAX)
    );
    axpy_offsets_impl!(
        axpy_offsets_i16_i16_avx2,
        i16,
        i16,
        load8_i16_epi32,
        load8_i16_epi32,
        store8_epi32_i16,
        i32::from(i16::MIN),
        i32::from(i16::MAX)
    );

    /// `w[i] += a·x[i]`, separate mul + add per lane (no FMA).
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_f32_f32_avx2(w: &mut [f32], a: f32, x: &[f32]) {
        let n = w.len();
        let av = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 8 <= n {
            let wv = _mm256_loadu_ps(w.as_ptr().add(i));
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(
                w.as_mut_ptr().add(i),
                _mm256_add_ps(wv, _mm256_mul_ps(av, xv)),
            );
            i += 8;
        }
        while i < n {
            w[i] += a * x[i];
            i += 1;
        }
    }

    /// `acc[i] += scale·q[i]` for i8 payloads (delta apply / fixed-data
    /// float-model AXPY), separate mul + add per lane.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_i8_f32_avx2(acc: &mut [f32], q: &[i8], scale: f32) {
        let n = acc.len();
        let sv = _mm256_set1_ps(scale);
        let mut i = 0usize;
        while i + 8 <= n {
            let qv = load8_i8_ps(q.as_ptr().add(i));
            let av = _mm256_loadu_ps(acc.as_ptr().add(i));
            _mm256_storeu_ps(
                acc.as_mut_ptr().add(i),
                _mm256_add_ps(av, _mm256_mul_ps(sv, qv)),
            );
            i += 8;
        }
        while i < n {
            acc[i] += scale * f32::from(q[i]);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buckwild_prng::{Prng, Xorshift128};

    fn random_i8(n: usize, seed: u64) -> Vec<i8> {
        let mut rng = Xorshift128::seed_from(seed);
        (0..n).map(|_| rng.next_u32() as i8).collect()
    }

    fn random_i16(n: usize, seed: u64) -> Vec<i16> {
        let mut rng = Xorshift128::seed_from(seed);
        (0..n).map(|_| rng.next_u32() as i16).collect()
    }

    #[test]
    fn integer_dots_are_exact_for_every_tail_shape() {
        for n in 0..=96usize {
            let x8 = random_i8(n, 1 + n as u64);
            let w8 = random_i8(n, 2 + n as u64);
            let want8: i64 = x8
                .iter()
                .zip(&w8)
                .map(|(&a, &b)| i64::from(a) * i64::from(b))
                .sum();
            let x16 = random_i16(n, 3 + n as u64);
            let w16 = random_i16(n, 4 + n as u64);
            let want16: i64 = x16
                .iter()
                .zip(&w16)
                .map(|(&a, &b)| i64::from(a) * i64::from(b))
                .sum();
            for tier in KernelIsa::ALL {
                let _g = isa::scoped(tier);
                if let Some(got) = dot_i8_i8(&x8, &w8) {
                    assert_eq!(got, want8, "i8 n={n} tier={tier}");
                }
                if let Some(got) = dot_i16_i16(&x16, &w16) {
                    assert_eq!(got, want16, "i16 n={n} tier={tier}");
                }
            }
        }
    }

    #[test]
    fn i16_dot_survives_the_madd_saturation_case() {
        // (−2^15)² + (−2^15)² saturates vpmaddwd; the widening path must
        // be exact.
        let x = vec![i16::MIN; 16];
        let w = vec![i16::MIN; 16];
        let want = 16i64 * (1i64 << 30);
        let _g = isa::scoped(crate::isa::detected());
        if let Some(got) = dot_i16_i16(&x, &w) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn scalar_tier_declines_every_path() {
        let _g = isa::scoped(KernelIsa::Scalar);
        assert_eq!(dot_i8_i8(&[1], &[1]), None);
        assert_eq!(dot_f32_f32(&[1.0], &[1.0]), None);
        assert!(!axpy_f32_f32(&mut [1.0], 1.0, &[1.0]));
    }
}
