//! Explicit `std::arch` x86-64 kernels behind the [`crate::isa`] probe.
//!
//! Every function here is a *drop-in accelerator* for one scalar loop in
//! [`crate::optimized`], [`crate::cells`] or [`crate::delta`]: the entry
//! points return `None` when the active [`KernelIsa`] tier (or the target
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
//! The integer dots and the integer AXPY have one body each, generic
//! over how a vector of model words is reached: from a plain slice with
//! an unaligned vector load, or from the shared model's packed cells
//! with one relaxed `AtomicU64::load` per cell into a vector lane
//! (`_mm_cvtsi64_si128`, `_mm256_set_epi64x`) and, for the AXPY, one
//! relaxed `store` per cell of the narrowed result. Atomics are never
//! touched through a pointer.
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
//!
//! # Where the `unsafe` is
//!
//! Every AVX2 kernel is a *safe* `#[target_feature(enable = "avx2")]`
//! function that walks its slices with `as_chunks` — whole vectors as
//! fixed-size arrays, then a scalar tail — so no length that reaches it
//! can move a load or a store outside a slice. The crate's
//! `deny(unsafe_code)` is lifted in exactly two places:
//!
//! * `x86::mem`, one helper per pointer intrinsic, each moving exactly
//!   the bytes of the array it borrows;
//! * the one dispatch call in `avx2_entries!`, sound because
//!   `isa::active() <= isa::detected()`.

use std::sync::atomic::AtomicU64;

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

/// Declares the crate-facing entry points, one per line of the table
/// below. Each returns `None` when the active tier is scalar (or the
/// target is not x86-64), and the caller runs its scalar loop; otherwise
/// it runs its body — a kernel from `x86` with the element loads it
/// needs — as a `#[target_feature(enable = "avx2")]` function.
macro_rules! avx2_entries {
    ($($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) -> $ret:ty = $body:expr;)*) => {$(
        $(#[$doc])*
        #[inline]
        #[must_use]
        pub(crate) fn $name($($arg: $ty),*) -> Option<$ret> {
            #[cfg(target_arch = "x86_64")]
            if isa::active() != KernelIsa::Scalar {
                #[target_feature(enable = "avx2")]
                fn kernel($($arg: $ty),*) -> $ret {
                    use x86::*;
                    $body
                }
                // SAFETY: `isa::active() <= isa::detected()`, so a vector
                // tier is one this CPU executes, and every vector tier
                // includes AVX2.
                #[allow(unsafe_code)]
                let out = unsafe { kernel($($arg),*) };
                return Some(out);
            }
            let _ = ($($arg,)*);
            None
        }
    )*};
}

avx2_entries! {
    /// Raw i8×i8 dot product total (pre-quantum).
    fn dot_i8_i8(x: &[i8], w: &[i8]) -> i64 =
        dot_epi8(x, w, |v: &[i8; 32]| loadu_si256(v), dot_tail);
    /// Raw i16×i16 dot product total (pre-quantum).
    fn dot_i16_i16(x: &[i16], w: &[i16]) -> i64 =
        dot_epi16(x, w, |v: &[i16; 16]| loadu_si256(v), dot_tail);
    /// Raw i8×i8 dot total against `i8` words packed in cells (see
    /// `cells::dot_cells_sum`).
    fn dot_cells_i8_i8(x: &[i8], w: &[AtomicU64]) -> i64 =
        dot_epi8(x, w, |c| cells_si256(c), dot_cells_scalar::<i8, i8>);
    /// Raw i16×i16 dot total against `i16` words packed in cells.
    fn dot_cells_i16_i16(x: &[i16], w: &[AtomicU64]) -> i64 =
        dot_epi16(x, w, |c| cells_si256(c), dot_cells_scalar::<i16, i16>);
    /// Float dot with the optimized kernels' fixed 8-lane reduction order.
    fn dot_f32_f32(x: &[f32], w: &[f32]) -> f32 =
        dot_ps(x, w, |v| loadu_ps(v), |v| loadu_ps(v));
    /// Raw i8-data × f32-model dot (pre-quantum).
    fn dot_i8_f32(x: &[i8], w: &[f32]) -> f32 = dot_ps(x, w, |v| i8_ps(v), |v| loadu_ps(v));
    /// Raw i16-data × f32-model dot (pre-quantum).
    fn dot_i16_f32(x: &[i16], w: &[f32]) -> f32 = dot_ps(x, w, |v| i16_ps(v), |v| loadu_ps(v));
    /// Raw f32-data × i8-model dot (pre-quantum).
    fn dot_f32_i8(x: &[f32], w: &[i8]) -> f32 = dot_ps(x, w, |v| loadu_ps(v), |v| i8_ps(v));
    /// Raw f32-data × i16-model dot (pre-quantum).
    fn dot_f32_i16(x: &[f32], w: &[i16]) -> f32 = dot_ps(x, w, |v| loadu_ps(v), |v| i16_ps(v));
    /// Four-row batched raw totals (pre-quantum) against an i8 model —
    /// the register-blocked serving inner loop.
    fn dot_batch4_f32_i8(rows: [&[f32]; 4], w: &[i8]) -> [f32; 4] =
        dot4_ps(rows, w, |v| i8_ps(v));
    /// Four-row batched raw totals (pre-quantum) against an i16 model.
    fn dot_batch4_f32_i16(rows: [&[f32]; 4], w: &[i16]) -> [f32; 4] =
        dot4_ps(rows, w, |v| i16_ps(v));
    /// Four-row batched totals against an f32 model.
    fn dot_batch4_f32_f32(rows: [&[f32]; 4], w: &[f32]) -> [f32; 4] =
        dot4_ps(rows, w, |v| loadu_ps(v));
    /// Integer AXPY i32 fast path, D8M8 (see `optimized::axpy_block_offsets`).
    fn axpy_offsets_i8_i8(w: &mut [i8], x: &[i8], k: i32, offs: &[i32; 8]) -> () =
        axpy_slice(w, x, k, offs, |v| i8_epi32(v), |v| i8_epi32(v), |o, v| epi32_i8(o, v));
    /// Integer AXPY i32 fast path, D8M16.
    fn axpy_offsets_i8_i16(w: &mut [i16], x: &[i8], k: i32, offs: &[i32; 8]) -> () =
        axpy_slice(w, x, k, offs, |v| i8_epi32(v), |v| i16_epi32(v), |o, v| epi32_i16(o, v));
    /// Integer AXPY i32 fast path, D16M8.
    fn axpy_offsets_i16_i8(w: &mut [i8], x: &[i16], k: i32, offs: &[i32; 8]) -> () =
        axpy_slice(w, x, k, offs, |v| i16_epi32(v), |v| i8_epi32(v), |o, v| epi32_i8(o, v));
    /// Integer AXPY i32 fast path, D16M16.
    fn axpy_offsets_i16_i16(w: &mut [i16], x: &[i16], k: i32, offs: &[i32; 8]) -> () =
        axpy_slice(w, x, k, offs, |v| i16_epi32(v), |v| i16_epi32(v), |o, v| epi32_i16(o, v));
    /// Integer AXPY i32 fast path on whole cells of `i8` words, D8M8 (see
    /// `cells::axpy_cells_block_offsets`); `x` has 8 words per cell.
    fn axpy_cells_i8_i8(w: &[AtomicU64], x: &[i8], k: i32, offs: &[i32; 8]) -> () =
        axpy_epi32(w, x.as_chunks().0, k, offs, |v| i8_epi32(v), |c| cell_i8_epi32(c),
            |c, v| epi32_cell_i8(c, v));
    /// Integer AXPY i32 fast path on pairs of cells of `i16` words, D8M16;
    /// `x` has 8 words per pair.
    fn axpy_cells_i8_i16(w: &[AtomicU64], x: &[i8], k: i32, offs: &[i32; 8]) -> () =
        axpy_epi32(w.as_chunks().0, x.as_chunks().0, k, offs, |v| i8_epi32(v),
            |c| cells_i16_epi32(c), |c, v| epi32_cells_i16(c, v));
    /// Integer AXPY i32 fast path on cells of `i8` words, D16M8.
    fn axpy_cells_i16_i8(w: &[AtomicU64], x: &[i16], k: i32, offs: &[i32; 8]) -> () =
        axpy_epi32(w, x.as_chunks().0, k, offs, |v| i16_epi32(v), |c| cell_i8_epi32(c),
            |c, v| epi32_cell_i8(c, v));
    /// Integer AXPY i32 fast path on pairs of cells of `i16` words, D16M16.
    fn axpy_cells_i16_i16(w: &[AtomicU64], x: &[i16], k: i32, offs: &[i32; 8]) -> () =
        axpy_epi32(w.as_chunks().0, x.as_chunks().0, k, offs, |v| i16_epi32(v),
            |c| cells_i16_epi32(c), |c, v| epi32_cells_i16(c, v));
    /// Float AXPY `w[i] += a·x[i]` (element-independent, trivially
    /// bit-identical per lane).
    fn axpy_f32_f32(w: &mut [f32], a: f32, x: &[f32]) -> () = axpy_ps(w, a, x, |v| loadu_ps(v));
    /// Fused `acc[i] += scale · q[i]` for `i8` payloads — the delta-apply
    /// sweep of the sharded backend and the fixed-data/float-model AXPY.
    fn axpy_i8_f32(acc: &mut [f32], q: &[i8], scale: f32) -> () =
        axpy_ps(acc, scale, q, |v| i8_ps(v));
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 kernels. Each walks its operands as whole 8-, 16- or
    //! 32-element arrays plus a scalar tail; element loads and stores are
    //! passed in as closures, which inherit the kernel's target features.

    use core::arch::x86_64::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use self::mem::{
        loadl_epi64, loadu_si128, storel_epi64, storeu_ps, storeu_si128, storeu_si256,
    };
    pub use self::mem::{loadu_ps, loadu_si256};
    pub(crate) use crate::cells::dot_cells_scalar;
    use crate::optimized::{axpy_words_i32, FixedInt};

    #[allow(unsafe_code)]
    mod mem {
        //! The module's memory traffic: one helper per pointer intrinsic,
        //! each reading or writing exactly the bytes of the array it
        //! borrows. `loadu`/`storeu`/`loadl`/`storel` need no alignment.

        use core::arch::x86_64::*;

        /// Plain integers: every bit pattern is a valid value, so raw
        /// vector bytes may be read from and written to them.
        pub trait Int: Copy {}
        impl Int for i8 {}
        impl Int for i16 {}
        impl Int for i32 {}
        impl Int for i64 {}

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn loadu_ps(v: &[f32; 8]) -> __m256 {
            // SAFETY: `v` is 32 readable bytes.
            unsafe { _mm256_loadu_ps(v.as_ptr()) }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn storeu_ps(out: &mut [f32; 8], v: __m256) {
            // SAFETY: `out` is 32 writable bytes.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn loadu_si256<T: Int, const N: usize>(v: &[T; N]) -> __m256i {
            const { assert!(size_of::<[T; N]>() == 32) };
            // SAFETY: `v` is 32 readable bytes (asserted above).
            unsafe { _mm256_loadu_si256(v.as_ptr().cast()) }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn storeu_si256<T: Int, const N: usize>(out: &mut [T; N], v: __m256i) {
            const { assert!(size_of::<[T; N]>() == 32) };
            // SAFETY: `out` is 32 writable bytes (asserted above) of `Int`s.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn loadu_si128(v: &[i16; 8]) -> __m128i {
            // SAFETY: `v` is 16 readable bytes.
            unsafe { _mm_loadu_si128(v.as_ptr().cast()) }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn storeu_si128(out: &mut [i16; 8], v: __m128i) {
            // SAFETY: `out` is 16 writable bytes.
            unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn loadl_epi64(v: &[i8; 8]) -> __m128i {
            // SAFETY: `v` is the 8 readable bytes `loadl` reads.
            unsafe { _mm_loadl_epi64(v.as_ptr().cast()) }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn storel_epi64(out: &mut [i8; 8], v: __m128i) {
            // SAFETY: `out` is the 8 writable bytes `storel` writes.
            unsafe { _mm_storel_epi64(out.as_mut_ptr().cast(), v) }
        }
    }

    /// Horizontal i64 sum of 8 packed i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum_epi32_i64(v: __m256i) -> i64 {
        let mut lanes = [0i32; 8];
        storeu_si256(&mut lanes, v);
        lanes.iter().map(|&l| i64::from(l)).sum()
    }

    /// Horizontal i64 sum of 4 packed i64 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum_epi64(v: __m256i) -> i64 {
        let mut lanes = [0i64; 4];
        storeu_si256(&mut lanes, v);
        lanes.iter().sum()
    }

    /// The 8 f32 lanes summed left to right — the scalar kernels' order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum_ps(v: __m256) -> f32 {
        let mut lanes = [0f32; 8];
        storeu_ps(&mut lanes, v);
        lanes.iter().sum()
    }

    /// Exact integer dot of a scalar tail.
    pub fn dot_tail<T: Copy>(x: &[T], w: &[T]) -> i64
    where
        i64: From<T>,
    {
        x.iter()
            .zip(w)
            .map(|(&a, &b)| i64::from(a) * i64::from(b))
            .sum()
    }

    /// Loads 8 `i8` sign-extended to i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn i8_epi32(v: &[i8; 8]) -> __m256i {
        _mm256_cvtepi8_epi32(loadl_epi64(v))
    }

    /// Loads 8 `i16` sign-extended to i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn i16_epi32(v: &[i16; 8]) -> __m256i {
        _mm256_cvtepi16_epi32(loadu_si128(v))
    }

    /// Loads 8 `i8` as an 8-lane f32 vector (exact int→float convert).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn i8_ps(v: &[i8; 8]) -> __m256 {
        _mm256_cvtepi32_ps(i8_epi32(v))
    }

    /// Loads 8 `i16` as an 8-lane f32 vector (exact int→float convert).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn i16_ps(v: &[i16; 8]) -> __m256 {
        _mm256_cvtepi32_ps(i16_epi32(v))
    }

    /// Narrows 8 i32 lanes to `i16` with signed saturation.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn packs_i16(v: __m256i) -> __m128i {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        _mm_packs_epi32(lo, hi)
    }

    /// Narrows 8 i32 lanes to `i8` in the low 8 bytes with signed
    /// saturation — exactly the scalar `saturate_i32` clamp to
    /// `[-128, 127]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn packs_i8(v: __m256i) -> __m128i {
        let w16 = packs_i16(v);
        _mm_packs_epi16(w16, w16)
    }

    /// Stores 8 i32 lanes to `i8` with signed saturation.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn epi32_i8(out: &mut [i8; 8], v: __m256i) {
        storel_epi64(out, packs_i8(v));
    }

    /// Stores 8 i32 lanes to `i16` with signed saturation.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn epi32_i16(out: &mut [i16; 8], v: __m256i) {
        storeu_si128(out, packs_i16(v));
    }

    /// One relaxed load of a cell, as a signed 64-bit lane.
    #[inline]
    fn load(cell: &AtomicU64) -> i64 {
        cell.load(Ordering::Relaxed) as i64
    }

    /// Four cells (32 `i8` or 16 `i16` words) as one vector: one relaxed
    /// load per cell, into its lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn cells_si256(c: &[AtomicU64; 4]) -> __m256i {
        _mm256_set_epi64x(load(&c[3]), load(&c[2]), load(&c[1]), load(&c[0]))
    }

    /// One cell's 8 `i8` words sign-extended to i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn cell_i8_epi32(c: &AtomicU64) -> __m256i {
        _mm256_cvtepi8_epi32(_mm_cvtsi64_si128(load(c)))
    }

    /// Two cells' 8 `i16` words sign-extended to i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn cells_i16_epi32(c: &[AtomicU64; 2]) -> __m256i {
        _mm256_cvtepi16_epi32(_mm_set_epi64x(load(&c[1]), load(&c[0])))
    }

    /// Stores 8 i32 lanes to one cell of `i8` words with signed
    /// saturation: one relaxed store.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn epi32_cell_i8(out: &AtomicU64, v: __m256i) {
        out.store(_mm_cvtsi128_si64(packs_i8(v)) as u64, Ordering::Relaxed);
    }

    /// Stores 8 i32 lanes to two cells of `i16` words with signed
    /// saturation: one relaxed store per cell.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn epi32_cells_i16(out: &[AtomicU64; 2], v: __m256i) {
        let words = packs_i16(v);
        out[0].store(_mm_cvtsi128_si64(words) as u64, Ordering::Relaxed);
        out[1].store(_mm_extract_epi64::<1>(words) as u64, Ordering::Relaxed);
    }

    /// The §5.1 hand-vectorized D8M8 dot: sign-extend bytes to words,
    /// `vpmaddwd` pair products into i32 lanes (each pair sum ≤ 2^15,
    /// exact), flush lanes to the i64 total every [`I8_FLUSH`] blocks —
    /// lane growth is ≤ 2·2^15 per block, so 2^13 blocks stay ≤ 2^29,
    /// far from i32 overflow.
    const I8_FLUSH: usize = 1 << 13;

    ///
    /// `lw` loads the model words of 32 example words as one vector, from
    /// an array of `N` model elements; `tail` takes the example words and
    /// the model elements no whole vector covers.
    #[target_feature(enable = "avx2")]
    pub fn dot_epi8<W, const N: usize>(
        x: &[i8],
        w: &[W],
        lw: impl Fn(&[W; N]) -> __m256i,
        tail: impl Fn(&[i8], &[W]) -> i64,
    ) -> i64 {
        let (xb, wb, xt, wt) = whole_vectors::<_, _, 32, N>(x, w);
        let mut total = 0i64;
        for (xs, ws) in xb.chunks(I8_FLUSH).zip(wb.chunks(I8_FLUSH)) {
            let mut acc = _mm256_setzero_si256();
            for (xv, wv) in xs.iter().zip(ws) {
                let (xv, wv) = (loadu_si256(xv), lw(wv));
                let xlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(xv));
                let wlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(wv));
                let xhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(xv));
                let whi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(wv));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xlo, wlo));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xhi, whi));
            }
            total += hsum_epi32_i64(acc);
        }
        total + tail(xt, wt)
    }

    /// The whole vectors `x` and `w` have in common, as `X`-arrays of
    /// length `XN` and `W`-arrays of length `WN`, and what is left of each.
    #[inline]
    #[allow(clippy::type_complexity)]
    fn whole_vectors<'a, X, W, const XN: usize, const WN: usize>(
        x: &'a [X],
        w: &'a [W],
    ) -> (&'a [[X; XN]], &'a [[W; WN]], &'a [X], &'a [W]) {
        let vectors = (x.len() / XN).min(w.len() / WN);
        let (xb, xt) = x.split_at(vectors * XN);
        let (wb, wt) = w.split_at(vectors * WN);
        (xb.as_chunks().0, wb.as_chunks().0, xt, wt)
    }

    /// Exact i16 dot: widen to i32, `vpmulld` (products ≤ 2^30, exact),
    /// accumulate in i64 lanes. Never `vpmaddwd` — its lone saturating
    /// case (two (−2^15)² pair products) would silently clip. `lw` and
    /// `tail` are [`dot_epi8`]'s, for 16 example words per vector.
    #[target_feature(enable = "avx2")]
    pub fn dot_epi16<W, const N: usize>(
        x: &[i16],
        w: &[W],
        lw: impl Fn(&[W; N]) -> __m256i,
        tail: impl Fn(&[i16], &[W]) -> i64,
    ) -> i64 {
        let (xb, wb, xt, wt) = whole_vectors::<_, _, 16, N>(x, w);
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        for (xv, wv) in xb.iter().zip(wb) {
            let (xv, wv) = (loadu_si256(xv), lw(wv));
            let xlo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(xv));
            let wlo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(wv));
            let xhi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(xv));
            let whi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(wv));
            let plo = _mm256_mullo_epi32(xlo, wlo);
            let phi = _mm256_mullo_epi32(xhi, whi);
            acc0 = _mm256_add_epi64(acc0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(plo)));
            acc1 = _mm256_add_epi64(
                acc1,
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(plo)),
            );
            acc0 = _mm256_add_epi64(acc0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(phi)));
            acc1 = _mm256_add_epi64(
                acc1,
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(phi)),
            );
        }
        hsum_epi64(_mm256_add_epi64(acc0, acc1)) + tail(xt, wt)
    }

    /// Float dot with the scalar kernels' exact reduction: one 8-lane
    /// accumulator updated with separate `vmulps` + `vaddps` (no FMA),
    /// lanes summed left-to-right, sequential scalar tail. `lx` and `lw`
    /// load 8 elements of each operand as f32 lanes.
    #[target_feature(enable = "avx2")]
    pub fn dot_ps<X: Copy, W: Copy>(
        x: &[X],
        w: &[W],
        lx: impl Fn(&[X; 8]) -> __m256,
        lw: impl Fn(&[W; 8]) -> __m256,
    ) -> f32
    where
        f32: From<X> + From<W>,
    {
        let (xb, xt) = x.as_chunks::<8>();
        let (wb, wt) = w.as_chunks::<8>();
        let mut acc = _mm256_setzero_ps();
        for (xv, wv) in xb.iter().zip(wb) {
            acc = _mm256_add_ps(acc, _mm256_mul_ps(lx(xv), lw(wv)));
        }
        let mut total = hsum_ps(acc);
        for (&a, &b) in xt.iter().zip(wt) {
            total += f32::from(a) * f32::from(b);
        }
        total
    }

    /// [`dot_ps`] of four rows against one model: each model block is
    /// loaded once for all four accumulators.
    ///
    /// # Panics
    ///
    /// Panics if a row is shorter than `w`.
    #[target_feature(enable = "avx2")]
    pub fn dot4_ps<W: Copy>(rows: [&[f32]; 4], w: &[W], lw: impl Fn(&[W; 8]) -> __m256) -> [f32; 4]
    where
        f32: From<W>,
    {
        let (wb, wt) = w.as_chunks::<8>();
        let [r0, r1, r2, r3] = rows.map(|r| r[..w.len()].as_chunks::<8>());
        let mut acc = [_mm256_setzero_ps(); 4];
        for ((((wv, x0), x1), x2), x3) in wb.iter().zip(r0.0).zip(r1.0).zip(r2.0).zip(r3.0) {
            let wv = lw(wv);
            for (a, xv) in acc.iter_mut().zip([x0, x1, x2, x3]) {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(loadu_ps(xv), wv));
            }
        }
        let mut totals = acc.map(|a| hsum_ps(a));
        for (i, &wj) in wt.iter().enumerate() {
            let wj = f32::from(wj);
            for (t, xt) in totals.iter_mut().zip([r0.1, r1.1, r2.1, r3.1]) {
                *t += xt[i] * wj;
            }
        }
        totals
    }

    /// The branch-free integer AXPY fast path:
    /// `w[i] ← sat(w[i] + ((x[i]·k + offs[i & 7]) >> 15))` on 8 words
    /// per step, the caller having guaranteed `|x·k| + 2^15 < 2^30`. `w`
    /// yields one handle `C` per 8 model words and `x` is their examples;
    /// `lx` and `lw` widen 8 elements to i32 lanes, `sw` narrows them back
    /// with saturation and writes them through the handle.
    #[target_feature(enable = "avx2")]
    pub fn axpy_epi32<X: FixedInt, C>(
        w: impl IntoIterator<Item = C>,
        x: &[[X; 8]],
        k: i32,
        offs: &[i32; 8],
        lx: impl Fn(&[X; 8]) -> __m256i,
        lw: impl Fn(&C) -> __m256i,
        sw: impl Fn(C, __m256i),
    ) {
        const K_SHIFT: i32 = 15;
        let kv = _mm256_set1_epi32(k);
        let ov = loadu_si256(offs);
        for (wv, xv) in w.into_iter().zip(x) {
            let delta =
                _mm256_srai_epi32::<K_SHIFT>(_mm256_add_epi32(_mm256_mullo_epi32(lx(xv), kv), ov));
            let sum = _mm256_add_epi32(lw(&wv), delta);
            sw(wv, sum);
        }
    }

    /// [`axpy_epi32`] on a plain slice, with its scalar tail.
    #[target_feature(enable = "avx2")]
    pub fn axpy_slice<X: FixedInt, M: FixedInt>(
        w: &mut [M],
        x: &[X],
        k: i32,
        offs: &[i32; 8],
        lx: impl Fn(&[X; 8]) -> __m256i,
        lw: impl Fn(&[M; 8]) -> __m256i,
        sw: impl Fn(&mut [M; 8], __m256i),
    ) {
        let (wb, wt) = w.as_chunks_mut::<8>();
        let (xb, xt) = x.as_chunks::<8>();
        axpy_epi32(wb, xb, k, offs, lx, |wv| lw(wv), sw);
        axpy_words_i32(wt, xt, k, offs);
    }

    /// `w[i] += a·x[i]`, separate mul + add per lane (no FMA); `lx` loads
    /// 8 elements of `x` as f32 lanes.
    #[target_feature(enable = "avx2")]
    pub fn axpy_ps<X: Copy>(w: &mut [f32], a: f32, x: &[X], lx: impl Fn(&[X; 8]) -> __m256)
    where
        f32: From<X>,
    {
        let av = _mm256_set1_ps(a);
        let (wb, wt) = w.as_chunks_mut::<8>();
        let (xb, xt) = x.as_chunks::<8>();
        for (wv, xv) in wb.iter_mut().zip(xb) {
            let sum = _mm256_add_ps(loadu_ps(wv), _mm256_mul_ps(av, lx(xv)));
            storeu_ps(wv, sum);
        }
        for (wi, &xi) in wt.iter_mut().zip(xt) {
            *wi += a * f32::from(xi);
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
        assert_eq!(axpy_f32_f32(&mut [1.0], 1.0, &[1.0]), None);
    }
}
