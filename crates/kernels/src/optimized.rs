//! Hand-vectorized-style kernels: narrow-integer MACs over lane blocks.
//!
//! The paper's hand-optimized AVX2 dot product keeps 8-bit products in
//! 16-bit intermediates and 32-bit accumulators (`vpmaddubsw` +
//! `vpmaddwd`), never touching floating point until the final horizontal
//! sum — that single structural difference is worth up to 11x over the
//! widen-to-float code a compiler emits (§5.1). These kernels reproduce
//! that structure in safe Rust: fixed-trip-count inner loops over lane
//! blocks sized like one 256-bit register, integer multiply-accumulate,
//! and one scale-by-quantum at the end. LLVM auto-vectorizes the blocks
//! into the same instruction families the paper hand-writes.
//!
//! The AXPY side quantizes on write. The update scalar `a` is pre-scaled
//! into a `Q17.15` fixed-point multiplier once per call, so the inner loop
//! is a pure integer multiply-add-shift — with the rounding randomness
//! folded in *before* the shift, which is exactly how the paper's proposed
//! AXPY instruction generates unbiased rounding in hardware (§6.1).

use buckwild_dataset::Element;
use buckwild_fixed::FixedSpec;
use buckwild_prng::XorshiftLanes;

use crate::simd;
use crate::AxpyRand;

/// Fractional bits of the pre-scaled AXPY multiplier.
const K_SHIFT: u32 = 15;

/// Fixed-point integer element types the optimized kernels accept.
///
/// Sealed: the kernels are specialized for `i8`, `i16`, and `i32`.
/// The (hidden) `simd::Reinterpret` supertrait lets the generic kernels
/// hand concrete `i8`/`i16` slices to the explicit `std::arch` paths
/// without any unsafe type dispatch.
pub trait FixedInt: Element + sealed::Sealed + simd::Reinterpret {
    /// Widens to `i32` (always exact).
    fn widen(self) -> i32;
    /// Narrows from `i64` with saturation.
    fn saturate(v: i64) -> Self;
    /// Narrows from `i32` with saturation (the vectorizable fast path).
    fn saturate_i32(v: i32) -> Self;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for i8 {}
    impl Sealed for i16 {}
    impl Sealed for i32 {}
}

macro_rules! fixed_int {
    ($ty:ty) => {
        impl FixedInt for $ty {
            #[inline]
            fn widen(self) -> i32 {
                self as i32
            }
            #[inline]
            fn saturate(v: i64) -> Self {
                v.clamp(<$ty>::MIN as i64, <$ty>::MAX as i64) as $ty
            }
            #[inline]
            fn saturate_i32(v: i32) -> Self {
                v.clamp(<$ty>::MIN as i32, <$ty>::MAX as i32) as $ty
            }
        }
    };
}

fixed_int!(i8);
fixed_int!(i16);
fixed_int!(i32);

/// Block width of the integer dot inner loop (one 256-bit register of i8).
const DOT_BLOCK: usize = 32;

/// Integer-MAC dot product for any fixed/fixed precision pair: the exact
/// integer sum [`dot_fixed_sum`], scaled by both quanta once.
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
#[must_use]
pub fn dot_fixed_fixed<D: FixedInt, M: FixedInt>(
    x: &[D],
    w: &[M],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
) -> f32 {
    dot_fixed_sum(x, w) as f32 * x_spec.quantum() * w_spec.quantum()
}

/// The exact integer sum `Σ x[i]·w[i]` of a fixed/fixed dot product, in
/// units of both quanta.
///
/// Products are exact in `i32` (ample for <=16-bit inputs); each block's
/// partial sum is flushed into an `i64` total so arbitrarily long vectors
/// cannot overflow. Integer addition commutes, so the sums of consecutive
/// chunks add up to the sum of the whole.
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
#[must_use]
pub fn dot_fixed_sum<D: FixedInt, M: FixedInt>(x: &[D], w: &[M]) -> i64 {
    assert_eq!(x.len(), w.len(), "length mismatch");
    let mut total = 0i64;
    // Products of a D-bit and an M-bit operand span D+M-1 bits; when four
    // of them fit an i32 lane (the vpmaddubsw/vpmaddwd headroom), use
    // 32-bit lane accumulators — this is the pattern LLVM turns into the
    // same widening-MAC instructions the paper hand-writes. Wider pairs
    // (i16 x i16) accumulate each block in i64 lanes.
    if D::BITS + M::BITS <= 30 {
        if let (Some(xs), Some(ws)) = (D::as_i8s(x), M::as_i8s(w)) {
            if let Some(total) = simd::dot_i8_i8(xs, ws) {
                return total;
            }
        }
        let mut xc = x.chunks_exact(DOT_BLOCK);
        let mut wc = w.chunks_exact(DOT_BLOCK);
        for (xb, wb) in (&mut xc).zip(&mut wc) {
            let mut acc = [0i32; 8];
            for j in 0..DOT_BLOCK {
                acc[j & 7] += xb[j].widen() * wb[j].widen();
            }
            total += acc.iter().map(|&v| v as i64).sum::<i64>();
        }
        for (xi, wi) in xc.remainder().iter().zip(wc.remainder()) {
            total += (xi.widen() * wi.widen()) as i64;
        }
    } else {
        if let (Some(xs), Some(ws)) = (D::as_i16s(x), M::as_i16s(w)) {
            if let Some(total) = simd::dot_i16_i16(xs, ws) {
                return total;
            }
        }
        let mut xc = x.chunks_exact(16);
        let mut wc = w.chunks_exact(16);
        for (xb, wb) in (&mut xc).zip(&mut wc) {
            let mut acc = [0i64; 8];
            for j in 0..16 {
                acc[j & 7] += (xb[j].widen() * wb[j].widen()) as i64;
            }
            total += acc.iter().sum::<i64>();
        }
        for (xi, wi) in xc.remainder().iter().zip(wc.remainder()) {
            total += (xi.widen() * wi.widen()) as i64;
        }
    }
    total
}

/// `dot_fixed_fixed` for the paper's flagship D8M8 pair.
#[must_use]
pub fn dot_i8_i8(x: &[i8], w: &[i8], x_spec: &FixedSpec, w_spec: &FixedSpec) -> f32 {
    dot_fixed_fixed(x, w, x_spec, w_spec)
}

/// `dot_fixed_fixed` for D8M16.
#[must_use]
pub fn dot_i8_i16(x: &[i8], w: &[i16], x_spec: &FixedSpec, w_spec: &FixedSpec) -> f32 {
    dot_fixed_fixed(x, w, x_spec, w_spec)
}

/// `dot_fixed_fixed` for D16M8.
#[must_use]
pub fn dot_i16_i8(x: &[i16], w: &[i8], x_spec: &FixedSpec, w_spec: &FixedSpec) -> f32 {
    dot_fixed_fixed(x, w, x_spec, w_spec)
}

/// `dot_fixed_fixed` for D16M16.
#[must_use]
pub fn dot_i16_i16(x: &[i16], w: &[i16], x_spec: &FixedSpec, w_spec: &FixedSpec) -> f32 {
    dot_fixed_fixed(x, w, x_spec, w_spec)
}

/// Blocked multi-accumulator float dot product (the well-optimized
/// full-precision baseline).
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
#[must_use]
pub fn dot_f32_f32(x: &[f32], w: &[f32]) -> f32 {
    assert_eq!(x.len(), w.len(), "length mismatch");
    if let Some(total) = simd::dot_f32_f32(x, w) {
        return total;
    }
    let mut acc = [0f32; 8];
    let mut xc = x.chunks_exact(8);
    let mut wc = w.chunks_exact(8);
    for (xb, wb) in (&mut xc).zip(&mut wc) {
        for j in 0..8 {
            acc[j] += xb[j] * wb[j];
        }
    }
    let mut total: f32 = acc.iter().sum();
    for (xi, wi) in xc.remainder().iter().zip(wc.remainder()) {
        total += xi * wi;
    }
    total
}

/// Dot of a fixed-point dataset against a float model (e.g. D8M32f).
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
#[must_use]
pub fn dot_fixed_f32<D: FixedInt>(x: &[D], w: &[f32], x_spec: &FixedSpec) -> f32 {
    assert_eq!(x.len(), w.len(), "length mismatch");
    if let Some(xs) = D::as_i8s(x) {
        if let Some(total) = simd::dot_i8_f32(xs, w) {
            return total * x_spec.quantum();
        }
    } else if let Some(xs) = D::as_i16s(x) {
        if let Some(total) = simd::dot_i16_f32(xs, w) {
            return total * x_spec.quantum();
        }
    }
    let mut acc = [0f32; 8];
    let mut xc = x.chunks_exact(8);
    let mut wc = w.chunks_exact(8);
    for (xb, wb) in (&mut xc).zip(&mut wc) {
        for j in 0..8 {
            acc[j] += xb[j].widen() as f32 * wb[j];
        }
    }
    let mut total: f32 = acc.iter().sum();
    for (xi, wi) in xc.remainder().iter().zip(wc.remainder()) {
        total += xi.widen() as f32 * wi;
    }
    total * x_spec.quantum()
}

/// Dot of a float dataset against a fixed-point model (e.g. D32fM8).
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
#[must_use]
pub fn dot_f32_fixed<M: FixedInt>(x: &[f32], w: &[M], w_spec: &FixedSpec) -> f32 {
    assert_eq!(x.len(), w.len(), "length mismatch");
    if let Some(ws) = M::as_i8s(w) {
        if let Some(total) = simd::dot_f32_i8(x, ws) {
            return total * w_spec.quantum();
        }
    } else if let Some(ws) = M::as_i16s(w) {
        if let Some(total) = simd::dot_f32_i16(x, ws) {
            return total * w_spec.quantum();
        }
    }
    let mut acc = [0f32; 8];
    let mut xc = x.chunks_exact(8);
    let mut wc = w.chunks_exact(8);
    for (xb, wb) in (&mut xc).zip(&mut wc) {
        for j in 0..8 {
            acc[j] += xb[j] * wb[j].widen() as f32;
        }
    }
    let mut total: f32 = acc.iter().sum();
    for (xi, wi) in xc.remainder().iter().zip(wc.remainder()) {
        total += xi * wi.widen() as f32;
    }
    total * w_spec.quantum()
}

/// Rows per block of the batched inference dot: each model block is
/// streamed once per four queries, so the (memory-bound) model traffic is
/// amortized across the batch — the MLWeaving argument for low-precision
/// serving, applied at the register-blocking level.
const BATCH_ROWS: usize = 4;

/// Type-dispatches a four-row batched block to the matching SIMD
/// monomorph; `None` → the scalar register-blocked loop runs.
fn simd_batch4_f32_fixed<M: FixedInt>(rows: [&[f32]; 4], w: &[M]) -> Option<[f32; 4]> {
    if let Some(ws) = M::as_i8s(w) {
        simd::dot_batch4_f32_i8(rows, ws)
    } else if let Some(ws) = M::as_i16s(w) {
        simd::dot_batch4_f32_i16(rows, ws)
    } else {
        None
    }
}

/// Row-major batched dot of float queries against one fixed-point model:
/// `out[r] = q_w · Σ_i batch[r·n + i]·w[i]` for `n = w.len()` and
/// `out.len()` rows.
///
/// # Panics
///
/// Panics if `batch.len() != w.len() * out.len()`.
pub fn dot_batch_f32_fixed<M: FixedInt>(
    batch: &[f32],
    w: &[M],
    w_spec: &FixedSpec,
    out: &mut [f32],
) {
    let n = w.len();
    assert_eq!(batch.len(), n * out.len(), "batch/model shape mismatch");
    let mut r = 0usize;
    while r + BATCH_ROWS <= out.len() {
        let x0 = &batch[r * n..(r + 1) * n];
        let x1 = &batch[(r + 1) * n..(r + 2) * n];
        let x2 = &batch[(r + 2) * n..(r + 3) * n];
        let x3 = &batch[(r + 3) * n..(r + 4) * n];
        if let Some(totals) = simd_batch4_f32_fixed([x0, x1, x2, x3], w) {
            for (k, t) in totals.iter().enumerate() {
                out[r + k] = t * w_spec.quantum();
            }
            r += BATCH_ROWS;
            continue;
        }
        let mut acc = [[0f32; 8]; BATCH_ROWS];
        let mut i = 0usize;
        while i + 8 <= n {
            let wb = &w[i..i + 8];
            let (b0, b1) = (&x0[i..i + 8], &x1[i..i + 8]);
            let (b2, b3) = (&x2[i..i + 8], &x3[i..i + 8]);
            for j in 0..8 {
                let wj = wb[j].widen() as f32;
                acc[0][j] += b0[j] * wj;
                acc[1][j] += b1[j] * wj;
                acc[2][j] += b2[j] * wj;
                acc[3][j] += b3[j] * wj;
            }
            i += 8;
        }
        let mut totals = acc.map(|lanes| lanes.iter().sum::<f32>());
        while i < n {
            let wj = w[i].widen() as f32;
            totals[0] += x0[i] * wj;
            totals[1] += x1[i] * wj;
            totals[2] += x2[i] * wj;
            totals[3] += x3[i] * wj;
            i += 1;
        }
        for (k, t) in totals.iter().enumerate() {
            out[r + k] = t * w_spec.quantum();
        }
        r += BATCH_ROWS;
    }
    if n == 0 {
        out[r..].fill(0.0);
        return;
    }
    for (o, x) in out[r..].iter_mut().zip(batch[r * n..].chunks_exact(n)) {
        *o = dot_f32_fixed(x, w, w_spec);
    }
}

/// Row-major batched dot of float queries against a float model — the
/// full-precision serving baseline with the same row blocking.
///
/// # Panics
///
/// Panics if `batch.len() != w.len() * out.len()`.
pub fn dot_batch_f32_f32(batch: &[f32], w: &[f32], out: &mut [f32]) {
    let n = w.len();
    assert_eq!(batch.len(), n * out.len(), "batch/model shape mismatch");
    let mut r = 0usize;
    while r + BATCH_ROWS <= out.len() {
        let x0 = &batch[r * n..(r + 1) * n];
        let x1 = &batch[(r + 1) * n..(r + 2) * n];
        let x2 = &batch[(r + 2) * n..(r + 3) * n];
        let x3 = &batch[(r + 3) * n..(r + 4) * n];
        if let Some(totals) = simd::dot_batch4_f32_f32([x0, x1, x2, x3], w) {
            out[r..r + BATCH_ROWS].copy_from_slice(&totals);
            r += BATCH_ROWS;
            continue;
        }
        let mut acc = [[0f32; 8]; BATCH_ROWS];
        let mut i = 0usize;
        while i + 8 <= n {
            let wb = &w[i..i + 8];
            let (b0, b1) = (&x0[i..i + 8], &x1[i..i + 8]);
            let (b2, b3) = (&x2[i..i + 8], &x3[i..i + 8]);
            for j in 0..8 {
                acc[0][j] += b0[j] * wb[j];
                acc[1][j] += b1[j] * wb[j];
                acc[2][j] += b2[j] * wb[j];
                acc[3][j] += b3[j] * wb[j];
            }
            i += 8;
        }
        let mut totals = acc.map(|lanes| lanes.iter().sum::<f32>());
        while i < n {
            totals[0] += x0[i] * w[i];
            totals[1] += x1[i] * w[i];
            totals[2] += x2[i] * w[i];
            totals[3] += x3[i] * w[i];
            i += 1;
        }
        out[r..r + BATCH_ROWS].copy_from_slice(&totals);
        r += BATCH_ROWS;
    }
    if n == 0 {
        out[r..].fill(0.0);
        return;
    }
    for (o, x) in out[r..].iter_mut().zip(batch[r * n..].chunks_exact(n)) {
        *o = dot_f32_f32(x, w);
    }
}

/// Pre-scales the AXPY scalar `a` into the `Q17.15` integer multiplier
/// `k = round(a · q_x / q_w · 2^15)`, saturating at the i32 range.
#[must_use]
fn scale_multiplier(a: f32, x_spec: &FixedSpec, w_spec: &FixedSpec) -> i64 {
    let k_real = a as f64 * x_spec.quantum() as f64 / w_spec.quantum() as f64;
    let scaled = (k_real * (1i64 << K_SHIFT) as f64).round();
    scaled.clamp(i32::MIN as f64, i32::MAX as f64) as i64
}

/// Per-element rounding offsets in `[0, 2^K_SHIFT)` drawn from an
/// [`AxpyRand`] strategy — used only by the float-grid quantization path,
/// where the per-element work is already scalar.
struct OffsetSource<'a, 'b> {
    rand: &'b mut AxpyRand<'a>,
    buffer: [u32; 8],
    cursor: usize,
}

impl<'a, 'b> OffsetSource<'a, 'b> {
    fn new(rand: &'b mut AxpyRand<'a>) -> Self {
        let buffer = match rand {
            AxpyRand::Shared(block) => **block,
            _ => [0u32; 8],
        };
        OffsetSource {
            rand,
            buffer,
            cursor: 8, // force a refill for FreshLanes on first use
        }
    }

    /// A `[0, 1)` uniform for float-grid quantization paths.
    #[inline]
    fn next_uniform(&mut self, i: usize) -> f32 {
        const SCALE: f32 = 1.0 / (1u32 << 24) as f32;
        match self.rand {
            AxpyRand::Biased => 0.5,
            AxpyRand::Scalar(f) => f(),
            AxpyRand::Shared(block) => (block[i % 8] >> 8) as f32 * SCALE,
            AxpyRand::FreshLanes(lanes) => {
                if self.cursor >= 8 {
                    self.buffer = lanes.step();
                    self.cursor = 0;
                }
                let word = self.buffer[self.cursor];
                self.cursor += 1;
                (word >> 8) as f32 * SCALE
            }
        }
    }

    fn is_biased(&self) -> bool {
        matches!(self.rand, AxpyRand::Biased)
    }
}

/// The multiplier `k` as an `i32`, if the AXPY's `i32` fast path can
/// take it: `|x·k| + 2^15 < 2^30` for every `D` value `x`, so the delta
/// and the updated word both fit an `i32` with ample headroom.
#[inline]
pub(crate) fn gain_i32<D: FixedInt>(k: i64) -> Option<i32> {
    let max_x = 1i64 << (D::BITS - 1);
    (k.abs().saturating_mul(max_x) < (1i64 << 30)).then_some(k as i32)
}

/// Integer AXPY `w[i] ← sat(w[i] + ((x[i]·k + offs[i & 7]) >> 15))` with
/// the `Q17.15` multiplier `k = round(a · q_x / q_w · 2^15)` already
/// scaled and clamped to the `i32` range, and one 8-entry block of
/// rounding offsets in `[0, 2^15)` for the whole call: biased rounding
/// (all half) or per-iteration shared randomness.
///
/// The loop is branch-free 8-element chunks with a fixed offset vector:
/// the SIMD kernel or its scalar twin in `i32` when the products cannot
/// overflow, and `i64` otherwise. Both give the per-element `i64`
/// arithmetic's result bit for bit.
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
#[inline]
pub fn axpy_block_offsets<D: FixedInt, M: FixedInt>(w: &mut [M], x: &[D], k: i64, offs: &[i64; 8]) {
    assert_eq!(x.len(), w.len(), "length mismatch");
    if let Some(k32) = gain_i32::<D>(k) {
        let offs32 = offs.map(|o| o as i32);
        if simd_axpy_offsets(w, x, k32, &offs32).is_none() {
            axpy_offsets_i32(w, x, k32, &offs32);
        }
    } else {
        axpy_offsets_i64(w, x, k, offs);
    }
}

/// [`axpy_block_offsets`]'s scalar `i32` fast path.
#[inline]
fn axpy_offsets_i32<D: FixedInt, M: FixedInt>(w: &mut [M], x: &[D], k32: i32, offs32: &[i32; 8]) {
    let mut wc = w.chunks_exact_mut(8);
    let mut xc = x.chunks_exact(8);
    for (wb, xb) in (&mut wc).zip(&mut xc) {
        for j in 0..8 {
            let delta = (xb[j].widen() * k32 + offs32[j]) >> K_SHIFT;
            wb[j] = M::saturate_i32(wb[j].widen() + delta);
        }
    }
    axpy_words_i32(wc.into_remainder(), xc.remainder(), k32, offs32);
}

/// [`axpy_offsets_i32`] on fewer than 8 words at a multiple of 8, or on
/// any words with their own slice of offsets: word `j` takes `offs32[j]`.
#[inline]
pub(crate) fn axpy_words_i32<D: FixedInt, M: FixedInt>(
    w: &mut [M],
    x: &[D],
    k32: i32,
    offs32: &[i32],
) {
    for ((wi, xi), off) in w.iter_mut().zip(x).zip(offs32) {
        let delta = (xi.widen() * k32 + off) >> K_SHIFT;
        *wi = M::saturate_i32(wi.widen() + delta);
    }
}

/// [`axpy_block_offsets`] in `i64`, for multipliers too large for `i32`.
#[inline]
fn axpy_offsets_i64<D: FixedInt, M: FixedInt>(w: &mut [M], x: &[D], k: i64, offs: &[i64; 8]) {
    let mut wc = w.chunks_exact_mut(8);
    let mut xc = x.chunks_exact(8);
    for (wb, xb) in (&mut wc).zip(&mut xc) {
        for j in 0..8 {
            let delta = (xb[j].widen() as i64 * k + offs[j]) >> K_SHIFT;
            wb[j] = M::saturate(wb[j].widen() as i64 + delta);
        }
    }
    axpy_words_i64(wc.into_remainder(), xc.remainder(), k, offs);
}

/// [`axpy_words_i32`] in `i64`.
#[inline]
pub(crate) fn axpy_words_i64<D: FixedInt, M: FixedInt>(w: &mut [M], x: &[D], k: i64, offs: &[i64]) {
    for ((wi, xi), off) in w.iter_mut().zip(x).zip(offs) {
        let delta = (xi.widen() as i64 * k + off) >> K_SHIFT;
        *wi = M::saturate(wi.widen() as i64 + delta);
    }
}

/// Type-dispatches the i32 AXPY fast path to the matching SIMD monomorph;
/// `None` → the scalar chunked loop runs.
fn simd_axpy_offsets<D: FixedInt, M: FixedInt>(
    w: &mut [M],
    x: &[D],
    k: i32,
    offs: &[i32; 8],
) -> Option<()> {
    if let (Some(xs), Some(ws)) = (D::as_i8s(x), M::as_i8s_mut(w)) {
        simd::axpy_offsets_i8_i8(ws, xs, k, offs)
    } else if let (Some(xs), Some(ws)) = (D::as_i8s(x), M::as_i16s_mut(w)) {
        simd::axpy_offsets_i8_i16(ws, xs, k, offs)
    } else if let (Some(xs), Some(ws)) = (D::as_i16s(x), M::as_i8s_mut(w)) {
        simd::axpy_offsets_i16_i8(ws, xs, k, offs)
    } else if let (Some(xs), Some(ws)) = (D::as_i16s(x), M::as_i16s_mut(w)) {
        simd::axpy_offsets_i16_i16(ws, xs, k, offs)
    } else {
        None
    }
}

/// Integer AXPY `w[i] ← sat(w[i] + round((x[i]·k + r) >> 15))` for any
/// fixed/fixed pair; `k` is the pre-scaled multiplier and `r` the rounding
/// offset (half a unit for biased, random for unbiased).
///
/// The strategy dispatch happens once per call — the inner loops are
/// branch-free 8-element chunks that LLVM vectorizes.
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
pub fn axpy_fixed_fixed<D: FixedInt, M: FixedInt>(
    w: &mut [M],
    a: f32,
    x: &[D],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
    mut rand: AxpyRand<'_>,
) {
    assert_eq!(x.len(), w.len(), "length mismatch");
    const HALF: i64 = 1i64 << (K_SHIFT - 1);
    const MASK: u32 = (1u32 << K_SHIFT) - 1;
    let k = scale_multiplier(a, x_spec, w_spec);
    match &mut rand {
        AxpyRand::Biased => {
            axpy_block_offsets(w, x, k, &[HALF; 8]);
        }
        AxpyRand::Shared(block) => {
            let offs = block.map(|word| (word & MASK) as i64);
            axpy_block_offsets(w, x, k, &offs);
        }
        AxpyRand::FreshLanes(lanes) => {
            // Refresh the 256-bit block every 8 elements.
            let mut wc = w.chunks_exact_mut(8);
            let mut xc = x.chunks_exact(8);
            for (wb, xb) in (&mut wc).zip(&mut xc) {
                let words = lanes.step();
                for j in 0..8 {
                    let r = (words[j] & MASK) as i64;
                    let delta = (xb[j].widen() as i64 * k + r) >> K_SHIFT;
                    wb[j] = M::saturate(wb[j].widen() as i64 + delta);
                }
            }
            let words = lanes.step();
            for (j, (wi, xi)) in wc
                .into_remainder()
                .iter_mut()
                .zip(xc.remainder())
                .enumerate()
            {
                let r = (words[j & 7] & MASK) as i64;
                let delta = (xi.widen() as i64 * k + r) >> K_SHIFT;
                *wi = M::saturate(wi.widen() as i64 + delta);
            }
        }
        AxpyRand::Scalar(f) => {
            for (wi, &xi) in w.iter_mut().zip(x) {
                let r = (f() * (1u32 << K_SHIFT) as f32) as i64;
                let delta = (xi.widen() as i64 * k + r) >> K_SHIFT;
                *wi = M::saturate(wi.widen() as i64 + delta);
            }
        }
    }
}

/// `axpy_fixed_fixed` for D8M8.
pub fn axpy_i8_i8(
    w: &mut [i8],
    a: f32,
    x: &[i8],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
    rand: AxpyRand<'_>,
) {
    axpy_fixed_fixed(w, a, x, x_spec, w_spec, rand);
}

/// `axpy_fixed_fixed` for D8M16.
pub fn axpy_i8_i16(
    w: &mut [i16],
    a: f32,
    x: &[i8],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
    rand: AxpyRand<'_>,
) {
    axpy_fixed_fixed(w, a, x, x_spec, w_spec, rand);
}

/// `axpy_fixed_fixed` for D16M8.
pub fn axpy_i16_i8(
    w: &mut [i8],
    a: f32,
    x: &[i16],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
    rand: AxpyRand<'_>,
) {
    axpy_fixed_fixed(w, a, x, x_spec, w_spec, rand);
}

/// `axpy_fixed_fixed` for D16M16.
pub fn axpy_i16_i16(
    w: &mut [i16],
    a: f32,
    x: &[i16],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
    rand: AxpyRand<'_>,
) {
    axpy_fixed_fixed(w, a, x, x_spec, w_spec, rand);
}

/// Blocked float AXPY `w[i] += a·x[i]` (no quantization).
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
pub fn axpy_f32_f32(w: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(x.len(), w.len(), "length mismatch");
    if simd::axpy_f32_f32(w, a, x).is_some() {
        return;
    }
    for (wi, &xi) in w.iter_mut().zip(x) {
        *wi += a * xi;
    }
}

/// AXPY of a fixed dataset into a float model: `w[i] += a·q_x·x[i]`.
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
pub fn axpy_fixed_f32<D: FixedInt>(w: &mut [f32], a: f32, x: &[D], x_spec: &FixedSpec) {
    assert_eq!(x.len(), w.len(), "length mismatch");
    let scale = a * x_spec.quantum();
    if let Some(xs) = D::as_i8s(x) {
        if simd::axpy_i8_f32(w, xs, scale).is_some() {
            return;
        }
    }
    for (wi, &xi) in w.iter_mut().zip(x) {
        *wi += scale * xi.widen() as f32;
    }
}

/// AXPY of a float dataset into a fixed model with quantization on write:
/// `w[i] ← sat(floor(w[i] + (a/q_w)·x[i] + u))` in model-grid units.
///
/// # Panics
///
/// Panics if `x.len() != w.len()`.
pub fn axpy_f32_fixed<M: FixedInt>(
    w: &mut [M],
    a: f32,
    x: &[f32],
    w_spec: &FixedSpec,
    mut rand: AxpyRand<'_>,
) {
    assert_eq!(x.len(), w.len(), "length mismatch");
    let scale = a / w_spec.quantum();
    let mut offsets = OffsetSource::new(&mut rand);
    let biased = offsets.is_biased();
    for (i, (wi, &xi)) in w.iter_mut().zip(x).enumerate() {
        let target = wi.widen() as f32 + scale * xi;
        let grid = if biased {
            (target as f64).round_ties_even() as i64
        } else {
            (target as f64 + offsets.next_uniform(i) as f64).floor() as i64
        };
        *wi = M::saturate(grid);
    }
}

/// Generates the per-iteration 256-bit shared-randomness block from a
/// lane-vectorized XORSHIFT (paper §5.2 footnote 11: "we ran the vectorized
/// XORSHIFT PRNG once every iteration to produce 256 fresh bits").
#[must_use]
pub fn shared_block(lanes: &mut XorshiftLanes<8>) -> [u32; 8] {
    lanes.step()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic;
    use buckwild_fixed::Rounding;
    use buckwild_prng::{Prng, Xorshift128};

    fn specs8() -> (FixedSpec, FixedSpec) {
        (FixedSpec::unit_range(8), FixedSpec::model_range(8))
    }

    fn random_i8(n: usize, seed: u64) -> Vec<i8> {
        let mut rng = Xorshift128::seed_from(seed);
        (0..n).map(|_| rng.next_u32() as i8).collect()
    }

    fn random_i16(n: usize, seed: u64) -> Vec<i16> {
        let mut rng = Xorshift128::seed_from(seed);
        (0..n).map(|_| rng.next_u32() as i16).collect()
    }

    #[test]
    fn dot_i8_i8_matches_generic() {
        let (xs, ws) = specs8();
        for n in [0usize, 1, 7, 31, 32, 33, 100, 1000] {
            let x = random_i8(n, 1);
            let w = random_i8(n, 2);
            let fast = dot_i8_i8(&x, &w, &xs, &ws);
            let slow = generic::dot(&x, &w, &xs, &ws);
            assert!((fast - slow).abs() < 1e-3, "n={n}: {fast} vs {slow}");
        }
    }

    #[test]
    fn dot_i16_i16_matches_generic() {
        let xs = FixedSpec::unit_range(16);
        let ws = FixedSpec::model_range(16);
        let x = random_i16(513, 3);
        let w = random_i16(513, 4);
        let fast = dot_i16_i16(&x, &w, &xs, &ws);
        let slow = generic::dot(&x, &w, &xs, &ws);
        assert!((fast - slow).abs() < slow.abs() * 1e-4 + 1e-3);
    }

    #[test]
    fn dot_mixed_pairs_match_generic() {
        let xs8 = FixedSpec::unit_range(8);
        let ws16 = FixedSpec::model_range(16);
        let x8 = random_i8(257, 5);
        let w16 = random_i16(257, 6);
        let fast = dot_i8_i16(&x8, &w16, &xs8, &ws16);
        let slow = generic::dot(&x8, &w16, &xs8, &ws16);
        assert!((fast - slow).abs() < slow.abs() * 1e-4 + 1e-3);

        let xs16 = FixedSpec::unit_range(16);
        let ws8 = FixedSpec::model_range(8);
        let x16 = random_i16(129, 7);
        let w8 = random_i8(129, 8);
        let fast = dot_i16_i8(&x16, &w8, &xs16, &ws8);
        let slow = generic::dot(&x16, &w8, &xs16, &ws8);
        assert!((fast - slow).abs() < slow.abs() * 1e-4 + 1e-3);
    }

    #[test]
    fn dot_f32_f32_matches_naive() {
        let x: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin()).collect();
        let w: Vec<f32> = (0..100).map(|i| (i as f32 * 0.73).cos()).collect();
        let naive: f32 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
        assert!((dot_f32_f32(&x, &w) - naive).abs() < 1e-4);
    }

    #[test]
    fn dot_float_fixed_mixes() {
        let xs = FixedSpec::unit_range(8);
        let x = random_i8(77, 9);
        let w: Vec<f32> = (0..77).map(|i| (i as f32 * 0.1).sin()).collect();
        let fast = dot_fixed_f32(&x, &w, &xs);
        let slow = generic::dot(&x, &w, &xs, &FixedSpec::unit_range(32));
        assert!((fast - slow).abs() < 1e-3);

        let ws = FixedSpec::model_range(8);
        let wq = random_i8(77, 10);
        let fast = dot_f32_fixed(&w, &wq, &ws);
        let slow = generic::dot(&w, &wq, &FixedSpec::unit_range(32), &ws);
        assert!((fast - slow).abs() < 1e-3);
    }

    #[test]
    fn dot_batch_f32_fixed_is_bit_identical_per_row() {
        // The serving hot-swap guarantee leans on this: a batched score must
        // equal the single-row kernel bit for bit, for every row position.
        let ws = FixedSpec::model_range(8);
        let mut rng = Xorshift128::seed_from(42);
        for n in [1usize, 7, 8, 9, 64, 100] {
            let w = random_i8(n, 20);
            for rows in [1usize, 3, 4, 5, 9] {
                let batch: Vec<f32> = (0..rows * n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
                let mut out = vec![0f32; rows];
                dot_batch_f32_fixed(&batch, &w, &ws, &mut out);
                for (r, &got) in out.iter().enumerate() {
                    let one = dot_f32_fixed(&batch[r * n..(r + 1) * n], &w, &ws);
                    assert_eq!(got.to_bits(), one.to_bits(), "n={n} rows={rows} r={r}");
                }
            }
        }
    }

    #[test]
    fn dot_batch_f32_f32_is_bit_identical_per_row() {
        let mut rng = Xorshift128::seed_from(43);
        for n in [1usize, 8, 23] {
            let w: Vec<f32> = (0..n).map(|_| rng.next_f32() - 0.5).collect();
            for rows in [2usize, 4, 6] {
                let batch: Vec<f32> = (0..rows * n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
                let mut out = vec![0f32; rows];
                dot_batch_f32_f32(&batch, &w, &mut out);
                for (r, &got) in out.iter().enumerate() {
                    let one = dot_f32_f32(&batch[r * n..(r + 1) * n], &w);
                    assert_eq!(got.to_bits(), one.to_bits(), "n={n} rows={rows} r={r}");
                }
            }
        }
    }

    #[test]
    fn axpy_biased_close_to_generic() {
        let (xs, ws) = specs8();
        let x = random_i8(200, 11);
        let mut w_fast = random_i8(200, 12);
        let mut w_slow = w_fast.clone();
        let a = 0.05f32;
        axpy_i8_i8(&mut w_fast, a, &x, &xs, &ws, AxpyRand::Biased);
        generic::axpy(&mut w_slow, a, &x, &xs, &ws, Rounding::Biased, || 0.0);
        // The integer path quantizes `a` to Q17.15, so results may differ by
        // one model quantum on ties; they must never differ by more.
        for (f, s) in w_fast.iter().zip(&w_slow) {
            assert!((*f as i32 - *s as i32).abs() <= 1, "{f} vs {s}");
        }
    }

    #[test]
    fn axpy_unbiased_is_unbiased_in_expectation() {
        let (xs, ws) = specs8();
        let x: Vec<i8> = vec![51; 1]; // 51/128 ≈ 0.3984
        let a = 0.013f32;
        // True delta in model quanta: a*x*qx/qw = 0.013*0.3984*64 ≈ 0.3316
        let true_delta = a as f64 * (51.0 / 128.0) * 64.0;
        let trials = 40_000;
        let mut lanes = XorshiftLanes::<8>::seed_from(99);
        let mut sum = 0f64;
        for _ in 0..trials {
            let mut w: Vec<i8> = vec![0];
            let block = shared_block(&mut lanes);
            axpy_i8_i8(&mut w, a, &x, &xs, &ws, AxpyRand::Shared(&block));
            sum += w[0] as f64;
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - true_delta).abs() < 0.02,
            "mean {mean} vs true {true_delta}"
        );
    }

    #[test]
    fn axpy_saturates_at_model_bounds() {
        let (xs, ws) = specs8();
        let x: Vec<i8> = vec![127; 8];
        let mut w: Vec<i8> = vec![120; 8];
        axpy_i8_i8(&mut w, 10.0, &x, &xs, &ws, AxpyRand::Biased);
        assert!(w.iter().all(|&v| v == 127));
        axpy_i8_i8(&mut w, -100.0, &x, &xs, &ws, AxpyRand::Biased);
        assert!(w.iter().all(|&v| v == -128));
    }

    #[test]
    fn axpy_fresh_lanes_and_scalar_agree_in_distribution() {
        let (xs, ws) = specs8();
        let x = random_i8(512, 13);
        let a = 0.02f32;
        let mut lanes = XorshiftLanes::<8>::seed_from(7);
        let mut w1 = vec![0i8; 512];
        axpy_i8_i8(&mut w1, a, &x, &xs, &ws, AxpyRand::FreshLanes(&mut lanes));
        let mut rng = Xorshift128::seed_from(8);
        let mut scalar = || rng.next_f32();
        let mut w2 = vec![0i8; 512];
        axpy_i8_i8(&mut w2, a, &x, &xs, &ws, AxpyRand::Scalar(&mut scalar));
        let m1: f64 = w1.iter().map(|&v| v as f64).sum::<f64>() / 512.0;
        let m2: f64 = w2.iter().map(|&v| v as f64).sum::<f64>() / 512.0;
        assert!((m1 - m2).abs() < 0.25, "means {m1} vs {m2}");
    }

    #[test]
    fn axpy_float_model_paths() {
        let xs = FixedSpec::unit_range(8);
        let x = random_i8(100, 14);
        let mut w = vec![0.5f32; 100];
        axpy_fixed_f32(&mut w, 0.1, &x, &xs);
        for (wi, &xi) in w.iter().zip(&x) {
            let expect = 0.5 + 0.1 * (xi as f32 / 128.0);
            assert!((wi - expect).abs() < 1e-6);
        }

        let mut wf = vec![1.0f32; 4];
        axpy_f32_f32(&mut wf, 2.0, &[0.5f32, -0.25, 0.0, 1.0]);
        assert_eq!(wf, vec![2.0, 0.5, 1.0, 3.0]);
    }

    #[test]
    fn axpy_float_data_fixed_model() {
        let ws = FixedSpec::model_range(8); // quantum 1/64
        let x = vec![1.0f32, -1.0, 0.5, 0.0];
        let mut w: Vec<i8> = vec![0; 4];
        axpy_f32_fixed(&mut w, 0.25, &x, &ws, AxpyRand::Biased);
        // 0.25*1.0 = 0.25 -> 16 quanta exactly.
        assert_eq!(w, vec![16, -16, 8, 0]);
    }

    #[test]
    fn axpy_f32_fixed_unbiased_brackets() {
        let ws = FixedSpec::model_range(8);
        let x = vec![1.0f32];
        // 0.05/(1/64) = 3.2 quanta: floor(3.2 + u) is 3 or 4.
        for _ in 0..4 {
            let mut lanes = XorshiftLanes::<8>::seed_from(21);
            let block = shared_block(&mut lanes);
            let mut w: Vec<i8> = vec![0];
            axpy_f32_fixed(&mut w, 0.05, &x, &ws, AxpyRand::Shared(&block));
            assert!(w[0] == 3 || w[0] == 4, "got {}", w[0]);
        }
    }

    #[test]
    fn scale_multiplier_saturates() {
        let xs = FixedSpec::unit_range(8);
        let ws = FixedSpec::model_range(16);
        let k = scale_multiplier(1e30, &xs, &ws);
        assert_eq!(k, i32::MAX as i64);
        let k = scale_multiplier(-1e30, &xs, &ws);
        assert_eq!(k, i32::MIN as i64);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_checks_lengths() {
        let (xs, ws) = specs8();
        let mut w = vec![0i8; 3];
        axpy_i8_i8(&mut w, 1.0, &[1i8, 2], &xs, &ws, AxpyRand::Biased);
    }
}
