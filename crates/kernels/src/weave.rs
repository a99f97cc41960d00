//! Bit-weaved (MLWeaving-style) layout and any-precision bit-serial kernels.
//!
//! The `generic` and `optimized` flavours bake the precision into the
//! memory layout: a D8 dataset is a `Vec<i8>`, a D16 dataset a `Vec<i16>`,
//! and changing precision means re-encoding everything. The MLWeaving
//! layout (see PAPERS.md) stores each *bit plane* contiguously instead:
//! values are grouped into blocks of [`BLOCK`] = 64 elements, and bit `p`
//! of all 64 elements in a block lives in one `u64` word. A dot product
//! then accumulates plane-by-plane with word-wide AND + popcount, and —
//! crucially — reading only the first `b` planes of each block yields the
//! exact arithmetic truncation of every value to `b` bits. One encoding
//! serves every precision `1..=16` at zero re-encode cost.
//!
//! Values are stored as two's-complement fixed-point reprs, MSB plane
//! first, so the plane-`p` coefficient is `-(2^(B-1))` for the sign plane
//! and `+2^(B-1-p)` below it (see [`plane_coeff`]). All accumulation is
//! exact in `i64`; the result is scaled by the quanta once, exactly like
//! the `optimized` kernels.
//!
//! Encodes are counted in a thread-local so trainers can assert the
//! "one encoding serves many precisions" property in telemetry; see
//! [`encodes`].

use std::cell::Cell;

use buckwild_dataset::IndexElement;
use buckwild_fixed::FixedSpec;

use crate::optimized::FixedInt;
use crate::AxpyRand;

/// Elements per weave block: one `u64` plane word covers one block.
pub const BLOCK: usize = 64;

/// Maximum weavable precision. Matches the paper's D1..D16 sweep range.
pub const MAX_BITS: u32 = 16;

/// Fractional bits of the pre-scaled AXPY multiplier (same scheme as the
/// dense/sparse optimized kernels).
const K_SHIFT: u32 = 15;

thread_local! {
    static ENCODES: Cell<u64> = const { Cell::new(0) };
}

/// Number of weave encodings performed on this thread so far.
///
/// Incremented once per [`WeavedVec::encode`] and once per
/// [`WeavedMatrix::new`] (row updates via [`WeavedMatrix::set_row`] do
/// not count — the point of the layout is that one encode serves every
/// precision).
#[must_use]
pub fn encodes() -> u64 {
    ENCODES.with(Cell::get)
}

fn count_encode() {
    ENCODES.with(|c| c.set(c.get() + 1));
}

/// Signed coefficient of bit plane `plane` (0 = MSB) of a `bits`-wide
/// two's-complement value.
///
/// Summing `coeff(p) · bit(p)` over all `bits` planes reconstructs the
/// value exactly; summing only planes `0..b` reconstructs the arithmetic
/// truncation to the top `b` bits (i.e. `(v >> (bits-b)) << (bits-b)`).
///
/// # Panics
///
/// Panics if `plane >= bits` or `bits > MAX_BITS`.
#[must_use]
pub fn plane_coeff(bits: u32, plane: u32) -> i64 {
    assert!((1..=MAX_BITS).contains(&bits), "bits out of range: {bits}");
    assert!(plane < bits, "plane {plane} out of range for {bits} bits");
    let bit = bits - 1 - plane;
    if plane == 0 {
        -(1i64 << bit)
    } else {
        1i64 << bit
    }
}

/// Weaves up to [`BLOCK`] fixed-point values into `bits` plane words.
///
/// `planes[p]` receives bit `bits-1-p` (MSB first) of each element's
/// two's-complement repr; element `j` of the chunk maps to word bit `j`.
/// Plane words beyond `bits` are zeroed. This is the stack-allocated
/// building block behind both the owned layouts and the transient
/// bit-serial slice kernels.
///
/// # Panics
///
/// Panics if `chunk.len() > BLOCK` or `bits` is outside `1..=MAX_BITS`.
pub fn weave_block<D: FixedInt>(planes: &mut [u64; MAX_BITS as usize], chunk: &[D], bits: u32) {
    assert!((1..=MAX_BITS).contains(&bits), "bits out of range: {bits}");
    assert!(chunk.len() <= BLOCK, "chunk longer than a block");
    planes.fill(0);
    for (j, xi) in chunk.iter().enumerate() {
        // Two's-complement low `bits` of the repr: negatives weave
        // correctly because the sign plane carries coefficient -2^(B-1).
        let repr = xi.widen() as u32;
        for (p, plane) in planes.iter_mut().enumerate().take(bits as usize) {
            if (repr >> (bits - 1 - p as u32)) & 1 == 1 {
                *plane |= 1u64 << j;
            }
        }
    }
}

/// A bit-weaved fixed-point vector: bit planes stored contiguously per
/// 64-element block, MSB plane first.
///
/// Block `b`'s plane words occupy `planes[b*bits .. (b+1)*bits]` — block-
/// major order, so a truncated read of the top `k` planes of every block
/// streams `k/bits` of the bytes a full read would.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeavedVec {
    planes: Vec<u64>,
    len: usize,
    spec: FixedSpec,
}

impl WeavedVec {
    /// Encodes a slice of fixed-point reprs at the spec's full precision.
    ///
    /// Counts one weave encode (see [`encodes`]) — every subsequent
    /// truncated read is free.
    ///
    /// # Panics
    ///
    /// Panics if `spec.bits()` is outside `1..=MAX_BITS`.
    #[must_use]
    pub fn encode<D: FixedInt>(x: &[D], spec: &FixedSpec) -> Self {
        let bits = spec.bits();
        assert!(
            (1..=MAX_BITS).contains(&bits),
            "weave requires 1..=16 bits, got {bits}"
        );
        count_encode();
        let blocks = x.len().div_ceil(BLOCK);
        let mut planes = vec![0u64; blocks * bits as usize];
        let mut scratch = [0u64; MAX_BITS as usize];
        for (b, chunk) in x.chunks(BLOCK).enumerate() {
            weave_block(&mut scratch, chunk, bits);
            let base = b * bits as usize;
            planes[base..base + bits as usize].copy_from_slice(&scratch[..bits as usize]);
        }
        WeavedVec {
            planes,
            len: x.len(),
            spec: *spec,
        }
    }

    /// Borrowed view over the weaved planes.
    #[must_use]
    pub fn view(&self) -> WeavedSlice<'_> {
        WeavedSlice {
            planes: &self.planes,
            len: self.len,
            spec: self.spec,
        }
    }

    /// Number of logical elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Full precision of the stored planes.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.spec.bits()
    }

    /// The fixed-point spec the reprs are interpreted through.
    #[must_use]
    pub fn spec(&self) -> &FixedSpec {
        &self.spec
    }
}

/// A borrowed view over bit-weaved planes (the `&[T]` of the layout).
#[derive(Clone, Copy, Debug)]
pub struct WeavedSlice<'a> {
    planes: &'a [u64],
    len: usize,
    spec: FixedSpec,
}

impl<'a> WeavedSlice<'a> {
    /// Number of logical elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the slice covers no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 64-element blocks.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.len.div_ceil(BLOCK)
    }

    /// Full precision of the stored planes.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.spec.bits()
    }

    /// The fixed-point spec the reprs are interpreted through.
    #[must_use]
    pub fn spec(&self) -> &FixedSpec {
        &self.spec
    }

    /// Plane words of one block (full precision).
    #[must_use]
    pub fn block_planes(&self, block: usize) -> &'a [u64] {
        let bits = self.spec.bits() as usize;
        &self.planes[block * bits..(block + 1) * bits]
    }

    /// Decodes one block's reprs truncated to the top `bits` planes.
    ///
    /// Reconstruction is plane-serial: each plane adds its signed
    /// coefficient at every set bit position. Returns the number of valid
    /// elements written (the final block may be partial; the rest of
    /// `out` is zeroed).
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds the stored precision or `block` is out of
    /// range.
    pub fn decode_block(&self, block: usize, bits: u32, out: &mut [i32; BLOCK]) -> usize {
        let stored = self.spec.bits();
        assert!(
            bits >= 1 && bits <= stored,
            "cannot serve {bits} bits from a {stored}-bit weave"
        );
        out.fill(0);
        let words = self.block_planes(block);
        for (p, &word) in words.iter().enumerate().take(bits as usize) {
            let coeff = plane_coeff(stored, p as u32) as i32;
            let mut w = word;
            while w != 0 {
                let j = w.trailing_zeros() as usize;
                out[j] += coeff;
                w &= w - 1;
            }
        }
        (self.len - block * BLOCK).min(BLOCK)
    }
}

/// A row-major matrix of bit-weaved rows sharing one spec.
///
/// Each row is padded to whole blocks so rows can be viewed independently
/// as [`WeavedSlice`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeavedMatrix {
    planes: Vec<u64>,
    rows: usize,
    features: usize,
    spec: FixedSpec,
}

impl WeavedMatrix {
    /// Allocates an all-zero matrix and counts one weave encode.
    ///
    /// The single encode covers every subsequent [`set_row`]
    /// (re-weaving a row in place is part of the same encoding pass, not
    /// a re-encode), which is what the telemetry counter asserts.
    ///
    /// [`set_row`]: WeavedMatrix::set_row
    ///
    /// # Panics
    ///
    /// Panics if `spec.bits()` is outside `1..=MAX_BITS`.
    #[must_use]
    pub fn new(rows: usize, features: usize, spec: &FixedSpec) -> Self {
        let bits = spec.bits();
        assert!(
            (1..=MAX_BITS).contains(&bits),
            "weave requires 1..=16 bits, got {bits}"
        );
        count_encode();
        let row_words = features.div_ceil(BLOCK) * bits as usize;
        WeavedMatrix {
            planes: vec![0u64; rows * row_words],
            rows,
            features,
            spec: *spec,
        }
    }

    /// Weaves `x` into row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != features` or `row` is out of range.
    pub fn set_row<D: FixedInt>(&mut self, row: usize, x: &[D]) {
        assert_eq!(x.len(), self.features, "row length mismatch");
        assert!(row < self.rows, "row {row} out of range");
        let bits = self.spec.bits();
        let row_words = self.features.div_ceil(BLOCK) * bits as usize;
        let base = row * row_words;
        let mut scratch = [0u64; MAX_BITS as usize];
        for (b, chunk) in x.chunks(BLOCK).enumerate() {
            weave_block(&mut scratch, chunk, bits);
            let off = base + b * bits as usize;
            self.planes[off..off + bits as usize].copy_from_slice(&scratch[..bits as usize]);
        }
    }

    /// Borrowed view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn row(&self, row: usize) -> WeavedSlice<'_> {
        assert!(row < self.rows, "row {row} out of range");
        let bits = self.spec.bits() as usize;
        let row_words = self.features.div_ceil(BLOCK) * bits;
        WeavedSlice {
            planes: &self.planes[row * row_words..(row + 1) * row_words],
            len: self.features,
            spec: self.spec,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of logical columns per row.
    #[must_use]
    pub fn features(&self) -> usize {
        self.features
    }

    /// The fixed-point spec the reprs are interpreted through.
    #[must_use]
    pub fn spec(&self) -> &FixedSpec {
        &self.spec
    }

    /// Bytes of plane storage (for layout accounting).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.planes.len() * std::mem::size_of::<u64>()
    }
}

/// Quantum of a repr truncated to the top `bits` planes of `spec`.
///
/// Truncation keeps the high-order planes, so the value scale is
/// unchanged — the quantum is the *stored* quantum, with the low planes
/// simply zeroed. Kept as a named helper so call sites document the
/// invariant.
fn truncated_quantum(spec: &FixedSpec, _bits: u32) -> f32 {
    spec.quantum()
}

/// Weaved × weaved dot product, each side truncated to a requested
/// precision.
///
/// Accumulates `Σ_{p,q} c_p · c_q · popcount(x_plane_p & w_plane_q)` per
/// block, exactly, in `i64` (each term is ≤ 2^15·2^15·64 = 2^36, far from
/// overflow), then scales by both quanta once.
///
/// # Panics
///
/// Panics if lengths differ or either truncation exceeds the stored
/// precision.
#[must_use]
pub fn dot(x: WeavedSlice<'_>, w: WeavedSlice<'_>, x_bits: u32, w_bits: u32) -> f32 {
    assert_eq!(x.len(), w.len(), "length mismatch");
    let xb = x.spec.bits();
    let wb = w.spec.bits();
    assert!(x_bits >= 1 && x_bits <= xb, "x truncation out of range");
    assert!(w_bits >= 1 && w_bits <= wb, "w truncation out of range");
    if let Some(t) =
        crate::simd::weave_dot_planes(x.planes, w.planes, x.blocks(), xb, wb, x_bits, w_bits)
    {
        return t as f32 * truncated_quantum(&x.spec, x_bits) * truncated_quantum(&w.spec, w_bits);
    }
    let mut total = 0i64;
    for block in 0..x.blocks() {
        let xw = x.block_planes(block);
        let ww = w.block_planes(block);
        for (p, &xp) in xw.iter().enumerate().take(x_bits as usize) {
            if xp == 0 {
                continue;
            }
            let cx = plane_coeff(xb, p as u32);
            for (q, &wq) in ww.iter().enumerate().take(w_bits as usize) {
                let hits = (xp & wq).count_ones() as i64;
                if hits != 0 {
                    total += cx * plane_coeff(wb, q as u32) * hits;
                }
            }
        }
    }
    total as f32 * truncated_quantum(&x.spec, x_bits) * truncated_quantum(&w.spec, w_bits)
}

/// Weaved × fixed-slice dot product (plane-serial gather).
///
/// For each plane of each block, sums the model words at set-bit
/// positions and multiplies the partial sum by the plane coefficient —
/// the memory traffic on the data side is `bits/8` bytes per element.
///
/// # Panics
///
/// Panics if lengths differ or `bits` exceeds the stored precision.
#[must_use]
pub fn dot_fixed<M: FixedInt>(x: WeavedSlice<'_>, w: &[M], bits: u32, w_spec: &FixedSpec) -> f32 {
    assert_eq!(x.len(), w.len(), "length mismatch");
    let stored = x.spec.bits();
    assert!(bits >= 1 && bits <= stored, "truncation out of range");
    let mut total = 0i64;
    for block in 0..x.blocks() {
        let words = x.block_planes(block);
        let base = block * BLOCK;
        for (p, &word) in words.iter().enumerate().take(bits as usize) {
            if word == 0 {
                continue;
            }
            let mut plane_sum = 0i64;
            let mut wrd = word;
            while wrd != 0 {
                let j = wrd.trailing_zeros() as usize;
                plane_sum += w[base + j].widen() as i64;
                wrd &= wrd - 1;
            }
            total += plane_coeff(stored, p as u32) * plane_sum;
        }
    }
    total as f32 * truncated_quantum(&x.spec, bits) * w_spec.quantum()
}

/// Weaved × `f32`-slice dot product (plane-serial gather).
///
/// # Panics
///
/// Panics if lengths differ or `bits` exceeds the stored precision.
#[must_use]
pub fn dot_f32(x: WeavedSlice<'_>, w: &[f32], bits: u32) -> f32 {
    assert_eq!(x.len(), w.len(), "length mismatch");
    let stored = x.spec.bits();
    assert!(bits >= 1 && bits <= stored, "truncation out of range");
    let mut total = 0f64;
    for block in 0..x.blocks() {
        let words = x.block_planes(block);
        let base = block * BLOCK;
        for (p, &word) in words.iter().enumerate().take(bits as usize) {
            if word == 0 {
                continue;
            }
            let mut plane_sum = 0f64;
            let mut wrd = word;
            while wrd != 0 {
                let j = wrd.trailing_zeros() as usize;
                plane_sum += f64::from(w[base + j]);
                wrd &= wrd - 1;
            }
            total += plane_coeff(stored, p as u32) as f64 * plane_sum;
        }
    }
    (total * f64::from(truncated_quantum(&x.spec, bits))) as f32
}

/// Quantized AXPY from a weaved data vector: `w ← Q(w + a·x)` with `x`
/// truncated to `bits` planes.
///
/// Each block's reprs are reconstructed plane-serially (see
/// [`WeavedSlice::decode_block`]), then written through the same
/// `Q17.15` multiplier / fold-randomness-before-shift scheme as the
/// dense and sparse optimized kernels, with the randomness stream
/// indexed by global element position so results match an unweaved AXPY
/// bit for bit.
///
/// # Panics
///
/// Panics if lengths differ or `bits` exceeds the stored precision.
pub fn axpy_fixed<M: FixedInt>(
    w: &mut [M],
    a: f32,
    x: WeavedSlice<'_>,
    bits: u32,
    w_spec: &FixedSpec,
    mut rand: AxpyRand<'_>,
) {
    assert_eq!(x.len(), w.len(), "length mismatch");
    let k_real = a as f64 * x.spec.quantum() as f64 / w_spec.quantum() as f64;
    let k = (k_real * (1i64 << K_SHIFT) as f64)
        .round()
        .clamp(i32::MIN as f64, i32::MAX as f64) as i64;
    const MASK: u32 = (1u32 << 15) - 1;
    const HALF: i64 = 1i64 << 14;
    let mut lane_buf = [0u32; 8];
    let mut cursor = 8usize;
    let mut decoded = [0i32; BLOCK];
    for block in 0..x.blocks() {
        let valid = x.decode_block(block, bits, &mut decoded);
        let base = block * BLOCK;
        for (j, &xv) in decoded.iter().enumerate().take(valid) {
            let i = base + j;
            let r = match &mut rand {
                AxpyRand::Biased => HALF,
                AxpyRand::Scalar(f) => (f() * (1u32 << K_SHIFT) as f32) as i64,
                AxpyRand::Shared(block_words) => (block_words[i % 8] & MASK) as i64,
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
            let slot = &mut w[i];
            let delta = (xv as i64 * k + r) >> K_SHIFT;
            *slot = M::saturate(slot.widen() as i64 + delta);
        }
    }
}

/// Transient dense bit-serial dot over ordinary slices.
///
/// Weaves each 64-element chunk of `x` on the stack (no allocation, no
/// encode-counter bump) and accumulates plane-serially against `w` —
/// the dispatch-layer entry point when the caller holds unweaved data
/// but asked for [`KernelFlavor::BitSerial`](crate::KernelFlavor).
///
/// # Panics
///
/// Panics if lengths differ or `x_spec.bits()` exceeds [`MAX_BITS`].
#[must_use]
pub fn dot_bitserial<D: FixedInt, M: FixedInt>(
    x: &[D],
    w: &[M],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
) -> f32 {
    assert_eq!(x.len(), w.len(), "length mismatch");
    let bits = x_spec.bits();
    assert!(
        (1..=MAX_BITS).contains(&bits),
        "bit-serial requires 1..=16 data bits, got {bits}"
    );
    let mut planes = [0u64; MAX_BITS as usize];
    let mut total = 0i64;
    for (block, chunk) in x.chunks(BLOCK).enumerate() {
        weave_block(&mut planes, chunk, bits);
        let base = block * BLOCK;
        for (p, &word) in planes.iter().enumerate().take(bits as usize) {
            if word == 0 {
                continue;
            }
            let mut plane_sum = 0i64;
            let mut wrd = word;
            while wrd != 0 {
                let j = wrd.trailing_zeros() as usize;
                plane_sum += w[base + j].widen() as i64;
                wrd &= wrd - 1;
            }
            total += plane_coeff(bits, p as u32) * plane_sum;
        }
    }
    total as f32 * x_spec.quantum() * w_spec.quantum()
}

/// Transient sparse bit-serial dot: plane-serial gather over CSR values.
///
/// The nonzero values are weaved on the stack per 64-nonzero chunk; each
/// plane then gathers the model words at its set positions via the index
/// slice. Index traffic is identical to the other sparse flavours — only
/// the value stream narrows to `bits/8` bytes per nonzero.
///
/// # Panics
///
/// Panics if `values.len() != indices.len()`, any index is out of range,
/// or `x_spec.bits()` exceeds [`MAX_BITS`].
#[must_use]
pub fn dot_sparse_fixed<D: FixedInt, I: IndexElement, M: FixedInt>(
    values: &[D],
    indices: &[I],
    w: &[M],
    x_spec: &FixedSpec,
    w_spec: &FixedSpec,
) -> f32 {
    assert_eq!(values.len(), indices.len(), "values/indices mismatch");
    let bits = x_spec.bits();
    assert!(
        (1..=MAX_BITS).contains(&bits),
        "bit-serial requires 1..=16 data bits, got {bits}"
    );
    SPARSE_GATHER.with(|scratch| {
        let mut buf = scratch.borrow_mut();
        buf.resize(BLOCK, 0);
        let mut planes = [0u64; MAX_BITS as usize];
        let mut total = 0i64;
        for (block, chunk) in values.chunks(BLOCK).enumerate() {
            weave_block(&mut planes, chunk, bits);
            let base = block * BLOCK;
            // Gather each model word once per chunk; every plane pass then
            // reads the contiguous scratch instead of re-chasing the index
            // slice up to `bits` times per nonzero (the 37.6 ns/number
            // hotspot in `table2`'s sparse row). Integer adds commute, so the
            // total is unchanged bit for bit.
            for (j, slot) in buf.iter_mut().enumerate().take(chunk.len()) {
                *slot = w[indices[base + j].to_usize()].widen() as i64;
            }
            for (p, &word) in planes.iter().enumerate().take(bits as usize) {
                if word == 0 {
                    continue;
                }
                let mut plane_sum = 0i64;
                let mut wrd = word;
                while wrd != 0 {
                    let j = wrd.trailing_zeros() as usize;
                    plane_sum += buf[j];
                    wrd &= wrd - 1;
                }
                total += plane_coeff(bits, p as u32) * plane_sum;
            }
        }
        total as f32 * x_spec.quantum() * w_spec.quantum()
    })
}

thread_local! {
    /// Reusable gather scratch for [`dot_sparse_fixed`]: the widened model
    /// words of the current 64-nonzero chunk. Thread-local so the sparse
    /// serving/training paths pay zero allocation per call.
    static SPARSE_GATHER: std::cell::RefCell<Vec<i64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Weaved × weaved sparse-style dot where `w` is served truncated: the
/// "serve many precisions from one encoding" read path used by the
/// truncated-serving benchmarks.
///
/// Equivalent to [`dot`] with `x` at full precision and `w` truncated.
#[must_use]
pub fn dot_truncated(x: WeavedSlice<'_>, w: WeavedSlice<'_>, served_bits: u32) -> f32 {
    dot(x, w, x.spec.bits(), served_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generic, optimized, sparse};
    use buckwild_dataset::Element;
    use buckwild_prng::{Prng, Xorshift32};

    fn seeded_reprs_i8(n: usize, seed: u64) -> Vec<i8> {
        let mut rng = Xorshift32::seed_from(seed);
        (0..n)
            .map(|_| (rng.next_u32() & 0xff) as u8 as i8)
            .collect()
    }

    fn seeded_reprs_i16(n: usize, seed: u64) -> Vec<i16> {
        let mut rng = Xorshift32::seed_from(seed);
        (0..n)
            .map(|_| (rng.next_u32() & 0xffff) as u16 as i16)
            .collect()
    }

    /// Arithmetic truncation to the top `bits` of a `stored`-bit repr.
    fn truncate(v: i32, stored: u32, bits: u32) -> i32 {
        let drop = stored - bits;
        (v >> drop) << drop
    }

    #[test]
    fn plane_coeffs_reconstruct_every_8_bit_value() {
        for repr in i8::MIN..=i8::MAX {
            let mut v = 0i64;
            for p in 0..8 {
                if ((repr as u32) >> (7 - p)) & 1 == 1 {
                    v += plane_coeff(8, p);
                }
            }
            assert_eq!(v, repr as i64, "repr {repr}");
        }
    }

    #[test]
    fn decode_round_trips_every_precision() {
        for bits in 1..=MAX_BITS {
            let spec = FixedSpec::unit_range(bits);
            let max = (1i32 << (bits - 1)) - 1;
            let reprs: Vec<i16> = (-(max + 1)..=max).map(|v| v as i16).collect();
            let weaved = WeavedVec::encode(&reprs, &spec);
            let view = weaved.view();
            let mut out = [0i32; BLOCK];
            for block in 0..view.blocks() {
                let valid = view.decode_block(block, bits, &mut out);
                for j in 0..valid {
                    assert_eq!(out[j], reprs[block * BLOCK + j] as i32, "bits {bits}");
                }
            }
        }
    }

    #[test]
    fn truncated_decode_is_arithmetic_shift() {
        let spec = FixedSpec::unit_range(16);
        let reprs = seeded_reprs_i16(200, 42);
        let weaved = WeavedVec::encode(&reprs, &spec);
        let view = weaved.view();
        let mut out = [0i32; BLOCK];
        for bits in 1..=16 {
            for block in 0..view.blocks() {
                let valid = view.decode_block(block, bits, &mut out);
                for j in 0..valid {
                    let full = reprs[block * BLOCK + j] as i32;
                    assert_eq!(out[j], truncate(full, 16, bits), "bits {bits} idx {j}");
                }
            }
        }
    }

    #[test]
    fn dense_dot_matches_generic_for_every_precision() {
        // The satellite property test: bit-serial dot == generic dot over
        // the truncated reprs, within f32 accumulation tolerance, for
        // every served precision D1..D16.
        let master = FixedSpec::unit_range(16);
        let w_spec = FixedSpec::unit_range(8);
        let x = seeded_reprs_i16(300, 7);
        let w = seeded_reprs_i8(300, 8);
        let weaved = WeavedVec::encode(&x, &master);
        for bits in 1..=16u32 {
            let got = dot_fixed(weaved.view(), &w, bits, &w_spec);
            let truncated: Vec<i16> = x
                .iter()
                .map(|&v| truncate(v as i32, 16, bits) as i16)
                .collect();
            let want = generic::dot(&truncated, &w, &master, &w_spec);
            let tol = want.abs().max(1.0) * 1e-4;
            assert!(
                (got - want).abs() <= tol,
                "bits {bits}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn weaved_weaved_dot_matches_generic_for_every_precision() {
        let master = FixedSpec::unit_range(16);
        let x = seeded_reprs_i16(200, 11);
        let w = seeded_reprs_i16(200, 12);
        let wx = WeavedVec::encode(&x, &master);
        let ww = WeavedVec::encode(&w, &master);
        for bits in 1..=16u32 {
            let got = dot(wx.view(), ww.view(), bits, bits);
            let tx: Vec<i16> = x
                .iter()
                .map(|&v| truncate(v as i32, 16, bits) as i16)
                .collect();
            let tw: Vec<i16> = w
                .iter()
                .map(|&v| truncate(v as i32, 16, bits) as i16)
                .collect();
            let want = generic::dot(&tx, &tw, &master, &master);
            let tol = want.abs().max(1.0) * 1e-4;
            assert!(
                (got - want).abs() <= tol,
                "bits {bits}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn sparse_dot_matches_generic_for_every_precision() {
        let w_spec = FixedSpec::unit_range(8);
        let w = seeded_reprs_i8(512, 21);
        let mut rng = Xorshift32::seed_from(33);
        let indices: Vec<u16> = (0..140).map(|_| (rng.next_u32() % 512) as u16).collect();
        for bits in 1..=16u32 {
            let x_spec = FixedSpec::unit_range(bits);
            let max = (1i32 << (bits - 1)) - 1;
            let values: Vec<i16> = (0..140)
                .map(|_| {
                    ((rng.next_u32() as i32 % (2 * max + 2)) - (max + 1)).clamp(-(max + 1), max)
                        as i16
                })
                .collect();
            let got = dot_sparse_fixed(&values, &indices, &w, &x_spec, &w_spec);
            let want = sparse::dot_generic(&values, &indices, &w, &x_spec, &w_spec);
            let tol = want.abs().max(1.0) * 1e-4;
            assert!(
                (got - want).abs() <= tol,
                "bits {bits}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn dot_bitserial_matches_optimized() {
        let x_spec = FixedSpec::unit_range(8);
        let w_spec = FixedSpec::unit_range(8);
        let x = seeded_reprs_i8(333, 5);
        let w = seeded_reprs_i8(333, 6);
        let got = dot_bitserial(&x, &w, &x_spec, &w_spec);
        let want = optimized::dot_fixed_fixed(&x, &w, &x_spec, &w_spec);
        let tol = want.abs().max(1.0) * 1e-5;
        assert!((got - want).abs() <= tol, "got {got}, want {want}");
    }

    #[test]
    fn axpy_matches_optimized_bit_for_bit() {
        let x_spec = FixedSpec::unit_range(8);
        let w_spec = FixedSpec::unit_range(8);
        let x = seeded_reprs_i8(130, 91);
        let weaved = WeavedVec::encode(&x, &x_spec);
        let mut w_weaved = seeded_reprs_i8(130, 92);
        let mut w_plain = w_weaved.clone();
        axpy_fixed(
            &mut w_weaved,
            0.25,
            weaved.view(),
            8,
            &w_spec,
            AxpyRand::Biased,
        );
        optimized::axpy_fixed_fixed(&mut w_plain, 0.25, &x, &x_spec, &w_spec, AxpyRand::Biased);
        assert_eq!(w_weaved, w_plain);
    }

    #[test]
    fn one_encoding_serves_many_precisions_with_zero_reencode() {
        // The acceptance-criteria property: three distinct served
        // precisions from one encode, with the counter moving exactly once.
        let spec = FixedSpec::unit_range(16);
        let w_spec = FixedSpec::unit_range(8);
        let x = seeded_reprs_i16(256, 77);
        let w = seeded_reprs_i8(256, 78);
        let before = encodes();
        let weaved = WeavedVec::encode(&x, &spec);
        let mut results = Vec::new();
        for bits in [4u32, 8, 16] {
            results.push(dot_fixed(weaved.view(), &w, bits, &w_spec));
        }
        assert_eq!(encodes() - before, 1, "exactly one encode for 3 precisions");
        // Precisions genuinely differ (truncation changes the value).
        assert!(results.windows(2).any(|p| p[0] != p[1]));
    }

    #[test]
    fn matrix_rows_match_vector_encoding() {
        let spec = FixedSpec::unit_range(8);
        let rows = 5;
        let features = 70; // exercises a partial trailing block
        let data: Vec<Vec<i8>> = (0..rows)
            .map(|r| seeded_reprs_i8(features, 100 + r as u64))
            .collect();
        let before = encodes();
        let mut m = WeavedMatrix::new(rows, features, &spec);
        for (r, row) in data.iter().enumerate() {
            m.set_row(r, row);
        }
        assert_eq!(encodes() - before, 1, "matrix counts a single encode");
        let w_spec = FixedSpec::unit_range(8);
        let w = seeded_reprs_i8(features, 200);
        for (r, row) in data.iter().enumerate() {
            let via_matrix = dot_fixed(m.row(r), &w, 8, &w_spec);
            let via_vec = dot_fixed(WeavedVec::encode(row, &spec).view(), &w, 8, &w_spec);
            assert_eq!(via_matrix, via_vec, "row {r}");
        }
    }

    #[test]
    fn dot_f32_matches_decoded_reference() {
        let spec = FixedSpec::unit_range(8);
        let x = seeded_reprs_i8(150, 55);
        let w: Vec<f32> = seeded_reprs_i8(150, 56)
            .iter()
            .map(|&v| v as f32 / 128.0)
            .collect();
        let weaved = WeavedVec::encode(&x, &spec);
        let got = dot_f32(weaved.view(), &w, 8);
        let want: f64 = x
            .iter()
            .zip(&w)
            .map(|(&xi, &wi)| f64::from(xi.decode(&spec)) * f64::from(wi))
            .sum();
        assert!(
            (f64::from(got) - want).abs() <= want.abs().max(1.0) * 1e-5,
            "got {got}, want {want}"
        );
    }
}
