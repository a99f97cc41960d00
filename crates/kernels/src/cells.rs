//! Packed model cells and the dense integer kernels that run on them.
//!
//! A shared model is a slice of relaxed `AtomicU64` cells, each holding
//! [`Lane::LANES`] words in little-endian lanes: 8 `i8`, 4 `i16` or 2
//! `f32`. This module owns that layout ([`Lane`], [`load_cells`],
//! [`store_cells`]) and runs the dense integer dot and AXPY on the cells
//! themselves, with no copy in between:
//!
//! * [`dot_cells_sum`] reads each cell with one relaxed load, straight
//!   into a vector lane (`i8·i8`, `i16·i16`) or unpacked for the scalar
//!   loop, and returns the exact integer sum [`dot_fixed_sum`] returns
//!   on the same words;
//! * [`axpy_cells_block_offsets`] reads each cell with one relaxed load,
//!   runs [`axpy_block_offsets`]'s arithmetic on it and writes it back
//!   with one relaxed store.
//!
//! The loads and stores are separate, never `fetch_add`, so a writer on
//! another thread that stores a cell between an AXPY's load and store of
//! it is overwritten: a race loses at most one cell of updates (8 `i8` or
//! 4 `i16` words), the vector-granularity race of the paper's AVX2
//! loads and stores (§5.1).
//!
//! [`dot_fixed_sum`]: crate::optimized::dot_fixed_sum
//! [`axpy_block_offsets`]: crate::optimized::axpy_block_offsets

use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::optimized::{axpy_words_i32, axpy_words_i64, gain_i32, FixedInt};
use crate::simd;

/// A word a cell can hold: `i8`, `i16` or `f32`. Lane `l` of a cell is
/// the word at byte `l · size_of::<Self>()` of the cell's little-endian
/// bytes.
pub trait Lane: Copy + Default {
    /// Bits of one word's lane.
    const LANE_BITS: usize = 8 * size_of::<Self>();
    /// Words per cell.
    const LANES: usize = 64 / Self::LANE_BITS;

    /// The word stored at byte `at` of a cell's little-endian bytes.
    fn from_le(cell: [u8; 8], at: usize) -> Self;
    /// A cell holding the word in its low lane and zero elsewhere.
    fn to_lane(self) -> u64;
}

macro_rules! int_lane {
    ($ty:ty, $unsigned:ty) => {
        impl Lane for $ty {
            #[inline]
            fn from_le(cell: [u8; 8], at: usize) -> Self {
                let bytes = cell[at..at + size_of::<$ty>()].try_into();
                <$ty>::from_le_bytes(bytes.expect("a word's bytes"))
            }
            #[inline]
            fn to_lane(self) -> u64 {
                u64::from(self as $unsigned)
            }
        }
    };
}

int_lane!(i8, u8);
int_lane!(i16, u16);

impl Lane for f32 {
    #[inline]
    fn from_le(cell: [u8; 8], at: usize) -> Self {
        f32::from_le_bytes(cell[at..at + 4].try_into().expect("a word's bytes"))
    }
    #[inline]
    fn to_lane(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// Copies the low `words.len()` lanes of `cell` into `words`.
#[inline]
fn unpack<W: Lane>(cell: u64, words: &mut [W]) {
    let bytes = cell.to_le_bytes();
    for (l, w) in words.iter_mut().enumerate() {
        *w = W::from_le(bytes, l * size_of::<W>());
    }
}

/// A cell holding `words` (at most [`Lane::LANES`]) in its low lanes and
/// zero in the rest.
#[inline]
fn pack<W: Lane>(words: &[W]) -> u64 {
    (words.iter().enumerate()).fold(0, |cell, (l, w)| cell | w.to_lane() << (l * W::LANE_BITS))
}

/// Copies `cells` into `words`, one relaxed load per cell. Whole cells
/// and the partial last one take separate loops so that the whole-cell
/// copy has a constant trip count and compiles to one 8-byte move per
/// cell.
#[inline]
pub fn load_cells<W: Lane>(cells: &[AtomicU64], words: &mut [W]) {
    let mut lanes = words.chunks_exact_mut(W::LANES);
    let mut cells = cells.iter();
    for (lanes, cell) in (&mut lanes).zip(&mut cells) {
        unpack(cell.load(Ordering::Relaxed), lanes);
    }
    let tail = lanes.into_remainder();
    if let (Some(cell), false) = (cells.next(), tail.is_empty()) {
        unpack(cell.load(Ordering::Relaxed), tail);
    }
}

/// Copies `words` into `cells`, one relaxed store per cell; lanes past
/// the last word become zero.
#[inline]
pub fn store_cells<W: Lane>(cells: &[AtomicU64], words: &[W]) {
    let mut lanes = words.chunks_exact(W::LANES);
    let mut cells = cells.iter();
    for (lanes, cell) in (&mut lanes).zip(&mut cells) {
        cell.store(pack(lanes), Ordering::Relaxed);
    }
    let tail = lanes.remainder();
    if let (Some(cell), false) = (cells.next(), tail.is_empty()) {
        cell.store(pack(tail), Ordering::Relaxed);
    }
}

/// The exact integer sum `Σ x[i]·w[i]` of a dense dot against the words
/// packed in `cells`, in units of both quanta: the value
/// [`dot_fixed_sum`](crate::optimized::dot_fixed_sum) returns on the same
/// words unpacked. `i8·i8` and `i16·i16` run the SIMD kernel on the active
/// tier; the mixed pairs and the scalar tier unpack one cell at a time.
///
/// # Panics
///
/// Panics unless `cells` holds exactly `x.len()` words
/// (`x.len().div_ceil(M::LANES)` cells).
#[must_use]
pub fn dot_cells_sum<D: FixedInt, M: FixedInt + Lane>(x: &[D], cells: &[AtomicU64]) -> i64 {
    assert_eq!(cells.len(), x.len().div_ceil(M::LANES), "length mismatch");
    let kernel = match (D::as_i8s(x), D::as_i16s(x), M::BITS) {
        (Some(xs), _, 8) => simd::dot_cells_i8_i8(xs, cells),
        (_, Some(xs), 16) => simd::dot_cells_i16_i16(xs, cells),
        _ => None,
    };
    kernel.unwrap_or_else(|| dot_cells_scalar::<D, M>(x, cells))
}

/// [`dot_cells_sum`] one cell at a time: a relaxed load, an unpack, the
/// exact products. It is also the SIMD kernel's tail, so it takes the
/// partial last cell.
#[inline]
pub(crate) fn dot_cells_scalar<D: FixedInt, M: FixedInt + Lane>(
    x: &[D],
    cells: &[AtomicU64],
) -> i64 {
    let mut buf = [M::default(); 8];
    // One accumulator per lane, so the whole cells' loop unrolls and
    // vectorizes; an `i16 · i16` product needs the `i64` lane.
    let mut acc = [0i64; 8];
    let mut xc = x.chunks_exact(M::LANES);
    for (xb, cell) in (&mut xc).zip(cells) {
        let words = &mut buf[..M::LANES];
        unpack(cell.load(Ordering::Relaxed), words);
        for j in 0..M::LANES {
            acc[j] += i64::from(xb[j].widen() * words[j].widen());
        }
    }
    let tail = xc.remainder();
    if let (Some(cell), false) = (cells.get(x.len() / M::LANES), tail.is_empty()) {
        let words = &mut buf[..tail.len()];
        unpack(cell.load(Ordering::Relaxed), words);
        for (j, (xi, wi)) in tail.iter().zip(&*words).enumerate() {
            acc[j] += i64::from(xi.widen() * wi.widen());
        }
    }
    acc.iter().sum()
}

/// The integer AXPY `w[i] ← sat(w[i] + ((x[i]·k + offs[i & 7]) >> 15))`
/// of [`axpy_block_offsets`](crate::optimized::axpy_block_offsets) on the
/// words packed in whole `cells`: every cell is one relaxed load and one
/// relaxed store. The `i32` fast path runs the SIMD kernel on the active
/// tier, 8 words per step; larger multipliers, the scalar tier and an odd
/// last `i16` cell run the same arithmetic on one unpacked cell at a time.
/// A model whose last cell is partly padding updates that cell's words
/// itself, so its pad lanes stay zero.
///
/// # Panics
///
/// Panics if `x.len() != cells.len() * M::LANES`.
pub fn axpy_cells_block_offsets<D: FixedInt, M: FixedInt + Lane>(
    cells: &[AtomicU64],
    x: &[D],
    k: i64,
    offs: &[i64; 8],
) {
    assert_eq!(x.len(), cells.len() * M::LANES, "length mismatch");
    let Some(k32) = gain_i32::<D>(k) else {
        update_cells::<D, M, _>(cells, x, offs, |w, x, o| axpy_words_i64(w, x, k, o));
        return;
    };
    let offs32 = offs.map(|o| o as i32);
    // The kernel steps 8 words, one `i8` cell or two `i16` cells, and
    // leaves an odd last `i16` cell to the scalar loop. That cell's first
    // word sits at a multiple of 8, so it takes the same offsets either
    // way.
    let whole = cells.len() - cells.len() % (8 / M::LANES);
    let (head, x_head) = (&cells[..whole], &x[..whole * M::LANES]);
    let kernel = match (D::as_i8s(x_head), D::as_i16s(x_head), M::BITS) {
        (Some(xs), _, 8) => simd::axpy_cells_i8_i8(head, xs, k32, &offs32),
        (Some(xs), _, 16) => simd::axpy_cells_i8_i16(head, xs, k32, &offs32),
        (_, Some(xs), 8) => simd::axpy_cells_i16_i8(head, xs, k32, &offs32),
        (_, Some(xs), 16) => simd::axpy_cells_i16_i16(head, xs, k32, &offs32),
        _ => None,
    };
    let done = if kernel.is_some() { whole } else { 0 };
    let (rest, x_rest) = (&cells[done..], &x[done * M::LANES..]);
    update_cells::<D, M, _>(rest, x_rest, &offs32, |w, x, o| {
        axpy_words_i32(w, x, k32, o)
    });
}

/// Runs `step(words, x, offsets)` on each of the whole `cells` in turn:
/// one relaxed load, an unpack, the step on the cell's words with their
/// examples and their window of the 8-entry offset block, a pack and one
/// relaxed store. `cells` starts at a word index that is a multiple of 8.
#[inline]
fn update_cells<D: FixedInt, M: Lane, O>(
    cells: &[AtomicU64],
    x: &[D],
    offs: &[O; 8],
    step: impl Fn(&mut [M], &[D], &[O]),
) {
    let mut buf = [M::default(); 8];
    let words = &mut buf[..M::LANES];
    for (c, (cell, xc)) in cells.iter().zip(x.chunks_exact(M::LANES)).enumerate() {
        unpack(cell.load(Ordering::Relaxed), words);
        step(words, xc, &offs[c * M::LANES % 8..][..M::LANES]);
        cell.store(pack(words), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_little_endian() {
        let cells: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
        store_cells(&cells, &[1i16, -2, 3, 4, 5]);
        assert_eq!(cells[0].load(Ordering::Relaxed), 0x0004_0003_fffe_0001);
        assert_eq!(cells[1].load(Ordering::Relaxed), 5);
        let mut words = [0i16; 5];
        load_cells(&cells, &mut words);
        assert_eq!(words, [1, -2, 3, 4, 5]);
        assert_eq!((<i8 as Lane>::LANES, <f32 as Lane>::LANES), (8, 2));
    }
}
