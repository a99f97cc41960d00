//! The model arithmetic, written once.
//!
//! Buckwild! is one update rule — load a low-precision word,
//! multiply-accumulate, round, saturate, store — and the only thing the
//! two training backends disagree on is how the word is reached. This
//! module separates the two:
//!
//! * [`Word`] is what a model word *is*: `i8`, `i16` or `f32`, with its
//!   per-element dot and AXPY steps, saturation bounds and dequantize.
//!   The two integer widths share one body; the float word has its own.
//! * [`Words`] is how a model's words are *reached*, and has exactly two
//!   implementations: the shared model's [`Cells`], 8 D8, 4 D16 or 2 f32
//!   words packed into each relaxed `AtomicU64` (racy by design, never
//!   `fetch_add`; the lane layout is [`buckwild_kernels::cells`]), and
//!   plain reads and writes on a sharded worker's private `&mut [W]`.
//!   Both hand a dense op their storage as it is ([`Dense`]): a replica
//!   its slice, the shared model its cells, which no op copies.
//! * An [`Op`] is one dot or AXPY, written once over any `Word` and any
//!   `Words`. A model runs an op by matching on its storage precision
//!   once and handing the op its words.
//!
//! Both backends therefore run the same source line for every multiply,
//! shift, clamp and rounding-offset lookup: they agree bit for bit by
//! construction. On integer words, two dense ops run a SIMD kernel that
//! equals the per-element loop, one kernel call per op:
//!
//! * [`DotFixed`] takes the exact integer sum of [`dot_fixed_sum`] on a
//!   slice or [`dot_cells_sum`] on the cells (integer addition commutes,
//!   so a vector kernel's sum equals the left-to-right one) and scales
//!   once. On the cells the kernel loads each cell straight into a vector
//!   lane: one kernel call per dot, nothing copied to the stack.
//! * [`AxpyFixed`] with [`Offsets::Block`] runs [`axpy_block_offsets`] on
//!   a slice or [`axpy_cells_block_offsets`] on the whole cells:
//!   [`Word::gain`] is the kernel's multiplier and the offsets and
//!   saturation are the same, so every element gets the same integer
//!   arithmetic. The kernel makes one relaxed load and one relaxed store
//!   per cell, so a racing writer loses at most one cell of updates (8 D8
//!   or 4 D16 words) — the vector-granularity race of the paper's AVX2
//!   stores. A last cell that is partly padding takes the per-element
//!   loop, which leaves its pad lanes zero.
//!
//! [`Snapshot`] unpacks the cells into a vector. The sparse ops, the `f32`
//! ops, `Read` and `Write` reach one word at a time through [`Words::get`]
//! and [`Words::update`].

use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

use buckwild_fixed::FixedSpec;
use buckwild_kernels::cells::{axpy_cells_block_offsets, dot_cells_sum, load_cells, Lane};
use buckwild_kernels::optimized::{axpy_block_offsets, dot_fixed_sum, FixedInt};

use crate::predict::FixedWords;

/// Fractional bits of the pre-scaled fixed-point AXPY multiplier.
const K_SHIFT: u32 = 15;

/// One model word: the storage type of a model parameter, and a [`Lane`]
/// of the shared model's cells.
///
/// `Wide` is the type the word's fixed-point arithmetic runs in — exact
/// `i64` for the integer words, `f32` for the float word — and serves as
/// dot accumulator, AXPY multiplier and AXPY increment alike.
pub trait Word: Lane {
    /// The arithmetic type of the fixed-point paths.
    type Wide: Copy + Default;

    /// Rounds `value` onto the word's grid with the uniform sample `u`
    /// (`0.5` rounds to nearest); the float word stores `value` as is.
    fn quantize(value: f32, u: f32, spec: &FixedSpec) -> Self;
    /// The word in units of its own quantum.
    fn to_grid(self) -> f32;
    /// Scales a sum of [`Word::to_grid`] terms back to real values.
    fn grid_to_value(sum: f32, spec: &FixedSpec) -> f32;
    /// Scales a real multiplier into grid units per unit of `x`.
    fn value_to_grid(a: f32, spec: &FixedSpec) -> f32;
    /// The word as an `f32` parameter value.
    #[inline]
    fn dequantize(self, spec: &FixedSpec) -> f32 {
        Self::grid_to_value(self.to_grid(), spec)
    }
    /// Wraps a vector of words as a snapshot's [`FixedWords`].
    fn fixed_words(words: Vec<Self>) -> FixedWords;

    /// One term of a dot against the fixed-point value `x`.
    fn mac(sum: Self::Wide, x: i32, w: Self) -> Self::Wide;
    /// Scales a finished [`Word::mac`] sum to a real dot product.
    fn fixed_dot(sum: Self::Wide, x_quantum: f32, spec: &FixedSpec) -> f32;
    /// The per-call multiplier of a fixed-point AXPY with scale `a`: on
    /// integer words the `Q17.15` value `round(a · qx / qw · 2^15)` that
    /// turns a fixed-point example value into model-grid steps.
    fn gain(a: f32, x_spec: &FixedSpec, spec: &FixedSpec) -> Self::Wide;
    /// The rounded increment `round(gain · x)`; `offset` is the pre-shift
    /// rounding offset in `[0, 2^15)` and is drawn only by integer words.
    fn delta(x: i32, gain: Self::Wide, offset: impl FnOnce() -> i64) -> Self::Wide;
    /// `self + delta`, saturating at the word's bounds.
    fn add(self, delta: Self::Wide) -> Self;
    /// `self + scale · x` for a float `x`, rounded onto the grid with the
    /// uniform sample `u` (drawn only by integer words) and saturated.
    fn step_f32(self, x: f32, scale: f32, u: impl FnOnce() -> f32) -> Self;

    /// The [`Word::mac`] sum of a dense dot through the SIMD kernel, if
    /// this word type has one.
    fn kernel_dot<D: FixedInt, A: Words<Self>>(_x: &[D], _w: &mut A) -> Option<Self::Wide> {
        None
    }
    /// Runs the head of a dense AXPY with one offset block through the
    /// SIMD kernel and returns how many words it updated; the caller runs
    /// the per-element loop on the rest.
    fn kernel_axpy<D: FixedInt, A: Words<Self>>(
        _x: &[D],
        _w: &mut A,
        _gain: Self::Wide,
        _offsets: &[i64; 8],
    ) -> usize {
        0
    }
}

macro_rules! int_word {
    ($ty:ty, $variant:ident) => {
        impl Word for $ty {
            type Wide = i64;

            #[inline]
            fn quantize(value: f32, u: f32, spec: &FixedSpec) -> Self {
                spec.quantize_unbiased(value, u) as $ty
            }
            #[inline]
            fn to_grid(self) -> f32 {
                self as f32
            }
            #[inline]
            fn grid_to_value(sum: f32, spec: &FixedSpec) -> f32 {
                sum * spec.quantum()
            }
            #[inline]
            fn value_to_grid(a: f32, spec: &FixedSpec) -> f32 {
                a / spec.quantum()
            }
            fn fixed_words(words: Vec<Self>) -> FixedWords {
                FixedWords::$variant(words)
            }
            #[inline]
            fn mac(sum: i64, x: i32, w: Self) -> i64 {
                sum + (x * w as i32) as i64
            }
            #[inline]
            fn fixed_dot(sum: i64, x_quantum: f32, spec: &FixedSpec) -> f32 {
                sum as f32 * x_quantum * spec.quantum()
            }
            #[inline]
            fn gain(a: f32, x_spec: &FixedSpec, spec: &FixedSpec) -> i64 {
                let k_real = a as f64 * x_spec.quantum() as f64 / spec.quantum() as f64;
                (k_real * (1i64 << K_SHIFT) as f64)
                    .round()
                    .clamp(i32::MIN as f64, i32::MAX as f64) as i64
            }
            #[inline]
            fn delta(x: i32, k: i64, offset: impl FnOnce() -> i64) -> i64 {
                (x as i64 * k + offset()) >> K_SHIFT
            }
            #[inline]
            fn add(self, delta: i64) -> Self {
                <$ty as FixedInt>::saturate(self as i64 + delta)
            }
            /// `floor(target + u)` saturated to the word, without a libm
            /// `floor`: clamping first (the bounds are integers, so it
            /// commutes with `floor`) keeps the value in `i32` range,
            /// truncation rounds toward zero, and a negative fraction
            /// steps down by one. NaN clamps to NaN and truncates to 0.
            #[inline]
            fn step_f32(self, x: f32, scale: f32, u: impl FnOnce() -> f32) -> Self {
                let target = self as f64 + (scale * x) as f64;
                let clamped = (target + u() as f64).clamp(<$ty>::MIN as f64, <$ty>::MAX as f64);
                let trunc = clamped as i32;
                (trunc - i32::from(clamped < trunc as f64)) as $ty
            }
            #[inline]
            fn kernel_dot<D: FixedInt, A: Words<Self>>(x: &[D], w: &mut A) -> Option<i64> {
                Some(match w.dense() {
                    Dense::Plain(words) => dot_fixed_sum(x, words),
                    Dense::Cells(cells) => dot_cells_sum::<D, Self>(x, cells),
                })
            }
            #[inline]
            fn kernel_axpy<D: FixedInt, A: Words<Self>>(
                x: &[D],
                w: &mut A,
                gain: i64,
                offsets: &[i64; 8],
            ) -> usize {
                match w.dense() {
                    Dense::Plain(words) => {
                        axpy_block_offsets(words, x, gain, offsets);
                        x.len()
                    }
                    Dense::Cells(cells) => {
                        let whole = x.len() / Self::LANES;
                        let x = &x[..whole * Self::LANES];
                        axpy_cells_block_offsets::<D, Self>(&cells[..whole], x, gain, offsets);
                        x.len()
                    }
                }
            }
        }
    };
}

int_word!(i8, I8);
int_word!(i16, I16);

impl Word for f32 {
    type Wide = f32;

    #[inline]
    fn quantize(value: f32, _u: f32, _spec: &FixedSpec) -> Self {
        value
    }
    #[inline]
    fn to_grid(self) -> f32 {
        self
    }
    #[inline]
    fn grid_to_value(sum: f32, _spec: &FixedSpec) -> f32 {
        sum
    }
    #[inline]
    fn value_to_grid(a: f32, _spec: &FixedSpec) -> f32 {
        a
    }
    fn fixed_words(words: Vec<Self>) -> FixedWords {
        FixedWords::F32(words)
    }
    #[inline]
    fn mac(sum: f32, x: i32, w: Self) -> f32 {
        sum + x as f32 * w
    }
    #[inline]
    fn fixed_dot(sum: f32, x_quantum: f32, _spec: &FixedSpec) -> f32 {
        sum * x_quantum
    }
    #[inline]
    fn gain(a: f32, x_spec: &FixedSpec, _spec: &FixedSpec) -> f32 {
        a * x_spec.quantum()
    }
    #[inline]
    fn delta(x: i32, scale: f32, _offset: impl FnOnce() -> i64) -> f32 {
        scale * x as f32
    }
    #[inline]
    fn add(self, delta: f32) -> Self {
        self + delta
    }
    #[inline]
    fn step_f32(self, x: f32, scale: f32, _u: impl FnOnce() -> f32) -> Self {
        self + scale * x
    }
}

/// How a model's words are reached: indexed loads and stores, and the
/// storage itself for the dense kernels.
///
/// Every per-element update an [`Op`] makes is one [`Words::update`] (or
/// a [`Words::get`] and a [`Words::set`]), and every kernel update of a
/// cell is one relaxed load and one relaxed store, so on the shared model
/// a concurrent writer can land between the load and the store and be
/// overwritten — the Hogwild! lost update. Dense ops draw their index
/// from `0..len()` zipped with the example, the shape that lets the
/// compiler drop the bounds check on both.
pub trait Words<W: Word> {
    fn len(&self) -> usize;
    fn get(&self, i: usize) -> W;
    fn set(&mut self, i: usize, word: W);
    /// `set(i, f(get(i)))`.
    #[inline]
    fn update(&mut self, i: usize, f: impl FnOnce(W) -> W) {
        let word = f(self.get(i));
        self.set(i, word);
    }
    /// The storage, for the kernels that take it whole.
    fn dense(&mut self) -> Dense<'_, W>;
}

/// A model's storage as the dense kernels take it.
pub enum Dense<'a, W> {
    /// A replica's plain words.
    Plain(&'a mut [W]),
    /// The shared model's cells: `len.div_ceil(W::LANES)` of them, for
    /// `len` words.
    Cells(&'a [AtomicU64]),
}

/// The shared model's words: [`Lane::LANES`] words per relaxed
/// `AtomicU64` cell, in little-endian lanes. Lanes past `len` are zero
/// and never exposed.
#[derive(Clone, Copy)]
pub struct Cells<'a> {
    cells: &'a [AtomicU64],
    len: usize,
}

impl<'a> Cells<'a> {
    /// `len` words packed into `cells` (`len.div_ceil(W::LANES)` of them).
    pub fn new(cells: &'a [AtomicU64], len: usize) -> Self {
        Cells { cells, len }
    }

    /// Word `i`'s cell and the word's byte offset in it.
    #[inline]
    fn locate<W: Word>(&self, i: usize) -> (&'a AtomicU64, usize) {
        assert!(
            i < self.len,
            "index {i} out of range for {} words",
            self.len
        );
        (&self.cells[i / W::LANES], i % W::LANES * size_of::<W>())
    }
}

/// `1 << 8b`: multiplying by entry `b` moves a value to byte `b` of a
/// cell. Cheaper than a shift by a variable count on x86, which is on the
/// per-element scatter's critical path.
const BYTE_WEIGHT: [u64; 8] = [
    1,
    1 << 8,
    1 << 16,
    1 << 24,
    1 << 32,
    1 << 40,
    1 << 48,
    1 << 56,
];

impl<W: Word> Words<W> for Cells<'_> {
    fn len(&self) -> usize {
        self.len
    }
    #[inline]
    fn get(&self, i: usize) -> W {
        let (cell, at) = self.locate::<W>(i);
        W::from_le(cell.load(Ordering::Relaxed).to_le_bytes(), at)
    }
    #[inline]
    fn set(&mut self, i: usize, word: W) {
        self.update(i, |_| word);
    }
    /// One relaxed load and one relaxed store of word `i`'s cell.
    #[inline]
    fn update(&mut self, i: usize, f: impl FnOnce(W) -> W) {
        let (cell, at) = self.locate::<W>(i);
        let bits = cell.load(Ordering::Relaxed);
        // `get` reads the lane through a stack copy of the bytes; here a
        // shift keeps that copy's store from queueing beside the cell's.
        let old = W::from_le((bits >> (8 * at)).to_le_bytes(), 0);
        // XOR swaps the old lane for the new one and leaves the others.
        let flip = old.to_lane() ^ f(old).to_lane();
        cell.store(bits ^ (flip * BYTE_WEIGHT[at]), Ordering::Relaxed);
    }
    fn dense(&mut self) -> Dense<'_, W> {
        Dense::Cells(self.cells)
    }
}

/// A worker-private replica's words: plain memory, one owner.
impl<W: Word> Words<W> for &mut [W] {
    fn len(&self) -> usize {
        <[W]>::len(self)
    }
    fn get(&self, i: usize) -> W {
        self[i]
    }
    fn set(&mut self, i: usize, word: W) {
        self[i] = word;
    }
    fn dense(&mut self) -> Dense<'_, W> {
        Dense::Plain(self)
    }
}

/// One operation on a model, written once for every word type and both
/// ways of reaching the words. An op is a reified call: its fields are
/// the arguments, in the order of the [`SharedModel`](crate::SharedModel)
/// method of the same name, whose docs state the contract and panics.
pub trait Op {
    type Out;
    /// Runs on the model's words `w`, interpreted by `spec`.
    fn run<W: Word, A: Words<W>>(self, w: A, spec: &FixedSpec) -> Self::Out;
}

/// `DotFixed(x, x_spec)`: dense dot against a fixed-point example.
pub struct DotFixed<'x, D>(pub &'x [D], pub &'x FixedSpec);

impl<D: FixedInt> Op for DotFixed<'_, D> {
    type Out = f32;
    fn run<W: Word, A: Words<W>>(self, mut w: A, spec: &FixedSpec) -> f32 {
        let DotFixed(x, x_spec) = self;
        assert_eq!(x.len(), w.len(), "length mismatch");
        if let Some(sum) = W::kernel_dot(x, &mut w) {
            return W::fixed_dot(sum, x_spec.quantum(), spec);
        }
        let mut sum = W::Wide::default();
        for (i, xi) in (0..w.len()).zip(x) {
            sum = W::mac(sum, xi.widen(), w.get(i));
        }
        W::fixed_dot(sum, x_spec.quantum(), spec)
    }
}

/// `DotF32(x)`: dense dot against a float example.
pub struct DotF32<'x>(pub &'x [f32]);

impl Op for DotF32<'_> {
    type Out = f32;
    fn run<W: Word, A: Words<W>>(self, w: A, spec: &FixedSpec) -> f32 {
        assert_eq!(self.0.len(), w.len(), "length mismatch");
        let mut acc = 0f32;
        for (i, xi) in (0..w.len()).zip(self.0) {
            acc += xi * w.get(i).to_grid();
        }
        W::grid_to_value(acc, spec)
    }
}

/// `DotSparseFixed(values, indices, x_spec)`: sparse dot with fixed-point
/// values.
pub struct DotSparseFixed<'x, D>(pub &'x [D], pub &'x [u32], pub &'x FixedSpec);

impl<D: FixedInt> Op for DotSparseFixed<'_, D> {
    type Out = f32;
    fn run<W: Word, A: Words<W>>(self, w: A, spec: &FixedSpec) -> f32 {
        let DotSparseFixed(values, indices, x_spec) = self;
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        let mut sum = W::Wide::default();
        for (v, &i) in values.iter().zip(indices) {
            sum = W::mac(sum, v.widen(), w.get(i as usize));
        }
        W::fixed_dot(sum, x_spec.quantum(), spec)
    }
}

/// `DotSparseF32(values, indices)`: sparse dot with float values.
pub struct DotSparseF32<'x>(pub &'x [f32], pub &'x [u32]);

impl Op for DotSparseF32<'_> {
    type Out = f32;
    fn run<W: Word, A: Words<W>>(self, w: A, spec: &FixedSpec) -> f32 {
        let DotSparseF32(values, indices) = self;
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        let mut acc = 0f32;
        for (v, &i) in values.iter().zip(indices) {
            acc += v * w.get(i as usize).to_grid();
        }
        W::grid_to_value(acc, spec)
    }
}

/// Where an [`AxpyFixed`] takes element `i`'s pre-shift rounding offset
/// (a value in `[0, 2^15)`).
pub enum Offsets<F> {
    /// `block[i & 7]`: one 8-entry block for the whole call, as biased
    /// and per-iteration shared-randomness rounding draw. Integer words
    /// run this through the SIMD kernel.
    Block([i64; 8]),
    /// `offsets(i)`, drawn per element.
    Each(F),
}

/// `AxpyFixed(a, x, x_spec, offsets)`: dense quantized AXPY
/// `w[i] ← sat(w[i] + round(a·x[i]))`, rounded with [`Offsets`].
pub struct AxpyFixed<'x, D, F>(pub f32, pub &'x [D], pub &'x FixedSpec, pub Offsets<F>);

impl<D: FixedInt, F: FnMut(usize) -> i64> Op for AxpyFixed<'_, D, F> {
    type Out = ();
    fn run<W: Word, A: Words<W>>(self, mut w: A, spec: &FixedSpec) {
        let AxpyFixed(a, x, x_spec, offsets) = self;
        assert_eq!(x.len(), w.len(), "length mismatch");
        let gain = W::gain(a, x_spec, spec);
        match offsets {
            Offsets::Block(block) => {
                let done = W::kernel_axpy(x, &mut w, gain, &block);
                axpy_fixed(w, x, done, gain, |i| block[i & 7]);
            }
            Offsets::Each(offsets) => axpy_fixed(w, x, 0, gain, offsets),
        }
    }
}

/// [`AxpyFixed`]'s per-element loop, on the words from `start` on.
#[inline]
fn axpy_fixed<W: Word, A: Words<W>, D: FixedInt>(
    mut w: A,
    x: &[D],
    start: usize,
    gain: W::Wide,
    mut offsets: impl FnMut(usize) -> i64,
) {
    for (i, xi) in (start..w.len()).zip(&x[start..]) {
        let delta = W::delta(xi.widen(), gain, || offsets(i));
        w.update(i, |word| word.add(delta));
    }
}

/// `AxpyF32(a, x, uniforms)`: dense AXPY `w[i] ← w[i] + a·x[i]` from
/// float-valued data (`f32` examples, or the `i8` payload of a delta
/// packet); integer words round on their grid with `uniforms(i)`.
pub struct AxpyF32<'x, X, F>(pub f32, pub &'x [X], pub F);

impl<X: Copy + Into<f32>, F: FnMut(usize) -> f32> Op for AxpyF32<'_, X, F> {
    type Out = ();
    fn run<W: Word, A: Words<W>>(self, mut w: A, spec: &FixedSpec) {
        let AxpyF32(a, x, mut uniforms) = self;
        assert_eq!(x.len(), w.len(), "length mismatch");
        let scale = W::value_to_grid(a, spec);
        for (i, &xi) in (0..w.len()).zip(x) {
            w.update(i, |word| word.step_f32(xi.into(), scale, || uniforms(i)));
        }
    }
}

/// `AxpySparseFixed(a, values, indices, x_spec, offsets)`: [`AxpyFixed`]
/// over the indexed coordinates only; `offsets` takes the position in
/// `values`.
pub struct AxpySparseFixed<'x, D, F>(
    pub f32,
    pub &'x [D],
    pub &'x [u32],
    pub &'x FixedSpec,
    pub F,
);

impl<D: FixedInt, F: FnMut(usize) -> i64> Op for AxpySparseFixed<'_, D, F> {
    type Out = ();
    fn run<W: Word, A: Words<W>>(self, mut w: A, spec: &FixedSpec) {
        let AxpySparseFixed(a, values, indices, x_spec, mut offsets) = self;
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        let gain = W::gain(a, x_spec, spec);
        for (j, (v, &i)) in values.iter().zip(indices).enumerate() {
            let delta = W::delta(v.widen(), gain, || offsets(j));
            w.update(i as usize, |word| word.add(delta));
        }
    }
}

/// `AxpySparseF32(a, values, indices, uniforms)`: sparse [`AxpyF32`];
/// `uniforms` takes the position in `values`.
pub struct AxpySparseF32<'x, F>(pub f32, pub &'x [f32], pub &'x [u32], pub F);

impl<F: FnMut(usize) -> f32> Op for AxpySparseF32<'_, F> {
    type Out = ();
    fn run<W: Word, A: Words<W>>(self, mut w: A, spec: &FixedSpec) {
        let AxpySparseF32(a, values, indices, mut uniforms) = self;
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        let scale = W::value_to_grid(a, spec);
        for (j, (&v, &i)) in values.iter().zip(indices).enumerate() {
            w.update(i as usize, |word| word.step_f32(v, scale, || uniforms(j)));
        }
    }
}

/// `Read(i)`: word `i` as `f32`.
pub struct Read(pub usize);

impl Op for Read {
    type Out = f32;
    fn run<W: Word, A: Words<W>>(self, w: A, spec: &FixedSpec) -> f32 {
        w.get(self.0).dequantize(spec)
    }
}

/// `Write(start, values, u)`: overwrites words `start..` from `values`,
/// each rounded with the uniform sample `u`.
pub struct Write<'x>(pub usize, pub &'x [f32], pub f32);

impl Op for Write<'_> {
    type Out = ();
    fn run<W: Word, A: Words<W>>(self, mut w: A, spec: &FixedSpec) {
        let Write(start, values, u) = self;
        for (i, &v) in values.iter().enumerate() {
            w.set(start + i, W::quantize(v, u, spec));
        }
    }
}

/// Copies the words out in their storage representation.
pub struct Snapshot;

impl Op for Snapshot {
    type Out = FixedWords;
    fn run<W: Word, A: Words<W>>(self, mut w: A, _spec: &FixedSpec) -> FixedWords {
        let len = w.len();
        W::fixed_words(match w.dense() {
            Dense::Plain(words) => words.to_vec(),
            Dense::Cells(cells) => {
                let mut words = vec![W::default(); len];
                load_cells(cells, &mut words);
                words
            }
        })
    }
}

/// Writes plain `words`, dequantized, into `out`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dequantize_into<W: Word>(words: &[W], spec: &FixedSpec, out: &mut [f32]) {
    assert_eq!(out.len(), words.len(), "buffer length mismatch");
    for (o, w) in out.iter_mut().zip(words) {
        *o = w.dequantize(spec);
    }
}

#[cfg(test)]
mod tests {
    use buckwild_prng::{Prng, Xorshift128};

    use super::*;

    /// `v` moved `steps` ulps toward `+inf` (negative: toward `-inf`).
    fn ulps(v: f32, steps: i32) -> f32 {
        (0..steps.unsigned_abs()).fold(v, |v, _| {
            if steps > 0 {
                v.next_up()
            } else {
                v.next_down()
            }
        })
    }

    /// The integer words' `step_f32` as it was written with libm `floor`.
    fn reference_step<W: FixedInt>(w: W, x: f32, scale: f32, u: f32) -> i32 {
        let (min, max) = (W::saturate(i64::MIN).widen(), W::saturate(i64::MAX).widen());
        let target = w.widen() as f64 + (scale * x) as f64;
        (target + u as f64).floor().clamp(min as f64, max as f64) as i32
    }

    fn check_step<W: Word + FixedInt>() {
        let (min, max) = (W::saturate(i64::MIN).widen(), W::saturate(i64::MAX).widen());
        let words = [min, -1, 0, 1, max].map(|w| W::saturate(w.into()));
        let check = |w: W, x: f32, scale: f32, u: f32| {
            let got = w.step_f32(x, scale, || u).widen();
            let want = reference_step(w, x, scale, u);
            assert_eq!(got, want, "w={} x={x:e} scale={scale} u={u}", w.widen());
        };
        // ±4 ulps around every integer the sum can land on or just past.
        for k in min - 2..=max + 2 {
            for steps in -4..=4 {
                check(W::saturate(0), ulps(k as f32, steps), 1.0, 0.0);
                for w in words {
                    let x = ulps((k - w.widen()) as f32, steps);
                    for u in [0.0, 0.5, 0.999_999_94] {
                        check(w, x, 1.0, u);
                    }
                }
            }
        }
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e30] {
            for w in words {
                for (scale, u) in [(1.0, 0.0), (1.0, 0.5), (-3.0, 0.25)] {
                    check(w, x, scale, u);
                }
            }
        }
    }

    #[test]
    fn step_f32_matches_floor_then_clamp_i8() {
        check_step::<i8>();
    }

    #[test]
    fn step_f32_matches_floor_then_clamp_i16() {
        check_step::<i16>();
    }

    /// AXPY multipliers on both sides of the kernel's `i32` fast-path
    /// threshold for every (D, M) pair here, plus one that saturates `k`.
    const GAINS: [f32; 9] = [0.37, -0.21, 1.5, -1.9, 2.5, -300.0, 600.0, -5000.0, 1e12];

    /// `AxpyFixed` with an offset block on plain words (the SIMD kernel on
    /// the whole slice) and on packed cells (the kernel line by line) must
    /// write the words the per-element loop writes on plain words: every
    /// length in `0..=192` and 2048, biased and random blocks, every gain
    /// in [`GAINS`], from random models and from models sitting at the
    /// saturation bounds. The cells' pad lanes must stay zero.
    fn check_block_axpy<D: FixedInt, M: Word<Wide = i64> + FixedInt>() {
        let x_spec = FixedSpec::unit_range(D::BITS);
        let spec = FixedSpec::model_range(M::BITS);
        let fast = |a: f32| {
            let k = M::gain(a, &x_spec, &spec);
            k.abs().saturating_mul(1 << (D::BITS - 1)) < 1 << 30
        };
        assert!(GAINS.iter().any(|&a| fast(a)) && GAINS.iter().any(|&a| !fast(a)));

        let mut rng = Xorshift128::seed_from(u64::from(D::BITS * 100 + M::BITS));
        let random_block = [0; 8].map(|_: i64| i64::from(rng.next_u32() & 0x7fff));
        let (min, max) = (M::saturate(i64::MIN), M::saturate(i64::MAX));
        for n in (0..=192).chain([2048]) {
            let x: Vec<D> = (0..n)
                .map(|_| D::saturate(i64::from(rng.next_u32() as i32)))
                .collect();
            let random: Vec<M> = (0..n)
                .map(|_| M::saturate(i64::from(rng.next_u32() as i32)))
                .collect();
            let bounds: Vec<M> = (0..n).map(|i| [min, max][i % 2]).collect();
            for init in [&random, &bounds] {
                for block in [[1i64 << 14; 8], random_block] {
                    for a in GAINS {
                        let mut looped = init.clone();
                        let each = |i: usize| block[i & 7];
                        AxpyFixed(a, &x, &x_spec, Offsets::Each(each)).run(&mut looped[..], &spec);

                        let mut plain = init.clone();
                        let cells: Vec<AtomicU64> = (0..n.div_ceil(M::LANES))
                            .map(|_| AtomicU64::new(0))
                            .collect();
                        let mut packed = Cells::new(&cells, n);
                        for (i, &w) in init.iter().enumerate() {
                            packed.set(i, w);
                        }
                        let op =
                            || AxpyFixed(a, &x, &x_spec, Offsets::<fn(usize) -> i64>::Block(block));
                        op().run(&mut plain[..], &spec);
                        op().run::<M, _>(packed, &spec);
                        let unpacked: Vec<M> = (0..n).map(|i| packed.get(i)).collect();
                        let same = |words: &[M]| {
                            words
                                .iter()
                                .zip(&looped)
                                .all(|(w, l)| w.widen() == l.widen())
                        };
                        let tag = format!("D{} M{} n={n} a={a} block={block:?}", D::BITS, M::BITS);
                        assert!(same(&plain), "plain kernel: {tag}");
                        assert!(same(&unpacked), "packed cells: {tag}");
                        if n % M::LANES != 0 {
                            let last = cells[n / M::LANES].load(Ordering::Relaxed);
                            assert_eq!(
                                last >> (n % M::LANES * M::LANE_BITS),
                                0,
                                "pad lanes: {tag}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_axpy_kernel_matches_per_element_loop() {
        check_block_axpy::<i8, i8>();
        check_block_axpy::<i8, i16>();
        check_block_axpy::<i16, i8>();
        check_block_axpy::<i16, i16>();
    }

    /// `DotFixed` on packed cells and on plain words must return the bits
    /// of the per-element `mac` loop: every length in `0..=192` and 2048,
    /// from random models and examples and from both sitting at their
    /// saturation bounds (where an `i16 · i16` pair product is `2^30`).
    fn check_block_dot<D: FixedInt, M: Word<Wide = i64> + FixedInt>() {
        let x_spec = FixedSpec::unit_range(D::BITS);
        let spec = FixedSpec::model_range(M::BITS);
        let mut rng = Xorshift128::seed_from(u64::from(D::BITS * 1000 + M::BITS));
        let (x_min, x_max) = (D::saturate(i64::MIN), D::saturate(i64::MAX));
        let (min, max) = (M::saturate(i64::MIN), M::saturate(i64::MAX));
        for n in (0..=192).chain([2048]) {
            let random_x: Vec<D> = (0..n)
                .map(|_| D::saturate(i64::from(rng.next_u32() as i32)))
                .collect();
            let random_w: Vec<M> = (0..n)
                .map(|_| M::saturate(i64::from(rng.next_u32() as i32)))
                .collect();
            let bounds_x: Vec<D> = (0..n).map(|i| [x_min, x_max][i / 3 % 2]).collect();
            let bounds_w: Vec<M> = (0..n).map(|i| [min, max][i / 2 % 2]).collect();
            for (x, init) in [(&random_x, &random_w), (&bounds_x, &bounds_w)] {
                let mut sum = 0i64;
                for (xi, &w) in x.iter().zip(init.iter()) {
                    sum = M::mac(sum, xi.widen(), w);
                }
                let looped = M::fixed_dot(sum, x_spec.quantum(), &spec);

                let mut plain = init.clone();
                let cells: Vec<AtomicU64> = (0..n.div_ceil(M::LANES))
                    .map(|_| AtomicU64::new(0))
                    .collect();
                let mut packed = Cells::new(&cells, n);
                for (i, &w) in init.iter().enumerate() {
                    packed.set(i, w);
                }
                let on_plain = DotFixed(x, &x_spec).run(&mut plain[..], &spec);
                let on_cells = DotFixed(x, &x_spec).run::<M, _>(packed, &spec);
                let tag = format!("D{} M{} n={n}", D::BITS, M::BITS);
                assert_eq!(on_plain.to_bits(), looped.to_bits(), "plain kernel: {tag}");
                assert_eq!(on_cells.to_bits(), looped.to_bits(), "packed cells: {tag}");
            }
        }
    }

    #[test]
    fn block_dot_kernel_matches_per_element_loop() {
        check_block_dot::<i8, i8>();
        check_block_dot::<i8, i16>();
        check_block_dot::<i16, i8>();
        check_block_dot::<i16, i16>();
    }
}
