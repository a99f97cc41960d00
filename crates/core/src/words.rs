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
//!   implementations: relaxed atomic `load`/`store` pairs on the shared
//!   model's `&[Atomic]` (racy by design, never `fetch_add`), and plain
//!   reads and writes on a sharded worker's private `&mut [W]`.
//! * An [`Op`] is one dot or AXPY, written once over any `Word` and any
//!   `Words`. A model runs an op by matching on its storage precision
//!   once and handing the op its words.
//!
//! Both backends therefore run the same source line for every multiply,
//! shift, clamp and rounding-offset lookup: they agree bit for bit by
//! construction. The one specialisation is [`DotFixed`] on plain integer
//! words, which routes to the SIMD kernel [`dot_fixed_fixed`] (integer
//! addition commutes, so its blocked sum equals the left-to-right one).

use std::sync::atomic::{AtomicI16, AtomicI8, AtomicU32, Ordering};

use buckwild_fixed::FixedSpec;
use buckwild_kernels::optimized::{dot_fixed_fixed, FixedInt};

use crate::predict::FixedWords;

/// Fractional bits of the pre-scaled fixed-point AXPY multiplier.
const K_SHIFT: u32 = 15;

/// One model word: the storage type of a model parameter.
///
/// `Wide` is the type the word's fixed-point arithmetic runs in — exact
/// `i64` for the integer words, `f32` for the float word — and serves as
/// dot accumulator, AXPY multiplier and AXPY increment alike.
pub trait Word: Copy {
    /// The atomic cell a shared model keeps this word in (default: zero).
    type Atomic: Default;
    /// The arithmetic type of the fixed-point paths.
    type Wide: Copy + Default;

    /// Relaxed load.
    fn load(cell: &Self::Atomic) -> Self;
    /// Relaxed store.
    fn store(cell: &Self::Atomic, word: Self);

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

    /// The SIMD dot kernel for plain words of this type, if there is one.
    fn kernel_dot<D: FixedInt>(
        _x: &[D],
        _w: &[Self],
        _x_spec: &FixedSpec,
        _spec: &FixedSpec,
    ) -> Option<f32> {
        None
    }
}

macro_rules! int_word {
    ($ty:ty, $atomic:ty, $variant:ident) => {
        impl Word for $ty {
            type Atomic = $atomic;
            type Wide = i64;

            #[inline]
            fn load(cell: &$atomic) -> Self {
                cell.load(Ordering::Relaxed)
            }
            #[inline]
            fn store(cell: &$atomic, word: Self) {
                cell.store(word, Ordering::Relaxed);
            }
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
            #[inline]
            fn step_f32(self, x: f32, scale: f32, u: impl FnOnce() -> f32) -> Self {
                let target = self as f64 + (scale * x) as f64;
                (target + u() as f64)
                    .floor()
                    .clamp(<$ty>::MIN as f64, <$ty>::MAX as f64) as $ty
            }
            #[inline]
            fn kernel_dot<D: FixedInt>(
                x: &[D],
                w: &[Self],
                x_spec: &FixedSpec,
                spec: &FixedSpec,
            ) -> Option<f32> {
                Some(dot_fixed_fixed(x, w, x_spec, spec))
            }
        }
    };
}

int_word!(i8, AtomicI8, I8);
int_word!(i16, AtomicI16, I16);

impl Word for f32 {
    type Atomic = AtomicU32;
    type Wide = f32;

    #[inline]
    fn load(cell: &AtomicU32) -> Self {
        f32::from_bits(cell.load(Ordering::Relaxed))
    }
    #[inline]
    fn store(cell: &AtomicU32, word: Self) {
        cell.store(word.to_bits(), Ordering::Relaxed);
    }
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

/// How a model's words are reached: indexed loads and stores.
///
/// Every update an [`Op`] makes is a separate [`Words::get`] and
/// [`Words::set`], so on the shared model a concurrent writer can land
/// between the two and be overwritten — the Hogwild! lost update.
/// Dense ops draw their index from `0..len()` zipped with the example, the
/// shape that lets the compiler drop the bounds check on both.
pub trait Words<W: Word> {
    fn len(&self) -> usize;
    fn get(&self, i: usize) -> W;
    fn set(&mut self, i: usize, word: W);
    /// The words as a plain slice, where no other thread can write them.
    fn plain(&self) -> Option<&[W]> {
        None
    }
}

/// The shared model's words: relaxed atomics behind a shared reference.
impl<W: Word> Words<W> for &[W::Atomic] {
    fn len(&self) -> usize {
        <[W::Atomic]>::len(self)
    }
    fn get(&self, i: usize) -> W {
        W::load(&self[i])
    }
    fn set(&mut self, i: usize, word: W) {
        W::store(&self[i], word);
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
    fn plain(&self) -> Option<&[W]> {
        Some(self)
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
    fn run<W: Word, A: Words<W>>(self, w: A, spec: &FixedSpec) -> f32 {
        let DotFixed(x, x_spec) = self;
        assert_eq!(x.len(), w.len(), "length mismatch");
        if let Some(dot) = w.plain().and_then(|w| W::kernel_dot(x, w, x_spec, spec)) {
            return dot;
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

/// `AxpyFixed(a, x, x_spec, offsets)`: dense quantized AXPY
/// `w[i] ← sat(w[i] + round(a·x[i]))`; `offsets(i)` is element `i`'s
/// pre-shift rounding offset (a closure, or `|i| block[i & 7]` for the
/// fixed 8-entry block of biased and shared-randomness rounding).
pub struct AxpyFixed<'x, D, F>(pub f32, pub &'x [D], pub &'x FixedSpec, pub F);

impl<D: FixedInt, F: FnMut(usize) -> i64> Op for AxpyFixed<'_, D, F> {
    type Out = ();
    fn run<W: Word, A: Words<W>>(self, mut w: A, spec: &FixedSpec) {
        let AxpyFixed(a, x, x_spec, mut offsets) = self;
        assert_eq!(x.len(), w.len(), "length mismatch");
        let gain = W::gain(a, x_spec, spec);
        for (i, xi) in (0..w.len()).zip(x) {
            let delta = W::delta(xi.widen(), gain, || offsets(i));
            w.set(i, w.get(i).add(delta));
        }
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
            w.set(i, w.get(i).step_f32(xi.into(), scale, || uniforms(i)));
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
            w.set(i as usize, w.get(i as usize).add(delta));
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
            let next = w.get(i as usize).step_f32(v, scale, || uniforms(j));
            w.set(i as usize, next);
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
    fn run<W: Word, A: Words<W>>(self, w: A, _spec: &FixedSpec) -> FixedWords {
        W::fixed_words((0..w.len()).map(|i| w.get(i)).collect())
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
