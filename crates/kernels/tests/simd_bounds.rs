//! Memory bounds of every public entry that reaches a SIMD kernel,
//! checked without Miri.
//!
//! Each operand is copied into a 64-byte-aligned buffer at every byte
//! misalignment `0..64` its element type allows (every byte for `i8`,
//! every even byte for `i16`, every fourth for `f32`), with at least 64
//! canary elements on each side. The canaries are chosen so that misuse
//! shows:
//!
//! * **over-reads** pull a canary into the result — `MAX` before and
//!   `MIN` after an integer operand, a signalling NaN around an `f32`
//!   one — so the result differs from the scalar tier's, which is
//!   compared bit for bit;
//! * **over-writes** replace a canary: every write a kernel makes is
//!   arithmetic, which quiets a signalling NaN, and the integer AXPY
//!   runs with both signs of its multiplier so a saturating write lands
//!   away from an `i8`/`i16` `MIN` canary at least once.
//!
//! The kernels on the shared model's packed cells take their example
//! the same way and their cells fenced by canary cells: a read of one
//! moves the result, a write replaces it.
//!
//! Every case runs pinned to `scalar` and to the detected tier via
//! `isa::scoped`, serialized because the override is process-global.
//! Lengths cover the empty operand, every tail shape around the
//! 8/16/32-wide steps and one long run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use buckwild_fixed::FixedSpec;
use buckwild_kernels::optimized::{self, FixedInt};
use buckwild_kernels::{cells, delta, isa, KernelIsa};
use buckwild_prng::{Prng, Xorshift128};

/// Operand lengths swept by every test.
const LENS: [usize; 15] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 2048];

/// Canary elements on each side of an operand (at least one 64-byte
/// line for every element type).
const GUARD: usize = 64;

/// A signalling NaN: any arithmetic on it returns a quiet NaN, so a
/// write-back of a computed value never restores these bits.
const SNAN: f32 = f32::from_bits(0x7fa0_0001);

/// Serializes the `isa::scoped` sections: the override is process-global,
/// so concurrent tests must not interleave their pinned regions.
fn isa_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` twice — pinned to scalar, then to the detected tier — and
/// returns both results.
fn under_both<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _serial = isa_lock()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let scalar = {
        let _pin = isa::scoped(KernelIsa::Scalar);
        f()
    };
    let vector = {
        let _pin = isa::scoped(isa::detected());
        f()
    };
    (scalar, vector)
}

/// An element type the harness can fill, guard and compare bitwise.
trait Lane: Copy {
    /// Canary placed before the operand.
    const BEFORE: Self;
    /// Canary placed after the operand.
    const AFTER: Self;
    /// A random in-range value.
    fn random(rng: &mut Xorshift128) -> Self;
    /// The value's bit pattern, for exact comparison.
    fn bits(self) -> u32;
}

impl Lane for i8 {
    const BEFORE: i8 = i8::MAX;
    const AFTER: i8 = i8::MIN;
    fn random(rng: &mut Xorshift128) -> i8 {
        rng.next_u32() as i8
    }
    fn bits(self) -> u32 {
        u32::from(self as u8)
    }
}

impl Lane for i16 {
    const BEFORE: i16 = i16::MAX;
    const AFTER: i16 = i16::MIN;
    fn random(rng: &mut Xorshift128) -> i16 {
        rng.next_u32() as i16
    }
    fn bits(self) -> u32 {
        u32::from(self as u16)
    }
}

impl Lane for f32 {
    const BEFORE: f32 = SNAN;
    const AFTER: f32 = SNAN;
    fn random(rng: &mut Xorshift128) -> f32 {
        rng.range_f32(-1.0, 1.0)
    }
    fn bits(self) -> u32 {
        self.to_bits()
    }
}

/// `n` random values, the same for the same `(n, salt)`.
fn data<T: Lane>(n: usize, salt: u64) -> Vec<T> {
    let mut rng = Xorshift128::seed_from(0xB0_0D5 ^ ((n as u64) << 8) ^ salt);
    (0..n).map(|_| T::random(&mut rng)).collect()
}

/// One operand at byte offset `misalign` (rounded down to the element
/// size) past a 64-byte boundary, fenced by canaries.
struct Guarded<T> {
    buf: Vec<T>,
    start: usize,
    len: usize,
}

impl<T: Lane> Guarded<T> {
    fn new(values: &[T], misalign: usize) -> Self {
        let size = std::mem::size_of::<T>();
        let mut buf = vec![T::AFTER; 2 * GUARD + 128 / size + values.len()];
        let base = buf.as_ptr().align_offset(64);
        assert!(base < 64 / size, "no 64-byte boundary in the buffer");
        let start = base + GUARD + misalign % 64 / size;
        buf[..start].fill(T::BEFORE);
        buf[start..start + values.len()].copy_from_slice(values);
        Guarded {
            buf,
            start,
            len: values.len(),
        }
    }

    fn get(&self) -> &[T] {
        &self.buf[self.start..self.start + self.len]
    }

    fn get_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.start..self.start + self.len]
    }

    /// The operand's bits, after asserting every canary is untouched.
    fn into_bits(self, what: &str) -> Vec<u32> {
        let end = self.start + self.len;
        for (i, v) in self.buf.iter().enumerate() {
            let want = if i < self.start {
                T::BEFORE
            } else if i >= end {
                T::AFTER
            } else {
                continue;
            };
            assert_eq!(
                v.bits(),
                want.bits(),
                "{what}: canary at {} overwritten (operand {}..{end}) under {}",
                i as isize - self.start as isize,
                self.start,
                isa::active()
            );
        }
        self.get().iter().map(|v| v.bits()).collect()
    }
}

/// Runs `case(n, misalign)` under both tiers for every length and
/// misalignment and asserts the results are bit-identical.
fn sweep<R: PartialEq + std::fmt::Debug>(what: &str, mut case: impl FnMut(usize, usize) -> R) {
    for n in LENS {
        for m in 0..64 {
            let (scalar, vector) = under_both(|| case(n, m));
            assert_eq!(scalar, vector, "{what}: n={n} misalign={m}");
        }
    }
}

/// The second operand's misalignment: also every value in `0..64`, but
/// never paired with the same value as the first.
fn other(m: usize) -> usize {
    63 - m
}

fn spec<T>(model: bool) -> FixedSpec {
    let bits = 8 * std::mem::size_of::<T>() as u32;
    if model {
        FixedSpec::model_range(bits)
    } else {
        FixedSpec::unit_range(bits)
    }
}

fn dot_fixed_fixed_pair<D: FixedInt + Lane, M: FixedInt + Lane>(what: &str) {
    let (xs, ws) = (spec::<D>(false), spec::<M>(true));
    sweep(what, |n, m| {
        let x = Guarded::new(&data::<D>(n, 1), m);
        let w = Guarded::new(&data::<M>(n, 2), other(m));
        let got = optimized::dot_fixed_fixed(x.get(), w.get(), &xs, &ws);
        x.into_bits(what);
        w.into_bits(what);
        got.to_bits()
    });
}

#[test]
fn fixed_dots_stay_inside_their_operands() {
    dot_fixed_fixed_pair::<i8, i8>("dot_fixed_fixed i8 x i8");
    dot_fixed_fixed_pair::<i8, i16>("dot_fixed_fixed i8 x i16");
    dot_fixed_fixed_pair::<i16, i8>("dot_fixed_fixed i16 x i8");
    dot_fixed_fixed_pair::<i16, i16>("dot_fixed_fixed i16 x i16");
}

fn dot_fixed_f32_one<D: FixedInt + Lane>(what: &str) {
    let xs = spec::<D>(false);
    sweep(what, |n, m| {
        let x = Guarded::new(&data::<D>(n, 3), m);
        let w = Guarded::new(&data::<f32>(n, 4), other(m));
        let got = optimized::dot_fixed_f32(x.get(), w.get(), &xs);
        x.into_bits(what);
        w.into_bits(what);
        got.to_bits()
    });
}

fn dot_f32_fixed_one<M: FixedInt + Lane>(what: &str) {
    let ws = spec::<M>(true);
    sweep(what, |n, m| {
        let x = Guarded::new(&data::<f32>(n, 5), m);
        let w = Guarded::new(&data::<M>(n, 6), other(m));
        let got = optimized::dot_f32_fixed(x.get(), w.get(), &ws);
        x.into_bits(what);
        w.into_bits(what);
        got.to_bits()
    });
}

#[test]
fn float_dots_stay_inside_their_operands() {
    sweep("dot_f32_f32", |n, m| {
        let x = Guarded::new(&data::<f32>(n, 7), m);
        let w = Guarded::new(&data::<f32>(n, 8), other(m));
        let got = optimized::dot_f32_f32(x.get(), w.get());
        x.into_bits("dot_f32_f32");
        w.into_bits("dot_f32_f32");
        got.to_bits()
    });
    dot_fixed_f32_one::<i8>("dot_fixed_f32 i8");
    dot_fixed_f32_one::<i16>("dot_fixed_f32 i16");
    dot_f32_fixed_one::<i8>("dot_f32_fixed i8");
    dot_f32_fixed_one::<i16>("dot_f32_fixed i16");
}

/// Rows per batch: one whole 4-row SIMD block whose last row ends at the
/// canaries, then the same block plus a scalar remainder row.
const ROWS: [usize; 2] = [4, 5];

fn dot_batch_f32_fixed_one<M: FixedInt + Lane>(what: &str) {
    let ws = spec::<M>(true);
    for rows in ROWS {
        sweep(what, |n, m| {
            let batch = Guarded::new(&data::<f32>(rows * n, 9), m);
            let w = Guarded::new(&data::<M>(n, 10), other(m));
            let mut out = Guarded::new(&vec![0.0f32; rows], m);
            optimized::dot_batch_f32_fixed(batch.get(), w.get(), &ws, out.get_mut());
            batch.into_bits(what);
            w.into_bits(what);
            out.into_bits(what)
        });
    }
}

#[test]
fn batched_dots_stay_inside_their_operands() {
    dot_batch_f32_fixed_one::<i8>("dot_batch_f32_fixed i8");
    dot_batch_f32_fixed_one::<i16>("dot_batch_f32_fixed i16");
    for rows in ROWS {
        sweep("dot_batch_f32_f32", |n, m| {
            let batch = Guarded::new(&data::<f32>(rows * n, 11), m);
            let w = Guarded::new(&data::<f32>(n, 12), other(m));
            let mut out = Guarded::new(&vec![0.0f32; rows], m);
            optimized::dot_batch_f32_f32(batch.get(), w.get(), out.get_mut());
            batch.into_bits("dot_batch_f32_f32");
            w.into_bits("dot_batch_f32_f32");
            out.into_bits("dot_batch_f32_f32")
        });
    }
}

/// Multiplier magnitude for the integer AXPY: small enough for the i32
/// fast path (`|k|·2^15 < 2^30`) with either data width.
const K: i64 = 2048;

fn axpy_block_offsets_pair<D: FixedInt + Lane, M: FixedInt + Lane>(what: &str) {
    for k in [K, -K] {
        sweep(what, |n, m| {
            let mut rng = Xorshift128::seed_from(n as u64);
            let offs: [i64; 8] = std::array::from_fn(|_| i64::from(rng.next_u32() >> 17));
            let x = Guarded::new(&data::<D>(n, 13), m);
            let mut w = Guarded::new(&data::<M>(n, 14), other(m));
            optimized::axpy_block_offsets(w.get_mut(), x.get(), k, &offs);
            x.into_bits(what);
            w.into_bits(what)
        });
    }
}

#[test]
fn fixed_axpy_stays_inside_its_operands() {
    axpy_block_offsets_pair::<i8, i8>("axpy_block_offsets i8 -> i8");
    axpy_block_offsets_pair::<i8, i16>("axpy_block_offsets i8 -> i16");
    axpy_block_offsets_pair::<i16, i8>("axpy_block_offsets i16 -> i8");
    axpy_block_offsets_pair::<i16, i16>("axpy_block_offsets i16 -> i16");
}

fn axpy_fixed_f32_one<D: FixedInt + Lane>(what: &str) {
    let xs = spec::<D>(false);
    sweep(what, |n, m| {
        let x = Guarded::new(&data::<D>(n, 15), m);
        let mut w = Guarded::new(&data::<f32>(n, 16), other(m));
        optimized::axpy_fixed_f32(w.get_mut(), -0.375, x.get(), &xs);
        x.into_bits(what);
        w.into_bits(what)
    });
}

#[test]
fn float_axpys_stay_inside_their_operands() {
    sweep("axpy_f32_f32", |n, m| {
        let x = Guarded::new(&data::<f32>(n, 17), m);
        let mut w = Guarded::new(&data::<f32>(n, 18), other(m));
        optimized::axpy_f32_f32(w.get_mut(), 0.625, x.get());
        x.into_bits("axpy_f32_f32");
        w.into_bits("axpy_f32_f32")
    });
    axpy_fixed_f32_one::<i8>("axpy_fixed_f32 i8");
    axpy_fixed_f32_one::<i16>("axpy_fixed_f32 i16");
    sweep("apply_delta_i8", |n, m| {
        let q = Guarded::new(&data::<i8>(n, 19), m);
        let mut acc = Guarded::new(&data::<f32>(n, 20), other(m));
        delta::apply_delta_i8(acc.get_mut(), q.get(), 0.015);
        q.into_bits("apply_delta_i8");
        acc.into_bits("apply_delta_i8")
    });
}

/// Canary cells on each side of a packed operand: every byte `0x7f`
/// before and `0x80` after — `MAX` and `MIN` in each `i8` lane, as for
/// the plain operands, and a value no `i16` lane reaches by a zero delta.
const CELL_BEFORE: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const CELL_AFTER: u64 = 0x8080_8080_8080_8080;

/// Canary cells on each side (one 64-byte line).
const CELL_GUARD: usize = 8;

/// Words packed into cells as the shared model packs them, the last cell
/// partly padding when the words do not fill it, fenced by canary cells.
struct GuardedCells {
    buf: Vec<AtomicU64>,
    len: usize,
}

impl GuardedCells {
    fn new<M: cells::Lane>(words: &[M]) -> Self {
        let len = words.len().div_ceil(M::LANES);
        let buf: Vec<AtomicU64> = (0..2 * CELL_GUARD + len)
            .map(|i| {
                AtomicU64::new(if i < CELL_GUARD {
                    CELL_BEFORE
                } else {
                    CELL_AFTER
                })
            })
            .collect();
        cells::store_cells(&buf[CELL_GUARD..CELL_GUARD + len], words);
        GuardedCells { buf, len }
    }

    fn get(&self) -> &[AtomicU64] {
        &self.buf[CELL_GUARD..CELL_GUARD + self.len]
    }

    /// Every cell's bits, after asserting every canary is untouched.
    fn into_bits(self, what: &str) -> Vec<u64> {
        let bits: Vec<u64> = self.buf.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let (before, rest) = bits.split_at(CELL_GUARD);
        let (cells, after) = rest.split_at(self.len);
        for (i, &c) in before.iter().enumerate() {
            assert_eq!(
                c,
                CELL_BEFORE,
                "{what}: canary cell {i} overwritten under {}",
                isa::active()
            );
        }
        for (i, &c) in after.iter().enumerate() {
            assert_eq!(
                c,
                CELL_AFTER,
                "{what}: canary cell +{i} overwritten under {}",
                isa::active()
            );
        }
        cells.to_vec()
    }
}

fn dot_cells_pair<D: FixedInt + Lane, M: FixedInt + Lane + cells::Lane>(what: &str) {
    sweep(what, |n, m| {
        let x = Guarded::new(&data::<D>(n, 21), m);
        let w = GuardedCells::new(&data::<M>(n, 22));
        let got = cells::dot_cells_sum::<D, M>(x.get(), w.get());
        x.into_bits(what);
        w.into_bits(what);
        got
    });
}

#[test]
fn cell_dots_stay_inside_their_operands() {
    dot_cells_pair::<i8, i8>("dot_cells_sum i8 x i8");
    dot_cells_pair::<i8, i16>("dot_cells_sum i8 x i16");
    dot_cells_pair::<i16, i8>("dot_cells_sum i16 x i8");
    dot_cells_pair::<i16, i16>("dot_cells_sum i16 x i16");
}

/// The cell AXPY runs on the whole cells, as the shared model runs it; a
/// partial last cell past them must keep its words and its zero pad lanes.
fn axpy_cells_pair<D: FixedInt + Lane, M: FixedInt + Lane + cells::Lane>(what: &str) {
    for k in [K, -K] {
        sweep(what, |n, m| {
            let mut rng = Xorshift128::seed_from(n as u64);
            let offs: [i64; 8] = std::array::from_fn(|_| i64::from(rng.next_u32() >> 17));
            let words = data::<M>(n, 24);
            let whole = n / M::LANES;
            let x = Guarded::new(&data::<D>(whole * M::LANES, 23), m);
            let w = GuardedCells::new(&words);
            cells::axpy_cells_block_offsets::<D, M>(&w.get()[..whole], x.get(), k, &offs);
            x.into_bits(what);
            let bits = w.into_bits(what);
            if n % M::LANES != 0 {
                let partial = GuardedCells::new(&words[whole * M::LANES..]).into_bits(what);
                assert_eq!(
                    bits[whole..],
                    partial[..],
                    "{what}: partial last cell n={n}"
                );
                assert_eq!(
                    bits[whole] >> (n % M::LANES * M::LANE_BITS),
                    0,
                    "{what}: pad lanes"
                );
            }
            bits
        });
    }
}

#[test]
fn cell_axpy_stays_inside_its_cells() {
    axpy_cells_pair::<i8, i8>("axpy_cells_block_offsets i8 -> i8");
    axpy_cells_pair::<i8, i16>("axpy_cells_block_offsets i8 -> i16");
    axpy_cells_pair::<i16, i8>("axpy_cells_block_offsets i16 -> i8");
    axpy_cells_pair::<i16, i16>("axpy_cells_block_offsets i16 -> i16");
}
