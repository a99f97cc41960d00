//! Bit-identity of the SIMD kernel backend against the scalar fallback.
//!
//! Every vector path in `kernels::simd` promises *exactly* the scalar
//! result — integer kernels are exact in `i64`, float kernels share the
//! scalar code's chunked reduction order (no FMA, one 8-lane accumulator,
//! sequential lane sum and tail). These tests pin the kernel ISA to
//! `scalar` and to the machine's detected tier via `isa::scoped` and
//! compare outputs bit for bit (`f32::to_bits`) over every length in
//! `0..=192` — three 64-element blocks, covering empty inputs,
//! sub-block tails, and every SIMD remainder shape for 8/16/32-wide
//! steps.
//!
//! On a machine without AVX2 both runs take the scalar path and the
//! assertions are trivially true — the suite is then a no-op, not a
//! failure, which is exactly what CI's `scalar` matrix leg expects.

use std::sync::{Mutex, OnceLock};

use buckwild_fixed::FixedSpec;
use buckwild_kernels::{delta, isa, optimized, AxpyRand, KernelIsa};
use buckwild_prng::{Prng, Xorshift128};

/// Lengths swept by every test: all tail shapes of the 8/16/32-wide SIMD
/// steps and three 64-element blocks.
const MAX_LEN: usize = 192;

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

fn random_i8s(rng: &mut impl Prng, len: usize) -> Vec<i8> {
    (0..len).map(|_| rng.next_u32() as i8).collect()
}

fn random_i16s(rng: &mut impl Prng, len: usize) -> Vec<i16> {
    (0..len).map(|_| rng.next_u32() as i16).collect()
}

fn random_f32s(rng: &mut impl Prng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.range_f32(-1.0, 1.0)).collect()
}

#[test]
fn dense_dots_are_bit_identical_for_every_length() {
    let mut rng = Xorshift128::seed_from(0x51D0);
    let s8 = FixedSpec::unit_range(8);
    let s16 = FixedSpec::unit_range(16);
    let m8 = FixedSpec::model_range(8);
    let m16 = FixedSpec::model_range(16);
    for n in 0..=MAX_LEN {
        let x8 = random_i8s(&mut rng, n);
        let w8 = random_i8s(&mut rng, n);
        let x16 = random_i16s(&mut rng, n);
        let w16 = random_i16s(&mut rng, n);
        let xf = random_f32s(&mut rng, n);
        let wf = random_f32s(&mut rng, n);
        let (scalar, vector) = under_both(|| {
            [
                optimized::dot_i8_i8(&x8, &w8, &s8, &m8),
                optimized::dot_i8_i16(&x8, &w16, &s8, &m16),
                optimized::dot_i16_i8(&x16, &w8, &s16, &m8),
                optimized::dot_i16_i16(&x16, &w16, &s16, &m16),
                optimized::dot_f32_f32(&xf, &wf),
                optimized::dot_fixed_f32(&x8, &wf, &s8),
                optimized::dot_fixed_f32(&x16, &wf, &s16),
                optimized::dot_f32_fixed(&xf, &w8, &m8),
                optimized::dot_f32_fixed(&xf, &w16, &m16),
            ]
            .map(f32::to_bits)
        });
        assert_eq!(scalar, vector, "dense dots diverge at n={n}");
    }
}

#[test]
fn batched_dots_are_bit_identical_for_every_length() {
    let mut rng = Xorshift128::seed_from(0x51D1);
    let m8 = FixedSpec::model_range(8);
    let m16 = FixedSpec::model_range(16);
    // 6 rows: one full 4-row SIMD block plus a 2-row scalar remainder.
    const ROWS: usize = 6;
    for n in 0..=MAX_LEN {
        let batch = random_f32s(&mut rng, ROWS * n);
        let w8 = random_i8s(&mut rng, n);
        let w16 = random_i16s(&mut rng, n);
        let wf = random_f32s(&mut rng, n);
        let (scalar, vector) = under_both(|| {
            let mut out = vec![[0u32; ROWS]; 3];
            let mut scores = [0.0f32; ROWS];
            optimized::dot_batch_f32_fixed(&batch, &w8, &m8, &mut scores);
            out[0] = scores.map(f32::to_bits);
            optimized::dot_batch_f32_fixed(&batch, &w16, &m16, &mut scores);
            out[1] = scores.map(f32::to_bits);
            optimized::dot_batch_f32_f32(&batch, &wf, &mut scores);
            out[2] = scores.map(f32::to_bits);
            out
        });
        assert_eq!(scalar, vector, "batched dots diverge at n={n}");
    }
}

#[test]
fn fixed_axpy_is_bit_identical_for_every_length() {
    let mut rng = Xorshift128::seed_from(0x51D2);
    let s8 = FixedSpec::unit_range(8);
    let s16 = FixedSpec::unit_range(16);
    let m8 = FixedSpec::model_range(8);
    let m16 = FixedSpec::model_range(16);
    for n in 0..=MAX_LEN {
        let a = rng.range_f32(-0.5, 0.5);
        let block = [
            rng.next_u32(),
            rng.next_u32(),
            rng.next_u32(),
            rng.next_u32(),
            rng.next_u32(),
            rng.next_u32(),
            rng.next_u32(),
            rng.next_u32(),
        ];
        let x8 = random_i8s(&mut rng, n);
        let x16 = random_i16s(&mut rng, n);
        let w8 = random_i8s(&mut rng, n);
        let w16 = random_i16s(&mut rng, n);
        // Both rounding strategies the i32 fast path covers: biased
        // (constant half-quantum offsets) and one shared 256-bit block.
        fn rand(shared: bool, block: &[u32; 8]) -> AxpyRand<'_> {
            if shared {
                AxpyRand::Shared(block)
            } else {
                AxpyRand::Biased
            }
        }
        for shared in [false, true] {
            let (scalar, vector) = under_both(|| {
                let mut o8 = w8.clone();
                let mut o8w = w16.clone();
                let mut o16 = w8.clone();
                let mut o16w = w16.clone();
                optimized::axpy_i8_i8(&mut o8, a, &x8, &s8, &m8, rand(shared, &block));
                optimized::axpy_i8_i16(&mut o8w, a, &x8, &s8, &m16, rand(shared, &block));
                optimized::axpy_i16_i8(&mut o16, a, &x16, &s16, &m8, rand(shared, &block));
                optimized::axpy_i16_i16(&mut o16w, a, &x16, &s16, &m16, rand(shared, &block));
                (o8, o8w, o16, o16w)
            });
            assert_eq!(
                scalar, vector,
                "fixed AXPY diverges at n={n} shared={shared}"
            );
        }
    }
}

#[test]
fn float_axpy_and_delta_apply_are_bit_identical() {
    let mut rng = Xorshift128::seed_from(0x51D3);
    let s8 = FixedSpec::unit_range(8);
    for n in 0..=MAX_LEN {
        let a = rng.range_f32(-0.5, 0.5);
        let scale = rng.range_f32(0.001, 0.1);
        let x8 = random_i8s(&mut rng, n);
        let xf = random_f32s(&mut rng, n);
        let wf = random_f32s(&mut rng, n);
        let (scalar, vector) = under_both(|| {
            let mut ff = wf.clone();
            let mut f8 = wf.clone();
            let mut acc = wf.clone();
            optimized::axpy_f32_f32(&mut ff, a, &xf);
            optimized::axpy_fixed_f32(&mut f8, a, &x8, &s8);
            delta::apply_delta_i8(&mut acc, &x8, scale);
            [ff, f8, acc].map(|v| v.into_iter().map(f32::to_bits).collect::<Vec<_>>())
        });
        assert_eq!(scalar, vector, "float AXPY/delta diverges at n={n}");
    }
}
