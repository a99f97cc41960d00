//! Randomized tests for the fixed-point substrate.
//!
//! The workspace is dependency-free, so instead of proptest each property
//! runs as a seeded loop over `buckwild-prng` draws: deterministic from the
//! fixed seed, but broad enough to cover the precision, range, and rounding
//! axes the original property statements quantified over.

use buckwild_fixed::{nibble_dot_i32, FixedSpec, NibbleVec, Rounding};
use buckwild_prng::{Prng, Xorshift128};

const CASES: usize = 512;

/// Quantize/dequantize never strays more than half a quantum from the
/// input (for in-range inputs, biased rounding).
#[test]
fn biased_rounding_error_within_half_quantum() {
    let mut rng = Xorshift128::seed_from(0xF1);
    for _ in 0..CASES {
        let bits = 2 + rng.next_below(15); // 2..=16
        let x = rng.range_f32(-0.999, 0.999);
        let spec = FixedSpec::unit_range(bits);
        let y = spec.round_value(x);
        // Out-of-range inputs saturate, so measure against the clamped input.
        let clamped = x.clamp(spec.min_value(), spec.max_value());
        assert!(
            (y - clamped).abs() <= spec.quantum() / 2.0 + 1e-6,
            "bits={bits} x={x} y={y} quantum={}",
            spec.quantum()
        );
    }
}

/// Unbiased rounding always lands on one of the two bracketing values.
#[test]
fn unbiased_rounding_brackets() {
    let mut rng = Xorshift128::seed_from(0xF2);
    for _ in 0..CASES {
        let bits = 2 + rng.next_below(15);
        let x = rng.range_f32(-0.999, 0.999);
        let u = rng.next_f32();
        let spec = FixedSpec::unit_range(bits);
        let q = spec.quantize_unbiased(x, u);
        let lo = (x * spec.scale()).floor() as i64;
        assert!(
            q == lo.clamp(spec.min_repr(), spec.max_repr())
                || q == (lo + 1).clamp(spec.min_repr(), spec.max_repr()),
            "bits={bits} x={x} q={q} lo={lo}"
        );
    }
}

/// Quantization saturates instead of wrapping for any input.
#[test]
fn quantize_never_leaves_range() {
    let mut rng = Xorshift128::seed_from(0xF3);
    for _ in 0..CASES {
        let bits = 1 + rng.next_below(24); // 1..=24
        let frac = -8 + rng.next_below(33) as i32; // -8..=24
        let x = rng.range_f32(-1e9, 1e9);
        let u = rng.next_f32();
        let spec = FixedSpec::new(bits, frac).unwrap();
        for rounding in Rounding::ALL {
            let q = spec.quantize(x, rounding, || u);
            assert!(spec.contains_repr(q), "bits={bits} frac={frac} x={x} q={q}");
        }
    }
}

/// NibbleVec round-trips arbitrary nibble sequences, including odd lengths
/// and the empty vector.
#[test]
fn nibblevec_round_trip() {
    let mut rng = Xorshift128::seed_from(0xF6);
    for _ in 0..CASES {
        let len = rng.next_below_usize(64);
        let values: Vec<i8> = (0..len).map(|_| -8 + rng.next_below(16) as i8).collect();
        let v = NibbleVec::from_values(&values);
        assert_eq!(v.to_values(), values);
    }
}

/// Packed nibble dot equals the unpacked scalar dot.
#[test]
fn nibble_dot_matches_reference() {
    let mut rng = Xorshift128::seed_from(0xF7);
    for _ in 0..CASES {
        let len = rng.next_below_usize(64);
        let a: Vec<i8> = (0..len).map(|_| -8 + rng.next_below(16) as i8).collect();
        let b: Vec<i8> = (0..len).map(|_| -8 + rng.next_below(16) as i8).collect();
        let expected: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
        assert_eq!(
            nibble_dot_i32(&NibbleVec::from_values(&a), &NibbleVec::from_values(&b)),
            expected
        );
    }
}

/// Dequantizing a biased quantization is idempotent (projection).
#[test]
fn round_value_idempotent() {
    let mut rng = Xorshift128::seed_from(0xF8);
    for _ in 0..CASES {
        let bits = 2 + rng.next_below(15);
        let x = rng.range_f32(-0.999, 0.999);
        let spec = FixedSpec::unit_range(bits);
        let once = spec.round_value(x);
        assert_eq!(spec.round_value(once), once);
    }
}
