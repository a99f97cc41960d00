//! `FixedSpec::quantize` against the reference it replaced.
//!
//! The reference below is the original per-element implementation: a libm
//! `exp2` for the scale, then an `f64` floor-and-branch round-half-to-even,
//! then a clamp. The branch-free quantizer must agree with it bit for bit
//! on every input: around every rounding boundary, on the IEEE special
//! values, and across the whole `f32` bit space.

use buckwild_fixed::{FixedSpec, Rounding};

/// The original biased quantizer, kept verbatim as the oracle.
fn reference_biased(spec: &FixedSpec, x: f32) -> i64 {
    let scaled = x as f64 * (spec.frac() as f32).exp2() as f64;
    round_half_to_even(scaled).clamp(spec.min_repr(), spec.max_repr())
}

/// The original unbiased quantizer, with the `exp2` scale.
fn reference_unbiased(spec: &FixedSpec, x: f32, u: f32) -> i64 {
    let scaled = x as f64 * (spec.frac() as f32).exp2() as f64;
    ((scaled + u as f64).floor() as i64).clamp(spec.min_repr(), spec.max_repr())
}

fn round_half_to_even(x: f64) -> i64 {
    let floor = x.floor();
    let diff = x - floor;
    let base = floor as i64;
    if diff > 0.5 || (diff == 0.5 && base % 2 != 0) {
        base + 1
    } else {
        base
    }
}

#[track_caller]
fn check(spec: &FixedSpec, x: f32) {
    let want = reference_biased(spec, x);
    let got = spec.quantize(x, Rounding::Biased, || {
        unreachable!("biased draws no sample")
    });
    assert_eq!(got, want, "{spec} x={x:e} (bits {:#010x})", x.to_bits());
    assert_eq!(spec.quantize_biased(x), want);
}

#[track_caller]
fn check_unbiased(spec: &FixedSpec, x: f32) {
    for u in [0.0, 0.5, 1.0 - f32::EPSILON / 2.0] {
        let want = reference_unbiased(spec, x, u);
        assert_eq!(
            spec.quantize(x, Rounding::Unbiased, || u),
            want,
            "{spec} x={x:e} u={u}"
        );
    }
}

/// Widths and binary points the sweeps visit: every width class the
/// datasets and models use, each at the extremes of `frac` and at the
/// paper's unit and model ranges.
fn sweep_specs() -> Vec<FixedSpec> {
    let mut specs = Vec::new();
    for bits in [1, 2, 7, 8, 15, 16, 24, 31, 32] {
        for frac in [-64, -2, 0, bits as i32 - 2, bits as i32 - 1, 31, 64] {
            specs.push(FixedSpec::new(bits, frac).unwrap());
        }
    }
    specs.sort_by_key(|s| (s.bits(), s.frac()));
    specs.dedup();
    specs
}

#[test]
fn scale_and_quantum_are_exact_powers_of_two() {
    for frac in -64..=64 {
        let spec = FixedSpec::new(8, frac).unwrap();
        let exp2 = (frac as f32).exp2();
        assert_eq!(spec.scale().to_bits(), exp2.to_bits(), "frac {frac}");
        assert_eq!(
            spec.quantum().to_bits(),
            exp2.recip().to_bits(),
            "frac {frac}"
        );
    }
}

/// ±4 ulps around every half-quantum `(k + ½)·2^-frac` of 8- and 16-bit
/// formats, including the ones just outside the saturation bounds.
#[test]
fn half_quantum_neighbourhoods_match_reference() {
    let mut boundaries = 0usize;
    for bits in [8, 16] {
        for frac in [-64, -2, 0, 4, bits as i32 - 2, bits as i32 - 1, 31, 64] {
            let spec = FixedSpec::new(bits, frac).unwrap();
            for k in spec.min_repr() - 2..=spec.max_repr() + 1 {
                let half = ((k as f64 + 0.5) * spec.quantum() as f64) as f32;
                let mut below = half;
                let mut above = half;
                check(&spec, half);
                for _ in 0..4 {
                    below = below.next_down();
                    above = above.next_up();
                    check(&spec, below);
                    check(&spec, above);
                }
                boundaries += 1;
            }
        }
    }
    assert!(boundaries > 500_000, "{boundaries}");
}

#[test]
fn special_values_match_reference() {
    let mut specials = vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),           // smallest subnormal
        f32::from_bits(0x0040_0000), // a mid-range subnormal
        f32::from_bits(0x007f_ffff), // largest subnormal
        f32::from_bits(0x8000_0001), // negative subnormals
        f32::from_bits(0x807f_ffff),
        0.5,
        -0.5,
        1.5,
        -1.5,
        2.5,
        -2.5,
    ];
    // Quiet and signalling NaNs of both signs with assorted payloads.
    for payload in [1u32, 0x1234, 0x3f_ffff, 0x40_0000, 0x40_0001, 0x7f_ffff] {
        specials.push(f32::from_bits(0x7f80_0000 | payload));
        specials.push(f32::from_bits(0xff80_0000 | payload));
    }
    for bits in 1..=32 {
        for frac in -64..=64 {
            let spec = FixedSpec::new(bits, frac).unwrap();
            for &x in &specials {
                check(&spec, x);
                check_unbiased(&spec, x);
            }
        }
    }
    let spec = FixedSpec::unit_range(8);
    for &x in &specials {
        if x.is_nan() {
            assert_eq!(spec.quantize_biased(x), 0, "NaN quantizes to 0");
        }
    }
}

/// Every 65537th `f32` bit pattern (65536 values covering all exponents,
/// both signs, NaNs and infinities) through every sweep spec.
#[test]
fn strided_bit_patterns_match_reference() {
    const STRIDE: u64 = 65_537;
    let specs = sweep_specs();
    for bits in (0..1u64 << 32).step_by(STRIDE as usize) {
        let x = f32::from_bits(bits as u32);
        for spec in &specs {
            check(spec, x);
            check_unbiased(spec, x);
        }
    }
}

/// All 2^32 bit patterns through `unit_range(8)`, the dataset format of
/// every D8 run. Run with
/// `cargo test --release -p buckwild-fixed -- --ignored`.
#[test]
#[ignore = "exhaustive 2^32 sweep; run in release with --ignored"]
fn every_f32_matches_reference_unit_range_8() {
    let spec = FixedSpec::unit_range(8);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let chunk = (1u64 << 32).div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(1 << 32);
            s.spawn(move || {
                for bits in lo..hi {
                    let x = f32::from_bits(bits as u32);
                    let want = reference_biased(&spec, x);
                    assert_eq!(spec.quantize_biased(x), want, "x bits {bits:#010x}");
                }
            });
        }
    });
}
