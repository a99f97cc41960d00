//! Gradient-delta quantization: the wire format of the sharded backend.
//!
//! The shard-per-core engine exchanges *model deltas* instead of sharing
//! cache lines: each worker periodically diffs its replica against the
//! last synchronized snapshot and broadcasts the diff to its peers over
//! SPSC rings. The payload is 8-bit: one shared `f32` scale per packet
//! plus one `i8` per model coordinate, a 4x (vs `f32`) to 1x (vs `i8`
//! models) compression of the coherence traffic the shared-model engine
//! pays implicitly.
//!
//! Both kernels are branch-free per element and call no libm function:
//! the quantizer is an 8-lane max-abs reduction followed by a
//! multiply-round sweep, the applier a multiply-add sweep.

/// Quantizes `delta` into `out` as `i8` against a per-packet scale.
///
/// The scale is chosen so the largest-magnitude coordinate maps to ±127;
/// the return value is the *dequantization* scale `s` with
/// `delta[i] ≈ s * out[i]`. An all-zero (or empty) delta returns `None`
/// and leaves `out` untouched — the caller skips the packet entirely.
///
/// Rounding is to nearest (ties away from zero), so the quantization
/// error per coordinate is at most `s / 2`.
///
/// # Panics
///
/// Panics if `out.len() != delta.len()`.
pub fn quantize_delta_i8(delta: &[f32], out: &mut [i8]) -> Option<f32> {
    assert_eq!(delta.len(), out.len(), "delta/out length mismatch");
    // Eight independent running maxima, one per vector lane. The maximum
    // is exact and order-free, so this equals the left-to-right one bit
    // for bit. `a > lane` is false for a NaN `a`, so NaN coordinates are
    // ignored as `f32::max` ignores them, and the select compiles to a
    // plain `maxps` without `f32::max`'s NaN fix-up.
    let mut lanes = [0f32; 8];
    let mut chunks = delta.chunks_exact(8);
    let keep_max = |lane: &mut f32, d: f32| {
        let a = d.abs();
        *lane = if a > *lane { a } else { *lane };
    };
    for chunk in &mut chunks {
        for (lane, &d) in lanes.iter_mut().zip(chunk) {
            keep_max(lane, d);
        }
    }
    for (lane, &d) in lanes.iter_mut().zip(chunks.remainder()) {
        keep_max(lane, d);
    }
    let max_abs = lanes.iter().fold(0f32, |m, &lane| m.max(lane));
    if max_abs <= 0.0 || !max_abs.is_finite() {
        return None;
    }
    let inv = 127.0 / max_abs;
    for (o, &d) in out.iter_mut().zip(delta) {
        // `d * inv` is within ±127 by construction.
        *o = round_half_away(d * inv);
    }
    Some(max_abs / 127.0)
}

/// `v.round() as i8` (ties away from zero, NaN → 0, saturating) for
/// `|v| ≤ 127.5`, as one add and one truncating conversion instead of a
/// libm `roundf` call. Adding the largest `f32` below ½ with `v`'s sign
/// and truncating rounds ties away from zero; for `v` just below a tie
/// the sum stays below the next integer. `tests::round_half_away_*` prove it
/// against `f32::round`.
#[inline]
fn round_half_away(v: f32) -> i8 {
    const BELOW_HALF: f32 = 0.499_999_97;
    (v + BELOW_HALF.copysign(v)) as i8
}

/// Accumulates a dequantized packet into `acc`: `acc[i] += scale * q[i]`.
///
/// # Panics
///
/// Panics if `acc.len() != q.len()`.
pub fn apply_delta_i8(acc: &mut [f32], q: &[i8], scale: f32) {
    assert_eq!(acc.len(), q.len(), "acc/q length mismatch");
    // The sweep is element-independent and takes the explicit SIMD path
    // when active.
    if crate::simd::axpy_i8_f32(acc, q, scale).is_some() {
        return;
    }
    for (a, &v) in acc.iter_mut().zip(q) {
        *a += scale * f32::from(v);
    }
}

/// Bytes on the wire for an `n`-coordinate packet: the `i8` payload plus
/// the 4-byte scale (sequence counters ride in the ring slot, not the
/// payload).
#[must_use]
pub fn packet_bytes(n: usize) -> u64 {
    n as u64 + 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_within_half_quantum() {
        let delta: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) / 97.0).collect();
        let mut q = vec![0i8; delta.len()];
        let scale = quantize_delta_i8(&delta, &mut q).expect("nonzero delta");
        let mut back = vec![0f32; delta.len()];
        apply_delta_i8(&mut back, &q, scale);
        for (d, b) in delta.iter().zip(&back) {
            assert!((d - b).abs() <= scale / 2.0 + 1e-6, "{d} vs {b}");
        }
    }

    #[test]
    fn extreme_coordinate_maps_to_127() {
        let delta = [0.25f32, -2.0, 1.0];
        let mut q = [0i8; 3];
        let scale = quantize_delta_i8(&delta, &mut q).unwrap();
        assert_eq!(q[1], -127);
        assert!((scale - 2.0 / 127.0).abs() < 1e-9);
    }

    #[test]
    fn zero_delta_is_skipped() {
        let mut q = [3i8; 4];
        assert_eq!(quantize_delta_i8(&[0.0; 4], &mut q), None);
        assert_eq!(q, [3; 4], "out is untouched on skip");
        assert_eq!(quantize_delta_i8(&[], &mut []), None);
    }

    #[test]
    fn apply_accumulates_on_top_of_existing_values() {
        let mut acc = [1.0f32, -1.0];
        apply_delta_i8(&mut acc, &[127, -127], 1.0 / 127.0);
        assert!((acc[0] - 2.0).abs() < 1e-6);
        assert!((acc[1] + 2.0).abs() < 1e-6);
    }

    /// The reference: libm's round-half-away-from-zero, saturated.
    fn reference_round(v: f32) -> i8 {
        v.round() as i8
    }

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

    #[test]
    fn round_half_away_matches_round_near_every_half_integer() {
        for k in -128..=127 {
            for centre in [k as f32 + 0.5, k as f32] {
                for steps in -4..=4 {
                    let v = ulps(centre, steps);
                    assert_eq!(round_half_away(v), reference_round(v), "v = {v:e}");
                }
            }
        }
        for v in [0.0, -0.0, f32::NAN, -f32::NAN, 0.499_999_97, -0.499_999_97] {
            assert_eq!(round_half_away(v), reference_round(v), "v = {v:e}");
        }
    }

    /// Every `f32` with `|v| ≤ 127.5`, both signs. Run with
    /// `cargo test --release -p buckwild-kernels -- --ignored`.
    #[test]
    #[ignore = "exhaustive sweep of 2.2e9 floats; run in release with --ignored"]
    fn round_half_away_matches_round_on_every_f32_up_to_127_5() {
        const TOP: u32 = 0x42ff_0000; // 127.5
        assert_eq!(f32::from_bits(TOP), 127.5);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
        let chunk = (TOP + 1).div_ceil(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let lo = t * chunk;
                let hi = (lo + chunk).min(TOP + 1);
                s.spawn(move || {
                    for bits in lo..hi {
                        for v in [f32::from_bits(bits), -f32::from_bits(bits)] {
                            assert_eq!(round_half_away(v), reference_round(v), "v = {v:e}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn packet_accounting() {
        assert_eq!(packet_bytes(256), 260);
        assert_eq!(packet_bytes(0), 4);
    }
}
