//! Pins the exact bytes the delta-exchange quantizer produces.
//!
//! Each case quantizes a seeded vector and compares an FNV-1a hash of the
//! `i8` payload followed by the scale's bits against a constant recorded
//! from the scalar reference implementation (a max-abs pass, then a
//! per-element `f32::round`). Any rewrite of `quantize_delta_i8` must
//! reproduce these bytes exactly. Lengths straddle the 8-, 32- and
//! 64-element boundaries so vectorized loops also exercise their tails,
//! and the half-integer cases land exactly on `±(k + ½)` after scaling,
//! where round-half-away-from-zero and round-half-to-even disagree.

use buckwild_kernels::delta::quantize_delta_i8;
use buckwild_prng::{Prng, Xorshift128};

const LENGTHS: [usize; 6] = [1, 7, 63, 64, 65, 2048];

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Quantizes `delta` and hashes payload + scale bits; `None` if the
/// quantizer skipped the packet (which must leave `out` untouched).
fn pin(delta: &[f32]) -> Option<u64> {
    let mut q = vec![0x5a_i8; delta.len()];
    match quantize_delta_i8(delta, &mut q) {
        Some(scale) => {
            let payload = q.iter().map(|&v| v as u8);
            Some(fnv1a(payload.chain(scale.to_bits().to_le_bytes())))
        }
        None => {
            assert!(
                q.iter().all(|&v| v == 0x5a),
                "skip must leave out untouched"
            );
            None
        }
    }
}

/// `n` values uniform in `[-amp, amp)`.
fn seeded(n: usize, seed: u64, amp: f32) -> Vec<f32> {
    let mut rng = Xorshift128::seed_from(seed);
    (0..n).map(|_| (rng.next_f32() * 2.0 - 1.0) * amp).collect()
}

/// `n` values that scale onto exact half-integers: the first is the
/// max-abs coordinate `±127·unit`, the rest `±(k + ½)·unit` for seeded
/// `k` in `0..127`, so `d * (127 / max_abs)` is `±(k + ½)` exactly when
/// `unit` is a power of two.
fn half_integers(n: usize, seed: u64, unit: f32) -> Vec<f32> {
    let mut rng = Xorshift128::seed_from(seed);
    (0..n)
        .map(|i| {
            let word = rng.next_u32();
            let sign = if word & 1 == 0 { 1.0 } else { -1.0 };
            let grid = if i == 0 {
                127.0
            } else {
                ((word >> 1) % 127) as f32 + 0.5
            };
            sign * grid * unit
        })
        .collect()
}

fn hashes(make: impl Fn(usize) -> Vec<f32>) -> Vec<Option<u64>> {
    LENGTHS.iter().map(|&n| pin(&make(n))).collect()
}

#[test]
fn seeded_uniform_deltas() {
    assert_eq!(
        hashes(|n| seeded(n, 0x00de_17a0 + n as u64, 0.03)),
        [
            Some(0x34f7_6299_2a65_34ea),
            Some(0x70fd_194d_570b_9ec7),
            Some(0xb0aa_db48_bd57_4825),
            Some(0x8c20_7b63_a701_32ae),
            Some(0xe4fe_109b_3781_3079),
            Some(0xc7be_ee44_aeff_ca7e),
        ]
    );
}

#[test]
fn seeded_wide_range_deltas() {
    // Five decades of magnitude in one packet: most coordinates round to
    // zero or ±1, which is where a rounding rewrite is most likely to slip.
    let make = |n: usize| {
        let mut rng = Xorshift128::seed_from(0x51de + n as u64);
        seeded(n, 0x7e57 + n as u64, 1.0)
            .into_iter()
            .map(|v| v * [1.0, 1e-1, 1e-2, 1e-3, 1e-4][(rng.next_u32() % 5) as usize])
            .collect::<Vec<_>>()
    };
    assert_eq!(
        hashes(make),
        [
            Some(0x8807_f2aa_d934_ea1a),
            Some(0x1bc7_141a_dac5_4963),
            Some(0x81f5_89d6_14f6_b839),
            Some(0xe608_c613_57ac_a94b),
            Some(0x3cd6_d0e7_15ca_afe2),
            Some(0x2b1b_191f_2a71_ae78),
        ]
    );
}

#[test]
fn exact_half_integers_round_away_from_zero() {
    assert_eq!(
        hashes(|n| half_integers(n, 0x4a1f + n as u64, 1.0)),
        [
            Some(0x2dcb_f8ed_4e20_0ca1),
            Some(0x6128_b3e5_d2fa_9c0a),
            Some(0xe8d5_d564_f185_b34b),
            Some(0x4328_2d9d_7661_eb01),
            Some(0xc83a_a5f9_fb3e_20ac),
            Some(0x0f3d_2a00_fc04_2974),
        ]
    );
    // max-abs 127/64: the scale is a power of two again, the grid finer.
    assert_eq!(
        hashes(|n| half_integers(n, 0x4a20 + n as u64, 1.0 / 64.0)),
        [
            Some(0x86a4_23a5_180e_2bf2),
            Some(0x6247_dd20_5c5c_8974),
            Some(0x916b_fb30_1438_01a5),
            Some(0x72bd_4688_d2b4_50be),
            Some(0x2cb9_c311_ab67_af1b),
            Some(0x5a0b_83f3_76a9_1ac4),
        ]
    );
}

#[test]
fn nan_coordinates_are_ignored_by_the_max_and_quantize_to_zero() {
    let make = |n: usize| {
        let mut v = seeded(n, 0x0a0a + n as u64, 0.5);
        for x in v.iter_mut().skip(1).step_by(5) {
            *x = f32::NAN;
        }
        v
    };
    assert_eq!(
        hashes(make),
        [
            Some(0x24dd_8843_b5ac_c368),
            Some(0xf927_c7b5_03be_3f74),
            Some(0x84ae_aaad_06bc_232f),
            Some(0xc087_c264_5126_ecf7),
            Some(0x7a4e_a36a_1e98_dc50),
            Some(0xf03c_e832_e494_f15c),
        ]
    );
}

#[test]
fn degenerate_deltas_are_skipped() {
    assert_eq!(pin(&[]), None);
    for n in LENGTHS {
        assert_eq!(pin(&vec![0.0; n]), None, "all zero, n={n}");
        assert_eq!(pin(&vec![-0.0; n]), None, "all negative zero, n={n}");
        assert_eq!(pin(&vec![f32::NAN; n]), None, "all NaN, n={n}");
        for bad in [f32::INFINITY, f32::NEG_INFINITY] {
            let mut v = seeded(n, n as u64, 0.25);
            v[n / 2] = bad;
            assert_eq!(pin(&v), None, "{bad} at n={n}");
        }
        let mut v = vec![0.0; n];
        v[n - 1] = f32::NAN;
        assert_eq!(pin(&v), None, "zeros and one NaN, n={n}");
    }
}
