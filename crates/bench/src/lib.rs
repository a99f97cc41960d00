//! The `buckwild-bench` executable's library: one experiment per table or
//! figure of the paper's evaluation ([`experiments`]), the command line
//! that dispatches to them ([`cli`]), and the common machinery —
//! kernel-level SGD iteration drivers for every DMGC signature (used to
//! measure base throughputs the way the paper's §4 microbenchmarks do)
//! and wall-clock timing.
//!
//! Throughput here is **dataset throughput** in GNPS — dataset numbers
//! processed per second — the paper's hardware-efficiency metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod observe;
pub mod serve;
pub mod watchdog;

use std::time::Instant;

use buckwild::Loss;
use buckwild_dmgc::Signature;
use buckwild_fixed::FixedSpec;
use buckwild_kernels::cost::QuantizerKind;
use buckwild_kernels::weave::{self, WeavedMatrix};
use buckwild_kernels::{generic, optimized, sparse, AxpyRand, KernelFlavor};
use buckwild_prng::{Prng, Xorshift128, XorshiftLanes};

/// Default time budget per measurement point, in seconds.
pub const QUICK_SECONDS: f64 = 0.25;

/// Total dataset elements streamed by the dense drivers (large enough that
/// examples do not stay cached between visits — dataset numbers live in
/// DRAM, paper §3).
const STREAM_ELEMS: usize = 1 << 26;

/// Total nonzero entries streamed by the sparse drivers.
const SPARSE_STREAM_NNZ: usize = 1 << 23;

fn dense_example_count(n: usize, total: usize) -> usize {
    (total / n).clamp(2, 1 << 14)
}

/// Measures the single-thread dense SGD iteration throughput (GNPS) for a
/// signature: a dot-and-AXPY pair per iteration over an `n`-element model,
/// exactly the §4 microbenchmark.
///
/// # Panics
///
/// Panics if the signature's precisions are not in {8, 16, 32f} or `n` is 0.
#[must_use]
pub fn measure_dense_t1(
    signature: &Signature,
    flavor: KernelFlavor,
    quantizer: QuantizerKind,
    n: usize,
    seconds: f64,
) -> f64 {
    assert!(n > 0, "model size must be positive");
    let d = signature.dataset();
    let m = signature.model();
    let key = (d.bits(), d.is_float(), m.bits(), m.is_float());
    match key {
        (8, false, 8, false) => dense_fixed_fixed::<i8, i8>(flavor, quantizer, n, seconds),
        (8, false, 16, false) => dense_fixed_fixed::<i8, i16>(flavor, quantizer, n, seconds),
        (16, false, 8, false) => dense_fixed_fixed::<i16, i8>(flavor, quantizer, n, seconds),
        (16, false, 16, false) => dense_fixed_fixed::<i16, i16>(flavor, quantizer, n, seconds),
        (32, true, 32, true) => dense_f32_f32(flavor, n, seconds),
        (8, false, 32, true) => dense_fixed_f32::<i8>(flavor, n, seconds),
        (16, false, 32, true) => dense_fixed_f32::<i16>(flavor, n, seconds),
        (32, true, 8, false) => dense_f32_fixed::<i8>(flavor, quantizer, n, seconds),
        (32, true, 16, false) => dense_f32_fixed::<i16>(flavor, quantizer, n, seconds),
        _ => panic!("unsupported signature {signature} for kernel measurement"),
    }
}

/// Measures single-thread sparse SGD iteration throughput (GNPS): `nnz`
/// gather/scatter coordinates per iteration. Index precision follows the
/// signature's `i` term (8 → `u8`, 16 → `u16`, else `u32`).
///
/// # Panics
///
/// Panics on unsupported precisions, `n == 0`, or `nnz` not in `1..=n`.
#[must_use]
pub fn measure_sparse_t1(
    signature: &Signature,
    flavor: KernelFlavor,
    quantizer: QuantizerKind,
    n: usize,
    nnz: usize,
    seconds: f64,
) -> f64 {
    assert!(n > 0 && nnz > 0 && nnz <= n, "bad sparse dimensions");
    let d = signature.dataset();
    let m = signature.model();
    let idx_bits = signature.index_bits().unwrap_or(32);
    // The index type must span the model.
    let idx_bits = if idx_bits < 32 && n > (1usize << idx_bits) {
        32
    } else {
        idx_bits
    };
    let key = (d.bits(), d.is_float(), m.bits(), m.is_float(), idx_bits);
    match key {
        (8, false, 8, false, 8) => sparse_driver::<i8, u8, i8>(flavor, quantizer, n, nnz, seconds),
        (8, false, 8, false, 16) => {
            sparse_driver::<i8, u16, i8>(flavor, quantizer, n, nnz, seconds)
        }
        (8, false, 8, false, 32) => {
            sparse_driver::<i8, u32, i8>(flavor, quantizer, n, nnz, seconds)
        }
        (8, false, 16, false, 8) => {
            sparse_driver::<i8, u8, i16>(flavor, quantizer, n, nnz, seconds)
        }
        (8, false, 16, false, 16) => {
            sparse_driver::<i8, u16, i16>(flavor, quantizer, n, nnz, seconds)
        }
        (8, false, 16, false, 32) => {
            sparse_driver::<i8, u32, i16>(flavor, quantizer, n, nnz, seconds)
        }
        (16, false, 8, false, 16) => {
            sparse_driver::<i16, u16, i8>(flavor, quantizer, n, nnz, seconds)
        }
        (16, false, 8, false, 32) => {
            sparse_driver::<i16, u32, i8>(flavor, quantizer, n, nnz, seconds)
        }
        (16, false, 16, false, 16) => {
            sparse_driver::<i16, u16, i16>(flavor, quantizer, n, nnz, seconds)
        }
        (16, false, 16, false, 32) => {
            sparse_driver::<i16, u32, i16>(flavor, quantizer, n, nnz, seconds)
        }
        _ => sparse_f32_driver(signature, n, nnz, seconds),
    }
}

const LOGISTIC_STEP: f32 = 0.05;

fn axpy_scale(dot: f32, y: f32) -> f32 {
    Loss::Logistic.axpy_scale(dot, y, LOGISTIC_STEP)
}

/// Runs `body` (processing `numbers_per_call` dataset numbers per call)
/// until `seconds` elapse; returns GNPS.
fn time_gnps<F: FnMut(u64)>(numbers_per_call: usize, seconds: f64, mut body: F) -> f64 {
    // Warm-up.
    body(0);
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        for _ in 0..8 {
            calls += 1;
            body(calls);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    (calls + 1) as f64 * numbers_per_call as f64 / elapsed / 1e9
}

fn synth_fixed<T: optimized::FixedInt>(n: usize, seed: u64) -> Vec<T> {
    let mut rng = Xorshift128::seed_from(seed);
    (0..n)
        .map(|_| T::saturate(rng.next_u32() as i8 as i64))
        .collect()
}

fn synth_f32(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = Xorshift128::seed_from(seed);
    (0..n)
        .map(|_| (rng.next_f32() * 2.0 - 1.0) * scale)
        .collect()
}

fn dense_fixed_fixed<D, M>(
    flavor: KernelFlavor,
    quantizer: QuantizerKind,
    n: usize,
    seconds: f64,
) -> f64
where
    D: optimized::FixedInt + buckwild_dataset::Element,
    M: optimized::FixedInt + buckwild_dataset::Element,
{
    let x_spec = FixedSpec::unit_range(D::BITS);
    let w_spec = FixedSpec::model_range(M::BITS);
    let examples = dense_example_count(n, STREAM_ELEMS);
    let x_all: Vec<D> = synth_fixed(n * examples, 1);
    // BitSerial streams the weaved layout instead; the one-time encode
    // happens here, outside the timed region (the layout's whole point).
    let weaved = (flavor == KernelFlavor::BitSerial).then(|| {
        let mut m = WeavedMatrix::new(examples, n, &x_spec);
        for e in 0..examples {
            m.set_row(e, &x_all[e * n..(e + 1) * n]);
        }
        m
    });
    let mut w: Vec<M> = synth_fixed(n, 2);
    let mut lanes = XorshiftLanes::<8>::seed_from(3);
    let mut scalar_rng = Xorshift128::seed_from(4);
    let mut mt = buckwild_prng::Mt19937::seed_from(7);
    time_gnps(n, seconds, move |i| {
        let e = (i as usize) % examples;
        let x = &x_all[e * n..(e + 1) * n];
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        match flavor {
            KernelFlavor::Generic => {
                let dot = generic::dot(x, &w, &x_spec, &w_spec);
                let a = axpy_scale(dot, y);
                let rounding = match quantizer {
                    QuantizerKind::Biased => buckwild_fixed::Rounding::Biased,
                    _ => buckwild_fixed::Rounding::Unbiased,
                };
                match quantizer {
                    QuantizerKind::MersenneScalar => {
                        generic::axpy(&mut w, a, x, &x_spec, &w_spec, rounding, || mt.next_f32());
                    }
                    _ => {
                        generic::axpy(&mut w, a, x, &x_spec, &w_spec, rounding, || {
                            scalar_rng.next_f32()
                        });
                    }
                }
            }
            KernelFlavor::Optimized | KernelFlavor::Proposed => {
                let dot = optimized::dot_fixed_fixed(x, &w, &x_spec, &w_spec);
                let a = axpy_scale(dot, y);
                match quantizer {
                    QuantizerKind::Biased => optimized::axpy_fixed_fixed(
                        &mut w,
                        a,
                        x,
                        &x_spec,
                        &w_spec,
                        AxpyRand::Biased,
                    ),
                    QuantizerKind::MersenneScalar => {
                        // One fresh scalar Mersenne draw per model write —
                        // the Boost-baseline quantizer of §5.2.
                        let mut f = || mt.next_f32();
                        optimized::axpy_fixed_fixed(
                            &mut w,
                            a,
                            x,
                            &x_spec,
                            &w_spec,
                            AxpyRand::Scalar(&mut f),
                        );
                    }
                    QuantizerKind::XorshiftFresh => optimized::axpy_fixed_fixed(
                        &mut w,
                        a,
                        x,
                        &x_spec,
                        &w_spec,
                        AxpyRand::FreshLanes(&mut lanes),
                    ),
                    QuantizerKind::XorshiftShared => {
                        let block = lanes.step();
                        optimized::axpy_fixed_fixed(
                            &mut w,
                            a,
                            x,
                            &x_spec,
                            &w_spec,
                            AxpyRand::Shared(&block),
                        );
                    }
                }
            }
            KernelFlavor::BitSerial => {
                let xw = weaved.as_ref().expect("weaved outside the loop").row(e);
                let dot = weave::dot_fixed(xw, &w, D::BITS, &w_spec);
                let a = axpy_scale(dot, y);
                match quantizer {
                    QuantizerKind::Biased => {
                        weave::axpy_fixed(&mut w, a, xw, D::BITS, &w_spec, AxpyRand::Biased);
                    }
                    QuantizerKind::MersenneScalar => {
                        let mut f = || mt.next_f32();
                        weave::axpy_fixed(
                            &mut w,
                            a,
                            xw,
                            D::BITS,
                            &w_spec,
                            AxpyRand::Scalar(&mut f),
                        );
                    }
                    QuantizerKind::XorshiftFresh => {
                        weave::axpy_fixed(
                            &mut w,
                            a,
                            xw,
                            D::BITS,
                            &w_spec,
                            AxpyRand::FreshLanes(&mut lanes),
                        );
                    }
                    QuantizerKind::XorshiftShared => {
                        let block = lanes.step();
                        weave::axpy_fixed(
                            &mut w,
                            a,
                            xw,
                            D::BITS,
                            &w_spec,
                            AxpyRand::Shared(&block),
                        );
                    }
                }
            }
        }
    })
}

/// Measures truncated weaved serving: the dataset is woven once at
/// `master_bits` and every iteration reads only the top `served_bits`
/// planes (dot + AXPY) — the any-precision serving mode the MLWeaving
/// layout exists for. No re-encode ever happens inside the timed region.
///
/// # Panics
///
/// Panics if `served_bits` is 0 or exceeds `master_bits`, or if
/// `master_bits` is not 8 or 16.
#[must_use]
pub fn measure_weaved_truncated(n: usize, master_bits: u32, served_bits: u32, seconds: f64) -> f64 {
    assert!(
        master_bits == 8 || master_bits == 16,
        "master precision must be 8 or 16"
    );
    assert!(
        served_bits >= 1 && served_bits <= master_bits,
        "served precision out of range"
    );
    let x_spec = FixedSpec::unit_range(master_bits);
    let w_spec = FixedSpec::model_range(16);
    let examples = dense_example_count(n, STREAM_ELEMS);
    let x_all: Vec<i16> = synth_fixed(n * examples, 1);
    let mut matrix = WeavedMatrix::new(examples, n, &x_spec);
    for e in 0..examples {
        matrix.set_row(e, &x_all[e * n..(e + 1) * n]);
    }
    let mut w: Vec<i16> = synth_fixed(n, 2);
    time_gnps(n, seconds, move |i| {
        let e = (i as usize) % examples;
        let x = matrix.row(e);
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let dot = weave::dot_fixed(x, &w, served_bits, &w_spec);
        let a = axpy_scale(dot, y);
        weave::axpy_fixed(&mut w, a, x, served_bits, &w_spec, AxpyRand::Biased);
    })
}

fn dense_f32_f32(flavor: KernelFlavor, n: usize, seconds: f64) -> f64 {
    let spec = FixedSpec::unit_range(32);
    let examples = dense_example_count(n, STREAM_ELEMS);
    let x_all = synth_f32(n * examples, 1, 1.0);
    let mut w = synth_f32(n, 2, 0.01);
    time_gnps(n, seconds, move |i| {
        let e = (i as usize) % examples;
        let x = &x_all[e * n..(e + 1) * n];
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        match flavor {
            KernelFlavor::Generic => {
                let dot = generic::dot(x, &w, &spec, &spec);
                let a = axpy_scale(dot, y);
                generic::axpy(
                    &mut w,
                    a,
                    x,
                    &spec,
                    &spec,
                    buckwild_fixed::Rounding::Biased,
                    || 0.0,
                );
            }
            _ => {
                let dot = optimized::dot_f32_f32(x, &w);
                let a = axpy_scale(dot, y);
                optimized::axpy_f32_f32(&mut w, a, x);
            }
        }
    })
}

fn dense_fixed_f32<D>(flavor: KernelFlavor, n: usize, seconds: f64) -> f64
where
    D: optimized::FixedInt + buckwild_dataset::Element,
{
    let x_spec = FixedSpec::unit_range(D::BITS);
    let examples = dense_example_count(n, STREAM_ELEMS);
    let x_all: Vec<D> = synth_fixed(n * examples, 1);
    let mut w = synth_f32(n, 2, 0.01);
    let w_spec = FixedSpec::unit_range(32);
    time_gnps(n, seconds, move |i| {
        let e = (i as usize) % examples;
        let x = &x_all[e * n..(e + 1) * n];
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        match flavor {
            KernelFlavor::Generic => {
                let dot = generic::dot(x, &w, &x_spec, &w_spec);
                let a = axpy_scale(dot, y);
                generic::axpy(
                    &mut w,
                    a,
                    x,
                    &x_spec,
                    &w_spec,
                    buckwild_fixed::Rounding::Biased,
                    || 0.0,
                );
            }
            _ => {
                let dot = optimized::dot_fixed_f32(x, &w, &x_spec);
                let a = axpy_scale(dot, y);
                optimized::axpy_fixed_f32(&mut w, a, x, &x_spec);
            }
        }
    })
}

fn dense_f32_fixed<M>(flavor: KernelFlavor, quantizer: QuantizerKind, n: usize, seconds: f64) -> f64
where
    M: optimized::FixedInt + buckwild_dataset::Element,
{
    let x_spec = FixedSpec::unit_range(32);
    let w_spec = FixedSpec::model_range(M::BITS);
    let examples = dense_example_count(n, STREAM_ELEMS);
    let x_all = synth_f32(n * examples, 1, 1.0);
    let mut w: Vec<M> = synth_fixed(n, 2);
    let mut lanes = XorshiftLanes::<8>::seed_from(3);
    let mut scalar_rng = Xorshift128::seed_from(4);
    time_gnps(n, seconds, move |i| {
        let e = (i as usize) % examples;
        let x = &x_all[e * n..(e + 1) * n];
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        match flavor {
            KernelFlavor::Generic => {
                let dot = generic::dot(x, &w, &x_spec, &w_spec);
                let a = axpy_scale(dot, y);
                let rounding = match quantizer {
                    QuantizerKind::Biased => buckwild_fixed::Rounding::Biased,
                    _ => buckwild_fixed::Rounding::Unbiased,
                };
                generic::axpy(&mut w, a, x, &x_spec, &w_spec, rounding, || {
                    scalar_rng.next_f32()
                });
            }
            _ => {
                let dot = optimized::dot_f32_fixed(x, &w, &w_spec);
                let a = axpy_scale(dot, y);
                match quantizer {
                    QuantizerKind::Biased => {
                        optimized::axpy_f32_fixed(&mut w, a, x, &w_spec, AxpyRand::Biased);
                    }
                    _ => {
                        let block = lanes.step();
                        optimized::axpy_f32_fixed(&mut w, a, x, &w_spec, AxpyRand::Shared(&block));
                    }
                }
            }
        }
    })
}

fn synth_sparse_indices<I: buckwild_dataset::IndexElement>(
    n: usize,
    nnz: usize,
    seed: u64,
) -> Vec<I> {
    let mut rng = Xorshift128::seed_from(seed);
    let stride = n / nnz;
    (0..nnz)
        .map(|j| I::from_usize(j * stride + rng.next_below(stride as u32) as usize))
        .collect()
}

fn sparse_driver<D, I, M>(
    flavor: KernelFlavor,
    quantizer: QuantizerKind,
    n: usize,
    nnz: usize,
    seconds: f64,
) -> f64
where
    D: optimized::FixedInt + buckwild_dataset::Element,
    I: buckwild_dataset::IndexElement,
    M: optimized::FixedInt + buckwild_dataset::Element,
{
    let x_spec = FixedSpec::unit_range(D::BITS);
    let w_spec = FixedSpec::model_range(M::BITS);
    let examples = (SPARSE_STREAM_NNZ / nnz).clamp(2, 1 << 14);
    let values_all: Vec<D> = synth_fixed(nnz * examples, 1);
    let mut indices_all: Vec<I> = Vec::with_capacity(nnz * examples);
    for e in 0..examples {
        indices_all.extend(synth_sparse_indices::<I>(n, nnz, 5 + e as u64));
    }
    let mut w: Vec<M> = synth_fixed(n, 2);
    let mut lanes = XorshiftLanes::<8>::seed_from(3);
    let mut scalar_rng = Xorshift128::seed_from(4);
    time_gnps(nnz, seconds, move |i| {
        let e = (i as usize) % examples;
        let values = &values_all[e * nnz..(e + 1) * nnz];
        let indices = &indices_all[e * nnz..(e + 1) * nnz];
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        match flavor {
            KernelFlavor::Generic => {
                let dot = sparse::dot_generic(values, indices, &w, &x_spec, &w_spec);
                let a = axpy_scale(dot, y);
                let rounding = match quantizer {
                    QuantizerKind::Biased => buckwild_fixed::Rounding::Biased,
                    _ => buckwild_fixed::Rounding::Unbiased,
                };
                sparse::axpy_generic(
                    &mut w,
                    a,
                    values,
                    indices,
                    &x_spec,
                    &w_spec,
                    rounding,
                    || scalar_rng.next_f32(),
                );
            }
            KernelFlavor::BitSerial => {
                // Gathered bit-serial dot; the scatter AXPY is shared with
                // the optimized flavour (no weaved model storage).
                let dot = weave::dot_sparse_fixed(values, indices, &w, &x_spec, &w_spec);
                let a = axpy_scale(dot, y);
                match quantizer {
                    QuantizerKind::Biased => sparse::axpy_fixed_fixed(
                        &mut w,
                        a,
                        values,
                        indices,
                        &x_spec,
                        &w_spec,
                        AxpyRand::Biased,
                    ),
                    _ => {
                        let block = lanes.step();
                        sparse::axpy_fixed_fixed(
                            &mut w,
                            a,
                            values,
                            indices,
                            &x_spec,
                            &w_spec,
                            AxpyRand::Shared(&block),
                        );
                    }
                }
            }
            _ => {
                let dot = sparse::dot_fixed_fixed(values, indices, &w, &x_spec, &w_spec);
                let a = axpy_scale(dot, y);
                match quantizer {
                    QuantizerKind::Biased => sparse::axpy_fixed_fixed(
                        &mut w,
                        a,
                        values,
                        indices,
                        &x_spec,
                        &w_spec,
                        AxpyRand::Biased,
                    ),
                    _ => {
                        let block = lanes.step();
                        sparse::axpy_fixed_fixed(
                            &mut w,
                            a,
                            values,
                            indices,
                            &x_spec,
                            &w_spec,
                            AxpyRand::Shared(&block),
                        );
                    }
                }
            }
        }
    })
}

fn sparse_f32_driver(signature: &Signature, n: usize, nnz: usize, seconds: f64) -> f64 {
    // Full-precision sparse Hogwild! (D32fi32M32f) and mixed-float cases.
    assert!(
        signature.dataset().is_float() || signature.model().is_float(),
        "unhandled sparse signature {signature}"
    );
    let examples = (SPARSE_STREAM_NNZ / nnz).clamp(2, 1 << 14);
    let values_all = synth_f32(nnz * examples, 1, 1.0);
    let mut indices_all: Vec<u32> = Vec::with_capacity(nnz * examples);
    for e in 0..examples {
        indices_all.extend(synth_sparse_indices::<u32>(n, nnz, 5 + e as u64));
    }
    let mut w = synth_f32(n, 2, 0.01);
    let spec = FixedSpec::unit_range(32);
    time_gnps(nnz, seconds, move |i| {
        let e = (i as usize) % examples;
        let values = &values_all[e * nnz..(e + 1) * nnz];
        let indices = &indices_all[e * nnz..(e + 1) * nnz];
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let dot = sparse::dot_generic(values, indices, &w, &spec, &spec);
        let a = axpy_scale(dot, y);
        sparse::axpy_generic(
            &mut w,
            a,
            values,
            indices,
            &spec,
            &spec,
            buckwild_fixed::Rounding::Biased,
            || 0.0,
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(s: &str) -> Signature {
        s.parse().unwrap()
    }

    #[test]
    fn dense_measurement_produces_positive_gnps() {
        for s in ["D8M8", "D16M16", "D32fM32f", "D8M16", "D32fM8", "D8M32f"] {
            let gnps = measure_dense_t1(
                &sig(s),
                KernelFlavor::Optimized,
                QuantizerKind::XorshiftShared,
                1 << 10,
                0.02,
            );
            assert!(gnps > 0.0, "{s}: {gnps}");
        }
    }

    #[test]
    fn bitserial_measurements_produce_positive_gnps() {
        for s in ["D8M8", "D16M16", "D8M16", "D16i16M16"] {
            let gnps = if s.contains('i') {
                measure_sparse_t1(
                    &sig(s),
                    KernelFlavor::BitSerial,
                    QuantizerKind::XorshiftShared,
                    1 << 12,
                    123,
                    0.02,
                )
            } else {
                measure_dense_t1(
                    &sig(s),
                    KernelFlavor::BitSerial,
                    QuantizerKind::XorshiftShared,
                    1 << 10,
                    0.02,
                )
            };
            assert!(gnps > 0.0, "{s}: {gnps}");
        }
    }

    #[test]
    fn truncated_weaved_serving_measures_and_speeds_up() {
        let full = measure_weaved_truncated(1 << 10, 16, 16, 0.02);
        let served4 = measure_weaved_truncated(1 << 10, 16, 4, 0.02);
        assert!(full > 0.0 && served4 > 0.0);
        // Reading a quarter of the planes must not be slower than reading
        // all of them (generous slack: CI machines are noisy).
        assert!(served4 > full * 0.8, "served4 {served4} vs full {full}");
    }

    #[test]
    fn sparse_measurement_produces_positive_gnps() {
        for s in ["D8i8M8", "D16i16M16", "D32fi32M32f", "D8i8M16"] {
            let gnps = measure_sparse_t1(
                &sig(s),
                KernelFlavor::Optimized,
                QuantizerKind::XorshiftShared,
                1 << 12,
                123,
                0.02,
            );
            assert!(gnps > 0.0, "{s}: {gnps}");
        }
    }

    #[test]
    fn narrow_sparse_indices_widen_for_big_models() {
        // n = 2^12 cannot be indexed by u8; the harness must fall back.
        let gnps = measure_sparse_t1(
            &sig("D8i8M8"),
            KernelFlavor::Optimized,
            QuantizerKind::Biased,
            1 << 12,
            64,
            0.02,
        );
        assert!(gnps > 0.0);
    }
}
