//! Figure 5c: hypothetical 4-bit (D4M4) SGD vs D8M8.
//!
//! AVX2 has no 4-bit arithmetic, so like the paper we evaluate D4M4 with a
//! proxy: the packed-nibble kernels compute the true 4-bit arithmetic, and
//! the instruction-count cost model charges them 8-bit latencies with
//! doubled lane width (§6.1 methodology).

use buckwild_dmgc::Signature;
use buckwild_fixed::{FixedSpec, NibbleVec};
use buckwild_kernels::cost::{estimate_gnps, QuantizerKind};
use buckwild_kernels::{nibble, AxpyRand, KernelFlavor};
use buckwild_prng::XorshiftLanes;
use buckwild_telemetry::{ExperimentResult, Series};
use std::time::Instant;

use crate::experiments::seconds;

/// Measured throughput of the packed-nibble reference kernels (these are
/// *functional* 4-bit kernels on 8-bit hardware, so they are slower than
/// real 4-bit SIMD would be; the cost model provides the timing estimate).
fn measure_nibble_gnps(n: usize, secs: f64) -> f64 {
    let x_spec = FixedSpec::new(4, 3).expect("static");
    let w_spec = FixedSpec::new(4, 1).expect("static");
    let x: NibbleVec = (0..n).map(|i| ((i * 7) % 15) as i8 - 7).collect();
    let mut w = NibbleVec::zeros(n);
    let mut lanes = XorshiftLanes::<8>::seed_from(1);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_secs_f64() < secs {
        let dot = nibble::dot_i4_i4(&x, &w, &x_spec, &w_spec);
        let a = 0.05 * (1.0 - dot).clamp(-1.0, 1.0);
        let block = lanes.step();
        nibble::axpy_i4_i4(&mut w, a, &x, &x_spec, &w_spec, AxpyRand::Shared(&block));
        iters += 1;
    }
    iters as f64 * n as f64 / start.elapsed().as_secs_f64() / 1e9
}

/// Builds the cost-model D4M4-vs-D8M8 comparison plus the functional
/// nibble-kernel throughput.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig5c", "Hypothetical D4M4 vs D8M8 (proxy cost model)");
    let d4: Signature = "D4M4".parse().expect("static");
    let d8: Signature = "D8M8".parse().expect("static");
    let mut table = Series::new("estimates", "signature", &["xeon-est"]);
    let e4 = estimate_gnps(&d4, KernelFlavor::Optimized, QuantizerKind::XorshiftShared);
    let e8 = estimate_gnps(&d8, KernelFlavor::Optimized, QuantizerKind::XorshiftShared);
    table.push_row("D4M4", &[e4]);
    table.push_row("D8M8", &[e8]);
    r.push_series(table);
    r.scalar("speedup.d4m4", e4 / e8);
    r.note(format!(
        "estimated D4M4 speedup over D8M8: {:.2}x (paper: ~2x)",
        e4 / e8
    ));
    let functional = measure_nibble_gnps(1 << 14, seconds());
    r.scalar("gnps.nibble_functional", functional);
    r.note(format!(
        "functional packed-nibble kernel on this host: {functional:.4} GNPS \
         (reference arithmetic only — real 4-bit SIMD would be ~2x D8M8)"
    ));
    r
}
