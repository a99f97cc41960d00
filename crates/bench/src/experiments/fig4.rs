//! Figure 4: hand-optimized SIMD-style kernels vs compiler-generic kernels.
//!
//! 4a: dense speedups by model size; 4b: sparse (where optimization can
//! even hurt for small models); 4c: average speedup per signature; `isa`:
//! the optimized dense kernels per ISA tier (§5.1's hand-vectorization
//! claim, scalar floor against explicit AVX2).

use buckwild_dmgc::Signature;
use buckwild_kernels::cost::QuantizerKind;
use buckwild_kernels::{isa, KernelFlavor, KernelIsa};
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::{full_scale, seconds};
use crate::{measure_dense_t1, measure_sparse_t1};

/// Model size of the per-ISA rungs: L1-resident, so the tiers differ in
/// arithmetic, not in memory traffic.
const ISA_N: usize = 4096;

/// The flagship dense signatures re-measured under each ISA tier up to
/// `cap`: `optimized@scalar` is the portable floor, `optimized@avx2` the
/// hand-vectorized tier. [`result`] passes the active tier, so `--isa
/// scalar` emits only the scalar rung.
fn isa_series(cap: KernelIsa, secs: f64) -> Series {
    let signatures = ["D8M8", "D16M16"];
    let mut series = Series::new("isa", "tier", &signatures);
    for tier in KernelIsa::ALL {
        if tier > cap {
            continue;
        }
        let _pin = isa::scoped(tier);
        let gnps = signatures.map(|text| {
            measure_dense_t1(
                &text.parse().expect("static"),
                KernelFlavor::Optimized,
                QuantizerKind::XorshiftShared,
                ISA_N,
                secs,
            )
        });
        series.push_row(format!("optimized@{tier}"), &gnps);
    }
    series
}

/// Measures generic vs optimized throughput and speedups.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig4",
        "Hand-optimized vs compiler-generic kernels (GNPS and speedup)",
    );
    let secs = seconds();
    let sizes: Vec<usize> = if full_scale() {
        vec![1 << 10, 1 << 14, 1 << 18, 1 << 22]
    } else {
        vec![1 << 10, 1 << 14, 1 << 18]
    };
    r.meta("seconds/point", format!("{secs:.2}"));

    let mut dense = Series::new(
        "4a dense D8M8 by model size",
        "model size",
        &["generic", "optimized", "speedup"],
    );
    let sig: Signature = "D8M8".parse().expect("static");
    for &n in &sizes {
        let generic = measure_dense_t1(
            &sig,
            KernelFlavor::Generic,
            QuantizerKind::XorshiftShared,
            n,
            secs,
        );
        let optimized = measure_dense_t1(
            &sig,
            KernelFlavor::Optimized,
            QuantizerKind::XorshiftShared,
            n,
            secs,
        );
        dense.push_row(
            format!("n = 2^{}", n.trailing_zeros()),
            &[generic, optimized, optimized / generic],
        );
    }
    r.push_series(dense);

    let mut sparse = Series::new(
        "4b sparse D8i8M8 by model size (3% density)",
        "model size",
        &["generic", "optimized", "speedup"],
    );
    let sparse_sig: Signature = "D8i8M8".parse().expect("static");
    for &n in &sizes {
        let nnz = ((n as f64 * 0.03) as usize).max(4);
        let generic = measure_sparse_t1(
            &sparse_sig,
            KernelFlavor::Generic,
            QuantizerKind::XorshiftShared,
            n,
            nnz,
            secs,
        );
        let optimized = measure_sparse_t1(
            &sparse_sig,
            KernelFlavor::Optimized,
            QuantizerKind::XorshiftShared,
            n,
            nnz,
            secs,
        );
        sparse.push_row(
            format!("n = 2^{}", n.trailing_zeros()),
            &[generic, optimized, optimized / generic],
        );
    }
    r.push_series(sparse);

    let mut per_sig = Series::new(
        "4c average dense speedup per signature (optimized / generic)",
        "signature",
        &["speedup"],
    );
    for text in ["D8M8", "D8M16", "D16M8", "D16M16", "D32fM8", "D32fM16"] {
        let s: Signature = text.parse().expect("static");
        let mut ratios = Vec::new();
        for &n in &sizes {
            let generic = measure_dense_t1(
                &s,
                KernelFlavor::Generic,
                QuantizerKind::XorshiftShared,
                n,
                secs,
            );
            let optimized = measure_dense_t1(
                &s,
                KernelFlavor::Optimized,
                QuantizerKind::XorshiftShared,
                n,
                secs,
            );
            ratios.push(optimized / generic);
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        per_sig.push_row(text, &[avg]);
    }
    r.push_series(per_sig);
    r.push_series(isa_series(isa::active(), secs));
    r.note(
        "paper: dense speedups up to 11x; sparse hand-optimization can underperform \
         for small models (which is why the paper recommends it only for dense code)",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_series_has_one_positive_rung_per_tier_up_to_the_cap() {
        let _serial = crate::isa_pin_lock();
        for cap in [KernelIsa::Scalar, isa::detected()] {
            let series = isa_series(cap, 0.005);
            let labels: Vec<&str> = series.rows.iter().map(|r| r.label.as_str()).collect();
            let expected: Vec<String> = KernelIsa::ALL
                .iter()
                .filter(|tier| **tier <= cap)
                .map(|tier| format!("optimized@{tier}"))
                .collect();
            assert_eq!(labels, expected);
            for row in &series.rows {
                assert!(row.values.iter().all(|&gnps| gnps > 0.0), "{row:?}");
            }
        }
    }
}
