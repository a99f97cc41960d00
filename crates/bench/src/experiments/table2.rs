//! Table 2: base sequential throughput (GNPS) by DMGC signature.

use buckwild_dmgc::{Signature, PAPER_TABLE2};
use buckwild_kernels::cost::{iteration_mix, CostParams, QuantizerKind};
use buckwild_kernels::KernelFlavor;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::{full_scale, seconds};
use crate::{measure_dense_t1, measure_sparse_t1, measure_weaved_truncated};

/// Any-precision serving from one weaved encoding: the dataset is woven
/// once at 16 bits and each row reads only its top planes, with the
/// all-planes `D16@16` row as the anchor.
fn truncate_series(n: usize, secs: f64) -> Series {
    let mut series = Series::new("truncate", "served@stored", &["dense", "vs-D16@16"]);
    let full = measure_weaved_truncated(n, 16, 16, secs);
    for served in [4, 8] {
        let gnps = measure_weaved_truncated(n, 16, served, secs);
        series.push_row(format!("D{served}@16"), &[gnps, gnps / full]);
    }
    series.push_row("D16@16", &[full, 1.0]);
    series
}

/// Measures the dense and sparse base throughput for every Table 2
/// signature on this host, next to the paper's Xeon numbers.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "table2",
        "Base sequential throughput by signature (GNPS); paper values from Xeon E7-8890",
    );
    let n = if full_scale() { 1 << 20 } else { 1 << 16 };
    let density = 0.03;
    let nnz = ((n as f64 * density) as usize).max(1);
    let secs = seconds();
    r.meta("dense n", n);
    r.meta("sparse nnz", format!("{nnz} (3% density)"));
    r.meta("seconds/point", format!("{secs:.2}"));

    let mut table = Series::new(
        "throughput",
        "signature",
        &["dense", "paper-d", "sparse", "paper-s"],
    );
    let mut dense_by_sig = Vec::new();
    for (text, paper_dense, paper_sparse) in PAPER_TABLE2 {
        let dense_sig: Signature = text.parse().expect("table signature");
        let sparse_sig = dense_sig.to_sparse(dense_sig.dataset_bits());
        let dense = measure_dense_t1(
            &dense_sig,
            KernelFlavor::Optimized,
            QuantizerKind::XorshiftShared,
            n,
            secs,
        );
        let sparse = measure_sparse_t1(
            &sparse_sig,
            KernelFlavor::Optimized,
            QuantizerKind::XorshiftShared,
            n,
            nnz,
            secs,
        );
        table.push_row(
            sparse_sig.to_string(),
            &[dense, paper_dense, sparse, paper_sparse],
        );
        dense_by_sig.push((text, dense));
    }
    r.push_series(table);

    // The headline shape checks from §4.
    let get = |name: &str| {
        dense_by_sig
            .iter()
            .find(|(t, _)| *t == name)
            .map(|(_, v)| *v)
            .expect("measured")
    };
    let full = get("D32fM32f");
    r.scalar("speedup.d16m16", get("D16M16") / full);
    r.scalar("speedup.d8m8", get("D8M8") / full);
    r.note(format!(
        "dense speedup over D32fM32f:  D16M16 = {:.2}x (linear bound 2x), D8M8 = {:.2}x (linear bound 4x)",
        get("D16M16") / full,
        get("D8M8") / full
    ));
    r.note(format!(
        "fastest dense signature on this host: {}",
        dense_by_sig
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(t, _)| *t)
            .unwrap_or("?")
    ));

    // The bit-serial (MLWeaving) sweep: every fixed-point signature of the
    // table re-measured on the plane-major layout, next to the cost
    // model's compute-vs-memory bound classification. Float operands have
    // no integer bit planes, so the float rows stay word-major only.
    let params = CostParams::xeon();
    let mut weaved = Series::new("bitserial", "signature", &["dense", "vs-optimized"]);
    for (text, _, _) in PAPER_TABLE2 {
        let sig: Signature = text.parse().expect("table signature");
        if sig.dataset().is_float() || sig.model().is_float() {
            continue;
        }
        let gnps = measure_dense_t1(
            &sig,
            KernelFlavor::BitSerial,
            QuantizerKind::XorshiftShared,
            n,
            secs,
        );
        weaved.push_row(text.to_string(), &[gnps, gnps / get(text)]);
        let mix = iteration_mix(&sig, KernelFlavor::BitSerial, QuantizerKind::XorshiftShared);
        let compute = mix.total_instrs() / params.issue_per_cycle;
        let memory = mix.dataset_bytes / params.bytes_per_cycle
            + params.overhead_per_32b * mix.dataset_bytes / 32.0;
        let bound = if compute >= memory {
            "compute"
        } else {
            "memory"
        };
        r.note(format!(
            "bitserial {text}: {gnps:.3} GNPS measured, {bound}-bound in the cost model \
             ({compute:.1} compute vs {memory:.1} memory cycles/element)"
        ));
    }
    r.push_series(weaved);
    r.push_series(truncate_series(n, secs));

    // The gathered bit-serial dot on the one sparse signature whose
    // 16-bit indices span the default model exactly.
    let sparse_sig: Signature = "D8i16M8".parse().expect("static");
    let sparse = |flavor| {
        measure_sparse_t1(
            &sparse_sig,
            flavor,
            QuantizerKind::XorshiftShared,
            n,
            nnz,
            secs,
        )
    };
    let bitserial = sparse(KernelFlavor::BitSerial);
    let mut weaved_sparse =
        Series::new("bitserial sparse", "signature", &["sparse", "vs-optimized"]);
    weaved_sparse.push_row(
        "D8i16M8",
        &[bitserial, bitserial / sparse(KernelFlavor::Optimized)],
    );
    r.push_series(weaved_sparse);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_series_measures_every_served_precision() {
        let series = truncate_series(1 << 10, 0.005);
        for label in ["D4@16", "D8@16"] {
            let row = series
                .rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("{label} missing from {series:?}"));
            assert!(row.values.iter().all(|&v| v > 0.0), "{row:?}");
        }
    }
}
