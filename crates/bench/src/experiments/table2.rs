//! Table 2: base sequential throughput (GNPS) by DMGC signature.

use buckwild_dmgc::{Signature, PAPER_TABLE2};
use buckwild_kernels::cost::QuantizerKind;
use buckwild_kernels::KernelFlavor;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::{full_scale, seconds};
use crate::{measure_dense_t1, measure_sparse_t1};

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
    r
}
