//! Figure 5b: hardware efficiency of the rounding-randomness strategies.

use buckwild_dmgc::Signature;
use buckwild_kernels::cost::{estimate_gnps, QuantizerKind};
use buckwild_kernels::KernelFlavor;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::{full_scale, seconds};
use crate::measure_dense_t1;

/// Measures D8M8 iteration throughput under each quantizer strategy, with
/// the cost model's Xeon estimate alongside.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig5b",
        "Hardware efficiency of rounding strategies (D8M8 dense, GNPS)",
    );
    let sig: Signature = "D8M8".parse().expect("static");
    let secs = seconds();
    let sizes: Vec<usize> = if full_scale() {
        vec![1 << 12, 1 << 16, 1 << 20]
    } else {
        vec![1 << 12, 1 << 16]
    };
    r.meta("signature", sig);
    r.meta("seconds/point", format!("{secs:.2}"));
    let columns: Vec<String> = sizes
        .iter()
        .map(|n| format!("n=2^{}", n.trailing_zeros()))
        .chain(std::iter::once("xeon-est".into()))
        .collect();
    let mut table = Series::new(
        "throughput",
        "strategy",
        columns
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .as_slice(),
    );
    for kind in QuantizerKind::ALL {
        let mut cells: Vec<f64> = sizes
            .iter()
            .map(|&n| measure_dense_t1(&sig, KernelFlavor::Optimized, kind, n, secs))
            .collect();
        cells.push(estimate_gnps(&sig, KernelFlavor::Optimized, kind));
        table.push_row(kind.to_string(), &cells);
    }
    r.push_series(table);
    r.note(
        "paper: per-write Mersenne Twister dominates the cost of 8-bit SGD; shared \
         randomness amortizes the PRNG to match biased rounding's throughput",
    );
    r
}
