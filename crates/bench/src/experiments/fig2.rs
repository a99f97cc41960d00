//! Figure 2: throughput bounds as the model size changes.
//!
//! Small models are **communication-bound** (frequent invalidations of the
//! few shared cache lines); large models are **bandwidth-bound**. The
//! paper's dashed line marks models too large for the L3. We show both the
//! measured single-thread curve on this host and the calibrated
//! performance model's 18-thread prediction, whose shape is the figure.

use buckwild_dmgc::{PerfModel, Signature};
use buckwild_kernels::cost::QuantizerKind;
use buckwild_kernels::KernelFlavor;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::{full_scale, seconds};
use crate::measure_dense_t1;

/// Measures throughput vs model size for D8M8, with the perf-model regimes.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig2", "Throughput bounds vs model size (D8M8 dense)");
    let sig: Signature = "D8M8".parse().expect("static");
    let model = PerfModel::paper_xeon();
    let max_log = if full_scale() { 26 } else { 22 };
    let secs = seconds();
    r.meta("signature", sig);
    r.meta("seconds/point", format!("{secs:.2}"));
    let mut curve = Series::new(
        "throughput",
        "model size",
        &["host-1t", "model-18t", "p(n)", "regime"],
    );
    for log_n in (8..=max_log).step_by(2) {
        let n = 1usize << log_n;
        let host = measure_dense_t1(
            &sig,
            KernelFlavor::Optimized,
            QuantizerKind::XorshiftShared,
            n,
            secs,
        );
        let predicted = model.predict(&sig, n, 18).expect("calibrated");
        let p = model.amdahl().parallel_fraction(n);
        let regime = if p > 0.9 { 1.0 } else { 0.0 }; // 1 = bandwidth-bound
        curve.push_row(format!("n = 2^{log_n}"), &[host, predicted, p, regime]);
    }
    r.push_series(curve);
    r.note("regime column: 1 = bandwidth-bound, 0 = communication-bound (p <= 0.9)");
    r.note(
        "paper: throughput flattens above ~256K elements (bandwidth bound); small models \
         lose nearly an order of magnitude to invalidation latency at 18 threads",
    );
    r
}
