//! Figure 3: measured vs model-predicted throughput.
//!
//! The paper's validation: a model with only per-signature base throughputs
//! `T1` and a model-size-dependent parallel fraction `p(n)` predicts 90% of
//! configurations within 50%. We recalibrate `T1` per signature from this
//! host's single-thread measurements, fit `p(n)` from multi-thread
//! training-engine runs, and report the same hit rate.

use buckwild::{Loss, SgdConfig};
use buckwild_dataset::generate;
use buckwild_dmgc::{AmdahlParams, PerfModel, Signature};
use buckwild_kernels::cost::QuantizerKind;
use buckwild_kernels::KernelFlavor;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::{full_scale, seconds};
use crate::measure_dense_t1;

fn measure_train_gnps(sig: &Signature, n: usize, m: usize, threads: usize) -> f64 {
    let problem = generate::logistic_dense(n, m, 99);
    let report = SgdConfig::new(Loss::Logistic)
        .signature(*sig)
        .threads(threads)
        .epochs(2)
        .record_losses(false)
        .train(&problem.data)
        .expect("valid config");
    report.gnps()
}

/// Compares measured and predicted throughput across threads, sizes, and
/// signatures.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig3", "Measured vs predicted dataset throughput (GNPS)");
    let signatures: Vec<Signature> = ["D8M8", "D16M16", "D32fM32f"]
        .iter()
        .map(|s| s.parse().expect("static"))
        .collect();
    let sizes: Vec<usize> = if full_scale() {
        vec![1 << 10, 1 << 14, 1 << 18, 1 << 22]
    } else {
        vec![1 << 10, 1 << 14, 1 << 16]
    };
    let threads = [1usize, 2];
    let secs = seconds();

    // Calibrate T1 per signature from the training engine itself (1 thread)
    // so engine overheads are part of the baseline the model scales.
    let mut model = PerfModel::new(AmdahlParams::paper_xeon());
    let calibration_n = 1 << 14;
    let mut calibration = Series::new("calibration", "signature", &["engine-t1", "kernel-t1"]);
    for sig in &signatures {
        let m = (1 << 22) / calibration_n;
        let t1 = measure_train_gnps(sig, calibration_n, m.max(16), 1);
        model.calibrate(sig, t1);
        // Also record the raw kernel T1 for context.
        let kernel_t1 = measure_dense_t1(
            sig,
            KernelFlavor::Optimized,
            QuantizerKind::XorshiftShared,
            calibration_n,
            secs,
        );
        calibration.push_row(sig.to_string(), &[t1, kernel_t1]);
    }
    r.push_series(calibration);

    // Fit p(n) from observed 2-thread speedups.
    let mut observations = Vec::new();
    for &n in &sizes {
        let sig = signatures[0];
        let m = ((1 << 21) / n).max(8);
        let t1 = measure_train_gnps(&sig, n, m, 1);
        let t2 = measure_train_gnps(&sig, n, m, 2);
        observations.push((n, 2usize, (t2 / t1)));
    }
    if let Some(fit) = AmdahlParams::fit(&observations) {
        r.scalar("amdahl.p_bandwidth", fit.p_bandwidth);
        r.scalar("amdahl.n_comm", fit.n_comm);
        r.note(format!(
            "fitted Amdahl parameters on this host: p_bw = {:.3}, n_comm = {:.0}",
            fit.p_bandwidth, fit.n_comm
        ));
        model.set_amdahl(fit);
    }

    let mut table = Series::new("validation", "config", &["measured", "predicted", "ratio"]);
    let mut within_50 = 0usize;
    let mut total = 0usize;
    for sig in &signatures {
        for &n in &sizes {
            for &t in &threads {
                let m = ((1 << 21) / n).max(8);
                let measured = measure_train_gnps(sig, n, m, t);
                let predicted = model.predict(sig, n, t).expect("calibrated");
                let ratio = predicted / measured;
                table.push_row(
                    format!("{sig} n=2^{} t={t}", n.trailing_zeros()),
                    &[measured, predicted, ratio],
                );
                if (0.5..=1.5).contains(&ratio) {
                    within_50 += 1;
                }
                total += 1;
            }
        }
    }
    r.push_series(table);
    r.scalar("within_50", within_50 as f64);
    r.scalar("configs", total as f64);
    r.note(format!(
        "{within_50}/{total} = {:.0}% of configurations predicted within 50% \
         (paper: 90% within 50%)",
        100.0 * within_50 as f64 / total as f64
    ));
    r
}
