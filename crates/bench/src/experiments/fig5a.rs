//! Figure 5a: statistical efficiency of the rounding-randomness strategies.
//!
//! Mersenne Twister, fresh XORSHIFT, and shared-randomness XORSHIFT all
//! produce unbiased rounding; the paper shows their convergence curves are
//! nearly indistinguishable (and all beat biased rounding at small steps).

use buckwild::{Loss, Rounding, SgdConfig};
use buckwild_dataset::generate;
use buckwild_kernels::cost::QuantizerKind;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::full_scale;

/// Trains D8M8 logistic regression under each quantizer and collects the
/// per-epoch loss trajectories.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig5a",
        "Statistical efficiency of rounding strategies (D8M8 logistic regression)",
    );
    let (n, m) = if full_scale() { (256, 4000) } else { (64, 800) };
    let epochs = 8;
    r.meta("features", n);
    r.meta("examples", m);
    let problem = generate::logistic_dense(n, m, 17);
    let strategies: Vec<(&str, QuantizerKind, Rounding)> = vec![
        ("biased", QuantizerKind::Biased, Rounding::Biased),
        ("mt19937", QuantizerKind::MersenneScalar, Rounding::Unbiased),
        ("xorshift", QuantizerKind::XorshiftFresh, Rounding::Unbiased),
        ("shared", QuantizerKind::XorshiftShared, Rounding::Unbiased),
    ];
    let columns: Vec<String> = (1..=epochs).map(|e| format!("ep{e}")).collect();
    let mut losses = Series::new(
        "loss by epoch",
        "strategy",
        columns
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .as_slice(),
    );
    let mut finals = Vec::new();
    for (name, kind, rounding) in strategies {
        let report = SgdConfig::new(Loss::Logistic)
            .signature("D8M8".parse().expect("static"))
            .quantizer(kind)
            .rounding(rounding)
            .step_size(0.1)
            .step_decay(0.9)
            .epochs(epochs)
            .seed(4)
            .train(&problem.data)
            .expect("valid config");
        losses.push_row(name, report.epoch_losses());
        finals.push((name, report.final_loss()));
    }
    r.push_series(losses);
    let unbiased: Vec<f64> = finals
        .iter()
        .filter(|(n, _)| *n != "biased")
        .map(|(_, l)| *l)
        .collect();
    let spread = unbiased.iter().cloned().fold(f64::MIN, f64::max)
        - unbiased.iter().cloned().fold(f64::MAX, f64::min);
    r.scalar("unbiased.spread", spread);
    r.note(format!(
        "spread between unbiased strategies: {spread:.4} \
         (paper: the three unbiased quantizers are statistically indistinguishable)"
    ));
    r
}
