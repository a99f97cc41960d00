//! Figure 6f: statistical efficiency under the obstinate cache.
//!
//! The staleness process the obstinate cache induces — workers keep serving
//! stale model lines whose invalidates were ignored with probability `q` —
//! is emulated in software here by the `obstinacy` knob of the chaos
//! engine's `FaultPlan` (the engine trains at full precision, isolating
//! staleness from quantization). The paper's finding: "no detectable
//! effect on statistical efficiency, even when q is as high as 95%."

use buckwild::{ChaosSgdConfig, FaultPlan, Loss};
use buckwild_dataset::generate;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::full_scale;

/// Trains with emulated obstinacy at several q values.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig6f",
        "Obstinate-cache statistical efficiency (emulated staleness)",
    );
    let (n, m) = if full_scale() { (256, 4000) } else { (64, 800) };
    r.meta("features", n);
    r.meta("examples", m);
    let problem = generate::logistic_dense(n, m, 31);
    let qs = [0.0, 0.25, 0.5, 0.75, 0.95];
    let epochs = 8;
    let columns: Vec<String> = (1..=epochs).map(|e| format!("ep{e}")).collect();
    let mut losses = Series::new(
        "loss by epoch",
        "obstinacy",
        columns
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .as_slice(),
    );
    let mut finals = Vec::new();
    for &q in &qs {
        let report = ChaosSgdConfig::new(Loss::Logistic, FaultPlan::new(6).obstinacy(q))
            .threads(2)
            .step_size(0.3)
            .step_decay(0.9)
            .epochs(epochs)
            .train(&problem.data)
            .expect("valid config");
        losses.push_row(format!("q = {q}"), report.epoch_losses());
        finals.push(report.final_loss());
    }
    r.push_series(losses);
    let spread = finals.iter().cloned().fold(f64::MIN, f64::max)
        - finals.iter().cloned().fold(f64::MAX, f64::min);
    r.scalar("final_loss.spread", spread);
    r.note(format!(
        "final-loss spread across q in [0, 0.95]: {spread:.4} \
         (paper: no detectable effect up to q = 95%)"
    ));
    r
}
