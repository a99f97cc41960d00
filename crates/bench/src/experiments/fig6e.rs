//! Figure 6e: mini-batch size vs statistical efficiency.
//!
//! Unlike the other optimizations, mini-batching can cost statistical
//! efficiency: each model write uses gradients that are `B` examples stale.
//! The paper measures logistic-regression quality as `B` grows to decide
//! how large `B` can be set safely.

use buckwild::{Loss, SgdConfig};
use buckwild_dataset::generate;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::full_scale;

/// Trains at several mini-batch sizes and collects loss trajectories.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig6e",
        "Mini-batch size vs statistical efficiency (D8M8 logistic regression)",
    );
    let (n, m) = if full_scale() { (256, 4000) } else { (64, 800) };
    let epochs = 8;
    r.meta("features", n);
    r.meta("examples", m);
    let problem = generate::logistic_dense(n, m, 29);
    let batches = [1usize, 4, 16, 64, 256];
    let columns: Vec<String> = (1..=epochs).map(|e| format!("ep{e}")).collect();
    let mut losses = Series::new(
        "loss by epoch",
        "mini-batch",
        columns
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .as_slice(),
    );
    let mut finals = Vec::new();
    for &b in &batches {
        let report = SgdConfig::new(Loss::Logistic)
            .signature("D8M8".parse().expect("static"))
            .minibatch(b)
            .step_size(0.3)
            .step_decay(0.85)
            .epochs(epochs)
            .seed(5)
            .train(&problem.data)
            .expect("valid config");
        losses.push_row(format!("B = {b}"), report.epoch_losses());
        finals.push((b, report.final_loss()));
    }
    r.push_series(losses);
    let (b1, l1) = finals[0];
    for &(b, l) in &finals[1..] {
        if l > l1 + 0.05 {
            r.note(format!(
                "B = {b} degrades final loss by {:.3} vs B = {b1} — statistical cost kicks in",
                l - l1
            ));
        }
    }
    r.note(
        "paper: accuracy degrades for very large mini-batches; an empirical analysis \
         is needed to pick B",
    );
    r
}
