//! Chaos sweep: convergence under injected faults, fully seeded.
//!
//! Runs the deterministic chaos engine (`buckwild::ChaosSgdConfig`) over a
//! write-drop-rate sweep — the obstinate cache's ignored invalidates taken
//! to the write side — plus a bounded-staleness regime (skew + delayed
//! writes) and a mid-epoch crash recovered from checkpoint. Every number
//! in the document is a pure function of the seed: two runs with the same
//! `--seed` emit byte-identical JSON, which CI exploits as a determinism
//! smoke check.

use buckwild::{ChaosSgdConfig, FaultPlan, Loss};
use buckwild_dataset::generate;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::full_scale;

/// Default schedule seed (override with `--seed`).
pub const DEFAULT_SEED: u64 = 7;

/// Convergence vs injected fault intensity at the given schedule seed.
#[must_use]
pub fn result(seed: u64) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "chaos_sweep",
        "Convergence under injected faults (deterministic chaos engine)",
    );
    let (n, m) = if full_scale() { (256, 4000) } else { (64, 800) };
    r.meta("features", n);
    r.meta("examples", m);
    r.meta("seed", seed);
    let problem = generate::logistic_dense(n, m, 31);
    let epochs = 8;
    let threads = 4;
    let config = |plan: FaultPlan| {
        ChaosSgdConfig::new(Loss::Logistic, plan)
            .threads(threads)
            .epochs(epochs)
    };

    // Write-drop sweep: convergence vs the fraction of shared-model
    // writes that never land.
    let columns: Vec<String> = (1..=epochs).map(|e| format!("ep{e}")).collect();
    let mut losses = Series::new(
        "loss by epoch",
        "drop rate",
        columns
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .as_slice(),
    );
    let rates = [0.0, 0.25, 0.5, 0.75, 0.9];
    let mut clean_final = f64::NAN;
    for &rate in &rates {
        let report = config(FaultPlan::new(seed).drop_writes(rate))
            .train(&problem.data)
            .expect("valid config");
        losses.push_row(format!("drop = {rate}"), report.epoch_losses());
        if rate == 0.0 {
            clean_final = report.final_loss();
        }
        r.scalar(&format!("final_loss.drop_{rate}"), report.final_loss());
        r.scalar(
            &format!("dropped_writes.drop_{rate}"),
            report.dropped_writes() as f64,
        );
    }
    r.push_series(losses);

    // Bounded-staleness regime: a 4x-skewed straggler plus delayed writes.
    let stale = config(
        FaultPlan::new(seed)
            .skew(threads - 1, 4)
            .delay_writes(0.5, 6),
    )
    .train(&problem.data)
    .expect("valid config");
    r.scalar("staleness.final_loss", stale.final_loss());
    r.scalar("staleness.mean_write_ticks", stale.mean_write_staleness());
    r.scalar("staleness.mean_progress_lag", stale.mean_progress_lag());
    r.scalar("staleness.delayed_writes", stale.delayed_writes() as f64);

    // Crash recovery: a worker dies mid-epoch, the run rolls back to the
    // epoch-start checkpoint and must still land near the clean loss.
    let crashed = config(FaultPlan::new(seed).crash(1, epochs / 2, (m / threads / 2) as u64))
        .train(&problem.data)
        .expect("valid config");
    r.scalar("recovery.final_loss", crashed.final_loss());
    r.scalar("recovery.recoveries", crashed.recoveries() as f64);
    r.scalar(
        "recovery.replayed_iterations",
        crashed.replayed_iterations() as f64,
    );
    r.note(format!(
        "crash at epoch {} recovered from checkpoint: final loss {:.4} vs clean {:.4}",
        epochs / 2,
        crashed.final_loss(),
        clean_final
    ));
    r.note(format!(
        "seed {seed}: every value above is deterministic — rerunning with the \
         same --seed reproduces this document byte-for-byte"
    ));
    r
}
