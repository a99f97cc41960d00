//! Figure 6c: the obstinate cache in the architectural simulator.
//!
//! The paper's ZSim experiment: an 18-core MESI machine shows a slowdown
//! from invalidations as the model shrinks; randomly ignoring invalidates
//! with probability `q` (the obstinate cache) recovers it — "for values of
//! q around 50%, the cost of running with a small model disappears."

use buckwild_cachesim::{Machine, SgdWorkload, SimConfig};
use buckwild_telemetry::{ExperimentResult, Recorder, Series, ShardedRecorder};

use crate::experiments::full_scale;

/// Sweeps obstinacy q against model size on the simulated machine.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig6c",
        "Obstinate cache q-sweep (simulated MESI machine, GNPS at 2.5 GHz)",
    );
    let cores = if full_scale() { 18 } else { 8 };
    let iters = if full_scale() { 12 } else { 6 };
    let sizes: Vec<usize> = if full_scale() {
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
    } else {
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    let qs = [0.0, 0.25, 0.5, 0.75, 0.95];
    r.meta("workload", "dense D8M8");
    r.meta("cores", cores);
    r.meta("iterations/core", iters);
    let columns: Vec<String> = qs.iter().map(|q| format!("q={q}")).collect();
    let mut table = Series::new(
        "throughput",
        "model size",
        columns
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .as_slice(),
    );
    for &n in &sizes {
        let workload = SgdWorkload::dense(n, 1, iters);
        let cells: Vec<f64> = qs
            .iter()
            .map(|&q| {
                Machine::new(SimConfig::paper_xeon(cores).with_obstinacy(q))
                    .run(&workload)
                    .gnps(2.5)
            })
            .collect();
        table.push_row(format!("n = 2^{}", n.trailing_zeros()), &cells);
    }
    r.push_series(table);
    // Summarize the recovery at the smallest model.
    let n = sizes[0];
    let workload = SgdWorkload::dense(n, 1, iters);
    let base = Machine::new(SimConfig::paper_xeon(cores)).run(&workload);
    let obst_recorder = ShardedRecorder::new(1);
    let obst = Machine::new(SimConfig::paper_xeon(cores).with_obstinacy(0.5))
        .run_with(&workload, &obst_recorder);
    // Full per-level counters for the q=0.5 run, via the simulator's
    // telemetry hook.
    r.attach_snapshot("telemetry.q0.5.", &obst_recorder.snapshot());
    let recovery = obst.throughput_numbers_per_cycle() / base.throughput_numbers_per_cycle();
    r.scalar("recovery.q0.5", recovery);
    r.scalar(
        "invalidates_honored.q0",
        (base.invalidates_sent - base.invalidates_ignored) as f64,
    );
    r.scalar(
        "invalidates_honored.q0.5",
        (obst.invalidates_sent - obst.invalidates_ignored) as f64,
    );
    r.note(format!(
        "smallest model: q=0.5 recovers {:.2}x throughput; invalidates honored drop \
         from {} to {}",
        recovery,
        base.invalidates_sent - base.invalidates_ignored,
        obst.invalidates_sent - obst.invalidates_ignored,
    ));
    r
}
