//! Figure 6d: mini-batch size vs throughput.
//!
//! Larger mini-batches amortize the cache-invalidation cost of writing a
//! small shared model: the model is written once per `B` examples, so
//! small-model throughput approaches large-model throughput as `B` grows.

use buckwild::{Loss, SgdConfig};
use buckwild_dataset::generate;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::full_scale;

fn throughput(n: usize, m: usize, b: usize, threads: usize) -> f64 {
    let problem = generate::logistic_dense(n, m, 23);
    SgdConfig::new(Loss::Logistic)
        .signature("D8M8".parse().expect("static"))
        .minibatch(b)
        .threads(threads)
        .epochs(2)
        .record_losses(false)
        .train(&problem.data)
        .expect("valid config")
        .gnps()
}

/// Sweeps mini-batch size across model sizes with 2 async workers.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig6d",
        "Mini-batch size vs training throughput (D8M8, GNPS)",
    );
    let threads = 2;
    let batches = [1usize, 4, 16, 64, 256];
    let sizes: Vec<usize> = if full_scale() {
        vec![1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16]
    } else {
        vec![1 << 8, 1 << 10, 1 << 12, 1 << 14]
    };
    r.meta("threads", threads);
    let columns: Vec<String> = batches.iter().map(|b| format!("B={b}")).collect();
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
        let m = ((1 << 21) / n).max(512);
        let cells: Vec<f64> = batches
            .iter()
            .map(|&b| throughput(n, m, b, threads))
            .collect();
        table.push_row(format!("n = 2^{}", n.trailing_zeros()), &cells);
    }
    r.push_series(table);
    // Attach one run's raw telemetry so the JSON document carries the
    // engine's own accounting (iterations, round events, epoch seconds).
    let problem = generate::logistic_dense(sizes[0], 512, 23);
    let report = SgdConfig::new(Loss::Logistic)
        .signature("D8M8".parse().expect("static"))
        .minibatch(batches[0])
        .threads(threads)
        .epochs(2)
        .record_losses(false)
        .train(&problem.data)
        .expect("valid config");
    r.attach_snapshot("telemetry.", report.metrics());
    r.note(
        "paper: for large mini-batches, small-model throughput approaches large-model \
         throughput — mini-batching raises the parallelizable fraction p",
    );
    r
}
