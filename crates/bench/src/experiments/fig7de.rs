//! Figure 7d/7e: kernel SVM with random Fourier features.
//!
//! Ten one-versus-all SVMs over RFF-lifted digits; the paper's finding:
//! D16M16 matches full precision, D8M8 is within a percent, and the
//! low-precision versions run 3.3x / 5.9x faster.

use std::time::Instant;

use buckwild::rff::{OneVsAll, RffMap};
use buckwild::{Loss, SgdConfig};
use buckwild_dataset::{ImageDataset, ImageShape};
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::full_scale;

/// Trains the one-vs-all RFF SVM at each precision; collects train loss,
/// test error, and wall time.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig7de",
        "Kernel SVM via random Fourier features (one-vs-all, synthetic digits)",
    );
    let (shape, classes, per_class, rff_dims, epochs) = if full_scale() {
        (ImageShape::MNIST, 10, 60, 512, 8)
    } else {
        (
            ImageShape {
                height: 10,
                width: 10,
                channels: 1,
            },
            8,
            24,
            256,
            10,
        )
    };
    let data = ImageDataset::generate(shape, classes, per_class, 0.42, 13);
    let (train, test) = data.split(0.8);
    r.meta("train images", train.len());
    r.meta("test images", test.len());
    r.meta("classes", classes);
    r.meta("fourier features", rff_dims);
    let mut table = Series::new(
        "precision sweep",
        "signature",
        &["train loss", "test err", "seconds", "speedup"],
    );
    let mut full_time = None;
    for sig in ["D32fM32f", "D16M16", "D8M8"] {
        let config = SgdConfig::new(Loss::Hinge)
            .signature(sig.parse().expect("static"))
            .step_size(0.1)
            .step_decay(0.9)
            .epochs(epochs)
            .record_losses(true)
            .seed(14);
        let map = RffMap::sample(shape.len(), rff_dims, 0.1, 15);
        let start = Instant::now();
        let ova = OneVsAll::train(map, &train, &config).expect("valid config");
        let elapsed = start.elapsed().as_secs_f64();
        let mean_loss = ova.train_losses.iter().sum::<f64>() / ova.train_losses.len() as f64;
        let err = ova.test_error(&test);
        let speedup = match full_time {
            None => {
                full_time = Some(elapsed);
                1.0
            }
            Some(t0) => t0 / elapsed,
        };
        table.push_row(sig, &[mean_loss, err, elapsed, speedup]);
    }
    r.push_series(table);
    r.note(
        "paper: 16-bit matches full precision, 8-bit is within a percent; \
         16/8-bit ran 3.3x/5.9x faster on the Xeon (our speedups are smaller because \
         training time here includes the f32 RFF transform)",
    );
    r
}
