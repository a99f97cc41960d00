//! Figure 7b: LeNet test error vs model precision.
//!
//! The paper modified Mocha to simulate arbitrary-bit-width training and
//! found 16-bit indistinguishable from full precision — and, surprisingly,
//! that training remains accurate *below* 8 bits with unbiased rounding.
//! We run the same sweep on a LeNet-shaped CNN over synthetic digits
//! (MNIST is unavailable offline; see DESIGN.md).

use buckwild::Rounding;
use buckwild_dataset::{ImageDataset, ImageShape};
use buckwild_nn::{lenet, WeightQuantizer};
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::full_scale;

/// Trains the CNN at each weight precision and collects test error.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig7b",
        "CNN test error vs model precision (synthetic digits)",
    );
    let (shape, classes, per_class, epochs) = if full_scale() {
        (ImageShape::MNIST, 10, 40, 6)
    } else {
        (
            ImageShape {
                height: 12,
                width: 12,
                channels: 1,
            },
            4,
            30,
            8,
        )
    };
    let data = ImageDataset::generate(shape, classes, per_class, 0.15, 11);
    let (train, test) = data.split(0.8);
    r.meta("train images", train.len());
    r.meta("test images", test.len());
    r.meta("image", format!("{}x{}", shape.height, shape.width));
    r.meta("classes", classes);

    let build = || {
        if full_scale() {
            lenet::lenet5(classes, 3)
        } else {
            lenet::tiny(shape.height, shape.width, shape.channels, classes, 3)
        }
    };

    let mut table = Series::new("test error", "model bits", &["biased err", "unbiased err"]);
    let mut quantizers: Vec<(String, Vec<WeightQuantizer>)> = Vec::new();
    for bits in [6u32, 8, 10, 12, 16] {
        quantizers.push((
            format!("{bits}"),
            vec![
                WeightQuantizer::fixed(bits, Rounding::Biased, 9),
                WeightQuantizer::fixed(bits, Rounding::Unbiased, 9),
            ],
        ));
    }
    quantizers.push((
        "32f".into(),
        vec![
            WeightQuantizer::full_precision(),
            WeightQuantizer::full_precision(),
        ],
    ));

    let mut low_bits_unbiased_err = f64::NAN;
    let mut full_err = f64::NAN;
    for (label, quants) in &mut quantizers {
        let mut cells = Vec::new();
        for quant in quants {
            let mut net = build();
            let _ = net.train(&train, epochs, 4, 0.25, quant);
            cells.push(net.test_error(&test));
        }
        if label == "6" {
            low_bits_unbiased_err = cells[1];
        }
        if label == "32f" {
            full_err = cells[1];
        }
        table.push_row(label.as_str(), &cells);
    }
    r.push_series(table);
    r.scalar("err.unbiased6", low_bits_unbiased_err);
    r.scalar("err.full32", full_err);
    r.note(format!(
        "unbiased 6-bit vs full precision: {:.3} vs {:.3} — {}",
        low_bits_unbiased_err,
        full_err,
        if low_bits_unbiased_err < full_err + 0.1 {
            "training below 8 bits works with unbiased rounding (paper's surprise result)"
        } else {
            "degraded on this run"
        }
    ));
    r
}
