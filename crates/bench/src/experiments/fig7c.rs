//! Figure 7c: FPGA pipeline structures — two-stage vs three-stage.

use buckwild_fpga::{search_best_design, Device, PipelineShape, SgdDesign};
use buckwild_telemetry::{ExperimentResult, Series};

/// Compares the two pipeline shapes across device resource mixes.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig7c",
        "FPGA pipeline shapes: two-stage (load/process-2x) vs three-stage (load/error/update)",
    );
    let n = 1 << 14;
    r.meta("workload", "D8M8 linear-regression SGD");
    r.meta("model n", n);

    let mut table = Series::new(
        "designs",
        "device / shape",
        &["GNPS", "kALM", "Mb BRAM", "fits"],
    );
    for (name, device) in [
        ("stratix-v", Device::stratix_v()),
        ("logic-scarce", Device::stratix_v().logic_scarce()),
        ("bram-scarce", Device::stratix_v().bram_scarce()),
    ] {
        for shape in PipelineShape::ALL {
            // Give each shape its best feasible lane count and batch.
            let mut best: Option<(u32, u32, buckwild_fpga::DesignReport)> = None;
            for log_lanes in 2..=9 {
                let lanes = 1u32 << log_lanes;
                for b in [1u32, 4, 16, 64] {
                    let report = SgdDesign::new(8, 8, n)
                        .lanes(lanes)
                        .pipeline(shape)
                        .minibatch(b)
                        .evaluate(&device);
                    if report.fits
                        && best.is_none_or(|(_, _, p)| report.throughput_gnps > p.throughput_gnps)
                    {
                        best = Some((lanes, b, report));
                    }
                }
            }
            match best {
                Some((lanes, b, report)) => table.push_row(
                    format!("{name} {shape} x{lanes} B={b}"),
                    &[
                        report.throughput_gnps,
                        report.alms_used as f64 / 1000.0,
                        report.bram_bits_used as f64 / 1024.0 / 1024.0,
                        1.0,
                    ],
                ),
                None => table.push_row(format!("{name} {shape}"), &[0.0, 0.0, 0.0, 0.0]),
            }
        }
        if let Some(result) = search_best_design(&device, 8, 8, n) {
            r.note(format!(
                "{name}: search picks {} x{} B={} ({:.2} GNPS)",
                result.design.pipeline,
                result.design.lanes,
                result.design.minibatch,
                result.report.throughput_gnps
            ));
        }
    }
    r.push_series(table);
    r.note(
        "paper: three-stage wins when compute logic is scarce but BRAM is abundant \
         (it avoids the double-rate datapath); two-stage wins when BRAM is scarce \
         (it avoids the redundant example-buffer copy)",
    );
    r
}
