//! Figure 7f: FPGA throughput and area vs precision, and GNPS/W vs CPU.

use buckwild_fpga::{search_best_design, Device};
use buckwild_telemetry::{ExperimentResult, Recorder, Series, ShardedRecorder};

/// The paper's measured CPU energy efficiency (Xeon E7-8890, §8).
const PAPER_CPU_GNPS_PER_WATT: f64 = 0.143;
/// The paper's measured FPGA energy efficiency (Stratix V GS 5SGSD8, §8).
const PAPER_FPGA_GNPS_PER_WATT: f64 = 0.339;

/// Sweeps precision through the FPGA design search.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig7f",
        "FPGA designs: throughput, area, and GNPS/W vs precision",
    );
    let device = Device::stratix_v();
    let n = 1 << 14;
    r.meta("model n", n);
    r.meta("method", "heuristic design search per precision");
    let mut table = Series::new(
        "designs",
        "precision",
        &["GNPS", "kALM", "DSPs", "Mb BRAM", "GNPS/W"],
    );
    let mut first = None;
    let mut last = None;
    for (d_bits, m_bits) in [(32u32, 32u32), (16, 16), (8, 16), (8, 8), (4, 4)] {
        let Some(result) = search_best_design(&device, d_bits, m_bits, n) else {
            r.note(format!("D{d_bits}M{m_bits}: no feasible design"));
            continue;
        };
        let report = result.report;
        table.push_row(
            format!("D{d_bits}M{m_bits}"),
            &[
                report.throughput_gnps,
                report.alms_used as f64 / 1000.0,
                report.dsps_used as f64,
                report.bram_bits_used as f64 / 1024.0 / 1024.0,
                report.gnps_per_watt,
            ],
        );
        if first.is_none() {
            first = Some(report.throughput_gnps);
        }
        if (d_bits, m_bits) == (8, 8) {
            last = Some(report);
            // Pipeline-health gauges for the winning D8M8 design, via the
            // model's telemetry hook.
            let recorder = ShardedRecorder::new(1);
            let _ = result.design.evaluate_with(&device, &recorder);
            r.attach_snapshot("telemetry.d8m8.", &recorder.snapshot());
        }
    }
    r.push_series(table);
    if let (Some(full), Some(d8)) = (first, last) {
        r.scalar("speedup.d8m8", d8.throughput_gnps / full);
        r.scalar("gnps_per_watt.d8m8", d8.gnps_per_watt);
        r.scalar("gnps_per_watt.paper_fpga", PAPER_FPGA_GNPS_PER_WATT);
        r.scalar("gnps_per_watt.paper_cpu", PAPER_CPU_GNPS_PER_WATT);
        r.note(format!(
            "D8M8 vs D32M32 speedup: {:.2}x (paper: up to 2.5x, with less area)",
            d8.throughput_gnps / full
        ));
        r.note(format!(
            "D8M8 energy efficiency: {:.3} GNPS/W modeled vs {:.3} paper FPGA, \
             {:.3} paper CPU — the FPGA advantage holds",
            d8.gnps_per_watt, PAPER_FPGA_GNPS_PER_WATT, PAPER_CPU_GNPS_PER_WATT
        ));
    }
    r
}
