//! Figure 6a/6b: turning off the hardware prefetcher.
//!
//! On real Xeons this is MSR 0x1A4; here the stream prefetcher lives in
//! our cache simulator, so "setting the MSR" is a config bit. The paper's
//! §5.3 finding: disabling prefetch speeds up communication-bound (small
//! model) configurations by up to 150% because prefetched model lines are
//! invalidated before use and waste bandwidth.

use buckwild_cachesim::{Machine, SgdWorkload, SimConfig};
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::full_scale;

fn sweep(name: &str, dense: bool, cores: usize, iters: usize, sizes: &[usize]) -> Series {
    let mut series = Series::new(
        name,
        "model size",
        &["pf-on", "pf-off", "off/on", "wasted-pf%"],
    );
    for &n in sizes {
        let workload = if dense {
            SgdWorkload::dense(n, 1, iters)
        } else {
            let nnz = ((n as f64 * 0.03) as usize).max(16);
            SgdWorkload::sparse(n, nnz, 1, 1, iters)
        };
        let on = Machine::new(SimConfig::paper_xeon(cores).with_prefetch(true)).run(&workload);
        let off = Machine::new(SimConfig::paper_xeon(cores).with_prefetch(false)).run(&workload);
        let wasted_pct = if on.prefetches_issued > 0 {
            100.0 * on.prefetches_wasted as f64 / on.prefetches_issued as f64
        } else {
            0.0
        };
        series.push_row(
            format!("n = 2^{}", n.trailing_zeros()),
            &[
                on.gnps(2.5),
                off.gnps(2.5),
                off.throughput_numbers_per_cycle() / on.throughput_numbers_per_cycle(),
                wasted_pct,
            ],
        );
    }
    series
}

/// Runs the prefetch-on/off sweeps on the simulated 18-core machine.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig6ab",
        "Prefetcher on vs off (simulated 18-core Xeon, GNPS at 2.5 GHz)",
    );
    let cores = if full_scale() { 18 } else { 8 };
    let iters = if full_scale() { 12 } else { 6 };
    let sizes: Vec<usize> = if full_scale() {
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
    } else {
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    r.meta("cores", cores);
    r.meta("iterations/core", iters);
    r.push_series(sweep("6a dense D8M8", true, cores, iters, &sizes));
    r.push_series(sweep(
        "6b sparse D8i8M8 (3% density)",
        false,
        cores,
        iters,
        &sizes,
    ));
    r.note(
        "paper: disabling the prefetcher helps when communication-bound (small models), \
         by up to 150%; the off/on column > 1 marks where turning it off wins",
    );
    r
}
