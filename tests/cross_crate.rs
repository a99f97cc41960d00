//! Cross-crate integration: the DMGC model, cache simulator, FPGA model,
//! and training engine agree with each other and with the paper's claims.

use buckwild::{ChaosSgdConfig, FaultPlan, Loss, SgdConfig, Signature};
use buckwild_cachesim::{Machine, SgdWorkload, SimConfig};
use buckwild_dataset::generate;
use buckwild_dmgc::{AmdahlParams, PerfModel};
use buckwild_fpga::{search_best_design, Device};

/// The perf model calibrated from the *training engine* predicts the
/// engine's own multi-thread throughput within a factor of two.
#[test]
fn perf_model_predicts_engine_throughput() {
    let sig: Signature = "D8M8".parse().expect("static");
    let n = 1 << 12;
    let problem = generate::logistic_dense(n, 256, 31);
    // One sample keeps training until it has timed at least 50 ms: a
    // two-epoch run is only milliseconds long, and one scheduler hiccup on
    // a busy (possibly single-core) host can swing it by several x.
    let sample = |threads: usize| {
        let (mut numbers, mut seconds) = (0u64, 0f64);
        while seconds < 0.05 {
            let report = SgdConfig::new(Loss::Logistic)
                .signature(sig)
                .threads(threads)
                .epochs(2)
                .record_losses(false)
                .train(&problem.data)
                .expect("valid config");
            numbers += report.numbers_processed();
            seconds += report.wall_seconds();
        }
        numbers as f64 / seconds / 1e9
    };
    // Median-of-5 on top, against the rare sample that is slow throughout.
    // The 1- and 2-worker samples alternate, so a slow stretch of the host
    // (or a sibling test still running) lands on both sides alike.
    let (mut t1, mut t2): (Vec<f64>, Vec<f64>) = (0..5).map(|_| (sample(1), sample(2))).unzip();
    let median = |samples: &mut [f64]| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let (t1, t2) = (median(&mut t1), median(&mut t2));
    let mut model = PerfModel::new(AmdahlParams::paper_xeon());
    model.calibrate(&sig, t1);
    let predicted = model.predict(&sig, n, 2).expect("calibrated");
    let ratio = predicted / t2;
    eprintln!("perf model: predicted {predicted:.3} vs measured {t2:.3} GNPS, ratio {ratio:.3}");
    assert!(
        (0.5..=2.0).contains(&ratio),
        "predicted {predicted} vs measured {t2}"
    );
}

/// The cache simulator reproduces the §4 regime split the perf model
/// encodes: once the model outgrows the private caches, sharers evict
/// lines before the next write reaches them, so invalidation traffic per
/// number falls (the communication-bound → bandwidth-bound transition).
#[test]
fn cachesim_invalidation_rate_falls_with_model_size() {
    let run = |n: usize| {
        let report = Machine::new(SimConfig::paper_xeon(4)).run(&SgdWorkload::dense(n, 1, 4));
        report.invalidates_sent as f64 / report.numbers_processed as f64
    };
    let small = run(1 << 10); // 1 KB model: L1-resident everywhere
    let large = run(1 << 20); // 1 MB model: exceeds the 256 KB L2
    assert!(
        small > 1.5 * large,
        "invalidates/number: small {small} vs large {large}"
    );
}

/// Obstinacy helps the simulator exactly where the software emulation says
/// quality is unaffected — the §6.2 safe-win region.
#[test]
fn obstinate_cache_is_a_safe_win_on_small_models() {
    let workload = SgdWorkload::dense(1 << 12, 1, 4);
    let base = Machine::new(SimConfig::paper_xeon(4)).run(&workload);
    let obstinate = Machine::new(SimConfig::paper_xeon(4).with_obstinacy(0.5)).run(&workload);
    assert!(obstinate.cycles < base.cycles, "no hardware win");

    let problem = generate::logistic_dense(64, 600, 37);
    let final_loss = |q| {
        ChaosSgdConfig::new(Loss::Logistic, FaultPlan::new(0).obstinacy(q))
            .threads(2)
            .step_size(0.3)
            .step_decay(0.9)
            .epochs(6)
            .train(&problem.data)
            .expect("valid config")
            .final_loss()
    };
    let (stale, base) = (final_loss(0.5), final_loss(0.0));
    assert!(
        stale < base + 0.1,
        "statistical cost detected: {stale} vs {base}"
    );
}

/// FPGA designs get faster and smaller as precision falls, and beat the
/// modeled CPU's energy efficiency — the §8 headline.
#[test]
fn fpga_beats_cpu_energy_efficiency_at_low_precision() {
    let device = Device::stratix_v();
    let d8 = search_best_design(&device, 8, 8, 1 << 14).expect("feasible");
    let d32 = search_best_design(&device, 32, 32, 1 << 14).expect("feasible");
    assert!(d8.report.throughput_gnps > d32.report.throughput_gnps);
    // Paper: FPGA 0.339 GNPS/W vs CPU 0.143 GNPS/W.
    assert!(
        d8.report.gnps_per_watt > 0.143,
        "GNPS/W {}",
        d8.report.gnps_per_watt
    );
}

/// Signatures round-trip through the whole stack: parse -> engine
/// validation -> display.
#[test]
fn signature_round_trip_through_engine() {
    for text in ["D8M8", "D16M8", "D8i8M16", "D32fi32M32f"] {
        let sig: Signature = text.parse().expect("test signature");
        assert_eq!(sig.to_string(), text);
        let config = SgdConfig::new(Loss::Logistic).signature(sig);
        assert!(config.validate().is_ok(), "{text}");
    }
}

/// The kernel cost model and the perf model agree on the ordering of the
/// main-diagonal signatures.
#[test]
fn cost_model_and_table2_agree_on_ordering() {
    use buckwild_kernels::cost::{estimate_gnps, QuantizerKind};
    use buckwild_kernels::KernelFlavor;
    let model = PerfModel::paper_xeon();
    let gnps = |text: &str| {
        let sig: Signature = text.parse().expect("static");
        (
            estimate_gnps(&sig, KernelFlavor::Optimized, QuantizerKind::XorshiftShared),
            model.base_throughput(&sig).expect("calibrated"),
        )
    };
    let (c8, p8) = gnps("D8M8");
    let (c16, p16) = gnps("D16M16");
    let (c32, p32) = gnps("D32fM32f");
    assert!(c8 > c16 && c16 > c32, "cost model ordering");
    assert!(p8 > p16 && p16 > p32, "paper table ordering");
}
