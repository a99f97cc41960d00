//! The fault & staleness injection engine in action: one seeded
//! [`FaultPlan`] drives worker stalls, dropped shared-model writes,
//! obstinate-cache read staleness, progress skew, and a mid-epoch crash
//! with checkpoint recovery — all deterministic, so the same seed
//! reproduces the same run bit-for-bit.
//!
//! ```text
//! cargo run --release --example chaos_injection
//! ```

use buckwild::prelude::*;
use buckwild_dataset::generate;

fn main() {
    let problem = generate::logistic_dense(64, 1200, 55);

    // Baseline: the deterministic engine with a benign plan.
    let clean = ChaosSgdConfig::new(Loss::Logistic, FaultPlan::new(7))
        .threads(4)
        .epochs(8)
        .train(&problem.data)
        .expect("valid config");
    println!("clean run:       final loss {:.4}", clean.final_loss());

    // Convergence under an increasingly lossy write path.
    println!("\nwrite-drop sweep (obstinate cache taken to the write side):");
    println!("{:<12} {:>12} {:>14}", "drop rate", "final loss", "dropped");
    for drop in [0.0, 0.25, 0.5, 0.75] {
        let report = ChaosSgdConfig::new(Loss::Logistic, FaultPlan::new(7).drop_writes(drop))
            .threads(4)
            .epochs(8)
            .train(&problem.data)
            .expect("valid config");
        println!(
            "{:<12.2} {:>12.4} {:>14}",
            drop,
            report.final_loss(),
            report.dropped_writes()
        );
    }

    // A kitchen-sink plan: stalls, delayed writes, stale views, a skewed
    // straggler, and a worker crash in epoch 3 recovered from checkpoint.
    let plan = FaultPlan::new(7)
        .stalls(0.05, 3)
        .delay_writes(0.3, 4)
        .obstinacy(0.9)
        .skew(3, 4)
        .crash(1, 3, 60);
    let chaotic = ChaosSgdConfig::new(Loss::Logistic, plan)
        .threads(4)
        .epochs(8)
        .train(&problem.data)
        .expect("valid config");
    println!(
        "\nkitchen sink:    final loss {:.4}  (clean {:.4})",
        chaotic.final_loss(),
        clean.final_loss()
    );
    println!(
        "  stalls {}  delayed writes {}  recoveries {}  replayed iterations {}",
        chaotic.stalls(),
        chaotic.delayed_writes(),
        chaotic.recoveries(),
        chaotic.replayed_iterations()
    );
    println!(
        "  mean write staleness {:.2} ticks  mean progress lag {:.2} iterations",
        chaotic.mean_write_staleness(),
        chaotic.mean_progress_lag()
    );

    // The same plan also injects into the real threaded Hogwild engine;
    // telemetry surfaces the fault counters under the chaos.* namespace.
    let threaded = SgdConfig::new(Loss::Logistic)
        .threads(4)
        .epochs(6)
        .faults(FaultPlan::new(7).stalls(0.1, 1).crash(0, 2, 40))
        .train(&problem.data)
        .expect("valid config");
    println!(
        "\nthreaded engine: final loss {:.4}  chaos.stalls {:?}  chaos.recoveries {:?}",
        threaded.final_loss(),
        threaded.metrics().counter(buckwild_chaos::metric::STALLS),
        threaded
            .metrics()
            .counter(buckwild_chaos::metric::RECOVERIES)
    );

    println!(
        "\nSame seed, same faults, same losses: async failure modes become \
         regression tests instead of flakes."
    );
}
