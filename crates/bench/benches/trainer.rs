//! Benchmarks for end-to-end training epochs, including the telemetry
//! overhead check: `train_traced` with `NoopRecorder` vs the sharded recorder that
//! `train()` installs. The no-op path should be indistinguishable from
//! noise (the acceptance bar is ±2%).

use buckwild::{Loss, NoopInjector, NoopTracer, SgdConfig};
use buckwild_bench::harness::Group;
use buckwild_dataset::generate;
use buckwild_telemetry::{NoopRecorder, ShardedRecorder};

fn main() {
    let n = 1 << 10;
    let m = 64;
    let problem = generate::logistic_dense(n, m, 42);
    let mut group = Group::new("train-epoch");
    for sig in ["D32fM32f", "D16M16", "D8M8"] {
        let config = SgdConfig::new(Loss::Logistic)
            .signature(sig.parse().unwrap())
            .epochs(1)
            .record_losses(false);
        group.bench(&format!("dense/{sig}"), (n * m) as u64, || {
            config.train(&problem.data).unwrap()
        });
    }
    let measurements = group.finish();

    let mut recorders = Group::new("train-epoch-recorder (telemetry overhead)");
    let config = SgdConfig::new(Loss::Logistic)
        .signature("D8M8".parse().unwrap())
        .epochs(1)
        .record_losses(false);
    recorders.bench("noop-recorder/D8M8", (n * m) as u64, || {
        config
            .train_traced(&problem.data, &NoopRecorder, &NoopInjector, &NoopTracer)
            .unwrap()
    });
    recorders.bench("sharded-recorder/D8M8", (n * m) as u64, || {
        let recorder = ShardedRecorder::new(config.threads.max(1));
        config
            .train_traced(&problem.data, &recorder, &NoopInjector, &NoopTracer)
            .unwrap()
    });
    let results = recorders.finish();
    let noop = results[0].ns_per_call;
    let sharded = results[1].ns_per_call;
    println!(
        "noop vs sharded recorder: {:+.2}% ns/epoch",
        (noop / sharded - 1.0) * 100.0
    );
    let _ = measurements;
}
