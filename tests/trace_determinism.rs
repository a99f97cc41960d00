//! Traced chaos runs are bit-reproducible: the deterministic simulator
//! stamps spans on its virtual tick clock, so the exported Chrome trace
//! JSON is a pure function of (config, plan seed, data) — byte-identical
//! across runs, machines, and wall-clock conditions.

use buckwild::prelude::*;
use buckwild_dataset::generate;
use buckwild_trace::fault_kind;

fn traced_chaos_json(seed: u64) -> (TrainReport, String) {
    let problem = generate::logistic_dense(32, 240, seed);
    let plan = FaultPlan::new(seed)
        .stalls(0.08, 3)
        .drop_writes(0.05)
        .delay_writes(0.4, 7);
    let config = ChaosSgdConfig::new(Loss::Logistic, plan)
        .threads(3)
        .step_size(0.4)
        .epochs(3);
    let tracer = RingTracer::virtual_clock(1 << 16);
    let report = config
        .train_traced(&problem.data, &buckwild_telemetry::NoopRecorder, &tracer)
        .expect("valid chaos config");
    (report, tracer.drain().to_chrome_json())
}

#[test]
fn traced_chaos_run_emits_byte_identical_json_per_seed() {
    for seed in [1u64, 21, 0xbeef] {
        let (report_a, json_a) = traced_chaos_json(seed);
        let (report_b, json_b) = traced_chaos_json(seed);
        assert_eq!(report_a, report_b, "seed {seed}: reports diverge");
        assert_eq!(json_a, json_b, "seed {seed}: trace JSON diverges");
        assert!(!json_a.is_empty());
    }
}

#[test]
fn different_seeds_give_different_timelines() {
    let (_, a) = traced_chaos_json(1);
    let (_, b) = traced_chaos_json(2);
    assert_ne!(a, b, "fault timing must depend on the seed");
}

#[test]
fn virtual_trace_json_declares_tick_clock_and_fault_kinds() {
    let (_, json) = traced_chaos_json(21);
    let doc = buckwild_telemetry::json::parse(&json).expect("valid JSON");
    let clock = doc
        .get("otherData")
        .and_then(|o| o.get("clock"))
        .and_then(buckwild_telemetry::json::Value::as_str);
    assert_eq!(clock, Some("virtual-ticks"));
    let events = doc
        .get("traceEvents")
        .and_then(buckwild_telemetry::json::Value::as_array)
        .expect("traceEvents array");
    // Delayed writes fire under this plan, so fault spans must name their
    // kind in args.
    let has_delay = events.iter().any(|e| {
        e.get("args")
            .and_then(|a| a.get("kind"))
            .and_then(buckwild_telemetry::json::Value::as_str)
            == Some(fault_kind::name(fault_kind::DELAYED_WRITE))
    });
    assert!(has_delay, "expected a delayed-write fault span");
}
