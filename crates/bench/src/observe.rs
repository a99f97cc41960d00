//! The `--trace` / `--roofline` observability pass shared by every
//! experiment.
//!
//! Two artifacts, both driven from [`cli`](crate::cli) flags:
//!
//! * **`--trace <path>`** — runs a traced reference Hogwild! training run
//!   (D8M8, two workers) and writes its span timeline as Chrome
//!   trace-event JSON, loadable in `chrome://tracing` or Perfetto. A
//!   self-time summary goes to stderr so the flame shape is visible
//!   without leaving the terminal.
//! * **`--roofline`** — prints the DMGC roofline: for dense SGD at 32-bit
//!   and 8-bit (and the 16-bit midpoint), the modeled cycles per element
//!   split into **compute** (instruction issue, from
//!   `buckwild_kernels::cost`), **memory** (DRAM streaming, same model),
//!   and **coherence** (effective invalidations measured by the cache
//!   simulator, each charged an L3 round trip), next to the cost model's
//!   predicted GNPS and the GNPS *measured* from traced kernel spans of a
//!   real training run.
//!   A per-ISA ladder re-profiles the flagship D8M8 signature under each
//!   supported kernel ISA tier (`@scalar`, `@avx2`) with the
//!   width-scaled cost model next to GNPS measured under a scoped tier
//!   override, and the report header records the active tier.
//!   A fault-injected chaos run contributes the observed write-staleness,
//!   progress-lag, and stall distributions.
//!
//! The fusion is deliberately cross-crate: `kernels::cost` knows
//! arithmetic, `cachesim` knows coherence, `buckwild-trace` knows what
//! actually happened — the roofline is where the three meet.

use buckwild::{Backend, ChaosSgdConfig, FaultPlan, Loss, NoopTracer, SgdConfig};
use buckwild_cachesim::{Machine, SgdWorkload, SimConfig};
use buckwild_dataset::generate;
use buckwild_dmgc::{RooflineEntry, RooflineReport, Signature};
use buckwild_kernels::cost::{iteration_mix, iteration_mix_isa, CostParams, QuantizerKind};
use buckwild_kernels::{isa, KernelFlavor, KernelIsa};
use buckwild_telemetry::{NoopRecorder, Recorder, ShardedRecorder};
use buckwild_trace::{Phase, RingTracer, Trace};

/// Model features of the profiled reference runs: large enough that span
/// bookkeeping (two clock reads per kernel call) is amortized over
/// thousands of elements.
const FEATURES: usize = 4096;
/// Examples in the reference problem.
const EXAMPLES: usize = 256;
/// Seed used for the reference problem and fault plans when the command
/// was not given `--seed`.
pub const DEFAULT_SEED: u64 = 97;
/// Cores simulated for the coherence term.
const SIM_CORES: usize = 4;
/// Cores simulated (and worker threads run) for the backend comparison:
/// the paper's dense 8-worker configuration, where shared-model coherence
/// traffic is at its worst.
const BACKEND_CORES: usize = 8;
/// Delta-exchange period of the sharded backend under comparison (the
/// trainer default).
const BACKEND_DELTA_EVERY: usize = 16;
/// Iterations per simulated core in the backend comparison — enough for
/// the periodic delta exchange to fire and be charged honestly.
const BACKEND_SIM_ITERATIONS: usize = 32;

/// The signatures profiled by the roofline (the Figure 5a dense diagonal).
const ROOFLINE_SIGNATURES: [&str; 3] = ["D32fM32f", "D16M16", "D8M8"];

fn quantizer_for(signature: &Signature) -> QuantizerKind {
    if signature.model().is_float() {
        QuantizerKind::Biased
    } else {
        QuantizerKind::XorshiftShared
    }
}

/// Runs the traced reference training run: D8M8, two workers, wall-clock
/// spans for every epoch, minibatch, gradient kernel, and model write.
#[must_use]
pub fn reference_trace(seed: u64) -> Trace {
    let problem = generate::logistic_dense(FEATURES, EXAMPLES, seed);
    let tracer = RingTracer::new();
    SgdConfig::new(Loss::Logistic)
        .signature("D8M8".parse().expect("valid signature"))
        .threads(2)
        .epochs(2)
        .seed(seed)
        .train_traced(&problem.data, &NoopRecorder, &tracer)
        .expect("reference configuration is valid");
    tracer.drain()
}

/// Captures the reference trace and writes it to `path` as Chrome
/// trace-event JSON, printing the self-time summary to stderr.
///
/// # Errors
///
/// Propagates the I/O error if `path` cannot be written.
pub fn write_reference_trace(path: &str, seed: u64) -> std::io::Result<()> {
    let trace = reference_trace(seed);
    std::fs::write(path, trace.to_chrome_json())?;
    eprintln!("trace: {} spans -> {path}", trace.events().len());
    eprintln!("{}", trace.self_time_summary());
    Ok(())
}

/// Aggregate GNPS over the compute/write spans of a trace: elements
/// touched per busy nanosecond, i.e. single-thread-equivalent kernel
/// throughput, directly comparable to the cost model's per-element
/// prediction. `None` when the trace holds no kernel spans.
#[must_use]
pub fn traced_kernel_gnps(trace: &Trace) -> Option<f64> {
    let mut elems = 0u64;
    let mut busy_ns = 0u64;
    for e in trace.events() {
        if matches!(e.phase, Phase::GradientKernel | Phase::ModelWrite) {
            elems += e.arg;
            busy_ns += e.dur;
        }
    }
    (busy_ns > 0).then(|| elems as f64 / busy_ns as f64)
}

/// Measures one signature's kernel GNPS from a traced single-thread run.
fn measured_gnps(signature: &Signature, seed: u64) -> Option<f64> {
    let problem = generate::logistic_dense(FEATURES, EXAMPLES, seed);
    let tracer = RingTracer::new();
    SgdConfig::new(Loss::Logistic)
        .signature(*signature)
        .threads(1)
        .epochs(2)
        .seed(seed)
        .train_traced(&problem.data, &NoopRecorder, &tracer)
        .ok()?;
    traced_kernel_gnps(&tracer.drain())
}

/// Coherence cycles per processed element for a dense shared-model run:
/// the cache simulator's *effective* invalidations (sent minus ignored),
/// each charged one L3 round trip, amortized over the numbers processed.
fn simulated_coherence_cycles(signature: &Signature) -> f64 {
    let config = SimConfig::paper_xeon(SIM_CORES);
    let l3_latency = config.geometry.l3_latency as f64;
    let elem_bytes = u64::from(signature.model_bits().max(8)) / 8;
    let workload = SgdWorkload::dense(FEATURES, elem_bytes, 6);
    let report = Machine::new(config).run(&workload);
    let effective = (report.invalidates_sent - report.invalidates_ignored) as f64;
    effective * l3_latency / report.numbers_processed.max(1) as f64
}

/// Side-by-side model and measurement of the two training backends on the
/// reference dense D8M8 problem at `BACKEND_CORES` workers: the
/// shared-model (Hogwild!) layout against the shard-per-core delta-ring
/// layout. Coherence is modeled by the cache simulator; throughput is
/// measured from traced kernel spans of real multi-worker runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendComparison {
    /// The shared-model roofline entry (`"D8M8/shared@8c"`).
    pub shared: RooflineEntry,
    /// The sharded-delta roofline entry (`"D8M8/sharded@8c"`).
    pub sharded: RooflineEntry,
    /// Effective invalidations (sent minus ignored) of the shared run.
    pub shared_invalidations: u64,
    /// Effective invalidations of the sharded run (ring lines only).
    pub sharded_invalidations: u64,
    /// Cache-line bytes of coherence transfers the sharded layout avoids:
    /// the invalidation difference times the line size.
    pub coherence_bytes_saved: u64,
}

impl BackendComparison {
    /// The one-line takeaway printed under the roofline table.
    #[must_use]
    pub fn headline(&self) -> String {
        format!(
            "coherence saved: sharded-delta avoids {} of {} effective \
             invalidations ({:.1} KiB of line transfers) vs shared-model \
             on {BACKEND_CORES} simulated cores",
            self.shared_invalidations
                .saturating_sub(self.sharded_invalidations),
            self.shared_invalidations,
            self.coherence_bytes_saved as f64 / 1024.0,
        )
    }
}

/// Median per-span kernel throughput of a trace, in GNPS. Robust where
/// the aggregate busy-ns estimate is not: on an oversubscribed box (more
/// workers than cores) a descheduled worker's span absorbs
/// millisecond-scale scheduler timeslices, drowning the microsecond-scale
/// kernels in the sum. The median span never gets preempted.
#[must_use]
pub fn median_kernel_gnps(trace: &Trace) -> Option<f64> {
    let mut rates: Vec<f64> = trace
        .events()
        .iter()
        .filter(|e| matches!(e.phase, Phase::GradientKernel | Phase::ModelWrite) && e.dur > 0)
        .map(|e| e.arg as f64 / e.dur as f64)
        .collect();
    if rates.is_empty() {
        return None;
    }
    rates.sort_by(f64::total_cmp);
    Some(rates[rates.len() / 2])
}

/// Measures one backend's kernel GNPS from a traced [`BACKEND_CORES`]-way
/// dense D8M8 run, as the median span rate (see [`median_kernel_gnps`])
/// so oversubscribed CI boxes don't skew the comparison.
fn measured_backend_gnps(backend: Backend, seed: u64) -> Option<f64> {
    let problem = generate::logistic_dense(FEATURES, EXAMPLES, seed);
    let tracer = RingTracer::new();
    SgdConfig::new(Loss::Logistic)
        .signature("D8M8".parse().expect("valid signature"))
        .backend(backend)
        .threads(BACKEND_CORES)
        .delta_every(BACKEND_DELTA_EVERY)
        .epochs(2)
        .seed(seed)
        .train_traced(&problem.data, &NoopRecorder, &tracer)
        .ok()?;
    median_kernel_gnps(&tracer.drain())
}

/// Builds the backend comparison: identical compute and memory terms
/// (same D8M8 kernels either way), coherence terms from per-layout cache
/// simulations, measured GNPS from per-backend traced runs.
#[must_use]
pub fn backend_comparison(seed: u64) -> BackendComparison {
    let params = CostParams::xeon();
    let signature: Signature = "D8M8".parse().expect("valid signature");
    let mix = iteration_mix(
        &signature,
        KernelFlavor::Optimized,
        quantizer_for(&signature),
    );
    let compute = mix.total_instrs() / params.issue_per_cycle;
    let memory = mix.dataset_bytes / params.bytes_per_cycle
        + params.overhead_per_32b * mix.dataset_bytes / 32.0;
    let config = SimConfig::paper_xeon(BACKEND_CORES);
    let line_bytes = config.geometry.line_bytes;
    let l3_latency = config.geometry.l3_latency as f64;
    let simulate = |workload: &SgdWorkload| {
        let report = Machine::new(config.clone()).run(workload);
        let effective = report.invalidates_sent - report.invalidates_ignored;
        let cycles = effective as f64 * l3_latency / report.numbers_processed.max(1) as f64;
        (effective, cycles)
    };
    let dense = SgdWorkload::dense(FEATURES, 1, BACKEND_SIM_ITERATIONS);
    let (shared_inv, shared_coherence) = simulate(&dense);
    let (sharded_inv, sharded_coherence) = simulate(&dense.sharded(BACKEND_DELTA_EVERY));
    let entry = |name: &str, coherence: f64, backend: Backend| RooflineEntry {
        label: format!("D8M8/{name}@{BACKEND_CORES}c"),
        compute_cycles: compute,
        memory_cycles: memory,
        coherence_cycles: coherence,
        predicted_gnps: params.estimate_gnps(&mix),
        measured_gnps: measured_backend_gnps(backend, seed),
    };
    BackendComparison {
        shared: entry("shared", shared_coherence, Backend::SharedModel),
        sharded: entry("sharded", sharded_coherence, Backend::ShardedDelta),
        shared_invalidations: shared_inv,
        sharded_invalidations: sharded_inv,
        coherence_bytes_saved: shared_inv.saturating_sub(sharded_inv) * line_bytes,
    }
}

/// Builds the DMGC roofline report: one entry per profiled signature, the
/// backend-comparison pair, and the chaos-run staleness distributions.
#[must_use]
pub fn roofline_report(seed: u64) -> RooflineReport {
    roofline_with_backends(seed).0
}

/// Like [`roofline_report`], also returning the backend comparison it
/// embedded (for the headline line, without re-running the simulations).
#[must_use]
pub fn roofline_with_backends(seed: u64) -> (RooflineReport, BackendComparison) {
    let params = CostParams::xeon();
    let mut report = RooflineReport::new("paper-xeon");
    report.set_isa(isa::active().name());
    for text in ROOFLINE_SIGNATURES {
        let signature: Signature = text.parse().expect("valid signature");
        let quantizer = quantizer_for(&signature);
        let mix = iteration_mix(&signature, KernelFlavor::Optimized, quantizer);
        let compute = mix.total_instrs() / params.issue_per_cycle;
        let memory = mix.dataset_bytes / params.bytes_per_cycle
            + params.overhead_per_32b * mix.dataset_bytes / 32.0;
        report.push(RooflineEntry {
            label: format!("{text}/optimized"),
            compute_cycles: compute,
            memory_cycles: memory,
            coherence_cycles: simulated_coherence_cycles(&signature),
            predicted_gnps: params.estimate_gnps(&mix),
            measured_gnps: measured_gnps(&signature, seed),
        });
    }
    // Per-ISA ladder: the flagship dense signature re-profiled under each
    // ISA tier this machine supports — the width-scaled cost-model
    // prediction next to kernel GNPS measured under a scoped tier
    // override. An active override caps the ladder at its tier.
    for tier in KernelIsa::ALL {
        if tier > isa::active() {
            continue;
        }
        let signature: Signature = "D8M8".parse().expect("valid signature");
        let quantizer = quantizer_for(&signature);
        let mix = iteration_mix_isa(&signature, KernelFlavor::Optimized, quantizer, tier);
        let compute = mix.total_instrs() / params.issue_per_cycle;
        let memory = mix.dataset_bytes / params.bytes_per_cycle
            + params.overhead_per_32b * mix.dataset_bytes / 32.0;
        let measured = {
            let _pin = isa::scoped(tier);
            measured_gnps(&signature, seed)
        };
        report.push(RooflineEntry {
            label: format!("D8M8/optimized@{tier}"),
            compute_cycles: compute,
            memory_cycles: memory,
            coherence_cycles: simulated_coherence_cycles(&signature),
            predicted_gnps: params.estimate_gnps(&mix),
            measured_gnps: measured,
        });
    }
    let comparison = backend_comparison(seed);
    report.push(comparison.shared.clone());
    report.push(comparison.sharded.clone());
    attach_chaos_distributions(&mut report, seed);
    (report, comparison)
}

/// Runs a fault-injected chaos simulation and attaches its observed
/// write-staleness, progress-lag, and stall-length distributions.
fn attach_chaos_distributions(report: &mut RooflineReport, seed: u64) {
    let problem = generate::logistic_dense(64, 400, seed);
    let plan = FaultPlan::new(seed).delay_writes(0.3, 8).stalls(0.05, 4);
    let recorder = ShardedRecorder::new(1);
    let run = ChaosSgdConfig::new(Loss::Logistic, plan)
        .threads(4)
        .epochs(3)
        .train_traced(&problem.data, &recorder, &NoopTracer);
    if run.is_err() {
        return;
    }
    let snapshot = recorder.snapshot();
    for (metric, name) in [
        (buckwild_chaos::metric::WRITE_STALENESS, "write staleness"),
        (
            buckwild_chaos::metric::PROGRESS_LAG,
            "gradient age (progress lag)",
        ),
        (buckwild_chaos::metric::STALL_TICKS, "stall length"),
    ] {
        if let Some(summary) = snapshot.histogram(metric) {
            report.push_distribution(name, "ticks", summary);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_trace_has_kernel_spans_and_valid_json() {
        let trace = reference_trace(DEFAULT_SEED);
        assert!(!trace.is_empty());
        assert!(trace
            .events()
            .iter()
            .any(|e| e.phase == Phase::GradientKernel));
        let json = trace.to_chrome_json();
        let doc = buckwild_telemetry::json::parse(&json).expect("valid JSON");
        assert!(doc.get("traceEvents").is_some());
        assert!(traced_kernel_gnps(&trace).is_some());
    }

    #[test]
    fn roofline_covers_8_and_32_bit_with_coherence_term() {
        let _serial = crate::isa_pin_lock();
        let report = roofline_report(DEFAULT_SEED);
        let labels: Vec<_> = report.entries().iter().map(|e| e.label.as_str()).collect();
        assert!(
            labels.iter().any(|l| l.starts_with("D32fM32f")),
            "{labels:?}"
        );
        assert!(labels.iter().any(|l| l.starts_with("D8M8")), "{labels:?}");
        // Per-ISA ladder: scalar is always supported, and the report
        // records the active tier it ran under.
        assert!(labels.contains(&"D8M8/optimized@scalar"), "{labels:?}");
        assert!(
            labels.contains(&format!("D8M8/optimized@{}", isa::active()).as_str()),
            "{labels:?}"
        );
        assert_eq!(report.isa(), Some(isa::active().name()));
        for e in report.entries() {
            assert!(e.compute_cycles > 0.0, "{}", e.label);
            assert!(e.memory_cycles > 0.0, "{}", e.label);
            assert!(
                e.coherence_cycles > 0.0,
                "{}: shared model on {SIM_CORES} cores must invalidate",
                e.label
            );
            assert!(e.predicted_gnps > 0.0);
            let measured = e.measured_gnps.expect("traced run succeeds");
            assert!(measured > 0.0);
        }
        // Narrower numbers stream fewer bytes: 8-bit must beat 32-bit in
        // predicted throughput.
        let gnps = |prefix: &str| {
            report
                .entries()
                .iter()
                .find(|e| e.label.starts_with(prefix))
                .unwrap()
                .predicted_gnps
        };
        assert!(gnps("D8M8") > gnps("D32fM32f"));
    }

    #[test]
    fn backend_comparison_shows_sharded_coherence_win() {
        let cmp = backend_comparison(DEFAULT_SEED);
        assert!(
            cmp.sharded.coherence_cycles < cmp.shared.coherence_cycles,
            "sharded {} vs shared {}: private replicas must model strictly \
             less coherence",
            cmp.sharded.coherence_cycles,
            cmp.shared.coherence_cycles
        );
        assert!(cmp.sharded_invalidations < cmp.shared_invalidations);
        assert!(cmp.coherence_bytes_saved > 0);
        assert!(cmp.headline().contains("KiB"));
        // Same kernels, same cost model: only the coherence term differs.
        assert_eq!(cmp.shared.compute_cycles, cmp.sharded.compute_cycles);
        assert_eq!(cmp.shared.memory_cycles, cmp.sharded.memory_cycles);
        let shared = cmp.shared.measured_gnps.expect("shared run traced");
        let sharded = cmp.sharded.measured_gnps.expect("sharded run traced");
        eprintln!("measured median GNPS: shared {shared} sharded {sharded}");
        // Median per-span kernel throughput: the sharded replicas are
        // plain (not atomic) arrays, so per-element speed must hold up.
        // Allow slack for timer noise on loaded CI boxes.
        assert!(
            sharded > 0.75 * shared,
            "sharded {sharded} vs shared {shared} GNPS"
        );
    }

    #[test]
    fn roofline_embeds_backend_pair() {
        let _serial = crate::isa_pin_lock();
        let (report, cmp) = roofline_with_backends(DEFAULT_SEED);
        let labels: Vec<_> = report.entries().iter().map(|e| e.label.as_str()).collect();
        assert!(labels.contains(&"D8M8/shared@8c"), "{labels:?}");
        assert!(labels.contains(&"D8M8/sharded@8c"), "{labels:?}");
        assert!(
            report.entries().contains(&cmp.sharded),
            "comparison entries are embedded"
        );
    }

    #[test]
    fn roofline_attaches_chaos_distributions() {
        let _serial = crate::isa_pin_lock();
        let report = roofline_report(DEFAULT_SEED);
        let names: Vec<_> = report
            .distributions()
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert!(names.contains(&"write staleness"), "{names:?}");
        let staleness = &report.distributions()[0].summary;
        assert!(staleness.count > 0);
        assert!(staleness.p95 >= staleness.p50);
        let text = report.render_text();
        assert!(text.contains("write staleness"));
    }
}
