//! Direct calls into each layer's public functions, timed from outside on
//! the workload's own data. One `layer_probe` span holds one child span
//! per call (or per pass of calls, where one call is too short to time).

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::span::{SpanId, SpanLog};
use crate::stats::median;
use crate::surface::{
    apply_delta_i8, quantize_delta_i8, wire, Backend, Data, DeltaRing, EpochSnapshot,
    ModelPrecision, Predictor, QuantizedModel, Rounder, SharedModel, SnapshotHub,
};
use crate::workload::Spec;

/// Passes per pass-timed probe; the median is reported.
const PASSES: usize = 5;
/// Calls per call-timed probe, cut short (but never below
/// [`MIN_CALLS`]) once a probe has used [`CALL_BUDGET`]: one
/// `encode_request` of a 4 MiB frame takes milliseconds.
const CALLS: usize = 200;
const MIN_CALLS: usize = 20;
const CALL_BUDGET: Duration = Duration::from_millis(100);

/// What the probes measured. Times are per call unless named `_s`.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `DenseDataset::quantize_i8` / `SparseDataset::requantize`.
    pub quantize_s: f64,
    /// `dispatch::dot_*` per example.
    pub kernels_dot_ns: f64,
    /// `optimized`/`sparse` `axpy_fixed_fixed` per example.
    pub kernels_axpy_ns: f64,
    /// Dot + AXPY over plain slices, 1 thread, over the workload's epochs
    /// and step schedule from a zero model.
    pub kernels_iter_gnps: f64,
    /// `SharedModel::dot_*` per example.
    pub model_dot_ns: f64,
    /// `SharedModel::axpy_*` per example.
    pub model_axpy_ns: f64,
    /// The same schedule on a `SharedModel`, 1 thread.
    pub model_iter_gnps: f64,
    /// The same schedule from `T` threads on one model, aggregate.
    pub model_contended_iter_gnps: f64,
    /// One `mean_loss` evaluation (with the `snapshot()` feeding it).
    pub eval_call_s: f64,
    /// `quantize_delta_i8` at the model's size.
    pub delta_quantize_ns: f64,
    /// `apply_delta_i8` at the model's size.
    pub delta_apply_ns: f64,
    /// `DeltaRing::push` + `pop_into` at the model's size.
    pub ring_push_pop_ns: f64,
    /// `wire::encode_request` on the workload's request.
    pub encode_request_ns: f64,
    /// `wire::decode_request`.
    pub decode_request_ns: f64,
    /// `wire::encode_response`.
    pub encode_response_ns: f64,
    /// `wire::decode_response`.
    pub decode_response_ns: f64,
    /// `Predictor::score_batch` on the `QuantizedModel`.
    pub score_batch_ns: f64,
    /// The engine's per-epoch snapshot: `snapshot_quantized` (shared) or
    /// `QuantizedModel::quantize` of the replica mean (sharded).
    pub snapshot_ns: f64,
    /// `SnapshotHub::publish`.
    pub hub_publish_ns: f64,
    /// `SnapshotHub::current`.
    pub hub_current_ns: f64,
}

impl Probes {
    /// Seconds the driver spends per epoch on evaluation and publish.
    pub fn epoch_overhead_s(&self) -> f64 {
        self.eval_call_s + (self.snapshot_ns + self.hub_publish_ns) / 1e9
    }
}

struct Prober<'a> {
    log: &'a mut SpanLog,
    parent: SpanId,
}

impl Prober<'_> {
    /// Median seconds of [`PASSES`] runs of `f`, one span each.
    fn passes(&mut self, name: &str, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..PASSES)
            .map(|rep| self.log.time(name, Some(self.parent), rep as u64, &mut f).1)
            .collect();
        median(&samples)
    }

    /// Seconds of one pass per epoch of the workload's step schedule, as
    /// one span. Fixed-point AXPY costs more on a model whose words move
    /// or sit on the rails than on one whose deltas round to zero, so a
    /// ceiling for the engine has to run the schedule the engine runs.
    fn schedule(&mut self, name: &str, spec: &Spec, mut f: impl FnMut(f32)) -> f64 {
        let start = Instant::now();
        for epoch in 0..spec.epochs {
            f(spec.step_size * spec.step_decay.powi(epoch as i32));
        }
        let end = Instant::now();
        self.log.push(name, start, end, Some(self.parent), 0, 0);
        (end - start).as_secs_f64()
    }

    /// Median nanoseconds of up to [`CALLS`] calls of `f`, each timed
    /// alone; one span covers the lot.
    fn calls(&mut self, name: &str, mut f: impl FnMut()) -> f64 {
        let begin = Instant::now();
        let mut samples = Vec::with_capacity(CALLS);
        while samples.len() < CALLS && (samples.len() < MIN_CALLS || begin.elapsed() < CALL_BUDGET)
        {
            let start = Instant::now();
            f();
            samples.push(start.elapsed().as_nanos() as f64);
        }
        self.log
            .push(name, begin, Instant::now(), Some(self.parent), 0, 0);
        median(&samples)
    }
}

/// Runs every probe on `data` and the workload's request `batch`.
pub fn run(
    spec: &Spec,
    data: &Data,
    seed: u64,
    batch: &[f32],
    workers: usize,
    log: &mut SpanLog,
) -> Probes {
    let begin = Instant::now();
    let parent = log.push("layer_probe", begin, begin, None, 0, 0);
    let mut p = Prober { log, parent };
    let mut out = Probes::default();
    let n = data.features();
    let examples = data.examples() as f64;
    let numbers = data.numbers() as f64;
    let step = spec.step_size;

    // dataset: the quantization train() performs on entry.
    let mut quantized = None;
    out.quantize_s = p.passes("dataset.quantize", || {
        quantized = Some(data.quantize(seed));
    });
    let q = quantized.expect("PASSES > 0");

    // kernels: plain slices, one thread.
    let work = numbers * spec.epochs as f64 / 1e9;
    let mut w = vec![0i8; n];
    let mut rounder = Rounder::new(seed);
    out.kernels_iter_gnps = work
        / p.schedule("kernels.iter", spec, |step| {
            q.kernels_iter_pass(&mut w, step, &mut rounder);
        });
    out.kernels_dot_ns = p.passes("kernels.dot", || {
        black_box(q.kernels_dot_pass(&w));
    }) * 1e9
        / examples;
    out.kernels_axpy_ns = p.passes("kernels.axpy", || {
        q.kernels_axpy_pass(&mut w, step, &mut rounder)
    }) * 1e9
        / examples;

    // core::model: the same arithmetic through relaxed atomics, alone
    // and then from `workers` threads on one model.
    let contended = SharedModel::zeros(ModelPrecision::I8, n);
    out.model_contended_iter_gnps = work
        / p.schedule("core.model.contended_iter", spec, |step| {
            let barrier = Barrier::new(workers);
            std::thread::scope(|s| {
                for t in 0..workers {
                    let (q, model, barrier) = (&q, &contended, &barrier);
                    s.spawn(move || {
                        let mut rounder = Rounder::new(seed ^ (t as u64 + 1));
                        barrier.wait();
                        q.model_iter_pass(model, step, t, workers, &mut rounder);
                    });
                }
            });
        });
    let model = SharedModel::zeros(ModelPrecision::I8, n);
    out.model_iter_gnps = work
        / p.schedule("core.model.iter", spec, |step| {
            q.model_iter_pass(&model, step, 0, 1, &mut rounder);
        });
    out.model_dot_ns = p.passes("core.model.dot", || {
        black_box(q.model_dot_pass(&model));
    }) * 1e9
        / examples;
    out.model_axpy_ns = p.passes("core.model.axpy", || {
        q.model_axpy_pass(&model, step, &mut rounder)
    }) * 1e9
        / examples;

    // core::metrics: what the driver evaluates after every epoch.
    out.eval_call_s = p.passes("core.metrics.eval", || {
        black_box(data.mean_loss(&model.snapshot()));
    });

    // kernels::delta and core::ring at the model's size.
    let delta: Vec<f32> = (0..n).map(|i| ((i % 29) as f32 - 14.0) * 1e-3).collect();
    let mut packet = vec![0i8; n];
    let mut scale = 0f32;
    out.delta_quantize_ns = p.calls("kernels.delta.quantize", || {
        scale = quantize_delta_i8(&delta, &mut packet).expect("delta is not all zero");
    });
    let mut acc = vec![0f32; n];
    out.delta_apply_ns = p.calls("kernels.delta.apply", || {
        apply_delta_i8(&mut acc, &packet, scale);
    });
    let ring = DeltaRing::new(8, n);
    let mut inbox = vec![0i8; n];
    out.ring_push_pop_ns = p.calls("core.ring.push_pop", || {
        assert!(ring.push(scale, &packet), "ring of 8 holds one packet");
        black_box(ring.pop_into(&mut inbox));
    });

    // serve::wire on the workload's request and its response.
    let rows = batch.len() / n;
    let mut frame = Vec::new();
    out.encode_request_ns = p.calls("serve.wire.encode_request", || {
        wire::encode_request(&mut frame, batch, n);
    });
    let mut decoded = Vec::new();
    out.decode_request_ns = p.calls("serve.wire.decode_request", || {
        wire::decode_request(&frame[4..], &mut decoded).expect("own frame decodes");
    });
    let snapshot = Arc::new(model.snapshot_quantized());
    let mut scores = vec![0f32; rows];
    out.score_batch_ns = p.calls("core.predict.score_batch", || {
        snapshot.score_batch(batch, &mut scores);
    });
    let mut response = Vec::new();
    out.encode_response_ns = p.calls("serve.wire.encode_response", || {
        wire::encode_response(&mut response, wire::status::OK, 7, &scores);
    });
    out.decode_response_ns = p.calls("serve.wire.decode_response", || {
        black_box(wire::decode_response(&response[4..]).expect("own frame decodes"));
    });

    // The per-epoch snapshot and its hand-off.
    let mean = model.snapshot();
    out.snapshot_ns = match spec.backend {
        Backend::SharedModel => p.calls("core.predict.snapshot", || {
            black_box(model.snapshot_quantized());
        }),
        Backend::ShardedDelta => p.calls("core.predict.snapshot", || {
            black_box(QuantizedModel::quantize(&mean, ModelPrecision::I8));
        }),
    };
    let hub = SnapshotHub::new();
    let mut epoch = 0u64;
    out.hub_publish_ns = p.calls("serve.hub.publish", || {
        epoch += 1;
        hub.publish(EpochSnapshot {
            epoch,
            model: Arc::clone(&snapshot),
        });
    });
    out.hub_current_ns = p.calls("serve.hub.current", || {
        black_box(hub.current());
    });

    // Close the parent over its children.
    log.set_end(parent, Instant::now());
    out
}
