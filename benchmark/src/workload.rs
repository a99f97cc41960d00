//! The four workloads. Names are fixed: later issues cite them.
//!
//! Every workload is a train-and-serve scenario. *Phase 1* trains the
//! task `reps` times on `T = min(nproc, 4)` workers with nothing else
//! running; *phase 2* serves the model through a 1-shard `PredictServer`
//! to one closed-loop client while a 1-worker trainer of the same task
//! publishes a snapshot every epoch. `serve_hotswap` has no phase 1: its
//! training numbers are taken under the serving load of phase 2.

use crate::host;
use crate::surface::Backend;

/// The shape of a generated dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Problem {
    /// `generate::logistic_dense`: `m` examples of `n` features.
    Dense {
        /// Features (= model size).
        n: usize,
        /// Examples.
        m: usize,
    },
    /// `generate::logistic_sparse`: `m` examples with `nnz` nonzeros each
    /// over `n` features.
    Sparse {
        /// Features (= model size).
        n: usize,
        /// Examples.
        m: usize,
        /// Nonzeros per example.
        nnz: usize,
    },
}

/// One workload: a training task, how it is served, and why it is here.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Fixed name.
    pub name: &'static str,
    /// Which layers this workload makes work, and which it leaves idle.
    pub why: &'static str,
    /// The dataset.
    pub problem: Problem,
    /// Training engine.
    pub backend: Backend,
    /// Passes over the data per `train()` call; never stopped early.
    pub epochs: usize,
    /// Initial step size.
    pub step_size: f32,
    /// Per-epoch step decay.
    pub step_decay: f32,
    /// `time_to_loss_s` stops its clock at the first epoch whose loss is
    /// at or below this; a repetition that never gets there has failed.
    pub target_loss: f64,
    /// Rows per served request (each of `n` `f32` features).
    pub serve_rows: usize,
    /// `false` only for `serve_hotswap`.
    pub phase1: bool,
}

impl Spec {
    /// Workers of the measured training runs.
    pub fn workers(&self) -> usize {
        if self.phase1 {
            host::nproc().min(4)
        } else {
            1
        }
    }
}

/// Workload names, in report order.
pub const NAMES: [&str; 4] = [
    "dense_shared",
    "dense_sharded",
    "sparse_shared",
    "serve_hotswap",
];

/// The workload called `name`, at full or `--smoke` size.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    // Target losses are calibrated per size: the crossing epoch is the same,
    // within a few, on every seed (see README, "Calibration").
    let dense = |name, why, backend| Spec {
        name,
        why,
        problem: if smoke {
            Problem::Dense { n: 256, m: 512 }
        } else {
            Problem::Dense { n: 2048, m: 8192 }
        },
        backend,
        epochs: if smoke { 12 } else { 30 },
        step_size: 0.1,
        step_decay: 0.95,
        target_loss: if smoke { 0.6 } else { 0.9 },
        serve_rows: 8,
        phase1: true,
    };
    Some(match name {
        "dense_shared" => dense(
            "dense_shared",
            "Paper's flagship: every worker writes one 2 KiB D8M8 model each iteration, so kernels, core::model atomics and coherence do the work; shard/ring/delta sit idle.",
            Backend::SharedModel,
        ),
        "dense_sharded" => dense(
            "dense_sharded",
            "Same problem, seed and steps on worker-private replicas: shared-model coherence idles while core::shard, core::ring and kernels::delta work.",
            Backend::ShardedDelta,
        ),
        "sparse_shared" => Spec {
            name: "sparse_shared",
            why: "Gather/scatter over a 256 KiB model outside L1 with rare collisions: the dense SIMD kernels idle, and each served row is a 1 MiB frame, so serve::wire and the socket dominate a request.",
            problem: if smoke {
                Problem::Sparse { n: 1 << 14, m: 1 << 10, nnz: 16 }
            } else {
                Problem::Sparse { n: 1 << 18, m: 1 << 16, nnz: 64 }
            },
            backend: Backend::SharedModel,
            epochs: if smoke { 8 } else { 20 },
            step_size: 0.1,
            step_decay: 0.95,
            target_loss: if smoke { 0.6 } else { 0.0615 },
            serve_rows: 1,
            phase1: true,
        },
        "serve_hotswap" => Spec {
            name: "serve_hotswap",
            why: "Small 64 KiB requests against a model hot-swapped every epoch: serve::wire, server, hub and core::predict do the work, publish races current(), and training is measured under serving load.",
            problem: if smoke {
                Problem::Dense { n: 256, m: 512 }
            } else {
                Problem::Dense { n: 1024, m: 8192 }
            },
            backend: Backend::SharedModel,
            epochs: if smoke { 12 } else { 30 },
            step_size: 0.1,
            step_decay: 0.95,
            target_loss: if smoke { 0.6 } else { 0.9 },
            serve_rows: 16,
            phase1: false,
        },
        _ => return None,
    })
}
