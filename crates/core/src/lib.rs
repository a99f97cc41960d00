//! **Buckwild!**: asynchronous low-precision stochastic gradient descent.
//!
//! This crate is the primary artifact of the `buckwild` workspace, a Rust
//! reproduction of *Understanding and Optimizing Asynchronous Low-Precision
//! Stochastic Gradient Descent* (De Sa, Feldman, Ré, Olukotun — ISCA 2017).
//! It trains generalized linear models (logistic regression, linear
//! regression, linear SVMs) with the paper's two performance techniques
//! composed:
//!
//! * **Asynchronous execution** (Hogwild!): multiple workers update one
//!   shared model without locks. In this Rust implementation the benign
//!   data races of the C++ original become *relaxed atomic* loads and
//!   stores — same hardware behavior, defined semantics.
//! * **Low-precision computation** (Buckwild!): the dataset and/or the
//!   model are stored in 8- or 16-bit fixed point, selected by a DMGC
//!   [`Signature`], with biased or unbiased (stochastic) rounding on every
//!   model write.
//!
//! The entry point is [`SgdConfig`]: a builder capturing every axis the
//! paper sweeps — precision signature, rounding mode, quantizer strategy,
//! mini-batch size, thread count, and step size. [`SgdConfig::train`]
//! accepts any [`TrainData`] dataset (dense `f32` or sparse CSR),
//! quantizes the input to the signature's precisions, and runs SGD,
//! returning a [`TrainReport`] with the recovered model, per-epoch losses,
//! and efficiency metrics (wall time, iterations, GNPS) derived from the
//! run's telemetry snapshot. [`SgdConfig::train_traced`] accepts any
//! `buckwild_telemetry::Recorder` and [`Tracer`] for custom
//! instrumentation, and [`SgdConfig::on_epoch`] installs an observer that
//! can stop training early.
//!
//! ```
//! use buckwild::{Loss, SgdConfig};
//! use buckwild_dataset::generate;
//!
//! let problem = generate::logistic_dense(64, 500, 42);
//! let report = SgdConfig::new(Loss::Logistic)
//!     .signature("D8M8".parse()?)
//!     .step_size(0.5)
//!     .step_decay(0.8)
//!     .epochs(10)
//!     .train(&problem.data)?;
//! assert!(report.final_loss() < 0.55); // well below ln 2 ≈ 0.693 at chance
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Fault injection: the `buckwild-chaos` crate defines a seeded
//! [`FaultPlan`] — worker stalls, dropped or delayed shared-model writes,
//! obstinate-cache read staleness, progress skew, and mid-epoch crashes
//! with checkpoint recovery — and the engines execute it deterministically.
//! A plan is part of the configuration: [`SgdConfig::faults`] injects it
//! into the threaded Hogwild engine, and [`ChaosSgdConfig`] (which takes
//! its plan in `new`) runs the single-thread deterministic simulator, a
//! scheduler over the threaded engine's own dot and AXPY whose
//! [`TrainReport`] is bit-reproducible per seed. The common import surface
//! lives in [`prelude`].
//!
//! Observability: the `buckwild-trace` crate defines zero-cost span
//! tracing on the same monomorphization discipline as the telemetry
//! recorder. Every engine has exactly two entry points, `train(&data)` and
//! `train_traced(&data, …)`: the configuration decides what a run computes,
//! fault plan included, and `train_traced`'s arguments decide who watches
//! it. The traced entry points ([`SgdConfig::train_traced`],
//! [`ChaosSgdConfig::train_traced`]) record per-worker
//! epoch/minibatch/kernel/write/fault timelines into a [`RingTracer`],
//! exportable as Chrome trace-event JSON (chrome://tracing, Perfetto) or a
//! flamegraph-style self-time summary.
//!
//! Supporting modules: [`model`] (the shared atomic parameter vector),
//! [`loss`] (the GLM losses, all a single dot-and-AXPY pair per step),
//! [`predict`] (the unified [`Predictor`] scoring API shared by the
//! metrics, the RFF classifier, and the `buckwild-serve` inference
//! server, plus the [`QuantizedModel`] snapshot representation),
//! [`chaos`] (the deterministic fault simulator, whose `obstinacy` knob
//! emulates the paper's obstinate-cache staleness process for the Figure
//! 6f experiment), and [`rff`] (random Fourier features + one-vs-all
//! SVMs, the Figure 7d/7e workload).
//!
//! Serving: [`SgdConfig::on_snapshot`] publishes an epoch-tagged
//! [`EpochSnapshot`] after every epoch on both backends — the hand-off
//! the `buckwild-serve` crate consumes to answer predictions while
//! training continues.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod chaos;
mod config;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod predict;
pub mod prelude;
pub mod rff;
pub mod ring;
mod shard;
mod train;
mod words;

pub use chaos::ChaosSgdConfig;
pub use config::{
    default_backend, set_default_backend, Backend, ConfigError, EpochObserver, QuantizerConfig,
    SgdConfig, SnapshotObserver,
};
pub use loss::Loss;
pub use metrics::{accuracy, mean_loss};
pub use model::{ModelPrecision, SharedModel};
pub use predict::{EpochSnapshot, FixedWords, Predictor, QuantizedModel};
pub use train::{metric, TrainControl, TrainData, TrainError, TrainProgress, TrainReport};

// Re-export the vocabulary types callers need to configure training.
pub use buckwild_chaos::{CrashSpec, FaultPlan, IterFate, PlanError, WorkerRun, WriteFate};
pub use buckwild_dmgc::Signature;
pub use buckwild_fixed::Rounding;
pub use buckwild_kernels::{isa as kernel_isa, KernelIsa};
pub use buckwild_prng::PrngKind;
pub use buckwild_trace::{
    fault_kind, NoopTracer, NoopWorkerTracer, Phase, RingTracer, SpanEvent, Trace, Tracer,
    WorkerTracer,
};
