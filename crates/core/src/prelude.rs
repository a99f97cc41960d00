//! One-stop import surface for the public training API.
//!
//! Pulls in the two engines ([`SgdConfig`], [`ChaosSgdConfig`]), the
//! [`TrainReport`] and error types they share, the fault-plan vocabulary ([`FaultPlan`] and
//! the fates it schedules), and the configuration enums. Examples and
//! downstream code should start with:
//!
//! ```
//! use buckwild::prelude::*;
//! use buckwild_dataset::generate;
//!
//! let problem = generate::logistic_dense(32, 200, 11);
//! let report = SgdConfig::new(Loss::Logistic).epochs(4).train(&problem.data)?;
//! assert!(report.final_loss().is_finite());
//! # Ok::<(), TrainError>(())
//! ```

pub use crate::chaos::ChaosSgdConfig;
pub use crate::config::{
    default_backend, set_default_backend, Backend, ConfigError, EpochObserver, QuantizerConfig,
    SgdConfig, SnapshotObserver,
};
pub use crate::loss::Loss;
pub use crate::metrics::{accuracy, accuracy_sparse, mean_loss, mean_loss_sparse};
pub use crate::model::{ModelPrecision, SharedModel};
pub use crate::predict::{EpochSnapshot, FixedWords, Predictor, QuantizedModel};
pub use crate::train::{TrainControl, TrainData, TrainError, TrainProgress, TrainReport};

pub use buckwild_chaos::{CrashSpec, FaultPlan, IterFate, PlanError, WorkerRun, WriteFate};
pub use buckwild_dmgc::Signature;
pub use buckwild_fixed::Rounding;
pub use buckwild_prng::PrngKind;
pub use buckwild_trace::{NoopTracer, Phase, RingTracer, Trace, Tracer, WorkerTracer};
