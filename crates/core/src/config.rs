//! The SGD configuration builder — every axis the paper sweeps, one type.

use core::fmt;
use std::num::NonZeroU32;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;

use buckwild_chaos::FaultPlan;
use buckwild_dmgc::Signature;
use buckwild_fixed::Rounding;
use buckwild_kernels::cost::QuantizerKind;

use crate::predict::EpochSnapshot;
use crate::train::{TrainControl, TrainProgress};
use crate::Loss;

/// Which training engine executes the run (paper §2 vs ROADMAP item 1).
///
/// * [`Backend::SharedModel`] — the classic Hogwild!/Buckwild! engine:
///   every worker updates one shared atomic model, communication happens
///   implicitly through cache coherence.
/// * [`Backend::ShardedDelta`] — the shared-nothing engine: each worker
///   owns a 64-byte-aligned model replica in a pre-allocated arena, is
///   pinned to a core (best effort, Linux), and broadcasts 8-bit
///   quantized model deltas to its peers over bounded lock-free SPSC
///   rings instead of contending on shared cache lines.
///
/// With one worker the two backends are bit-identical; with many, the
/// sharded engine trades a small, bounded gradient staleness (the delta
/// exchange period) for the elimination of coherence traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// One shared atomic model, racy Hogwild!-style writes (the default).
    #[default]
    SharedModel,
    /// Per-worker aligned replicas exchanging quantized deltas over SPSC
    /// rings.
    ShardedDelta,
}

impl Backend {
    /// The short name used by `--backend` flags and report labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::SharedModel => "shared",
            Backend::ShardedDelta => "sharded",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "shared" | "shared-model" | "hogwild" => Ok(Backend::SharedModel),
            "sharded" | "sharded-delta" | "shard" => Ok(Backend::ShardedDelta),
            other => Err(format!(
                "unknown backend `{other}` (expected `shared` or `sharded`)"
            )),
        }
    }
}

/// Process-wide default backend override: 0 = unset, else discriminant+1.
static DEFAULT_BACKEND: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide default backend used by [`SgdConfig::new`].
///
/// This is how `--backend` on the experiment binaries reaches every
/// configuration they build internally; an explicit
/// [`SgdConfig::backend`] call always wins over the default.
pub fn set_default_backend(backend: Backend) {
    let code = match backend {
        Backend::SharedModel => 1,
        Backend::ShardedDelta => 2,
    };
    DEFAULT_BACKEND.store(code, Ordering::Relaxed);
}

/// The default backend for new configurations: the value installed by
/// [`set_default_backend`], else the `BUCKWILD_BACKEND` environment
/// variable (`shared` / `sharded`), else [`Backend::SharedModel`].
#[must_use]
pub fn default_backend() -> Backend {
    match DEFAULT_BACKEND.load(Ordering::Relaxed) {
        1 => Backend::SharedModel,
        2 => Backend::ShardedDelta,
        _ => {
            static FROM_ENV: OnceLock<Backend> = OnceLock::new();
            *FROM_ENV
                .get_or_init(|| backend_from_env(std::env::var("BUCKWILD_BACKEND").ok().as_deref()))
        }
    }
}

/// The backend a `BUCKWILD_BACKEND` value selects. An unparsable value
/// falls back to the default with a warning on stderr, so a typo in a CI
/// matrix cannot quietly test `shared` twice.
fn backend_from_env(value: Option<&str>) -> Backend {
    match value.map(str::parse) {
        Some(Ok(backend)) => backend,
        Some(Err(e)) => {
            eprintln!("buckwild: ignoring BUCKWILD_BACKEND: {e}");
            Backend::default()
        }
        None => Backend::default(),
    }
}

/// How stochastic-rounding randomness is produced (paper §5.2).
///
/// Thin wrapper pairing the quantizer strategy with the shared-randomness
/// refresh period; see [`QuantizerKind`] for the strategy taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantizerConfig {
    /// The generation strategy.
    pub kind: QuantizerKind,
    /// For [`QuantizerKind::XorshiftShared`]: how many writes reuse one
    /// 256-bit block. `None` means "one block per iteration" (the paper's
    /// default cadence).
    pub shared_period: Option<NonZeroU32>,
}

impl Default for QuantizerConfig {
    fn default() -> Self {
        QuantizerConfig {
            kind: QuantizerKind::XorshiftShared,
            shared_period: None,
        }
    }
}

/// An epoch observer installed with [`SgdConfig::on_epoch`].
pub type EpochObserver = Arc<dyn Fn(&TrainProgress) -> TrainControl + Send + Sync>;

/// A snapshot publication hook installed with [`SgdConfig::on_snapshot`]:
/// called after every completed epoch with the epoch-tagged quantized
/// model. This is how the online serving path receives fresh weights
/// while training continues.
pub type SnapshotObserver = Arc<dyn Fn(EpochSnapshot) + Send + Sync>;

/// Error from an invalid [`SgdConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The signature's model precision has no shared-storage implementation.
    UnsupportedModelPrecision(String),
    /// The signature's dataset precision has no storage implementation.
    UnsupportedDatasetPrecision(String),
    /// A numeric parameter was zero or out of range.
    InvalidParameter(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnsupportedModelPrecision(sig) => write!(
                f,
                "signature {sig}: model precision must be 8, 16, or 32f for shared training \
                 (4-bit models are evaluated via the packed kernels and cost model)"
            ),
            ConfigError::UnsupportedDatasetPrecision(sig) => write!(
                f,
                "signature {sig}: dataset precision must be 8, 16, or 32f"
            ),
            ConfigError::InvalidParameter(what) => write!(f, "{what} must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration for one SGD run: the paper's full experimental surface.
///
/// Construct with [`SgdConfig::new`], chain setters, then call
/// [`SgdConfig::train`] on any dense or sparse dataset.
///
/// # Example
///
/// ```
/// use buckwild::{Loss, Rounding, SgdConfig};
///
/// let config = SgdConfig::new(Loss::Logistic)
///     .signature("D8M16".parse().unwrap())
///     .rounding(Rounding::Unbiased)
///     .step_size(0.2)
///     .threads(2)
///     .minibatch(4)
///     .epochs(3)
///     .seed(7);
/// assert_eq!(config.validate(), Ok(()));
/// ```
#[derive(Clone)]
pub struct SgdConfig {
    /// The training engine (shared atomic model vs sharded replicas).
    pub backend: Backend,
    /// For [`Backend::ShardedDelta`]: iterations between delta exchanges.
    pub delta_every: usize,
    /// The objective.
    pub loss: Loss,
    /// The DMGC precision signature.
    pub signature: Signature,
    /// Rounding discipline for model writes.
    pub rounding: Rounding,
    /// Randomness strategy for unbiased rounding.
    pub quantizer: QuantizerConfig,
    /// Initial step size η.
    pub step_size: f32,
    /// Multiplicative per-epoch step decay (1.0 = constant).
    pub step_decay: f32,
    /// Mini-batch size B (1 = plain SGD).
    pub minibatch: usize,
    /// Number of asynchronous workers.
    pub threads: usize,
    /// Passes over the dataset.
    pub epochs: usize,
    /// Base seed for dataset quantization and rounding randomness.
    pub seed: u64,
    /// Evaluate and record the training loss after each epoch.
    pub record_losses: bool,
    /// Faults injected into the run (`None` = none); set with
    /// [`SgdConfig::faults`].
    pub(crate) faults: Option<FaultPlan>,
    /// Observer called after each epoch; may stop training early.
    pub on_epoch: Option<EpochObserver>,
    /// Snapshot publication hook called after each epoch with the
    /// epoch-tagged quantized model (the serving hand-off).
    pub on_snapshot: Option<SnapshotObserver>,
}

impl fmt::Debug for SgdConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SgdConfig")
            .field("backend", &self.backend)
            .field("delta_every", &self.delta_every)
            .field("loss", &self.loss)
            .field("signature", &self.signature)
            .field("rounding", &self.rounding)
            .field("quantizer", &self.quantizer)
            .field("step_size", &self.step_size)
            .field("step_decay", &self.step_decay)
            .field("minibatch", &self.minibatch)
            .field("threads", &self.threads)
            .field("epochs", &self.epochs)
            .field("seed", &self.seed)
            .field("record_losses", &self.record_losses)
            .field("faults", &self.faults)
            .field("on_epoch", &self.on_epoch.as_ref().map(|_| "<observer>"))
            .field(
                "on_snapshot",
                &self.on_snapshot.as_ref().map(|_| "<observer>"),
            )
            .finish()
    }
}

impl PartialEq for SgdConfig {
    fn eq(&self, other: &Self) -> bool {
        let observers_eq = match (&self.on_epoch, &other.on_epoch) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let snapshots_eq = match (&self.on_snapshot, &other.on_snapshot) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.backend == other.backend
            && self.delta_every == other.delta_every
            && self.loss == other.loss
            && self.signature == other.signature
            && self.rounding == other.rounding
            && self.quantizer == other.quantizer
            && self.step_size == other.step_size
            && self.step_decay == other.step_decay
            && self.minibatch == other.minibatch
            && self.threads == other.threads
            && self.epochs == other.epochs
            && self.seed == other.seed
            && self.record_losses == other.record_losses
            && self.faults == other.faults
            && observers_eq
            && snapshots_eq
    }
}

impl SgdConfig {
    /// A default configuration for the given loss: full precision, one
    /// thread, B = 1, η = 0.1, 10 epochs.
    #[must_use]
    pub fn new(loss: Loss) -> Self {
        SgdConfig {
            backend: default_backend(),
            delta_every: 16,
            loss,
            signature: Signature::full_precision(),
            rounding: Rounding::Unbiased,
            quantizer: QuantizerConfig::default(),
            step_size: 0.1,
            step_decay: 1.0,
            minibatch: 1,
            threads: 1,
            epochs: 10,
            seed: 0,
            record_losses: true,
            faults: None,
            on_epoch: None,
            on_snapshot: None,
        }
    }

    /// Sets the training engine. Overrides the process default installed
    /// by [`set_default_backend`] / `BUCKWILD_BACKEND`.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the sharded backend's delta-exchange period (iterations
    /// between broadcasts). Ignored by [`Backend::SharedModel`].
    #[must_use]
    pub fn delta_every(mut self, every: usize) -> Self {
        self.delta_every = every;
        self
    }

    /// Sets the DMGC signature.
    #[must_use]
    pub fn signature(mut self, signature: Signature) -> Self {
        self.signature = signature;
        self
    }

    /// Sets the rounding discipline.
    #[must_use]
    pub fn rounding(mut self, rounding: Rounding) -> Self {
        self.rounding = rounding;
        self
    }

    /// Sets the quantizer strategy.
    #[must_use]
    pub fn quantizer(mut self, kind: QuantizerKind) -> Self {
        self.quantizer.kind = kind;
        self
    }

    /// Sets the shared-randomness refresh period (writes per fresh block).
    ///
    /// `None` refreshes the 256-bit block once per iteration, the paper's
    /// default cadence.
    #[must_use]
    pub fn shared_period(mut self, period: Option<NonZeroU32>) -> Self {
        self.quantizer.shared_period = period;
        self
    }

    /// Sets the initial step size.
    #[must_use]
    pub fn step_size(mut self, eta: f32) -> Self {
        self.step_size = eta;
        self
    }

    /// Sets the per-epoch step decay factor.
    #[must_use]
    pub fn step_decay(mut self, decay: f32) -> Self {
        self.step_decay = decay;
        self
    }

    /// Sets the mini-batch size.
    #[must_use]
    pub fn minibatch(mut self, b: usize) -> Self {
        self.minibatch = b;
        self
    }

    /// Sets the worker count.
    #[must_use]
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Sets the number of passes over the data.
    #[must_use]
    pub fn epochs(mut self, e: usize) -> Self {
        self.epochs = e;
        self
    }

    /// Sets the experiment seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables per-epoch loss recording (disable in throughput
    /// benchmarks so evaluation does not pollute the timing).
    #[must_use]
    pub fn record_losses(mut self, record: bool) -> Self {
        self.record_losses = record;
        self
    }

    /// Injects a seeded [`FaultPlan`] into every run of this configuration.
    ///
    /// The plan's stalls, write drops, progress skew, and crashes are
    /// injected into the real threaded Hogwild! loop; crashes recover from
    /// a model checkpoint taken at epoch boundaries. The fault *schedule*
    /// is a pure function of the plan seed, so a failure mode observed
    /// once can be replayed exactly. (Write delays and stale read views
    /// need a scheduler clock, which real threads do not have; those knobs
    /// are exercised by the deterministic engine in
    /// [`ChaosSgdConfig`](crate::ChaosSgdConfig), and a delay here applies
    /// the write immediately.) An invalid plan makes training return
    /// [`TrainError::Plan`](crate::TrainError::Plan).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs an observer called after every epoch with a
    /// [`TrainProgress`]; returning [`TrainControl::Stop`] ends the run
    /// early (the report covers the completed epochs).
    ///
    /// # Example: early stopping at a loss target
    ///
    /// ```
    /// use buckwild::{Loss, SgdConfig, TrainControl};
    /// use buckwild_dataset::generate;
    ///
    /// let problem = generate::logistic_dense(48, 500, 3);
    /// let report = SgdConfig::new(Loss::Logistic)
    ///     .step_size(0.5)
    ///     .step_decay(0.9)
    ///     .epochs(50)
    ///     .on_epoch(|progress| {
    ///         if progress.loss.is_some_and(|l| l < 0.45) {
    ///             TrainControl::Stop
    ///         } else {
    ///             TrainControl::Continue
    ///         }
    ///     })
    ///     .train(&problem.data)
    ///     .unwrap();
    /// // Stopped as soon as the target was hit, well short of 50 epochs.
    /// assert!(report.epoch_losses().len() < 50);
    /// assert!(report.final_loss() < 0.45);
    /// ```
    #[must_use]
    pub fn on_epoch(
        mut self,
        observer: impl Fn(&TrainProgress) -> TrainControl + Send + Sync + 'static,
    ) -> Self {
        self.on_epoch = Some(Arc::new(observer));
        self
    }

    /// Installs a snapshot publication hook called after every completed
    /// epoch with the epoch-tagged quantized model — the hand-off point
    /// between training and the online serving path. Publication happens
    /// outside the timed region, so it never pollutes reported throughput;
    /// its cost is surfaced separately as the `snapshot.publish_ns`
    /// telemetry counter.
    #[must_use]
    pub fn on_snapshot(mut self, observer: impl Fn(EpochSnapshot) + Send + Sync + 'static) -> Self {
        self.on_snapshot = Some(Arc::new(observer));
        self
    }

    /// Checks the configuration without running.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.step_size <= 0.0 || !self.step_size.is_finite() {
            return Err(ConfigError::InvalidParameter("step size"));
        }
        if self.step_decay <= 0.0 || !self.step_decay.is_finite() {
            return Err(ConfigError::InvalidParameter("step decay"));
        }
        if self.minibatch == 0 {
            return Err(ConfigError::InvalidParameter("mini-batch size"));
        }
        if self.threads == 0 {
            return Err(ConfigError::InvalidParameter("thread count"));
        }
        if self.epochs == 0 {
            return Err(ConfigError::InvalidParameter("epoch count"));
        }
        if self.delta_every == 0 {
            return Err(ConfigError::InvalidParameter("delta-exchange period"));
        }
        if crate::ModelPrecision::from_signature(&self.signature).is_none() {
            return Err(ConfigError::UnsupportedModelPrecision(
                self.signature.to_string(),
            ));
        }
        let d = self.signature.dataset();
        let d_ok = matches!(
            (d.bits(), d.is_float()),
            (32, true) | (16, false) | (8, false)
        );
        if !d_ok {
            return Err(ConfigError::UnsupportedDatasetPrecision(
                self.signature.to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SgdConfig::new(Loss::Logistic).validate(), Ok(()));
    }

    #[test]
    fn builder_chains() {
        let c = SgdConfig::new(Loss::Hinge)
            .signature("D8M8".parse().unwrap())
            .step_size(0.5)
            .step_decay(0.9)
            .minibatch(8)
            .threads(4)
            .epochs(2)
            .seed(99)
            .shared_period(NonZeroU32::new(16))
            .record_losses(false);
        assert_eq!(c.loss, Loss::Hinge);
        assert_eq!(c.minibatch, 8);
        assert_eq!(c.threads, 4);
        assert_eq!(c.quantizer.shared_period, NonZeroU32::new(16));
        assert!(!c.record_losses);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn rejects_bad_parameters() {
        let base = SgdConfig::new(Loss::Logistic);
        assert!(base.clone().step_size(0.0).validate().is_err());
        assert!(base.clone().step_decay(-1.0).validate().is_err());
        assert!(base.clone().minibatch(0).validate().is_err());
        assert!(base.clone().threads(0).validate().is_err());
        assert!(base.clone().epochs(0).validate().is_err());
        assert!(base.clone().delta_every(0).validate().is_err());
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("shared".parse(), Ok(Backend::SharedModel));
        assert_eq!("sharded".parse(), Ok(Backend::ShardedDelta));
        assert_eq!("sharded-delta".parse(), Ok(Backend::ShardedDelta));
        assert!("turbo".parse::<Backend>().is_err());
        assert_eq!(Backend::ShardedDelta.to_string(), "sharded");
        let c = SgdConfig::new(Loss::Logistic)
            .backend(Backend::ShardedDelta)
            .delta_every(4);
        assert_eq!(c.backend, Backend::ShardedDelta);
        assert_eq!(c.delta_every, 4);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn backend_env_value_parses_or_falls_back() {
        assert_eq!(backend_from_env(Some("sharded")), Backend::ShardedDelta);
        assert_eq!(backend_from_env(Some("shared")), Backend::SharedModel);
        assert_eq!(backend_from_env(None), Backend::SharedModel);
        // A typo and an empty value warn on stderr and select the default.
        assert_eq!(backend_from_env(Some("shraded")), Backend::SharedModel);
        assert_eq!(backend_from_env(Some("")), Backend::SharedModel);
    }

    #[test]
    fn rejects_unsupported_precisions() {
        let base = SgdConfig::new(Loss::Logistic);
        let err = base
            .clone()
            .signature("D4M4".parse().unwrap())
            .validate()
            .unwrap_err();
        assert!(matches!(err, ConfigError::UnsupportedModelPrecision(_)));
        let err = base
            .signature("D4M8".parse().unwrap())
            .validate()
            .unwrap_err();
        assert!(matches!(err, ConfigError::UnsupportedDatasetPrecision(_)));
    }

    #[test]
    fn errors_display() {
        assert!(ConfigError::InvalidParameter("step size")
            .to_string()
            .contains("step size"));
        assert!(ConfigError::UnsupportedModelPrecision("D4M4".into())
            .to_string()
            .contains("D4M4"));
    }

    #[test]
    fn configs_compare_ignoring_observer_identity_only_when_shared() {
        let base = SgdConfig::new(Loss::Logistic);
        assert_eq!(base.clone(), base.clone());
        let observed = base.clone().on_epoch(|_| TrainControl::Continue);
        // A clone shares the same Arc, so it compares equal...
        assert_eq!(observed.clone(), observed);
        // ...but an independently built observer does not.
        assert_ne!(observed, base.clone().on_epoch(|_| TrainControl::Continue));
        assert_ne!(observed, base);
    }

    #[test]
    fn snapshot_observer_compares_by_identity() {
        let base = SgdConfig::new(Loss::Logistic);
        let hooked = base.clone().on_snapshot(|_| {});
        assert_eq!(hooked.clone(), hooked);
        assert_ne!(hooked, base.clone().on_snapshot(|_| {}));
        assert_ne!(hooked, base);
        assert!(format!("{hooked:?}").contains("on_snapshot"));
    }

    #[test]
    fn debug_formats_without_leaking_observer() {
        let c = SgdConfig::new(Loss::Logistic).on_epoch(|_| TrainControl::Stop);
        let text = format!("{c:?}");
        assert!(text.contains("<observer>"));
    }
}
