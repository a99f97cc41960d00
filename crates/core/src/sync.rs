//! Synchronous data-parallel SGD with explicit, quantized communication —
//! the DMGC model's **C** term made concrete.
//!
//! Hogwild!/Buckwild! communicate *implicitly* through cache coherence, so
//! their signatures have no `C` term. The other family the paper
//! classifies (Table 1) communicates *explicitly*: Seide et al.'s "1-bit
//! SGD" (`Cs1`) has synchronous workers exchange gradients quantized to
//! one bit per value, keeping the quantization error locally and carrying
//! it into the next round ("error feedback") so the noise telescopes
//! instead of accumulating.
//!
//! This module implements that whole family: `W` workers compute exact
//! mini-batch gradients on shards of the data, quantize them to
//! `comm_bits` (optionally with error feedback), and a parameter server
//! averages the dequantized gradients into a shared full-precision model.
//! With `comm_bits = 32` it degenerates to plain synchronous SGD; with
//! `comm_bits = 1` and error feedback it is Seide-style 1-bit SGD.
//!
//! # Example
//!
//! ```
//! use buckwild::sync::SyncSgdConfig;
//! use buckwild::Loss;
//! use buckwild_dataset::generate;
//!
//! let problem = generate::logistic_dense(32, 400, 1);
//! let report = SyncSgdConfig::new(Loss::Logistic, 1) // 1-bit comm
//!     .error_feedback(true)
//!     .epochs(6)
//!     .train(&problem.data)?;
//! assert!(report.final_loss() < 0.6);
//! # Ok::<(), buckwild::TrainError>(())
//! ```

use std::sync::Arc;
use std::time::Instant;

use buckwild_chaos::{FaultPlan, WriteFate};
use buckwild_dataset::DenseDataset;
use buckwild_dmgc::{NumberFormat, Signature, SyncMode};
use buckwild_trace::{fault_kind, NoopTracer, Phase, Tracer, WorkerTracer};

use crate::config::EpochObserver;
use crate::{metrics, ConfigError, Loss, TrainControl, TrainError, TrainProgress};

/// Configuration for synchronous quantized-communication SGD.
///
/// Shares the caller-facing contract of [`crate::SgdConfig`]: the same
/// [`TrainError`]/[`ConfigError`] error surface and the same
/// [`on_epoch`](Self::on_epoch) observer hook.
#[derive(Clone)]
pub struct SyncSgdConfig {
    /// The objective.
    pub loss: Loss,
    /// Bits per communicated gradient value (1..=32; 32 = no quantization).
    pub comm_bits: u32,
    /// Carry the quantization residual into the next round (Seide et al.'s
    /// key trick; without it 1-bit communication stalls).
    pub error_feedback: bool,
    /// Number of synchronous workers.
    pub workers: usize,
    /// Examples per worker per communication round.
    pub batch_per_worker: usize,
    /// Step size.
    pub step_size: f32,
    /// Per-epoch step decay.
    pub step_decay: f32,
    /// Passes over the data.
    pub epochs: usize,
    /// Faults injected into the run (`None` = none); set with
    /// [`SyncSgdConfig::faults`].
    faults: Option<FaultPlan>,
    /// Observer called after each epoch; may stop training early.
    pub on_epoch: Option<EpochObserver>,
}

impl std::fmt::Debug for SyncSgdConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncSgdConfig")
            .field("loss", &self.loss)
            .field("comm_bits", &self.comm_bits)
            .field("error_feedback", &self.error_feedback)
            .field("workers", &self.workers)
            .field("batch_per_worker", &self.batch_per_worker)
            .field("step_size", &self.step_size)
            .field("step_decay", &self.step_decay)
            .field("epochs", &self.epochs)
            .field("faults", &self.faults)
            .field("on_epoch", &self.on_epoch.as_ref().map(|_| "<observer>"))
            .finish()
    }
}

impl PartialEq for SyncSgdConfig {
    fn eq(&self, other: &Self) -> bool {
        let observers_eq = match (&self.on_epoch, &other.on_epoch) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.loss == other.loss
            && self.comm_bits == other.comm_bits
            && self.error_feedback == other.error_feedback
            && self.workers == other.workers
            && self.batch_per_worker == other.batch_per_worker
            && self.step_size == other.step_size
            && self.step_decay == other.step_decay
            && self.epochs == other.epochs
            && self.faults == other.faults
            && observers_eq
    }
}

impl SyncSgdConfig {
    /// A default configuration with the given communication precision.
    #[must_use]
    pub fn new(loss: Loss, comm_bits: u32) -> Self {
        SyncSgdConfig {
            loss,
            comm_bits,
            error_feedback: true,
            workers: 4,
            batch_per_worker: 8,
            step_size: 0.5,
            step_decay: 0.9,
            epochs: 10,
            faults: None,
            on_epoch: None,
        }
    }

    /// Enables or disables error feedback.
    #[must_use]
    pub fn error_feedback(mut self, enabled: bool) -> Self {
        self.error_feedback = enabled;
        self
    }

    /// Sets the number of workers.
    #[must_use]
    pub fn workers(mut self, w: usize) -> Self {
        self.workers = w;
        self
    }

    /// Sets the per-worker batch size per round.
    #[must_use]
    pub fn batch_per_worker(mut self, b: usize) -> Self {
        self.batch_per_worker = b;
        self
    }

    /// Sets the step size.
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

    /// Sets the epoch count.
    #[must_use]
    pub fn epochs(mut self, e: usize) -> Self {
        self.epochs = e;
        self
    }

    /// Injects a seeded [`FaultPlan`]: each round, each worker's gradient
    /// message is dropped with the plan's write-drop probability (the
    /// worker skips the round entirely — the parameter server averages
    /// over the survivors). Delays collapse to the round barrier, so only
    /// the drop knob bites here. The schedule comes from the plan's seed.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs an observer called after every epoch with a
    /// [`TrainProgress`], exactly like [`crate::SgdConfig::on_epoch`];
    /// returning [`TrainControl::Stop`] ends the run early.
    #[must_use]
    pub fn on_epoch(
        mut self,
        observer: impl Fn(&TrainProgress) -> TrainControl + Send + Sync + 'static,
    ) -> Self {
        self.on_epoch = Some(Arc::new(observer));
        self
    }

    /// The DMGC signature of this configuration: full-precision dataset
    /// and model, explicit synchronous communication at `comm_bits`
    /// (e.g. `Cs1` for Seide et al.).
    #[must_use]
    pub fn signature(&self) -> Signature {
        if self.comm_bits == 32 {
            Signature::full_precision().with_comm(NumberFormat::F32, SyncMode::Synchronous)
        } else {
            Signature::full_precision()
                .with_comm(NumberFormat::fixed(self.comm_bits), SyncMode::Synchronous)
        }
    }

    /// Runs synchronous training; returns the per-epoch mean losses and
    /// the messages the configured [`faults`](Self::faults) dropped.
    ///
    /// # Errors
    ///
    /// [`TrainError::Plan`] for an invalid fault plan;
    /// [`TrainError::Config`] for invalid parameters;
    /// [`TrainError::EmptyDataset`] for empty input.
    pub fn train(&self, data: &DenseDataset<f32>) -> Result<SyncFaultReport, TrainError> {
        self.train_traced(data, &NoopTracer)
    }

    /// Runs synchronous training while recording span timelines through
    /// the given [`Tracer`]: per-round gradient-kernel spans on each
    /// worker row, the server's model-update span and per-epoch spans on
    /// the driver row (`workers`), and fault spans for dropped gradient
    /// messages.
    ///
    /// # Errors
    ///
    /// See [`SyncSgdConfig::train`].
    pub fn train_traced<T: Tracer>(
        &self,
        data: &DenseDataset<f32>,
        tracer: &T,
    ) -> Result<SyncFaultReport, TrainError> {
        let plan = self.faults.as_ref();
        if let Some(p) = plan {
            p.validate()?;
        }
        if self.comm_bits == 0 || self.comm_bits > 32 {
            return Err(TrainError::Config(ConfigError::InvalidParameter(
                "communication bits (1..=32)",
            )));
        }
        if self.workers == 0 || self.batch_per_worker == 0 || self.epochs == 0 {
            return Err(TrainError::Config(ConfigError::InvalidParameter(
                "worker/batch/epoch count",
            )));
        }
        if self.step_size <= 0.0 || !self.step_size.is_finite() {
            return Err(TrainError::Config(ConfigError::InvalidParameter(
                "step size",
            )));
        }
        if self.step_decay <= 0.0 || !self.step_decay.is_finite() {
            return Err(TrainError::Config(ConfigError::InvalidParameter(
                "step decay",
            )));
        }
        if data.examples() == 0 {
            return Err(TrainError::EmptyDataset);
        }

        let n = data.features();
        let m = data.examples();
        let mut model = vec![0f32; n];
        // Per-worker carried quantization residuals.
        let mut residuals = vec![vec![0f32; n]; self.workers];
        let mut losses = Vec::with_capacity(self.epochs);
        let round_size = self.workers * self.batch_per_worker;
        let mut dropped_messages = 0u64;
        let start_time = Instant::now();
        // One span row per (logical) worker plus a driver row for the
        // parameter server: epoch boundaries and the aggregated model
        // update live on the driver row, gradient computation on the
        // worker rows. The engine is sequential, so the rows reflect the
        // logical round structure rather than real parallelism.
        let mut wtracers: Vec<T::Worker> = (0..self.workers).map(|w| tracer.worker(w)).collect();
        let mut driver = tracer.worker(self.workers);

        for epoch in 0..self.epochs {
            let epoch_span = driver.begin();
            let step = self.step_size * self.step_decay.powi(epoch as i32);
            let mut runs: Option<Vec<_>> =
                plan.map(|p| (0..self.workers).map(|w| p.worker_run(w, epoch)).collect());
            let mut cursor = 0usize;
            while cursor < m {
                let mut aggregated = vec![0f32; n];
                let mut senders = 0usize;
                for (w, residual) in residuals.iter_mut().enumerate() {
                    // Worker w's shard of this round.
                    let start = cursor + w * self.batch_per_worker;
                    if start >= m {
                        continue;
                    }
                    // Injected communication fault: the message for this
                    // round never reaches the server.
                    if let Some(runs) = runs.as_mut() {
                        if matches!(runs[w].write_fate(), WriteFate::Drop) {
                            dropped_messages += 1;
                            let now = wtracers[w].now();
                            wtracers[w].record(
                                Phase::ChaosFault,
                                now,
                                1,
                                fault_kind::DROPPED_WRITE,
                            );
                            continue;
                        }
                    }
                    let end = (start + self.batch_per_worker).min(m);
                    let round_span = wtracers[w].begin();
                    let mut gradient = vec![0f32; n];
                    for i in start..end {
                        let x = data.example(i);
                        let dot: f32 = x.iter().zip(&model).map(|(&a, &b)| a * b).sum();
                        let a =
                            self.loss.axpy_scale(dot, data.label(i), 1.0) / (end - start) as f32;
                        for (g, &xj) in gradient.iter_mut().zip(x) {
                            *g += a * xj;
                        }
                    }
                    // Quantize the (ascent-direction) gradient for the wire.
                    let message =
                        quantize_message(&gradient, residual, self.comm_bits, self.error_feedback);
                    for (agg, msg) in aggregated.iter_mut().zip(&message) {
                        *agg += msg;
                    }
                    senders += 1;
                    wtracers[w].end(
                        Phase::GradientKernel,
                        round_span,
                        ((end - start) * n) as u64,
                    );
                }
                if senders > 0 {
                    let write_span = driver.begin();
                    let scale = step / senders as f32;
                    for (wj, agg) in model.iter_mut().zip(&aggregated) {
                        *wj += scale * agg;
                    }
                    driver.end(Phase::ModelWrite, write_span, n as u64);
                }
                cursor += round_size;
            }
            driver.end(Phase::Epoch, epoch_span, epoch as u64);
            let loss = metrics::mean_loss(self.loss, &model, data);
            losses.push(loss);
            if let Some(observer) = &self.on_epoch {
                let progress = TrainProgress {
                    epoch,
                    epochs: self.epochs,
                    loss: Some(loss),
                    wall_seconds: start_time.elapsed().as_secs_f64(),
                    iterations: (m * (epoch + 1)) as u64,
                };
                if observer(&progress) == TrainControl::Stop {
                    break;
                }
            }
        }
        Ok(SyncFaultReport {
            epoch_losses: losses,
            dropped_messages,
        })
    }
}

/// The result of a fault-injected synchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncFaultReport {
    epoch_losses: Vec<f64>,
    dropped_messages: u64,
}

impl SyncFaultReport {
    /// Mean training loss after each epoch.
    #[must_use]
    pub fn epoch_losses(&self) -> &[f64] {
        &self.epoch_losses
    }

    /// The last epoch's training loss.
    ///
    /// # Panics
    ///
    /// Panics if no epochs ran.
    #[must_use]
    pub fn final_loss(&self) -> f64 {
        *self.epoch_losses.last().expect("no epochs ran")
    }

    /// Gradient messages the fault plan discarded.
    #[must_use]
    pub fn dropped_messages(&self) -> u64 {
        self.dropped_messages
    }
}

/// Quantizes a gradient vector for the wire at `bits` precision, updating
/// the carried residual. Returns the *dequantized* message (what the
/// receiver reconstructs).
///
/// For `bits = 1` this is Seide-style sign quantization with a magnitude
/// scalar (the mean absolute value); for wider widths it is a uniform grid
/// scaled to the message's max magnitude. At `bits = 32` the gradient
/// passes through exactly.
fn quantize_message(
    gradient: &[f32],
    residual: &mut [f32],
    bits: u32,
    error_feedback: bool,
) -> Vec<f32> {
    if bits >= 32 {
        return gradient.to_vec();
    }
    // The value each worker *wants* to send.
    let intended: Vec<f32> = gradient
        .iter()
        .zip(residual.iter())
        .map(|(&g, &r)| g + if error_feedback { r } else { 0.0 })
        .collect();
    let reconstructed: Vec<f32> = if bits == 1 {
        let mean_abs = intended.iter().map(|v| v.abs()).sum::<f32>() / intended.len().max(1) as f32;
        intended
            .iter()
            .map(|&v| if v >= 0.0 { mean_abs } else { -mean_abs })
            .collect()
    } else {
        let max_abs = intended.iter().fold(0f32, |acc, &v| acc.max(v.abs()));
        if max_abs == 0.0 {
            vec![0f32; intended.len()]
        } else {
            let levels = (1i64 << (bits - 1)) - 1;
            let quantum = max_abs / levels as f32;
            intended
                .iter()
                .map(|&v| (v / quantum).round().clamp(-(levels as f32), levels as f32) * quantum)
                .collect()
        }
    };
    if error_feedback {
        for ((r, &want), &got) in residual.iter_mut().zip(&intended).zip(&reconstructed) {
            *r = want - got;
        }
    }
    reconstructed
}

#[cfg(test)]
mod tests {
    use super::*;
    use buckwild_dataset::generate;

    fn problem() -> buckwild_dataset::Problem<DenseDataset<f32>> {
        generate::logistic_dense(48, 600, 61)
    }

    #[test]
    fn full_precision_sync_converges() {
        let p = problem();
        let report = SyncSgdConfig::new(Loss::Logistic, 32)
            .train(&p.data)
            .expect("valid");
        assert!(report.final_loss() < 0.45, "{report:?}");
    }

    #[test]
    fn one_bit_with_error_feedback_tracks_full_precision() {
        // The Seide et al. claim, reproduced: 1-bit communication with
        // carried error costs little.
        let p = problem();
        let full = SyncSgdConfig::new(Loss::Logistic, 32)
            .train(&p.data)
            .expect("valid");
        let onebit = SyncSgdConfig::new(Loss::Logistic, 1)
            .error_feedback(true)
            .train(&p.data)
            .expect("valid");
        assert!(
            onebit.final_loss() < full.final_loss() + 0.1,
            "1-bit {onebit:?} vs full {full:?}"
        );
    }

    #[test]
    fn error_feedback_matters_at_one_bit() {
        let p = problem();
        let with = SyncSgdConfig::new(Loss::Logistic, 1)
            .error_feedback(true)
            .train(&p.data)
            .expect("valid");
        let without = SyncSgdConfig::new(Loss::Logistic, 1)
            .error_feedback(false)
            .train(&p.data)
            .expect("valid");
        assert!(
            with.final_loss() < without.final_loss(),
            "with {with:?} vs without {without:?}"
        );
    }

    #[test]
    fn intermediate_widths_interpolate() {
        let p = problem();
        let run = |bits: u32| {
            SyncSgdConfig::new(Loss::Logistic, bits)
                .train(&p.data)
                .expect("valid")
                .final_loss()
        };
        let full = run(32);
        let eight = run(8);
        assert!((eight - full).abs() < 0.05, "8-bit {eight} vs full {full}");
    }

    #[test]
    fn signature_matches_table1() {
        let config = SyncSgdConfig::new(Loss::Logistic, 1);
        assert_eq!(config.signature().to_string(), "Cs1");
        let wide = SyncSgdConfig::new(Loss::Logistic, 32);
        assert_eq!(wide.signature().to_string(), "Cs32f");
    }

    #[test]
    fn quantize_message_residual_telescopes() {
        let gradient = vec![0.3f32, -0.2, 0.05];
        let mut residual = vec![0f32; 3];
        let msg = quantize_message(&gradient, &mut residual, 1, true);
        // Residual + message == intended value exactly.
        for ((&g, &r), &m) in gradient.iter().zip(&residual).zip(&msg) {
            assert!((g - (r + m)).abs() < 1e-6);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let p = problem();
        assert!(SyncSgdConfig::new(Loss::Logistic, 0)
            .train(&p.data)
            .is_err());
        assert!(SyncSgdConfig::new(Loss::Logistic, 33)
            .train(&p.data)
            .is_err());
        assert!(SyncSgdConfig::new(Loss::Logistic, 8)
            .workers(0)
            .train(&p.data)
            .is_err());
    }

    #[test]
    fn traced_sync_run_records_round_structure() {
        use buckwild_trace::RingTracer;

        let p = problem();
        let config = SyncSgdConfig::new(Loss::Logistic, 8).workers(4).epochs(3);
        let plain = config.train(&p.data).expect("valid");
        let tracer = RingTracer::new();
        let report = config.train_traced(&p.data, &tracer).expect("valid");
        assert_eq!(report, plain);
        let trace = tracer.drain();
        let count = |phase: Phase| trace.events().iter().filter(|e| e.phase == phase).count();
        // One epoch span per epoch, on the driver row.
        assert_eq!(count(Phase::Epoch), 3);
        assert!(trace
            .events()
            .iter()
            .filter(|e| e.phase == Phase::Epoch)
            .all(|e| e.worker == 4));
        // Every round: one gradient span per sending worker, one server
        // write.
        let rounds = p.data.examples().div_ceil(4 * config.batch_per_worker);
        assert_eq!(count(Phase::ModelWrite), 3 * rounds);
        assert!(count(Phase::GradientKernel) >= 3 * rounds);
        assert_eq!(count(Phase::ChaosFault), 0);
    }

    #[test]
    fn traced_sync_faults_surface_as_fault_spans() {
        use buckwild_trace::RingTracer;

        let p = problem();
        let plan = FaultPlan::new(7).drop_writes(0.5);
        let tracer = RingTracer::new();
        let report = SyncSgdConfig::new(Loss::Logistic, 8)
            .workers(4)
            .epochs(2)
            .faults(plan)
            .train_traced(&p.data, &tracer)
            .expect("valid");
        let trace = tracer.drain();
        let faults = trace
            .events()
            .iter()
            .filter(|e| e.phase == Phase::ChaosFault)
            .count() as u64;
        assert_eq!(faults, report.dropped_messages());
        assert!(faults > 0, "drop probability 0.5 should fire");
    }
}
