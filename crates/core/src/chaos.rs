//! The deterministic chaos engine: virtual-time SGD under a fault plan.
//!
//! The threaded engine ([`SgdConfig::faults`]) injects faults
//! into real Hogwild! threads, where the fault *schedule* is reproducible
//! but the instruction interleaving is not. This module trades real
//! parallelism for a single-OS-thread simulator with round-robin virtual
//! workers and a global scheduler clock, making the *entire* training
//! trajectory — every interleaving, every delayed write, every recovery —
//! a pure function of the seeds. Same seed ⇒ identical [`TrainReport`],
//! including the telemetry snapshot.
//!
//! The simulator is a scheduler, not a second SGD: every model read and
//! write it makes is the threaded engine's own dot or AXPY, run on a
//! plain-word model, and its step schedule and validation are
//! [`SgdConfig`]'s. With one virtual worker and a benign plan it
//! reproduces [`SgdConfig::train`] at one thread bit for bit.
//!
//! Virtual time also unlocks the plan knobs real threads cannot express:
//! write *delays* measured in scheduler ticks (a store-buffer analogue)
//! and per-line stale read views (the paper's §6.2 obstinate cache:
//! `FaultPlan::new(seed).obstinacy(q)` is the Figure 6f experiment).
//!
//! [`SgdConfig::faults`]: crate::SgdConfig::faults

use buckwild_chaos::metric as chaos_metric;
use buckwild_chaos::{FaultPlan, IterFate, WorkerRun, WriteFate};
use buckwild_dataset::DenseDataset;
use buckwild_telemetry::{Counter, Histogram, Recorder, ShardedRecorder};
use buckwild_trace::{fault_kind, NoopTracer, Phase, Tracer, WorkerTracer};

use crate::train::{metric, Examples, QuantState};
use crate::{metrics, Loss, SgdConfig, TrainError, TrainReport};

/// Model elements per emulated 64-byte cache line of `f32` values (the
/// granularity of obstinate-cache view refreshes).
pub const LINE_ELEMS: usize = 16;

/// Configuration for a deterministic fault-injected training run.
///
/// Trains at full precision (`D32fM32f`) on a dense dataset, with
/// `threads` *virtual* workers advanced round-robin by a scheduler clock.
/// The run's values are an [`SgdConfig`] carrying the fault plan, so the
/// simulator accepts and rejects exactly what the threaded engine does.
///
/// # Example
///
/// ```
/// use buckwild::{ChaosSgdConfig, FaultPlan, Loss};
/// use buckwild_dataset::generate;
///
/// let p = generate::logistic_dense(32, 200, 7);
/// let config = ChaosSgdConfig::new(Loss::Logistic, FaultPlan::new(1).drop_writes(0.2))
///     .threads(4)
///     .epochs(4);
/// let a = config.train(&p.data)?;
/// let b = config.train(&p.data)?;
/// assert_eq!(a, b); // bit-identical, telemetry included
/// # Ok::<(), buckwild::TrainError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSgdConfig {
    sgd: SgdConfig,
}

impl ChaosSgdConfig {
    /// A default configuration: 2 virtual workers, step 0.3 decaying by
    /// 0.9 over 8 epochs.
    #[must_use]
    pub fn new(loss: Loss, plan: FaultPlan) -> Self {
        let sgd = SgdConfig::new(loss)
            .threads(2)
            .step_size(0.3)
            .step_decay(0.9)
            .epochs(8)
            .faults(plan);
        ChaosSgdConfig { sgd }
    }

    /// Sets the virtual worker count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.sgd.threads = threads;
        self
    }

    /// Sets the initial step size.
    #[must_use]
    pub fn step_size(mut self, step_size: f32) -> Self {
        self.sgd.step_size = step_size;
        self
    }

    /// Sets the per-epoch step decay factor.
    #[must_use]
    pub fn step_decay(mut self, step_decay: f32) -> Self {
        self.sgd.step_decay = step_decay;
        self
    }

    /// Sets the number of passes over the data.
    #[must_use]
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.sgd.epochs = epochs;
        self
    }

    /// Runs the deterministic engine, collecting telemetry with a sharded
    /// recorder.
    ///
    /// # Errors
    ///
    /// [`TrainError::Plan`] for invalid plans, [`TrainError::Config`] for
    /// invalid hyperparameters, [`TrainError::EmptyDataset`] for empty
    /// input.
    pub fn train(&self, data: &DenseDataset<f32>) -> Result<TrainReport, TrainError> {
        let recorder = ShardedRecorder::new(self.sgd.threads.max(1));
        self.train_traced(data, &recorder, &NoopTracer)
    }

    /// Runs the deterministic engine, recording telemetry through the
    /// given [`Recorder`] and spans through the given [`Tracer`]. The
    /// simulator records no wall-clock metrics, so the full snapshot — and
    /// therefore the whole [`TrainReport`] — is a pure function of the
    /// configuration and seeds; the report's
    /// [`wall_seconds`](TrainReport::wall_seconds) and
    /// [`gnps`](TrainReport::gnps) read 0.
    ///
    /// Spans are stamped with the *scheduler tick* (use a virtual-clock
    /// tracer such as `RingTracer::virtual_clock`): one-tick minibatch
    /// spans per iteration, model-write spans annotated with their
    /// staleness in ticks, fault spans for stalls / dropped and delayed
    /// writes / recoveries, and one epoch span per epoch on the driver
    /// row. With a virtual clock the trace — like the report — is a pure
    /// function of the configuration and seeds, so the exported JSON is
    /// byte-identical across runs.
    ///
    /// # Errors
    ///
    /// See [`ChaosSgdConfig::train`].
    pub fn train_traced<R: Recorder, T: Tracer>(
        &self,
        data: &DenseDataset<f32>,
        recorder: &R,
        tracer: &T,
    ) -> Result<TrainReport, TrainError> {
        let plan = self.sgd.faults.as_ref().expect("new sets the plan");
        plan.validate()?;
        self.sgd.validate()?;
        if data.examples() == 0 {
            return Err(TrainError::EmptyDataset);
        }
        let mut sim = Simulator::new(&self.sgd, plan, data, recorder, tracer);
        for epoch in 0..self.sgd.epochs {
            sim.run_epoch(epoch);
        }
        Ok(TrainReport::from_parts(
            sim.shared,
            sim.epoch_losses,
            recorder.snapshot(),
        ))
    }
}

/// One virtual worker's in-epoch state.
struct VWorker {
    run: WorkerRun,
    /// Next position in this worker's shard (`worker + cursor * threads`).
    cursor: usize,
    /// Examples in this worker's shard this epoch.
    shard_len: usize,
    /// Total iterations completed across the whole run.
    iters: u64,
    /// Remaining stall ticks before the armed iteration executes.
    stall_left: u32,
    /// An iteration fate has been drawn and is waiting to execute.
    armed: bool,
    /// Rounding randomness for this worker's writes this epoch.
    rng: QuantState,
    /// Private stale view of the model (obstinacy > 0 only).
    view: Option<Vec<f32>>,
}

/// A shared-model write sitting in the virtual store buffer.
struct PendingWrite {
    due_tick: u64,
    born_tick: u64,
    worker: usize,
    example: usize,
    coeff: f32,
}

/// Rollback state for crash recovery.
struct Checkpoint {
    model: Vec<f32>,
    cursors: Vec<usize>,
    iters: Vec<u64>,
}

struct Telemetry<C, H> {
    iterations: C,
    numbers: C,
    stalls: C,
    dropped: C,
    delayed: C,
    recoveries: C,
    replayed: C,
    stall_ticks: H,
    write_staleness: H,
    progress_lag: H,
}

struct Simulator<'d, C, H, W> {
    config: &'d SgdConfig,
    plan: &'d FaultPlan,
    data: &'d DenseDataset<f32>,
    shared: Vec<f32>,
    workers: Vec<VWorker>,
    pending: Vec<PendingWrite>,
    tick: u64,
    epoch_losses: Vec<f64>,
    tel: Telemetry<C, H>,
    /// One span sink per virtual worker, stamped with scheduler ticks.
    spans: Vec<W>,
    /// Driver-row span sink (epochs, recoveries) on row `threads`.
    driver: W,
}

impl<'d, C: Counter, H: Histogram, W: WorkerTracer> Simulator<'d, C, H, W> {
    fn new<R: Recorder<Counter = C, Histogram = H>, T: Tracer<Worker = W>>(
        config: &'d SgdConfig,
        plan: &'d FaultPlan,
        data: &'d DenseDataset<f32>,
        recorder: &R,
        tracer: &T,
    ) -> Self {
        let tel = Telemetry {
            iterations: recorder.counter(metric::ITERATIONS),
            numbers: recorder.counter(metric::NUMBERS_PROCESSED),
            stalls: recorder.counter(chaos_metric::STALLS),
            dropped: recorder.counter(chaos_metric::DROPPED_WRITES),
            delayed: recorder.counter(chaos_metric::DELAYED_WRITES),
            recoveries: recorder.counter(chaos_metric::RECOVERIES),
            replayed: recorder.counter(chaos_metric::REPLAYED_ITERATIONS),
            stall_ticks: recorder.histogram(chaos_metric::STALL_TICKS),
            write_staleness: recorder.histogram(chaos_metric::WRITE_STALENESS),
            progress_lag: recorder.histogram(chaos_metric::PROGRESS_LAG),
        };
        Simulator {
            config,
            plan,
            data,
            shared: vec![0f32; data.features()],
            workers: Vec::new(),
            pending: Vec::new(),
            tick: 0,
            epoch_losses: Vec::with_capacity(config.epochs),
            tel,
            spans: (0..config.threads).map(|w| tracer.worker(w)).collect(),
            driver: tracer.worker(config.threads),
        }
    }

    fn run_epoch(&mut self, epoch: usize) {
        let m = self.data.examples();
        let threads = self.config.threads;
        let stale_views = self.plan.obstinacy_q() > 0.0;
        let prev_iters: Vec<u64> = if self.workers.is_empty() {
            vec![0; threads]
        } else {
            self.workers.iter().map(|w| w.iters).collect()
        };
        self.workers = (0..threads)
            .map(|w| VWorker {
                run: self.plan.worker_run(w, epoch),
                cursor: 0,
                shard_len: if w < m { (m - w).div_ceil(threads) } else { 0 },
                iters: prev_iters[w],
                stall_left: 0,
                armed: false,
                rng: self.config.rounding_state(epoch, w),
                view: stale_views.then(|| self.shared.clone()),
            })
            .collect();
        // Implicit epoch-start checkpoint: recovery never replays more
        // than one epoch. A periodic cadence refreshes it mid-epoch.
        let mut checkpoint = self.take_checkpoint();
        let mut next_periodic = self
            .plan
            .checkpoint_iterations()
            .map(|k| self.total_iters() + k.get());
        let step = self.config.epoch_step(epoch);
        let epoch_start = self.tick;
        while self.workers.iter().any(|w| w.cursor < w.shard_len) {
            self.tick += 1;
            self.apply_due_writes();
            let mut crashed = false;
            for w in 0..threads {
                if self.tick_worker(w, step) {
                    crashed = true;
                    break;
                }
            }
            if crashed {
                self.recover(&checkpoint, stale_views);
                continue;
            }
            if let Some(at) = next_periodic {
                if self.total_iters() >= at {
                    checkpoint = self.take_checkpoint();
                    next_periodic = Some(
                        at + self
                            .plan
                            .checkpoint_iterations()
                            .expect("cadence set")
                            .get(),
                    );
                }
            }
        }
        self.flush_pending();
        self.driver.record(
            Phase::Epoch,
            epoch_start,
            (self.tick - epoch_start).max(1),
            epoch as u64,
        );
        self.epoch_losses.push(metrics::mean_loss(
            self.config.loss,
            &self.shared,
            self.data,
        ));
    }

    /// Advances worker `w` by one scheduler tick. Returns `true` if the
    /// worker crashed (the caller rolls back).
    fn tick_worker(&mut self, w: usize, step: f32) -> bool {
        if self.workers[w].cursor >= self.workers[w].shard_len {
            return false;
        }
        if !self.workers[w].armed {
            match self.workers[w].run.iter_fate() {
                IterFate::Proceed => {
                    self.workers[w].armed = true;
                    self.workers[w].stall_left = 0;
                }
                IterFate::Stall(ticks) => {
                    self.workers[w].armed = true;
                    self.workers[w].stall_left = ticks;
                    self.tel.stalls.incr();
                    self.tel.stall_ticks.record(f64::from(ticks));
                    self.spans[w].record(
                        Phase::ChaosFault,
                        self.tick,
                        u64::from(ticks),
                        fault_kind::STALL,
                    );
                }
                IterFate::Crash(_) => return true,
            }
        }
        if self.workers[w].stall_left > 0 {
            self.workers[w].stall_left -= 1;
            return false;
        }
        self.execute_iteration(w, step);
        false
    }

    /// One SGD iteration of worker `w`: the threaded engine's dot and AXPY
    /// on the worker's view (or the shared model), then the plan's verdict
    /// on the shared write.
    fn execute_iteration(&mut self, w: usize, step: f32) {
        let max_iters = self.workers.iter().map(|vw| vw.iters).max().unwrap_or(0);
        let worker = &mut self.workers[w];
        let lag = max_iters.saturating_sub(worker.iters);
        self.tel.progress_lag.record(lag as f64);
        let i = w + worker.cursor * self.config.threads;
        let n = self.data.features();
        // Obstinate-cache staleness: each line of the private view honors
        // the accumulated invalidates with probability 1 − q.
        if let Some(view) = &mut worker.view {
            for line in 0..n.div_ceil(LINE_ELEMS) {
                if worker.run.refresh_view() {
                    let start = line * LINE_ELEMS;
                    let end = (start + LINE_ELEMS).min(n);
                    view[start..end].copy_from_slice(&self.shared[start..end]);
                }
            }
        }
        let x = self.data.example(i);
        let y = self.data.label(i);
        worker.rng.begin_iteration();
        let dot = match &mut worker.view {
            Some(view) => self.data.dot(view, x),
            None => self.data.dot(&mut self.shared, x),
        };
        let a = self.config.loss.axpy_scale(dot, y, step);
        worker.cursor += 1;
        worker.iters += 1;
        worker.armed = false;
        self.tel.iterations.incr();
        self.tel.numbers.add(n as u64);
        self.spans[w].record(Phase::Minibatch, self.tick, 1, i as u64);
        if a == 0.0 {
            return;
        }
        // The worker always believes its own update: the private view is
        // written through unconditionally (stores are never dropped by the
        // obstinate cache; drop/delay model the *shared* side).
        if let Some(view) = &mut worker.view {
            self.data.axpy(view, a, x, &mut worker.rng);
        }
        match worker.run.write_fate() {
            WriteFate::Apply => {
                self.tel.write_staleness.record(0.0);
                self.spans[w].record(Phase::ModelWrite, self.tick, 1, 0);
                self.data.axpy(&mut self.shared, a, x, &mut worker.rng);
            }
            WriteFate::Drop => {
                self.tel.dropped.incr();
                self.spans[w].record(Phase::ChaosFault, self.tick, 1, fault_kind::DROPPED_WRITE);
            }
            WriteFate::Delay(ticks) => {
                self.tel.delayed.incr();
                self.spans[w].record(Phase::ChaosFault, self.tick, 1, fault_kind::DELAYED_WRITE);
                self.pending.push(PendingWrite {
                    due_tick: self.tick + u64::from(ticks),
                    born_tick: self.tick,
                    worker: w,
                    example: i,
                    coeff: a,
                });
            }
        }
    }

    /// Lands a buffered write on the shared model, `tick - born_tick`
    /// ticks late, through its worker's AXPY.
    fn land(&mut self, p: PendingWrite) {
        let staleness = self.tick - p.born_tick;
        self.tel.write_staleness.record(staleness as f64);
        self.spans[p.worker].record(Phase::ModelWrite, self.tick, 1, staleness);
        let x = self.data.example(p.example);
        let rng = &mut self.workers[p.worker].rng;
        self.data.axpy(&mut self.shared, p.coeff, x, rng);
    }

    fn apply_due_writes(&mut self) {
        let tick = self.tick;
        let (due, waiting) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.due_tick <= tick);
        self.pending = waiting;
        for p in due {
            self.land(p);
        }
    }

    /// Applies everything still in the store buffer (epoch barrier).
    fn flush_pending(&mut self) {
        for p in std::mem::take(&mut self.pending) {
            self.land(p);
        }
    }

    fn total_iters(&self) -> u64 {
        self.workers.iter().map(|w| w.iters).sum()
    }

    fn take_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            model: self.shared.clone(),
            cursors: self.workers.iter().map(|w| w.cursor).collect(),
            iters: self.workers.iter().map(|w| w.iters).collect(),
        }
    }

    fn recover(&mut self, checkpoint: &Checkpoint, stale_views: bool) {
        self.tel.recoveries.incr();
        self.driver
            .record(Phase::ChaosFault, self.tick, 1, fault_kind::RECOVERY);
        let replayed = self.total_iters() - checkpoint.iters.iter().sum::<u64>();
        self.tel.replayed.add(replayed);
        self.shared.copy_from_slice(&checkpoint.model);
        self.pending.clear();
        for (w, worker) in self.workers.iter_mut().enumerate() {
            worker.cursor = checkpoint.cursors[w];
            worker.iters = checkpoint.iters[w];
            worker.stall_left = 0;
            worker.armed = false;
            // Restarted processes come up with a cold, coherent cache.
            worker.view = stale_views.then(|| self.shared.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buckwild_dataset::generate;
    use buckwild_telemetry::NoopRecorder;

    fn quick(plan: FaultPlan) -> ChaosSgdConfig {
        ChaosSgdConfig::new(Loss::Logistic, plan)
            .threads(4)
            .step_size(0.5)
            .step_decay(0.8)
            .epochs(6)
    }

    #[test]
    fn benign_run_converges_and_reproduces() {
        let p = generate::logistic_dense(32, 400, 5);
        let a = quick(FaultPlan::new(1)).train(&p.data).unwrap();
        let b = quick(FaultPlan::new(1)).train(&p.data).unwrap();
        assert_eq!(a, b);
        assert!(a.final_loss() < 0.5, "loss {}", a.final_loss());
        assert_eq!(a.iterations(), 400 * 6);
        assert_eq!(a.stalls(), 0);
        assert_eq!(a.dropped_writes(), 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let p = generate::logistic_dense(32, 200, 5);
        let a = quick(FaultPlan::new(1).drop_writes(0.4))
            .train(&p.data)
            .unwrap();
        let b = quick(FaultPlan::new(2).drop_writes(0.4))
            .train(&p.data)
            .unwrap();
        assert_ne!(a.model(), b.model());
    }

    #[test]
    fn drop_rate_costs_convergence_monotonically_at_extremes() {
        let p = generate::logistic_dense(32, 400, 8);
        let none = quick(FaultPlan::new(3)).train(&p.data).unwrap();
        let all = quick(FaultPlan::new(3).drop_writes(1.0))
            .train(&p.data)
            .unwrap();
        assert!(all.final_loss() > none.final_loss());
        // With every write dropped the shared model never moves.
        assert!(all.model().iter().all(|&w| w == 0.0));
        assert_eq!(all.dropped_writes(), all.iterations());
    }

    #[test]
    fn delays_record_staleness_and_still_converge() {
        let p = generate::logistic_dense(32, 400, 9);
        let report = quick(FaultPlan::new(4).delay_writes(1.0, 8))
            .train(&p.data)
            .unwrap();
        assert!(report.delayed_writes() > 0);
        assert!(report.mean_write_staleness() >= 1.0);
        let clean = quick(FaultPlan::new(4)).train(&p.data).unwrap();
        assert!(
            report.final_loss() < clean.final_loss() + 0.1,
            "delayed {} vs clean {}",
            report.final_loss(),
            clean.final_loss()
        );
    }

    #[test]
    fn skew_creates_progress_lag() {
        let p = generate::logistic_dense(16, 200, 10);
        let skewed = quick(FaultPlan::new(5).skew(0, 8)).train(&p.data).unwrap();
        let even = quick(FaultPlan::new(5)).train(&p.data).unwrap();
        assert!(skewed.mean_progress_lag() > even.mean_progress_lag());
    }

    #[test]
    fn crash_recovery_replays_within_one_epoch() {
        let p = generate::logistic_dense(32, 400, 11);
        let per_epoch = 400u64;
        let report = quick(FaultPlan::new(6).crash(1, 2, 30))
            .train(&p.data)
            .unwrap();
        assert_eq!(report.recoveries(), 1);
        assert!(
            report.replayed_iterations() <= per_epoch,
            "replayed {}",
            report.replayed_iterations()
        );
        assert_eq!(
            report.iterations(),
            6 * per_epoch + report.replayed_iterations()
        );
        let clean = quick(FaultPlan::new(6)).train(&p.data).unwrap();
        assert!(
            report.final_loss() < clean.final_loss() * 1.1 + 1e-9,
            "crashed {} vs clean {}",
            report.final_loss(),
            clean.final_loss()
        );
    }

    #[test]
    fn periodic_checkpoints_shrink_replay() {
        let p = generate::logistic_dense(32, 400, 12);
        let coarse = quick(FaultPlan::new(7).crash(0, 1, 80))
            .train(&p.data)
            .unwrap();
        let fine = quick(
            FaultPlan::new(7)
                .crash(0, 1, 80)
                .checkpoint_every(std::num::NonZeroU64::new(64).unwrap()),
        )
        .train(&p.data)
        .unwrap();
        assert_eq!(fine.recoveries(), 1);
        assert!(
            fine.replayed_iterations() < coarse.replayed_iterations(),
            "fine {} vs coarse {}",
            fine.replayed_iterations(),
            coarse.replayed_iterations()
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        let p = generate::logistic_dense(8, 20, 13);
        assert!(matches!(
            quick(FaultPlan::new(0).obstinacy(1.5)).train(&p.data),
            Err(TrainError::Plan(_))
        ));
        assert!(matches!(
            quick(FaultPlan::new(0)).threads(0).train(&p.data),
            Err(TrainError::Config(_))
        ));
        assert!(matches!(
            quick(FaultPlan::new(0)).epochs(0).train(&p.data),
            Err(TrainError::Config(_))
        ));
    }

    /// The obstinate cache (paper §6.2, Figure 6f): every virtual worker
    /// refreshes each model line with probability `1 − q` between
    /// iterations and otherwise trains on its stale copy.
    fn obstinate(q: f64) -> ChaosSgdConfig {
        ChaosSgdConfig::new(Loss::Logistic, FaultPlan::new(0).obstinacy(q))
    }

    #[test]
    fn q_zero_matches_plain_hogwild_quality() {
        let p = generate::logistic_dense(48, 500, 3);
        let report = obstinate(0.0).train(&p.data).unwrap();
        assert!(report.final_loss() < 0.45, "{:?}", report.epoch_losses());
    }

    #[test]
    fn high_obstinacy_still_converges() {
        // Figure 6f: no detectable statistical-efficiency loss at q=0.95.
        let p = generate::logistic_dense(48, 500, 4);
        let b = obstinate(0.0).train(&p.data).unwrap().final_loss();
        let s = obstinate(0.95).train(&p.data).unwrap().final_loss();
        assert!(s < b + 0.1, "q=0.95 loss {s} vs q=0 loss {b}");
    }

    #[test]
    fn invalid_q_rejected() {
        let p = generate::logistic_dense(8, 20, 5);
        assert!(obstinate(1.5).train(&p.data).is_err());
        assert!(obstinate(-0.1).train(&p.data).is_err());
    }

    #[test]
    fn single_thread_q_one_trains_on_own_writes() {
        // With one worker, staleness is invisible (its own writes update
        // its local view), so even q=1 must converge.
        let p = generate::logistic_dense(32, 300, 6);
        let report = obstinate(1.0).threads(1).train(&p.data).unwrap();
        assert!(report.final_loss() < 0.5, "{:?}", report.epoch_losses());
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        // A Figure 6f point is a pure function of the seed.
        let p = generate::logistic_dense(32, 300, 7);
        let config = obstinate(0.9);
        assert_eq!(
            config.train(&p.data).unwrap().epoch_losses(),
            config.train(&p.data).unwrap().epoch_losses()
        );
    }

    #[test]
    fn traced_run_is_tick_stamped_and_reproducible() {
        use buckwild_trace::RingTracer;
        let p = generate::logistic_dense(16, 120, 21);
        let config = quick(FaultPlan::new(8).delay_writes(0.5, 6).stalls(0.1, 3)).epochs(2);
        let run = |_| {
            let tracer = RingTracer::virtual_clock(1 << 16);
            let report = config
                .train_traced(&p.data, &NoopRecorder, &tracer)
                .unwrap();
            (report, tracer.drain())
        };
        let (report_a, trace_a) = run(());
        let (report_b, trace_b) = run(());
        assert_eq!(report_a, report_b);
        assert!(trace_a.is_virtual());
        assert_eq!(trace_a.events(), trace_b.events());
        assert_eq!(trace_a.to_chrome_json(), trace_b.to_chrome_json());
        let count = |phase: Phase| trace_a.events().iter().filter(|e| e.phase == phase).count();
        assert_eq!(count(Phase::Epoch), 2);
        assert_eq!(count(Phase::Minibatch), 240);
        assert!(count(Phase::ModelWrite) > 0);
        assert!(count(Phase::ChaosFault) > 0, "stalls and delays were drawn");
        // Delayed writes carry their tick staleness as the span annotation.
        assert!(trace_a
            .events()
            .iter()
            .any(|e| e.phase == Phase::ModelWrite && e.arg > 0));
    }

    #[test]
    fn shard_partition_covers_every_example() {
        // 403 examples over 4 workers: shards of 101, 101, 101, 100.
        let p = generate::logistic_dense(8, 403, 14);
        let report = quick(FaultPlan::new(1)).epochs(1).train(&p.data).unwrap();
        assert_eq!(report.iterations(), 403);
    }
}
