//! The training engine: sequential, Hogwild!, and Buckwild! SGD.
//!
//! The entry point is [`SgdConfig::train`], generic over any [`TrainData`]
//! dataset (dense `f32` or sparse CSR). Training is instrumented through
//! the `buckwild-telemetry` [`Recorder`] abstraction: [`SgdConfig::train`]
//! collects real metrics with a sharded recorder and derives the
//! [`TrainReport`] efficiency numbers from them, while
//! [`SgdConfig::train_traced`] lets callers supply their own recorder
//! (including `NoopRecorder`, which compiles every instrumentation point
//! away) and tracer. Faults come from the configuration
//! ([`SgdConfig::faults`]), never from an argument.
//!
//! Every configuration runs the same two functions: `worker_loop`, the
//! SGD iteration written against a [`ModelStore`] (where the model lives)
//! and an [`Examples`] source (what a row is), and `run_epochs`, the
//! epoch driver written against a `BackendState`.

use std::num::NonZeroU32;
use std::time::Instant;

use buckwild_chaos::metric as chaos_metric;
use buckwild_chaos::{IterFate, PlanError, PlanInjector, PlanWorker};
use buckwild_dataset::{DenseDataset, Label, SparseDataset, SparseExample};
use buckwild_fixed::{FixedSpec, Rounding};
use buckwild_kernels::cost::QuantizerKind;
use buckwild_kernels::optimized::FixedInt;
use buckwild_prng::{split_seed, Mt19937, Prng, XorshiftLanes};
use buckwild_telemetry::{Counter, Gauge, Histogram, MetricsSnapshot, Recorder, ShardedRecorder};
use buckwild_trace::{fault_kind, NoopTracer, Phase, Tracer, WorkerTracer};

use crate::config::{Backend, QuantizerConfig};
use crate::predict::{EpochSnapshot, QuantizedModel};
use crate::shard::ShardedState;
use crate::words::{
    AxpyF32, AxpyFixed, AxpySparseF32, AxpySparseFixed, DotF32, DotFixed, DotSparseF32,
    DotSparseFixed, Offsets, Op,
};
use crate::{metrics, ConfigError, Loss, ModelPrecision, SgdConfig, SharedModel};

/// Replay attempts per epoch before the engine gives up on recovery and
/// accepts the partial epoch. [`PlanInjector`] consumes each crash on its
/// first fire, so every replay runs past at least one more crash; a plan
/// that schedules more than this many crashes in one epoch still reaches
/// the cap.
const MAX_REPLAYS_PER_EPOCH: u32 = 8;

/// Metric names recorded by [`SgdConfig::train`] / [`SgdConfig::train_traced`].
pub mod metric {
    /// Counter: SGD iterations (examples visited), sharded per worker.
    pub const ITERATIONS: &str = "train.iterations";
    /// Counter: dataset numbers read by gradient computations.
    pub const NUMBERS_PROCESSED: &str = "train.numbers_processed";
    /// Counter: model entries passed through the rounding quantizer.
    pub const ROUND_EVENTS: &str = "quant.round_events";
    /// Histogram: wall-clock seconds per epoch (workers only, no eval).
    pub const EPOCH_SECONDS: &str = "train.epoch_seconds";
    /// Gauge: end-of-run dataset throughput in giga-numbers-per-second.
    pub const GNPS: &str = "train.gnps";
    /// Counter: quantized delta packets broadcast by the sharded backend.
    pub const DELTA_PACKETS: &str = "shard.delta_packets";
    /// Counter: bytes of delta payload broadcast by the sharded backend.
    pub const DELTA_BYTES: &str = "shard.delta_bytes";
    /// Counter: sharded-backend broadcasts skipped because a peer ring
    /// was full (the delta carries forward via error feedback).
    pub const RING_FULL_SKIPS: &str = "shard.ring_full_skips";
    /// Counter: nanoseconds spent publishing epoch-boundary model
    /// snapshots to the `on_snapshot` observer. Publication runs outside
    /// the barrier-timed region, so its cost is excluded from
    /// [`EPOCH_SECONDS`] and [`GNPS`] by construction (the same treatment
    /// worker spawn/join gets); this counter makes the cost visible
    /// instead of hidden.
    pub const SNAPSHOT_PUBLISH_NS: &str = "snapshot.publish_ns";
    /// Counter: nanoseconds spent scoring the per-epoch training loss,
    /// the `f32` snapshot it scores included. Registered only when
    /// [`SgdConfig::record_losses`](crate::SgdConfig::record_losses) is
    /// set. Evaluation runs outside the barrier-timed region, like
    /// snapshot publication, so it never lands in [`EPOCH_SECONDS`].
    pub const EVAL_NS: &str = "train.eval_ns";
}

/// Error from [`SgdConfig::train`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The configuration was invalid.
    Config(ConfigError),
    /// The fault plan was invalid.
    Plan(PlanError),
    /// The dataset was empty.
    EmptyDataset,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Config(e) => write!(f, "invalid configuration: {e}"),
            TrainError::Plan(e) => write!(f, "invalid fault plan: {e}"),
            TrainError::EmptyDataset => f.write_str("dataset has no examples"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Config(e) => Some(e),
            TrainError::Plan(e) => Some(e),
            TrainError::EmptyDataset => None,
        }
    }
}

impl From<ConfigError> for TrainError {
    fn from(e: ConfigError) -> Self {
        TrainError::Config(e)
    }
}

impl From<PlanError> for TrainError {
    fn from(e: PlanError) -> Self {
        TrainError::Plan(e)
    }
}

/// The result of a training run: recovered model plus efficiency metrics.
///
/// All efficiency numbers ([`Self::wall_seconds`], [`Self::gnps`],
/// [`Self::iterations`], [`Self::numbers_processed`]) are read from the
/// telemetry snapshot taken at the end of the run — the recorder is the
/// single source of truth. When training ran through
/// [`SgdConfig::train_traced`] with a `NoopRecorder`, the snapshot is empty
/// and they all report zero; the model and losses are exact either way.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    model: Vec<f32>,
    epoch_losses: Vec<f64>,
    metrics: MetricsSnapshot,
}

impl TrainReport {
    /// The trained model as `f32` (dequantized snapshot).
    #[must_use]
    pub fn model(&self) -> &[f32] {
        &self.model
    }

    /// Consumes the report, returning the model.
    #[must_use]
    pub fn into_model(self) -> Vec<f32> {
        self.model
    }

    /// Mean training loss after each epoch (empty if recording was off).
    #[must_use]
    pub fn epoch_losses(&self) -> &[f64] {
        &self.epoch_losses
    }

    /// The last recorded training loss.
    ///
    /// # Panics
    ///
    /// Panics if loss recording was disabled.
    #[must_use]
    pub fn final_loss(&self) -> f64 {
        *self
            .epoch_losses
            .last()
            .expect("loss recording was disabled")
    }

    /// Wall-clock training time (excluding evaluation), from the
    /// [`metric::EPOCH_SECONDS`] histogram.
    #[must_use]
    pub fn wall_seconds(&self) -> f64 {
        self.metrics
            .histogram(metric::EPOCH_SECONDS)
            .map_or(0.0, |h| h.sum)
    }

    /// Total dataset numbers processed across all epochs, from the
    /// [`metric::NUMBERS_PROCESSED`] counter.
    #[must_use]
    pub fn numbers_processed(&self) -> u64 {
        self.metrics.counter(metric::NUMBERS_PROCESSED).unwrap_or(0)
    }

    /// Total SGD iterations (examples visited), from the
    /// [`metric::ITERATIONS`] counter.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.metrics.counter(metric::ITERATIONS).unwrap_or(0)
    }

    /// Measured dataset throughput in giga-numbers-per-second — the
    /// paper's hardware-efficiency metric (§4).
    #[must_use]
    pub fn gnps(&self) -> f64 {
        self.numbers_processed() as f64 / self.wall_seconds().max(1e-12) / 1e9
    }

    /// The full telemetry snapshot collected during training.
    #[must_use]
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// Assembles a report; used by the engines in this crate.
    pub(crate) fn from_parts(
        model: Vec<f32>,
        epoch_losses: Vec<f64>,
        metrics: MetricsSnapshot,
    ) -> Self {
        TrainReport {
            model,
            epoch_losses,
            metrics,
        }
    }
}

/// Progress handed to the [`SgdConfig::on_epoch`] observer after each epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainProgress {
    /// Index of the epoch that just finished (0-based).
    pub epoch: usize,
    /// Total epochs configured.
    pub epochs: usize,
    /// Mean training loss after this epoch, if loss recording is on.
    pub loss: Option<f64>,
    /// Cumulative wall-clock training seconds so far: worker-busy time
    /// from [`metric::EPOCH_SECONDS`], loss evaluation excluded.
    pub wall_seconds: f64,
    /// Cumulative SGD iterations so far.
    pub iterations: u64,
}

/// Observer verdict: keep training or stop after the current epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainControl {
    /// Proceed to the next epoch.
    Continue,
    /// End the run now; the report covers the completed epochs.
    Stop,
}

/// Per-worker rounding-randomness state (the §5.2 strategies).
#[doc(hidden)]
pub struct QuantState {
    mode: Mode,
}

// One per worker, built once per run — the MT19937 state-table size
// difference between variants has no per-iteration cost.
#[allow(clippy::large_enum_variant)]
enum Mode {
    Biased,
    Mersenne(Mt19937),
    Fresh {
        lanes: XorshiftLanes<8>,
        block: [u32; 8],
        cursor: usize,
    },
    Shared {
        lanes: XorshiftLanes<8>,
        block: [u32; 8],
        period: Option<NonZeroU32>,
        used: u32,
    },
}

const HALF15: i64 = 1 << 14;
const MASK15: u32 = (1 << 15) - 1;
const U24: f32 = 1.0 / (1u32 << 24) as f32;

impl QuantState {
    pub(crate) fn new(quantizer: &QuantizerConfig, rounding: Rounding, seed: u64) -> Self {
        let mode = if rounding == Rounding::Biased {
            Mode::Biased
        } else {
            match quantizer.kind {
                QuantizerKind::Biased => Mode::Biased,
                QuantizerKind::MersenneScalar => Mode::Mersenne(Mt19937::seed_from(seed)),
                QuantizerKind::XorshiftFresh => Mode::Fresh {
                    lanes: XorshiftLanes::seed_from(seed),
                    block: [0; 8],
                    cursor: 8,
                },
                QuantizerKind::XorshiftShared => {
                    let mut lanes = XorshiftLanes::seed_from(seed);
                    let block = lanes.step();
                    Mode::Shared {
                        lanes,
                        block,
                        period: quantizer.shared_period,
                        used: 0,
                    }
                }
            }
        };
        QuantState { mode }
    }

    /// Marks an iteration boundary: shared-randomness mode with no explicit
    /// period refreshes its 256-bit block here (once per AXPY, the paper
    /// cadence).
    pub(crate) fn begin_iteration(&mut self) {
        if let Mode::Shared {
            lanes,
            block,
            period: None,
            used,
        } = &mut self.mode
        {
            *block = lanes.step();
            *used = 0;
        }
    }

    /// If the current strategy uses one offset block for the whole
    /// iteration (biased or per-iteration shared randomness), returns it —
    /// enabling the indirect-call-free AXPY fast path.
    pub(crate) fn block_offsets(&self) -> Option<[i64; 8]> {
        match &self.mode {
            Mode::Biased => Some([HALF15; 8]),
            Mode::Shared {
                block,
                period: None,
                ..
            } => {
                let mut offs = [0i64; 8];
                for (o, w) in offs.iter_mut().zip(block) {
                    *o = (w & MASK15) as i64;
                }
                Some(offs)
            }
            _ => None,
        }
    }

    /// Pre-shift rounding offset in `[0, 2^15)` for element `i`.
    pub(crate) fn offset15(&mut self, i: usize) -> i64 {
        match &mut self.mode {
            Mode::Biased => HALF15,
            Mode::Mersenne(mt) => (mt.next_u32() & MASK15) as i64,
            Mode::Fresh {
                lanes,
                block,
                cursor,
            } => {
                if *cursor >= 8 {
                    *block = lanes.step();
                    *cursor = 0;
                }
                let word = block[*cursor];
                *cursor += 1;
                (word & MASK15) as i64
            }
            Mode::Shared {
                lanes,
                block,
                period,
                used,
            } => {
                if let Some(p) = period {
                    if *used >= p.get() {
                        *block = lanes.step();
                        *used = 0;
                    }
                    *used += 1;
                }
                (block[i % 8] & MASK15) as i64
            }
        }
    }

    /// Uniform `[0, 1)` sample for element `i` (float-grid quantization).
    pub(crate) fn uniform(&mut self, i: usize) -> f32 {
        match &mut self.mode {
            Mode::Biased => 0.5,
            Mode::Mersenne(mt) => mt.next_f32(),
            Mode::Fresh {
                lanes,
                block,
                cursor,
            } => {
                if *cursor >= 8 {
                    *block = lanes.step();
                    *cursor = 0;
                }
                let word = block[*cursor];
                *cursor += 1;
                (word >> 8) as f32 * U24
            }
            Mode::Shared {
                lanes,
                block,
                period,
                used,
            } => {
                if let Some(p) = period {
                    if *used >= p.get() {
                        *block = lanes.step();
                        *used = 0;
                    }
                    *used += 1;
                }
                (block[i % 8] >> 8) as f32 * U24
            }
        }
    }
}

/// Marks a dataset with fixed-point elements, so it and its `f32` twin can
/// each implement [`Examples`] without overlapping.
#[doc(hidden)]
pub struct Fixed<T>(T);

/// Dataset quantized to the signature's `D` precision.
///
/// `pub` only because it appears in the sealed engine trait; the `train`
/// module is private, so it is not nameable outside the crate.
#[doc(hidden)]
pub enum DenseQuant<'a> {
    F32(&'a DenseDataset<f32>),
    I16(Fixed<DenseDataset<i16>>),
    I8(Fixed<DenseDataset<i8>>),
}

#[doc(hidden)]
pub enum SparseQuant<'a> {
    F32(&'a SparseDataset<f32, u32>),
    I16(Fixed<SparseDataset<i16, u32>>),
    I8(Fixed<SparseDataset<i8, u32>>),
}

/// Where one worker's model lives for an epoch: the shared atomic vector
/// (`&SharedModel`) or a private replica paired with its delta exchange
/// ([`crate::shard::ShardStore`]). A store has one job — hand an [`Op`]
/// the words it should run on; the arithmetic is the op's and is the same
/// source on both. The hooks are where the sharded store pins its thread
/// and runs the exchange, and are no-ops for the shared store.
#[doc(hidden)]
pub trait ModelStore {
    /// Runs `op` on this store's model words.
    fn with_words<O: Op>(&mut self, op: O) -> O::Out;

    /// Runs on the worker's own thread before the start barrier.
    #[inline]
    fn attach(&mut self) {}
    /// Runs after every SGD iteration.
    #[inline]
    fn tick<T: WorkerTracer>(&mut self, _tracer: &mut T) {}
    /// Runs after the worker's last iteration, unless it crashed.
    #[inline]
    fn flush<T: WorkerTracer>(&mut self, _tracer: &mut T) {}
}

impl ModelStore for &SharedModel {
    fn with_words<O: Op>(&mut self, op: O) -> O::Out {
        self.apply(op)
    }
}

/// One dataset format as the worker loop sees it: its row type, the row's
/// `numbers` count, which dot/AXPY [`Op`] a row runs on a [`ModelStore`]'s
/// words, and its mini-batch accumulator.
#[doc(hidden)]
pub trait Examples: Sync + Sized {
    type Row<'r>: Copy
    where
        Self: 'r;
    type Batch: Batch<Self> + Default;

    fn examples(&self) -> usize;
    fn example(&self, i: usize) -> (Self::Row<'_>, Label);
    /// Dataset numbers one pass over `row` reads: `n` dense, `nnz` sparse.
    fn numbers(&self, row: Self::Row<'_>) -> u64;
    fn dot<M: ModelStore>(&self, model: &mut M, row: Self::Row<'_>) -> f32;
    /// The single-example write `w ← w + a·row`, rounded with `rng`.
    fn axpy<M: ModelStore>(&self, model: &mut M, a: f32, row: Self::Row<'_>, rng: &mut QuantState);
}

/// The dense formats' share of [`DenseBatch`]: how `a·row` adds into the
/// `f32` mini-batch gradient.
#[doc(hidden)]
pub trait DenseExamples: Examples {
    fn accumulate(&self, scratch: &mut [f32], row: Self::Row<'_>, a: f32);
}

/// A mini-batch accumulator: gradients are computed at the batch-start
/// model and staged here, then written back in one flush.
#[doc(hidden)]
pub trait Batch<E: Examples> {
    /// Stages example `i`; returns how many now count toward the batch.
    fn stage(&mut self, data: &E, i: usize, row: E::Row<'_>, a: f32) -> usize;
    /// Writes everything staged via [`WorkerCtx::write`]; empties the batch.
    fn flush<M: ModelStore, R: Recorder, T: Tracer>(
        &mut self,
        data: &E,
        model: &mut M,
        worker: &mut WorkerCtx<'_, R, T>,
    );
}

/// Dense mini-batches sum `a·x` into one `f32` vector (sized by the first
/// staged row) and write it once. Every example counts toward the batch
/// size, zero gradient or not, and the write is attempted even if every
/// gradient in the batch was zero.
#[doc(hidden)]
#[derive(Default)]
pub struct DenseBatch {
    scratch: Vec<f32>,
    fill: usize,
}

impl<E: DenseExamples> Batch<E> for DenseBatch {
    #[inline]
    fn stage(&mut self, data: &E, _i: usize, row: E::Row<'_>, a: f32) -> usize {
        if self.scratch.is_empty() {
            self.scratch.resize(data.numbers(row) as usize, 0.0);
        }
        if a != 0.0 {
            data.accumulate(&mut self.scratch, row, a);
        }
        self.fill += 1;
        self.fill
    }

    fn flush<M: ModelStore, R: Recorder, T: Tracer>(
        &mut self,
        _data: &E,
        model: &mut M,
        worker: &mut WorkerCtx<'_, R, T>,
    ) {
        if self.fill > 0 {
            worker.write(self.scratch.len() as u64, |rng| {
                model.with_words(AxpyF32(1.0, &self.scratch, |j| rng.uniform(j)));
            });
            self.scratch.fill(0.0);
            self.fill = 0;
        }
    }
}

/// Sparse mini-batches remember `(example, a)` and replay each scatter
/// write at flush time: the model is written per example, but the
/// gradient is a true mini-batch gradient. Only nonzero gradients count
/// toward the batch size, and each pending write asks the fault plan anew.
#[doc(hidden)]
#[derive(Default)]
pub struct SparseBatch(Vec<(usize, f32)>);

impl<E: Examples> Batch<E> for SparseBatch {
    #[inline]
    fn stage(&mut self, _data: &E, i: usize, _row: E::Row<'_>, a: f32) -> usize {
        if a != 0.0 {
            self.0.push((i, a));
        }
        self.0.len()
    }

    fn flush<M: ModelStore, R: Recorder, T: Tracer>(
        &mut self,
        data: &E,
        model: &mut M,
        worker: &mut WorkerCtx<'_, R, T>,
    ) {
        for &(i, a) in &self.0 {
            let (row, _) = data.example(i);
            worker.write(data.numbers(row), |rng| data.axpy(model, a, row, rng));
        }
        self.0.clear();
    }
}

impl<D: FixedInt> Examples for Fixed<DenseDataset<D>> {
    type Row<'r> = &'r [D];
    type Batch = DenseBatch;

    fn examples(&self) -> usize {
        self.0.examples()
    }
    #[inline]
    fn example(&self, i: usize) -> (&[D], Label) {
        (self.0.example(i), self.0.label(i))
    }
    #[inline]
    fn numbers(&self, x: &[D]) -> u64 {
        x.len() as u64
    }
    #[inline]
    fn dot<M: ModelStore>(&self, model: &mut M, x: &[D]) -> f32 {
        model.with_words(DotFixed(x, &self.0.spec()))
    }
    #[inline]
    fn axpy<M: ModelStore>(&self, model: &mut M, a: f32, x: &[D], rng: &mut QuantState) {
        let offsets = match rng.block_offsets() {
            Some(block) => Offsets::Block(block),
            None => Offsets::Each(|j| rng.offset15(j)),
        };
        model.with_words(AxpyFixed(a, x, &self.0.spec(), offsets));
    }
}

impl<D: FixedInt> DenseExamples for Fixed<DenseDataset<D>> {
    #[inline]
    fn accumulate(&self, scratch: &mut [f32], x: &[D], a: f32) {
        let qa = a * self.0.spec().quantum();
        for (sj, xj) in scratch.iter_mut().zip(x) {
            *sj += qa * xj.widen() as f32;
        }
    }
}

impl Examples for DenseDataset<f32> {
    type Row<'r> = &'r [f32];
    type Batch = DenseBatch;

    fn examples(&self) -> usize {
        self.examples()
    }
    #[inline]
    fn example(&self, i: usize) -> (&[f32], Label) {
        (self.example(i), self.label(i))
    }
    #[inline]
    fn numbers(&self, x: &[f32]) -> u64 {
        x.len() as u64
    }
    #[inline]
    fn dot<M: ModelStore>(&self, model: &mut M, x: &[f32]) -> f32 {
        model.with_words(DotF32(x))
    }
    #[inline]
    fn axpy<M: ModelStore>(&self, model: &mut M, a: f32, x: &[f32], rng: &mut QuantState) {
        model.with_words(AxpyF32(a, x, |j| rng.uniform(j)));
    }
}

impl DenseExamples for DenseDataset<f32> {
    #[inline]
    fn accumulate(&self, scratch: &mut [f32], x: &[f32], a: f32) {
        for (sj, &xj) in scratch.iter_mut().zip(x) {
            *sj += a * xj;
        }
    }
}

impl<D: FixedInt> Examples for Fixed<SparseDataset<D, u32>> {
    type Row<'r> = SparseExample<'r, D, u32>;
    type Batch = SparseBatch;

    fn examples(&self) -> usize {
        self.0.examples()
    }
    #[inline]
    fn example(&self, i: usize) -> (SparseExample<'_, D, u32>, Label) {
        (self.0.example(i), self.0.label(i))
    }
    #[inline]
    fn numbers(&self, ex: SparseExample<'_, D, u32>) -> u64 {
        ex.nnz() as u64
    }
    #[inline]
    fn dot<M: ModelStore>(&self, model: &mut M, ex: SparseExample<'_, D, u32>) -> f32 {
        model.with_words(DotSparseFixed(ex.values, ex.indices, &self.0.spec()))
    }
    #[inline]
    fn axpy<M: ModelStore>(
        &self,
        model: &mut M,
        a: f32,
        ex: SparseExample<'_, D, u32>,
        rng: &mut QuantState,
    ) {
        // A constant offset block saves the rounding-mode dispatch per
        // element, the same fast path as the dense AXPY's `Offsets::Block`.
        let (values, indices, spec) = (ex.values, ex.indices, &self.0.spec());
        match rng.block_offsets() {
            Some(block) => {
                model.with_words(AxpySparseFixed(a, values, indices, spec, |j| block[j & 7]))
            }
            None => model.with_words(AxpySparseFixed(a, values, indices, spec, |j| {
                rng.offset15(j)
            })),
        }
    }
}

impl Examples for SparseDataset<f32, u32> {
    type Row<'r> = SparseExample<'r, f32, u32>;
    type Batch = SparseBatch;

    fn examples(&self) -> usize {
        self.examples()
    }
    #[inline]
    fn example(&self, i: usize) -> (SparseExample<'_, f32, u32>, Label) {
        (self.example(i), self.label(i))
    }
    #[inline]
    fn numbers(&self, ex: SparseExample<'_, f32, u32>) -> u64 {
        ex.nnz() as u64
    }
    #[inline]
    fn dot<M: ModelStore>(&self, model: &mut M, ex: SparseExample<'_, f32, u32>) -> f32 {
        model.with_words(DotSparseF32(ex.values, ex.indices))
    }
    #[inline]
    fn axpy<M: ModelStore>(
        &self,
        model: &mut M,
        a: f32,
        ex: SparseExample<'_, f32, u32>,
        rng: &mut QuantState,
    ) {
        model.with_words(AxpySparseF32(a, ex.values, ex.indices, |j| rng.uniform(j)));
    }
}

/// One worker's fault stream and the `chaos.*` handles it counts into.
/// Built only for runs with a fault plan, so fault-free snapshots carry no
/// zero-valued `chaos.*` entries.
struct WorkerFaults<'a, C, H> {
    stalls: C,
    dropped: C,
    stall_ticks: H,
    plan: PlanWorker<'a>,
}

/// Everything one worker owns for one epoch besides the data and its
/// [`ModelStore`]: the step, its slice of the examples, telemetry
/// handles, rounding randomness, fault stream and span sink.
#[doc(hidden)]
pub struct WorkerCtx<'a, R: Recorder, T: Tracer> {
    loss: Loss,
    step: f32,
    minibatch: usize,
    worker: usize,
    threads: usize,
    iterations: R::Counter,
    numbers: R::Counter,
    rounds: R::Counter,
    rng: QuantState,
    faults: Option<WorkerFaults<'a, R::Counter, R::Histogram>>,
    tracer: T::Worker,
}

impl<R: Recorder, T: Tracer> WorkerCtx<'_, R, T> {
    /// Draws and executes the next iteration's fate: counts and serves a
    /// stall, reports whether the iteration should run (`false` = crash).
    #[inline]
    fn serve_fate(&mut self) -> bool {
        let Some(faults) = &mut self.faults else {
            return true;
        };
        match faults.plan.iter_fate() {
            IterFate::Proceed => true,
            IterFate::Stall(ticks) => {
                faults.stalls.incr();
                faults.stall_ticks.record(f64::from(ticks));
                let span = self.tracer.begin();
                for _ in 0..ticks {
                    std::thread::yield_now();
                }
                self.tracer.end(Phase::ChaosFault, span, fault_kind::STALL);
                true
            }
            IterFate::Crash(_) => false,
        }
    }

    /// One model write of `numbers` entries under the fault plan's
    /// verdict: count the drop, or count the rounding events and run `axpy`
    /// inside a write span.
    #[inline]
    fn write(&mut self, numbers: u64, axpy: impl FnOnce(&mut QuantState)) {
        if let Some(faults) = &mut self.faults {
            if !faults.plan.keep_write() {
                faults.dropped.incr();
                return;
            }
        }
        self.rounds.add(numbers);
        let span = self.tracer.begin();
        axpy(&mut self.rng);
        self.tracer.end(Phase::ModelWrite, span, numbers);
    }
}

/// One worker's share of one epoch — the SGD iteration, written once for
/// every dataset format, model store and tracer, with or without a fault
/// plan. Returns `true` if the plan crashed the worker mid-epoch.
///
/// The order of `QuantState` draws and fault-stream calls is load-bearing:
/// `tests/trajectory_pins.rs` and `tests/fault_pins.rs` hash seeded runs
/// against it.
fn worker_loop<E: Examples, M: ModelStore, R: Recorder, T: Tracer>(
    data: &E,
    model: &mut M,
    w: &mut WorkerCtx<'_, R, T>,
) -> bool {
    let mut batch = E::Batch::default();
    for i in (w.worker..data.examples()).step_by(w.threads) {
        if !w.serve_fate() {
            return true;
        }
        let iter_span = w.tracer.begin();
        let (x, y) = data.example(i);
        let n = data.numbers(x);
        w.rng.begin_iteration();
        w.iterations.incr();
        w.numbers.add(n);
        let kernel_span = w.tracer.begin();
        let dot = data.dot(model, x);
        w.tracer.end(Phase::GradientKernel, kernel_span, n);
        let a = w.loss.axpy_scale(dot, y, w.step);
        if w.minibatch == 1 {
            if a != 0.0 {
                w.write(n, |rng| data.axpy(model, a, x, rng));
            }
        } else if batch.stage(data, i, x, a) >= w.minibatch {
            batch.flush(data, model, w);
        }
        w.tracer.end(Phase::Minibatch, iter_span, i as u64);
        model.tick(&mut w.tracer);
    }
    batch.flush(data, model, w);
    model.flush(&mut w.tracer);
    false
}

pub(crate) mod sealed {
    use super::{Loss, ModelStore, Recorder, SgdConfig, Tracer, WorkerCtx};

    /// The private engine interface behind [`super::TrainData`]. Not
    /// nameable outside this crate, which seals the public trait. `Sync`
    /// because the per-epoch loss is scored on several threads.
    pub trait Sealed: Sync {
        /// The dataset after quantization to the signature's `D` precision.
        type Prepared<'a>: Sync
        where
            Self: 'a;

        fn examples(&self) -> usize;
        fn prepare<'a>(&'a self, config: &SgdConfig) -> Self::Prepared<'a>;
        fn model_features(&self) -> usize;
        /// Runs one worker's share of one epoch against `model`. Returns
        /// `true` if the fault plan crashed the worker mid-epoch.
        fn run_worker<M: ModelStore, R: Recorder, T: Tracer>(
            prepared: &Self::Prepared<'_>,
            model: &mut M,
            worker: &mut WorkerCtx<'_, R, T>,
        ) -> bool;
        /// Writes the loss of examples `first..first + out.len()` under
        /// `model` into `out`; [`crate::metrics`] sums them in order.
        fn losses(&self, loss: Loss, model: &[f32], first: usize, out: &mut [f64]);
    }
}

/// A dataset [`SgdConfig::train`] can consume.
///
/// Implemented by [`DenseDataset<f32>`] and [`SparseDataset<f32, u32>`];
/// the trait is sealed, so these are the only implementations. The engine
/// quantizes the data to the signature's dataset precision, runs the
/// Hogwild! worker loop, and evaluates losses through this interface: the
/// per-epoch loss is scored on `threads` threads, each over a contiguous
/// range of examples, and summed in example order, so it is bit-equal to
/// [`crate::mean_loss`] / [`crate::metrics::mean_loss_sparse`] of the same
/// model. Dense and sparse training share one epoch loop, one
/// instrumentation scheme, and one report shape.
pub trait TrainData: sealed::Sealed {}

impl sealed::Sealed for DenseDataset<f32> {
    type Prepared<'a> = DenseQuant<'a>;

    fn examples(&self) -> usize {
        self.examples()
    }

    fn model_features(&self) -> usize {
        self.features()
    }

    fn prepare<'a>(&'a self, config: &SgdConfig) -> DenseQuant<'a> {
        let d = config.signature.dataset();
        match (d.bits(), d.is_float()) {
            (32, true) => DenseQuant::F32(self),
            (16, false) => DenseQuant::I16(Fixed(self.quantize_i16(FixedSpec::unit_range(16)))),
            (8, false) => DenseQuant::I8(Fixed(self.quantize_i8(FixedSpec::unit_range(8)))),
            _ => unreachable!("rejected by validate"),
        }
    }

    fn run_worker<M: ModelStore, R: Recorder, T: Tracer>(
        prepared: &DenseQuant<'_>,
        model: &mut M,
        worker: &mut WorkerCtx<'_, R, T>,
    ) -> bool {
        match prepared {
            DenseQuant::F32(d) => worker_loop(*d, model, worker),
            DenseQuant::I16(d) => worker_loop(d, model, worker),
            DenseQuant::I8(d) => worker_loop(d, model, worker),
        }
    }

    fn losses(&self, loss: Loss, model: &[f32], first: usize, out: &mut [f64]) {
        metrics::losses_into(loss, model, self, first, out);
    }
}

impl TrainData for DenseDataset<f32> {}

impl sealed::Sealed for SparseDataset<f32, u32> {
    type Prepared<'a> = SparseQuant<'a>;

    fn examples(&self) -> usize {
        self.examples()
    }

    fn model_features(&self) -> usize {
        self.features()
    }

    fn prepare<'a>(&'a self, config: &SgdConfig) -> SparseQuant<'a> {
        let d = config.signature.dataset();
        match (d.bits(), d.is_float()) {
            (32, true) => SparseQuant::F32(self),
            (16, false) => SparseQuant::I16(Fixed(self.requantize(
                FixedSpec::unit_range(16),
                Rounding::Biased,
                config.seed,
            ))),
            (8, false) => SparseQuant::I8(Fixed(self.requantize(
                FixedSpec::unit_range(8),
                Rounding::Biased,
                config.seed,
            ))),
            _ => unreachable!("rejected by validate"),
        }
    }

    fn run_worker<M: ModelStore, R: Recorder, T: Tracer>(
        prepared: &SparseQuant<'_>,
        model: &mut M,
        worker: &mut WorkerCtx<'_, R, T>,
    ) -> bool {
        match prepared {
            SparseQuant::F32(d) => worker_loop(*d, model, worker),
            SparseQuant::I16(d) => worker_loop(d, model, worker),
            SparseQuant::I8(d) => worker_loop(d, model, worker),
        }
    }

    fn losses(&self, loss: Loss, model: &[f32], first: usize, out: &mut [f64]) {
        metrics::losses_sparse_into(loss, model, self, first, out);
    }
}

impl TrainData for SparseDataset<f32, u32> {}

/// The five things the epoch driver needs from a training backend; the
/// rest of an epoch is the same code on both. Implemented by
/// [`SharedModel`] itself and by [`ShardedState`].
pub(crate) trait BackendState<R: Recorder> {
    /// One worker's handle on the model for one epoch.
    type Store<'a>: ModelStore + Send
    where
        Self: 'a;

    /// Hands out one store per worker for the coming epoch.
    fn stores(&mut self, threads: usize, recorder: &R) -> Vec<Self::Store<'_>>;
    /// Everything a rollback needs, as `f32`.
    fn checkpoint(&self) -> Vec<f32> {
        self.snapshot()
    }
    /// Rolls back to a [`BackendState::checkpoint`].
    fn restore(&mut self, checkpoint: &[f32]);
    /// The model consumers see, in its storage representation.
    fn snapshot_quantized(&self) -> QuantizedModel;
    /// The model the run reports and evaluates, dequantized.
    fn snapshot(&self) -> Vec<f32>;
}

impl<R: Recorder> BackendState<R> for SharedModel {
    type Store<'a> = &'a SharedModel;

    fn stores(&mut self, threads: usize, _recorder: &R) -> Vec<&SharedModel> {
        vec![&*self; threads]
    }
    fn restore(&mut self, checkpoint: &[f32]) {
        self.restore_from(checkpoint);
    }
    fn snapshot_quantized(&self) -> QuantizedModel {
        SharedModel::snapshot_quantized(self)
    }
    fn snapshot(&self) -> Vec<f32> {
        SharedModel::snapshot(self)
    }
}

impl SgdConfig {
    /// Trains on any [`TrainData`] dataset, quantizing it to the
    /// signature's dataset precision first.
    ///
    /// Collects telemetry with a sharded recorder (one shard per worker)
    /// and builds the report's efficiency metrics from the snapshot. To
    /// supply your own recorder — or to opt out of measurement entirely
    /// with `NoopRecorder` — use [`SgdConfig::train_traced`].
    ///
    /// # Errors
    ///
    /// [`TrainError::Config`] for invalid configurations,
    /// [`TrainError::Plan`] for an invalid fault plan,
    /// [`TrainError::EmptyDataset`] for empty input.
    pub fn train<D: TrainData>(&self, data: &D) -> Result<TrainReport, TrainError> {
        let recorder = ShardedRecorder::new(self.threads.max(1));
        self.train_traced(data, &recorder, &NoopTracer)
    }

    /// The fully general entry point: records telemetry through the given
    /// [`Recorder`] and span timelines through the given [`Tracer`],
    /// injecting the configuration's [`faults`](SgdConfig::faults) if any.
    ///
    /// With `NoopRecorder` or [`NoopTracer`] the corresponding
    /// instrumentation monomorphizes away (a `NoopRecorder` run reports
    /// zero efficiency metrics; the model and per-epoch losses are
    /// unaffected). A run without faults takes the same worker loop, whose
    /// fault branches then never fire. Workers mark minibatch /
    /// gradient-kernel / model-write / stall spans; the driver thread marks
    /// one epoch span per epoch (on timeline row `threads`) and a recovery
    /// span per checkpoint rollback.
    ///
    /// # Errors
    ///
    /// See [`SgdConfig::train`].
    pub fn train_traced<D: TrainData, R: Recorder, T: Tracer>(
        &self,
        data: &D,
        recorder: &R,
        tracer: &T,
    ) -> Result<TrainReport, TrainError> {
        let injector = self.faults.clone().map(PlanInjector::new).transpose()?;
        let injector = injector.as_ref();
        self.validate()?;
        if sealed::Sealed::examples(data) == 0 {
            return Err(TrainError::EmptyDataset);
        }
        let precision = ModelPrecision::from_signature(&self.signature).expect("validated above");
        let prepared = data.prepare(self);
        let n = data.model_features();
        Ok(match self.backend {
            Backend::SharedModel => {
                let model = SharedModel::zeros(precision, n);
                self.run_epochs(data, &prepared, model, recorder, injector, tracer)
            }
            Backend::ShardedDelta => {
                let state = ShardedState::new(self, precision, n);
                self.run_epochs(data, &prepared, state, recorder, injector, tracer)
            }
        })
    }

    /// The epoch driver, once for both backends: spawn → barrier → timed
    /// join → crash/rollback → snapshot publish → loss eval → observer →
    /// checkpoint, then the GNPS gauge and the report. The loss eval runs
    /// on `threads` threads, each scoring a contiguous chunk of examples
    /// into one per-run buffer, which the driver sums in example order.
    fn run_epochs<D, B, R, T>(
        &self,
        data: &D,
        prepared: &D::Prepared<'_>,
        mut backend: B,
        recorder: &R,
        injector: Option<&PlanInjector>,
        tracer: &T,
    ) -> TrainReport
    where
        D: TrainData,
        B: BackendState<R>,
        R: Recorder,
        T: Tracer,
    {
        let m = sealed::Sealed::examples(data);
        let mut epoch_losses = Vec::new();
        let epoch_seconds = recorder.histogram(metric::EPOCH_SECONDS);
        // The eval timer and the per-example loss buffer, one per run.
        let mut eval = self
            .record_losses
            .then(|| (recorder.counter(metric::EVAL_NS), vec![0f64; m]));
        // The `f32` snapshot the latest epoch was scored on; it becomes the
        // report's model when no epoch trains after it.
        let mut evaluated: Option<Vec<f32>> = None;
        let publish_ns = self
            .on_snapshot
            .as_ref()
            .map(|_| recorder.counter(metric::SNAPSHOT_PUBLISH_NS));
        let mut wall = 0f64;
        // Crash recovery: checkpoint the model at epoch boundaries (cadence
        // chosen by the plan) and roll back + replay the epoch when a
        // worker dies. PlanInjector consumes each crash on first fire, so a
        // replayed epoch runs past it.
        let checkpoint_every = injector.and_then(PlanInjector::checkpoint_epochs);
        let mut checkpoint: Option<Vec<f32>> = checkpoint_every.map(|_| backend.checkpoint());
        let mut clean_epochs = 0u32;
        let recovery = injector.map(|_| {
            (
                recorder.counter(chaos_metric::RECOVERIES),
                recorder.counter(chaos_metric::REPLAYED_ITERATIONS),
            )
        });
        // The driver thread's spans (epochs, recoveries) go on timeline
        // row `threads`, one above the worker rows.
        let mut driver = tracer.worker(self.threads);
        let mut epoch = 0usize;
        let mut replays = 0u32;
        while epoch < self.epochs {
            let step = self.step_size * self.step_decay.powi(epoch as i32);
            evaluated = None;
            let epoch_span = driver.begin();
            // Workers rendezvous here before touching data, and each takes
            // its own instants right after the release and right after its
            // last iteration: the epoch is latest end minus earliest start,
            // so thread spawn/join overhead stays out of the throughput
            // measurement and a descheduled driver cannot shorten it.
            let barrier = std::sync::Barrier::new(self.threads + 1);
            let stores = backend.stores(self.threads, recorder);
            let spans = std::thread::scope(|s| {
                let mut handles = Vec::with_capacity(self.threads);
                for (t, mut store) in stores.into_iter().enumerate() {
                    let barrier = &barrier;
                    let mut worker: WorkerCtx<'_, R, T> = WorkerCtx {
                        loss: self.loss,
                        step,
                        minibatch: self.minibatch,
                        worker: t,
                        threads: self.threads,
                        iterations: recorder.worker_counter(metric::ITERATIONS, t),
                        numbers: recorder.worker_counter(metric::NUMBERS_PROCESSED, t),
                        rounds: recorder.worker_counter(metric::ROUND_EVENTS, t),
                        rng: QuantState::new(
                            &self.quantizer,
                            self.rounding,
                            split_seed(self.seed, (epoch * self.threads + t) as u64 + 1),
                        ),
                        faults: injector.map(|inj| WorkerFaults {
                            stalls: recorder.worker_counter(chaos_metric::STALLS, t),
                            dropped: recorder.worker_counter(chaos_metric::DROPPED_WRITES, t),
                            stall_ticks: recorder.worker_histogram(chaos_metric::STALL_TICKS, t),
                            plan: inj.worker(t, epoch),
                        }),
                        tracer: tracer.worker(t),
                    };
                    handles.push(s.spawn(move || {
                        store.attach();
                        barrier.wait();
                        let start = Instant::now();
                        let crashed = D::run_worker(prepared, &mut store, &mut worker);
                        (crashed, start, Instant::now())
                    }));
                }
                barrier.wait();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect::<Vec<_>>()
            });
            let crashed = spans.iter().filter(|span| span.0).count();
            let start = spans.iter().map(|span| span.1).min().expect("threads >= 1");
            let end = spans.iter().map(|span| span.2).max().expect("threads >= 1");
            let secs = (end - start).as_secs_f64();
            epoch_seconds.record(secs);
            driver.end(Phase::Epoch, epoch_span, epoch as u64);
            wall += secs;
            if crashed > 0 {
                if let Some(ckpt) = &checkpoint {
                    if replays < MAX_REPLAYS_PER_EPOCH {
                        replays += 1;
                        if let Some((recoveries, replayed)) = &recovery {
                            recoveries.add(crashed as u64);
                            replayed.add(m as u64);
                        }
                        let recovery_span = driver.begin();
                        backend.restore(ckpt);
                        driver.end(Phase::ChaosFault, recovery_span, fault_kind::RECOVERY);
                        continue;
                    }
                }
                // No checkpoint to roll back to: the dead worker's shard is
                // simply lost for this epoch and training carries on.
            }
            // Publish the epoch-tagged snapshot for online consumers. This
            // runs after the timed region closed, so the copy-and-swap cost
            // lands in `snapshot.publish_ns`, never in epoch throughput.
            if let (Some(publish), Some(publish_ns)) = (&self.on_snapshot, &publish_ns) {
                let publish_start = Instant::now();
                publish(EpochSnapshot {
                    epoch: epoch as u64,
                    model: std::sync::Arc::new(backend.snapshot_quantized()),
                });
                publish_ns.add(publish_start.elapsed().as_nanos() as u64);
            }
            let loss = eval.as_mut().map(|(eval_ns, losses)| {
                let eval_start = Instant::now();
                let model = backend.snapshot();
                score_in_chunks(self.threads, losses, |first, chunk| {
                    data.losses(self.loss, &model, first, chunk);
                });
                let l = metrics::mean_in_order(losses);
                eval_ns.add(eval_start.elapsed().as_nanos() as u64);
                epoch_losses.push(l);
                evaluated = Some(model);
                l
            });
            let mut stop = false;
            if let Some(observer) = &self.on_epoch {
                let progress = TrainProgress {
                    epoch,
                    epochs: self.epochs,
                    loss,
                    wall_seconds: wall,
                    iterations: (m * (epoch + 1)) as u64,
                };
                stop = observer(&progress) == TrainControl::Stop;
            }
            epoch += 1;
            replays = 0;
            if let Some(every) = checkpoint_every {
                clean_epochs += 1;
                if clean_epochs >= every.get() {
                    checkpoint = Some(backend.checkpoint());
                    clean_epochs = 0;
                }
            }
            if stop {
                break;
            }
        }
        // GNPS needs the cross-worker totals, so it is derived from the
        // recorder's own counters at the end of the run.
        let snapshot = recorder.snapshot();
        if let Some(numbers) = snapshot.counter(metric::NUMBERS_PROCESSED) {
            recorder
                .gauge(metric::GNPS)
                .set(numbers as f64 / wall.max(1e-12) / 1e9);
        }
        let model = evaluated.unwrap_or_else(|| backend.snapshot());
        TrainReport::from_parts(model, epoch_losses, recorder.snapshot())
    }
}

/// Fills `losses` on up to `threads` threads: the calling thread scores the
/// first contiguous chunk and one scoped helper scores each other chunk,
/// through `score(first_example, chunk)`. Contiguous chunks let each thread
/// stream its own part of the dataset. At one thread nothing is spawned;
/// with more threads than examples, fewer helpers are.
///
/// # Panics
///
/// Panics with `"eval worker panicked"` if a helper panicked, so a failed
/// chunk never leaves a short sum; the scope joins the other helpers
/// first.
fn score_in_chunks<F>(threads: usize, losses: &mut [f64], score: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let len = losses.len().div_ceil(threads);
    let mut chunks = losses.chunks_mut(len);
    let own = chunks.next().expect("training data has examples");
    let score = &score;
    std::thread::scope(|s| {
        let helpers: Vec<_> = chunks
            .enumerate()
            .map(|(k, chunk)| s.spawn(move || score((k + 1) * len, chunk)))
            .collect();
        score(0, own);
        for helper in helpers {
            helper.join().expect("eval worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use buckwild_chaos::FaultPlan;
    use buckwild_dataset::generate;
    use buckwild_telemetry::NoopRecorder;

    fn logistic_config() -> SgdConfig {
        SgdConfig::new(Loss::Logistic)
            .step_size(0.5)
            .step_decay(0.8)
            .epochs(8)
            .seed(1)
    }

    #[test]
    fn full_precision_sequential_converges() {
        let p = generate::logistic_dense(32, 400, 5);
        let report = logistic_config().train(&p.data).unwrap();
        let chance = std::f64::consts::LN_2;
        assert!(
            report.final_loss() < 0.6 * chance,
            "loss {}",
            report.final_loss()
        );
        // Loss decreases overall.
        assert!(report.epoch_losses()[0] > report.final_loss());
    }

    #[test]
    fn d8m8_buckwild_converges_close_to_full_precision() {
        let p = generate::logistic_dense(64, 600, 6);
        let full = logistic_config().train(&p.data).unwrap();
        let low = logistic_config()
            .signature("D8M8".parse().unwrap())
            .train(&p.data)
            .unwrap();
        assert!(
            low.final_loss() < full.final_loss() + 0.1,
            "low {} vs full {}",
            low.final_loss(),
            full.final_loss()
        );
    }

    #[test]
    fn d16m16_matches_full_precision_tightly() {
        let p = generate::logistic_dense(64, 600, 7);
        let full = logistic_config().train(&p.data).unwrap();
        let low = logistic_config()
            .signature("D16M16".parse().unwrap())
            .train(&p.data)
            .unwrap();
        assert!((low.final_loss() - full.final_loss()).abs() < 0.05);
    }

    #[test]
    fn hogwild_two_threads_converges() {
        let p = generate::logistic_dense(64, 600, 8);
        let report = logistic_config()
            .signature("D8M8".parse().unwrap())
            .threads(2)
            .train(&p.data)
            .unwrap();
        assert!(report.final_loss() < 0.5, "loss {}", report.final_loss());
    }

    #[test]
    fn minibatch_converges() {
        let p = generate::logistic_dense(32, 400, 9);
        let report = logistic_config()
            .signature("D8M8".parse().unwrap())
            .minibatch(8)
            .train(&p.data)
            .unwrap();
        assert!(report.final_loss() < 0.55, "loss {}", report.final_loss());
    }

    #[test]
    fn sparse_training_converges() {
        let p = generate::logistic_sparse(256, 800, 0.05, 10);
        let report = logistic_config()
            .signature("D8i8M8".parse().unwrap())
            .train(&p.data)
            .unwrap();
        assert!(report.final_loss() < 0.6, "loss {}", report.final_loss());
    }

    #[test]
    fn least_squares_recovers_linear_model() {
        let p = generate::linear_dense(16, 600, 0.01, 11);
        let report = SgdConfig::new(Loss::LeastSquares)
            .step_size(0.3)
            .epochs(30)
            .train(&p.data)
            .unwrap();
        // Compare against the normalized true model.
        let scale = (16f32).sqrt();
        for (got, want) in report.model().iter().zip(&p.true_model) {
            assert!(
                (got - want / scale).abs() < 0.1,
                "{got} vs {}",
                want / scale
            );
        }
    }

    #[test]
    fn hinge_svm_trains() {
        let p = generate::logistic_dense(32, 400, 12);
        let report = SgdConfig::new(Loss::Hinge)
            .step_size(0.05)
            .epochs(10)
            .train(&p.data)
            .unwrap();
        let acc = metrics::accuracy(Loss::Hinge, report.model(), &p.data);
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn report_accounting_derives_from_telemetry() {
        let p = generate::logistic_dense(16, 100, 13);
        let report = logistic_config().epochs(3).train(&p.data).unwrap();
        assert_eq!(report.iterations(), 300);
        assert_eq!(report.numbers_processed(), 16 * 100 * 3);
        assert!(report.gnps() > 0.0);
        assert_eq!(report.epoch_losses().len(), 3);
        // The report reads straight from the snapshot, which also carries
        // the epoch timings and the rounding-event count.
        let snap = report.metrics();
        assert_eq!(snap.counter(metric::ITERATIONS), Some(300));
        assert_eq!(snap.histogram(metric::EPOCH_SECONDS).unwrap().count, 3);
        assert!(snap.counter(metric::ROUND_EVENTS).unwrap() > 0);
        assert!(snap.gauge(metric::GNPS).unwrap() > 0.0);
    }

    #[test]
    fn sparse_accounting_counts_nonzeros() {
        let p = generate::logistic_sparse(200, 50, 0.03, 19);
        let report = logistic_config().epochs(2).train(&p.data).unwrap();
        assert_eq!(report.iterations(), 100);
        assert_eq!(report.numbers_processed(), (p.data.nnz() * 2) as u64);
    }

    #[test]
    fn noop_recorder_trains_without_metrics() {
        let p = generate::logistic_dense(32, 400, 5);
        let instrumented = logistic_config().train(&p.data).unwrap();
        let silent = logistic_config()
            .train_traced(&p.data, &NoopRecorder, &NoopTracer)
            .unwrap();
        // Same training result either way...
        assert_eq!(silent.model(), instrumented.model());
        assert_eq!(silent.epoch_losses(), instrumented.epoch_losses());
        // ...but no measurements were collected.
        assert!(silent.metrics().is_empty());
        assert_eq!(silent.iterations(), 0);
        assert_eq!(silent.wall_seconds(), 0.0);
    }

    #[test]
    fn traced_run_captures_all_phases() {
        use buckwild_trace::RingTracer;
        let p = generate::logistic_dense(16, 60, 5);
        let tracer = RingTracer::new();
        let report = logistic_config()
            .epochs(2)
            .threads(2)
            .train_traced(&p.data, &NoopRecorder, &tracer)
            .unwrap();
        assert!(report.final_loss().is_finite());
        let trace = tracer.drain();
        let count = |phase: Phase| trace.events().iter().filter(|e| e.phase == phase).count();
        assert_eq!(count(Phase::Epoch), 2);
        assert_eq!(count(Phase::Minibatch), 120);
        assert_eq!(count(Phase::GradientKernel), 120);
        assert!(count(Phase::ModelWrite) > 0);
        // Epoch spans live on the driver row above the worker rows.
        assert!(trace
            .events()
            .iter()
            .filter(|e| e.phase == Phase::Epoch)
            .all(|e| e.worker == 2));
        let json = trace.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("gradient_kernel"));
    }

    #[test]
    fn epoch_clock_covers_every_worker_span() {
        use buckwild_trace::RingTracer;
        let p = generate::logistic_dense(16, 400, 5);
        let tracer = RingTracer::new();
        let report = logistic_config()
            .epochs(4)
            .threads(2)
            .train_traced(&p.data, &ShardedRecorder::new(2), &tracer)
            .unwrap();
        let trace = tracer.drain();
        assert_eq!(trace.dropped(), 0);
        let events = trace.events();
        // Each epoch's worker spans (rows 0 and 1) start inside its driver
        // span (row 2); the epoch clock must cover first start to last end.
        let covered_ns: u64 = events
            .iter()
            .filter(|e| e.phase == Phase::Epoch)
            .map(|epoch| {
                let inside = || {
                    events.iter().filter(|e| {
                        e.worker < 2 && e.start >= epoch.start && e.start < epoch.start + epoch.dur
                    })
                };
                let first = inside().map(|e| e.start).min().expect("worker spans");
                let last = inside()
                    .map(|e| e.start + e.dur)
                    .max()
                    .expect("worker spans");
                last - first
            })
            .sum();
        // 1 µs per epoch absorbs the nanosecond rounding of span stamps.
        let slack = 1e-6 * report.epoch_losses().len() as f64;
        assert!(
            report.wall_seconds() + slack >= covered_ns as f64 * 1e-9,
            "epoch clock {} s < worker spans {} ns",
            report.wall_seconds(),
            covered_ns
        );
    }

    #[test]
    fn tracing_does_not_perturb_training() {
        use buckwild_trace::RingTracer;
        let p = generate::logistic_dense(32, 200, 16);
        let config = logistic_config().signature("D8M8".parse().unwrap());
        let plain = config
            .train_traced(&p.data, &NoopRecorder, &NoopTracer)
            .unwrap();
        let tracer = RingTracer::new();
        let traced = config
            .train_traced(&p.data, &NoopRecorder, &tracer)
            .unwrap();
        assert_eq!(plain.model(), traced.model());
        assert_eq!(plain.epoch_losses(), traced.epoch_losses());
    }

    #[test]
    fn on_epoch_observer_stops_early() {
        let p = generate::logistic_dense(16, 100, 13);
        let report = logistic_config()
            .epochs(20)
            .on_epoch(|progress| {
                assert_eq!(progress.epochs, 20);
                assert!(progress.loss.is_some());
                if progress.epoch >= 2 {
                    TrainControl::Stop
                } else {
                    TrainControl::Continue
                }
            })
            .train(&p.data)
            .unwrap();
        assert_eq!(report.epoch_losses().len(), 3);
        // Telemetry reflects the actual work done, not the configured plan.
        assert_eq!(report.iterations(), 300);
    }

    #[test]
    fn record_losses_off_skips_eval() {
        let p = generate::logistic_dense(16, 100, 14);
        let report = logistic_config()
            .record_losses(false)
            .train(&p.data)
            .unwrap();
        assert!(report.epoch_losses().is_empty());
        assert_eq!(report.metrics().counter(metric::EVAL_NS), None);
        let scored = logistic_config().train(&p.data).unwrap();
        assert!(scored.metrics().counter(metric::EVAL_NS).unwrap() > 0);
    }

    #[test]
    #[should_panic(expected = "eval worker panicked")]
    fn panicking_eval_helper_panics_the_driver() {
        let mut losses = vec![0.0; 8];
        score_in_chunks(2, &mut losses, |first, _| {
            assert_eq!(first, 0, "helper chunk fails");
        });
    }

    #[test]
    fn biased_rounding_at_8bit_is_worse_than_unbiased() {
        // The §3 claim: with small models and precision, biased rounding
        // loses statistical efficiency because updates smaller than half a
        // quantum vanish.
        let p = generate::logistic_dense(64, 600, 15);
        let small_step = 0.02f32;
        let unbiased = SgdConfig::new(Loss::Logistic)
            .signature("D8M8".parse().unwrap())
            .rounding(Rounding::Unbiased)
            .step_size(small_step)
            .epochs(6)
            .train(&p.data)
            .unwrap();
        let biased = SgdConfig::new(Loss::Logistic)
            .signature("D8M8".parse().unwrap())
            .rounding(Rounding::Biased)
            .step_size(small_step)
            .epochs(6)
            .train(&p.data)
            .unwrap();
        assert!(
            unbiased.final_loss() <= biased.final_loss() + 1e-9,
            "unbiased {} vs biased {}",
            unbiased.final_loss(),
            biased.final_loss()
        );
    }

    #[test]
    fn deterministic_given_seed_single_thread() {
        let p = generate::logistic_dense(32, 200, 16);
        let config = logistic_config().signature("D8M8".parse().unwrap());
        let a = config.train(&p.data).unwrap();
        let b = config.train(&p.data).unwrap();
        assert_eq!(a.model(), b.model());
        assert_eq!(a.epoch_losses(), b.epoch_losses());
    }

    #[test]
    fn injected_drops_are_counted_and_benign_noop_matches() {
        let p = generate::logistic_dense(32, 200, 16);
        let config = logistic_config().signature("D8M8".parse().unwrap());
        // A benign plan must not perturb training relative to no plan.
        let benign = config
            .clone()
            .faults(FaultPlan::new(9))
            .train(&p.data)
            .unwrap();
        let plain = config.train(&p.data).unwrap();
        assert_eq!(benign.model(), plain.model());
        assert_eq!(benign.epoch_losses(), plain.epoch_losses());
        // Certain drop: every nonzero update is discarded and counted.
        let dropped = config
            .faults(FaultPlan::new(9).drop_writes(1.0))
            .train(&p.data)
            .unwrap();
        assert!(
            dropped
                .metrics()
                .counter(chaos_metric::DROPPED_WRITES)
                .unwrap()
                > 0
        );
        assert_eq!(dropped.metrics().counter(metric::ROUND_EVENTS), Some(0));
        assert!(dropped.model().iter().all(|&w| w == 0.0));
    }

    #[test]
    fn injected_stalls_are_counted() {
        let p = generate::logistic_dense(16, 100, 17);
        let report = logistic_config()
            .epochs(2)
            .faults(FaultPlan::new(4).stalls(1.0, 1))
            .train(&p.data)
            .unwrap();
        assert_eq!(report.metrics().counter(chaos_metric::STALLS), Some(200));
        assert_eq!(
            report
                .metrics()
                .histogram(chaos_metric::STALL_TICKS)
                .unwrap()
                .count,
            200
        );
    }

    #[test]
    fn crash_recovers_from_checkpoint_and_converges() {
        let p = generate::logistic_dense(32, 400, 5);
        let clean = logistic_config().train(&p.data).unwrap();
        let plan = FaultPlan::new(21).crash(0, 2, 50);
        let crashed = logistic_config().faults(plan).train(&p.data).unwrap();
        assert_eq!(crashed.metrics().counter(chaos_metric::RECOVERIES), Some(1));
        assert!(
            crashed
                .metrics()
                .counter(chaos_metric::REPLAYED_ITERATIONS)
                .unwrap()
                <= 400
        );
        // Full epoch count still delivered after the replay.
        assert_eq!(crashed.epoch_losses().len(), clean.epoch_losses().len());
        assert!(
            crashed.final_loss() < clean.final_loss() * 1.1,
            "crashed {} vs clean {}",
            crashed.final_loss(),
            clean.final_loss()
        );
    }

    #[test]
    fn invalid_plan_surfaces() {
        let p = generate::logistic_dense(8, 20, 17);
        let err = logistic_config()
            .faults(FaultPlan::new(0).drop_writes(2.0))
            .train(&p.data)
            .unwrap_err();
        assert!(matches!(err, TrainError::Plan(_)));
    }

    #[test]
    fn fault_free_snapshot_has_no_chaos_metrics() {
        let p = generate::logistic_dense(16, 100, 13);
        let report = logistic_config().epochs(2).train(&p.data).unwrap();
        assert!(report
            .metrics()
            .iter()
            .all(|(name, _)| !name.starts_with("chaos.")));
    }

    #[test]
    fn empty_dataset_rejected() {
        let data = DenseDataset::from_rows(vec![vec![1.0]], vec![1.0]);
        // Can't build an empty DenseDataset, so check the sparse path.
        let sparse = SparseDataset::from_triplets(4, vec![], vec![]);
        assert_eq!(
            logistic_config().train(&sparse),
            Err(TrainError::EmptyDataset)
        );
        let _ = data;
    }

    #[test]
    fn invalid_config_surfaces() {
        let p = generate::logistic_dense(8, 20, 17);
        let err = logistic_config()
            .signature("D4M4".parse().unwrap())
            .train(&p.data)
            .unwrap_err();
        assert!(matches!(err, TrainError::Config(_)));
    }
}
