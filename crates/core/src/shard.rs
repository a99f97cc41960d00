//! The shard-per-core, shared-nothing training engine (ROADMAP item 1).
//!
//! Where the shared-model engine lets cache coherence carry every update
//! between cores, this backend gives each worker a private cache-aligned
//! replica in a [`ShardArena`], pins the worker to a core (best effort),
//! and exchanges progress explicitly: every [`SgdConfig::delta_every`]
//! iterations a worker diffs its replica against the last synchronized
//! snapshot, quantizes the diff to 8 bits (one `f32` scale + one `i8`
//! per coordinate), and broadcasts it to every peer over bounded
//! lock-free SPSC [`DeltaRing`]s.
//!
//! The exchange is *echo-free with error feedback*:
//!
//! 1. fold own progress since the last snapshot into a `pending`
//!    accumulator;
//! 2. drain and apply every peer packet;
//! 3. re-snapshot the replica — so peer contributions are never
//!    rebroadcast (no echo);
//! 4. if every outgoing ring has room, quantize `pending`, push it to
//!    all peers, and subtract the *quantized* value from `pending` — the
//!    quantization residual carries to the next exchange (1-bit-SGD
//!    style error feedback). A full ring skips the broadcast entirely
//!    and the whole delta carries instead; nothing is ever lost.
//!
//! This module holds only what is genuinely sharded: the arena wiring,
//! the ring mesh, the cross-epoch [`SyncState`] and the exchange itself.
//! The SGD iteration and the epoch driver are the shared engine's
//! (`train.rs`), reached through [`ShardStore`] (a `ModelStore`) and
//! [`ShardedState`] (a `BackendState`). With one worker the exchange is
//! inert, so the two backends are bit-identical — the
//! backend-equivalence tests pin this down.

use buckwild_kernels::delta::{packet_bytes, quantize_delta_i8};
use buckwild_telemetry::{Counter, Recorder};
use buckwild_trace::{Phase, WorkerTracer};

use crate::arena::{LocalModel, ShardArena};
use crate::predict::QuantizedModel;
use crate::ring::DeltaRing;
use crate::train::{metric, BackendState, ModelStore};
use crate::words::Op;
use crate::{ModelPrecision, SgdConfig};

/// Packet slots per directed worker pair. Small enough that the rings
/// stay L2-resident, deep enough that a worker a few exchanges ahead of
/// a peer does not stall the error-feedback pipeline.
const RING_CAPACITY: usize = 8;

/// Telemetry handles for the delta-exchange hot path; created only for
/// multi-worker runs so single-worker snapshots carry no `shard.*`
/// zeros.
struct ShardCounters<C> {
    packets: C,
    bytes: C,
    full_skips: C,
}

/// Cross-epoch exchange state: the snapshot baseline and the
/// error-feedback accumulator survive from one epoch to the next (the
/// worker threads do not), so progress that could not be broadcast
/// before an epoch boundary — full rings, partial exchange windows — is
/// carried instead of lost.
struct SyncState {
    /// Replica state at the last exchange (peer contributions included).
    snapshot: Vec<f32>,
    /// Own progress not yet broadcast, plus quantization residuals.
    pending: Vec<f32>,
}

impl SyncState {
    fn zeros(n: usize) -> Self {
        SyncState {
            snapshot: vec![0f32; n],
            pending: vec![0f32; n],
        }
    }

    /// Rebases onto a rolled-back replica: the snapshot matches the
    /// restored weights and undelivered progress from the abandoned
    /// timeline is dropped.
    fn rollback(&mut self, restored: &[f32]) {
        self.snapshot.copy_from_slice(restored);
        self.pending.fill(0.0);
    }
}

/// One worker's half of the delta-exchange protocol.
struct DeltaSync<'a, C> {
    /// All pairwise rings, flattened as `producer * threads + consumer`.
    rings: &'a [DeltaRing],
    worker: usize,
    threads: usize,
    every: usize,
    countdown: usize,
    counters: Option<ShardCounters<C>>,
    state: &'a mut SyncState,
    /// Outgoing quantized payload scratch.
    qbuf: Vec<i8>,
    /// Incoming packet scratch.
    inbox: Vec<i8>,
}

impl<C: Counter> DeltaSync<'_, C> {
    fn exchange<T: WorkerTracer>(&mut self, local: &mut LocalModel<'_>, tracer: &mut T) {
        let span = tracer.begin();
        let mut packets = 0u64;
        // 1. Fold own progress since the last snapshot into `pending`.
        local.accumulate_diff(&self.state.snapshot, &mut self.state.pending);
        // 2. Drain every peer's ring addressed to this worker.
        for p in 0..self.threads {
            if p == self.worker {
                continue;
            }
            let ring = &self.rings[p * self.threads + self.worker];
            while let Some(scale) = ring.pop_into(&mut self.inbox) {
                local.apply_delta(&self.inbox, scale);
                packets += 1;
            }
        }
        // 3. Re-snapshot after the drain: peer contributions are now part
        //    of the baseline and will never be echoed back.
        local.write_dequant(&mut self.state.snapshot);
        // 4. Broadcast `pending` if every outgoing ring has room; the
        //    quantization residual (or, on a full ring, the whole delta)
        //    carries to the next exchange.
        let all_free = (0..self.threads)
            .filter(|&p| p != self.worker)
            .all(|p| self.rings[self.worker * self.threads + p].can_push());
        if all_free {
            if let Some(scale) = quantize_delta_i8(&self.state.pending, &mut self.qbuf) {
                for p in 0..self.threads {
                    if p == self.worker {
                        continue;
                    }
                    let pushed = self.rings[self.worker * self.threads + p].push(scale, &self.qbuf);
                    debug_assert!(pushed, "can_push is stable on the producer side");
                }
                for (d, &q) in self.state.pending.iter_mut().zip(&self.qbuf) {
                    *d -= scale * f32::from(q);
                }
                let sent = (self.threads - 1) as u64;
                packets += sent;
                if let Some(c) = &self.counters {
                    c.packets.add(sent);
                    c.bytes.add(sent * packet_bytes(self.qbuf.len()));
                }
            }
        } else if let Some(c) = &self.counters {
            c.full_skips.incr();
        }
        tracer.end(Phase::DeltaSync, span, packets);
    }
}

/// One worker's model store on this backend: its private replica paired
/// with its half of the exchange. Model operations run on the replica's
/// plain words; the hooks pin the thread and run the exchange.
pub(crate) struct ShardStore<'a, C> {
    local: LocalModel<'a>,
    sync: DeltaSync<'a, C>,
    /// Core to pin the worker thread to (best effort).
    core: usize,
}

impl<C: Counter> ModelStore for ShardStore<'_, C> {
    fn with_words<O: Op>(&mut self, op: O) -> O::Out {
        self.local.apply(op)
    }

    /// Pins the thread, then allocates the exchange scratch on it: the
    /// worker frees these buffers, so they come from its own malloc arena
    /// instead of fragmenting the driver's between epochs.
    fn attach(&mut self) {
        let _ = buckwild_affinity::pin_current_thread(self.core);
        self.sync.qbuf = vec![0i8; self.local.len()];
        self.sync.inbox = vec![0i8; self.local.len()];
    }

    /// Runs an exchange every `delta_every` iterations. Inert with a
    /// single worker.
    #[inline]
    fn tick<T: WorkerTracer>(&mut self, tracer: &mut T) {
        let sync = &mut self.sync;
        if sync.threads == 1 {
            return;
        }
        sync.countdown -= 1;
        if sync.countdown == 0 {
            sync.countdown = sync.every;
            sync.exchange(&mut self.local, tracer);
        }
    }

    /// One last exchange at the end of the worker's epoch, so progress
    /// from a partial exchange window reaches the peers (or the
    /// error-feedback accumulator) instead of waiting a whole epoch.
    /// Inert with a single worker.
    fn flush<T: WorkerTracer>(&mut self, tracer: &mut T) {
        if self.sync.threads > 1 {
            self.sync.exchange(&mut self.local, tracer);
        }
    }
}

/// The sharded backend as the epoch driver sees it: the replica arena,
/// the ring mesh, and the exchange state that outlives an epoch's worker
/// threads.
pub(crate) struct ShardedState {
    precision: ModelPrecision,
    arena: ShardArena,
    rings: Vec<DeltaRing>,
    sync_states: Vec<SyncState>,
    delta_every: usize,
    cores: usize,
}

impl ShardedState {
    pub(crate) fn new(config: &SgdConfig, precision: ModelPrecision, n: usize) -> Self {
        let threads = config.threads;
        let rings = if threads > 1 { threads * threads } else { 0 };
        ShardedState {
            precision,
            arena: ShardArena::new(precision, threads, n),
            rings: (0..rings)
                .map(|_| DeltaRing::new(RING_CAPACITY, n))
                .collect(),
            sync_states: (0..threads).map(|_| SyncState::zeros(n)).collect(),
            delta_every: config.delta_every,
            cores: buckwild_affinity::core_count().max(1),
        }
    }
}

impl<R: Recorder> BackendState<R> for ShardedState {
    type Store<'a> = ShardStore<'a, R::Counter>;

    fn stores(&mut self, threads: usize, recorder: &R) -> Vec<ShardStore<'_, R::Counter>> {
        let (rings, every, cores) = (&self.rings, self.delta_every, self.cores);
        let views = self.arena.views().into_iter();
        views
            .zip(self.sync_states.iter_mut())
            .enumerate()
            .map(|(t, (local, state))| ShardStore {
                sync: DeltaSync {
                    rings,
                    worker: t,
                    threads,
                    every,
                    countdown: every,
                    counters: (threads > 1).then(|| ShardCounters {
                        packets: recorder.worker_counter(metric::DELTA_PACKETS, t),
                        bytes: recorder.worker_counter(metric::DELTA_BYTES, t),
                        full_skips: recorder.worker_counter(metric::RING_FULL_SKIPS, t),
                    }),
                    qbuf: Vec::new(),
                    inbox: Vec::new(),
                    state,
                },
                local,
                core: t % cores,
            })
            .collect()
    }

    fn checkpoint(&self) -> Vec<f32> {
        self.arena.checkpoint()
    }

    /// Restores every replica, and drops ring and exchange-state contents:
    /// they describe the abandoned timeline.
    fn restore(&mut self, checkpoint: &[f32]) {
        self.arena.restore(checkpoint);
        for ring in &self.rings {
            ring.clear();
        }
        let n = checkpoint.len() / self.sync_states.len();
        for (state, replica) in self.sync_states.iter_mut().zip(checkpoint.chunks(n)) {
            state.rollback(replica);
        }
    }

    /// The replica mean, quantized back onto the model grid so consumers
    /// see the same storage representation as the shared backend.
    fn snapshot_quantized(&self) -> QuantizedModel {
        QuantizedModel::quantize(&self.arena.mean_snapshot(), self.precision)
    }

    fn snapshot(&self) -> Vec<f32> {
        self.arena.mean_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use buckwild_dataset::generate;
    use buckwild_telemetry::NoopRecorder;
    use buckwild_trace::NoopWorkerTracer;

    use super::*;
    use crate::predict::FixedWords;
    use crate::train::sealed::Sealed;
    use crate::train::{DenseExamples, DenseQuant, Examples, QuantState};
    use crate::words::{AxpyF32, Snapshot};
    use crate::Loss;

    /// Not a multiple of 8, 32 or 64: every vector loop runs its tail.
    const FEATURES: usize = 131;
    const STEPS: usize = 48;

    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn hash_words(words: &[FixedWords]) -> u64 {
        fnv1a(words.iter().flat_map(|w| match w {
            FixedWords::I8(v) => v.iter().map(|&x| x as u8).collect::<Vec<_>>(),
            FixedWords::I16(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            FixedWords::F32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        }))
    }

    fn hash_sync(states: &[SyncState]) -> u64 {
        fnv1a(states.iter().flat_map(|s| {
            s.snapshot
                .iter()
                .chain(&s.pending)
                .flat_map(|x| x.to_bits().to_le_bytes())
        }))
    }

    /// Runs two workers' SGD writes on one thread, worker 0 then worker 1
    /// every step, so no thread schedule enters the result: single-example
    /// AXPYs (the worker's block-offset path), every fourth step a
    /// mini-batch flush through `AxpyF32`, every seventh step a write
    /// large enough to saturate, and a `tick` after each; then a final
    /// `flush`. Returns hashes of both replicas' words and of both
    /// workers' `SyncState`.
    fn exchange_pin(signature: &str) -> (u64, u64) {
        // Least squares on linear data: no `exp` anywhere, so the pins are
        // IEEE-exact on any host.
        let problem = generate::linear_dense(FEATURES, 64, 0.1, 5);
        let config = SgdConfig::new(Loss::LeastSquares)
            .signature(signature.parse().unwrap())
            .threads(2)
            .delta_every(3)
            .step_size(0.5);
        let precision = ModelPrecision::from_signature(&config.signature).unwrap();
        let prepared = problem.data.prepare(&config);
        let mut state = ShardedState::new(&config, precision, FEATURES);
        let words: Vec<FixedWords> = {
            let mut stores = BackendState::stores(&mut state, 2, &NoopRecorder);
            for store in &mut stores {
                store.sync.qbuf = vec![0; FEATURES];
                store.sync.inbox = vec![0; FEATURES];
            }
            let mut rngs: Vec<QuantState> = (0..2)
                .map(|t| QuantState::new(&config.quantizer, config.rounding, 40 + t))
                .collect();
            let mut scratch = vec![vec![0f32; FEATURES]; 2];
            let mut tracer = NoopWorkerTracer;
            for step in 0..STEPS {
                for (t, store) in stores.iter_mut().enumerate() {
                    let rng = &mut rngs[t];
                    let i = (2 * step + t) % 64;
                    rng.begin_iteration();
                    let boost = if step % 7 == 6 { 40.0 } else { 1.0 };
                    macro_rules! step {
                        ($d:expr) => {{
                            let (x, y) = $d.example(i);
                            let dot = $d.dot(store, x);
                            let a = boost * config.loss.axpy_scale(dot, y, config.step_size);
                            if step % 4 == 3 {
                                $d.accumulate(&mut scratch[t], x, a);
                                store.with_words(AxpyF32(1.0, &scratch[t], |j| rng.uniform(j)));
                                scratch[t].fill(0.0);
                            } else {
                                $d.accumulate(&mut scratch[t], x, 0.5 * a);
                                $d.axpy(store, a, x, rng);
                            }
                        }};
                    }
                    match &prepared {
                        DenseQuant::I8(d) => step!(d),
                        DenseQuant::I16(d) => step!(d),
                        DenseQuant::F32(_) => unreachable!("fixed-point signatures only"),
                    }
                    store.tick(&mut tracer);
                }
            }
            for store in &mut stores {
                store.flush(&mut tracer);
            }
            stores.iter_mut().map(|s| s.with_words(Snapshot)).collect()
        };
        assert!(words.iter().all(|w| w.len() == FEATURES));
        (hash_words(&words), hash_sync(&state.sync_states))
    }

    #[test]
    fn two_worker_exchange_is_pinned_d8m8() {
        assert_eq!(
            exchange_pin("D8M8"),
            (0x55a4_67b0_183e_e5b8, 0xd6a1_f4c0_1411_6b17)
        );
    }

    #[test]
    fn two_worker_exchange_is_pinned_d16m16() {
        assert_eq!(
            exchange_pin("D16M16"),
            (0xc19b_0456_17e5_1589, 0x93f2_a1a7_09c9_cd64)
        );
    }
}
