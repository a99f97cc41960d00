//! The shared-nothing model arena: one cache-aligned replica per worker.
//!
//! [`ShardArena`] pre-allocates every worker's model replica in a single
//! contiguous, precision-typed buffer. Each shard starts on a 64-byte
//! boundary and occupies a whole number of cache lines, so two workers
//! never share a line — the false-sharing and coherence-invalidation
//! traffic the shared-model engine pays per write simply cannot occur.
//!
//! The alignment is achieved without `unsafe`: the buffer is
//! over-allocated by one cache line, the number of elements to skip is
//! computed from the allocation's address (`as_ptr() as usize` is a safe
//! cast), and shards are carved out of the aligned region with ordinary
//! mutable-slice splitting. Element counts per shard are rounded up to a
//! cache-line multiple, which keeps every shard start aligned.
//!
//! [`LocalModel`] is one shard seen by its worker: the same storage
//! precisions and fixed-point interpretation as
//! [`SharedModel`](crate::SharedModel), reached by plain loads and stores
//! because each shard has exactly one writer. It has no arithmetic of its
//! own — dots and AXPYs are the crate's one set of model operations
//! (`words.rs`) run on the shard's `&mut [W]`, so a one-worker sharded run
//! reproduces the shared engine bit for bit by construction. What lives
//! here is only what the delta exchange adds.

use buckwild_fixed::FixedSpec;

use crate::words::{dequantize_into, AxpyF32, Op, Word, Words, Write};
use crate::ModelPrecision;

/// The cache-line granule shards are aligned and padded to.
pub(crate) const CACHE_LINE_BYTES: usize = 64;

enum Store {
    F32(Vec<f32>),
    I16(Vec<i16>),
    I8(Vec<i8>),
}

/// A pre-allocated arena of per-worker model replicas, one cache-aligned
/// shard per worker.
pub(crate) struct ShardArena {
    store: Store,
    shards: usize,
    n: usize,
    stride: usize,
    skip: usize,
    spec: FixedSpec,
}

/// Elements to skip so indexing starts on a 64-byte boundary.
fn skip_elems<T>(ptr_addr: usize) -> usize {
    let misalign = ptr_addr % CACHE_LINE_BYTES;
    ((CACHE_LINE_BYTES - misalign) % CACHE_LINE_BYTES) / std::mem::size_of::<T>()
}

/// Shard stride: `n` rounded up to a whole number of cache lines.
fn stride_elems<T>(n: usize) -> usize {
    let lane = CACHE_LINE_BYTES / std::mem::size_of::<T>();
    n.div_ceil(lane) * lane
}

/// Allocates the zeroed buffer; returns it wrapped, with stride and skip.
fn alloc<T: Default + Clone>(
    n: usize,
    shards: usize,
    wrap: fn(Vec<T>) -> Store,
) -> (Store, usize, usize) {
    let lane = CACHE_LINE_BYTES / std::mem::size_of::<T>();
    let stride = stride_elems::<T>(n);
    let buf = vec![T::default(); stride * shards + lane];
    let skip = skip_elems::<T>(buf.as_ptr() as usize);
    (wrap(buf), stride, skip)
}

/// Splits the aligned region into `shards` mutable slices of `n` elements
/// each (the per-shard cache-line padding is carved off and unused) and
/// wraps each with `view`.
fn split_shards<'a, T, V>(
    buf: &'a mut [T],
    skip: usize,
    stride: usize,
    n: usize,
    shards: usize,
    view: impl Fn(&'a mut [T]) -> V,
) -> Vec<V> {
    let mut rest = &mut buf[skip..skip + stride * shards];
    let mut out = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(stride);
        rest = tail;
        let (shard, _padding) = chunk.split_at_mut(n);
        debug_assert_eq!(
            shard.as_ptr() as usize % CACHE_LINE_BYTES,
            0,
            "shard start must be cache-line aligned"
        );
        out.push(view(shard));
    }
    out
}

impl ShardArena {
    /// Allocates `shards` zeroed replicas of `n` parameters each at the
    /// given precision.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `n == 0`.
    pub(crate) fn new(precision: ModelPrecision, shards: usize, n: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        assert!(n > 0, "model size must be positive");
        let (store, stride, skip) = match precision {
            ModelPrecision::F32 => alloc(n, shards, Store::F32),
            ModelPrecision::I16 => alloc(n, shards, Store::I16),
            ModelPrecision::I8 => alloc(n, shards, Store::I8),
        };
        ShardArena {
            store,
            shards,
            n,
            stride,
            skip,
            spec: precision.spec(),
        }
    }

    /// Bytes of one shard's stride (always a cache-line multiple).
    #[cfg(test)]
    fn stride_bytes(&self) -> usize {
        match &self.store {
            Store::F32(_) => self.stride * 4,
            Store::I16(_) => self.stride * 2,
            Store::I8(_) => self.stride,
        }
    }

    /// Hands out one mutable [`LocalModel`] view per shard; the borrows
    /// are disjoint, so each can move into its worker's thread.
    pub(crate) fn views(&mut self) -> Vec<LocalModel<'_>> {
        let (skip, stride, n, shards, spec) =
            (self.skip, self.stride, self.n, self.shards, self.spec);
        let view = |store| LocalModel { store, spec };
        match &mut self.store {
            Store::F32(buf) => {
                split_shards(buf, skip, stride, n, shards, |s| view(LocalStore::F32(s)))
            }
            Store::I16(buf) => {
                split_shards(buf, skip, stride, n, shards, |s| view(LocalStore::I16(s)))
            }
            Store::I8(buf) => {
                split_shards(buf, skip, stride, n, shards, |s| view(LocalStore::I8(s)))
            }
        }
    }

    /// Writes shard `shard`, dequantized, into `out`.
    fn dequantize_shard(&self, shard: usize, out: &mut [f32]) {
        let at = self.skip + shard * self.stride;
        match &self.store {
            Store::F32(buf) => dequantize_into(&buf[at..at + self.n], &self.spec, out),
            Store::I16(buf) => dequantize_into(&buf[at..at + self.n], &self.spec, out),
            Store::I8(buf) => dequantize_into(&buf[at..at + self.n], &self.spec, out),
        }
    }

    /// The element-wise mean of all replicas, dequantized — the model the
    /// sharded engine reports. With one shard this is an exact copy.
    pub(crate) fn mean_snapshot(&self) -> Vec<f32> {
        let mut mean = vec![0f32; self.n];
        let mut replica = vec![0f32; self.n];
        for s in 0..self.shards {
            self.dequantize_shard(s, &mut replica);
            for (m, r) in mean.iter_mut().zip(&replica) {
                *m += r;
            }
        }
        let shards = self.shards as f32;
        for m in &mut mean {
            *m /= shards;
        }
        mean
    }

    /// All replicas dequantized and concatenated — the rollback
    /// checkpoint format.
    pub(crate) fn checkpoint(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.shards * self.n];
        for (s, replica) in out.chunks_mut(self.n).enumerate() {
            self.dequantize_shard(s, replica);
        }
        out
    }

    /// Restores every replica from a [`ShardArena::checkpoint`] (nearest
    /// rounding; values already on the storage grid round-trip exactly).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != shards * features`.
    pub(crate) fn restore(&mut self, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.shards * self.n,
            "checkpoint length mismatch"
        );
        let n = self.n;
        for (view, chunk) in self.views().iter_mut().zip(values.chunks(n)) {
            view.restore_from(chunk);
        }
    }
}

enum LocalStore<'a> {
    F32(&'a mut [f32]),
    I16(&'a mut [i16]),
    I8(&'a mut [i8]),
}

/// One worker's private model replica: plain (single-owner) words plus
/// their fixed-point interpretation.
///
/// The worker loop runs the crate's model operations on it through
/// [`LocalModel::apply`], exactly as it runs them on the shared model's
/// atomic cells. The methods here are the delta exchange's own: restore,
/// dequantize, diff against a snapshot, apply a peer's packet.
pub struct LocalModel<'a> {
    store: LocalStore<'a>,
    spec: FixedSpec,
}

impl LocalModel<'_> {
    /// Number of parameters.
    pub(crate) fn len(&self) -> usize {
        match &self.store {
            LocalStore::F32(w) => w.len(),
            LocalStore::I16(w) => w.len(),
            LocalStore::I8(w) => w.len(),
        }
    }

    /// Runs one model operation on the replica's plain words.
    pub(crate) fn apply<O: Op>(&mut self, op: O) -> O::Out {
        match &mut self.store {
            LocalStore::F32(w) => op.run(&mut **w, &self.spec),
            LocalStore::I16(w) => op.run(&mut **w, &self.spec),
            LocalStore::I8(w) => op.run(&mut **w, &self.spec),
        }
    }

    /// Overwrites the replica from an `f32` snapshot (nearest rounding).
    pub(crate) fn restore_from(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.len(), "snapshot length mismatch");
        self.apply(Write(0, values, 0.5));
    }

    /// Writes the dequantized replica into `out`.
    pub(crate) fn write_dequant(&self, out: &mut [f32]) {
        match &self.store {
            LocalStore::F32(w) => dequantize_into(w, &self.spec, out),
            LocalStore::I16(w) => dequantize_into(w, &self.spec, out),
            LocalStore::I8(w) => dequantize_into(w, &self.spec, out),
        }
    }

    /// Folds the replica's progress since `snapshot` into `pending`:
    /// `pending[i] += dequant(w[i]) - snapshot[i]`.
    pub(crate) fn accumulate_diff(&mut self, snapshot: &[f32], pending: &mut [f32]) {
        self.apply(AccumulateDiff(snapshot, pending));
    }

    /// Applies a peer's dequantized delta packet: `w[i] += scale * q[i]`,
    /// rounded to nearest on fixed-point storage.
    pub(crate) fn apply_delta(&mut self, q: &[i8], scale: f32) {
        self.apply(AxpyF32(scale, q, |_| 0.5));
    }
}

struct AccumulateDiff<'x>(&'x [f32], &'x mut [f32]);

impl Op for AccumulateDiff<'_> {
    type Out = ();
    fn run<W: Word, A: Words<W>>(self, w: A, spec: &FixedSpec) {
        let AccumulateDiff(snapshot, pending) = self;
        assert_eq!(snapshot.len(), w.len(), "snapshot length mismatch");
        assert_eq!(pending.len(), w.len(), "pending length mismatch");
        for (i, (p, &s)) in (0..w.len()).zip(pending.iter_mut().zip(snapshot)) {
            *p += w.get(i).dequantize(spec) - s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::{
        AxpyF32, AxpyFixed, AxpySparseF32, AxpySparseFixed, DotF32, DotFixed, DotSparseF32,
        DotSparseFixed, Offsets,
    };
    use crate::SharedModel;

    #[test]
    fn shards_are_cache_line_aligned_at_every_precision() {
        for precision in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            // Deliberately awkward sizes to exercise the padding math.
            for n in [1usize, 7, 63, 64, 65, 1000] {
                let mut arena = ShardArena::new(precision, 4, n);
                assert_eq!(arena.stride_bytes() % CACHE_LINE_BYTES, 0);
                let views = arena.views();
                assert_eq!(views.len(), 4);
                for v in &views {
                    assert_eq!(v.len(), n);
                }
            }
        }
    }

    #[test]
    fn views_are_independent_and_mean_averages() {
        let mut arena = ShardArena::new(ModelPrecision::F32, 2, 3);
        {
            let mut views = arena.views();
            views[0].restore_from(&[1.0, 2.0, 3.0]);
            views[1].restore_from(&[3.0, 0.0, -1.0]);
        }
        assert_eq!(arena.mean_snapshot(), vec![2.0, 1.0, 1.0]);
    }

    #[test]
    fn checkpoint_restore_round_trips_fixed_grid() {
        let mut arena = ShardArena::new(ModelPrecision::I8, 2, 4);
        {
            let mut views = arena.views();
            views[0].restore_from(&[0.5, -1.25, 0.0, 1.0]);
            views[1].restore_from(&[-0.5, 0.25, 2.0, -2.0]);
        }
        let ckpt = arena.checkpoint();
        {
            let mut views = arena.views();
            views[0].restore_from(&[0.0; 4]);
            views[1].restore_from(&[0.0; 4]);
        }
        arena.restore(&ckpt);
        assert_eq!(arena.checkpoint(), ckpt, "grid values round-trip exactly");
    }

    /// Runs every dot and AXPY on a [`SharedModel`] (atomic words) and on
    /// a [`LocalModel`] (plain words) from the same inputs and demands the
    /// same bits. `scale` multiplies every AXPY's `a`.
    fn assert_access_kinds_agree(precision: ModelPrecision, init: &[f32], scale: f32) {
        let n = init.len();
        let x8: Vec<i8> = (0..n).map(|i| ((i * 37) % 251) as i8).collect();
        let xf: Vec<f32> = (0..n).map(|i| (i as f32 - 32.0) / 64.0).collect();
        let x_spec = &FixedSpec::unit_range(8);
        let offs = [3i64, 99, 1024, 0, 8000, 123, 77, 15000];
        let off = |i: usize| ((i * 7919) % (1 << 15)) as i64;
        let uni = |i: usize| ((i * 31) % 97) as f32 / 97.0;
        let indices: &[u32] = &[0, (n / 3) as u32, (n / 2) as u32, (n - 1) as u32];
        let values: &[i8] = &[100, -100, 50, 25];
        let fvalues: &[f32] = &[0.5, -0.5, 0.25, 1.0];

        let shared = SharedModel::from_f32(precision, init);
        let mut arena = ShardArena::new(precision, 1, n);
        let mut views = arena.views();
        let local = &mut views[0];
        local.restore_from(init);
        let tag = format!("{precision:?} n={n} scale={scale}");

        assert_eq!(
            local.apply(DotFixed(&x8, x_spec)),
            shared.dot_fixed(&x8, x_spec),
            "{tag}"
        );
        assert_eq!(local.apply(DotF32(&xf)), shared.dot_f32(&xf), "{tag}");
        assert_eq!(
            local.apply(DotSparseFixed(values, indices, x_spec)),
            shared.dot_sparse_fixed(values, indices, x_spec),
            "{tag}"
        );
        assert_eq!(
            local.apply(DotSparseF32(fvalues, indices)),
            shared.dot_sparse_f32(fvalues, indices),
            "{tag}"
        );

        let a = 0.37 * scale;
        shared.axpy_fixed(a, &x8, x_spec, &mut { off });
        local.apply(AxpyFixed(a, &x8, x_spec, Offsets::Each(off)));
        let a = -0.21 * scale;
        shared.axpy_fixed_block(a, &x8, x_spec, &offs);
        local.apply(AxpyFixed(
            a,
            &x8,
            x_spec,
            Offsets::<fn(usize) -> i64>::Block(offs),
        ));
        let a = 0.12 * scale;
        shared.axpy_f32(a, &xf, &mut { uni });
        local.apply(AxpyF32(a, &xf, uni));
        let a = 0.8 * scale;
        shared.axpy_sparse_fixed(a, values, indices, x_spec, &mut { off });
        local.apply(AxpySparseFixed(a, values, indices, x_spec, off));
        let a = -0.3 * scale;
        shared.axpy_sparse_f32(a, fvalues, indices, &mut { uni });
        local.apply(AxpySparseF32(a, fvalues, indices, uni));

        let mut dequant = vec![0f32; n];
        local.write_dequant(&mut dequant);
        assert_eq!(dequant, shared.snapshot(), "{tag} diverged");
    }

    #[test]
    fn local_model_matches_shared_model_bit_for_bit() {
        // The equivalence the whole sharded backend rests on: the atomic
        // and the plain instantiation of every op produce the same bits —
        // at lengths that are not multiples of the 8-entry offset block,
        // and with every clamp arm taken.
        for precision in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let spec = precision.spec();
            for n in [1usize, 7, 63, 64, 65, 130] {
                let init: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.031) - 1.0).collect();
                assert_access_kinds_agree(precision, &init, 1.0);
                let limits: Vec<f32> = (0..n)
                    .map(|i| [spec.max_value(), spec.min_value()][i % 2])
                    .collect();
                assert_access_kinds_agree(precision, &limits, 300.0);
            }
        }
    }

    #[test]
    fn apply_delta_and_accumulate_diff_cooperate() {
        let mut arena = ShardArena::new(ModelPrecision::F32, 1, 4);
        let mut views = arena.views();
        let local = &mut views[0];
        let snapshot = vec![0f32; 4];
        local.apply_delta(&[127, -127, 0, 64], 1.0 / 127.0);
        let mut pending = vec![0f32; 4];
        local.accumulate_diff(&snapshot, &mut pending);
        assert!((pending[0] - 1.0).abs() < 1e-6);
        assert!((pending[1] + 1.0).abs() < 1e-6);
        assert_eq!(pending[2], 0.0);
        assert!((pending[3] - 64.0 / 127.0).abs() < 1e-6);
    }
}
