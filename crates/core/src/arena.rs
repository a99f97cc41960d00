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
//! [`LocalModel`] is the single-owner counterpart of
//! [`SharedModel`](crate::SharedModel): the same storage precisions, the
//! same fixed-point interpretation, and — crucially — *bit-identical
//! arithmetic* in every dot/AXPY path, so a one-worker sharded run
//! reproduces the shared engine exactly. The only differences are plain
//! loads/stores instead of relaxed atomics (each shard has exactly one
//! writer) and the delta hooks the exchange protocol needs.

use buckwild_fixed::FixedSpec;
use buckwild_kernels::optimized::FixedInt;
use buckwild_kernels::weave::{WeavedSlice, BLOCK};

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

fn alloc<T: Default + Clone>(n: usize, shards: usize) -> (Vec<T>, usize, usize) {
    let lane = CACHE_LINE_BYTES / std::mem::size_of::<T>();
    let stride = stride_elems::<T>(n);
    let buf = vec![T::default(); stride * shards + lane];
    let skip = skip_elems::<T>(buf.as_ptr() as usize);
    (buf, stride, skip)
}

/// Splits the aligned region into `shards` mutable views of `n` elements
/// each (the per-shard cache-line padding is carved off and unused).
fn split_shards<T>(
    buf: &mut [T],
    skip: usize,
    stride: usize,
    n: usize,
    shards: usize,
) -> Vec<&mut [T]> {
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
        out.push(shard);
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
            ModelPrecision::F32 => {
                let (buf, stride, skip) = alloc::<f32>(n, shards);
                (Store::F32(buf), stride, skip)
            }
            ModelPrecision::I16 => {
                let (buf, stride, skip) = alloc::<i16>(n, shards);
                (Store::I16(buf), stride, skip)
            }
            ModelPrecision::I8 => {
                let (buf, stride, skip) = alloc::<i8>(n, shards);
                (Store::I8(buf), stride, skip)
            }
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
        match &mut self.store {
            Store::F32(buf) => split_shards(buf, skip, stride, n, shards)
                .into_iter()
                .map(|s| LocalModel {
                    store: LocalStore::F32(s),
                    spec,
                })
                .collect(),
            Store::I16(buf) => split_shards(buf, skip, stride, n, shards)
                .into_iter()
                .map(|s| LocalModel {
                    store: LocalStore::I16(s),
                    spec,
                })
                .collect(),
            Store::I8(buf) => split_shards(buf, skip, stride, n, shards)
                .into_iter()
                .map(|s| LocalModel {
                    store: LocalStore::I8(s),
                    spec,
                })
                .collect(),
        }
    }

    fn read(&self, shard: usize, i: usize) -> f32 {
        let at = self.skip + shard * self.stride + i;
        match &self.store {
            Store::F32(buf) => buf[at],
            Store::I16(buf) => self.spec.dequantize(i64::from(buf[at])),
            Store::I8(buf) => self.spec.dequantize(i64::from(buf[at])),
        }
    }

    /// The element-wise mean of all replicas, dequantized — the model the
    /// sharded engine reports. With one shard this is an exact copy.
    pub(crate) fn mean_snapshot(&self) -> Vec<f32> {
        let inv = self.shards as f32;
        (0..self.n)
            .map(|i| {
                let mut sum = 0f32;
                for s in 0..self.shards {
                    sum += self.read(s, i);
                }
                sum / inv
            })
            .collect()
    }

    /// All replicas dequantized and concatenated — the rollback
    /// checkpoint format.
    pub(crate) fn checkpoint(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.shards * self.n);
        for s in 0..self.shards {
            for i in 0..self.n {
                out.push(self.read(s, i));
            }
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

/// One worker's private model replica: [`SharedModel`](crate::SharedModel)
/// arithmetic on plain (single-owner) storage.
///
/// The worker loop reaches these dot/AXPY methods through the same
/// `ModelStore` calls as the shared model's. Their arithmetic still
/// repeats the shared version's with plain reads and writes for the
/// relaxed atomics (ROADMAP 1(c) is to fold the two together); the
/// backend-equivalence tests pin the two bit-for-bit.
pub struct LocalModel<'a> {
    store: LocalStore<'a>,
    spec: FixedSpec,
}

const K_SHIFT: u32 = 15;

impl LocalModel<'_> {
    /// Number of parameters.
    pub(crate) fn len(&self) -> usize {
        match &self.store {
            LocalStore::F32(w) => w.len(),
            LocalStore::I16(w) => w.len(),
            LocalStore::I8(w) => w.len(),
        }
    }

    fn k_fixed(&self, a: f32, x_spec: &FixedSpec) -> i64 {
        let k_real = a as f64 * x_spec.quantum() as f64 / self.spec.quantum() as f64;
        (k_real * (1i64 << K_SHIFT) as f64)
            .round()
            .clamp(i32::MIN as f64, i32::MAX as f64) as i64
    }

    /// Overwrites the replica from an `f32` snapshot (nearest rounding).
    pub(crate) fn restore_from(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.len(), "snapshot length mismatch");
        match &mut self.store {
            LocalStore::F32(w) => w.copy_from_slice(values),
            LocalStore::I16(w) => {
                for (wi, &v) in w.iter_mut().zip(values) {
                    *wi = self.spec.quantize_unbiased(v, 0.5) as i16;
                }
            }
            LocalStore::I8(w) => {
                for (wi, &v) in w.iter_mut().zip(values) {
                    *wi = self.spec.quantize_unbiased(v, 0.5) as i8;
                }
            }
        }
    }

    /// Writes the dequantized replica into `out`.
    pub(crate) fn write_dequant(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "buffer length mismatch");
        match &self.store {
            LocalStore::F32(w) => out.copy_from_slice(w),
            LocalStore::I16(w) => {
                for (o, &wi) in out.iter_mut().zip(w.iter()) {
                    *o = self.spec.dequantize(i64::from(wi));
                }
            }
            LocalStore::I8(w) => {
                for (o, &wi) in out.iter_mut().zip(w.iter()) {
                    *o = self.spec.dequantize(i64::from(wi));
                }
            }
        }
    }

    /// Folds the replica's progress since `snapshot` into `pending`:
    /// `pending[i] += dequant(w[i]) - snapshot[i]`.
    pub(crate) fn accumulate_diff(&self, snapshot: &[f32], pending: &mut [f32]) {
        assert_eq!(snapshot.len(), self.len(), "snapshot length mismatch");
        assert_eq!(pending.len(), self.len(), "pending length mismatch");
        match &self.store {
            LocalStore::F32(w) => {
                for ((p, &s), &wi) in pending.iter_mut().zip(snapshot).zip(w.iter()) {
                    *p += wi - s;
                }
            }
            LocalStore::I16(w) => {
                for ((p, &s), &wi) in pending.iter_mut().zip(snapshot).zip(w.iter()) {
                    *p += self.spec.dequantize(i64::from(wi)) - s;
                }
            }
            LocalStore::I8(w) => {
                for ((p, &s), &wi) in pending.iter_mut().zip(snapshot).zip(w.iter()) {
                    *p += self.spec.dequantize(i64::from(wi)) - s;
                }
            }
        }
    }

    /// Applies a peer's dequantized delta packet: `w[i] += scale * q[i]`,
    /// rounded to nearest on fixed-point storage.
    pub(crate) fn apply_delta(&mut self, q: &[i8], scale: f32) {
        assert_eq!(q.len(), self.len(), "packet length mismatch");
        match &mut self.store {
            LocalStore::F32(w) => {
                for (wi, &v) in w.iter_mut().zip(q) {
                    *wi += scale * f32::from(v);
                }
            }
            LocalStore::I16(w) => {
                let s = scale / self.spec.quantum();
                for (wi, &v) in w.iter_mut().zip(q) {
                    let target = f64::from(*wi) + f64::from(s * f32::from(v));
                    *wi = (target + 0.5).floor().clamp(-32768.0, 32767.0) as i16;
                }
            }
            LocalStore::I8(w) => {
                let s = scale / self.spec.quantum();
                for (wi, &v) in w.iter_mut().zip(q) {
                    let target = f64::from(*wi) + f64::from(s * f32::from(v));
                    *wi = (target + 0.5).floor().clamp(-128.0, 127.0) as i8;
                }
            }
        }
    }

    /// Dense dot against a fixed-point example (integer MAC).
    ///
    /// The integer arms route through the optimized kernels: integer
    /// addition commutes, so the chunked (and, when active, SIMD)
    /// accumulation is bit-identical to a plain left-to-right sum.
    pub(crate) fn dot_fixed<D: FixedInt>(&self, x: &[D], x_spec: &FixedSpec) -> f32 {
        assert_eq!(x.len(), self.len(), "length mismatch");
        match &self.store {
            LocalStore::I8(w) => {
                buckwild_kernels::optimized::dot_fixed_fixed(x, w, x_spec, &self.spec)
            }
            LocalStore::I16(w) => {
                buckwild_kernels::optimized::dot_fixed_fixed(x, w, x_spec, &self.spec)
            }
            LocalStore::F32(w) => {
                let mut acc = 0f32;
                for (xi, &wi) in x.iter().zip(w.iter()) {
                    acc += xi.widen() as f32 * wi;
                }
                acc * x_spec.quantum()
            }
        }
    }

    /// Dense dot against a bit-weaved example read at `bits` planes.
    ///
    /// Decodes each 64-element block and then accumulates exactly like
    /// [`LocalModel::dot_fixed`], so a full-precision weaved read is
    /// bit-identical to the unweaved fixed path.
    pub(crate) fn dot_weaved(&self, x: WeavedSlice<'_>, bits: u32) -> f32 {
        assert_eq!(x.len(), self.len(), "length mismatch");
        let x_quantum = x.spec().quantum();
        let mut decoded = [0i32; BLOCK];
        match &self.store {
            LocalStore::I8(w) => {
                let mut total = 0i64;
                for b in 0..x.blocks() {
                    let filled = x.decode_block(b, bits, &mut decoded);
                    let base = b * BLOCK;
                    for (j, &xv) in decoded[..filled].iter().enumerate() {
                        total += (xv * i32::from(w[base + j])) as i64;
                    }
                }
                total as f32 * x_quantum * self.spec.quantum()
            }
            LocalStore::I16(w) => {
                let mut total = 0i64;
                for b in 0..x.blocks() {
                    let filled = x.decode_block(b, bits, &mut decoded);
                    let base = b * BLOCK;
                    for (j, &xv) in decoded[..filled].iter().enumerate() {
                        total += (xv * i32::from(w[base + j])) as i64;
                    }
                }
                total as f32 * x_quantum * self.spec.quantum()
            }
            LocalStore::F32(w) => {
                let mut acc = 0f32;
                for b in 0..x.blocks() {
                    let filled = x.decode_block(b, bits, &mut decoded);
                    let base = b * BLOCK;
                    for (j, &xv) in decoded[..filled].iter().enumerate() {
                        acc += xv as f32 * w[base + j];
                    }
                }
                acc * x_quantum
            }
        }
    }

    /// Dense dot against a float example.
    pub(crate) fn dot_f32(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.len(), "length mismatch");
        match &self.store {
            LocalStore::F32(w) => {
                let mut acc = 0f32;
                for (xi, &wi) in x.iter().zip(w.iter()) {
                    acc += xi * wi;
                }
                acc
            }
            LocalStore::I16(w) => {
                let mut acc = 0f32;
                for (xi, &wi) in x.iter().zip(w.iter()) {
                    acc += xi * f32::from(wi);
                }
                acc * self.spec.quantum()
            }
            LocalStore::I8(w) => {
                let mut acc = 0f32;
                for (xi, &wi) in x.iter().zip(w.iter()) {
                    acc += xi * f32::from(wi);
                }
                acc * self.spec.quantum()
            }
        }
    }

    /// Sparse dot with fixed-point values.
    pub(crate) fn dot_sparse_fixed<D: FixedInt>(
        &self,
        values: &[D],
        indices: &[u32],
        x_spec: &FixedSpec,
    ) -> f32 {
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        match &self.store {
            LocalStore::I8(w) => {
                let mut total = 0i64;
                for (v, &i) in values.iter().zip(indices) {
                    total += (v.widen() * i32::from(w[i as usize])) as i64;
                }
                total as f32 * x_spec.quantum() * self.spec.quantum()
            }
            LocalStore::I16(w) => {
                let mut total = 0i64;
                for (v, &i) in values.iter().zip(indices) {
                    total += (v.widen() * i32::from(w[i as usize])) as i64;
                }
                total as f32 * x_spec.quantum() * self.spec.quantum()
            }
            LocalStore::F32(w) => {
                let mut acc = 0f32;
                for (v, &i) in values.iter().zip(indices) {
                    acc += v.widen() as f32 * w[i as usize];
                }
                acc * x_spec.quantum()
            }
        }
    }

    /// Sparse dot with float values.
    pub(crate) fn dot_sparse_f32(&self, values: &[f32], indices: &[u32]) -> f32 {
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        match &self.store {
            LocalStore::F32(w) => {
                let mut acc = 0f32;
                for (v, &i) in values.iter().zip(indices) {
                    acc += v * w[i as usize];
                }
                acc
            }
            LocalStore::I16(w) => {
                let mut acc = 0f32;
                for (v, &i) in values.iter().zip(indices) {
                    acc += v * f32::from(w[i as usize]);
                }
                acc * self.spec.quantum()
            }
            LocalStore::I8(w) => {
                let mut acc = 0f32;
                for (v, &i) in values.iter().zip(indices) {
                    acc += v * f32::from(w[i as usize]);
                }
                acc * self.spec.quantum()
            }
        }
    }

    /// Dense quantized AXPY with per-element rounding offsets.
    pub(crate) fn axpy_fixed<D: FixedInt>(
        &mut self,
        a: f32,
        x: &[D],
        x_spec: &FixedSpec,
        offsets: &mut dyn FnMut(usize) -> i64,
    ) {
        assert_eq!(x.len(), self.len(), "length mismatch");
        let k = self.k_fixed(a, x_spec);
        match &mut self.store {
            LocalStore::I8(w) => {
                for (i, (xi, wi)) in x.iter().zip(w.iter_mut()).enumerate() {
                    let delta = (xi.widen() as i64 * k + offsets(i)) >> K_SHIFT;
                    *wi = (i64::from(*wi) + delta).clamp(-128, 127) as i8;
                }
            }
            LocalStore::I16(w) => {
                for (i, (xi, wi)) in x.iter().zip(w.iter_mut()).enumerate() {
                    let delta = (xi.widen() as i64 * k + offsets(i)) >> K_SHIFT;
                    *wi = (i64::from(*wi) + delta).clamp(-32768, 32767) as i16;
                }
            }
            LocalStore::F32(w) => {
                let scale = a * x_spec.quantum();
                for (xi, wi) in x.iter().zip(w.iter_mut()) {
                    *wi += scale * xi.widen() as f32;
                }
            }
        }
    }

    /// Dense quantized AXPY with a fixed 8-entry offset block.
    pub(crate) fn axpy_fixed_block<D: FixedInt>(
        &mut self,
        a: f32,
        x: &[D],
        x_spec: &FixedSpec,
        offsets: &[i64; 8],
    ) {
        assert_eq!(x.len(), self.len(), "length mismatch");
        let k = self.k_fixed(a, x_spec);
        match &mut self.store {
            LocalStore::I8(w) => {
                for (i, (xi, wi)) in x.iter().zip(w.iter_mut()).enumerate() {
                    let delta = (xi.widen() as i64 * k + offsets[i & 7]) >> K_SHIFT;
                    *wi = (i64::from(*wi) + delta).clamp(-128, 127) as i8;
                }
            }
            LocalStore::I16(w) => {
                for (i, (xi, wi)) in x.iter().zip(w.iter_mut()).enumerate() {
                    let delta = (xi.widen() as i64 * k + offsets[i & 7]) >> K_SHIFT;
                    *wi = (i64::from(*wi) + delta).clamp(-32768, 32767) as i16;
                }
            }
            LocalStore::F32(w) => {
                let scale = a * x_spec.quantum();
                for (xi, wi) in x.iter().zip(w.iter_mut()) {
                    *wi += scale * xi.widen() as f32;
                }
            }
        }
    }

    /// Dense quantized AXPY from a bit-weaved example read at `bits`
    /// planes, with per-element rounding offsets — the weaved twin of
    /// [`LocalModel::axpy_fixed`] (same `K_SHIFT` scaling, saturation, and
    /// offset indexing by global element position).
    pub(crate) fn axpy_weaved(
        &mut self,
        a: f32,
        x: WeavedSlice<'_>,
        bits: u32,
        offsets: &mut dyn FnMut(usize) -> i64,
    ) {
        assert_eq!(x.len(), self.len(), "length mismatch");
        let k = self.k_fixed(a, x.spec());
        let mut decoded = [0i32; BLOCK];
        match &mut self.store {
            LocalStore::I8(w) => {
                for b in 0..x.blocks() {
                    let filled = x.decode_block(b, bits, &mut decoded);
                    let base = b * BLOCK;
                    for (j, &xv) in decoded[..filled].iter().enumerate() {
                        let i = base + j;
                        let delta = (xv as i64 * k + offsets(i)) >> K_SHIFT;
                        let wi = &mut w[i];
                        *wi = (i64::from(*wi) + delta).clamp(-128, 127) as i8;
                    }
                }
            }
            LocalStore::I16(w) => {
                for b in 0..x.blocks() {
                    let filled = x.decode_block(b, bits, &mut decoded);
                    let base = b * BLOCK;
                    for (j, &xv) in decoded[..filled].iter().enumerate() {
                        let i = base + j;
                        let delta = (xv as i64 * k + offsets(i)) >> K_SHIFT;
                        let wi = &mut w[i];
                        *wi = (i64::from(*wi) + delta).clamp(-32768, 32767) as i16;
                    }
                }
            }
            LocalStore::F32(w) => {
                let scale = a * x.spec().quantum();
                for b in 0..x.blocks() {
                    let filled = x.decode_block(b, bits, &mut decoded);
                    let base = b * BLOCK;
                    for (j, &xv) in decoded[..filled].iter().enumerate() {
                        w[base + j] += scale * xv as f32;
                    }
                }
            }
        }
    }

    /// Weaved AXPY with a fixed 8-entry offset block.
    pub(crate) fn axpy_weaved_block(
        &mut self,
        a: f32,
        x: WeavedSlice<'_>,
        bits: u32,
        offsets: &[i64; 8],
    ) {
        self.axpy_weaved(a, x, bits, &mut |i| offsets[i & 7]);
    }

    /// Dense AXPY with float data; fixed storage rounds on the grid with
    /// `uniforms` samples in `[0, 1)`.
    pub(crate) fn axpy_f32(&mut self, a: f32, x: &[f32], uniforms: &mut dyn FnMut(usize) -> f32) {
        assert_eq!(x.len(), self.len(), "length mismatch");
        match &mut self.store {
            LocalStore::F32(w) => {
                for (xi, wi) in x.iter().zip(w.iter_mut()) {
                    *wi += a * xi;
                }
            }
            LocalStore::I16(w) => {
                let scale = a / self.spec.quantum();
                for (i, (xi, wi)) in x.iter().zip(w.iter_mut()).enumerate() {
                    let target = f64::from(*wi) + f64::from(scale * xi);
                    let grid = (target + f64::from(uniforms(i)))
                        .floor()
                        .clamp(-32768.0, 32767.0);
                    *wi = grid as i16;
                }
            }
            LocalStore::I8(w) => {
                let scale = a / self.spec.quantum();
                for (i, (xi, wi)) in x.iter().zip(w.iter_mut()).enumerate() {
                    let target = f64::from(*wi) + f64::from(scale * xi);
                    let grid = (target + f64::from(uniforms(i)))
                        .floor()
                        .clamp(-128.0, 127.0);
                    *wi = grid as i8;
                }
            }
        }
    }

    /// Sparse quantized AXPY over the indexed coordinates only.
    pub(crate) fn axpy_sparse_fixed<D: FixedInt>(
        &mut self,
        a: f32,
        values: &[D],
        indices: &[u32],
        x_spec: &FixedSpec,
        offsets: &mut dyn FnMut(usize) -> i64,
    ) {
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        let k = self.k_fixed(a, x_spec);
        match &mut self.store {
            LocalStore::I8(w) => {
                for (j, (v, &i)) in values.iter().zip(indices).enumerate() {
                    let delta = (v.widen() as i64 * k + offsets(j)) >> K_SHIFT;
                    let wi = &mut w[i as usize];
                    *wi = (i64::from(*wi) + delta).clamp(-128, 127) as i8;
                }
            }
            LocalStore::I16(w) => {
                for (j, (v, &i)) in values.iter().zip(indices).enumerate() {
                    let delta = (v.widen() as i64 * k + offsets(j)) >> K_SHIFT;
                    let wi = &mut w[i as usize];
                    *wi = (i64::from(*wi) + delta).clamp(-32768, 32767) as i16;
                }
            }
            LocalStore::F32(w) => {
                let scale = a * x_spec.quantum();
                for (v, &i) in values.iter().zip(indices) {
                    w[i as usize] += scale * v.widen() as f32;
                }
            }
        }
    }

    /// Sparse AXPY with float values.
    pub(crate) fn axpy_sparse_f32(
        &mut self,
        a: f32,
        values: &[f32],
        indices: &[u32],
        uniforms: &mut dyn FnMut(usize) -> f32,
    ) {
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        match &mut self.store {
            LocalStore::F32(w) => {
                for (v, &i) in values.iter().zip(indices) {
                    w[i as usize] += a * v;
                }
            }
            LocalStore::I16(w) => {
                let scale = a / self.spec.quantum();
                for (j, (v, &i)) in values.iter().zip(indices).enumerate() {
                    let wi = &mut w[i as usize];
                    let target = f64::from(*wi) + f64::from(scale * v);
                    let grid = (target + f64::from(uniforms(j)))
                        .floor()
                        .clamp(-32768.0, 32767.0);
                    *wi = grid as i16;
                }
            }
            LocalStore::I8(w) => {
                let scale = a / self.spec.quantum();
                for (j, (v, &i)) in values.iter().zip(indices).enumerate() {
                    let wi = &mut w[i as usize];
                    let target = f64::from(*wi) + f64::from(scale * v);
                    let grid = (target + f64::from(uniforms(j)))
                        .floor()
                        .clamp(-128.0, 127.0);
                    *wi = grid as i8;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedModel;
    use buckwild_fixed::FixedSpec;
    use buckwild_kernels::weave::WeavedVec;

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

    #[test]
    fn local_model_matches_shared_model_bit_for_bit() {
        // The equivalence the whole sharded backend rests on: every op on
        // LocalModel produces exactly the bits SharedModel would.
        let x8: Vec<i8> = (0..64).map(|i| ((i * 37) % 251) as i8).collect();
        let xf: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 64.0).collect();
        let x_spec = FixedSpec::unit_range(8);
        let init: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.031) - 1.0).collect();
        for precision in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let shared = SharedModel::from_f32(precision, &init);
            let mut arena = ShardArena::new(precision, 1, 64);
            let mut views = arena.views();
            let local = &mut views[0];
            local.restore_from(&init);

            assert_eq!(
                local.dot_fixed(&x8, &x_spec),
                shared.dot_fixed(&x8, &x_spec)
            );
            assert_eq!(local.dot_f32(&xf), shared.dot_f32(&xf));
            let weaved = WeavedVec::encode(&x8, &x_spec);
            assert_eq!(
                local.dot_weaved(weaved.view(), 8),
                shared.dot_weaved(weaved.view(), 8)
            );

            let mut off_a = |i: usize| ((i * 7919) % (1 << 15)) as i64;
            let mut off_b = |i: usize| ((i * 7919) % (1 << 15)) as i64;
            shared.axpy_fixed(0.37, &x8, &x_spec, &mut off_a);
            local.axpy_fixed(0.37, &x8, &x_spec, &mut off_b);

            let offs = [3i64, 99, 1024, 0, 8000, 123, 77, 15000];
            shared.axpy_fixed_block(-0.21, &x8, &x_spec, &offs);
            local.axpy_fixed_block(-0.21, &x8, &x_spec, &offs);

            shared.axpy_weaved_block(0.11, weaved.view(), 8, &offs);
            local.axpy_weaved_block(0.11, weaved.view(), 8, &offs);

            let mut uni_a = |i: usize| ((i * 31) % 97) as f32 / 97.0;
            let mut uni_b = |i: usize| ((i * 31) % 97) as f32 / 97.0;
            shared.axpy_f32(0.12, &xf, &mut uni_a);
            local.axpy_f32(0.12, &xf, &mut uni_b);

            let idx: Vec<u32> = vec![0, 5, 17, 63];
            let sv8: Vec<i8> = vec![100, -100, 50, 25];
            let svf: Vec<f32> = vec![0.5, -0.5, 0.25, 1.0];
            assert_eq!(
                local.dot_sparse_fixed(&sv8, &idx, &x_spec),
                shared.dot_sparse_fixed(&sv8, &idx, &x_spec)
            );
            assert_eq!(
                local.dot_sparse_f32(&svf, &idx),
                shared.dot_sparse_f32(&svf, &idx)
            );
            let mut off_a = |j: usize| ((j * 101) % (1 << 15)) as i64;
            let mut off_b = |j: usize| ((j * 101) % (1 << 15)) as i64;
            shared.axpy_sparse_fixed(0.8, &sv8, &idx, &x_spec, &mut off_a);
            local.axpy_sparse_fixed(0.8, &sv8, &idx, &x_spec, &mut off_b);
            let mut uni_a = |j: usize| (j as f32) / 7.0 % 1.0;
            let mut uni_b = |j: usize| (j as f32) / 7.0 % 1.0;
            shared.axpy_sparse_f32(-0.3, &svf, &idx, &mut uni_a);
            local.axpy_sparse_f32(-0.3, &svf, &idx, &mut uni_b);

            let mut dequant = vec![0f32; 64];
            local.write_dequant(&mut dequant);
            assert_eq!(dequant, shared.snapshot(), "{precision:?} diverged");
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
