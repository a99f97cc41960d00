//! The shared model vector: lock-free, precision-typed, racy by design.
//!
//! Hogwild!-style SGD shares one model among all workers *without locking*:
//! concurrent read-modify-write cycles can interleave and updates can be
//! lost, and the algorithm tolerates it (paper §2). C++ expresses this
//! with plain non-atomic accesses — undefined behavior that happens to
//! work. Rust requires the races to be spelled out: the model is packed
//! into 64-bit cells (8 D8, 4 D16 or 2 f32 words each), every cell is a
//! relaxed `AtomicU64` whose loads and stores compile to plain `mov`s,
//! and the *algorithmic* race (lost updates between a worker's load and
//! its store) is preserved because we deliberately use separate load/store
//! pairs rather than `fetch_add`. A dense integer dot or AXPY runs the
//! SIMD kernel on the cells themselves (`buckwild_kernels::cells`): one
//! relaxed load per cell straight into a vector lane and, for the AXPY,
//! one relaxed store per cell of the result, with nothing copied to the
//! stack. A racing writer therefore loses at most one cell of updates (8
//! D8 or 4 D16 words), the vector granularity of the paper's AVX2 loads
//! and stores.

use std::sync::atomic::AtomicU64;

use buckwild_dmgc::Signature;
use buckwild_fixed::FixedSpec;
use buckwild_kernels::optimized::FixedInt;

use crate::predict::QuantizedModel;
use crate::words::{
    AxpyF32, AxpyFixed, AxpySparseF32, AxpySparseFixed, Cells, DotF32, DotFixed, DotSparseF32,
    DotSparseFixed, Offsets, Op, Read, Snapshot, Write,
};

/// Storage precision of the shared model — the `M` term of the signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelPrecision {
    /// 32-bit IEEE float (`M32f`).
    F32,
    /// 16-bit fixed point (`M16`).
    I16,
    /// 8-bit fixed point (`M8`).
    I8,
}

impl ModelPrecision {
    /// Derives the model precision from a DMGC signature.
    ///
    /// Returns `None` for widths this trainer does not support in shared
    /// storage (e.g. 4-bit models, which are evaluated through the packed
    /// kernels and cost model instead).
    #[must_use]
    pub fn from_signature(signature: &Signature) -> Option<Self> {
        let m = signature.model();
        match (m.bits(), m.is_float()) {
            (32, true) => Some(ModelPrecision::F32),
            (16, false) => Some(ModelPrecision::I16),
            (8, false) => Some(ModelPrecision::I8),
            _ => None,
        }
    }

    /// The fixed-point interpretation used for this precision.
    ///
    /// Models get 2 integer bits (range `[-4, 4)`), ample for the
    /// normalized problems in this workspace; `F32` needs no spec.
    #[must_use]
    pub fn spec(self) -> FixedSpec {
        match self {
            ModelPrecision::F32 => FixedSpec::unit_range(32),
            ModelPrecision::I16 => FixedSpec::model_range(16),
            ModelPrecision::I8 => FixedSpec::model_range(8),
        }
    }

    /// Bits of storage per model number.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            ModelPrecision::F32 => 32,
            ModelPrecision::I16 => 16,
            ModelPrecision::I8 => 8,
        }
    }
}

/// A shared, lock-free model vector at a chosen storage precision.
///
/// All access is through `&self`; workers on other threads hold the same
/// reference. Reads and writes are `Ordering::Relaxed` — the Hogwild!
/// consistency model. The dot/AXPY methods run the crate's one set of
/// model operations (`words.rs`) on the packed cells.
///
/// # Example
///
/// ```
/// use buckwild::{ModelPrecision, SharedModel};
///
/// let w = SharedModel::zeros(ModelPrecision::I8, 4);
/// w.write_rounded(2, 0.5, 0.0);
/// assert_eq!(w.read(2), 0.5);
/// assert_eq!(w.snapshot(), vec![0.0, 0.0, 0.5, 0.0]);
/// ```
pub struct SharedModel {
    /// The words, little-endian lanes of relaxed 64-bit cells; the lanes
    /// past `len` are zero.
    cells: Vec<AtomicU64>,
    len: usize,
    spec: FixedSpec,
    precision: ModelPrecision,
}

impl std::fmt::Debug for SharedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedModel")
            .field("precision", &self.precision)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl SharedModel {
    /// Creates a zero model of `n` parameters at the given precision.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn zeros(precision: ModelPrecision, n: usize) -> Self {
        assert!(n > 0, "model size must be positive");
        let lanes = (64 / precision.bits()) as usize;
        SharedModel {
            cells: (0..n.div_ceil(lanes)).map(|_| AtomicU64::new(0)).collect(),
            len: n,
            spec: precision.spec(),
            precision,
        }
    }

    /// Creates a model initialized from `values` (nearest rounding).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn from_f32(precision: ModelPrecision, values: &[f32]) -> Self {
        let model = SharedModel::zeros(precision, values.len());
        model.restore_from(values);
        model
    }

    /// Overwrites every parameter from a checkpoint snapshot (nearest
    /// rounding), the recovery path after an injected worker crash.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`.
    pub fn restore_from(&self, values: &[f32]) {
        assert_eq!(values.len(), self.len(), "checkpoint length mismatch");
        self.apply(Write(0, values, 0.5));
    }

    /// Runs one model operation on the packed relaxed-atomic cells.
    pub(crate) fn apply<O: Op>(&self, op: O) -> O::Out {
        let words = Cells::new(&self.cells, self.len);
        match self.precision {
            ModelPrecision::F32 => op.run::<f32, _>(words, &self.spec),
            ModelPrecision::I16 => op.run::<i16, _>(words, &self.spec),
            ModelPrecision::I8 => op.run::<i8, _>(words, &self.spec),
        }
    }

    /// Number of parameters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the model has no parameters (never constructible).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage precision.
    #[must_use]
    pub fn precision(&self) -> ModelPrecision {
        self.precision
    }

    /// The fixed-point interpretation of integer storage.
    #[must_use]
    pub fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// Reads parameter `i` as `f32` (relaxed).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn read(&self, i: usize) -> f32 {
        self.apply(Read(i))
    }

    /// Writes parameter `i`, quantizing with the uniform sample `u` when
    /// the storage is fixed point (`u = 0.5` gives nearest rounding because
    /// `floor(x·s + 0.5)` rounds to nearest).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn write_rounded(&self, i: usize, value: f32, u: f32) {
        self.apply(Write(i, &[value], u));
    }

    /// Copies the model out in its storage representation: the raw
    /// fixed-point (or float) words plus the interpreting [`FixedSpec`].
    ///
    /// Relaxed reads — under concurrent writers this is a fuzzy snapshot,
    /// exactly as in the paper. Serving and checkpointing prefer this over
    /// [`SharedModel::snapshot`] because it never materializes a
    /// dequantized copy: an 8-bit model stays 8 bits.
    #[must_use]
    pub fn snapshot_quantized(&self) -> QuantizedModel {
        QuantizedModel::new(self.apply(Snapshot), self.spec)
    }

    /// Copies the model out as `f32` — a thin dequantizing wrapper over
    /// [`SharedModel::snapshot_quantized`].
    #[must_use]
    pub fn snapshot(&self) -> Vec<f32> {
        self.snapshot_quantized().to_f32()
    }

    /// Dense dot against a fixed-point example: `Σ x[i]·w[i]`, integer MAC
    /// with relaxed loads.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != len()`.
    #[must_use]
    pub fn dot_fixed<D: FixedInt>(&self, x: &[D], x_spec: &FixedSpec) -> f32 {
        self.apply(DotFixed(x, x_spec))
    }

    /// Dense dot against a float example.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != len()`.
    #[must_use]
    pub fn dot_f32(&self, x: &[f32]) -> f32 {
        self.apply(DotF32(x))
    }

    /// Sparse dot: `Σ_j x_val[j]·w[x_idx[j]]` with fixed-point values.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or any index is out of range.
    #[must_use]
    pub fn dot_sparse_fixed<D: FixedInt>(
        &self,
        values: &[D],
        indices: &[u32],
        x_spec: &FixedSpec,
    ) -> f32 {
        self.apply(DotSparseFixed(values, indices, x_spec))
    }

    /// Sparse dot with float values.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or any index is out of range.
    #[must_use]
    pub fn dot_sparse_f32(&self, values: &[f32], indices: &[u32]) -> f32 {
        self.apply(DotSparseF32(values, indices))
    }

    /// Dense quantized AXPY `w[i] ← sat(w[i] + round(a·x[i]))`, where
    /// rounding uses `offsets` (a value in `[0, 2^15)` per element; half
    /// for nearest, random for unbiased) on fixed storage; float storage
    /// adds `a·x[i]` unrounded.
    ///
    /// Each element update is a relaxed load/store pair on the element's
    /// 64-bit cell — racy, Hogwild!-style.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != len()`.
    pub fn axpy_fixed<D: FixedInt>(
        &self,
        a: f32,
        x: &[D],
        x_spec: &FixedSpec,
        offsets: &mut dyn FnMut(usize) -> i64,
    ) {
        self.apply(AxpyFixed(a, x, x_spec, Offsets::Each(offsets)));
    }

    /// Dense quantized AXPY with a fixed 8-entry offset block — the fast
    /// path for biased and shared-randomness rounding, where the offsets
    /// are constant across the call and no per-element indirect call is
    /// needed. Integer storage runs the SIMD kernel once on the whole
    /// cells: per cell one relaxed load, the kernel's arithmetic and one
    /// relaxed store, so a racing writer loses at most one cell. A last
    /// cell that is partly padding takes the per-element path.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != len()`.
    pub fn axpy_fixed_block<D: FixedInt>(
        &self,
        a: f32,
        x: &[D],
        x_spec: &FixedSpec,
        offsets: &[i64; 8],
    ) {
        self.apply(AxpyFixed(
            a,
            x,
            x_spec,
            Offsets::<fn(usize) -> i64>::Block(*offsets),
        ));
    }

    /// Dense AXPY with float example data; fixed storage quantizes with
    /// `uniforms` samples in `[0, 1)` (pass `|_| 0.5` for nearest).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != len()`.
    pub fn axpy_f32(&self, a: f32, x: &[f32], uniforms: &mut dyn FnMut(usize) -> f32) {
        self.apply(AxpyF32(a, x, uniforms));
    }

    /// Sparse quantized AXPY over the indexed coordinates only.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or any index is out of range.
    pub fn axpy_sparse_fixed<D: FixedInt>(
        &self,
        a: f32,
        values: &[D],
        indices: &[u32],
        x_spec: &FixedSpec,
        offsets: &mut dyn FnMut(usize) -> i64,
    ) {
        self.apply(AxpySparseFixed(a, values, indices, x_spec, offsets));
    }

    /// Sparse AXPY with float values.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or any index is out of range.
    pub fn axpy_sparse_f32(
        &self,
        a: f32,
        values: &[f32],
        indices: &[u32],
        uniforms: &mut dyn FnMut(usize) -> f32,
    ) {
        self.apply(AxpySparseF32(a, values, indices, uniforms));
    }
}

#[cfg(test)]
mod tests {
    use buckwild_prng::{Prng, Xorshift128};

    use super::*;
    use crate::predict::FixedWords;

    #[test]
    fn precision_from_signature() {
        let sig = |s: &str| s.parse::<Signature>().unwrap();
        assert_eq!(
            ModelPrecision::from_signature(&sig("D8M8")),
            Some(ModelPrecision::I8)
        );
        assert_eq!(
            ModelPrecision::from_signature(&sig("D8M16")),
            Some(ModelPrecision::I16)
        );
        assert_eq!(
            ModelPrecision::from_signature(&sig("D8M32f")),
            Some(ModelPrecision::F32)
        );
        assert_eq!(
            ModelPrecision::from_signature(&Signature::full_precision()),
            Some(ModelPrecision::F32)
        );
        assert_eq!(ModelPrecision::from_signature(&sig("D4M4")), None);
    }

    #[test]
    fn zeros_and_snapshot() {
        for p in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let w = SharedModel::zeros(p, 5);
            assert_eq!(w.len(), 5);
            assert!(!w.is_empty());
            assert_eq!(w.snapshot(), vec![0.0; 5]);
        }
    }

    #[test]
    fn write_read_round_trip_on_grid() {
        let w = SharedModel::zeros(ModelPrecision::I8, 3);
        w.write_rounded(0, 0.5, 0.5);
        w.write_rounded(1, -1.25, 0.5);
        assert_eq!(w.read(0), 0.5);
        assert_eq!(w.read(1), -1.25);
        assert_eq!(w.read(2), 0.0);
    }

    #[test]
    fn from_f32_initializes() {
        let w = SharedModel::from_f32(ModelPrecision::I16, &[0.25, -0.5, 1.0]);
        assert_eq!(w.snapshot(), vec![0.25, -0.5, 1.0]);
    }

    #[test]
    fn snapshot_quantized_exposes_raw_words() {
        let w = SharedModel::from_f32(ModelPrecision::I8, &[0.5, -1.25, 0.0]);
        let q = w.snapshot_quantized();
        assert_eq!(q.precision(), ModelPrecision::I8);
        assert_eq!(q.spec(), w.spec());
        // model_range(8) has quantum 1/64: 0.5 -> 32, -1.25 -> -80.
        assert_eq!(q.words(), &FixedWords::I8(vec![32, -80, 0]));
        assert_eq!(q.to_f32(), w.snapshot());
        assert_eq!(q.storage_bytes(), 3);
    }

    #[test]
    fn dot_fixed_matches_reference_for_each_storage() {
        let x: Vec<i8> = vec![64, -128, 32, 0]; // 0.5, -1.0, 0.25, 0 at Q1.7
        let x_spec = FixedSpec::unit_range(8);
        let init = [1.0f32, 0.5, -2.0, 3.0];
        for p in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let w = SharedModel::from_f32(p, &init);
            let expected: f32 = x
                .iter()
                .zip(&init)
                .map(|(&xi, &wi)| xi as f32 / 128.0 * wi)
                .sum();
            let got = w.dot_fixed(&x, &x_spec);
            assert!((got - expected).abs() < 0.02, "{p:?}: {got} vs {expected}");
        }
    }

    #[test]
    fn dot_f32_matches_reference() {
        let x = [0.5f32, -1.0, 0.25, 0.0];
        let init = [1.0f32, 0.5, -2.0, 3.0];
        for p in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let w = SharedModel::from_f32(p, &init);
            let expected: f32 = x.iter().zip(&init).map(|(a, b)| a * b).sum();
            assert!((w.dot_f32(&x) - expected).abs() < 0.02, "{p:?}");
        }
    }

    #[test]
    fn axpy_fixed_nearest_updates() {
        let x: Vec<i8> = vec![127, -127, 0];
        let x_spec = FixedSpec::unit_range(8);
        let w = SharedModel::zeros(ModelPrecision::I8, 3);
        let mut half = |_i: usize| 1i64 << 14;
        w.axpy_fixed(0.1, &x, &x_spec, &mut half);
        let snap = w.snapshot();
        // 0.1 * ~1.0 = 0.1 -> 3.2 quanta -> 3 quanta = 0.09375.
        assert!((snap[0] - 0.09375).abs() < 1e-6, "{}", snap[0]);
        assert!((snap[1] + 0.09375).abs() < 1e-6);
        assert_eq!(snap[2], 0.0);
    }

    #[test]
    fn axpy_f32_paths_update() {
        let x = [1.0f32, -1.0];
        for p in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let w = SharedModel::zeros(p, 2);
            let mut half = |_i: usize| 0.5f32;
            w.axpy_f32(0.25, &x, &mut half);
            let snap = w.snapshot();
            assert!((snap[0] - 0.25).abs() < 0.02, "{p:?} {snap:?}");
            assert!((snap[1] + 0.25).abs() < 0.02, "{p:?}");
        }
    }

    #[test]
    fn sparse_paths_touch_only_indices() {
        let w = SharedModel::from_f32(ModelPrecision::I16, &[1.0, 1.0, 1.0, 1.0]);
        let values: Vec<i8> = vec![127];
        let indices = [2u32];
        let x_spec = FixedSpec::unit_range(8);
        let d = w.dot_sparse_fixed(&values, &indices, &x_spec);
        assert!((d - 127.0 / 128.0).abs() < 0.01);
        let mut half = |_j: usize| 1i64 << 14;
        w.axpy_sparse_fixed(0.5, &values, &indices, &x_spec, &mut half);
        let snap = w.snapshot();
        assert_eq!(snap[0], 1.0);
        assert_eq!(snap[1], 1.0);
        assert!((snap[2] - 1.496).abs() < 0.01, "{}", snap[2]);
        assert_eq!(snap[3], 1.0);
    }

    #[test]
    fn sparse_f32_axpy() {
        let w = SharedModel::zeros(ModelPrecision::F32, 4);
        let mut half = |_j: usize| 0.5f32;
        w.axpy_sparse_f32(2.0, &[0.5, -0.5], &[1, 3], &mut half);
        assert_eq!(w.snapshot(), vec![0.0, 1.0, 0.0, -1.0]);
    }

    #[test]
    fn saturation_at_model_bounds() {
        let w = SharedModel::from_f32(ModelPrecision::I8, &[1.9]);
        let x: Vec<i8> = vec![127];
        let x_spec = FixedSpec::unit_range(8);
        let mut half = |_i: usize| 1i64 << 14;
        w.axpy_fixed(100.0, &x, &x_spec, &mut half);
        let top = w.read(0);
        assert!((top - w.spec().max_value()).abs() < 1e-6, "{top}");
    }

    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn hash_snapshot(hash: u64, w: &SharedModel) -> u64 {
        match w.snapshot_quantized().words() {
            FixedWords::I8(v) => v.iter().fold(hash, |h, x| fnv1a(h, &x.to_le_bytes())),
            FixedWords::I16(v) => v.iter().fold(hash, |h, x| fnv1a(h, &x.to_le_bytes())),
            FixedWords::F32(v) => v.iter().fold(hash, |h, x| fnv1a(h, &x.to_le_bytes())),
        }
    }

    /// One fixed sequence of every `SharedModel` method on one thread,
    /// FNV-1a over the dot results and the quantized words after each
    /// update; `scale` multiplies every AXPY's `a`.
    fn op_sequence_hash(precision: ModelPrecision, init: &[f32], scale: f32, seed: u64) -> u64 {
        let n = init.len();
        let mut rng = Xorshift128::seed_from(seed);
        let x8: Vec<i8> = (0..n).map(|_| rng.next_u32() as i8).collect();
        let x16: Vec<i16> = (0..n).map(|_| rng.next_u32() as i16).collect();
        let xf: Vec<f32> = (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
        let spec8 = FixedSpec::unit_range(8);
        let spec16 = FixedSpec::unit_range(16);
        let nnz = n.min(9) + 3;
        let indices: Vec<u32> = (0..nnz).map(|_| rng.next_u32() % n as u32).collect();
        let v8: Vec<i8> = (0..nnz).map(|_| rng.next_u32() as i8).collect();
        let vf: Vec<f32> = (0..nnz).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
        let block = [0; 8].map(|_: i64| i64::from(rng.next_u32() & 0x7fff));
        let restore: Vec<f32> = (0..n).map(|_| rng.next_f32() * 6.0 - 3.0).collect();

        let w = SharedModel::from_f32(precision, init);
        let mut h = hash_snapshot(0xcbf2_9ce4_8422_2325, &w);
        let dots = |h: u64, w: &SharedModel| {
            [
                w.dot_fixed(&x8, &spec8),
                w.dot_fixed(&x16, &spec16),
                w.dot_f32(&xf),
                w.dot_sparse_fixed(&v8, &indices, &spec8),
                w.dot_sparse_f32(&vf, &indices),
                w.read(n / 2),
            ]
            .iter()
            .fold(h, |h, d| fnv1a(h, &d.to_bits().to_le_bytes()))
        };
        h = dots(h, &w);
        for round in 0..3 {
            let a = scale * [0.37, -0.21, 1.3][round];
            w.axpy_fixed(a, &x8, &spec8, &mut |i| ((i * 7919) % (1 << 15)) as i64);
            h = hash_snapshot(h, &w);
            w.axpy_fixed_block(-a, &x8, &spec8, &[1 << 14; 8]);
            h = hash_snapshot(h, &w);
            w.axpy_fixed_block(a * 0.5, &x16, &spec16, &block);
            h = hash_snapshot(h, &w);
            w.axpy_fixed(-a, &x16, &spec16, &mut |i| ((i * 31) % (1 << 15)) as i64);
            h = hash_snapshot(h, &w);
            w.axpy_f32(a, &xf, &mut |i| ((i * 13) % 97) as f32 / 97.0);
            h = hash_snapshot(h, &w);
            w.axpy_sparse_fixed(-a, &v8, &indices, &spec8, &mut |j| {
                (j * 4099) as i64 & 0x7fff
            });
            h = hash_snapshot(h, &w);
            w.axpy_sparse_f32(a, &vf, &indices, &mut |j| ((j * 17) % 89) as f32 / 89.0);
            h = hash_snapshot(h, &w);
            w.write_rounded(round % n, restore[round % n], 0.3);
            w.write_rounded(n - 1, -restore[0] * scale, 0.9);
            h = hash_snapshot(h, &w);
            h = dots(h, &w);
        }
        w.restore_from(&restore);
        h = hash_snapshot(h, &w);
        dots(h, &w)
    }

    #[test]
    fn op_sequence_is_pinned() {
        // Recorded on the per-element atomic store; a change to how the
        // shared model's words are laid out or reached must not move it.
        const PINS: [(ModelPrecision, u64); 3] = [
            (ModelPrecision::F32, 0x19b9_a0df_741e_7407),
            (ModelPrecision::I16, 0x6c61_5a11_814c_6963),
            (ModelPrecision::I8, 0xec0a_452e_a86c_bf38),
        ];
        let hashes = PINS.map(|(precision, _)| {
            let spec = precision.spec();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (k, n) in [1usize, 7, 63, 64, 65, 130, 2048].into_iter().enumerate() {
                let mut rng = Xorshift128::seed_from(k as u64);
                let random: Vec<f32> = (0..n).map(|_| rng.next_f32() * 7.0 - 3.5).collect();
                let limits: Vec<f32> = (0..n)
                    .map(|i| [spec.max_value(), spec.min_value()][i % 2])
                    .collect();
                for (init, scale, seed) in [(&random, 1.0, n as u64), (&limits, 300.0, !(n as u64))]
                {
                    let run = op_sequence_hash(precision, init, scale, seed);
                    h = fnv1a(h, &run.to_le_bytes());
                }
            }
            (precision, h)
        });
        assert_eq!(hashes, PINS, "{hashes:#x?}");
    }

    #[test]
    fn concurrent_hogwild_updates_mostly_land() {
        // With relaxed racy read-modify-write, most (not necessarily all)
        // increments survive. Sanity-check the plumbing under real threads.
        use std::sync::Arc;
        let w = Arc::new(SharedModel::zeros(ModelPrecision::F32, 1));
        let threads = 4;
        let per_thread = 1000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let w = Arc::clone(&w);
                s.spawn(move || {
                    let x = [1.0f32];
                    let mut half = |_i: usize| 0.5f32;
                    for _ in 0..per_thread {
                        w.axpy_f32(1.0, &x, &mut half);
                    }
                });
            }
        });
        let total = w.read(0);
        assert!(total > 0.5 * (threads * per_thread) as f32, "total {total}");
        assert!(total <= (threads * per_thread) as f32 + 0.5);
    }
}
