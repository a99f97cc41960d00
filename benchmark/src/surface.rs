//! The single file through which every call into the program goes.
//!
//! Everything the benchmark uses of `buckwild*` is named here and nowhere
//! else, so this file *is* the frozen public surface listed in the README:
//! a refactor that has to edit it needs a new `benchmark` issue. Only
//! plain `train` is used — no `train_*` variant, no `start_traced`, no
//! tracer, recorder or injector type.

use std::hint::black_box;

pub use buckwild::ring::DeltaRing;
pub use buckwild::{
    Backend, EpochSnapshot, Loss, ModelPrecision, Predictor, QuantizedModel, SgdConfig,
    SharedModel, TrainControl, TrainError, TrainReport,
};
pub use buckwild_kernels::delta::{apply_delta_i8, quantize_delta_i8};
pub use buckwild_serve::{wire, PredictServer, ServeConfig, SnapshotHub};

use buckwild::metrics::mean_loss_sparse;
use buckwild::{kernel_isa, mean_loss};
use buckwild_dataset::{generate, DenseDataset, SparseDataset};
use buckwild_fixed::{FixedSpec, Rounding};
use buckwild_kernels::{dispatch, optimized, sparse, AxpyRand, KernelFlavor};
use buckwild_prng::XorshiftLanes;

use crate::workload::Problem;

/// The loss every workload trains.
pub const LOSS: Loss = Loss::Logistic;

/// `report.metrics()` counter names of the sharded backend.
pub mod counter {
    pub use buckwild::metric::{DELTA_BYTES, DELTA_PACKETS, RING_FULL_SKIPS};
    pub use buckwild_serve::metric::REQUESTS;
}

/// The ISA tier the kernels dispatch to on this host.
pub fn isa_tier() -> String {
    kernel_isa::active().to_string()
}

/// A generated `f32` dataset, dense or sparse.
#[derive(Debug)]
pub enum Data {
    /// Row-major dense examples.
    Dense(DenseDataset<f32>),
    /// CSR examples with `u32` indices.
    Sparse(SparseDataset<f32, u32>),
}

/// A dataset quantized to the `D8` precision, as `train()` does first.
#[derive(Debug)]
pub enum Quantized {
    /// Dense `i8`.
    Dense(DenseDataset<i8>),
    /// Sparse `i8` values, `u32` indices.
    Sparse(SparseDataset<i8, u32>),
}

impl Data {
    /// Samples the problem from `seed`.
    pub fn generate(problem: Problem, seed: u64) -> Data {
        match problem {
            Problem::Dense { n, m } => Data::Dense(generate::logistic_dense(n, m, seed).data),
            Problem::Sparse { n, m, nnz } => {
                Data::Sparse(generate::logistic_sparse(n, m, nnz as f64 / n as f64, seed).data)
            }
        }
    }

    /// Dataset numbers one epoch processes.
    pub fn numbers(&self) -> u64 {
        match self {
            Data::Dense(d) => d.numbers() as u64,
            Data::Sparse(d) => d.nnz() as u64,
        }
    }

    /// Model size.
    pub fn features(&self) -> usize {
        match self {
            Data::Dense(d) => d.features(),
            Data::Sparse(d) => d.features(),
        }
    }

    /// Example count.
    pub fn examples(&self) -> usize {
        match self {
            Data::Dense(d) => d.examples(),
            Data::Sparse(d) => d.examples(),
        }
    }

    /// `SgdConfig::train` on this dataset.
    pub fn train(&self, config: &SgdConfig) -> Result<TrainReport, TrainError> {
        match self {
            Data::Dense(d) => config.train(d),
            Data::Sparse(d) => config.train(d),
        }
    }

    /// `mean_loss` / `mean_loss_sparse`: what `train()` evaluates after
    /// each epoch.
    pub fn mean_loss(&self, model: &[f32]) -> f64 {
        match self {
            Data::Dense(d) => mean_loss(LOSS, model, d),
            Data::Sparse(d) => mean_loss_sparse(LOSS, model, d),
        }
    }

    /// The quantization `train()` performs on entry for a `D8` signature.
    pub fn quantize(&self, seed: u64) -> Quantized {
        let spec = FixedSpec::unit_range(8);
        match self {
            Data::Dense(d) => Quantized::Dense(d.quantize_i8(spec)),
            Data::Sparse(d) => Quantized::Sparse(d.requantize(spec, Rounding::Biased, seed)),
        }
    }

    /// Example `index` as the dense `f32` row a client would send.
    pub fn dense_row(&self, index: usize) -> Vec<f32> {
        match self {
            Data::Dense(d) => d.example(index).to_vec(),
            Data::Sparse(d) => d.example_dense_f32(index),
        }
    }
}

/// The `D8M8` configuration of one training run.
pub fn sgd_config(
    backend: Backend,
    threads: usize,
    epochs: usize,
    seed: u64,
    step_size: f32,
    step_decay: f32,
) -> SgdConfig {
    SgdConfig::new(LOSS)
        .signature("D8M8".parse().expect("D8M8 is a valid signature"))
        .backend(backend)
        .threads(threads)
        .epochs(epochs)
        .seed(seed)
        .step_size(step_size)
        .step_decay(step_decay)
}

/// The engine's default rounding randomness: one fresh 256-bit XORSHIFT
/// block per SGD iteration, shared by every element of that iteration's
/// AXPY. The probes draw theirs the same way, because the cost of a
/// fixed-point AXPY depends on where the rounding pushes the model.
#[derive(Debug)]
pub struct Rounder(XorshiftLanes<8>);

impl Rounder {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Rounder(XorshiftLanes::seed_from(seed))
    }

    /// The next iteration's block, and the same as 15-bit offsets.
    fn next(&mut self) -> ([u32; 8], [i64; 8]) {
        let block = self.0.step();
        (block, block.map(|word| i64::from(word & 0x7fff)))
    }
}

/// The fixed-point grid of an `M8` model.
fn model_spec() -> FixedSpec {
    ModelPrecision::I8.spec()
}

impl Quantized {
    /// `kernels::dispatch` dot of every example against plain model
    /// words; returns the sum so the work cannot be optimized away.
    pub fn kernels_dot_pass(&self, w: &[i8]) -> f32 {
        let flavor = KernelFlavor::Optimized;
        let w_spec = model_spec();
        match self {
            Quantized::Dense(d) => {
                let x_spec = d.spec();
                (0..d.examples())
                    .map(|i| dispatch::dot_fixed_fixed(flavor, d.example(i), w, &x_spec, &w_spec))
                    .sum()
            }
            Quantized::Sparse(d) => {
                let x_spec = d.spec();
                (0..d.examples())
                    .map(|i| {
                        let ex = d.example(i);
                        dispatch::dot_sparse_fixed(
                            flavor, ex.values, ex.indices, w, &x_spec, &w_spec,
                        )
                    })
                    .sum()
            }
        }
    }

    /// `kernels::{optimized,sparse}::axpy_fixed_fixed` of every example
    /// into plain model words, scaled by `±a` alternately so the model
    /// stays off the saturation rails.
    pub fn kernels_axpy_pass(&self, w: &mut [i8], a: f32, rounder: &mut Rounder) {
        let w_spec = model_spec();
        match self {
            Quantized::Dense(d) => {
                let x_spec = d.spec();
                for i in 0..d.examples() {
                    optimized::axpy_fixed_fixed(
                        w,
                        alternate(a, i),
                        d.example(i),
                        &x_spec,
                        &w_spec,
                        AxpyRand::Shared(&rounder.next().0),
                    );
                }
            }
            Quantized::Sparse(d) => {
                let x_spec = d.spec();
                for i in 0..d.examples() {
                    let ex = d.example(i);
                    sparse::axpy_fixed_fixed(
                        w,
                        alternate(a, i),
                        ex.values,
                        ex.indices,
                        &x_spec,
                        &w_spec,
                        AxpyRand::Shared(&rounder.next().0),
                    );
                }
            }
        }
        black_box(w);
    }

    /// One SGD pass on plain model words: dot, loss scale, AXPY per
    /// example — the kernel-only ceiling of an epoch.
    pub fn kernels_iter_pass(&self, w: &mut [i8], step: f32, rounder: &mut Rounder) {
        let flavor = KernelFlavor::Optimized;
        let w_spec = model_spec();
        match self {
            Quantized::Dense(d) => {
                let x_spec = d.spec();
                for i in 0..d.examples() {
                    let x = d.example(i);
                    let dot = dispatch::dot_fixed_fixed(flavor, x, w, &x_spec, &w_spec);
                    let a = LOSS.axpy_scale(dot, d.label(i), step);
                    optimized::axpy_fixed_fixed(
                        w,
                        a,
                        x,
                        &x_spec,
                        &w_spec,
                        AxpyRand::Shared(&rounder.next().0),
                    );
                }
            }
            Quantized::Sparse(d) => {
                let x_spec = d.spec();
                for i in 0..d.examples() {
                    let ex = d.example(i);
                    let dot = dispatch::dot_sparse_fixed(
                        flavor, ex.values, ex.indices, w, &x_spec, &w_spec,
                    );
                    let a = LOSS.axpy_scale(dot, d.label(i), step);
                    sparse::axpy_fixed_fixed(
                        w,
                        a,
                        ex.values,
                        ex.indices,
                        &x_spec,
                        &w_spec,
                        AxpyRand::Shared(&rounder.next().0),
                    );
                }
            }
        }
        black_box(w);
    }

    /// `SharedModel::dot_fixed` / `dot_sparse_fixed` of every example.
    pub fn model_dot_pass(&self, model: &SharedModel) -> f32 {
        match self {
            Quantized::Dense(d) => {
                let x_spec = d.spec();
                (0..d.examples())
                    .map(|i| model.dot_fixed(d.example(i), &x_spec))
                    .sum()
            }
            Quantized::Sparse(d) => {
                let x_spec = d.spec();
                (0..d.examples())
                    .map(|i| {
                        let ex = d.example(i);
                        model.dot_sparse_fixed(ex.values, ex.indices, &x_spec)
                    })
                    .sum()
            }
        }
    }

    /// `SharedModel::axpy_fixed_block` / `axpy_sparse_fixed` of every
    /// example, scaled by `±a` alternately.
    pub fn model_axpy_pass(&self, model: &SharedModel, a: f32, rounder: &mut Rounder) {
        match self {
            Quantized::Dense(d) => {
                let x_spec = d.spec();
                for i in 0..d.examples() {
                    model.axpy_fixed_block(
                        alternate(a, i),
                        d.example(i),
                        &x_spec,
                        &rounder.next().1,
                    );
                }
            }
            Quantized::Sparse(d) => {
                let x_spec = d.spec();
                for i in 0..d.examples() {
                    let ex = d.example(i);
                    let offsets = rounder.next().1;
                    let mut offset = |j: usize| offsets[j % 8];
                    model.axpy_sparse_fixed(
                        alternate(a, i),
                        ex.values,
                        ex.indices,
                        &x_spec,
                        &mut offset,
                    );
                }
            }
        }
    }

    /// Worker `worker` of `workers`' share of one SGD pass on a
    /// `SharedModel`: the engine's inner loop without its counters,
    /// generator and injector hooks.
    pub fn model_iter_pass(
        &self,
        model: &SharedModel,
        step: f32,
        worker: usize,
        workers: usize,
        rounder: &mut Rounder,
    ) {
        match self {
            Quantized::Dense(d) => {
                let x_spec = d.spec();
                for i in (worker..d.examples()).step_by(workers) {
                    let x = d.example(i);
                    let a = LOSS.axpy_scale(model.dot_fixed(x, &x_spec), d.label(i), step);
                    model.axpy_fixed_block(a, x, &x_spec, &rounder.next().1);
                }
            }
            Quantized::Sparse(d) => {
                let x_spec = d.spec();
                for i in (worker..d.examples()).step_by(workers) {
                    let ex = d.example(i);
                    let dot = model.dot_sparse_fixed(ex.values, ex.indices, &x_spec);
                    let a = LOSS.axpy_scale(dot, d.label(i), step);
                    let offsets = rounder.next().1;
                    let mut offset = |j: usize| offsets[j % 8];
                    model.axpy_sparse_fixed(a, ex.values, ex.indices, &x_spec, &mut offset);
                }
            }
        }
    }
}

fn alternate(a: f32, i: usize) -> f32 {
    if i.is_multiple_of(2) {
        a
    } else {
        -a
    }
}
