//! Synthetic problem generators matching the paper's experimental setup.
//!
//! The paper generates datasets "by sampling from the generative model for
//! logistic regression, using a true model vector `w*` and example vectors
//! `x_i` all sampled uniformly from `[-1, 1]^n`" (§4 footnote 9), with a
//! 3%-density sparse variant. These generators reproduce that setup and
//! add linear-regression and separable-SVM analogues with the same
//! dot-and-AXPY compute structure.
//!
//! A sampler draws `w*`, then each row, from one [`Xorshift128`] stream; a
//! row takes `n + 2` draws in [`logistic_dense`], `n + 24` in
//! [`linear_dense`] and `3k + 2` in [`logistic_sparse`] (`k` nonzeros per
//! row). So rows are written in place, in blocks filled on all cores, each
//! from the stream stepped past the rows before it: the output is
//! bit-identical to one sequential pass.

use buckwild_prng::{Prng, Xorshift128};

use crate::{DenseDataset, Label, SparseDataset};

/// The paper's sparse density (3%).
pub const PAPER_SPARSE_DENSITY: f64 = 0.03;

/// A generated problem: the dataset plus the ground-truth model that
/// produced it (useful for measuring recovery error).
#[derive(Debug, Clone, PartialEq)]
pub struct Problem<D> {
    /// The generated dataset.
    pub data: D,
    /// The true model `w*` used by the generative process.
    pub true_model: Vec<f32>,
}

/// `n` features, `m` rows, the seed, and the number of row blocks (by
/// default one per core, but none under 2^16 draws).
type Shape = (usize, usize, u64, Option<usize>);

fn fill_unit(rng: &mut Xorshift128, xs: &mut [f32]) {
    xs.iter_mut().for_each(|x| *x = rng.range_f32(-1.0, 1.0));
}

/// Draws a `±1` label that is `+1` with probability `sigmoid(margin)`.
fn logistic_label(rng: &mut Xorshift128, margin: f64) -> Label {
    if rng.chance(1.0 / (1.0 + (-margin).exp())) {
        1.0
    } else {
        -1.0
    }
}

/// Rows per block of a shape whose rows take `draws_per_row` draws each.
fn block_rows((_, m, _, blocks): Shape, draws_per_row: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let blocks = blocks.unwrap_or(cores.min((m * draws_per_row) >> 16));
    m.div_ceil(blocks.max(1))
}

/// Runs `fill(rng, block)` on every block, the first on the calling thread
/// and the others on scoped helpers, with block `b`'s `rng` stepped
/// `b * draws_per_block` draws past `stream`: where one sequential pass
/// would stand at the block's first row. A helper's panic panics the call.
fn fill_in_blocks<B: Send>(
    stream: &Xorshift128,
    draws_per_block: usize,
    blocks: impl Iterator<Item = B>,
    fill: impl Fn(&mut Xorshift128, B) + Sync,
) {
    let run = |b: usize, block: B| {
        let mut rng = stream.clone();
        for _ in 0..b * draws_per_block {
            rng.next_u32();
        }
        fill(&mut rng, block);
    };
    let mut blocks = blocks.enumerate();
    let (_, own) = blocks.next().expect("problems have rows");
    std::thread::scope(|s| {
        let run = &run;
        let helpers: Vec<_> = blocks.map(|(b, x)| s.spawn(move || run(b, x))).collect();
        run(0, own);
        for helper in helpers {
            helper.join().expect("generator worker panicked");
        }
    });
}

/// Samples `w*` and the rows of a dense problem; `label(rng, x · w*)` ends
/// each row, which takes `draws_per_row` draws in all.
fn dense(
    shape: Shape,
    draws_per_row: usize,
    label: impl Fn(&mut Xorshift128, f64) -> Label + Sync,
) -> Problem<DenseDataset<f32>> {
    let (n, m, seed, _) = shape;
    assert!(n > 0 && m > 0, "dimensions must be positive");
    let mut rng = Xorshift128::seed_from(seed);
    let mut true_model = vec![0.0; n];
    fill_unit(&mut rng, &mut true_model);
    let (mut values, mut labels) = (vec![0.0; n * m], vec![0.0; m]);
    let rows = block_rows(shape, draws_per_row);
    let blocks = values.chunks_mut(rows * n).zip(labels.chunks_mut(rows));
    fill_in_blocks(&rng, rows * draws_per_row, blocks, |rng, (xs, ys)| {
        for (x, y) in xs.chunks_exact_mut(n).zip(ys) {
            fill_unit(rng, x);
            let dot = x
                .iter()
                .zip(&true_model)
                .map(|(&a, &b)| a as f64 * b as f64);
            *y = label(rng, dot.sum());
        }
    });
    let data = DenseDataset::from_flat(values, n, labels);
    Problem { data, true_model }
}

/// Samples a dense logistic-regression problem of `n` features and `m`
/// examples (Ng–Jordan generative model).
///
/// Labels are `+1` with probability `sigmoid(x · w*)`.
///
/// # Panics
///
/// Panics if `n == 0` or `m == 0`.
#[must_use]
pub fn logistic_dense(n: usize, m: usize, seed: u64) -> Problem<DenseDataset<f32>> {
    logistic_dense_in((n, m, seed, None))
}

fn logistic_dense_in(shape: Shape) -> Problem<DenseDataset<f32>> {
    let n = shape.0;
    // `n` coordinates, then two draws for the label's `chance`. The margin
    // is normalized so problems of different n are comparably hard: dot
    // products of uniform vectors scale like sqrt(n).
    dense(shape, n + 2, |rng, dot| {
        logistic_label(rng, dot / (n as f64).sqrt() * 10.0)
    })
}

/// Samples a dense linear-regression problem: `y = x · w* / sqrt(n) + ε`
/// with Gaussian-ish noise of standard deviation `noise`.
///
/// # Panics
///
/// Panics if `n == 0`, `m == 0`, or `noise < 0`.
#[must_use]
pub fn linear_dense(n: usize, m: usize, noise: f32, seed: u64) -> Problem<DenseDataset<f32>> {
    linear_dense_in((n, m, seed, None), noise)
}

fn linear_dense_in(shape: Shape, noise: f32) -> Problem<DenseDataset<f32>> {
    assert!(noise >= 0.0, "noise must be nonnegative");
    let n = shape.0;
    // `n` coordinates, then twelve `f64` noise terms of two draws each.
    dense(shape, n + 24, |rng, dot| {
        // Sum of 12 uniforms minus 6: approximately standard normal.
        let eps: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
        (dot / (n as f64).sqrt() + eps * noise as f64) as f32
    })
}

/// Samples a sparse logistic-regression problem at the given density.
///
/// Each example has `round(density * n)` nonzeros at uniformly random
/// (sorted, distinct) coordinates, with values uniform on `[-1, 1]`.
///
/// # Panics
///
/// Panics if `n == 0`, `m == 0`, or `density` is outside `(0, 1]`, or if
/// the density rounds to zero nonzeros per example.
#[must_use]
pub fn logistic_sparse(
    n: usize,
    m: usize,
    density: f64,
    seed: u64,
) -> Problem<SparseDataset<f32, u32>> {
    logistic_sparse_in((n, m, seed, None), density)
}

fn logistic_sparse_in(shape: Shape, density: f64) -> Problem<SparseDataset<f32, u32>> {
    let (n, m, seed, _) = shape;
    assert!(n > 0 && m > 0, "dimensions must be positive");
    assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
    let k = ((density * n as f64).round() as usize).max(1);
    assert!(k <= n, "density too high");
    let mut rng = Xorshift128::seed_from(seed);
    let mut true_model = vec![0.0; n];
    fill_unit(&mut rng, &mut true_model);
    // Two draws per index, one per value, two for the label's `chance`.
    let draws_per_row = 3 * k + 2;
    // Every row has `k` nonzeros, so row `i` owns `i * k..(i + 1) * k`.
    let (mut indices, mut values, mut labels) = (vec![0; m * k], vec![0.0; m * k], vec![0.0; m]);
    let rows = block_rows(shape, draws_per_row);
    let (is, xs) = (indices.chunks_mut(rows * k), values.chunks_mut(rows * k));
    let blocks = is.zip(xs).zip(labels.chunks_mut(rows));
    fill_in_blocks(&rng, rows * draws_per_row, blocks, |rng, ((is, xs), ys)| {
        let rows = is.chunks_exact_mut(k).zip(xs.chunks_exact_mut(k));
        for ((idx, x), y) in rows.zip(ys) {
            sample_sorted_distinct(rng, n, idx);
            fill_unit(rng, x);
            let w = idx.iter().map(|&i| true_model[i as usize]);
            let dot: f64 = x.iter().zip(w).map(|(&a, b)| a as f64 * b as f64).sum();
            *y = logistic_label(rng, dot / (k as f64).sqrt() * 10.0);
        }
    });
    let indptr = (0..=m).map(|i| i * k).collect();
    let data = SparseDataset::from_csr(n, indptr, indices, values, labels);
    Problem { data, true_model }
}

/// Fills `out` with sorted distinct indices from `0..n` by Floyd's
/// algorithm. A fresh pick `t` is inserted in order; on a collision the
/// pick is `j`, above every earlier pick, so it goes at the end.
fn sample_sorted_distinct(rng: &mut Xorshift128, n: usize, out: &mut [u32]) {
    for (len, j) in (n - out.len()..n).enumerate() {
        let t = rng.next_below_usize(j + 1) as u32;
        match out[..len].binary_search(&t) {
            Err(at) => {
                out.copy_within(at..len, at + 1);
                out[at] = t;
            }
            Ok(_) => out[len] = j as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logistic_dense_shapes_and_ranges() {
        let p = logistic_dense(32, 50, 1);
        assert_eq!(p.data.features(), 32);
        assert_eq!(p.data.examples(), 50);
        assert_eq!(p.true_model.len(), 32);
        assert!(p.data.values().iter().all(|v| (-1.0..=1.0).contains(v)));
        assert!(p.data.labels().iter().all(|&l| l == 1.0 || l == -1.0));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = logistic_dense(16, 20, 7);
        let b = logistic_dense(16, 20, 7);
        assert_eq!(a, b);
        let c = logistic_dense(16, 20, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn labels_correlate_with_true_model() {
        // The generative margin should make sign(x·w*) predictive.
        let p = logistic_dense(64, 400, 3);
        let mut agree = 0usize;
        for i in 0..p.data.examples() {
            let dot: f32 = p
                .data
                .example(i)
                .iter()
                .zip(&p.true_model)
                .map(|(&a, &b)| a * b)
                .sum();
            if (dot >= 0.0) == (p.data.label(i) > 0.0) {
                agree += 1;
            }
        }
        let frac = agree as f64 / p.data.examples() as f64;
        assert!(frac > 0.75, "agreement {frac}");
    }

    #[test]
    fn linear_labels_track_dot() {
        let p = linear_dense(32, 200, 0.0, 5);
        for i in 0..10 {
            let dot: f64 = p
                .data
                .example(i)
                .iter()
                .zip(&p.true_model)
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum::<f64>()
                / 32f64.sqrt();
            assert!((p.data.label(i) as f64 - dot).abs() < 1e-5);
        }
    }

    #[test]
    fn sparse_density_is_respected() {
        let p = logistic_sparse(200, 40, PAPER_SPARSE_DENSITY, 11);
        assert_eq!(p.data.features(), 200);
        assert_eq!(p.data.examples(), 40);
        let expect = (0.03f64 * 200.0).round() as usize; // 6 nnz/example
        for i in 0..p.data.examples() {
            assert_eq!(p.data.example(i).nnz(), expect);
        }
        assert!((p.data.density() - 0.03).abs() < 0.005);
    }

    #[test]
    fn sparse_indices_sorted_distinct_in_range() {
        let p = logistic_sparse(100, 30, 0.1, 13);
        for i in 0..p.data.examples() {
            let ex = p.data.example(i);
            for w in ex.indices.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(ex.indices.iter().all(|&idx| (idx as usize) < 100));
        }
    }

    #[test]
    fn sample_sorted_distinct_properties() {
        // The set-based Floyd sampler the in-place one replaced.
        fn reference(rng: &mut Xorshift128, n: usize, k: usize) -> Vec<u32> {
            let mut chosen = std::collections::BTreeSet::new();
            for j in (n - k)..n {
                let t = rng.next_below_usize(j + 1) as u32;
                if !chosen.insert(t) {
                    chosen.insert(j as u32);
                }
            }
            chosen.into_iter().collect()
        }
        let (mut rng, mut expect) = (Xorshift128::seed_from(3), Xorshift128::seed_from(3));
        for k in [1, 10, 30, 49, 50] {
            for _ in 0..50 {
                let mut ks = vec![0; k];
                sample_sorted_distinct(&mut rng, 50, &mut ks);
                assert_eq!(ks, reference(&mut expect, 50, k));
                assert!(ks.windows(2).all(|w| w[0] < w[1]));
                assert!(ks.iter().all(|&i| i < 50));
            }
        }
    }

    /// Every bit of a dense problem, for exact comparison.
    fn dense_bits(p: &Problem<DenseDataset<f32>>) -> Vec<u32> {
        let all = [&p.true_model[..], p.data.values(), p.data.labels()];
        all.concat().iter().map(|v| v.to_bits()).collect()
    }

    /// Every bit of a sparse problem, row pointers included.
    fn sparse_bits(p: &Problem<SparseDataset<f32, u32>>) -> Vec<u32> {
        let mut bits: Vec<u32> = p.true_model.iter().map(|v| v.to_bits()).collect();
        for i in 0..p.data.examples() {
            let ex = p.data.example(i);
            bits.push(ex.nnz() as u32);
            bits.extend(ex.indices);
            bits.extend(ex.values.iter().map(|v| v.to_bits()));
            bits.push(p.data.label(i).to_bits());
        }
        bits
    }

    #[test]
    fn output_is_independent_of_block_count() {
        // A wrong per-row draw count shifts every block after the first.
        for (n, m) in [(1, 1), (37, 29), (8, 100)] {
            let want = dense_bits(&logistic_dense_in((n, m, 5, Some(1))));
            let linear = dense_bits(&linear_dense_in((n, m, 5, Some(1)), 0.3));
            for blocks in [2, 3, 7, m + 5] {
                let got = logistic_dense_in((n, m, 5, Some(blocks)));
                assert_eq!(
                    dense_bits(&got),
                    want,
                    "logistic {n} x {m}, {blocks} blocks"
                );
                let got = linear_dense_in((n, m, 5, Some(blocks)), 0.3);
                assert_eq!(
                    dense_bits(&got),
                    linear,
                    "linear {n} x {m}, {blocks} blocks"
                );
            }
        }
        for (n, m, density) in [(1, 1, 1.0), (50, 23, 0.6), (40, 29, 1.0), (300, 31, 0.003)] {
            let want = sparse_bits(&logistic_sparse_in((n, m, 5, Some(1)), density));
            for blocks in [2, 3, 7, m + 5] {
                let got = logistic_sparse_in((n, m, 5, Some(blocks)), density);
                assert_eq!(sparse_bits(&got), want, "sparse {n} x {m}, {blocks} blocks");
            }
        }
    }

    #[test]
    #[should_panic(expected = "density must be in")]
    fn zero_density_rejected() {
        let _ = logistic_sparse(100, 10, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn empty_problem_rejected() {
        let _ = logistic_dense(0, 10, 1);
    }
}
