//! Pins the exact bits the `generate` samplers produce.
//!
//! Each case samples a seeded problem and compares an FNV-1a hash over the
//! bits of everything it returns — the true model, the values, the labels
//! and, for sparse problems, the CSR indices and row pointers — against a
//! constant recorded from the original row-at-a-time generator. Any rewrite
//! of a sampler (storage layout, parallel fill, a different sorted-index
//! structure) must reproduce these bits exactly: one draw too many or too
//! few per row moves every later row, every label and every training loss.
//!
//! The tier-1 shapes are small enough for a debug build: one-by-one
//! problems, row counts that are no multiple of 2, 3 or 4, sparse densities
//! of 1.0 and 0.6 (so Floyd's sampler takes its collision branch) and a
//! density that rounds to one nonzero per row. The `#[ignore]`d pins run the
//! benchmark's full shapes; run them in release:
//! `cargo test --release -p buckwild-dataset -- --ignored`.

use buckwild_dataset::{generate, DenseDataset, Problem, SparseDataset};

const SEEDS: [u64; 3] = [1, 7, 1701];

/// FNV-1a over a stream of 64-bit words, fed little-endian byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(u64::from(x.to_bits()));
        }
    }
}

fn dense_hash(p: &Problem<DenseDataset<f32>>) -> u64 {
    let mut h = Fnv::new();
    h.f32s(&p.true_model);
    h.word(p.data.features() as u64);
    h.f32s(p.data.values());
    h.f32s(p.data.labels());
    h.0
}

fn sparse_hash(p: &Problem<SparseDataset<f32, u32>>) -> u64 {
    let mut h = Fnv::new();
    h.f32s(&p.true_model);
    h.word(p.data.features() as u64);
    // Row pointers, rebuilt from the per-example views.
    let mut end = 0u64;
    h.word(0);
    for i in 0..p.data.examples() {
        end += p.data.example(i).nnz() as u64;
        h.word(end);
    }
    for i in 0..p.data.examples() {
        for &idx in p.data.example(i).indices {
            h.word(u64::from(idx));
        }
    }
    for i in 0..p.data.examples() {
        h.f32s(p.data.example(i).values);
    }
    h.f32s(p.data.labels());
    h.0
}

fn check(case: &str, got: [u64; 3], want: [u64; 3]) {
    assert_eq!(
        got, want,
        "{case}: got [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
}

fn logistic_dense(n: usize, m: usize) -> [u64; 3] {
    SEEDS.map(|seed| dense_hash(&generate::logistic_dense(n, m, seed)))
}

fn linear_dense(n: usize, m: usize, noise: f32) -> [u64; 3] {
    SEEDS.map(|seed| dense_hash(&generate::linear_dense(n, m, noise, seed)))
}

fn logistic_sparse(n: usize, m: usize, density: f64) -> [u64; 3] {
    SEEDS.map(|seed| sparse_hash(&generate::logistic_sparse(n, m, density, seed)))
}

#[test]
fn logistic_dense_is_pinned() {
    check(
        "1 x 1",
        logistic_dense(1, 1),
        [
            0x0905_e893_8d6b_ccf7,
            0x9225_834c_ea84_6a71,
            0x95b6_b247_8176_2091,
        ],
    );
    check(
        "37 x 29",
        logistic_dense(37, 29),
        [
            0x248d_31ac_1d1e_dafa,
            0x2951_7eed_bd04_3de2,
            0x06d2_275d_9db2_90fa,
        ],
    );
    check(
        "64 x 101",
        logistic_dense(64, 101),
        [
            0xb11c_d87d_3079_aaff,
            0x7f35_c98d_58fa_caa7,
            0x8c16_a697_958e_b672,
        ],
    );
}

#[test]
fn linear_dense_is_pinned() {
    check(
        "1 x 1",
        linear_dense(1, 1, 0.5),
        [
            0xa6df_1fae_6911_4694,
            0x3399_0cd6_3012_c649,
            0x56ca_7931_311a_a51d,
        ],
    );
    check(
        "37 x 29",
        linear_dense(37, 29, 0.1),
        [
            0xdc7a_fc92_76c6_f7ff,
            0x7055_e0d4_11fc_ed8f,
            0x1c7b_fdba_850b_654b,
        ],
    );
    check(
        "64 x 101",
        linear_dense(64, 101, 0.0),
        [
            0x05e7_455a_f0c2_8d97,
            0xd42d_9944_7f4f_f826,
            0xfdd8_6568_99af_c3ad,
        ],
    );
}

#[test]
fn logistic_sparse_is_pinned() {
    check(
        "1 x 1 @ 1.0",
        logistic_sparse(1, 1, 1.0),
        [
            0x4bb0_abeb_f668_c50f,
            0x75f3_22b0_d11b_e9e2,
            0x33ff_ce6a_a0bb_00ad,
        ],
    );
    check(
        "40 x 29 @ 1.0",
        logistic_sparse(40, 29, 1.0),
        [
            0x6bab_249f_5c33_efe5,
            0xa22f_7042_56ce_b388,
            0xac29_f677_35b2_ef16,
        ],
    );
    check(
        "50 x 23 @ 0.6",
        logistic_sparse(50, 23, 0.6),
        [
            0xeb2b_2f19_61ce_d62e,
            0x02fc_3747_537b_a766,
            0xcfb6_19f0_95a5_7290,
        ],
    );
    check(
        "300 x 31 @ 0.003",
        logistic_sparse(300, 31, 0.003),
        [
            0x9dca_1b3e_fce1_5a75,
            0x06b0_27eb_3757_c366,
            0xee9d_1ead_0edb_eb6a,
        ],
    );
    check(
        "1000 x 101 @ 0.03",
        logistic_sparse(1000, 101, 0.03),
        [
            0x9e8b_47e6_32d3_3625,
            0x3417_519d_71aa_c759,
            0x8742_0c26_3937_0b5d,
        ],
    );
}

/// The benchmark's `dense_shared`/`dense_sharded` problem (2048 features,
/// 8192 examples) and `serve_hotswap` problem (1024 x 8192).
#[test]
#[ignore = "full benchmark shapes; run in release"]
fn benchmark_dense_shapes_are_pinned() {
    for (n, want) in [
        (2048, [0x1f69_bc60_bfca_f395u64, 0x928f_6f87_a8fd_c513]),
        (1024, [0xaaa0_f538_5631_1a7c, 0x5cb6_fc4b_9152_b137]),
    ] {
        let got = [1, 1701].map(|seed| dense_hash(&generate::logistic_dense(n, 8192, seed)));
        assert_eq!(
            got, want,
            "{n} x 8192: got [{:#018x}, {:#018x}]",
            got[0], got[1]
        );
    }
}

/// The benchmark's `sparse_shared` problem: 2^18 features, 2^16 examples,
/// 64 nonzeros per example, at the density the benchmark passes.
#[test]
#[ignore = "full benchmark shape; run in release"]
fn benchmark_sparse_shape_is_pinned() {
    let (n, m, nnz) = (1usize << 18, 1usize << 16, 64usize);
    let got = [1, 1701].map(|seed| {
        sparse_hash(&generate::logistic_sparse(
            n,
            m,
            nnz as f64 / n as f64,
            seed,
        ))
    });
    let want = [0xbd03_59b5_99cc_c362u64, 0xab24_c480_095b_0158];
    assert_eq!(
        got, want,
        "2^18 x 2^16: got [{:#018x}, {:#018x}]",
        got[0], got[1]
    );
}
