//! Pins the exact bytes dataset quantization produces.
//!
//! Each case quantizes a seeded `generate` problem and compares an FNV-1a
//! hash of the quantized value bytes against a constant recorded from the
//! reference implementation (a per-element `FixedSpec::quantize` call). Any
//! rewrite of the quantizer — dense or sparse, biased or unbiased — must
//! reproduce these bytes exactly. Feature counts are deliberately not
//! multiples of 64 so vectorized loops also exercise their remainders.

use buckwild_dataset::{generate, DenseDataset, Element, SparseDataset};
use buckwild_fixed::{FixedSpec, Rounding};

const DENSE_FEATURES: usize = 100;
const DENSE_EXAMPLES: usize = 300;
const SPARSE_FEATURES: usize = 1000;
const SPARSE_EXAMPLES: usize = 300;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

trait LeBytes: Copy {
    fn le_bytes(self) -> Vec<u8>;
}

macro_rules! le_bytes {
    ($($ty:ty),*) => {$(
        impl LeBytes for $ty {
            fn le_bytes(self) -> Vec<u8> {
                self.to_le_bytes().to_vec()
            }
        }
    )*};
}

le_bytes!(i8, i16, i32);

fn hash_values<T: LeBytes>(values: &[T]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.le_bytes()))
}

fn dense() -> DenseDataset<f32> {
    generate::logistic_dense(DENSE_FEATURES, DENSE_EXAMPLES, 11).data
}

/// The dense problem with every value multiplied by `factor`, so coarse
/// and saturating formats see more than one quantum of signal.
fn dense_scaled(factor: f32) -> DenseDataset<f32> {
    let d = dense();
    let values = d.values().iter().map(|&v| v * factor).collect();
    DenseDataset::from_flat(values, d.features(), d.labels().to_vec())
}

fn sparse() -> SparseDataset<f32, u32> {
    generate::logistic_sparse(SPARSE_FEATURES, SPARSE_EXAMPLES, 0.03, 12).data
}

fn dense_hash<U: Element + LeBytes>(
    data: &DenseDataset<f32>,
    spec: FixedSpec,
    rounding: Rounding,
    seed: u64,
) -> u64 {
    let q: DenseDataset<U> = data.requantize(spec, rounding, seed);
    assert_eq!(q.numbers(), data.numbers());
    assert_eq!(q.spec(), spec);
    hash_values(q.values())
}

fn sparse_hash<U: Element + LeBytes>(data: &SparseDataset<f32, u32>, spec: FixedSpec) -> u64 {
    let q: SparseDataset<U, u32> = data.requantize(spec, Rounding::Biased, 0);
    assert_eq!(q.nnz(), data.nnz());
    let values: Vec<U> = (0..q.examples())
        .flat_map(|i| q.example(i).values.to_vec())
        .collect();
    hash_values(&values)
}

#[test]
fn dense_quantize_i8() {
    let q = dense().quantize_i8(FixedSpec::unit_range(8));
    assert_eq!(hash_values(q.values()), 0x5a1d_13ea_bd2a_aac6);
}

#[test]
fn dense_quantize_i16() {
    let q = dense().quantize_i16(FixedSpec::unit_range(16));
    assert_eq!(hash_values(q.values()), 0x5c9c_2855_7048_4c30);
}

#[test]
fn sparse_requantize_i8_u32() {
    assert_eq!(
        sparse_hash::<i8>(&sparse(), FixedSpec::unit_range(8)),
        0x017e_a52a_1335_ec37
    );
}

#[test]
fn sparse_requantize_i16_u32() {
    assert_eq!(
        sparse_hash::<i16>(&sparse(), FixedSpec::unit_range(16)),
        0x94a1_d478_136c_487a
    );
}

#[test]
fn dense_unbiased_i8_seed_7() {
    let h = dense_hash::<i8>(&dense(), FixedSpec::unit_range(8), Rounding::Unbiased, 7);
    assert_eq!(h, 0x7b5e_8b0d_6b34_df1b);
}

#[test]
fn dense_model_range_i8() {
    let h = dense_hash::<i8>(
        &dense_scaled(2.5),
        FixedSpec::model_range(8),
        Rounding::Biased,
        0,
    );
    assert_eq!(h, 0x31aa_258b_89e9_3f5b);
}

#[test]
fn dense_negative_frac_i8() {
    let spec = FixedSpec::new(8, -2).unwrap();
    let h = dense_hash::<i8>(&dense_scaled(600.0), spec, Rounding::Biased, 0);
    assert_eq!(h, 0x407c_e2c7_d3d3_778d);
}

#[test]
fn dense_unit_range_32_into_i32() {
    let h = dense_hash::<i32>(&dense(), FixedSpec::unit_range(32), Rounding::Biased, 0);
    assert_eq!(h, 0x795c_9c45_b77c_0d63);
}
