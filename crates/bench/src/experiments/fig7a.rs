//! Figure 7a: convolution-layer throughput vs precision.
//!
//! Conv layers bottleneck CNN training, so one layer's throughput proxies
//! the whole system. The paper uses AlexNet's conv1 on 227x227x3 ImageNet
//! crops; we time the same layer shape (scaled down by default — set
//! `BUCKWILD_FULL=1` for the full 227x227x3 / 96-filter layer). The conv
//! is im2col + GEMM; weights and activations are quantized once up front
//! (dataset numbers are quantized once, §3), so what is timed is the GEMM
//! at each precision.

use std::hint::black_box;
use std::time::Instant;

use buckwild_fixed::FixedSpec;
use buckwild_nn::gemm;
use buckwild_telemetry::{ExperimentResult, Series};

use crate::experiments::full_scale;

/// Times conv-layer GEMMs at each precision (GMAC/s + speedup).
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig7a", "Convolution-layer throughput vs precision");
    // AlexNet conv1: 96 filters, 11x11x3 kernels, 55x55 output positions
    // per image; a mini-batch of images is processed as one GEMM, which is
    // what makes the conv layer DRAM-bound at full precision (the im2col
    // matrix far exceeds the cache) — the regime where low precision buys
    // its bandwidth savings.
    let (filters, k_dim, positions) = if full_scale() {
        (96usize, 3 * 11 * 11, 55 * 55 * 4)
    } else {
        (32, 3 * 11 * 11, 28 * 28 * 8)
    };
    r.meta(
        "gemm shape",
        format!("[{filters} x {k_dim}] . [{k_dim} x {positions}] (batched im2col conv layer)"),
    );
    let spec8 = FixedSpec::unit_range(8);
    let spec16 = FixedSpec::unit_range(16);
    let a_f: Vec<f32> = (0..filters * k_dim)
        .map(|i| ((i * 37) % 255) as f32 / 255.0 - 0.5)
        .collect();
    let b_f: Vec<f32> = (0..k_dim * positions)
        .map(|i| ((i * 91) % 255) as f32 / 255.0)
        .collect();
    // Quantize once, outside the timed region, as a real D8/D16 system
    // stores its tensors.
    let a8: Vec<i8> = a_f
        .iter()
        .map(|&v| spec8.quantize_biased(v) as i8)
        .collect();
    let b8: Vec<i8> = b_f
        .iter()
        .map(|&v| spec8.quantize_biased(v) as i8)
        .collect();
    let a16: Vec<i16> = a_f
        .iter()
        .map(|&v| spec16.quantize_biased(v) as i16)
        .collect();
    let b16: Vec<i16> = b_f
        .iter()
        .map(|&v| spec16.quantize_biased(v) as i16)
        .collect();

    let macs = filters * k_dim * positions;
    let mut c = vec![0f32; filters * positions];
    let mut time_it = |body: &mut dyn FnMut(&mut [f32])| -> f64 {
        body(&mut c); // warm up
        let start = Instant::now();
        let mut passes = 0u64;
        while start.elapsed().as_secs_f64() < 0.5 {
            c.fill(0.0);
            body(&mut c);
            black_box(&c);
            passes += 1;
        }
        passes as f64 * macs as f64 / start.elapsed().as_secs_f64() / 1e9
    };

    let g32 = time_it(&mut |c| gemm::gemm_f32(filters, k_dim, positions, &a_f, &b_f, c));
    let g16 = time_it(&mut |c| {
        gemm::gemm_i16(filters, k_dim, positions, &a16, &b16, &spec16, &spec16, c)
    });
    let g8 =
        time_it(&mut |c| gemm::gemm_i8(filters, k_dim, positions, &a8, &b8, &spec8, &spec8, c));

    let mut table = Series::new("throughput", "precision", &["GMAC/s", "speedup"]);
    table.push_row("32f", &[g32, 1.0]);
    table.push_row("D16M16", &[g16, g16 / g32]);
    table.push_row("D8M8", &[g8, g8 / g32]);
    r.push_series(table);
    r.note(
        "paper: low precision yields near-linear conv-layer speedups (2x at 16-bit, \
         3x at 8-bit) when the SIMD kernels are optimized",
    );
    r
}
