//! The `gate` performance baseline: a pinned, seeded microbenchmark set
//! whose results are committed as `BENCH_core.json` at the repository
//! root.
//!
//! The gate measures two layers with a handful of repeats each:
//!
//! * **kernel** rows — single-thread dense and sparse SGD iteration
//!   throughput per DMGC signature, via the same drivers the figure
//!   binaries use ([`measure_dense_t1`] / [`measure_sparse_t1`]);
//! * **train** rows — end-to-end multi-worker training GNPS for **both
//!   backends** (shared-model and sharded-delta) on the same seeded
//!   problem.
//!
//! Each row reports the **median** GNPS across repeats, the
//! **interquartile range** (the honest noise bar for a handful of
//! samples), and the derived **ns per number**. A hardware preamble
//! (core count, cache-line size, SIMD width) is embedded so a baseline
//! from one machine is never silently compared against another.
//!
//! `--check` mode re-runs the set and *warns* (never fails) when a row
//! regresses beyond [`CHECK_TOLERANCE`] against the committed baseline —
//! a tripwire for CI logs, not a merge blocker, because shared runners
//! have noisy neighbors.
//!
//! A second baseline, `BENCH_serve.json`, covers the online-serving path
//! (`gate --serve`): request throughput and latency percentiles of a
//! closed-loop load run against the prediction server while training
//! publishes snapshots — see [`run_serve_gate`].
//!
//! A third baseline, `BENCH_kernels.json`, covers the bit-serial
//! (MLWeaving-layout) kernels (`gate --kernels`): weaved dense and
//! sparse rows next to an optimized anchor, plus truncated-serving rows
//! that read only the top planes of a 16-bit encoding — see
//! [`run_kernels_gate`].

use buckwild::{Backend, Loss, SgdConfig};
use buckwild_dataset::generate;
use buckwild_kernels::cost::QuantizerKind;
use buckwild_kernels::KernelFlavor;
use buckwild_telemetry::json::Value;

use crate::{measure_dense_t1, measure_sparse_t1, measure_weaved_truncated};

/// Seed of the pinned gate problem and kernel inputs.
pub const GATE_SEED: u64 = 1701;
/// Default repeats per row (median of five).
pub const GATE_REPEATS: usize = 5;
/// Default time budget per kernel sample, in seconds.
pub const GATE_SECONDS: f64 = 0.05;
/// Relative slowdown beyond which `--check` prints a warning.
pub const CHECK_TOLERANCE: f64 = 0.25;

/// Model size of the kernel rows.
const KERNEL_N: usize = 4096;
/// Sparse-row nonzeros.
const SPARSE_NNZ: usize = 256;
/// Trainer-row problem: features / examples / epochs / workers.
const TRAIN_N: usize = 1024;
const TRAIN_M: usize = 512;
const TRAIN_EPOCHS: usize = 2;
const TRAIN_THREADS: usize = 2;

/// The machine the baseline was captured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hardware {
    /// Available cores (`buckwild_affinity::core_count`).
    pub core_count: usize,
    /// Cache-line size in bytes.
    pub cache_line_bytes: u64,
    /// Widest available SIMD vector, in bits.
    pub simd_width_bits: u32,
    /// Kernel ISA tier the rows were measured under (`scalar` or `avx2`).
    /// Reflects the *active* tier — an override (`--isa`,
    /// `BUCKWILD_ISA`) changes it, so a baseline pinned to one tier is
    /// never silently compared against another.
    pub isa: String,
}

impl Hardware {
    /// Probes the current machine.
    #[must_use]
    pub fn probe() -> Self {
        Hardware {
            core_count: buckwild_affinity::core_count(),
            cache_line_bytes: buckwild_affinity::cache_line_bytes(),
            simd_width_bits: buckwild_affinity::simd_width_bits(),
            isa: buckwild_kernels::isa::active().name().to_string(),
        }
    }

    /// The preamble as a JSON object — the one shape every report that
    /// embeds a hardware preamble uses (gate baselines, post-mortem
    /// bundles).
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        Value::object(vec![
            ("core_count", Value::from(self.core_count as u64)),
            ("cache_line_bytes", Value::from(self.cache_line_bytes)),
            (
                "simd_width_bits",
                Value::from(u64::from(self.simd_width_bits)),
            ),
            ("isa", Value::from(self.isa.as_str())),
        ])
    }
}

/// One benchmark row: median and spread over the repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Stable row identifier, e.g. `"kernel/dense/D8M8"`.
    pub name: String,
    /// Median GNPS across repeats.
    pub median_gnps: f64,
    /// Interquartile range of the GNPS samples.
    pub iqr_gnps: f64,
    /// Nanoseconds per processed dataset number, from the median.
    pub ns_per_number: f64,
}

/// The full gate result: hardware preamble plus one row per benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Machine the rows were measured on.
    pub hardware: Hardware,
    /// The process-wide default training backend active during the run
    /// (`buckwild::default_backend()`), recorded consistently with the
    /// ISA so a baseline captured under a `BUCKWILD_BACKEND` override is
    /// never silently compared against a differently-configured run.
    pub backend: String,
    /// Seed the problem set was pinned to.
    pub seed: u64,
    /// Repeats behind each median.
    pub repeats: usize,
    /// The measured rows, in a stable order.
    pub benches: Vec<BenchRow>,
}

/// Linear-interpolation quantile of an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [one] => *one,
        _ => {
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
}

/// `(median, interquartile range)` of a sample set.
fn median_iqr(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (
        quantile(samples, 0.5),
        quantile(samples, 0.75) - quantile(samples, 0.25),
    )
}

fn row_from_samples(name: &str, mut samples: Vec<f64>) -> BenchRow {
    let (median, iqr) = median_iqr(&mut samples);
    BenchRow {
        name: name.to_string(),
        median_gnps: median,
        iqr_gnps: iqr,
        ns_per_number: if median > 0.0 { 1.0 / median } else { f64::NAN },
    }
}

/// One end-to-end training sample: GNPS of a pinned 2-worker run.
fn train_sample(backend: Backend, seed: u64) -> f64 {
    let problem = generate::logistic_dense(TRAIN_N, TRAIN_M, seed);
    SgdConfig::new(Loss::Logistic)
        .signature("D8M8".parse().expect("valid signature"))
        .backend(backend)
        .threads(TRAIN_THREADS)
        .epochs(TRAIN_EPOCHS)
        .seed(seed)
        .train(&problem.data)
        .expect("gate configuration is valid")
        .gnps()
}

/// Runs the pinned benchmark set.
///
/// `seconds` is the budget per kernel sample; `repeats` the sample count
/// per row. [`GATE_SECONDS`] and [`GATE_REPEATS`] are the committed
/// baseline's values.
#[must_use]
pub fn run_gate(seconds: f64, repeats: usize) -> GateReport {
    let repeats = repeats.max(1);
    let mut benches = Vec::new();
    let dense = ["D8M8", "D16M16", "D32fM32f"];
    for sig_text in dense {
        let signature = sig_text.parse().expect("valid signature");
        let quantizer = if sig_text == "D32fM32f" {
            QuantizerKind::Biased
        } else {
            QuantizerKind::XorshiftShared
        };
        let samples: Vec<f64> = (0..repeats)
            .map(|_| {
                measure_dense_t1(
                    &signature,
                    KernelFlavor::Optimized,
                    quantizer,
                    KERNEL_N,
                    seconds,
                )
            })
            .collect();
        benches.push(row_from_samples(
            &format!("kernel/dense/{sig_text}"),
            samples,
        ));
    }
    let sparse_sig = "D8i16M8".parse().expect("valid signature");
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            measure_sparse_t1(
                &sparse_sig,
                KernelFlavor::Optimized,
                QuantizerKind::XorshiftShared,
                KERNEL_N,
                SPARSE_NNZ,
                seconds,
            )
        })
        .collect();
    benches.push(row_from_samples("kernel/sparse/D8i16M8", samples));
    for (name, backend) in [
        ("train/shared/D8M8@2t", Backend::SharedModel),
        ("train/sharded/D8M8@2t", Backend::ShardedDelta),
    ] {
        let samples: Vec<f64> = (0..repeats)
            .map(|_| train_sample(backend, GATE_SEED))
            .collect();
        benches.push(row_from_samples(name, samples));
    }
    GateReport {
        hardware: Hardware::probe(),
        backend: buckwild::default_backend().name().to_string(),
        seed: GATE_SEED,
        repeats,
        benches,
    }
}

/// Runs the pinned bit-serial benchmark set (the `BENCH_kernels.json`
/// baseline, `gate --kernels`): the MLWeaving-layout kernels next to an
/// optimized anchor on the same inputs, plus two truncated-serving rows
/// that read 4 and 8 of a 16-bit master encoding — the any-precision
/// mode only the weaved layout can serve without re-encoding.
#[must_use]
pub fn run_kernels_gate(seconds: f64, repeats: usize) -> GateReport {
    let repeats = repeats.max(1);
    let mut benches = Vec::new();
    let dense_rows = [
        (
            "kernel/dense/D8M8/bitserial",
            "D8M8",
            KernelFlavor::BitSerial,
        ),
        (
            "kernel/dense/D16M16/bitserial",
            "D16M16",
            KernelFlavor::BitSerial,
        ),
        (
            "kernel/dense/D8M8/optimized",
            "D8M8",
            KernelFlavor::Optimized,
        ),
    ];
    for (name, sig_text, flavor) in dense_rows {
        let signature = sig_text.parse().expect("valid signature");
        let samples: Vec<f64> = (0..repeats)
            .map(|_| {
                measure_dense_t1(
                    &signature,
                    flavor,
                    QuantizerKind::XorshiftShared,
                    KERNEL_N,
                    seconds,
                )
            })
            .collect();
        benches.push(row_from_samples(name, samples));
    }
    let sparse_sig = "D8i16M8".parse().expect("valid signature");
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            measure_sparse_t1(
                &sparse_sig,
                KernelFlavor::BitSerial,
                QuantizerKind::XorshiftShared,
                KERNEL_N,
                SPARSE_NNZ,
                seconds,
            )
        })
        .collect();
    benches.push(row_from_samples("kernel/sparse/D8i16M8/bitserial", samples));
    for (name, served) in [("weave/truncate/D4@16", 4), ("weave/truncate/D8@16", 8)] {
        let samples: Vec<f64> = (0..repeats)
            .map(|_| measure_weaved_truncated(KERNEL_N, 16, served, seconds))
            .collect();
        benches.push(row_from_samples(name, samples));
    }
    // Per-ISA rows: the flagship dense signatures re-measured under each
    // ISA tier the machine supports, so the committed baseline shows the
    // SIMD speedup ladder (`@scalar` is the portable floor, `@avx2` the
    // vector tier). An active override caps the ladder — `--isa scalar`
    // emits only the scalar rung.
    for tier in buckwild_kernels::isa::KernelIsa::ALL {
        if tier > buckwild_kernels::isa::active() {
            continue;
        }
        let _pin = buckwild_kernels::isa::scoped(tier);
        for sig_text in ["D8M8", "D16M16"] {
            let signature = sig_text.parse().expect("valid signature");
            let samples: Vec<f64> = (0..repeats)
                .map(|_| {
                    measure_dense_t1(
                        &signature,
                        KernelFlavor::Optimized,
                        QuantizerKind::XorshiftShared,
                        KERNEL_N,
                        seconds,
                    )
                })
                .collect();
            benches.push(row_from_samples(
                &format!("kernel/dense/{sig_text}/optimized@{tier}"),
                samples,
            ));
        }
    }
    GateReport {
        hardware: Hardware::probe(),
        backend: buckwild::default_backend().name().to_string(),
        seed: GATE_SEED,
        repeats,
        benches,
    }
}

/// Default time budget per serve-gate load sample, in seconds.
pub const GATE_SERVE_SECONDS: f64 = 0.4;

/// A serve-gate row: samples are rates (higher is better, like GNPS),
/// and `ns_per_number` is the inverse of the median — for throughput
/// rows that is nanoseconds per request, for latency rows the latency
/// percentile itself in nanoseconds.
fn serve_row(name: &str, mut samples: Vec<f64>) -> BenchRow {
    let (median, iqr) = median_iqr(&mut samples);
    BenchRow {
        name: name.to_string(),
        median_gnps: median,
        iqr_gnps: iqr,
        ns_per_number: if median > 0.0 { 1e9 / median } else { f64::NAN },
    }
}

/// Runs the pinned serving benchmark set (the `BENCH_serve.json`
/// baseline): a closed-loop load run against an 8-bit model **while
/// training continues**, repeated `repeats` times.
///
/// Rows reuse the [`GateReport`] schema with rate semantics: the
/// throughput row's median is requests per second; each latency row's
/// median is `1e9 / pXX_ns` (inverse latency), so "lower latency" stays
/// "higher value" and [`GateReport::check_against`]'s one-sided
/// regression check points the right way. `ns_per_number` on a latency
/// row is therefore the percentile itself, in nanoseconds.
#[must_use]
pub fn run_serve_gate(seconds: f64, repeats: usize) -> GateReport {
    use crate::serve::{run_serve_load, ServeLoadOptions};
    let repeats = repeats.max(1);
    let inverse = |ns: f64| if ns > 0.0 { 1e9 / ns } else { 0.0 };
    let mut benches = Vec::new();
    for (label, backend) in [
        ("shared", Backend::SharedModel),
        ("sharded", Backend::ShardedDelta),
    ] {
        let mut throughput = Vec::with_capacity(repeats);
        let mut p50 = Vec::with_capacity(repeats);
        let mut p95 = Vec::with_capacity(repeats);
        let mut p99 = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let opts = ServeLoadOptions::pinned(backend, seconds, GATE_SEED);
            let report = run_serve_load(&opts);
            throughput.push(report.requests_per_sec());
            p50.push(inverse(report.latency_ns.p50));
            p95.push(inverse(report.latency_ns.p95));
            p99.push(inverse(report.latency_ns.p99));
        }
        benches.push(serve_row(&format!("serve/{label}/throughput"), throughput));
        benches.push(serve_row(&format!("serve/{label}/latency_p50"), p50));
        benches.push(serve_row(&format!("serve/{label}/latency_p95"), p95));
        benches.push(serve_row(&format!("serve/{label}/latency_p99"), p99));
    }
    GateReport {
        hardware: Hardware::probe(),
        backend: buckwild::default_backend().name().to_string(),
        seed: GATE_SEED,
        repeats,
        benches,
    }
}

impl GateReport {
    /// The report as a JSON document (the `BENCH_core.json` schema).
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let benches = self
            .benches
            .iter()
            .map(|b| {
                Value::object(vec![
                    ("name", Value::from(b.name.as_str())),
                    ("median_gnps", Value::from(b.median_gnps)),
                    ("iqr_gnps", Value::from(b.iqr_gnps)),
                    ("ns_per_number", Value::from(b.ns_per_number)),
                ])
            })
            .collect();
        Value::object(vec![
            ("hardware", self.hardware.to_json_value()),
            ("backend", Value::from(self.backend.as_str())),
            ("seed", Value::from(self.seed)),
            ("repeats", Value::from(self.repeats as u64)),
            ("benches", Value::Array(benches)),
        ])
    }

    /// Parses a `BENCH_core.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = buckwild_telemetry::json::parse(text).map_err(|e| e.to_string())?;
        let hw = doc.get("hardware").ok_or("missing `hardware`")?;
        let u = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .map(|f| f as u64)
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let hardware = Hardware {
            core_count: u(hw, "core_count")? as usize,
            cache_line_bytes: u(hw, "cache_line_bytes")?,
            simd_width_bits: u(hw, "simd_width_bits")? as u32,
            // Lenient: baselines captured before the ISA field existed
            // still parse (and will mismatch, which is the honest answer).
            isa: hw
                .get("isa")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
        };
        let mut benches = Vec::new();
        for b in doc
            .get("benches")
            .and_then(Value::as_array)
            .ok_or("missing `benches`")?
        {
            let f = |key: &str| -> Result<f64, String> {
                b.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("bench row missing `{key}`"))
            };
            benches.push(BenchRow {
                name: b
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("bench row missing `name`")?
                    .to_string(),
                median_gnps: f("median_gnps")?,
                iqr_gnps: f("iqr_gnps")?,
                ns_per_number: f("ns_per_number")?,
            });
        }
        Ok(GateReport {
            hardware,
            // Lenient like `isa`: baselines captured before the backend
            // field existed parse as "unknown" (and will mismatch).
            backend: doc
                .get("backend")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            seed: u(&doc, "seed")?,
            repeats: u(&doc, "repeats")? as usize,
            benches,
        })
    }

    /// The aligned text table.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench gate (seed {}, {} repeats) on {} core(s), {}B lines, {}-bit SIMD, \
             {} isa, {} backend",
            self.seed,
            self.repeats,
            self.hardware.core_count,
            self.hardware.cache_line_bytes,
            self.hardware.simd_width_bits,
            self.hardware.isa,
            self.backend,
        );
        let width = self
            .benches
            .iter()
            .map(|b| b.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let _ = writeln!(
            out,
            "{:width$}  {:>12} {:>10} {:>10}",
            "bench", "median GNPS", "IQR", "ns/num"
        );
        for b in &self.benches {
            let _ = writeln!(
                out,
                "{:width$}  {:>12.4} {:>10.4} {:>10.3}",
                b.name, b.median_gnps, b.iqr_gnps, b.ns_per_number
            );
        }
        out
    }

    /// Compares this (fresh) run against a committed baseline, returning
    /// one human-readable warning per regressed row. A row regresses when
    /// its median drops below the baseline median by more than
    /// `max(`[`CHECK_TOLERANCE`]` × median, 2 × IQR)` — the committed
    /// interquartile range is the row's own noise bar, so intrinsically
    /// jittery rows (multi-worker wall-clock on an oversubscribed runner)
    /// don't cry wolf. Hardware mismatches produce a leading warning and
    /// skip the per-row comparison — cross-machine deltas are
    /// meaningless.
    #[must_use]
    pub fn check_against(&self, baseline: &GateReport) -> Vec<String> {
        if self.hardware != baseline.hardware {
            return vec![format!(
                "hardware mismatch (baseline {} cores / {}B lines / {}-bit SIMD / {} isa, \
                 this machine {} / {}B / {}-bit / {}): skipping row comparison",
                baseline.hardware.core_count,
                baseline.hardware.cache_line_bytes,
                baseline.hardware.simd_width_bits,
                baseline.hardware.isa,
                self.hardware.core_count,
                self.hardware.cache_line_bytes,
                self.hardware.simd_width_bits,
                self.hardware.isa,
            )];
        }
        if self.backend != baseline.backend {
            return vec![format!(
                "backend mismatch (baseline `{}`, this run `{}`): skipping row comparison",
                baseline.backend, self.backend,
            )];
        }
        let mut warnings = Vec::new();
        for row in &self.benches {
            let Some(base) = baseline.benches.iter().find(|b| b.name == row.name) else {
                warnings.push(format!("{}: not in baseline (new row?)", row.name));
                continue;
            };
            let slack = (base.median_gnps * CHECK_TOLERANCE).max(2.0 * base.iqr_gnps);
            if base.median_gnps > 0.0 && row.median_gnps < base.median_gnps - slack {
                warnings.push(format!(
                    "{}: {:.4} GNPS is {:.0}% below baseline {:.4} (slack {:.4})",
                    row.name,
                    row.median_gnps,
                    (1.0 - row.median_gnps / base.median_gnps) * 100.0,
                    base.median_gnps,
                    slack,
                ));
            }
        }
        warnings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = vec![4.0, 1.0, 3.0, 2.0];
        let (median, iqr) = median_iqr(&mut s);
        assert!((median - 2.5).abs() < 1e-12);
        assert!((iqr - 1.5).abs() < 1e-12);
        let mut one = vec![7.0];
        assert_eq!(median_iqr(&mut one), (7.0, 0.0));
        assert_eq!(median_iqr(&mut []), (0.0, 0.0));
    }

    #[test]
    fn gate_measures_every_row_and_round_trips_json() {
        let report = run_gate(0.005, 2);
        let names: Vec<_> = report.benches.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"kernel/dense/D8M8"), "{names:?}");
        assert!(names.contains(&"kernel/sparse/D8i16M8"), "{names:?}");
        assert!(names.contains(&"train/shared/D8M8@2t"), "{names:?}");
        assert!(names.contains(&"train/sharded/D8M8@2t"), "{names:?}");
        for b in &report.benches {
            assert!(b.median_gnps > 0.0, "{}: {}", b.name, b.median_gnps);
            assert!(b.iqr_gnps >= 0.0, "{}", b.name);
            assert!(b.ns_per_number > 0.0, "{}", b.name);
        }
        assert!(report.hardware.core_count >= 1);
        assert!(report.hardware.cache_line_bytes >= 32);
        let json = report.to_json_value().to_json_pretty();
        let parsed = GateReport::from_json(&json).expect("round trip");
        assert_eq!(parsed, report);
        assert!(report.render_text().contains("median GNPS"));
    }

    #[test]
    fn kernels_gate_measures_every_row_and_round_trips_json() {
        let report = run_kernels_gate(0.005, 2);
        let names: Vec<_> = report.benches.iter().map(|b| b.name.as_str()).collect();
        for expected in [
            "kernel/dense/D8M8/bitserial",
            "kernel/dense/D16M16/bitserial",
            "kernel/dense/D8M8/optimized",
            "kernel/sparse/D8i16M8/bitserial",
            "weave/truncate/D4@16",
            "weave/truncate/D8@16",
            // Scalar is always a supported tier, so its per-ISA ladder
            // rungs are present on every machine.
            "kernel/dense/D8M8/optimized@scalar",
            "kernel/dense/D16M16/optimized@scalar",
        ] {
            assert!(
                names.contains(&expected),
                "{expected} missing from {names:?}"
            );
        }
        for b in &report.benches {
            assert!(b.median_gnps > 0.0, "{}: {}", b.name, b.median_gnps);
            assert!(b.ns_per_number > 0.0, "{}", b.name);
        }
        let json = report.to_json_value().to_json_pretty();
        let parsed = GateReport::from_json(&json).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn serve_gate_measures_every_row() {
        let report = run_serve_gate(0.05, 1);
        let names: Vec<_> = report.benches.iter().map(|b| b.name.as_str()).collect();
        for expected in [
            "serve/shared/throughput",
            "serve/shared/latency_p50",
            "serve/shared/latency_p95",
            "serve/shared/latency_p99",
            "serve/sharded/throughput",
            "serve/sharded/latency_p99",
        ] {
            assert!(
                names.contains(&expected),
                "{expected} missing from {names:?}"
            );
        }
        for b in &report.benches {
            assert!(b.median_gnps > 0.0, "{}: {}", b.name, b.median_gnps);
            assert!(b.ns_per_number > 0.0, "{}", b.name);
        }
        let json = report.to_json_value().to_json_pretty();
        let parsed = GateReport::from_json(&json).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn check_warns_on_regression_and_hardware_mismatch() {
        let base = GateReport {
            hardware: Hardware {
                core_count: 4,
                cache_line_bytes: 64,
                simd_width_bits: 256,
                isa: "avx2".into(),
            },
            backend: "shared".into(),
            seed: GATE_SEED,
            repeats: 5,
            benches: vec![BenchRow {
                name: "kernel/dense/D8M8".into(),
                median_gnps: 4.0,
                iqr_gnps: 0.1,
                ns_per_number: 0.25,
            }],
        };
        let mut fresh = base.clone();
        // Within tolerance: silent.
        fresh.benches[0].median_gnps = 3.5;
        assert!(fresh.check_against(&base).is_empty());
        // Beyond tolerance: one warning naming the row.
        fresh.benches[0].median_gnps = 2.0;
        let warnings = fresh.check_against(&base);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("kernel/dense/D8M8"), "{warnings:?}");
        // A jittery baseline row widens its own tolerance: IQR 1.5 gives
        // slack 3.0, so a median of 1.5 is still silent.
        fresh.benches[0].median_gnps = 1.5;
        let mut wide = base.clone();
        wide.benches[0].iqr_gnps = 1.5;
        assert!(fresh.check_against(&wide).is_empty());
        // New row absent from the baseline is flagged, not compared.
        fresh.benches.push(BenchRow {
            name: "kernel/dense/D4M4".into(),
            median_gnps: 1.0,
            iqr_gnps: 0.0,
            ns_per_number: 1.0,
        });
        fresh.benches[0].median_gnps = 4.0;
        let warnings = fresh.check_against(&base);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("not in baseline"));
        // Different default backend: single mismatch warning, rows skipped.
        fresh.backend = "sharded".into();
        let warnings = fresh.check_against(&base);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("backend mismatch"), "{warnings:?}");
        fresh.backend = "shared".into();
        // Different machine: single mismatch warning, rows skipped.
        fresh.hardware.core_count = 2;
        let warnings = fresh.check_against(&base);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("hardware mismatch"));
    }
}
