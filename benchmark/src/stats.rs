//! Order statistics over the benchmark's own samples.
//!
//! Every reported timing is an exact selection from sorted samples, never
//! a histogram bucket: the old gate's log2 buckets are why its p99 rows
//! had an IQR of zero.

/// Median and quartiles of a set of repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The samples, in the order they were taken.
    pub samples: Vec<f64>,
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        samples: samples.to_vec(),
    })
}

/// Median of `samples`, or 0 when there are none (a layer that did no
/// work in this workload).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// The `p`-quantile (0..=1) of an ascending slice, interpolating linearly
/// between the two nearest ranks.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The percentiles a latency report may quote, in per mille, lowest first.
pub const TAIL_PER_MILLE: [u64; 4] = [500, 900, 990, 999];

/// The highest of [`TAIL_PER_MILLE`], as a fraction, that still has at
/// least ten samples beyond it; `None` below twenty samples, where not
/// even the median does.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_PER_MILLE
        .iter()
        .rfind(|&&pm| samples as u64 * (1000 - pm) >= 10_000)
        .map(|&pm| pm as f64 / 1000.0)
}

/// Sorts latency samples in place and returns them as `f64`.
pub fn sorted_f64(samples: &mut [u64]) -> Vec<f64> {
    samples.sort_unstable();
    samples.iter().map(|&s| s as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_of_seven() {
        let s = summarize(&[7.0, 1.0, 3.0, 5.0, 2.0, 6.0, 4.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (7, 2.5, 4.0, 5.5));
        assert_eq!(s.samples[0], 7.0, "samples keep the order taken");
    }

    #[test]
    fn even_count_interpolates() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn empty_has_no_summary_and_a_zero_median() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_endpoints_are_min_and_max() {
        let v = [1.0, 2.0, 10.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }
}
