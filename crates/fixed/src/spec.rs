//! Runtime fixed-point format descriptions.

use core::fmt;

use crate::Rounding;

/// A runtime description of a signed fixed-point number format.
///
/// A `FixedSpec` with `bits = b` and `frac = f` represents real values as
/// signed `b`-bit integers scaled by `2^-f`. The representable range is
/// `[-2^(b-1) * 2^-f, (2^(b-1) - 1) * 2^-f]` and the quantum (the distance
/// between adjacent representable values) is `2^-f`.
///
/// SGD kernels in this workspace store model and dataset values as raw
/// integer slices and consult a `FixedSpec` to convert to and from `f32`,
/// exactly as the paper's hand-written AVX2 kernels treat memory as packed
/// `int8_t`/`int16_t` with an implicit scale.
///
/// # Example
///
/// ```
/// use buckwild_fixed::FixedSpec;
///
/// let spec = FixedSpec::new(8, 7)?; // classic [-1, 1) 8-bit format
/// assert_eq!(spec.quantum(), 1.0 / 128.0);
/// assert_eq!(spec.max_repr(), 127);
/// assert_eq!(spec.min_repr(), -128);
/// # Ok::<(), buckwild_fixed::FixedSpecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedSpec {
    bits: u32,
    frac: i32,
}

/// Error returned when constructing an invalid [`FixedSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedSpecError {
    /// The bit width was zero or exceeded 32.
    InvalidBits(u32),
    /// The fractional-bit count cannot be represented alongside the width.
    InvalidFrac {
        /// The requested total width.
        bits: u32,
        /// The requested fractional bit count.
        frac: i32,
    },
}

impl fmt::Display for FixedSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FixedSpecError::InvalidBits(bits) => {
                write!(f, "fixed-point width must be in 1..=32, got {bits}")
            }
            FixedSpecError::InvalidFrac { bits, frac } => {
                write!(f, "fractional bits {frac} invalid for width {bits}")
            }
        }
    }
}

impl std::error::Error for FixedSpecError {}

impl FixedSpec {
    /// Creates a format with `bits` total bits and `frac` fractional bits.
    ///
    /// `frac` may be negative (quanta larger than 1) or exceed `bits`
    /// (all-fractional formats with sub-unit range), but is bounded to
    /// `[-64, 64]` to keep the scale within `f32` exponent range.
    ///
    /// # Errors
    ///
    /// Returns [`FixedSpecError::InvalidBits`] unless `1 <= bits <= 32`, and
    /// [`FixedSpecError::InvalidFrac`] if `frac` is outside `[-64, 64]`.
    pub fn new(bits: u32, frac: i32) -> Result<Self, FixedSpecError> {
        if bits == 0 || bits > 32 {
            return Err(FixedSpecError::InvalidBits(bits));
        }
        if !(-64..=64).contains(&frac) {
            return Err(FixedSpecError::InvalidFrac { bits, frac });
        }
        Ok(FixedSpec { bits, frac })
    }

    /// The conventional format used throughout the paper's experiments for a
    /// given bit width: all-but-one bit fractional, so values span `[-1, 1)`.
    ///
    /// This matches quantizing datasets whose entries are sampled uniformly
    /// from `[-1, 1]` (the paper's generative model, §4 footnote 9).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=32`.
    #[must_use]
    pub fn unit_range(bits: u32) -> Self {
        FixedSpec::new(bits, bits as i32 - 1).expect("1..=32 bits is always valid")
    }

    /// A format for model values, which may exceed unit magnitude during
    /// training: 1 integer bit, the rest fractional (range `[-2, 2)`).
    ///
    /// Weights of the normalized problems in this workspace stay well
    /// inside `±2`, and the tighter grid halves the quantization noise a
    /// wider range would impose at 8 bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `bits > 32`.
    #[must_use]
    pub fn model_range(bits: u32) -> Self {
        assert!((2..=32).contains(&bits), "model format needs 2..=32 bits");
        FixedSpec::new(bits, bits as i32 - 2).expect("validated above")
    }

    /// Total bit width of the format.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of fractional bits (the binary point position).
    #[must_use]
    pub fn frac(&self) -> i32 {
        self.frac
    }

    /// The distance between adjacent representable values, `2^-frac`.
    #[must_use]
    #[inline]
    pub fn quantum(&self) -> f32 {
        pow2(-self.frac)
    }

    /// The reciprocal of the quantum, `2^frac`.
    #[must_use]
    #[inline]
    pub fn scale(&self) -> f32 {
        pow2(self.frac)
    }

    /// Largest representable raw integer, `2^(bits-1) - 1`.
    #[must_use]
    #[inline]
    pub fn max_repr(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Smallest representable raw integer, `-2^(bits-1)`.
    #[must_use]
    #[inline]
    pub fn min_repr(&self) -> i64 {
        -(1i64 << (self.bits - 1))
    }

    /// Largest representable real value.
    #[must_use]
    pub fn max_value(&self) -> f32 {
        self.max_repr() as f32 * self.quantum()
    }

    /// Smallest (most negative) representable real value.
    #[must_use]
    pub fn min_value(&self) -> f32 {
        self.min_repr() as f32 * self.quantum()
    }

    /// Quantizes `x` to this format's raw integer representation.
    ///
    /// `uniform` must yield independent samples uniform on `[0, 1)`; it is
    /// only invoked when `rounding` requires randomness, so deterministic
    /// callers may pass `|| 0.0`.
    ///
    /// [`Rounding::Biased`] rounds `x · 2^frac` to the nearest integer,
    /// ties to even; a NaN quantizes to 0. Both modes saturate at
    /// [`min_repr`](Self::min_repr) and [`max_repr`](Self::max_repr) (±inf
    /// included) — saturation rather than wraparound is essential for SGD
    /// stability and is what the paper's AVX2 kernels obtain from
    /// instructions like `vpacksswb`.
    pub fn quantize<F: FnMut() -> f32>(&self, x: f32, rounding: Rounding, mut uniform: F) -> i64 {
        match rounding {
            Rounding::Biased => self.quantize_biased(x),
            Rounding::Unbiased => self.quantize_unbiased(x, uniform()),
        }
    }

    /// Quantizes `x` with nearest rounding (no randomness needed).
    ///
    /// Branch-free, so a loop over it vectorizes: the scaled value is
    /// clamped first (the bounds are integers, so this equals clamping the
    /// rounded value) and then rounded by the FPU itself. Adding `1.5·2^52`
    /// pushes every fraction bit out of an `f64` with `|y| < 2^51`, which
    /// holds for any clamped value since widths stop at 32 bits.
    #[must_use]
    #[inline]
    pub fn quantize_biased(&self, x: f32) -> i64 {
        const ROUND: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
        let scaled = x as f64 * self.scale() as f64;
        let clamped = scaled.clamp(self.min_repr() as f64, self.max_repr() as f64);
        // A clamped value always fits `i32`, whose conversion from `f64`
        // has a packed SSE2 form (`i64`'s has none). NaN survives the clamp
        // and the rounding, and converts to 0.
        ((clamped + ROUND) - ROUND) as i32 as i64
    }

    /// Quantizes `x` with stochastic rounding driven by `u ∈ [0, 1)`.
    ///
    /// The output is unbiased as long as `x` is within the representable
    /// range: `E[dequantize(quantize_unbiased(x, U))] = x` for uniform `U`.
    #[must_use]
    #[inline]
    pub fn quantize_unbiased(&self, x: f32, u: f32) -> i64 {
        let scaled = x as f64 * self.scale() as f64;
        stochastic_round(scaled, u as f64).clamp(self.min_repr(), self.max_repr())
    }

    /// Converts a raw integer representation back to `f32`.
    #[must_use]
    #[inline]
    pub fn dequantize(&self, repr: i64) -> f32 {
        repr as f32 * self.quantum()
    }

    /// Rounds `x` to the nearest representable value and returns it as `f32`
    /// (a quantize/dequantize round trip).
    #[must_use]
    pub fn round_value(&self, x: f32) -> f32 {
        self.dequantize(self.quantize_biased(x))
    }

    /// True if `repr` is within this format's representable range.
    #[must_use]
    pub fn contains_repr(&self, repr: i64) -> bool {
        (self.min_repr()..=self.max_repr()).contains(&repr)
    }
}

impl fmt::Display for FixedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.bits as i32 - self.frac, self.frac)
    }
}

/// `2^e` built from its exponent bits. [`FixedSpec::new`] bounds `frac` to
/// `[-64, 64]`, so `e` is always well inside the normal `f32` range.
#[inline]
fn pow2(e: i32) -> f32 {
    f32::from_bits(((e + 127) as u32) << 23)
}

/// Stochastic rounding: floor(x + u) for u uniform in [0,1) gives an
/// unbiased estimate of x (paper Eq. (4)).
#[inline]
fn stochastic_round(x: f64, u: f64) -> i64 {
    (x + u).floor() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_widths() {
        assert_eq!(FixedSpec::new(0, 0), Err(FixedSpecError::InvalidBits(0)));
        assert_eq!(FixedSpec::new(33, 0), Err(FixedSpecError::InvalidBits(33)));
        assert!(FixedSpec::new(1, 0).is_ok());
        assert!(FixedSpec::new(32, 31).is_ok());
    }

    #[test]
    fn new_rejects_bad_frac() {
        assert_eq!(
            FixedSpec::new(8, 65),
            Err(FixedSpecError::InvalidFrac { bits: 8, frac: 65 })
        );
        assert_eq!(
            FixedSpec::new(8, -65),
            Err(FixedSpecError::InvalidFrac { bits: 8, frac: -65 })
        );
    }

    #[test]
    fn unit_range_spans_minus_one_to_one() {
        let spec = FixedSpec::unit_range(8);
        assert_eq!(spec.min_value(), -1.0);
        assert!((spec.max_value() - (127.0 / 128.0)).abs() < 1e-6);
    }

    #[test]
    fn model_range_has_one_integer_bit() {
        let spec = FixedSpec::model_range(8);
        assert_eq!(spec.min_value(), -2.0);
        assert!(spec.max_value() < 2.0);
        assert!(spec.max_value() > 1.9);
    }

    #[test]
    fn quantize_dequantize_round_trip_exact_values() {
        let spec = FixedSpec::new(8, 4).unwrap();
        for repr in spec.min_repr()..=spec.max_repr() {
            let x = spec.dequantize(repr);
            assert_eq!(spec.quantize_biased(x), repr, "repr {repr}");
        }
    }

    #[test]
    fn quantize_saturates() {
        let spec = FixedSpec::unit_range(8);
        assert_eq!(spec.quantize_biased(100.0), 127);
        assert_eq!(spec.quantize_biased(-100.0), -128);
        assert_eq!(spec.quantize_unbiased(100.0, 0.99), 127);
        assert_eq!(spec.quantize_unbiased(-100.0, 0.0), -128);
    }

    #[test]
    fn biased_rounding_is_nearest() {
        let spec = FixedSpec::new(8, 0).unwrap(); // integers
        assert_eq!(spec.quantize_biased(3.4), 3);
        assert_eq!(spec.quantize_biased(3.6), 4);
        assert_eq!(spec.quantize_biased(-3.4), -3);
        assert_eq!(spec.quantize_biased(-3.6), -4);
    }

    #[test]
    fn half_rounds_to_even() {
        let spec = FixedSpec::new(8, 0).unwrap();
        assert_eq!(spec.quantize_biased(2.5), 2);
        assert_eq!(spec.quantize_biased(3.5), 4);
        assert_eq!(spec.quantize_biased(-2.5), -2);
    }

    #[test]
    fn unbiased_rounding_brackets_value() {
        let spec = FixedSpec::new(8, 0).unwrap();
        // 3.3 must round to 3 (u < 0.7) or 4 (u >= 0.7).
        assert_eq!(spec.quantize_unbiased(3.3, 0.0), 3);
        assert_eq!(spec.quantize_unbiased(3.3, 0.69), 3);
        assert_eq!(spec.quantize_unbiased(3.3, 0.71), 4);
    }

    #[test]
    fn unbiased_rounding_is_unbiased_in_expectation() {
        let spec = FixedSpec::new(16, 0).unwrap();
        let x = 7.37f32;
        let n = 100_000u32;
        let mut sum = 0f64;
        // Deterministic low-discrepancy "uniform" sequence is fine here.
        for i in 0..n {
            let u = (i as f32 + 0.5) / n as f32;
            sum += spec.dequantize(spec.quantize_unbiased(x, u)) as f64;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - x as f64).abs() < 1e-3,
            "mean {mean} should approximate {x}"
        );
    }

    #[test]
    fn quantum_and_scale_are_reciprocal() {
        for frac in [-3, 0, 4, 7, 15] {
            let spec = FixedSpec::new(16, frac).unwrap();
            assert!((spec.quantum() * spec.scale() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn display_shows_q_format() {
        let spec = FixedSpec::new(8, 7).unwrap();
        assert_eq!(spec.to_string(), "Q1.7");
    }

    #[test]
    fn negative_frac_gives_coarse_quanta() {
        let spec = FixedSpec::new(8, -2).unwrap();
        assert_eq!(spec.quantum(), 4.0);
        assert_eq!(spec.quantize_biased(9.0), 2); // 9/4 = 2.25 -> 2
        assert_eq!(spec.dequantize(2), 8.0);
    }

    #[test]
    fn contains_repr_bounds() {
        let spec = FixedSpec::unit_range(8);
        assert!(spec.contains_repr(127));
        assert!(spec.contains_repr(-128));
        assert!(!spec.contains_repr(128));
        assert!(!spec.contains_repr(-129));
    }
}
