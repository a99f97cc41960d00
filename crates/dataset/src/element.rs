//! The element trait unifying `f32` and fixed-point storage types.

use buckwild_fixed::{FixedSpec, Rounding};
use buckwild_prng::{Prng, Xorshift128};

/// A scalar type usable as dataset or model storage.
///
/// Fixed-point implementors interpret themselves through a [`FixedSpec`];
/// `f32` ignores the spec. The trait is sealed: kernels in
/// `buckwild-kernels` are specialized per concrete type, so downstream
/// implementations would not be usable anyway.
pub trait Element:
    sealed::Sealed + Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static
{
    /// Number of bits of storage per value.
    const BITS: u32;

    /// True if this is IEEE floating point (no spec needed).
    const IS_FLOAT: bool;

    /// The additive identity.
    const ZERO: Self;

    /// Converts a real value into this storage type.
    ///
    /// `uniform` is consulted only when `rounding` is
    /// [`Rounding::Unbiased`]; fixed-point conversions saturate at the
    /// spec's bounds, so `spec.bits()` must not exceed [`Self::BITS`]
    /// (a wider spec's saturated value would wrap in the narrowing cast).
    fn encode<F: FnMut() -> f32>(x: f32, spec: &FixedSpec, rounding: Rounding, uniform: F) -> Self;

    /// Converts this storage value back to `f32`.
    fn decode(self, spec: &FixedSpec) -> f32;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for i8 {}
    impl Sealed for i16 {}
    impl Sealed for i32 {}
}

impl Element for f32 {
    const BITS: u32 = 32;
    const IS_FLOAT: bool = true;
    const ZERO: Self = 0.0;

    fn encode<F: FnMut() -> f32>(x: f32, _spec: &FixedSpec, _r: Rounding, _u: F) -> Self {
        x
    }

    fn decode(self, _spec: &FixedSpec) -> f32 {
        self
    }
}

macro_rules! fixed_element {
    ($ty:ty, $bits:expr) => {
        impl Element for $ty {
            const BITS: u32 = $bits;
            const IS_FLOAT: bool = false;
            const ZERO: Self = 0;

            fn encode<F: FnMut() -> f32>(
                x: f32,
                spec: &FixedSpec,
                rounding: Rounding,
                uniform: F,
            ) -> Self {
                spec.quantize(x, rounding, uniform) as $ty
            }

            fn decode(self, spec: &FixedSpec) -> f32 {
                spec.dequantize(self as i64)
            }
        }
    };
}

fixed_element!(i8, 8);
fixed_element!(i16, 16);
fixed_element!(i32, 32);

/// Re-encodes `values`, stored at `from`, as `U` at `to`: the element loop
/// behind both datasets' `requantize`.
///
/// The rounding mode is matched once, outside the loop, so the biased loop
/// is a branch-free map the compiler vectorizes; the unbiased loop draws
/// one sample per value from `Xorshift128::seed_from(seed)`.
///
/// # Panics
///
/// Panics if `to` is wider than `U`'s storage.
pub(crate) fn reencode<T: Element, U: Element>(
    values: &[T],
    from: &FixedSpec,
    to: FixedSpec,
    rounding: Rounding,
    seed: u64,
) -> Vec<U> {
    assert!(
        to.bits() <= U::BITS,
        "spec width {} exceeds storage width {}",
        to.bits(),
        U::BITS
    );
    // Writing through `iter_mut` (rather than collecting a `map`) keeps
    // `to` a local the compiler can hoist out of the loop.
    let mut out = vec![U::ZERO; values.len()];
    match rounding {
        Rounding::Biased => {
            for (o, &v) in out.iter_mut().zip(values) {
                *o = U::encode(v.decode(from), &to, Rounding::Biased, || 0.0);
            }
        }
        Rounding::Unbiased => {
            let mut rng = Xorshift128::seed_from(seed);
            for (o, &v) in out.iter_mut().zip(values) {
                *o = U::encode(v.decode(from), &to, Rounding::Unbiased, || rng.next_f32());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_encode_is_identity() {
        let spec = FixedSpec::unit_range(8);
        assert_eq!(f32::encode(0.37, &spec, Rounding::Biased, || 0.0), 0.37);
        assert_eq!(0.37f32.decode(&spec), 0.37);
    }

    #[test]
    fn i8_round_trips_representable_values() {
        let spec = FixedSpec::unit_range(8);
        for repr in i8::MIN..=i8::MAX {
            let x = spec.dequantize(repr as i64);
            let encoded = i8::encode(x, &spec, Rounding::Biased, || 0.0);
            assert_eq!(encoded, repr);
            assert_eq!(encoded.decode(&spec), x);
        }
    }

    #[test]
    fn i16_saturates() {
        let spec = FixedSpec::unit_range(16);
        assert_eq!(i16::encode(2.0, &spec, Rounding::Biased, || 0.0), i16::MAX);
        assert_eq!(i16::encode(-2.0, &spec, Rounding::Biased, || 0.0), i16::MIN);
    }

    #[test]
    fn unbiased_encode_uses_uniform() {
        let spec = FixedSpec::new(8, 0).unwrap();
        assert_eq!(i8::encode(3.5, &spec, Rounding::Unbiased, || 0.0), 3);
        assert_eq!(i8::encode(3.5, &spec, Rounding::Unbiased, || 0.9), 4);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // pinning the trait's associated consts is the point
    fn constants() {
        assert_eq!(<i8 as Element>::BITS, 8);
        assert_eq!(<i16 as Element>::BITS, 16);
        assert_eq!(<i32 as Element>::BITS, 32);
        assert!(<f32 as Element>::IS_FLOAT);
        assert!(!<i8 as Element>::IS_FLOAT);
        assert_eq!(<i8 as Element>::ZERO, 0);
    }
}
