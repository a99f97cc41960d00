//! Fixed-point formats, quantization, and rounding.
//!
//! This crate is the numeric substrate for the `buckwild` workspace, a Rust
//! reproduction of *Understanding and Optimizing Asynchronous Low-Precision
//! Stochastic Gradient Descent* (De Sa et al., ISCA 2017). The paper
//! represents real numbers with low-precision **fixed-point** values — 4, 8,
//! or 16 bits with an implicit binary scale — instead of 32-bit IEEE floats,
//! and studies two rounding disciplines when narrowing a value:
//!
//! * **biased** (nearest-neighbor) rounding, which is deterministic, and
//! * **unbiased** (stochastic) rounding, which randomly rounds up or down so
//!   the *expected* quantized value equals the input.
//!
//! The crate provides three pieces:
//!
//! 1. [`FixedSpec`] — a runtime description of a fixed-point format
//!    (bit width + fractional bits) with quantize/dequantize operations.
//!    SGD kernels store raw `i8`/`i16` slices and use a `FixedSpec` to
//!    interpret them; this mirrors how the paper's C++ kernels work.
//! 2. [`NibbleVec`] and its helpers — 4-bit values packed two per byte.
//! 3. [`Rounding`] — the rounding-strategy vocabulary shared by the whole
//!    workspace.
//!
//! # Example
//!
//! ```
//! use buckwild_fixed::{FixedSpec, Rounding};
//!
//! // 8-bit fixed point with 6 fractional bits: quantum 1/64, range [-2, 2).
//! let spec = FixedSpec::new(8, 6)?;
//! let q = spec.quantize(0.7, Rounding::Biased, || 0.0);
//! assert_eq!(q, 45); // 0.7 * 64 = 44.8 -> 45
//! assert!((spec.dequantize(q) - 0.703125).abs() < 1e-6);
//! # Ok::<(), buckwild_fixed::FixedSpecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod nibble;
mod rounding;
mod spec;

pub use nibble::{nibble_dot_i32, pack_nibbles, unpack_nibbles, NibbleVec};
pub use rounding::Rounding;
pub use spec::{FixedSpec, FixedSpecError};

/// Number of bits in a full-precision (`f32`) value, for symmetry in tables.
pub const FLOAT_BITS: u32 = 32;
