//! Low-precision dot-product and AXPY kernels for SGD.
//!
//! The SGD update for logistic regression (and the whole class of problems
//! the paper studies) is dominated by two vector operations per iteration:
//! a **dot product** `x · w` and an **AXPY** `w ← w − a·x` with the result
//! re-quantized to the model precision (paper §2). How those two loops are
//! compiled determines hardware efficiency, and the paper's Figure 4 shows
//! an up-to-11x gap between what a C++ compiler emits and hand-written AVX2.
//!
//! This crate reproduces both sides of that gap in safe Rust:
//!
//! * [`generic`] — the *compiler-style* path: every element is widened to
//!   `f32` before multiplying, exactly the instruction pattern GCC emits
//!   for naive C++ (convert, convert, `mulps`, `addps`). One generic
//!   function covers every precision pair.
//! * [`optimized`] — the *hand-vectorized-style* path: fixed-point inputs
//!   are multiply-accumulated in narrow integers (`i8`x`i8 → i16 → i32`,
//!   the `vpmaddubsw`/`vpmaddwd` pattern), over fixed-width lane blocks that
//!   LLVM auto-vectorizes; floats are processed with blocked multiple
//!   accumulators. Rounding randomness comes from a lane-vectorized
//!   XORSHIFT, optionally shared across the AXPY (paper §5.2).
//! * [`cells`] — the shared model's packed `AtomicU64` cells: their lane
//!   layout, and the optimized integer dot and AXPY run on the cells
//!   themselves, one relaxed load (and store) per cell.
//! * [`sparse`] — gather/scatter variants of both flavours for CSR data.
//! * [`nibble`] — packed 4-bit kernels for the hypothetical D4M4 ISA.
//! * [`cost`] — an instruction-count cost model covering current AVX2, the
//!   paper's two proposed ALU instructions (§6.1) and 4-bit arithmetic,
//!   used to reproduce the proxy-instruction experiments.
//!
//! The free functions of those modules are the API: the training engine
//! and the `Predictor` call `optimized::*`, `cells::*` and `sparse::*`
//! directly.
//! [`KernelFlavor`] names an implementation for the kernel-level
//! comparison (Figure 4, §6.1), and [`dispatch`] holds the two
//! flavour-routed dots a comparison harness sweeps it through.
//!
//! # Example
//!
//! ```
//! use buckwild_fixed::FixedSpec;
//! use buckwild_kernels::{dispatch, KernelFlavor};
//!
//! let xs = FixedSpec::unit_range(8);
//! let ws = FixedSpec::model_range(8);
//! let x: Vec<i8> = vec![64, -32, 16, 8];
//! let w: Vec<i8> = vec![10, 20, -5, 3];
//!
//! let fast = dispatch::dot_fixed_fixed(KernelFlavor::Optimized, &x, &w, &xs, &ws);
//! let slow = dispatch::dot_fixed_fixed(KernelFlavor::Generic, &x, &w, &xs, &ws);
//! assert!((fast - slow).abs() < 1e-4);
//! ```

// `unsafe` is denied crate-wide and allowed back only inside `simd`, in
// two places: its memory helpers (one pointer intrinsic each, on an array
// of exactly the bytes it moves) and its one dispatch call, which runs a
// safe `#[target_feature]` kernel behind the runtime probe in [`isa`].
// The kernels themselves, and everything else, stay safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod cost;
pub mod delta;
pub mod dispatch;
pub mod generic;
pub mod isa;
pub mod nibble;
pub mod optimized;
pub mod sparse;

mod flavor;
mod rand_source;
mod simd;

pub use flavor::KernelFlavor;
pub use isa::KernelIsa;
pub use rand_source::AxpyRand;

/// Width (in 32-bit lanes) of one simulated vector register: AVX2 = 256 bit.
pub const LANES_32: usize = 8;

/// Width in 16-bit lanes of one simulated vector register.
pub const LANES_16: usize = 16;

/// Width in 8-bit lanes of one simulated vector register.
pub const LANES_8: usize = 32;
