//! Kernel implementation flavours — the Figure 4 / §6.1 experimental axis.

use core::fmt;
use std::str::FromStr;

/// Which implementation of the dot/AXPY inner loops is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelFlavor {
    /// Compiler-style: widen every element to `f32` before arithmetic
    /// (what GCC emits for naive C++; the paper's baseline in Figure 4).
    Generic,
    /// Hand-vectorized-style: narrow-integer multiply-accumulate over lane
    /// blocks (the paper's AVX2 intrinsics code).
    #[default]
    Optimized,
    /// Like `Optimized`, but costed as if the paper's two proposed ALU
    /// instructions existed (§6.1). Arithmetic results are identical to
    /// `Optimized`; only the cost model differs — mirroring the paper's
    /// proxy-instruction methodology.
    Proposed,
}

impl KernelFlavor {
    /// All flavours, for sweeps.
    ///
    /// Kept in sync with the enum by [`KernelFlavor::name`]'s exhaustive
    /// match plus the `all_is_exhaustive` round-trip test — adding a
    /// flavour without extending this array is a test failure, not a
    /// silently missing sweep axis.
    pub const ALL: [KernelFlavor; 3] = [
        KernelFlavor::Generic,
        KernelFlavor::Optimized,
        KernelFlavor::Proposed,
    ];

    /// Canonical lower-case name (what [`Display`](fmt::Display) prints
    /// and [`FromStr`] accepts).
    #[must_use]
    pub const fn name(self) -> &'static str {
        // Exhaustive on purpose: a new variant fails to compile here
        // until it has a name, and `all_is_exhaustive` then fails until
        // it is swept.
        match self {
            KernelFlavor::Generic => "generic",
            KernelFlavor::Optimized => "optimized",
            KernelFlavor::Proposed => "proposed",
        }
    }
}

impl fmt::Display for KernelFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`KernelFlavor`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKernelFlavorError(String);

impl fmt::Display for ParseKernelFlavorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown kernel flavor `{}`", self.0)
    }
}

impl std::error::Error for ParseKernelFlavorError {}

impl FromStr for KernelFlavor {
    type Err = ParseKernelFlavorError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "generic" | "gcc" => Ok(KernelFlavor::Generic),
            "optimized" | "simd" => Ok(KernelFlavor::Optimized),
            "proposed" | "newinstr" => Ok(KernelFlavor::Proposed),
            _ => Err(ParseKernelFlavorError(s.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_optimized() {
        assert_eq!(KernelFlavor::default(), KernelFlavor::Optimized);
    }

    #[test]
    fn parse_round_trips() {
        for flavor in KernelFlavor::ALL {
            assert_eq!(flavor.to_string().parse::<KernelFlavor>().unwrap(), flavor);
        }
        assert!("mystery".parse::<KernelFlavor>().is_err());
    }

    #[test]
    fn bitserial_aliases_parse() {
        // Names of the deleted bit-serial flavour must be refused, not
        // quietly resolve to another flavour.
        for alias in ["bitserial", "bit-serial", "weave", "mlweaving", "BitSerial"] {
            assert!(alias.parse::<KernelFlavor>().is_err(), "{alias}");
        }
    }

    #[test]
    fn all_is_exhaustive() {
        // Every variant nameable by the exhaustive `name()` match must
        // appear in ALL exactly once, and names must be unique — the
        // guard that keeps sweeps from silently skipping a flavour.
        let names: Vec<&str> = KernelFlavor::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 3);
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b, "duplicate flavour name");
            }
        }
    }
}
