//! Runtime CPU-feature probe and ISA selection for the SIMD kernels.
//!
//! The hand-vectorized kernels in `crate::simd` come in two tiers: the
//! safe chunked-accumulator scalar code (always available, and the
//! bit-identity reference) and explicit AVX2 `std::arch` paths. Which
//! tier runs is decided **once per process** by [`active`]:
//!
//! 1. a live [`scoped`] override (tests and `fig4`'s per-ISA rungs), then
//! 2. the first [`set_active`] call (the `--isa` flag on every binary),
//! 3. the `BUCKWILD_ISA` environment variable (`scalar`, `avx2`, or
//!    `auto`),
//! 4. the hardware probe [`detected`].
//!
//! Requests are always clamped to [`detected`] — asking for `avx2` on a
//! machine without it selects scalar, never an illegal instruction.
//! Because every SIMD path is bit-identical to the scalar kernels (integer
//! paths are exact; float paths share one fixed 8-lane reduction order),
//! the selection changes throughput only, never results.

use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The instruction-set tier the kernels execute with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelIsa {
    /// Safe chunked-accumulator Rust (the bit-identity reference).
    Scalar,
    /// 256-bit `std::arch` paths (`vpmaddwd`-style integer MACs, 8-lane
    /// float dot/AXPY, `popcnt` plane reduction).
    Avx2,
}

impl KernelIsa {
    /// All tiers, narrowest first, for sweeps and `fig4`'s per-ISA rungs.
    pub const ALL: [KernelIsa; 2] = [KernelIsa::Scalar, KernelIsa::Avx2];

    /// Lowercase name, as accepted by `BUCKWILD_ISA` / `--isa` and
    /// recorded in the `hardware` block of the `BENCH_*.json` baselines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Scalar => "scalar",
            KernelIsa::Avx2 => "avx2",
        }
    }

    /// Widest vector register the tier uses, in bits. `Scalar` reports
    /// 128: every x86-64 core has SSE2 and LLVM autovectorizes the
    /// chunked fallback to it; non-x86 targets get the same baseline.
    #[must_use]
    pub fn simd_width_bits(self) -> u32 {
        match self {
            KernelIsa::Scalar => 128,
            KernelIsa::Avx2 => 256,
        }
    }

    fn from_u8(v: u8) -> Option<KernelIsa> {
        match v {
            1 => Some(KernelIsa::Scalar),
            2 => Some(KernelIsa::Avx2),
            _ => None,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            KernelIsa::Scalar => 1,
            KernelIsa::Avx2 => 2,
        }
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for KernelIsa {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" | "none" => Ok(KernelIsa::Scalar),
            "avx2" => Ok(KernelIsa::Avx2),
            "auto" | "native" => Ok(detected()),
            other => Err(format!(
                "unknown ISA `{other}` (expected scalar, avx2, or auto)"
            )),
        }
    }
}

/// Probes the hardware: the widest tier this CPU can execute. The result
/// is cached by `std`'s feature-detection layer.
#[must_use]
pub fn detected() -> KernelIsa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            KernelIsa::Avx2
        } else {
            KernelIsa::Scalar
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        KernelIsa::Scalar
    }
}

/// Whether the hardware `popcnt` instruction is available (used by the
/// bit-serial plane-reduction fast path; probed independently of the
/// vector tiers because it predates AVX2).
#[must_use]
pub fn popcnt_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Process-wide selection, initialized on first use (0 = uninitialized).
static ACTIVE: OnceLock<KernelIsa> = OnceLock::new();

/// Live override installed by [`scoped`]; 0 = none. Process-global (not
/// thread-local) so a scoped override reaches worker threads spawned by
/// a training run under measurement — see [`ScopedIsa`].
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn from_env() -> Option<KernelIsa> {
    let value = std::env::var("BUCKWILD_ISA").ok()?;
    match value.parse::<KernelIsa>() {
        Ok(isa) => Some(isa),
        Err(e) => {
            eprintln!("buckwild: ignoring BUCKWILD_ISA: {e}");
            None
        }
    }
}

/// The ISA the kernels execute with right now.
///
/// Resolution order: [`scoped`] override, then the value pinned by
/// [`set_active`] or, failing that, `BUCKWILD_ISA` / [`detected`] on
/// first use. Always clamped to [`detected`], so the returned tier is
/// guaranteed executable.
#[must_use]
pub fn active() -> KernelIsa {
    if let Some(isa) = KernelIsa::from_u8(OVERRIDE.load(Ordering::Relaxed)) {
        return isa.min(detected());
    }
    *ACTIVE.get_or_init(|| from_env().unwrap_or_else(detected).min(detected()))
}

/// Pins the process-wide ISA (the `--isa` flag). Returns `false` when
/// the selection was already initialized — by an earlier call or by a
/// kernel having already run — in which case the existing value stands.
pub fn set_active(isa: KernelIsa) -> bool {
    ACTIVE.set(isa.min(detected())).is_ok()
}

/// An RAII guard restoring the previous [`scoped`] override on drop.
///
/// The override is **process-global**: it reaches kernels on every
/// thread, including training workers spawned while the guard is live.
/// That is exactly what `fig4`'s per-ISA rungs and the training
/// equivalence tests need; concurrent guards on different threads would
/// race, so orchestration code holds at most one at a time.
#[derive(Debug)]
pub struct ScopedIsa {
    prev: u8,
}

/// Overrides the active ISA until the returned guard drops.
#[must_use]
pub fn scoped(isa: KernelIsa) -> ScopedIsa {
    let prev = OVERRIDE.swap(isa.to_u8(), Ordering::Relaxed);
    ScopedIsa { prev }
}

impl Drop for ScopedIsa {
    fn drop(&mut self) {
        OVERRIDE.store(self.prev, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for isa in KernelIsa::ALL {
            assert_eq!(isa.name().parse::<KernelIsa>().unwrap(), isa);
        }
        assert!("quantum".parse::<KernelIsa>().is_err());
        assert_eq!("AVX2".parse::<KernelIsa>().unwrap(), KernelIsa::Avx2);
        assert_eq!("auto".parse::<KernelIsa>().unwrap(), detected());
    }

    #[test]
    fn widths_are_monotone() {
        assert_eq!(KernelIsa::Scalar.simd_width_bits(), 128);
        assert_eq!(KernelIsa::Avx2.simd_width_bits(), 256);
        assert!(KernelIsa::Scalar < KernelIsa::Avx2);
    }

    #[test]
    fn active_is_clamped_and_scoped_overrides_nest() {
        // Whatever the environment pinned, active() never exceeds the
        // hardware.
        assert!(active() <= detected());
        {
            let _outer = scoped(KernelIsa::Scalar);
            assert_eq!(active(), KernelIsa::Scalar);
            {
                let _inner = scoped(KernelIsa::Avx2);
                assert_eq!(active(), KernelIsa::Avx2.min(detected()));
            }
            assert_eq!(active(), KernelIsa::Scalar);
        }
        assert!(active() <= detected());
    }
}
