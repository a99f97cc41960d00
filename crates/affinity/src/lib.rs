//! Best-effort CPU affinity and hardware interrogation.
//!
//! The shard-per-core backend wants each worker parked on its own core so
//! a shard's cache lines never migrate; the watchdog post-mortem wants to
//! stamp its bundle with the topology it ran on so bundles across machines
//! are interpretable. Both live here, in the one crate of the workspace that
//! is allowed a single, tightly scoped `unsafe` block: the raw
//! `sched_setaffinity` syscall on x86-64 Linux. There is no libc in the
//! dependency-free workspace, so the syscall is issued directly; on every
//! other platform [`pin_current_thread`] is a no-op that reports `false`.
//!
//! Pinning is strictly *best-effort*: a failure (restricted cpuset,
//! exotic kernel, non-Linux host) degrades to the unpinned behavior the
//! engines always tolerate. Nothing may depend on pinning for
//! correctness, only for measurement stability.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

/// Pins the calling thread to `core` (best effort).
///
/// Returns `true` when the kernel accepted the mask. On non-Linux or
/// non-x86-64 targets this is a no-op returning `false`. Cores beyond the
/// supported mask width (1024) are rejected rather than silently wrapped.
#[must_use]
pub fn pin_current_thread(core: usize) -> bool {
    if core >= 1024 {
        return false;
    }
    pin_impl(core)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_impl(core: usize) -> bool {
    // cpu_set_t is a bitmask; 16 u64 words cover 1024 CPUs.
    let mut mask = [0u64; 16];
    mask[core / 64] |= 1u64 << (core % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity(0, len, mask) only *reads* `mask`, which
    // outlives the call; pid 0 targets the calling thread; rcx/r11 are
    // declared clobbered per the x86-64 syscall ABI.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,               // pid 0 = calling thread
            in("rsi") core::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly)
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_impl(_core: usize) -> bool {
    false
}

/// Number of logical cores available to this process (at least 1).
#[must_use]
pub fn core_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The cache-line size in bytes, read from sysfs on Linux; 64 when the
/// kernel does not expose it (and on every non-Linux platform, where 64
/// is the near-universal value).
#[must_use]
pub fn cache_line_bytes() -> u64 {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&b| b > 0)
        .unwrap_or(64)
}

/// Widest SIMD register width in bits the running CPU supports (128 on
/// non-x86-64 — the portable baseline every 64-bit target provides).
///
/// Delegates to the kernels' [`buckwild_kernels::isa`] probe so the
/// hardware preamble and the kernel dispatch can never disagree about
/// what the machine offers.
#[must_use]
pub fn simd_width_bits() -> u32 {
    buckwild_kernels::isa::detected().simd_width_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_best_effort_and_never_panics() {
        // Core 0 always exists; the call may still fail under restricted
        // cpusets, which is fine — only the *contract* is checked here.
        let _ = pin_current_thread(0);
        assert!(!pin_current_thread(1 << 20), "out-of-range cores rejected");
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pinning_to_core_zero_succeeds_on_linux() {
        assert!(pin_current_thread(0));
        // Re-pin to the full set is not attempted: workers are pinned for
        // their whole lifetime, so the test thread staying on core 0 is
        // acceptable.
    }

    #[test]
    fn hardware_interrogation_reports_sane_values() {
        assert!(core_count() >= 1);
        let line = cache_line_bytes();
        assert!(line.is_power_of_two() && (16..=1024).contains(&line));
        let simd = simd_width_bits();
        assert!([128, 256].contains(&simd));
    }
}
