//! What the benchmark reads about the machine it runs on: core count,
//! CPU time stolen by the hypervisor, and this process's peak memory.

use std::fs;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cumulative (stolen, total) CPU ticks of the whole machine, from the
/// first line of `/proc/stat`; `None` where the file is absent.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already included in user and nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of machine CPU time stolen over an interval: above a few per
/// cent, a timing taken in that interval says more about the neighbours
/// than about the program.
#[derive(Debug, Clone, Copy)]
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    /// Starts an interval.
    pub fn start() -> Self {
        StealMeter(cpu_ticks())
    }

    /// Stolen share since [`StealMeter::start`]; 0 where `/proc/stat`
    /// is unavailable or the interval is too short to judge (a tick is
    /// 10 ms, so a few of them say nothing).
    pub fn frac(&self) -> f64 {
        const MIN_TICKS: u64 = 50;
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 >= t0 + MIN_TICKS => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// A repetition whose stolen share exceeds this is flagged `noisy`.
pub const NOISY_STEAL_FRAC: f64 = 0.05;

/// Peak resident set of this process in MiB (`VmHWM`); 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The data caches of cpu0 as `L1d 96K, L2 4096K, …`, for the report's
/// hardware preamble.
pub fn cache_summary() -> String {
    let mut levels = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| {
            fs::read_to_string(format!("{dir}/{file}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        match (read("level"), read("type"), read("size")) {
            (Some(level), Some(kind), Some(size)) if kind != "Instruction" => {
                let suffix = if kind == "Data" { "d" } else { "" };
                levels.push(format!("L{level}{suffix} {size}"));
            }
            _ => {}
        }
    }
    if levels.is_empty() {
        "unknown".to_string()
    } else {
        levels.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_a_share() {
        let meter = StealMeter::start();
        let f = meter.frac();
        assert!((0.0..=1.0).contains(&f), "{f}");
    }

    #[test]
    fn nproc_is_positive() {
        assert!(nproc() >= 1);
    }
}
