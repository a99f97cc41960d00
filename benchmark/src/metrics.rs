//! Every metric the benchmark prints: name, unit, direction and, for the
//! end-to-end ones, the bound by which a median may worsen before a
//! change counts as a regression. `BENCHMARK.json` repeats this table; a
//! test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Name, exactly as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening of the median that counts as a regression;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports all of them,
/// from the untraced pass, each a wall clock the benchmark takes itself.
pub const END_TO_END: [Def; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("train_gnps", "Gnum/s", Higher, 0.25),
    e2e("time_to_loss_s", "s", Lower, 0.25),
    e2e("serve_rps", "1/s", Higher, 0.25),
    e2e("serve_p50_us", "us", Lower, 0.25),
    e2e("serve_p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// The ledger of the traced pass; layer = module name.
pub const PER_LAYER: [Def; 46] = [
    layer("dataset.generate_s", "s", Lower),
    layer("dataset.quantize_s", "s", Lower),
    layer("kernels.dot_ns", "ns", Lower),
    layer("kernels.axpy_ns", "ns", Lower),
    layer("kernels.iter_gnps", "Gnum/s", Higher),
    layer("core.model.dot_ns", "ns", Lower),
    layer("core.model.axpy_ns", "ns", Lower),
    layer("core.model.iter_gnps", "Gnum/s", Higher),
    layer("core.model.contended_iter_gnps", "Gnum/s", Higher),
    layer("core.train.busy_s", "s", Lower),
    layer("core.train.busy_gnps", "Gnum/s", Higher),
    layer("core.train.t1_busy_gnps", "Gnum/s", Higher),
    layer("core.train.scaling_eff", "ratio", Higher),
    layer("core.train.loop_overhead_frac", "ratio", Lower),
    layer("core.train.prepare_s", "s", Lower),
    layer("core.train.driver_s", "s", Lower),
    layer("core.metrics.eval_s", "s", Lower),
    layer("core.train.epochs_to_loss", "count", Lower),
    layer("core.train.busy_s_to_loss", "s", Lower),
    layer("core.train.unaccounted_frac", "ratio", Lower),
    layer("core.shard.delta_packets", "count", Lower),
    layer("core.shard.delta_bytes", "bytes", Lower),
    layer("core.shard.ring_full_skips", "count", Lower),
    layer("kernels.delta.quantize_ns", "ns", Lower),
    layer("kernels.delta.apply_ns", "ns", Lower),
    layer("core.ring.push_pop_ns", "ns", Lower),
    layer("core.shard.sync_frac", "ratio", Lower),
    layer("serve.wire.encode_request_ns", "ns", Lower),
    layer("serve.wire.decode_request_ns", "ns", Lower),
    layer("serve.wire.encode_response_ns", "ns", Lower),
    layer("serve.wire.decode_response_ns", "ns", Lower),
    layer("core.predict.score_batch_ns", "ns", Lower),
    layer("core.predict.snapshot_ns", "ns", Lower),
    layer("serve.hub.publish_ns", "ns", Lower),
    layer("serve.hub.current_ns", "ns", Lower),
    layer("serve.hub.publishes_per_s", "1/s", Higher),
    layer("serve.hub.epoch_lag_mean", "count", Lower),
    layer("serve.client.write_us", "us", Lower),
    layer("serve.client.wait_us", "us", Lower),
    layer("serve.server.transport_us", "us", Lower),
    layer("serve.client.p999_us", "us", Lower),
    layer("serve.client.max_us", "us", Lower),
    layer("serve.server.requests", "count", Higher),
    layer("host.steal_frac", "ratio", Lower),
    layer("host.nproc", "count", Higher),
    layer("bench.trace_overhead_frac", "ratio", Lower),
];

/// The definitions a pass reports: end-to-end untraced, per-layer traced.
pub fn defs(traced: bool) -> &'static [Def] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.chars().all(ok), "{}", d.name);
        }
        for d in &END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
