//! Deterministic fault and staleness injection for asynchronous SGD.
//!
//! The convergence results this workspace reproduces — Buckwild! surviving
//! relaxed consistency, the obstinate cache ignoring invalidates with "no
//! detectable effect" (paper §6.2) — all hinge on *how much* staleness and
//! write loss actually occurs. Real asynchrony produces those faults
//! uncontrollably and irreproducibly; this crate produces them **on
//! purpose and on schedule**, so an async failure mode becomes a seeded,
//! regression-testable fixture.
//!
//! The pieces:
//!
//! * [`FaultPlan`] — a seeded, validated description of the faults to
//!   inject: worker stalls, dropped or delayed shared-model writes (the
//!   software analogue of the obstinate cache's ignored invalidates),
//!   per-worker progress skew, stale read views (obstinacy), mid-epoch
//!   worker crashes, and the checkpoint cadence used to recover from them.
//! * [`WorkerRun`] — the deterministic per-`(worker, epoch)` expansion of
//!   a plan: a stream of [`IterFate`]/[`WriteFate`] decisions derived from
//!   `buckwild-prng` streams split off the plan seed. Same seed ⇒
//!   byte-identical schedule ([`FaultPlan::schedule_bytes`]).
//! * [`PlanInjector`]/[`PlanWorker`] — a validated plan as the training
//!   engine in `buckwild` consults it: one stream per `(worker, epoch)`,
//!   each scheduled crash fired once per run. A run without a plan holds
//!   no injector at all, so the engine has one worker loop, not one per
//!   fault source.
//!
//! # Example
//!
//! ```
//! use buckwild_chaos::{FaultPlan, IterFate, WriteFate};
//!
//! let plan = FaultPlan::new(42).drop_writes(0.5).stalls(0.1, 8);
//! plan.validate().unwrap();
//! // The schedule is a pure function of (seed, worker, epoch).
//! let a = plan.schedule_bytes(2, 3, 100);
//! let b = plan.schedule_bytes(2, 3, 100);
//! assert_eq!(a, b);
//! let mut run = plan.worker_run(0, 0);
//! match run.iter_fate() {
//!     IterFate::Proceed | IterFate::Stall(_) | IterFate::Crash(_) => {}
//! }
//! match run.write_fate() {
//!     WriteFate::Apply | WriteFate::Drop | WriteFate::Delay(_) => {}
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod injector;
mod plan;
mod schedule;

pub use injector::{PlanInjector, PlanWorker};
pub use plan::{CrashSpec, FaultPlan, PlanError};
pub use schedule::{IterFate, WorkerRun, WriteFate};

/// Metric names recorded by the injected training engines.
pub mod metric {
    /// Counter: iterations that began with an injected stall window.
    pub const STALLS: &str = "chaos.stalls";
    /// Counter: shared-model writes dropped by the fault plan.
    pub const DROPPED_WRITES: &str = "chaos.dropped_writes";
    /// Counter: shared-model writes delayed by the fault plan.
    pub const DELAYED_WRITES: &str = "chaos.delayed_writes";
    /// Counter: worker crashes recovered from a model checkpoint.
    pub const RECOVERIES: &str = "chaos.recoveries";
    /// Counter: iterations replayed after a checkpoint rollback.
    pub const REPLAYED_ITERATIONS: &str = "chaos.replayed_iterations";
    /// Histogram: scheduler ticks between a write's creation and its
    /// application to the shared model (0 for undelayed writes).
    pub const WRITE_STALENESS: &str = "chaos.write_staleness";
    /// Histogram: how many iterations a worker lagged the most advanced
    /// worker at each iteration start (the bounded-staleness regime).
    pub const PROGRESS_LAG: &str = "chaos.progress_lag";
    /// Histogram: injected stall durations in scheduler ticks.
    pub const STALL_TICKS: &str = "chaos.stall_ticks";
}
