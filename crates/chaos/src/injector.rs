//! The training engine's view of a [`FaultPlan`]: one fault stream per
//! `(worker, epoch)`, with each scheduled crash consumed on its first fire.

use std::num::NonZeroU32;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::plan::{FaultPlan, PlanError};
use crate::schedule::{IterFate, WorkerRun, WriteFate};

/// A validated [`FaultPlan`] as the training engine consults it.
///
/// Holds one consumed-flag per scheduled crash so each crash fires at most
/// once per training run even when an epoch is replayed after recovery.
#[derive(Debug)]
pub struct PlanInjector {
    plan: FaultPlan,
    fired: Vec<AtomicBool>,
}

impl PlanInjector {
    /// Builds an injector from `plan`.
    ///
    /// # Errors
    ///
    /// Returns the plan's [`PlanError`] if it fails [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan) -> Result<Self, PlanError> {
        plan.validate()?;
        let fired = plan
            .crashes()
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect();
        Ok(PlanInjector { plan, fired })
    }

    /// Returns the fault stream for one `(worker, epoch)` pair.
    #[must_use]
    pub fn worker(&self, worker: usize, epoch: usize) -> PlanWorker<'_> {
        PlanWorker {
            run: self.plan.worker_run(worker, epoch),
            fired: &self.fired,
        }
    }

    /// How often (in epochs) the engine should checkpoint the model for
    /// crash recovery. `None` disables checkpointing.
    #[must_use]
    pub fn checkpoint_epochs(&self) -> Option<NonZeroU32> {
        if self.plan.needs_checkpoints() {
            NonZeroU32::new(1)
        } else {
            None
        }
    }
}

/// The fault stream one training thread consults during one epoch.
#[derive(Debug)]
pub struct PlanWorker<'a> {
    run: WorkerRun,
    fired: &'a [AtomicBool],
}

impl PlanWorker<'_> {
    /// The fate of the next iteration; call exactly once per iteration. A
    /// crash another stream (or an earlier attempt at this epoch) already
    /// fired comes back as [`IterFate::Proceed`].
    pub fn iter_fate(&mut self) -> IterFate {
        match self.run.iter_fate() {
            IterFate::Crash(idx) => {
                if self.fired[idx].swap(true, Ordering::Relaxed) {
                    IterFate::Proceed
                } else {
                    IterFate::Crash(idx)
                }
            }
            fate => fate,
        }
    }

    /// `true` if the next shared-model write should reach the model. The
    /// engine has no delay queue, so [`WriteFate::Delay`] applies at once.
    pub fn keep_write(&mut self) -> bool {
        !matches!(self.run.write_fate(), WriteFate::Drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_injector_validates() {
        assert!(PlanInjector::new(FaultPlan::new(0).drop_writes(2.0)).is_err());
        assert!(PlanInjector::new(FaultPlan::new(0).drop_writes(0.2)).is_ok());
    }

    #[test]
    fn crash_consumed_once_across_replays() {
        let inj = PlanInjector::new(FaultPlan::new(4).crash(0, 0, 2)).unwrap();
        let mut first = inj.worker(0, 0);
        let fates: Vec<_> = (0..4).map(|_| first.iter_fate()).collect();
        assert_eq!(fates[2], IterFate::Crash(0));
        // The replayed epoch sees the crash slot already consumed.
        let mut replay = inj.worker(0, 0);
        assert!((0..4).all(|_| replay.iter_fate() == IterFate::Proceed));
    }

    #[test]
    fn checkpoint_cadence_follows_plan() {
        let benign = PlanInjector::new(FaultPlan::new(0).drop_writes(0.1)).unwrap();
        assert_eq!(benign.checkpoint_epochs(), None);
        let crashy = PlanInjector::new(FaultPlan::new(0).crash(0, 0, 0)).unwrap();
        assert_eq!(crashy.checkpoint_epochs(), NonZeroU32::new(1));
    }
}
