//! Timed training repetitions: one `SgdConfig::train` call each, clocked
//! from outside, with the `on_epoch` callback's timestamps as the only
//! view inside.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::host::StealMeter;
use crate::span::SpanLog;
use crate::surface::{
    counter, sgd_config, Data, EpochSnapshot, QuantizedModel, SnapshotHub, TrainControl,
};
use crate::workload::Spec;

/// What `on_epoch` saw at the end of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMark {
    /// When the callback ran.
    pub at: Instant,
    /// `TrainProgress::wall_seconds`: cumulative worker-busy seconds.
    pub busy_s: f64,
    /// Mean training loss after the epoch.
    pub loss: f64,
}

/// One `train()` call as seen from outside.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Just before `train()`.
    pub start: Instant,
    /// Just after `train()` returned.
    pub end: Instant,
    /// One mark per epoch.
    pub marks: Vec<EpochMark>,
    /// `report.numbers_processed()`.
    pub numbers_processed: u64,
    /// `report.epoch_losses()`.
    pub losses: Vec<f64>,
    /// `shard.*` counters from `report.metrics()`: packets, bytes, skips.
    pub shard: [u64; 3],
    /// Machine CPU share stolen while the call ran.
    pub steal_frac: f64,
    /// Why the repetition failed, if it did.
    pub failure: Option<String>,
}

impl Rep {
    /// Wall seconds of the whole call.
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Dataset numbers per wall second of the whole call, in 1e9/s.
    pub fn gnps(&self) -> f64 {
        self.numbers_processed as f64 / self.wall_s() / 1e9
    }

    /// Worker-busy seconds of the whole call.
    pub fn busy_s(&self) -> f64 {
        self.marks.last().map_or(0.0, |m| m.busy_s)
    }

    /// The first epoch (0-based) whose loss is at or below `target`.
    pub fn crossing(&self, target: f64) -> Option<usize> {
        self.marks.iter().position(|m| m.loss <= target)
    }

    /// Seconds from entering `train()` to the callback of epoch `k`.
    pub fn at_s(&self, k: usize) -> f64 {
        (self.marks[k].at - self.start).as_secs_f64()
    }
}

/// The benchmark's `on_snapshot` wrapper: forwards every snapshot to the
/// hub under a run-wide increasing epoch (each `train()` call restarts
/// its own at 0) and archives it so served responses can be checked
/// against the exact model their epoch names.
#[derive(Debug)]
pub struct Publisher {
    hub: Arc<SnapshotHub>,
    next_base: AtomicU64,
    archive: Mutex<VecDeque<(u64, Arc<QuantizedModel>)>>,
    /// `(start, end, epoch)` of every `hub.publish` call, when tracing.
    publishes: Option<Mutex<Vec<(Instant, Instant, u64)>>>,
}

/// Snapshots kept for verification. A response is checked as soon as it
/// arrives, so its snapshot is at most a few epochs old.
const ARCHIVE_DEPTH: usize = 32;

impl Publisher {
    /// A publisher feeding `hub`; `traced` also records publish spans.
    pub fn new(hub: Arc<SnapshotHub>, traced: bool) -> Arc<Self> {
        Arc::new(Publisher {
            hub,
            next_base: AtomicU64::new(0),
            archive: Mutex::new(VecDeque::new()),
            publishes: traced.then(|| Mutex::new(Vec::new())),
        })
    }

    /// The hub this publisher feeds.
    pub fn hub(&self) -> &Arc<SnapshotHub> {
        &self.hub
    }

    /// An `on_snapshot` observer for one `train()` call of `epochs` epochs.
    fn observer(self: &Arc<Self>, epochs: u64) -> impl Fn(EpochSnapshot) + Send + Sync + 'static {
        let base = self.next_base.fetch_add(epochs, Ordering::Relaxed);
        let this = Arc::clone(self);
        move |snapshot: EpochSnapshot| {
            let epoch = base + snapshot.epoch;
            {
                let mut archive = this.archive.lock().expect("archive lock poisoned");
                if archive.len() == ARCHIVE_DEPTH {
                    archive.pop_front();
                }
                archive.push_back((epoch, Arc::clone(&snapshot.model)));
            }
            let start = Instant::now();
            this.hub.publish(EpochSnapshot {
                epoch,
                model: snapshot.model,
            });
            if let Some(publishes) = &this.publishes {
                publishes.lock().expect("publish log poisoned").push((
                    start,
                    Instant::now(),
                    epoch,
                ));
            }
        }
    }

    /// The archived model published as `epoch`.
    pub fn model(&self, epoch: u64) -> Option<Arc<QuantizedModel>> {
        let archive = self.archive.lock().expect("archive lock poisoned");
        archive
            .iter()
            .rev()
            .find(|(e, _)| *e == epoch)
            .map(|(_, m)| Arc::clone(m))
    }

    /// Adds a `publish[k]` → `hub.publish` span pair per recorded publish.
    pub fn drain_spans(&self, log: &mut SpanLog) {
        let Some(publishes) = &self.publishes else {
            return;
        };
        for (start, end, epoch) in publishes.lock().expect("publish log poisoned").drain(..) {
            let outer = log.push(format!("publish[{epoch}]"), start, end, None, epoch, 2);
            log.push("hub.publish", start, end, Some(outer), epoch, 2);
        }
    }
}

/// Runs one `train()` call of `spec` on `threads` workers.
///
/// A set `stop` flag ends the call at the next epoch boundary; such a
/// call returns `None` — it is neither a sample nor a failure.
pub fn run_rep(
    spec: &Spec,
    data: &Data,
    seed: u64,
    threads: usize,
    publisher: &Arc<Publisher>,
    stop: Option<&Arc<AtomicBool>>,
) -> Option<Rep> {
    let marks = Arc::new(Mutex::new(Vec::with_capacity(spec.epochs)));
    let stopped = Arc::new(AtomicBool::new(false));
    let steal = StealMeter::start();
    // The clock starts before the configuration is built: observers and
    // builder calls are part of what a caller of `train()` pays.
    let start = Instant::now();
    let config = {
        let marks = Arc::clone(&marks);
        let stop = stop.cloned();
        let stopped = Arc::clone(&stopped);
        sgd_config(
            spec.backend,
            threads,
            spec.epochs,
            seed,
            spec.step_size,
            spec.step_decay,
        )
        .on_snapshot(publisher.observer(spec.epochs as u64))
        .on_epoch(move |progress| {
            marks.lock().expect("marks lock poisoned").push(EpochMark {
                at: Instant::now(),
                busy_s: progress.wall_seconds,
                loss: progress.loss.unwrap_or(f64::NAN),
            });
            if stop.as_ref().is_some_and(|s| s.load(Ordering::Relaxed)) {
                stopped.store(true, Ordering::Relaxed);
                TrainControl::Stop
            } else {
                TrainControl::Continue
            }
        })
    };
    let result = data.train(&config);
    let end = Instant::now();
    let steal_frac = steal.frac();
    drop(config);
    if stopped.load(Ordering::Relaxed) {
        return None;
    }
    let marks = std::mem::take(&mut *marks.lock().expect("marks lock poisoned"));
    let mut rep = Rep {
        start,
        end,
        marks,
        numbers_processed: 0,
        losses: Vec::new(),
        shard: [0; 3],
        steal_frac,
        failure: None,
    };
    match result {
        Err(e) => rep.failure = Some(format!("train() returned an error: {e}")),
        Ok(report) => {
            rep.numbers_processed = report.numbers_processed();
            rep.losses = report.epoch_losses().to_vec();
            let count = |name| report.metrics().counter(name).unwrap_or(0);
            rep.shard = [
                count(counter::DELTA_PACKETS),
                count(counter::DELTA_BYTES),
                count(counter::RING_FULL_SKIPS),
            ];
        }
    }
    Some(rep)
}

/// The correctness checks of a full-length repetition: exact work count,
/// one finite loss and one callback per epoch, and a final loss at or
/// below the target (which implies the target was crossed). `None` when
/// all hold.
pub fn check(spec: &Spec, data: &Data, rep: &Rep) -> Option<String> {
    if rep.failure.is_some() {
        return rep.failure.clone();
    }
    let expected = spec.epochs as u64 * data.numbers();
    if rep.numbers_processed != expected {
        return Some(format!(
            "numbers_processed {} != epochs x dataset numbers {expected}",
            rep.numbers_processed
        ));
    }
    if rep.losses.len() != spec.epochs || rep.marks.len() != spec.epochs {
        return Some(format!(
            "{} losses and {} callbacks for {} epochs",
            rep.losses.len(),
            rep.marks.len(),
            spec.epochs
        ));
    }
    if let Some(bad) = rep.losses.iter().find(|l| !l.is_finite()) {
        return Some(format!("non-finite loss {bad}"));
    }
    let last = rep.losses[spec.epochs - 1];
    if last > spec.target_loss {
        return Some(format!(
            "final loss {last} above target {}",
            spec.target_loss
        ));
    }
    None
}

/// The spans of one repetition, built from the callback timestamps:
/// `outer` (`rep` or `t1_baseline`) → `train_call` → {`prepare`, `epoch[k]` → {`busy`, `driver`},
/// `tail`}. `epoch0_overhead_s` is what the driver spends after epoch 0's
/// workers finish (one evaluation plus one publish, measured directly),
/// which separates `prepare` from `epoch[0]`.
pub fn push_rep_spans(
    log: &mut SpanLog,
    outer: &str,
    rep: &Rep,
    rep_id: u64,
    epoch0_overhead_s: f64,
    lane: u32,
) {
    let secs = std::time::Duration::from_secs_f64;
    let outer = log.push(outer, rep.start, rep.end, None, rep_id, lane);
    let call = log.push("train_call", rep.start, rep.end, Some(outer), rep_id, lane);
    let mut prev = rep.start;
    let mut prev_busy = 0.0;
    for (k, mark) in rep.marks.iter().enumerate() {
        let busy = (mark.busy_s - prev_busy).max(0.0);
        let mut epoch_start = prev;
        if k == 0 {
            let epoch_len = secs(busy + epoch0_overhead_s.max(0.0));
            epoch_start = mark.at.checked_sub(epoch_len).map_or(prev, |t| t.max(prev));
            log.push("prepare", rep.start, epoch_start, Some(call), rep_id, lane);
        }
        let epoch = log.push(
            format!("epoch[{k}]"),
            epoch_start,
            mark.at,
            Some(call),
            rep_id,
            lane,
        );
        let busy_end = (epoch_start + secs(busy)).min(mark.at);
        log.push("busy", epoch_start, busy_end, Some(epoch), rep_id, lane);
        log.push("driver", busy_end, mark.at, Some(epoch), rep_id, lane);
        prev = mark.at;
        prev_busy = mark.busy_s;
    }
    log.push("tail", prev, rep.end, Some(call), rep_id, lane);
}

/// Seconds from entering `train()` to the start of epoch 0.
pub fn prepare_s(rep: &Rep, epoch0_overhead_s: f64) -> f64 {
    match rep.marks.first() {
        Some(first) => {
            ((first.at - rep.start).as_secs_f64() - first.busy_s - epoch0_overhead_s).max(0.0)
        }
        None => 0.0,
    }
}

/// Seconds between the last callback and `prepare` that workers were not
/// busy: spawn/join, evaluation, publish.
pub fn driver_s(rep: &Rep, epoch0_overhead_s: f64) -> f64 {
    match rep.marks.last() {
        Some(last) => {
            ((last.at - rep.start).as_secs_f64() - rep.busy_s() - prepare_s(rep, epoch0_overhead_s))
                .max(0.0)
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rep_with(marks: &[(u64, f64, f64)], end_ms: u64) -> Rep {
        let start = Instant::now();
        Rep {
            start,
            end: start + Duration::from_millis(end_ms),
            marks: marks
                .iter()
                .map(|&(at_ms, busy_s, loss)| EpochMark {
                    at: start + Duration::from_millis(at_ms),
                    busy_s,
                    loss,
                })
                .collect(),
            numbers_processed: 3_000_000,
            losses: marks.iter().map(|m| m.2).collect(),
            shard: [0; 3],
            steal_frac: 0.0,
            failure: None,
        }
    }

    #[test]
    fn crossing_is_the_first_epoch_at_or_below_target() {
        let rep = rep_with(&[(100, 0.05, 0.7), (200, 0.1, 0.5), (300, 0.15, 0.6)], 310);
        assert_eq!(rep.crossing(0.5), Some(1));
        assert_eq!(rep.crossing(0.4), None);
        assert!((rep.at_s(1) - 0.2).abs() < 1e-9);
        assert!((rep.gnps() - 3e6 / 0.31 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn ledger_splits_wall_into_prepare_busy_driver_tail() {
        // 40 ms prepare, then 3 epochs of 50 ms busy + 10 ms driver, 10 ms tail.
        let mut log = SpanLog::new();
        let rep = rep_with(&[(100, 0.05, 0.7), (160, 0.1, 0.6), (220, 0.15, 0.5)], 230);
        assert!((prepare_s(&rep, 0.010) - 0.040).abs() < 1e-9);
        assert!((driver_s(&rep, 0.010) - 0.030).abs() < 1e-9);
        push_rep_spans(&mut log, "rep", &rep, 0, 0.010, 0);
        let by_name = log.self_time_by_name();
        let ns = |name: &str| by_name.iter().find(|r| r.0 == name).map(|r| r.1);
        assert_eq!(ns("busy"), Some(150_000_000));
        assert_eq!(ns("driver"), Some(30_000_000));
        assert_eq!(ns("prepare"), Some(40_000_000));
        assert_eq!(ns("tail"), Some(10_000_000));
        // Children cover their parents exactly: no self time is left over.
        assert_eq!(ns("epoch"), Some(0));
        assert_eq!(ns("train_call"), Some(0));
        assert_eq!(ns("rep"), Some(0));
    }
}
