//! Run results: everything a run produces, with timing context.

use serde::{Deserialize, Serialize};
use waffle_mem::{HeapStats, NullRefError, ObjectId, SiteId};

use crate::ids::ThreadId;
use crate::time::SimTime;

/// An unhandled NULL-reference exception, with run context.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimException {
    /// The underlying heap error.
    pub error: NullRefError,
    /// Thread that faulted (and was killed).
    pub thread: ThreadId,
    /// Virtual time of the faulting access.
    pub time: SimTime,
}

/// A handled application exception (`Op::Throw`): a graceful early exit,
/// not a bug manifestation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppException {
    /// Static location of the `throw`.
    pub site: SiteId,
    /// Thread that threw.
    pub thread: ThreadId,
    /// Virtual time of the throw.
    pub time: SimTime,
}

/// A thread-safety violation: two thread-unsafe API calls on one object
/// with overlapping execution windows (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TsvViolation {
    /// The shared object.
    pub obj: ObjectId,
    /// Static location of the earlier call.
    pub first_site: SiteId,
    /// Static location of the later (overlapping) call.
    pub second_site: SiteId,
    /// Threads involved (earlier, later).
    pub threads: (ThreadId, ThreadId),
    /// Virtual time at which the overlap was established.
    pub time: SimTime,
}

/// One injected delay, as recorded by the engine's delay ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelayRecord {
    /// Delayed thread.
    pub thread: ThreadId,
    /// Site the delay was injected before.
    pub site: SiteId,
    /// Object of the delayed access.
    pub obj: ObjectId,
    /// Start of the delay.
    pub start: SimTime,
    /// Length of the delay.
    pub dur: SimTime,
}

impl DelayRecord {
    /// End instant of the delay.
    pub fn end(&self) -> SimTime {
        self.start + self.dur
    }
}

/// Why a thread was blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockedBy {
    /// Waiting to acquire a mutex.
    Lock(crate::ids::LockId),
    /// Waiting on a sticky event.
    Event(crate::ids::EventId),
    /// Waiting for other threads to finish.
    Join,
}

/// An interval during which a thread was blocked on synchronization.
///
/// WaffleBasic's happens-before inference consumes these: a delay at ℓ1
/// that shows up as a proportional blocked interval right before ℓ2 in
/// another thread implies a likely ordering (§2, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockedInterval {
    /// The blocked thread.
    pub thread: ThreadId,
    /// Block start.
    pub start: SimTime,
    /// Block end (resumption).
    pub end: SimTime,
    /// Cause of the block.
    pub by: BlockedBy,
}

impl BlockedInterval {
    /// Length of the interval.
    pub fn len(&self) -> SimTime {
        self.end - self.start
    }

    /// Whether the interval is empty (uncontended operation).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// One recently executed instrumented access, as kept in a thread's
/// context ring buffer (the "stack trace" analogue of §5's bug reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecentOp {
    /// Static location.
    pub site: SiteId,
    /// Operation class.
    pub kind: waffle_mem::AccessKind,
    /// Target object.
    pub obj: ObjectId,
    /// Execution time.
    pub time: SimTime,
}

/// A thread's execution context, snapshotted when a bug manifests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadContext {
    /// The thread.
    pub thread: ThreadId,
    /// Script the thread was executing.
    pub script: String,
    /// Whether this thread raised the exception.
    pub faulting: bool,
    /// The last instrumented accesses the thread performed (most recent
    /// last), the simulated analogue of its stack trace.
    pub recent: Vec<RecentOp>,
}

/// A fork edge in the run's thread tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForkEdge {
    /// Forking thread.
    pub parent: ThreadId,
    /// Created thread.
    pub child: ThreadId,
    /// Fork instant.
    pub time: SimTime,
}

/// Everything one simulated run produced.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunResult {
    /// Virtual end-to-end time (max thread finish time, or the deadline).
    pub end_time: SimTime,
    /// Whether the run hit the configured deadline.
    pub timed_out: bool,
    /// Unhandled NULL-reference exceptions (MemOrder manifestations).
    pub exceptions: Vec<SimException>,
    /// Handled application exceptions.
    pub app_exceptions: Vec<AppException>,
    /// Thread-safety violations detected.
    pub tsv_violations: Vec<TsvViolation>,
    /// Every delay injected (the delay ledger).
    pub delays: Vec<DelayRecord>,
    /// Every synchronization block.
    pub blocked: Vec<BlockedInterval>,
    /// The fork tree.
    pub forks: Vec<ForkEdge>,
    /// Heap statistics.
    pub heap: HeapStats,
    /// Dynamic execution count per static site, indexed by site id (see
    /// [`RunResult::dyn_count`]).
    pub site_dyn_counts: Vec<u64>,
    /// Threads spawned (including the root).
    pub threads_spawned: u32,
    /// Total operations executed.
    pub ops_executed: u64,
    /// Instrumented operations executed.
    pub instrumented_ops: u64,
    /// Threads still blocked when the run ended (e.g. their signaller died
    /// from an exception).
    pub stranded_threads: u32,
    /// Tasks spawned onto the task queue.
    pub tasks_spawned: u32,
    /// Per-thread execution contexts snapshotted at the first unhandled
    /// NULL-reference exception (the §5 bug-report "stack traces for all
    /// threads"); empty for clean runs.
    pub thread_contexts: Vec<ThreadContext>,
}

impl RunResult {
    /// Total injected delay time (the `D` of §3.3).
    pub fn total_delay(&self) -> SimTime {
        self.delays.iter().map(|d| d.dur).sum()
    }

    /// Length of the union ("time projection") of all delay intervals.
    pub(crate) fn delay_projection(&self) -> SimTime {
        let mut iv: Vec<(SimTime, SimTime)> =
            self.delays.iter().map(|d| (d.start, d.end())).collect();
        iv.sort();
        let mut total = SimTime::ZERO;
        let mut cur: Option<(SimTime, SimTime)> = None;
        for (s, e) in iv {
            match cur {
                None => cur = Some((s, e)),
                Some((cs, ce)) => {
                    if s <= ce {
                        cur = Some((cs, ce.max(e)));
                    } else {
                        total += ce - cs;
                        cur = Some((s, e));
                    }
                }
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    /// The delay-overlap measure of §3.3: the complement of the ratio
    /// between the time projection of all delays and the total delay
    /// injected (`0` when no delays overlap, approaching `1` when all do).
    /// Returns `0.0` for delay-free runs.
    pub fn delay_overlap_ratio(&self) -> f64 {
        let total = self.total_delay();
        if total == SimTime::ZERO {
            return 0.0;
        }
        1.0 - self.delay_projection().as_us() as f64 / total.as_us() as f64
    }

    /// How many times `site` executed in this run (0 for a site the run
    /// never reached).
    pub fn dyn_count(&self, site: SiteId) -> u64 {
        self.site_dyn_counts
            .get(site.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Whether the run manifested a MemOrder bug (an unhandled NULL
    /// reference exception).
    pub fn manifested(&self) -> bool {
        !self.exceptions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;

    fn delay(site: u32, start: u64, dur: u64) -> DelayRecord {
        DelayRecord {
            thread: ThreadId(0),
            site: SiteId(site),
            obj: ObjectId(0),
            start: us(start),
            dur: us(dur),
        }
    }

    #[test]
    fn overlap_ratio_zero_when_disjoint() {
        let r = RunResult {
            delays: vec![delay(0, 0, 10), delay(1, 20, 10)],
            ..RunResult::default()
        };
        assert_eq!(r.total_delay(), us(20));
        assert_eq!(r.delay_projection(), us(20));
        assert!(r.delay_overlap_ratio().abs() < 1e-9);
    }

    #[test]
    fn overlap_ratio_half_when_fully_overlapping_pair() {
        let r = RunResult {
            delays: vec![delay(0, 0, 10), delay(1, 0, 10)],
            ..RunResult::default()
        };
        assert_eq!(r.delay_projection(), us(10));
        assert!((r.delay_overlap_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overlap_ratio_handles_partial_and_unsorted_intervals() {
        let r = RunResult {
            delays: vec![delay(1, 15, 10), delay(0, 0, 20)],
            ..RunResult::default()
        };
        // Union is [0, 25] = 25; total = 30.
        assert_eq!(r.delay_projection(), us(25));
        assert!((r.delay_overlap_ratio() - (1.0 - 25.0 / 30.0)).abs() < 1e-9);
    }

    #[test]
    fn overlap_ratio_zero_for_delay_free_run() {
        let r = RunResult::default();
        assert_eq!(r.delay_overlap_ratio(), 0.0);
        assert!(!r.manifested());
    }

    #[test]
    fn blocked_interval_len() {
        let b = BlockedInterval {
            thread: ThreadId(1),
            start: us(5),
            end: us(12),
            by: BlockedBy::Join,
        };
        assert_eq!(b.len(), us(7));
        assert!(!b.is_empty());
    }
}
