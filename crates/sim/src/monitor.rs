//! Monitor interposition: the simulated instrumentation boundary.
//!
//! Waffle's instrumenter wraps every heap-object access in a proxy function
//! that transfers control to the runtime library (§5). In the simulator the
//! same boundary is the [`Monitor`] trait: the engine calls
//! [`Monitor::on_access_pre`] before applying an instrumented access —
//! giving the runtime the chance to inject a delay — and
//! [`Monitor::on_access_post`] after, with the resolved timestamp and
//! outcome. Fork/exit hooks support TLS-based bookkeeping (vector clocks),
//! and [`Monitor::instr_overhead`] charges the per-access cost of the proxy
//! so overhead experiments are meaningful.

use waffle_mem::{AccessKind, AccessOutcome, NullRefError, ObjectId, SiteId};

use crate::ids::ThreadId;
use crate::result::{BlockedInterval, RunResult};
use crate::tasks::{TaskId, TaskParent};
use crate::time::SimTime;

/// A delay currently in progress (some thread is paused inside it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveDelay {
    /// The paused thread.
    pub thread: ThreadId,
    /// Site the delay was injected before.
    pub site: SiteId,
    /// When the delay ends.
    pub end: SimTime,
}

/// Context passed to [`Monitor::on_access_pre`].
#[derive(Debug)]
pub struct AccessCtx<'a> {
    /// Current virtual time of the accessing thread (pre-delay).
    pub time: SimTime,
    /// The accessing thread.
    pub thread: ThreadId,
    /// Static location of the access.
    pub site: SiteId,
    /// Target object.
    pub obj: ObjectId,
    /// Operation class.
    pub kind: AccessKind,
    /// Zero-based dynamic instance index of `site` in this run.
    pub dyn_index: u64,
    /// The task whose code performs the access, when running inside one.
    pub task: Option<TaskId>,
    /// Delays currently in progress in other threads (and this one's
    /// scheduled ones), sorted by end time.
    pub active_delays: &'a [ActiveDelay],
    /// The most recent synchronization block of this thread, if any.
    pub last_block: Option<&'a BlockedInterval>,
}

/// Decision returned by the pre-access hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreAction {
    /// Execute the access immediately.
    Proceed,
    /// Pause the thread for the given span, then execute the access.
    Delay(SimTime),
}

/// A completed instrumented access.
#[derive(Debug, Clone)]
pub struct AccessRecord {
    /// Virtual time at which the access executed (after any delay).
    pub time: SimTime,
    /// The accessing thread.
    pub thread: ThreadId,
    /// Static location.
    pub site: SiteId,
    /// Target object.
    pub obj: ObjectId,
    /// Operation class.
    pub kind: AccessKind,
    /// Zero-based dynamic instance index of `site` in this run.
    pub dyn_index: u64,
    /// The task whose code performed the access, when inside one.
    pub task: Option<TaskId>,
    /// Delay injected before this access (zero when none).
    pub delayed_by: SimTime,
    /// Heap outcome: success or the NULL-reference exception raised.
    pub outcome: Result<AccessOutcome, NullRefError>,
}

/// The instrumentation boundary. All methods have no-op defaults so simple
/// monitors implement only what they need.
pub trait Monitor {
    /// Per-access cost of the instrumentation proxy, charged by the engine
    /// on every instrumented access.
    fn instr_overhead(&self, kind: AccessKind) -> SimTime {
        let _ = kind;
        SimTime::ZERO
    }

    /// Called before an instrumented access; may inject a delay.
    fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
        let _ = ctx;
        PreAction::Proceed
    }

    /// Called after an instrumented access executed.
    fn on_access_post(&mut self, rec: &AccessRecord) {
        let _ = rec;
    }

    /// Called when `parent` forks `child` (after TLS inheritance).
    fn on_fork(&mut self, parent: ThreadId, child: ThreadId, time: SimTime) {
        let _ = (parent, child, time);
    }

    /// Called when `waiter` resumes from a join, once per thread it
    /// awaited. Join edges are *not* used by the paper's analysis (§4.1
    /// tracks fork edges only); the hook powers the join-aware precision
    /// extension.
    fn on_join(&mut self, waiter: ThreadId, joined: ThreadId, time: SimTime) {
        let _ = (waiter, joined, time);
    }

    /// Called when a task is enqueued (the async-local inheritance edge:
    /// derive the task's state from `parent`'s here).
    fn on_task_spawn(&mut self, parent: TaskParent, task: TaskId, time: SimTime) {
        let _ = (parent, task, time);
    }

    /// Called once when the run ends, with the complete result.
    fn on_run_end(&mut self, result: &RunResult) {
        let _ = result;
    }
}

/// The do-nothing monitor: an uninstrumented ("base") run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMonitor;

impl Monitor for NullMonitor {}

/// A monitor that only charges a fixed per-access overhead — models an
/// instrumented binary whose runtime does no work (used in overhead
/// calibration tests).
#[derive(Debug, Clone, Copy)]
pub struct OverheadMonitor {
    /// Cost charged per instrumented access.
    pub per_access: SimTime,
}

impl Monitor for OverheadMonitor {
    fn instr_overhead(&self, _kind: AccessKind) -> SimTime {
        self.per_access
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_monitor_defaults_are_inert() {
        let mut m = NullMonitor;
        assert_eq!(m.instr_overhead(AccessKind::Use), SimTime::ZERO);
        let ctx = AccessCtx {
            time: SimTime::ZERO,
            thread: ThreadId(0),
            site: SiteId(0),
            obj: ObjectId(0),
            kind: AccessKind::Use,
            dyn_index: 0,
            task: None,
            active_delays: &[],
            last_block: None,
        };
        assert_eq!(m.on_access_pre(&ctx), PreAction::Proceed);
    }

    #[test]
    fn overhead_monitor_charges_flat_cost() {
        let m = OverheadMonitor {
            per_access: crate::time::us(3),
        };
        assert_eq!(m.instr_overhead(AccessKind::Init), crate::time::us(3));
    }
}
