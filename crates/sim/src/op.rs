//! Workload operations: the instruction set of simulated threads.

use serde::{Deserialize, Serialize};
use waffle_mem::{AccessKind, ObjectId, SiteId};

use crate::ids::{EventId, LockId, ScriptId};
use crate::time::SimTime;

/// A condition on a reference cell used by branch operations.
///
/// Branch reads are *uninstrumented* (they model reading a local flag or an
/// already-loaded field); programs that dereference the object to evaluate
/// a condition put an instrumented [`Op::Access`] in front, which is where
/// the NULL-reference exception can strike (cf. `ChkDisposed` in the
/// paper's Fig. 4b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cond {
    /// The reference is live.
    IsLive,
    /// The reference is NULL and was never initialized.
    IsNull,
    /// The reference was disposed.
    IsDisposed,
}

/// One operation in a thread script.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Local computation for `dur` of virtual time. Uninstrumented;
    /// subject to timing noise.
    Compute {
        /// Service time.
        dur: SimTime,
    },
    /// Fixed-duration padding (test setup/teardown): like [`Op::Compute`]
    /// but exempt from timing noise, so that large paddings do not swamp
    /// the timing of the racing windows.
    Pad {
        /// Service time.
        dur: SimTime,
    },
    /// An instrumented access to a heap object: the unit of interposition.
    ///
    /// For `AccessKind::UnsafeApiCall`, `dur` is also the *execution
    /// window* used for thread-safety-violation overlap detection.
    Access {
        /// Target object.
        obj: ObjectId,
        /// Operation class.
        kind: AccessKind,
        /// Static location performing the access.
        site: SiteId,
        /// Service time (and TSV window for unsafe API calls).
        dur: SimTime,
    },
    /// Spawn a new thread running `script`. The child inherits the parent's
    /// TLS (see [`crate::tls::InheritableTls`]) and starts immediately.
    Fork {
        /// Script the child executes.
        script: ScriptId,
    },
    /// Block until every direct child of this thread has finished.
    JoinChildren,
    /// Acquire a mutex (FIFO queuing).
    Acquire {
        /// The mutex.
        lock: LockId,
    },
    /// Release a mutex held by this thread.
    Release {
        /// The mutex.
        lock: LockId,
    },
    /// Signal a sticky event: all current and future waiters proceed.
    SignalEvent {
        /// The event.
        ev: EventId,
    },
    /// Block until `ev` is signalled (no-op if already signalled).
    WaitEvent {
        /// The event.
        ev: EventId,
    },
    /// Raise a *handled* application exception: the thread unwinds
    /// gracefully (releases held locks) and exits. Not a bug manifestation.
    Throw {
        /// Static location of the `throw`.
        site: SiteId,
    },
    /// Skip the next `skip` operations when `cond` holds for `obj`.
    SkipIf {
        /// Object whose cell state is read (uninstrumented).
        obj: ObjectId,
        /// Condition to test.
        cond: Cond,
        /// Number of following operations to skip when the condition holds.
        skip: u32,
    },
    /// Enqueue `script` as a task on the global task queue, capturing the
    /// spawning context for async-local inheritance (§4.1's task note).
    SpawnTask {
        /// Script the task executes.
        script: ScriptId,
    },
    /// Turn this thread into a pool worker: drain the task queue, running
    /// each task's operations inline, until the queue is empty. Workloads
    /// sequence spawns before workers start draining (e.g. with an event).
    RunTasks,
    /// Terminate this thread early (normal exit).
    Exit,
    /// Full memory fence: under a weak memory model
    /// ([`MemoryModel`](crate::memory::MemoryModel) `Tso`/`Pso`) this
    /// thread's store buffer drains completely before the next operation.
    /// A no-op under sequential consistency, where stores are globally
    /// visible the instant they execute.
    Fence,
}

impl Op {
    /// Whether the op drains the executing thread's store buffer before it
    /// runs. Lock operations, fork, join and fences carry full barriers;
    /// sticky events deliberately do not: an event publication without a
    /// barrier is exactly the weak-memory bug shape.
    pub fn flushes(&self) -> bool {
        matches!(
            self,
            Op::Fork { .. }
                | Op::JoinChildren
                | Op::Acquire { .. }
                | Op::Release { .. }
                | Op::Fence
        )
    }

    /// Nominal service time of the op, before timing noise.
    pub fn duration(&self) -> SimTime {
        match self {
            Op::Compute { dur } | Op::Pad { dur } | Op::Access { dur, .. } => *dur,
            _ => SimTime::ZERO,
        }
    }
}

/// A static thread body: a named sequence of operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Script {
    /// Human-readable script name (e.g. `"worker"`).
    pub name: String,
    /// The operations, executed in order.
    pub ops: Vec<Op>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;

    #[test]
    fn duration_defaults_to_zero_for_control_ops() {
        assert_eq!(Op::JoinChildren.duration(), SimTime::ZERO);
        assert_eq!(Op::Compute { dur: us(7) }.duration(), us(7));
    }

    #[test]
    fn fence_is_a_free_op() {
        assert_eq!(Op::Fence.duration(), SimTime::ZERO);
    }
}
