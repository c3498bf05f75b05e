//! Task-oriented execution: spawn queues, pool workers, and async-local
//! state propagation.
//!
//! The paper notes (§4.1) that while Waffle tracks *threads*, .NET's
//! task-oriented programs need the analogous *async-local* storage: state
//! that propagates from a parent task to a child task "irrespective of
//! which thread these tasks are scheduled to run on". This module adds
//! tasks to the simulator:
//!
//! - [`Op::SpawnTask`](crate::op::Op::SpawnTask) enqueues a script as a
//!   task, capturing the spawner's identity;
//! - [`Op::RunTasks`](crate::op::Op::RunTasks) turns the executing thread
//!   into a pool worker: it drains the task queue, running each task's
//!   ops inline, and finishes when the queue is empty and no spawner can
//!   add more;
//! - the [`Monitor`](crate::monitor::Monitor) receives an
//!   `on_task_spawn(spawner, task)` hook, which is exactly where an
//!   async-local vector clock is cloned from the spawner, and every
//!   access inside a task carries that task's id, which is where the
//!   clock is looked up (see `waffle-trace`'s async-local recorder mode).
//!
//! Scheduling is deterministic: tasks start in spawn order (FIFO), pulled
//! by whichever pool worker is free earliest.

use serde::{Deserialize, Serialize};

/// Identity of a spawned task (dense, in spawn order).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TaskId(pub u32);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// What spawned a task: the root of an async-local inheritance edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskParent {
    /// Spawned from plain thread code.
    Thread(crate::ids::ThreadId),
    /// Spawned from inside another task.
    Task(TaskId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_ids_display_and_order() {
        assert_eq!(TaskId(3).to_string(), "task3");
        assert!(TaskId(1) < TaskId(2));
    }

    #[test]
    fn parents_distinguish_threads_and_tasks() {
        let a = TaskParent::Thread(crate::ids::ThreadId(0));
        let b = TaskParent::Task(TaskId(0));
        assert_ne!(a, b);
    }
}
