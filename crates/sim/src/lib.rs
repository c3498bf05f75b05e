//! Deterministic virtual-time concurrency simulator.
//!
//! The paper evaluates Waffle on real multi-threaded C# applications running
//! on real threads and wall-clock time. This crate substitutes that substrate
//! with a discrete-event simulation that preserves everything the paper's
//! algorithms consume:
//!
//! - **threads** with fork/join, mutexes, and (sticky) events;
//! - **virtual time** in microseconds: every operation has a service time,
//!   blocking propagates timestamps exactly like real blocking does, and
//!   *delay injection* advances a thread's clock by the injected amount;
//! - **instrumentation interposition**: every heap-object access flows
//!   through a [`monitor::Monitor`] hook that can observe the
//!   access (site, object, thread, timestamp, kind) and inject a delay
//!   before it, and that charges a configurable per-access overhead — the
//!   analogue of Waffle's Mono.Cecil proxy functions;
//! - **inheritable TLS** ([`tls::InheritableTls`]): a per-thread storage
//!   slot cloned from parent to child at fork through a user hook, the
//!   mechanism Waffle uses to maintain fork-edge vector clocks (§4.1);
//! - **manifestation**: a use of a NULL/disposed reference raises the
//!   modelled NULL-reference exception and kills the thread, and
//!   overlapping thread-unsafe API calls on one object record a
//!   thread-safety violation (for the TSVD comparison tooling).
//!
//! The semantics of every op live in one place, [`machine::Machine`]: the
//! time-free state (threads, locks, events, heap, task queue, store
//! buffers) and one `exec` per op. [`Simulator`] drives it in virtual
//! time; the schedule oracle in `waffle-fuzz` drives the same machine
//! through every schedule within a preemption bound.
//!
//! Determinism: runs are a pure function of `(workload, config, monitor)`.
//! Run-to-run timing variation — which the paper's probabilistic method
//! needs — comes from seeded per-operation timing noise
//! ([`SimConfig::timing_noise_pct`](engine::SimConfig)).
//!
//! # Examples
//!
//! ```
//! use waffle_sim::time::{ms, us};
//! use waffle_sim::{NullMonitor, SimConfig, Simulator, WorkloadBuilder};
//!
//! let mut b = WorkloadBuilder::new("doc.demo");
//! let obj = b.object("connection");
//! let started = b.event("started");
//! let worker = b.script("worker", move |s| {
//!     s.wait(started).compute(ms(1)).use_(obj, "Worker.poll:4", us(50));
//! });
//! let main = b.script("main", move |s| {
//!     s.init(obj, "Main.open:1", us(100))
//!         .fork(worker)
//!         .signal(started)
//!         .join_children()
//!         .dispose(obj, "Main.close:9", us(50));
//! });
//! b.main(main);
//! let workload = b.build();
//!
//! let result = Simulator::run(
//!     &workload,
//!     SimConfig::with_seed(0).deterministic(),
//!     &mut NullMonitor,
//! );
//! assert!(!result.manifested());
//! assert_eq!(result.threads_spawned, 2);
//! ```

pub mod dot;
pub mod engine;
pub mod ids;
pub mod machine;
pub mod memory;
pub mod monitor;
pub mod op;
pub mod repair;
pub mod result;
pub mod tasks;
pub mod time;
pub mod tls;
pub mod workload;

pub use engine::{SimConfig, Simulator};
pub use ids::{EventId, IdOverflow, LockId, ScriptId, ThreadId};
pub use machine::{Machine, Observer, Step, ThreadStatus};
pub use memory::{MemoryConfig, MemoryModel, DRAIN_LATENCY};
pub use monitor::{AccessCtx, AccessRecord, ActiveDelay, Monitor, NullMonitor, PreAction};
pub use op::{Cond, Op};
pub use repair::{RepairKind, RepairPatch};
pub use result::{
    AppException, BlockedBy, BlockedInterval, DelayRecord, ForkEdge, RecentOp, RunResult,
    SimException, ThreadContext, TsvViolation,
};
pub use tasks::{TaskId, TaskParent};
pub use time::SimTime;
pub use workload::{ScriptBuilder, Workload, WorkloadBuilder};
