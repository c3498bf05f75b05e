//! The trace-recording monitor (Waffle's preparation-run runtime).

use std::collections::HashMap;

use waffle_mem::{AccessKind, SiteRegistry};
use waffle_sim::tls::InheritableTls;
use waffle_sim::{
    AccessRecord, ForkEdge, Monitor, RunResult, SimTime, TaskId, TaskParent, ThreadId,
};
use waffle_vclock::{ClassicClock, ClockSnapshot, LiveClock};

use crate::event::{Trace, TraceEvent};
use crate::index::{ClockId, ClockInterner, ClockPool};

/// Which fork-edge clock protocol stamps trace events.
///
/// The paper describes a by-reference protocol (tuples of `(tid, &rctr)`
/// with counters shared parent→child, §4.1). Read literally at event time,
/// that protocol orders *every* ancestor event — including post-fork ones —
/// before all descendant events, which would prune real parent-disposes/
/// child-uses use-after-free candidates. The evaluation (which exposes such
/// bugs, e.g. NetMQ #814) implies the effective semantics of the tool are
/// the classical by-value fork protocol, so [`Classic`](ClockProtocol) is
/// the default; [`ByReference`](ClockProtocol) is kept for fidelity
/// experiments (the `fig_protocol` ablation shows the over-pruning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockProtocol {
    /// Classical by-value fork protocol: child copies parent entries at
    /// fork; parent ticks its own entry after the copy.
    #[default]
    Classic,
    /// The paper's literal by-reference protocol: counters shared between
    /// parent and descendants, read at event time.
    ByReference,
    /// The classical protocol plus *join* edges: a joiner merges the
    /// joined thread's clock, so teardown disposals ordered behind a join
    /// stop being candidates. A precision extension beyond the paper
    /// (which tracks fork edges only) — see the `join_aware` bench for
    /// what it buys and that it loses no seeded bugs.
    ClassicWithJoins,
}

#[derive(Debug)]
enum ClockSlot {
    Classic(ClassicClock<ThreadId>),
    ByRef(LiveClock<ThreadId>),
}

impl ClockSlot {
    fn fork(&mut self, parent: ThreadId, child: ThreadId) -> ClockSlot {
        match self {
            ClockSlot::Classic(c) => ClockSlot::Classic(c.fork(parent, child)),
            ClockSlot::ByRef(c) => ClockSlot::ByRef(c.fork(parent, child)),
        }
    }

    fn merge_from(&mut self, other: &ClockSlot) {
        if let (ClockSlot::Classic(a), ClockSlot::Classic(b)) = (self, other) {
            a.merge(b);
        }
    }

    fn snapshot(&self) -> ClockSnapshot<ThreadId> {
        match self {
            ClockSlot::Classic(c) => c.snapshot(),
            ClockSlot::ByRef(c) => c.snapshot(),
        }
    }
}

/// Records a delay-free execution trace, maintaining per-thread vector
/// clocks through the inheritable-TLS fork protocol (§4.1) and — for
/// task-oriented workloads — per-task clocks through the async-local
/// analogue the paper describes for .NET tasks ("state propagation from a
/// parent to a child task irrespective of which thread these tasks are
/// scheduled to run on").
///
/// Task clocks live in a key space disjoint from thread ids (task *t* maps
/// to clock key `ThreadId(0x8000_0000 | t)`), so a task's events compare
/// against thread events exactly like a forked thread's would.
///
/// Every instrumented access is charged `overhead_per_access` — the cost of
/// the proxy function writing a trace record — so preparation-run overhead
/// (Table 5, R#1) is measurable.
#[derive(Debug)]
pub struct TraceRecorder {
    workload: String,
    sites: SiteRegistry,
    overhead: SimTime,
    tls: InheritableTls<ClockSlot>,
    task_clocks: HashMap<TaskId, ClockSlot>,
    track_async_local: bool,
    track_joins: bool,
    events: Vec<TraceEvent>,
    forks: Vec<ForkEdge>,
    clocks: ClockPool,
    interner: ClockInterner,
    /// Last interned id per clock key (thread id or task clock key). Under
    /// the classic protocols a clock only changes at fork/join/task-spawn
    /// hooks, so between hooks the id is served from here without taking a
    /// snapshot at all. Disabled for [`ClockProtocol::ByReference`]: its
    /// counters are shared parent↔descendants and mutate without any hook
    /// firing on the observing key.
    clock_cache: HashMap<ThreadId, ClockId>,
    cache_clock_ids: bool,
    end_time: SimTime,
}

/// Clock key for a task (disjoint from real thread ids).
fn task_clock_key(task: TaskId) -> ThreadId {
    ThreadId(0x8000_0000 | task.0)
}

impl TraceRecorder {
    /// Default per-access cost of writing one trace record, in virtual
    /// time. Chosen so that heap-access-dominated workloads see the paper's
    /// preparation overhead scale (9–34%, Table 5 R#1).
    pub const DEFAULT_OVERHEAD: SimTime = SimTime::from_us(20);

    /// Creates a recorder for a workload (name + site table are copied into
    /// the produced trace) using the default clock protocol and overhead.
    pub fn new(workload: &waffle_sim::Workload) -> Self {
        Self::with_options(workload, Self::DEFAULT_OVERHEAD, ClockProtocol::default())
    }

    /// Creates a recorder with an explicit per-access overhead.
    pub fn with_overhead(workload: &waffle_sim::Workload, overhead: SimTime) -> Self {
        Self::with_options(workload, overhead, ClockProtocol::default())
    }

    /// Creates a recorder with explicit overhead and clock protocol.
    pub fn with_options(
        workload: &waffle_sim::Workload,
        overhead: SimTime,
        protocol: ClockProtocol,
    ) -> Self {
        let mut tls = InheritableTls::new();
        // The root thread's clock is installed up front; `ThreadId(0)` is
        // the simulator's root by construction.
        let root = ThreadId(0);
        tls.init_root(
            root,
            match protocol {
                ClockProtocol::Classic | ClockProtocol::ClassicWithJoins => {
                    ClockSlot::Classic(ClassicClock::root(root))
                }
                ClockProtocol::ByReference => ClockSlot::ByRef(LiveClock::root(root)),
            },
        );
        let clocks = ClockPool::new();
        let interner = ClockInterner::for_pool(&clocks);
        Self {
            workload: workload.name.clone(),
            sites: workload.sites.clone(),
            overhead,
            tls,
            task_clocks: HashMap::new(),
            track_async_local: true,
            track_joins: protocol == ClockProtocol::ClassicWithJoins,
            // Room for every access the run can reach, so recording never
            // regrows the buffer (short of the count's saturation cap).
            events: Vec::with_capacity(workload.reachable_accesses()),
            forks: Vec::new(),
            clocks,
            interner,
            clock_cache: HashMap::new(),
            cache_clock_ids: protocol != ClockProtocol::ByReference,
            end_time: SimTime::ZERO,
        }
    }

    /// Disables async-local task-clock tracking: task events are stamped
    /// with their *worker thread's* clock, losing the spawner→task
    /// causality — the configuration the paper's thread-only Waffle would
    /// have on task-oriented programs (used by the `task_pruning` bench to
    /// quantify what async-local tracking buys).
    pub fn without_async_local(mut self) -> Self {
        self.track_async_local = false;
        self
    }

    /// Consumes the recorder and produces the trace.
    pub fn into_trace(self) -> Trace {
        Trace {
            workload: self.workload,
            sites: self.sites,
            events: self.events,
            forks: self.forks,
            clocks: self.clocks,
            end_time: self.end_time,
        }
    }
}

impl Monitor for TraceRecorder {
    fn instr_overhead(&self, _kind: AccessKind) -> SimTime {
        self.overhead
    }

    fn on_fork(&mut self, parent: ThreadId, child: ThreadId, time: SimTime) {
        // The TLS region is copied into the child; the clock object's
        // "constructor" (the derive hook) derives the child entry and, by
        // reference or by value depending on the protocol, advances the
        // parent's counter.
        self.tls.inherit(parent, child, |pc| pc.fork(parent, child));
        // The fork ticked the parent's clock and minted the child's: both
        // cached ids are stale.
        self.clock_cache.remove(&parent);
        self.clock_cache.remove(&child);
        self.forks.push(ForkEdge {
            parent,
            child,
            time,
        });
    }

    fn on_join(&mut self, waiter: ThreadId, joined: ThreadId, _time: SimTime) {
        if !self.track_joins {
            return;
        }
        // Merge the joined thread's (final) clock into the waiter's. The
        // two-slot borrow avoids cloning the joined clock — on join-heavy
        // workloads that clone dominated the recorder's cost.
        self.tls.merge_pair(waiter, joined, |w, j| w.merge_from(j));
        self.clock_cache.remove(&waiter);
    }

    fn on_task_spawn(&mut self, parent: TaskParent, task: TaskId, _time: SimTime) {
        if !self.track_async_local {
            return;
        }
        let key = task_clock_key(task);
        let (child, parent_key) = match parent {
            TaskParent::Thread(tid) => (self.tls.get_mut(tid).map(|slot| slot.fork(tid, key)), tid),
            TaskParent::Task(owner) => {
                let owner_key = task_clock_key(owner);
                (
                    self.task_clocks
                        .get_mut(&owner)
                        .map(|slot| slot.fork(owner_key, key)),
                    owner_key,
                )
            }
        };
        if let Some(child) = child {
            // Forking ticked the spawner's clock.
            self.clock_cache.remove(&parent_key);
            self.clock_cache.remove(&key);
            self.task_clocks.insert(task, child);
        }
    }

    fn on_access_post(&mut self, rec: &AccessRecord) {
        // Resolve which clock slot stamps this event and the cache key it
        // lives under: the owning task's clock when tracked, else the
        // accessing thread's.
        let task = if self.track_async_local {
            rec.task.filter(|t| self.task_clocks.contains_key(t))
        } else {
            None
        };
        let key = match task {
            Some(t) => task_clock_key(t),
            None => rec.thread,
        };
        let cached = if self.cache_clock_ids {
            self.clock_cache.get(&key).copied()
        } else {
            None
        };
        let clock = match cached {
            Some(id) => id,
            None => {
                let snap = match task {
                    Some(t) => self.task_clocks.get(&t).map(ClockSlot::snapshot),
                    None => self.tls.get(rec.thread).map(ClockSlot::snapshot),
                };
                match snap {
                    Some(snap) => {
                        let id = self.interner.intern(&mut self.clocks, snap);
                        if self.cache_clock_ids {
                            self.clock_cache.insert(key, id);
                        }
                        id
                    }
                    None => ClockId::EMPTY,
                }
            }
        };
        self.events.push(TraceEvent {
            time: rec.time,
            thread: rec.thread,
            site: rec.site,
            obj: rec.obj,
            kind: rec.kind,
            dyn_index: rec.dyn_index,
            clock,
        });
    }

    fn on_run_end(&mut self, result: &RunResult) {
        self.end_time = result.end_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_sim::{SimConfig, Simulator, WorkloadBuilder};

    fn workload() -> waffle_sim::Workload {
        let mut b = WorkloadBuilder::new("rec.t1");
        let o = b.object("o");
        let ready = b.event("ready");
        let worker = b.script("worker", move |s| {
            s.wait(ready).use_(o, "W.use:1", SimTime::from_us(5));
        });
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", SimTime::from_us(10))
                .fork(worker)
                .signal(ready)
                .join_children()
                .dispose(o, "M.dispose:9", SimTime::from_us(5));
        });
        b.main(main);
        b.build()
    }

    #[test]
    fn recorder_captures_all_instrumented_accesses() {
        let w = workload();
        let mut rec = TraceRecorder::new(&w);
        let r = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut rec);
        let trace = rec.into_trace();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.events.len() as u64, r.instrumented_ops);
        assert_eq!(trace.end_time, r.end_time);
        assert_eq!(trace.forks.len(), 1);
    }

    #[test]
    fn event_clocks_reflect_fork_edges() {
        let w = workload();
        let mut rec = TraceRecorder::new(&w);
        let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut rec);
        let trace = rec.into_trace();
        let init = trace
            .events
            .iter()
            .find(|e| e.kind == AccessKind::Init)
            .unwrap();
        let use_ = trace
            .events
            .iter()
            .find(|e| e.kind == AccessKind::Use)
            .unwrap();
        // The init ran in the parent before the fork; the use ran in the
        // child: the clocks must be ordered.
        assert!(trace.event_clock(init).leq(trace.event_clock(use_)));
        assert!(!trace.event_clock(use_).leq(trace.event_clock(init)));
    }

    /// The clock pool deduplicates: a run whose events repeat the same few
    /// clock states pools far fewer snapshots than events, and every
    /// handle resolves to the snapshot the legacy per-event clone carried.
    #[test]
    fn clock_pool_dedups_repeated_snapshots() {
        let mut b = WorkloadBuilder::new("rec.pool");
        let o = b.object("o");
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", SimTime::from_us(5));
            for _ in 0..20 {
                s.use_(o, "M.use:2", SimTime::from_us(5));
            }
        });
        b.main(main);
        let w = b.build();
        let mut rec = TraceRecorder::new(&w);
        let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut rec);
        let trace = rec.into_trace();
        assert_eq!(trace.events.len(), 21);
        // No fork/join ever ticks a clock: all 21 events share one pooled
        // snapshot (plus the always-present empty one).
        assert_eq!(trace.clocks.len(), 2);
        let first = trace.events[0].clock;
        assert!(trace.events.iter().all(|e| e.clock == first));
    }

    /// Satellite of the columnar index: the analyzer's early-exit window
    /// scan assumes per-object time-sorted events. The recorder guarantees
    /// something stronger — the whole event stream is non-decreasing in
    /// virtual time, because the simulator dispatches in time order and the
    /// recorder appends — and neither instrumentation overhead nor timing
    /// noise may break that. (`TraceIndex::build` debug-asserts the
    /// per-object form on every construction.)
    #[test]
    fn recorded_timestamps_are_monotone_under_noise_and_overhead() {
        for seed in 0..10 {
            let w = workload();
            let mut rec = TraceRecorder::with_overhead(&w, SimTime::from_us(500));
            // Non-deterministic config: timing noise enabled.
            let _ = Simulator::run(&w, SimConfig::with_seed(seed), &mut rec);
            let trace = rec.into_trace();
            assert!(
                trace.events.windows(2).all(|w| w[0].time <= w[1].time),
                "seed {seed}: events out of time order"
            );
            // And the indexed form passes its own construction assertion.
            let idx = trace.index();
            assert_eq!(idx.mem.len() + idx.tsv.len(), trace.events.len());
        }
    }

    #[test]
    fn recorder_overhead_slows_the_run() {
        let w = workload();
        let base = Simulator::run(
            &w,
            SimConfig::with_seed(0).deterministic(),
            &mut waffle_sim::NullMonitor,
        );
        let mut rec = TraceRecorder::with_overhead(&w, SimTime::from_us(50));
        let instrumented = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut rec);
        assert!(instrumented.end_time > base.end_time);
    }

    #[test]
    fn classic_protocol_keeps_post_fork_dispose_concurrent_with_child_use() {
        // Main forks a worker, the worker uses the object, main disposes it
        // afterwards — *without* joining first (racy but clean here). Under
        // the classic protocol the dispose and the child's use must be
        // concurrent (a genuine use-after-free candidate); under the
        // by-reference protocol they appear ordered (the over-pruning this
        // module's docs describe).
        let build = || {
            let mut b = WorkloadBuilder::new("rec.race");
            let o = b.object("o");
            let worker = b.script("worker", move |s| {
                s.use_(o, "W.use:1", SimTime::from_us(5));
            });
            let main = b.script("main", move |s| {
                s.init(o, "M.init:1", SimTime::from_us(5))
                    .fork(worker)
                    .compute(SimTime::from_ms(1))
                    .dispose(o, "M.dispose:9", SimTime::from_us(5));
            });
            b.main(main);
            b.build()
        };
        let run = |protocol| {
            let w = build();
            let mut rec = TraceRecorder::with_options(&w, SimTime::ZERO, protocol);
            let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut rec);
            rec.into_trace()
        };
        for (protocol, expect_ordered) in [
            (ClockProtocol::Classic, false),
            (ClockProtocol::ByReference, true),
        ] {
            let trace = run(protocol);
            let use_ = trace
                .events
                .iter()
                .find(|e| e.kind == AccessKind::Use)
                .unwrap();
            let dispose = trace
                .events
                .iter()
                .find(|e| e.kind == AccessKind::Dispose)
                .unwrap();
            let ordered = trace
                .event_clock(use_)
                .order(trace.event_clock(dispose))
                .is_ordered();
            assert_eq!(
                ordered, expect_ordered,
                "protocol {protocol:?}: expected ordered={expect_ordered}"
            );
        }
    }

    #[test]
    fn trace_round_trips_through_json() {
        let w = workload();
        let mut rec = TraceRecorder::new(&w);
        let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut rec);
        let trace = rec.into_trace();
        let back = Trace::from_json(&trace.to_json().unwrap()).unwrap();
        assert_eq!(back.events, trace.events);
    }
}
