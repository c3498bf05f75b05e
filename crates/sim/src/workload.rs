//! Workloads and their builders.
//!
//! A [`Workload`] is the simulated analogue of "one test input": a set of
//! pre-declared heap objects, locks, and events, plus thread scripts, with
//! every instrumented operation tagged by a stable [`SiteId`](waffle_mem::SiteId). Builders
//! register sites deterministically (by name, in construction order), so
//! the same workload construction yields identical site ids in every run —
//! which is what lets plans and decay state persist across runs.

use serde::{Deserialize, Serialize};
use waffle_mem::{AccessKind, ObjectId, SiteRegistry};

use crate::ids::{EventId, LockId, ScriptId};
use crate::op::{Cond, Op, Script};
use crate::time::SimTime;

/// Where [`Workload::reachable_accesses`] saturates: it visits at most this
/// many ops.
const ACCESS_CAP: usize = 1 << 16;

/// Deepest chain of forks and task spawns [`Workload::reachable_accesses`]
/// follows before it saturates.
const MAX_FORK_DEPTH: u32 = 64;

/// A complete simulated test input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workload {
    /// Name, conventionally `"<app>.<test>"`.
    pub name: String,
    /// Static site table.
    pub sites: SiteRegistry,
    /// Thread scripts; `scripts[main.0]` is the entry script.
    pub scripts: Vec<Script>,
    /// Entry script run by the root thread.
    pub main: ScriptId,
    /// Number of pre-declared heap objects.
    pub n_objects: u32,
    /// Number of mutexes.
    pub n_locks: u32,
    /// Number of sticky events.
    pub n_events: u32,
}

impl Workload {
    /// Returns the script for `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range (workload construction bug).
    pub fn script(&self, id: ScriptId) -> &Script {
        &self.scripts[id.0 as usize]
    }

    /// Total static operations across all scripts.
    pub fn total_ops(&self) -> usize {
        self.scripts.iter().map(|s| s.ops.len()).sum()
    }

    /// Instrumented accesses one run performs when every thread and task
    /// runs its script to the end: the [`Op::Access`] ops of the entry
    /// script plus, per [`Op::Fork`] or [`Op::SpawnTask`], those of the
    /// script it starts, recursively. A run that takes a `SkipIf` branch,
    /// exits early or faults performs fewer, so this is the event count a
    /// preparation trace needs room for.
    ///
    /// The walk allocates nothing. It visits at most 64 Ki ops and
    /// follows forks at most 64 deep; a workload beyond either (say, a
    /// self-forking script from corpus JSON) saturates at 64 Ki.
    pub fn reachable_accesses(&self) -> usize {
        let mut fuel = ACCESS_CAP;
        self.accesses_from(self.main, 0, &mut fuel)
            .unwrap_or(ACCESS_CAP)
    }

    /// Accesses reachable from `script`, or `None` once the walk runs out
    /// of fuel (one unit per op visited) or fork depth.
    fn accesses_from(&self, script: ScriptId, depth: u32, fuel: &mut usize) -> Option<usize> {
        if depth > MAX_FORK_DEPTH {
            return None;
        }
        let ops = self
            .scripts
            .get(script.0 as usize)
            .map_or(&[][..], |s| &s.ops);
        let mut n = 0;
        for op in ops {
            *fuel = fuel.checked_sub(1)?;
            n += match op {
                Op::Access { .. } => 1,
                Op::Fork { script } | Op::SpawnTask { script } => {
                    self.accesses_from(*script, depth + 1, fuel)?
                }
                _ => 0,
            };
        }
        Some(n)
    }

    /// Number of static instrumentation sites of the MemOrder class.
    pub fn mem_order_sites(&self) -> usize {
        self.sites.count_where(AccessKind::is_mem_order)
    }

    /// Number of static instrumentation sites of the TSV class.
    pub fn tsv_sites(&self) -> usize {
        self.sites.count_where(AccessKind::is_tsv)
    }

    /// Checks referential integrity: every op's object, lock, event, and
    /// script reference is in range, and every `Access` site is
    /// registered. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let check = |cond: bool, msg: String| if cond { Ok(()) } else { Err(msg) };
        for (si, script) in self.scripts.iter().enumerate() {
            for (oi, op) in script.ops.iter().enumerate() {
                let at = format!("script {:?} op {oi}", script.name);
                match op {
                    Op::Access { obj, site, .. } => {
                        check(
                            obj.0 < self.n_objects,
                            format!("{at}: object {obj} undeclared"),
                        )?;
                        check(
                            self.sites.info(*site).is_some(),
                            format!("{at}: site {site} unregistered"),
                        )?;
                    }
                    Op::SkipIf { obj, skip, .. } => {
                        check(
                            obj.0 < self.n_objects,
                            format!("{at}: object {obj} undeclared"),
                        )?;
                        check(
                            oi + 1 + *skip as usize <= script.ops.len(),
                            format!("{at}: skip {skip} runs past the script end"),
                        )?;
                    }
                    Op::Fork { script } | Op::SpawnTask { script } => {
                        check(
                            (script.0 as usize) < self.scripts.len(),
                            format!("{at}: script {script} undeclared"),
                        )?;
                    }
                    Op::Acquire { lock } | Op::Release { lock } => {
                        check(
                            lock.0 < self.n_locks,
                            format!("{at}: lock {lock} undeclared"),
                        )?;
                    }
                    Op::SignalEvent { ev } | Op::WaitEvent { ev } => {
                        check(ev.0 < self.n_events, format!("{at}: event {ev} undeclared"))?;
                    }
                    _ => {}
                }
            }
            let _ = si;
        }
        check(
            (self.main.0 as usize) < self.scripts.len(),
            format!("main script {} undeclared", self.main),
        )
    }
}

/// Builder for [`Workload`]s.
#[derive(Debug, Default)]
pub struct WorkloadBuilder {
    name: String,
    sites: SiteRegistry,
    scripts: Vec<Script>,
    n_objects: u32,
    n_locks: u32,
    n_events: u32,
    main: Option<ScriptId>,
}

impl WorkloadBuilder {
    /// Starts a workload named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Declares a heap object (the `_name` is documentation only).
    pub fn object(&mut self, _name: &str) -> ObjectId {
        let id = ObjectId(self.n_objects);
        self.n_objects += 1;
        id
    }

    /// Declares `n` heap objects.
    pub fn objects(&mut self, _name: &str, n: u32) -> Vec<ObjectId> {
        (0..n).map(|_| self.object(_name)).collect()
    }

    /// Declares a mutex.
    pub fn lock(&mut self, _name: &str) -> LockId {
        let id = LockId(self.n_locks);
        self.n_locks += 1;
        id
    }

    /// Declares a sticky event.
    pub fn event(&mut self, _name: &str) -> EventId {
        let id = EventId(self.n_events);
        self.n_events += 1;
        id
    }

    /// Pre-declares an empty script so it can be referenced (forked) before
    /// it is defined. Define it later with [`define_script`].
    ///
    /// [`define_script`]: WorkloadBuilder::define_script
    pub fn declare_script(&mut self, name: impl Into<String>) -> ScriptId {
        let id = ScriptId(self.scripts.len() as u32);
        self.scripts.push(Script {
            name: name.into(),
            ops: Vec::new(),
        });
        id
    }

    /// Fills in the body of a previously declared script.
    ///
    /// # Panics
    ///
    /// Panics when the script was already defined.
    pub fn define_script(&mut self, id: ScriptId, build: impl FnOnce(&mut ScriptBuilder<'_>)) {
        assert!(
            self.scripts[id.0 as usize].ops.is_empty(),
            "script {} defined twice",
            self.scripts[id.0 as usize].name
        );
        let mut ops = Vec::new();
        {
            let mut sb = ScriptBuilder {
                sites: &mut self.sites,
                ops: &mut ops,
            };
            build(&mut sb);
        }
        self.scripts[id.0 as usize].ops = ops;
    }

    /// Declares and defines a script in one step.
    pub fn script(
        &mut self,
        name: impl Into<String>,
        build: impl FnOnce(&mut ScriptBuilder<'_>),
    ) -> ScriptId {
        let id = self.declare_script(name);
        self.define_script(id, build);
        id
    }

    /// Marks the entry script.
    pub fn main(&mut self, id: ScriptId) -> &mut Self {
        self.main = Some(id);
        self
    }

    /// Finalizes the workload.
    ///
    /// # Panics
    ///
    /// Panics when no entry script was set.
    pub fn build(self) -> Workload {
        let main = self.main.expect("workload has no main script");
        let w = Workload {
            name: self.name,
            sites: self.sites,
            scripts: self.scripts,
            main,
            n_objects: self.n_objects,
            n_locks: self.n_locks,
            n_events: self.n_events,
        };
        if let Err(e) = w.validate() {
            panic!("invalid workload {:?}: {e}", w.name);
        }
        w
    }
}

/// Appends operations to one script; created by [`WorkloadBuilder`].
#[derive(Debug)]
pub struct ScriptBuilder<'a> {
    sites: &'a mut SiteRegistry,
    ops: &'a mut Vec<Op>,
}

impl ScriptBuilder<'_> {
    /// Local computation (subject to timing noise).
    pub fn compute(&mut self, dur: SimTime) -> &mut Self {
        self.ops.push(Op::Compute { dur });
        self
    }

    /// Fixed-duration padding, exempt from timing noise (models setup and
    /// teardown phases whose duration does not vary run to run).
    pub fn pad(&mut self, dur: SimTime) -> &mut Self {
        self.ops.push(Op::Pad { dur });
        self
    }

    /// Instrumented access with explicit kind.
    pub fn access(
        &mut self,
        obj: ObjectId,
        kind: AccessKind,
        site: &str,
        dur: SimTime,
    ) -> &mut Self {
        let site = self.sites.register(site, kind);
        self.ops.push(Op::Access {
            obj,
            kind,
            site,
            dur,
        });
        self
    }

    /// Object initialization (NULL → live).
    pub fn init(&mut self, obj: ObjectId, site: &str, dur: SimTime) -> &mut Self {
        self.access(obj, AccessKind::Init, site, dur)
    }

    /// Object use (field access / method call).
    pub fn use_(&mut self, obj: ObjectId, site: &str, dur: SimTime) -> &mut Self {
        self.access(obj, AccessKind::Use, site, dur)
    }

    /// Object disposal (live → NULL).
    pub fn dispose(&mut self, obj: ObjectId, site: &str, dur: SimTime) -> &mut Self {
        self.access(obj, AccessKind::Dispose, site, dur)
    }

    /// Thread-unsafe API call (TSV instrumentation class); `dur` is the
    /// call's execution window.
    pub fn unsafe_call(&mut self, obj: ObjectId, site: &str, dur: SimTime) -> &mut Self {
        self.access(obj, AccessKind::UnsafeApiCall, site, dur)
    }

    /// Fork a thread running `script`.
    pub fn fork(&mut self, script: ScriptId) -> &mut Self {
        self.ops.push(Op::Fork { script });
        self
    }

    /// Fork `n` threads running `script`.
    pub fn fork_n(&mut self, script: ScriptId, n: u32) -> &mut Self {
        for _ in 0..n {
            self.fork(script);
        }
        self
    }

    /// Wait for all direct children.
    pub fn join_children(&mut self) -> &mut Self {
        self.ops.push(Op::JoinChildren);
        self
    }

    /// Acquire a mutex.
    pub fn acquire(&mut self, lock: LockId) -> &mut Self {
        self.ops.push(Op::Acquire { lock });
        self
    }

    /// Release a mutex.
    pub fn release(&mut self, lock: LockId) -> &mut Self {
        self.ops.push(Op::Release { lock });
        self
    }

    /// Signal a sticky event.
    pub fn signal(&mut self, ev: EventId) -> &mut Self {
        self.ops.push(Op::SignalEvent { ev });
        self
    }

    /// Wait for a sticky event.
    pub fn wait(&mut self, ev: EventId) -> &mut Self {
        self.ops.push(Op::WaitEvent { ev });
        self
    }

    /// Raise a handled application exception (graceful thread exit).
    pub fn throw(&mut self, site: &str) -> &mut Self {
        // A `throw` site is a use-class location for bookkeeping purposes
        // but is not instrumented (it is not an `Op::Access`).
        let site = self.sites.register(site, AccessKind::Use);
        self.ops.push(Op::Throw { site });
        self
    }

    /// Skip the next `skip` ops when `cond` holds for `obj`.
    pub fn skip_if(&mut self, obj: ObjectId, cond: Cond, skip: u32) -> &mut Self {
        self.ops.push(Op::SkipIf { obj, cond, skip });
        self
    }

    /// Enqueue `script` as a task (async-local inheritance from the
    /// spawning context).
    pub fn spawn_task(&mut self, script: ScriptId) -> &mut Self {
        self.ops.push(Op::SpawnTask { script });
        self
    }

    /// Drain the task queue on this thread (pool-worker loop).
    pub fn run_tasks(&mut self) -> &mut Self {
        self.ops.push(Op::RunTasks);
        self
    }

    /// Terminate the thread early.
    pub fn exit(&mut self) -> &mut Self {
        self.ops.push(Op::Exit);
        self
    }

    /// Full memory fence: drains this thread's store buffer under a weak
    /// memory model; a no-op under sequential consistency.
    pub fn fence(&mut self) -> &mut Self {
        self.ops.push(Op::Fence);
        self
    }

    /// Repeats `build` `n` times (loop unrolling); the iteration index is
    /// passed so bodies can vary objects or site names per iteration.
    pub fn repeat(&mut self, n: u32, mut build: impl FnMut(&mut Self, u32)) -> &mut Self {
        for i in 0..n {
            build(self, i);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;

    #[test]
    fn builder_assembles_workload() {
        let mut b = WorkloadBuilder::new("demo.t1");
        let obj = b.object("o");
        let lk = b.lock("mu");
        let ev = b.event("done");
        let worker = b.script("worker", |s| {
            s.wait(ev)
                .acquire(lk)
                .use_(obj, "W.use:1", us(5))
                .release(lk);
        });
        let main = b.script("main", |s| {
            s.init(obj, "M.ctor:1", us(10))
                .fork(worker)
                .signal(ev)
                .join_children()
                .dispose(obj, "M.drop:9", us(5));
        });
        b.main(main);
        let w = b.build();
        assert_eq!(w.name, "demo.t1");
        assert_eq!(w.scripts.len(), 2);
        assert_eq!(w.n_objects, 1);
        assert_eq!(w.mem_order_sites(), 3);
        assert_eq!(w.tsv_sites(), 0);
        assert_eq!(w.script(main).ops.len(), 5);
        assert_eq!(w.total_ops(), 9);
    }

    #[test]
    fn sites_are_stable_across_rebuilds() {
        let build = || {
            let mut b = WorkloadBuilder::new("x");
            let o = b.object("o");
            let s = b.script("m", |s| {
                s.init(o, "a", us(1)).use_(o, "b", us(1));
            });
            b.main(s);
            b.build()
        };
        let w1 = build();
        let w2 = build();
        assert_eq!(w1.sites.lookup("a"), w2.sites.lookup("a"));
        assert_eq!(w1.sites.lookup("b"), w2.sites.lookup("b"));
    }

    #[test]
    fn repeat_unrolls_loops() {
        let mut b = WorkloadBuilder::new("x");
        let objs = b.objects("msg", 4);
        let s = b.script("m", |s| {
            s.repeat(4, |s, i| {
                s.init(objs[i as usize], &format!("loop.init:{i}"), us(1));
            });
        });
        b.main(s);
        let w = b.build();
        assert_eq!(w.script(s).ops.len(), 4);
        assert_eq!(w.mem_order_sites(), 4);
    }

    /// The access count equals the accesses a run performs across forked
    /// threads, spawned tasks run by a pool and a `SkipIf` whose branch
    /// the run does not take; a taken branch performs fewer.
    #[test]
    fn reachable_accesses_match_the_run() {
        let build = |cond| {
            let mut b = WorkloadBuilder::new("reach");
            let o = b.object("o");
            let ready = b.event("ready");
            let worker = b.script("worker", move |s| {
                s.use_(o, "W.use:1", us(5)).use_(o, "W.use:2", us(5));
            });
            let task = b.script("task", move |s| {
                s.use_(o, "T.use:1", us(5));
            });
            let pool = b.script("pool", move |s| {
                s.wait(ready).run_tasks();
            });
            let main = b.script("main", move |s| {
                s.init(o, "M.init:1", us(5))
                    .fork_n(worker, 3)
                    .fork(pool)
                    .spawn_task(task)
                    .spawn_task(task)
                    .signal(ready)
                    .join_children()
                    .skip_if(o, cond, 1)
                    .use_(o, "M.use:3", us(5))
                    .dispose(o, "M.dispose:9", us(5));
            });
            b.main(main);
            b.build()
        };
        let run = |w: &Workload| {
            let config = crate::SimConfig::with_seed(0).deterministic();
            crate::Simulator::run(w, config, &mut crate::NullMonitor).instrumented_ops
        };
        let not_taken = build(Cond::IsNull);
        assert_eq!(not_taken.reachable_accesses(), 1 + 3 * 2 + 2 + 2);
        assert_eq!(run(&not_taken), not_taken.reachable_accesses() as u64);
        let taken = build(Cond::IsLive);
        assert_eq!(run(&taken) + 1, taken.reachable_accesses() as u64);
    }

    /// Self-forking scripts, linear or exponential, with or without
    /// accesses, and a fork of an undeclared script: the count ends, at
    /// the cap when the walk cannot.
    #[test]
    fn reachable_accesses_saturate_on_unbounded_forking() {
        let self_forking = |forks: usize, access: bool| {
            let mut b = WorkloadBuilder::new("fork-bomb");
            let o = b.object("o");
            let s = b.declare_script("bomb");
            b.define_script(s, |sb| {
                if access {
                    sb.use_(o, "B.use:1", us(1));
                }
                for _ in 0..forks {
                    sb.fork(s);
                }
            });
            b.main(s);
            b.build()
        };
        for forks in [1, 2] {
            for access in [false, true] {
                let w = self_forking(forks, access);
                assert_eq!(w.reachable_accesses(), ACCESS_CAP);
            }
        }
        let mut w = self_forking(0, true);
        assert_eq!(w.reachable_accesses(), 1);
        w.scripts[0].ops.push(Op::Fork {
            script: ScriptId(9),
        });
        assert_eq!(w.reachable_accesses(), 1, "undeclared scripts add nothing");
    }

    #[test]
    #[should_panic(expected = "no main script")]
    fn build_without_main_panics() {
        WorkloadBuilder::new("x").build();
    }

    #[test]
    fn validate_catches_dangling_references() {
        // Hand-assemble a workload referencing an undeclared object.
        let mut b = WorkloadBuilder::new("bad");
        let o = b.object("o");
        let m = b.script("main", move |s| {
            s.init(o, "i", us(1));
        });
        b.main(m);
        let mut w = b.build();
        w.n_objects = 0; // Corrupt it.
        let err = w.validate().unwrap_err();
        assert!(err.contains("undeclared"), "{err}");
    }

    #[test]
    fn validate_catches_overlong_skips() {
        let mut b = WorkloadBuilder::new("bad-skip");
        let o = b.object("o");
        let m = b.script("main", move |s| {
            s.skip_if(o, crate::op::Cond::IsNull, 5).compute(us(1));
        });
        b.main(m);
        // `build` itself panics on the invalid skip.
        let result = std::panic::catch_unwind(move || b.build());
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn double_define_panics() {
        let mut b = WorkloadBuilder::new("x");
        let id = b.declare_script("s");
        b.define_script(id, |s| {
            s.compute(us(1));
        });
        b.define_script(id, |s| {
            s.compute(us(1));
        });
    }
}
