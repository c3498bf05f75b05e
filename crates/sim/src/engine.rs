//! The discrete-event simulation engine: virtual time over the shared
//! [`Machine`].
//!
//! The machine owns what an op means. The simulator owns only what time
//! adds: per-thread clocks and the event queue, timing noise, store-buffer
//! drain deadlines, delays injected by the monitor and the accesses they
//! hold back, the monitor hooks, TSV windows and the recent-access ring.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use waffle_mem::{AccessKind, AccessOutcome, ObjectId, SiteId};

use crate::ids::ThreadId;
use crate::machine::{Machine, Observer, Step, ThreadStatus};
use crate::memory::{MemoryConfig, MemoryModel, DRAIN_LATENCY};
use crate::monitor::{AccessCtx, AccessRecord, ActiveDelay, Monitor, PreAction};
use crate::op::Op;
use crate::result::{
    AppException, BlockedBy, BlockedInterval, DelayRecord, ForkEdge, RecentOp, RunResult,
    SimException, ThreadContext, TsvViolation,
};
use crate::tasks::{TaskId, TaskParent};
use crate::time::SimTime;
use crate::workload::Workload;

/// Engine configuration for one run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for timing noise (the run-to-run variation real machines have).
    pub seed: u64,
    /// Percentage (0–50) by which operation service times vary uniformly
    /// around their nominal value. Zero makes runs fully deterministic.
    pub timing_noise_pct: u32,
    /// Virtual-time budget; exceeding it marks the run timed out. Models
    /// the paper's test-case timeouts (Table 5/6, MQTT.Net).
    pub deadline: Option<SimTime>,
    /// The memory subsystem: sequential consistency (default, stores
    /// globally visible immediately) or a weak model with per-thread store
    /// buffers (see [`crate::memory`]).
    pub memory: MemoryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            timing_noise_pct: 3,
            deadline: None,
            memory: MemoryConfig::default(),
        }
    }
}

impl SimConfig {
    /// A configuration with a specific noise seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Disables timing noise (bit-for-bit deterministic runs).
    pub fn deterministic(mut self) -> Self {
        self.timing_noise_pct = 0;
        self
    }

    /// Selects the memory subsystem configuration.
    pub fn with_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }
}

/// An access held back by an injected delay, performed when it elapses.
#[derive(Debug, Clone, Copy)]
struct PendingAccess {
    dyn_index: u64,
    delayed_by: SimTime,
}

/// What time adds to one thread.
#[derive(Debug)]
struct ThreadClock {
    /// Bumped on every schedule; queue entries with an older value are
    /// stale.
    gen: u64,
    /// When the thread's current block started.
    since: SimTime,
    pending: Option<PendingAccess>,
    last_block: Option<BlockedInterval>,
    /// Ring buffer of the last instrumented accesses (bug-report context).
    recent: VecDeque<RecentOp>,
}

/// Depth of the per-thread recent-access ring buffer.
const RECENT_DEPTH: usize = 8;

/// Cost of a fork operation (charged to the parent; the child starts once
/// the fork completes).
const FORK_COST: SimTime = SimTime::from_us(20);

/// An event-queue key: `(time, gen, thread)`.
type EventKey = (SimTime, u64, ThreadId);

/// The clocks, the event queue and the run result: everything the
/// machine's observer callbacks update.
struct Clock {
    /// The fast lane: an entry that sorts before every entry in `queue`.
    /// Most schedules land before everything queued (a thread resuming
    /// right after its own op), so they skip the heap.
    next: Option<EventKey>,
    /// The other entries. A thread's `gen` rises on every schedule, so
    /// keys are unique and the pop order is total.
    queue: BinaryHeap<Reverse<EventKey>>,
    threads: Vec<ThreadClock>,
    result: RunResult,
}

impl Clock {
    fn schedule(&mut self, tid: ThreadId, at: SimTime) {
        let th = &mut self.threads[tid.0 as usize];
        th.gen += 1;
        let key = (at, th.gen, tid);
        match self.next {
            Some(held) if key < held => {
                self.queue.push(Reverse(held));
                self.next = Some(key);
            }
            Some(_) => self.queue.push(Reverse(key)),
            None if self.queue.peek().is_none_or(|Reverse(min)| key < *min) => {
                self.next = Some(key);
            }
            None => self.queue.push(Reverse(key)),
        }
    }

    /// Pops the earliest entry: the held one, else the heap's minimum.
    fn pop(&mut self) -> Option<EventKey> {
        self.next
            .take()
            .or_else(|| self.queue.pop().map(|Reverse(key)| key))
    }

    fn spawn(&mut self, tid: ThreadId, at: SimTime) {
        // Clocks are pushed in fork order, so their indices are thread ids.
        debug_assert_eq!(tid.0 as usize, self.threads.len());
        self.threads.push(ThreadClock {
            gen: 0,
            since: SimTime::ZERO,
            pending: None,
            last_block: None,
            recent: VecDeque::with_capacity(RECENT_DEPTH),
        });
        self.schedule(tid, at);
    }
}

/// The machine's observer at time `t`: wakeups and forks become queue
/// entries, the rest become monitor hooks.
struct Timed<'a> {
    t: SimTime,
    clock: &'a mut Clock,
    monitor: &'a mut dyn Monitor,
}

impl Observer for Timed<'_> {
    fn woke(&mut self, thread: ThreadId, by: BlockedBy) {
        let th = &mut self.clock.threads[thread.0 as usize];
        let interval = BlockedInterval {
            thread,
            start: th.since,
            end: self.t.max(th.since),
            by,
        };
        th.last_block = Some(interval);
        self.clock.result.blocked.push(interval);
        self.clock.schedule(thread, interval.end);
    }

    fn forked(&mut self, parent: ThreadId, child: ThreadId) {
        self.clock.spawn(child, self.t + FORK_COST);
        self.clock.result.forks.push(ForkEdge {
            parent,
            child,
            time: self.t,
        });
        self.monitor.on_fork(parent, child, self.t);
    }

    fn joined(&mut self, waiter: ThreadId, joined: ThreadId) {
        self.monitor.on_join(waiter, joined, self.t);
    }

    fn task_spawned(&mut self, parent: TaskParent, task: TaskId) {
        self.clock.result.tasks_spawned = task.0 + 1;
        self.monitor.on_task_spawn(parent, task, self.t);
    }
}

#[derive(Debug, Clone, Copy)]
struct TsvWindow {
    thread: ThreadId,
    start: SimTime,
    end: SimTime,
    site: SiteId,
}

/// The simulator: executes one [`Workload`] under one [`Monitor`].
pub struct Simulator<'w> {
    config: SimConfig,
    rng: SmallRng,
    machine: Machine<'w>,
    clock: Clock,
    active_delays: Vec<ActiveDelay>,
    tsv_windows: HashMap<ObjectId, Vec<TsvWindow>>,
    max_time: SimTime,
}

impl<'w> Simulator<'w> {
    /// Creates a simulator for `workload` under `config`.
    pub fn new(workload: &'w Workload, config: SimConfig) -> Self {
        // Capacity hints: at least one thread per script, a few in-flight
        // events per thread. Floors, not bounds.
        let thread_hint = workload.scripts.len().max(8);
        let model = config.memory.model;
        Self {
            rng: SmallRng::seed_from_u64(config.seed),
            clock: Clock {
                next: None,
                queue: BinaryHeap::with_capacity(thread_hint * 4),
                threads: Vec::with_capacity(thread_hint),
                result: RunResult {
                    site_dyn_counts: vec![0; workload.sites.len()],
                    ..RunResult::default()
                },
            },
            config,
            machine: Machine::new(workload, model),
            active_delays: Vec::new(),
            tsv_windows: HashMap::new(),
            max_time: SimTime::ZERO,
        }
    }

    /// Convenience: run `workload` to completion under `monitor`.
    pub fn run(workload: &Workload, config: SimConfig, monitor: &mut dyn Monitor) -> RunResult {
        let sim = Simulator::new(workload, config);
        sim.execute(monitor)
    }

    /// Executes the workload to completion and returns the run result.
    pub fn execute(mut self, monitor: &mut dyn Monitor) -> RunResult {
        self.clock.spawn(ThreadId(0), SimTime::ZERO);
        while let Some((t, gen, tid)) = self.clock.pop() {
            if let Some(deadline) = self.config.deadline {
                if t > deadline {
                    self.clock.result.timed_out = true;
                    self.max_time = deadline;
                    break;
                }
            }
            if self.clock.threads[tid.0 as usize].gen != gen
                || self.machine.thread(tid).status != ThreadStatus::Ready
            {
                continue; // Stale event.
            }
            self.step(tid, t, monitor);
        }
        self.finish_run(monitor)
    }

    fn finish_run(mut self, monitor: &mut dyn Monitor) -> RunResult {
        // Any store still buffered when the run ends drains now: its write
        // already executed, there are no more readers to observe an order,
        // and heap stats must reflect every committed store.
        for t in self.machine.thread_ids() {
            self.machine.flush(t, &mut ());
        }
        let mut result = std::mem::take(&mut self.clock.result);
        // Threads still blocked when the queue drains are stranded (e.g.
        // their signaller died from an exception).
        for (thread, clock) in self.machine.thread_ids().zip(&self.clock.threads) {
            if let ThreadStatus::Blocked(by) = self.machine.thread(thread).status {
                result.blocked.push(BlockedInterval {
                    thread,
                    start: clock.since,
                    end: self.max_time.max(clock.since),
                    by,
                });
                result.stranded_threads += 1;
            }
        }
        result.end_time = self.max_time;
        result.heap = self.machine.heap().stats();
        result.threads_spawned = u32::try_from(self.machine.threads().len())
            .expect("thread count outgrew u32 (checked at spawn, so unreachable)");
        monitor.on_run_end(&result);
        result
    }

    /// Runs `f` on the machine with the observer for time `t`.
    fn at_time<R>(
        &mut self,
        t: SimTime,
        monitor: &mut dyn Monitor,
        f: impl FnOnce(&mut Machine<'w>, &mut Timed<'_>) -> R,
    ) -> R {
        let clock = &mut self.clock;
        f(&mut self.machine, &mut Timed { t, clock, monitor })
    }

    /// Applies seeded timing noise to a nominal duration.
    ///
    /// The result never rounds a nonzero duration down to zero: a 1µs
    /// compute at 3% noise used to floor to 0µs on factors below 100,
    /// collapsing distinct schedule points onto one timestamp and turning
    /// exact end-time assertions into a seed lottery. Real hardware jitter
    /// shortens an operation; it does not make it free.
    fn noised(&mut self, dur: SimTime) -> SimTime {
        let pct = self.config.timing_noise_pct.min(50);
        if pct == 0 || dur == SimTime::ZERO {
            return dur;
        }
        let span = 2 * pct as u64;
        let factor = 100 - pct as u64 + self.rng.gen_range(0..=span);
        SimTime::from_us((dur.as_us().saturating_mul(factor) / 100).max(1))
    }

    fn step(&mut self, tid: ThreadId, t: SimTime, monitor: &mut dyn Monitor) {
        self.max_time = self.max_time.max(t);
        // Commit every store whose drain time has arrived — across all
        // threads, since this thread may be about to read shared memory.
        // Queue pops are globally time-ordered, so draining up to `t` here
        // never commits a store "early" relative to any observer.
        if self.machine.model().is_weak() {
            self.drain_due(t);
        }
        let op = self.machine.op(tid);
        // A pending access means the injected delay elapsed; perform it.
        if let Some(pending) = self.clock.threads[tid.0 as usize].pending.take() {
            let op = op.expect("a delayed thread is parked at its access");
            return self.perform_access(tid, t, op, pending, monitor);
        }
        let resume = match op {
            // End of script: a pool worker resumes its own frame at once.
            None => t,
            Some(op) => {
                self.clock.result.ops_executed += 1;
                match *op {
                    Op::Access { .. } => return self.begin_access(tid, t, op, monitor),
                    Op::Compute { dur } => t + self.noised(dur),
                    Op::Pad { dur } => t + dur,
                    Op::Fork { .. } => t + FORK_COST,
                    Op::Throw { site } => {
                        self.clock.result.app_exceptions.push(AppException {
                            site,
                            thread: tid,
                            time: t,
                        });
                        t
                    }
                    _ => t,
                }
            }
        };
        match self.at_time(t, monitor, |m, obs| m.exec(tid, op, obs)) {
            Step::Blocked(_) => self.clock.threads[tid.0 as usize].since = t,
            Step::Exited => {}
            _ => self.clock.schedule(tid, resume),
        }
    }

    /// Commits every store across all buffers whose drain time has
    /// arrived, earliest first (ties broken by thread id), among those the
    /// model lets drain next.
    fn drain_due(&mut self, now: SimTime) {
        loop {
            let mut best: Option<(SimTime, ThreadId, usize)> = None;
            for t in self.machine.thread_ids() {
                for i in self.machine.committable(t) {
                    let at = self.machine.thread(t).buffer[i].drain_at;
                    if at <= now && best.is_none_or(|(bt, bu, _)| (at, t) < (bt, bu)) {
                        best = Some((at, t, i));
                    }
                }
            }
            let Some((_, t, i)) = best else { return };
            self.machine.commit(t, i);
        }
    }

    /// Stamps the store thread `tid` just buffered with its drain time:
    /// `due` plus the noised drain latency, floored so that it never
    /// drains before an earlier store it is ordered after (the whole
    /// buffer under TSO, same-object entries under PSO). The floor keeps a
    /// PSO-only plant unexposable under TSO even with injection.
    fn stamp_drain(&mut self, tid: ThreadId, due: SimTime) {
        let drain_at = due + self.noised(DRAIN_LATENCY);
        let pso = self.machine.model() == MemoryModel::Pso;
        let buf = &self.machine.thread(tid).buffer;
        let (new, older) = buf.split_last().expect("a transition was just buffered");
        let floor = if pso {
            older.iter().rev().find(|e| e.obj == new.obj)
        } else {
            older.last()
        };
        let drain_at = floor.map_or(drain_at, |f| drain_at.max(f.drain_at));
        self.machine.stamp_newest(tid, drain_at);
    }

    fn begin_access(&mut self, tid: ThreadId, t: SimTime, op: &'w Op, monitor: &mut dyn Monitor) {
        let Op::Access {
            obj, kind, site, ..
        } = *op
        else {
            unreachable!("begin_access runs at an access");
        };
        let counts = &mut self.clock.result.site_dyn_counts;
        let idx = site.0 as usize;
        if idx >= counts.len() {
            // Sites are registered up front, so this only triggers for
            // monitors that synthesize sites mid-run.
            counts.resize(idx + 1, 0);
        }
        let dyn_index = counts[idx];
        counts[idx] += 1;
        self.active_delays.retain(|d| d.end > t);
        let action = monitor.on_access_pre(&AccessCtx {
            time: t,
            thread: tid,
            site,
            obj,
            kind,
            dyn_index,
            task: self.machine.thread(tid).task,
            active_delays: &self.active_delays,
            last_block: self.clock.threads[tid.0 as usize].last_block.as_ref(),
        });
        let pending = PendingAccess {
            dyn_index,
            delayed_by: SimTime::ZERO,
        };
        let PreAction::Delay(d) = action else {
            return self.perform_access(tid, t, op, pending, monitor);
        };
        self.clock.result.delays.push(DelayRecord {
            thread: tid,
            site,
            obj,
            start: t,
            dur: d,
        });
        self.active_delays.push(ActiveDelay {
            thread: tid,
            site,
            end: t + d,
        });
        let pending = PendingAccess {
            delayed_by: d,
            ..pending
        };
        // Under a weak model a delay at a *store* does not pause the
        // thread: it stretches the store's residence in the buffer
        // instead. The thread publishes its downstream signals on time
        // while the store is still invisible — which is how injection
        // widens the stale-read window other threads race into. Loads (and
        // every access under SC) keep the classical pause semantics.
        if self.machine.model().is_weak() && matches!(kind, AccessKind::Init | AccessKind::Dispose)
        {
            self.perform_access(tid, t, op, pending, monitor);
        } else {
            self.clock.threads[tid.0 as usize].pending = Some(pending);
            self.clock.schedule(tid, t + d);
        }
    }

    fn perform_access(
        &mut self,
        tid: ThreadId,
        t: SimTime,
        op: &'w Op,
        p: PendingAccess,
        monitor: &mut dyn Monitor,
    ) {
        let Op::Access {
            obj,
            kind,
            site,
            dur,
        } = *op
        else {
            unreachable!("perform_access runs at an access");
        };
        self.clock.result.instrumented_ops += 1;
        let outcome = match self.at_time(t, monitor, |m, obs| m.exec(tid, Some(op), obs)) {
            Step::Accessed(outcome) => Ok(outcome),
            Step::Fault(error) => Err(error),
            step => unreachable!("an access completes or faults, not {step:?}"),
        };
        let dur = self.noised(dur);
        if let Ok(AccessOutcome::Transition { .. }) = outcome {
            if self.machine.model().is_weak() {
                self.stamp_drain(tid, t + dur + p.delayed_by);
            }
        }
        if kind == AccessKind::UnsafeApiCall && outcome.is_ok() {
            // TSVD trap semantics: a thread paused by an injected delay is
            // conceptually *at* the call boundary for the whole pause, so
            // the conflict window opens when the delay started.
            self.check_tsv(tid, t - p.delayed_by, t + dur, obj, site);
        }
        let recent = &mut self.clock.threads[tid.0 as usize].recent;
        if recent.len() == RECENT_DEPTH {
            recent.pop_front();
        }
        recent.push_back(RecentOp {
            site,
            kind,
            obj,
            time: t,
        });
        monitor.on_access_post(&AccessRecord {
            time: t,
            thread: tid,
            site,
            obj,
            kind,
            dyn_index: p.dyn_index,
            task: self.machine.thread(tid).task,
            delayed_by: p.delayed_by,
            outcome,
        });
        let Err(error) = outcome else {
            let overhead = monitor.instr_overhead(kind);
            return self.clock.schedule(tid, t + dur + overhead);
        };
        let result = &mut self.clock.result;
        if result.exceptions.is_empty() {
            // First manifestation: snapshot every thread's context (the §5
            // bug report records "stack traces for all threads").
            let workload = self.machine.workload();
            result.thread_contexts = self
                .machine
                .thread_ids()
                .zip(&self.clock.threads)
                .map(|(u, clock)| ThreadContext {
                    thread: u,
                    script: workload.script(self.machine.thread(u).script).name.clone(),
                    faulting: u == tid,
                    recent: clock.recent.iter().copied().collect(),
                })
                .collect();
        }
        result.exceptions.push(SimException {
            error,
            thread: tid,
            time: t,
        });
        self.at_time(t, monitor, |m, obs| m.exit(tid, obs));
    }

    fn check_tsv(
        &mut self,
        tid: ThreadId,
        start: SimTime,
        end: SimTime,
        obj: ObjectId,
        site: SiteId,
    ) {
        let windows = self.tsv_windows.entry(obj).or_default();
        windows.retain(|w| w.end > start);
        for w in windows.iter() {
            if w.thread != tid && w.start < end && w.end > start {
                self.clock.result.tsv_violations.push(TsvViolation {
                    obj,
                    first_site: w.site,
                    second_site: site,
                    threads: (w.thread, tid),
                    time: start,
                });
            }
        }
        windows.push(TsvWindow {
            thread: tid,
            start,
            end,
            site,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Cond;
    use crate::time::{ms, us};
    use crate::workload::WorkloadBuilder;

    fn det() -> SimConfig {
        SimConfig::with_seed(1).deterministic()
    }

    /// Workload: main inits, forks a worker that uses, joins, disposes.
    fn safe_workload() -> Workload {
        let mut b = WorkloadBuilder::new("safe");
        let o = b.object("o");
        let w = b.script("worker", |s| {
            s.compute(us(10)).use_(o, "W.use:1", us(5));
        });
        let m = b.script("main", |s| {
            s.init(o, "M.init:1", us(10))
                .fork(w)
                .join_children()
                .dispose(o, "M.dispose:9", us(5));
        });
        b.main(m);
        b.build()
    }

    #[test]
    fn safe_workload_runs_clean() {
        let w = safe_workload();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        assert!(!r.timed_out);
        assert_eq!(r.threads_spawned, 2);
        assert_eq!(r.heap.inits, 1);
        assert_eq!(r.heap.uses, 1);
        assert_eq!(r.heap.disposes, 1);
        assert_eq!(r.stranded_threads, 0);
        // Join must have ordered the dispose after the worker's use.
        assert!(r.blocked.iter().any(|b| b.by == BlockedBy::Join));
    }

    #[test]
    fn virtual_time_accumulates_service_times() {
        let mut b = WorkloadBuilder::new("t");
        let m = b.script("main", |s| {
            s.compute(ms(1)).compute(ms(2));
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert_eq!(r.end_time, ms(3));
        assert_eq!(r.ops_executed, 2);
    }

    #[test]
    fn use_before_init_race_depends_on_timing() {
        // Main forks a worker that uses the object after 50µs; main inits
        // at 100µs: the use strikes a NULL reference.
        let mut b = WorkloadBuilder::new("ubi");
        let o = b.object("o");
        let wk = b.script("worker", |s| {
            s.compute(us(50)).use_(o, "W.use:1", us(5));
        });
        let m = b.script("main", |s| {
            s.fork(wk).compute(us(100)).init(o, "M.init:1", us(5));
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(r.manifested());
        assert_eq!(
            r.exceptions[0].error.kind,
            waffle_mem::NullRefKind::UseBeforeInit
        );
        // The faulting thread died; main completed.
        assert_eq!(r.exceptions[0].thread, ThreadId(1));
    }

    #[test]
    fn delay_injection_reorders_accesses() {
        // Init at t=0 (main), use at t=10µs (worker) — safe without delays.
        // A monitor that delays the use... wait, delaying the *use* makes
        // it run later, still after init: safe. Delay the *init* instead,
        // pushing it past the use: use-before-init manifests. This is the
        // paper's Fig. 2 order-violation timing condition.
        struct DelayInit;
        impl Monitor for DelayInit {
            fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
                if ctx.kind == AccessKind::Init {
                    PreAction::Delay(ms(1))
                } else {
                    PreAction::Proceed
                }
            }
        }
        let mut b = WorkloadBuilder::new("delayable");
        let o = b.object("o");
        let wk = b.script("worker", |s| {
            s.compute(us(10)).use_(o, "W.use:1", us(5));
        });
        let m = b.script("main", |s| {
            s.fork(wk).init(o, "M.init:1", us(5)).join_children();
        });
        b.main(m);
        let w = b.build();
        // Without delays: clean.
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        // With the init delayed: the worker's use hits NULL.
        let r = Simulator::run(&w, det(), &mut DelayInit);
        assert!(r.manifested());
        assert_eq!(r.delays.len(), 1);
        assert_eq!(r.delays[0].dur, ms(1));
    }

    #[test]
    fn locks_provide_mutual_exclusion_and_fifo_handoff() {
        let mut b = WorkloadBuilder::new("locks");
        let o = b.object("o");
        let lk = b.lock("mu");
        let wk = b.script("worker", |s| {
            s.acquire(lk).compute(ms(1)).release(lk);
        });
        let m = b.script("main", |s| {
            s.init(o, "M.init:1", us(1))
                .fork(wk)
                .fork(wk)
                .acquire(lk)
                .compute(ms(1))
                .release(lk)
                .join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        // Three 1ms critical sections serialize: end-to-end ≥ 3ms.
        assert!(r.end_time >= ms(3), "end={}", r.end_time);
        // Two of the three threads must have blocked on the lock.
        let lock_blocks = r
            .blocked
            .iter()
            .filter(|b| matches!(b.by, BlockedBy::Lock(_)))
            .count();
        assert_eq!(lock_blocks, 2);
    }

    #[test]
    fn events_are_sticky() {
        let mut b = WorkloadBuilder::new("ev");
        let ev = b.event("done");
        let wk = b.script("worker", |s| {
            s.wait(ev).compute(us(1));
        });
        let m = b.script("main", |s| {
            s.signal(ev).fork(wk).join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        // The worker waited after the signal: no block recorded for it.
        assert!(r
            .blocked
            .iter()
            .all(|bi| !matches!(bi.by, BlockedBy::Event(_))));
        assert_eq!(r.stranded_threads, 0);
    }

    #[test]
    fn event_wait_blocks_until_signal() {
        let mut b = WorkloadBuilder::new("ev2");
        let ev = b.event("go");
        let wk = b.script("worker", |s| {
            s.wait(ev).compute(us(1));
        });
        let m = b.script("main", |s| {
            s.fork(wk).compute(ms(2)).signal(ev).join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        let ev_block = r
            .blocked
            .iter()
            .find(|bi| matches!(bi.by, BlockedBy::Event(_)))
            .expect("worker must block on event");
        assert!(ev_block.len() >= ms(1));
    }

    #[test]
    fn faulting_thread_strands_its_joiner_but_run_completes() {
        // The worker faults before signalling; main joins it fine (death
        // wakes joiners), but the waiter on the event, forked by an
        // intermediate thread that nobody waits for, is stranded.
        let mut b = WorkloadBuilder::new("strand");
        let o = b.object("o");
        let ev = b.event("never");
        let waiter = b.script("waiter", |s| {
            s.wait(ev).compute(us(1));
        });
        let faulty = b.script("faulty", |s| {
            s.use_(o, "F.use:1", us(1)).signal(ev);
        });
        let mid = b.script("mid", |s| {
            s.fork(waiter);
        });
        let m = b.script("main", |s| {
            s.fork(mid).fork(faulty).join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(r.manifested());
        assert_eq!(r.stranded_threads, 1);
    }

    #[test]
    fn faulting_thread_releases_its_locks() {
        let mut b = WorkloadBuilder::new("unwind");
        let o = b.object("o");
        let lk = b.lock("mu");
        let faulty = b.script("faulty", |s| {
            s.acquire(lk).use_(o, "F.use:1", us(1)).release(lk);
        });
        let m = b.script("main", |s| {
            s.fork(faulty)
                .compute(us(50))
                .acquire(lk)
                .compute(us(1))
                .release(lk)
                .join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(r.manifested());
        // Main must not be stranded on the lock.
        assert_eq!(r.stranded_threads, 0);
    }

    #[test]
    fn tsv_overlap_detected_only_across_threads() {
        let mut b = WorkloadBuilder::new("tsv");
        let o = b.object("dict");
        let wk = b.script("worker", |s| {
            s.unsafe_call(o, "W.Add:1", ms(1));
        });
        let m = b.script("main", |s| {
            s.init(o, "M.init:1", us(1))
                .fork(wk)
                .unsafe_call(o, "M.Add:5", ms(1))
                .join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert_eq!(r.tsv_violations.len(), 1);
        let v = r.tsv_violations[0];
        assert_ne!(v.threads.0, v.threads.1);
    }

    #[test]
    fn sequential_unsafe_calls_do_not_violate() {
        let mut b = WorkloadBuilder::new("tsv-seq");
        let o = b.object("dict");
        let m = b.script("main", |s| {
            s.init(o, "M.init:1", us(1))
                .unsafe_call(o, "M.Add:5", ms(1))
                .unsafe_call(o, "M.Add:6", ms(1));
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(r.tsv_violations.is_empty());
    }

    #[test]
    fn deadline_marks_timeout() {
        let mut b = WorkloadBuilder::new("slow");
        let m = b.script("main", |s| {
            s.compute(ms(10)).compute(ms(10));
        });
        b.main(m);
        let w = b.build();
        let cfg = SimConfig {
            deadline: Some(ms(5)),
            ..det()
        };
        let r = Simulator::run(&w, cfg, &mut crate::monitor::NullMonitor);
        assert!(r.timed_out);
        assert_eq!(r.end_time, ms(5));
    }

    #[test]
    fn skip_if_branches_on_heap_state() {
        let mut b = WorkloadBuilder::new("branch");
        let o = b.object("o");
        let flag = b.object("flag");
        let m = b.script("main", |s| {
            // o is NULL: skip the init of flag, then check flag is NULL.
            s.skip_if(o, Cond::IsNull, 1)
                .init(flag, "M.flag:1", us(1))
                .init(o, "M.o:2", us(1))
                .skip_if(flag, Cond::IsNull, 1)
                .use_(flag, "M.useflag:3", us(1)); // skipped (flag NULL)
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        assert_eq!(r.heap.inits, 1); // Only `o` got initialized.
        assert_eq!(r.heap.uses, 0);
    }

    #[test]
    fn timing_noise_perturbs_end_time_but_preserves_safety() {
        let w = safe_workload();
        let r1 = Simulator::run(
            &w,
            SimConfig {
                seed: 1,
                timing_noise_pct: 10,
                ..SimConfig::default()
            },
            &mut crate::monitor::NullMonitor,
        );
        let r2 = Simulator::run(
            &w,
            SimConfig {
                seed: 2,
                timing_noise_pct: 10,
                ..SimConfig::default()
            },
            &mut crate::monitor::NullMonitor,
        );
        assert!(!r1.manifested() && !r2.manifested());
        assert_ne!(r1.end_time, r2.end_time);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let w = safe_workload();
        let cfg = SimConfig {
            seed: 42,
            timing_noise_pct: 10,
            ..SimConfig::default()
        };
        let r1 = Simulator::run(&w, cfg.clone(), &mut crate::monitor::NullMonitor);
        let r2 = Simulator::run(&w, cfg, &mut crate::monitor::NullMonitor);
        assert_eq!(r1.end_time, r2.end_time);
        assert_eq!(r1.ops_executed, r2.ops_executed);
    }

    #[test]
    fn instr_overhead_is_charged_per_access() {
        let mut b = WorkloadBuilder::new("oh");
        let o = b.object("o");
        let m = b.script("main", |s| {
            s.init(o, "a", us(10))
                .use_(o, "b", us(10))
                .dispose(o, "c", us(10));
        });
        b.main(m);
        let w = b.build();
        let base = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        let mut oh = crate::monitor::OverheadMonitor { per_access: us(5) };
        let inst = Simulator::run(&w, det(), &mut oh);
        assert_eq!(inst.end_time, base.end_time + us(15));
    }

    // ---- weak-memory (store-buffer) semantics -------------------------

    fn weak_cfg(model: MemoryModel) -> SimConfig {
        det().with_memory(MemoryConfig::from_model(model))
    }

    /// The canonical TSO bug shape: publish-by-event without a fence. The
    /// event edge orders the *signal* after the *init instruction*, but the
    /// init's store is still in main's buffer when the consumer wakes.
    fn tso_handoff(with_fence: bool) -> Workload {
        let mut b = WorkloadBuilder::new("tso.handoff");
        let o = b.object("conn");
        let ready = b.event("ready");
        let wk = b.script("consumer", move |s| {
            s.wait(ready).use_(o, "C.use:1", us(5));
        });
        let m = b.script("main", move |s| {
            s.fork(wk).init(o, "M.init:1", us(10));
            if with_fence {
                s.fence();
            }
            s.signal(ready).join_children();
        });
        b.main(m);
        b.build()
    }

    #[test]
    fn tso_store_buffer_exposes_unfenced_event_handoff() {
        let w = tso_handoff(false);
        // Sequentially consistent: the init is globally visible the moment
        // it executes, so the event edge is enough.
        let r = Simulator::run(&w, det(), &mut crate::monitor::NullMonitor);
        assert!(!r.manifested());
        // TSO: the consumer wakes while the init still sits in main's
        // store buffer (drain window > signal latency) and reads NULL.
        let r = Simulator::run(
            &w,
            weak_cfg(MemoryModel::Tso),
            &mut crate::monitor::NullMonitor,
        );
        assert!(r.manifested(), "consumer must observe the pre-init value");
        assert_eq!(
            r.exceptions[0].error.kind,
            waffle_mem::NullRefKind::UseBeforeInit
        );
    }

    #[test]
    fn fence_restores_the_handoff_under_tso_and_pso() {
        let w = tso_handoff(true);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let r = Simulator::run(&w, weak_cfg(model), &mut crate::monitor::NullMonitor);
            assert!(!r.manifested(), "fence must drain the buffer under {model}");
        }
    }

    #[test]
    fn pso_reorders_per_object_streams_where_tso_keeps_fifo() {
        // Main publishes data then a flag. A delay injected at the data
        // init stretches its drain; under PSO the flag (a different
        // object) drains on time, so the consumer sees flag=Live while
        // data is still NULL. Under TSO the flag's drain is floored at
        // the data's (total FIFO), so the consumer skips cleanly.
        struct DelayDataInit(ObjectId);
        impl Monitor for DelayDataInit {
            fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
                if ctx.kind == AccessKind::Init && ctx.obj == self.0 {
                    PreAction::Delay(ms(1))
                } else {
                    PreAction::Proceed
                }
            }
        }
        let mut b = WorkloadBuilder::new("pso.flag");
        let data = b.object("data");
        let flag = b.object("flag");
        let wk = b.script("consumer", move |s| {
            s.compute(us(200))
                .skip_if(flag, Cond::IsNull, 1)
                .use_(data, "C.use:1", us(5));
        });
        let m = b.script("main", move |s| {
            s.fork(wk)
                .init(data, "M.data:1", us(10))
                .init(flag, "M.flag:2", us(10))
                // Keep main busy: join is a flush point, and joining
                // immediately would publish both stores before the
                // consumer's read.
                .compute(ms(2))
                .join_children();
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(&w, weak_cfg(MemoryModel::Pso), &mut DelayDataInit(data));
        assert!(r.manifested(), "PSO must let the flag outrun the data");
        assert_eq!(
            r.exceptions[0].error.kind,
            waffle_mem::NullRefKind::UseBeforeInit
        );
        let r = Simulator::run(&w, weak_cfg(MemoryModel::Tso), &mut DelayDataInit(data));
        assert!(!r.manifested(), "TSO's total store FIFO must protect it");
        let r = Simulator::run(&w, det(), &mut DelayDataInit(data));
        assert!(!r.manifested(), "SC pauses the thread instead");
    }

    #[test]
    fn injected_delay_stretches_the_drain_without_pausing_the_thread() {
        struct DelayInit;
        impl Monitor for DelayInit {
            fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
                if ctx.kind == AccessKind::Init {
                    PreAction::Delay(ms(5))
                } else {
                    PreAction::Proceed
                }
            }
        }
        let w = tso_handoff(true); // fenced: clean without injection
        let r = Simulator::run(
            &w,
            weak_cfg(MemoryModel::Tso),
            &mut crate::monitor::NullMonitor,
        );
        assert!(!r.manifested());
        // Under SC the same delay pauses main before the init, which only
        // pushes the whole publish later: still clean.
        let r = Simulator::run(&w, det(), &mut DelayInit);
        assert!(!r.manifested());
        assert_eq!(r.delays.len(), 1);
        // Under TSO the delay lands on the *drain*: main reaches the fence
        // (a flush point) which commits the store, so the fenced variant
        // stays clean — but the unfenced one now has a 5ms stale window.
        let r = Simulator::run(&w, weak_cfg(MemoryModel::Tso), &mut DelayInit);
        assert!(!r.manifested());
        let unfenced = tso_handoff(false);
        let r = Simulator::run(&unfenced, weak_cfg(MemoryModel::Tso), &mut DelayInit);
        assert!(r.manifested());
        // The thread ran ahead: the recorded delay did not shift its clock,
        // so the manifestation happens inside the stale window, well before
        // the 5ms pause would have ended.
        assert!(r.exceptions[0].time < ms(5));
    }

    #[test]
    fn residual_buffers_drain_at_end_of_run() {
        // A store still buffered when its thread exits must land in shared
        // memory: heap stats and final cell state agree with SC.
        let mut b = WorkloadBuilder::new("residual");
        let o = b.object("o");
        let m = b.script("main", move |s| {
            s.init(o, "M.init:1", us(1));
        });
        b.main(m);
        let w = b.build();
        let r = Simulator::run(
            &w,
            weak_cfg(MemoryModel::Tso),
            &mut crate::monitor::NullMonitor,
        );
        assert!(!r.manifested());
        assert_eq!(r.heap.inits, 1);
    }

    #[test]
    fn joiners_of_one_thread_wake_in_ascending_thread_order() {
        // Main forks six threads that wait on one event. When main
        // signals it they all wake at once and exit together, and main,
        // joining its children, sees them finish at once. Both the
        // blocked intervals and the join hooks must come out in ascending
        // thread id on every run — a run is a pure function of (workload,
        // config, monitor).
        #[derive(Default)]
        struct Joins(Vec<(ThreadId, ThreadId)>);
        impl Monitor for Joins {
            fn on_join(&mut self, waiter: ThreadId, joined: ThreadId, _time: SimTime) {
                self.0.push((waiter, joined));
            }
        }
        let mut b = WorkloadBuilder::new("joiners");
        let ev = b.event("go");
        let waiter = b.script("waiter", move |s| {
            s.wait(ev);
        });
        let m = b.script("main", move |s| {
            s.fork_n(waiter, 6)
                .compute(ms(1))
                .signal(ev)
                .join_children();
        });
        b.main(m);
        let w = b.build();
        let first = Simulator::run(&w, det(), &mut Joins::default());
        let waiters: Vec<ThreadId> = first
            .blocked
            .iter()
            .filter(|bi| bi.by == BlockedBy::Event(ev))
            .map(|bi| bi.thread)
            .collect();
        assert_eq!(waiters, (1..7).map(ThreadId).collect::<Vec<_>>());
        for _ in 0..20 {
            let mut joins = Joins::default();
            let again = Simulator::run(&w, det(), &mut joins);
            assert_eq!(again.blocked, first.blocked);
            let woken: Vec<ThreadId> = joins
                .0
                .iter()
                .filter(|&&(waiter, _)| waiter == ThreadId(0))
                .map(|(_, joined)| *joined)
                .collect();
            assert_eq!(woken, waiters, "join hooks out of thread order");
        }
    }

    /// Threads in the event-queue property test.
    const QUEUE_THREADS: u32 = 4;

    proptest::proptest! {
        /// Over any interleaving of schedules and pops, the fast-lane
        /// clock pops the same `(time, gen, thread)` sequence as a plain
        /// binary heap fed the same keys.
        #[test]
        fn fast_lane_pops_in_heap_order(
            ops in proptest::collection::vec((0u8..3, 0..QUEUE_THREADS, 0u64..40), 0..200),
        ) {
            let mut clock = Clock {
                next: None,
                queue: BinaryHeap::new(),
                threads: Vec::new(),
                result: RunResult::default(),
            };
            let mut heap = BinaryHeap::new();
            let mut gens = [0u64; QUEUE_THREADS as usize];
            let mut schedule = |clock: &mut Clock, heap: &mut BinaryHeap<_>, tid: u32, at| {
                let t = ThreadId(tid);
                if tid as usize == clock.threads.len() {
                    clock.spawn(t, at);
                } else {
                    clock.schedule(t, at);
                }
                gens[tid as usize] += 1;
                heap.push(Reverse((at, gens[tid as usize], t)));
            };
            for tid in 0..QUEUE_THREADS {
                schedule(&mut clock, &mut heap, tid, SimTime::ZERO);
            }
            for (kind, tid, at) in ops {
                if kind < 2 {
                    schedule(&mut clock, &mut heap, tid, us(at));
                } else {
                    proptest::prop_assert_eq!(clock.pop(), heap.pop().map(|Reverse(k)| k));
                }
            }
            while let Some(Reverse(key)) = heap.pop() {
                proptest::prop_assert_eq!(clock.pop(), Some(key));
            }
            proptest::prop_assert_eq!(clock.pop(), None);
        }
    }
}
