//! The time-free operational semantics of the op language.
//!
//! A [`Machine`] holds everything an op can change: per-thread control
//! (script, pc, task frames, status, held locks, children, join set), FIFO
//! locks, sticky events, the [`Heap`], the task queue and the per-thread
//! store buffers. [`Machine::exec`] runs one thread's next op. Two
//! schedulers drive the same machine, so they cannot disagree about what
//! an op means:
//!
//! - the [`Simulator`](crate::Simulator) decides *when* each thread steps.
//!   It adds virtual clocks, the event queue, timing noise, drain
//!   deadlines, delay injection and the monitor hooks;
//! - the schedule oracle in `waffle-fuzz` decides *which* thread steps or
//!   which buffered store drains, and enumerates every such choice within
//!   a preemption bound.
//!
//! `exec` reports what the op touched and caused to an [`Observer`]: the
//! objects, locks and events (the oracle's independence footprint),
//! global effects on the thread table or task queue, wakeups, forks, join
//! edges and task start/end (the simulator's clocks and monitor hooks).
//! The observer is a generic parameter, so each scheduler gets its own
//! monomorphised copy of the interpreter.

use std::collections::VecDeque;

use waffle_mem::{AccessOutcome, Heap, NullRefError, ObjectId, RefState};

use crate::ids::{EventId, LockId, ScriptId, ThreadId};
use crate::memory::MemoryModel;
use crate::op::{Cond, Op};
use crate::result::BlockedBy;
use crate::tasks::{TaskId, TaskParent};
use crate::time::SimTime;
use crate::workload::Workload;

/// Whether a thread can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Runnable.
    Ready,
    /// Waiting on a lock, an event or a join.
    Blocked(BlockedBy),
    /// Finished, normally or by an exception.
    Done,
}

/// What [`Machine::exec`] did to the executing thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The op completed; the thread is ready for its next op.
    Advanced,
    /// An access completed with this heap outcome.
    Accessed(AccessOutcome),
    /// The thread blocked; a later op of another thread wakes it.
    Blocked(BlockedBy),
    /// The thread finished.
    Exited,
    /// The access raised a NULL-reference exception. The thread has not
    /// moved; the caller decides whether it dies (the simulator kills it,
    /// the oracle stops at the witness).
    Fault(NullRefError),
}

/// A store that executed but is not yet globally visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedStore {
    /// Target object.
    pub obj: ObjectId,
    /// The state the store writes.
    pub to: RefState,
    /// When the store drains: the simulator's deadline, stamped after the
    /// store executes. The machine itself never reads it.
    pub drain_at: SimTime,
}

/// One thread's control state.
#[derive(Debug)]
pub struct ThreadState {
    /// The script being executed (a task's script while a pool worker
    /// runs one).
    pub script: ScriptId,
    /// Index of the next op in `script`.
    pub pc: usize,
    /// Whether the thread can run.
    pub status: ThreadStatus,
    /// Saved `(script, pc)` frames: a pool worker pushes its own frame
    /// here while it runs a task inline.
    pub frames: Vec<(ScriptId, usize)>,
    /// The task whose code the thread is executing, if any.
    pub task: Option<TaskId>,
    /// Locks held, in acquisition order (the release order on exit).
    pub held: Vec<LockId>,
    /// Direct children, in fork order.
    pub children: Vec<ThreadId>,
    /// The threads the last join waited for, ascending. While the thread
    /// is blocked on the join, the ones not yet `Done` are outstanding.
    pub join: Vec<ThreadId>,
    /// Store buffer in push order; always empty under `Sc`.
    pub buffer: Vec<BufferedStore>,
}

impl ThreadState {
    fn new(script: ScriptId) -> Self {
        Self {
            script,
            pc: 0,
            status: ThreadStatus::Ready,
            frames: Vec::new(),
            task: None,
            held: Vec::new(),
            children: Vec::new(),
            join: Vec::new(),
            buffer: Vec::new(),
        }
    }
}

// Hand-written so `clone_from` reuses each vector's allocation (the derive
// would fall back to `*self = source.clone()`): the oracle's
// clone-on-branch must not allocate once vectors reach their working size.
impl Clone for ThreadState {
    fn clone(&self) -> Self {
        let mut th = Self::new(self.script);
        th.clone_from(self);
        th
    }

    fn clone_from(&mut self, src: &Self) {
        self.script = src.script;
        self.pc = src.pc;
        self.status = src.status;
        self.frames.clone_from(&src.frames);
        self.task = src.task;
        self.held.clone_from(&src.held);
        self.children.clone_from(&src.children);
        self.join.clone_from(&src.join);
        self.buffer.clone_from(&src.buffer);
    }
}

/// Receives what an op touched and caused. Every method defaults to a
/// no-op, so an observer implements only what its scheduler consumes.
pub trait Observer {
    /// The op read or wrote `obj` (access, `SkipIf`, buffer flush).
    fn object(&mut self, _obj: ObjectId) {}
    /// The op acquired or released `lock`.
    fn lock(&mut self, _lock: LockId) {}
    /// The op signalled or waited on `ev`.
    fn event(&mut self, _ev: EventId) {}
    /// The op changed the thread table or the task queue (fork, join,
    /// exit, task spawn or run).
    fn global(&mut self) {}
    /// `thread` left its block (lock handoff, signal, last join target
    /// finished) and moved past the blocking op.
    fn woke(&mut self, _thread: ThreadId, _by: BlockedBy) {}
    /// `parent` forked `child`.
    fn forked(&mut self, _parent: ThreadId, _child: ThreadId) {}
    /// `waiter` joined the finished thread `joined`.
    fn joined(&mut self, _waiter: ThreadId, _joined: ThreadId) {}
    /// `task` was enqueued by `parent`.
    fn task_spawned(&mut self, _parent: TaskParent, _task: TaskId) {}
}

/// The observer that ignores everything.
impl Observer for () {}

/// The shared state of one workload execution. See the module docs.
#[derive(Debug)]
pub struct Machine<'w> {
    workload: &'w Workload,
    model: MemoryModel,
    threads: Vec<ThreadState>,
    lock_holders: Vec<Option<ThreadId>>,
    lock_waiters: Vec<VecDeque<ThreadId>>,
    signaled: Vec<bool>,
    event_waiters: Vec<Vec<ThreadId>>,
    heap: Heap,
    tasks: VecDeque<(TaskId, ScriptId)>,
    tasks_spawned: u32,
}

impl Clone for Machine<'_> {
    fn clone(&self) -> Self {
        let mut m = Self::new(self.workload, self.model);
        m.clone_from(self);
        m
    }

    fn clone_from(&mut self, src: &Self) {
        self.workload = src.workload;
        self.model = src.model;
        self.threads.clone_from(&src.threads);
        self.lock_holders.clone_from(&src.lock_holders);
        self.lock_waiters.clone_from(&src.lock_waiters);
        self.signaled.clone_from(&src.signaled);
        self.event_waiters.clone_from(&src.event_waiters);
        self.heap.clone_from(&src.heap);
        self.tasks.clone_from(&src.tasks);
        self.tasks_spawned = src.tasks_spawned;
    }
}

impl<'w> Machine<'w> {
    /// The initial state: thread 0 ready at the start of the main script.
    /// Under a weak `model` stores go through the store buffers.
    pub fn new(workload: &'w Workload, model: MemoryModel) -> Self {
        let (locks, events) = (workload.n_locks as usize, workload.n_events as usize);
        Self {
            workload,
            model,
            threads: {
                // At least one thread per script; a floor, not a bound.
                let mut threads = Vec::with_capacity(workload.scripts.len());
                threads.push(ThreadState::new(workload.main));
                threads
            },
            lock_holders: vec![None; locks],
            lock_waiters: vec![VecDeque::new(); locks],
            signaled: vec![false; events],
            event_waiters: vec![Vec::new(); events],
            heap: Heap::new(workload.n_objects as usize),
            tasks: VecDeque::new(),
            tasks_spawned: 0,
        }
    }

    /// The workload being executed.
    pub(crate) fn workload(&self) -> &'w Workload {
        self.workload
    }

    /// The memory model.
    #[inline]
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Every thread, indexed by id.
    #[inline]
    pub fn threads(&self) -> &[ThreadState] {
        &self.threads
    }

    /// One thread.
    #[inline]
    pub fn thread(&self, t: ThreadId) -> &ThreadState {
        &self.threads[t.0 as usize]
    }

    /// Every thread id, ascending.
    #[inline]
    pub fn thread_ids(&self) -> impl DoubleEndedIterator<Item = ThreadId> {
        // Every id was checked by `ThreadId::try_new` at spawn.
        (0..self.threads.len() as u32).map(ThreadId)
    }

    /// Each lock's holder, indexed by lock id.
    pub fn lock_holders(&self) -> &[Option<ThreadId>] {
        &self.lock_holders
    }

    /// Each lock's FIFO queue of waiting threads.
    pub fn lock_waiters(&self) -> &[VecDeque<ThreadId>] {
        &self.lock_waiters
    }

    /// Whether each event has been signalled.
    pub fn signaled(&self) -> &[bool] {
        &self.signaled
    }

    /// The reference cells (shared memory) and their statistics.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The task queue, oldest first.
    pub fn tasks(&self) -> &VecDeque<(TaskId, ScriptId)> {
        &self.tasks
    }

    /// The op thread `t` executes next; `None` at the end of its script.
    #[inline]
    pub fn op(&self, t: ThreadId) -> Option<&'w Op> {
        let th = self.thread(t);
        self.workload.script(th.script).ops.get(th.pc)
    }

    /// The state thread `t` observes for `obj`: its own newest buffered
    /// store (store-to-load forwarding), else shared memory.
    fn view_of(&self, t: ThreadId, obj: ObjectId) -> RefState {
        self.thread(t)
            .buffer
            .iter()
            .rev()
            .find(|e| e.obj == obj)
            .map_or_else(|| self.heap.state(obj), |e| e.to)
    }

    /// Executes thread `t`'s next op, `op`, which is [`Machine::op`]`(t)`
    /// (the caller has looked it up already). At the end of its script
    /// (`None`), a pool worker returns to its own frame and a plain thread
    /// exits.
    // Always inlined: it is each scheduler's per-op dispatch.
    #[inline(always)]
    pub fn exec(&mut self, t: ThreadId, op: Option<&Op>, obs: &mut impl Observer) -> Step {
        debug_assert_eq!(
            op.map(std::ptr::from_ref),
            self.op(t).map(std::ptr::from_ref)
        );
        let i = t.0 as usize;
        let Some(op) = op else {
            let th = &mut self.threads[i];
            let Some((script, pc)) = th.frames.pop() else {
                self.exit(t, obs);
                return Step::Exited;
            };
            th.script = script;
            th.pc = pc;
            th.task = None;
            return Step::Advanced;
        };
        if op.flushes() {
            self.flush(t, obs);
        }
        match *op {
            Op::Compute { .. } | Op::Pad { .. } | Op::Fence => {}
            Op::Access {
                obj, kind, site, ..
            } => {
                obs.object(obj);
                let outcome = if self.model.is_weak() {
                    // The access classifies against the thread's view; a
                    // store reaches shared memory only when it drains.
                    let view = self.view_of(t, obj);
                    let outcome = self.heap.apply_buffered(obj, site, kind, view);
                    if let Ok(AccessOutcome::Transition { to, .. }) = outcome {
                        let drain_at = SimTime::ZERO;
                        let store = BufferedStore { obj, to, drain_at };
                        self.threads[i].buffer.push(store);
                    }
                    outcome
                } else {
                    self.heap.apply(obj, site, kind)
                };
                return match outcome {
                    Ok(outcome) => {
                        self.threads[i].pc += 1;
                        Step::Accessed(outcome)
                    }
                    Err(e) => Step::Fault(e),
                };
            }
            Op::Fork { script } => {
                obs.global();
                let child = ThreadId::try_new(self.threads.len()).unwrap_or_else(|e| {
                    panic!("{e}: workload forks more threads than the engine can identify")
                });
                self.threads.push(ThreadState::new(script));
                self.threads[i].children.push(child);
                obs.forked(t, child);
            }
            Op::JoinChildren => return self.join(t, obs),
            Op::Acquire { lock } => {
                obs.lock(lock);
                let l = lock.0 as usize;
                if self.lock_holders[l].is_some() {
                    self.lock_waiters[l].push_back(t);
                    return self.block(t, BlockedBy::Lock(lock));
                }
                self.lock_holders[l] = Some(t);
                self.threads[i].held.push(lock);
            }
            Op::Release { lock } => {
                obs.lock(lock);
                self.release(t, lock, obs);
            }
            Op::SignalEvent { ev } => {
                obs.event(ev);
                let e = ev.0 as usize;
                self.signaled[e] = true;
                // Take-and-restore keeps the waiter list's allocation.
                let mut waiters = std::mem::take(&mut self.event_waiters[e]);
                for &w in &waiters {
                    self.wake(w, BlockedBy::Event(ev), obs);
                }
                waiters.clear();
                self.event_waiters[e] = waiters;
            }
            Op::WaitEvent { ev } => {
                obs.event(ev);
                if !self.signaled[ev.0 as usize] {
                    self.event_waiters[ev.0 as usize].push(t);
                    return self.block(t, BlockedBy::Event(ev));
                }
            }
            Op::Throw { .. } | Op::Exit => {
                self.exit(t, obs);
                return Step::Exited;
            }
            Op::SkipIf { obj, cond, skip } => {
                obs.object(obj);
                let holds = match cond {
                    Cond::IsLive => RefState::Live,
                    Cond::IsNull => RefState::Null,
                    Cond::IsDisposed => RefState::Disposed,
                } == self.view_of(t, obj);
                if holds {
                    self.threads[i].pc += skip as usize;
                }
            }
            Op::SpawnTask { script } => {
                // The task queue is shared state every `RunTasks` observes.
                obs.global();
                let task = TaskId(self.tasks_spawned);
                self.tasks_spawned += 1;
                let parent = self.threads[i]
                    .task
                    .map_or(TaskParent::Thread(t), TaskParent::Task);
                self.tasks.push_back((task, script));
                obs.task_spawned(parent, task);
            }
            Op::RunTasks => {
                obs.global();
                if let Some((task, script)) = self.tasks.pop_front() {
                    // Run the task inline. The saved frame still points at
                    // `RunTasks`, so the worker loops back for the next.
                    let th = &mut self.threads[i];
                    th.frames.push((th.script, th.pc));
                    th.script = script;
                    th.pc = 0;
                    th.task = Some(task);
                    return Step::Advanced;
                }
            }
        }
        self.threads[i].pc += 1;
        Step::Advanced
    }

    /// Finishes thread `t`: its buffer drains (exit is a full barrier),
    /// its locks are released in acquisition order (finally-block
    /// semantics), and joiners whose last outstanding target it was wake
    /// in ascending thread id.
    pub(crate) fn exit(&mut self, t: ThreadId, obs: &mut impl Observer) {
        obs.global();
        self.flush(t, obs);
        let i = t.0 as usize;
        self.threads[i].status = ThreadStatus::Done;
        let mut held = std::mem::take(&mut self.threads[i].held);
        for &lock in &held {
            self.release(t, lock, obs);
        }
        held.clear();
        self.threads[i].held = held;
        for u in 0..self.threads.len() {
            let th = &self.threads[u];
            let done = |j: &ThreadId| self.thread(*j).status == ThreadStatus::Done;
            if th.status == ThreadStatus::Blocked(BlockedBy::Join) && th.join.iter().all(done) {
                let w = ThreadId(u as u32);
                self.wake(w, BlockedBy::Join, obs);
                for &joined in &self.threads[u].join {
                    obs.joined(w, joined);
                }
            }
        }
    }

    /// Commits thread `t`'s whole buffer in push order (a forced drain
    /// point), which keeps per-object order under every model.
    pub(crate) fn flush(&mut self, t: ThreadId, obs: &mut impl Observer) {
        for e in self.threads[t.0 as usize].buffer.drain(..) {
            self.heap.commit(e.obj, e.to);
            obs.object(e.obj);
        }
    }

    /// The indices of thread `t`'s buffered stores that may drain next:
    /// the oldest under TSO, the oldest per object under PSO.
    #[inline]
    pub fn committable(&self, t: ThreadId) -> impl DoubleEndedIterator<Item = usize> + '_ {
        let buf = &self.thread(t).buffer;
        let n = if self.model == MemoryModel::Tso {
            buf.len().min(1)
        } else {
            buf.len()
        };
        (0..n).filter(move |&i| buf[..i].iter().all(|p| p.obj != buf[i].obj))
    }

    /// Drains entry `idx` of thread `t`'s buffer into shared memory and
    /// returns its object; `None` if there is no such entry.
    pub fn commit(&mut self, t: ThreadId, idx: usize) -> Option<ObjectId> {
        let buf = &mut self.threads.get_mut(t.0 as usize)?.buffer;
        if idx >= buf.len() {
            return None;
        }
        let e = buf.remove(idx);
        self.heap.commit(e.obj, e.to);
        Some(e.obj)
    }

    /// Sets the drain time of thread `t`'s newest buffered store.
    pub(crate) fn stamp_newest(&mut self, t: ThreadId, drain_at: SimTime) {
        if let Some(e) = self.threads[t.0 as usize].buffer.last_mut() {
            e.drain_at = drain_at;
        }
    }

    /// Joins thread `t`'s children. Already-finished ones are joined at
    /// once; the thread blocks until the rest finish.
    fn join(&mut self, t: ThreadId, obs: &mut impl Observer) -> Step {
        obs.global();
        let i = t.0 as usize;
        let mut live = std::mem::take(&mut self.threads[i].join);
        live.clear();
        live.extend_from_slice(&self.threads[i].children);
        live.retain(|&u| {
            let done = self.thread(u).status == ThreadStatus::Done;
            if done {
                obs.joined(t, u);
            }
            !done
        });
        let wait = !live.is_empty();
        self.threads[i].join = live;
        if wait {
            return self.block(t, BlockedBy::Join);
        }
        self.threads[i].pc += 1;
        Step::Advanced
    }

    fn block(&mut self, t: ThreadId, by: BlockedBy) -> Step {
        self.threads[t.0 as usize].status = ThreadStatus::Blocked(by);
        Step::Blocked(by)
    }

    /// Resumes a blocked thread past the op it blocked in.
    fn wake(&mut self, t: ThreadId, by: BlockedBy, obs: &mut impl Observer) {
        let th = &mut self.threads[t.0 as usize];
        th.status = ThreadStatus::Ready;
        th.pc += 1;
        obs.woke(t, by);
    }

    /// FIFO handoff to the next waiter. Releasing a lock the thread does
    /// not hold is a no-op.
    fn release(&mut self, t: ThreadId, lock: LockId, obs: &mut impl Observer) {
        let l = lock.0 as usize;
        if self.lock_holders[l] != Some(t) {
            return;
        }
        self.threads[t.0 as usize].held.retain(|&h| h != lock);
        let next = self.lock_waiters[l].pop_front();
        self.lock_holders[l] = next;
        if let Some(next) = next {
            self.threads[next.0 as usize].held.push(lock);
            self.wake(next, BlockedBy::Lock(lock), obs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use crate::workload::WorkloadBuilder;

    /// Runs thread `t` until it blocks, exits, or faults.
    fn run(m: &mut Machine<'_>, t: ThreadId, obs: &mut impl Observer) -> Step {
        loop {
            match m.exec(t, m.op(t), obs) {
                Step::Advanced | Step::Accessed(_) => {}
                step => return step,
            }
        }
    }

    /// Main stores `a`, `b`, `a` without a barrier, then exits.
    fn three_stores() -> Workload {
        let mut b = WorkloadBuilder::new("stores");
        let (x, y) = (b.object("a"), b.object("b"));
        let m = b.script("main", move |s| {
            s.init(x, "a:1", us(1))
                .init(y, "b:2", us(1))
                .dispose(x, "a:3", us(1));
        });
        b.main(m);
        b.build()
    }

    #[test]
    fn committable_stores_follow_the_model() {
        let w = three_stores();
        for (model, expect) in [
            (MemoryModel::Sc, vec![]),
            (MemoryModel::Tso, vec![0]),
            (MemoryModel::Pso, vec![0, 1]),
        ] {
            let mut m = Machine::new(&w, model);
            for _ in 0..3 {
                m.exec(ThreadId(0), m.op(ThreadId(0)), &mut ());
            }
            let idx: Vec<usize> = m.committable(ThreadId(0)).collect();
            assert_eq!(idx, expect, "{model}");
            // The thread reads its own newest store whatever has drained.
            assert_eq!(m.view_of(ThreadId(0), ObjectId(0)), RefState::Disposed);
        }
    }

    #[test]
    fn exit_drains_the_buffer_and_reports_the_objects() {
        #[derive(Default)]
        struct Seen(Vec<ObjectId>);
        impl Observer for Seen {
            fn object(&mut self, obj: ObjectId) {
                self.0.push(obj);
            }
        }
        let w = three_stores();
        let mut m = Machine::new(&w, MemoryModel::Tso);
        let mut seen = Seen::default();
        assert_eq!(run(&mut m, ThreadId(0), &mut seen), Step::Exited);
        // Three accesses, then the exit flush commits the three stores.
        assert_eq!(seen.0, [0, 1, 0, 0, 1, 0].map(ObjectId));
        assert_eq!(m.heap().cells(), [RefState::Disposed, RefState::Live]);
        assert!(m.thread(ThreadId(0)).buffer.is_empty());
    }

    #[test]
    fn a_fault_leaves_the_thread_in_place() {
        let mut b = WorkloadBuilder::new("fault");
        let o = b.object("o");
        let m = b.script("main", move |s| {
            s.use_(o, "use:1", us(1));
        });
        b.main(m);
        let w = b.build();
        let mut m = Machine::new(&w, MemoryModel::Sc);
        let Step::Fault(e) = run(&mut m, ThreadId(0), &mut ()) else {
            panic!("use before init must fault");
        };
        assert_eq!(e.obj, o);
        assert_eq!(m.thread(ThreadId(0)).pc, 0);
        assert_eq!(m.thread(ThreadId(0)).status, ThreadStatus::Ready);
        m.exit(ThreadId(0), &mut ());
        assert_eq!(m.thread(ThreadId(0)).status, ThreadStatus::Done);
    }
}
