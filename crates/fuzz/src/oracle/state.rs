//! The oracle's DFS node: a [`Machine`] plus the thread it is parked on,
//! and the canonical encoding whose fingerprint keys the memo.
//!
//! What an op means lives in `waffle_sim::Machine` alone, the same
//! interpreter the simulator drives in virtual time. This module only
//! decides where a run segment stops (before an access, or before a
//! flush point while the thread's buffer holds stores) and passes a
//! [`Footprint`] as the machine's observer, so the explorer learns which
//! objects, locks and events an edge touched — the raw material for the
//! independence relation in [`super::reduction`].

use waffle_mem::NullRefError;
use waffle_sim::{
    BlockedBy, Machine, MemoryModel, Observer, Op, Step, ThreadId, ThreadStatus, Workload,
};

use super::reduction::{Footprint, Packer};
use super::ScheduleStep;

/// A complete scheduler state: the DFS node.
#[derive(Debug)]
pub(crate) struct OState<'w> {
    pub(crate) m: Machine<'w>,
    /// Thread currently scheduled, parked at an `Op::Access` (or, under a
    /// weak model, a flush-point op with a non-empty buffer); `None` when
    /// the previous thread blocked or exited and the choice is free.
    pub(crate) running: Option<ThreadId>,
}

impl<'w> OState<'w> {
    /// The initial state, not yet advanced to its first decision.
    pub(crate) fn new(w: &'w Workload, model: MemoryModel) -> Self {
        Self {
            m: Machine::new(w, model),
            running: Some(ThreadId(0)),
        }
    }

    /// Overwrites this node with `src`, reusing its allocations (the
    /// explorer's clone-on-branch).
    pub(crate) fn copy_from(&mut self, src: &Self) {
        self.m.clone_from(&src.m);
        self.running = src.running;
    }

    /// Whether thread `t` is parked immediately before an `Op::Access`.
    pub(crate) fn at_access(&self, t: ThreadId) -> bool {
        matches!(self.m.op(t), Some(Op::Access { .. }))
    }

    /// Runs the scheduled thread until it parks before an access, or
    /// before a flush point with buffered stores (the flush would close
    /// its stale window, so other threads may be routed in first), or
    /// until it blocks or exits, which leaves `running` `None`.
    pub(crate) fn advance_to_decision(&mut self, fp: &mut Footprint) {
        let Some(t) = self.running else { return };
        loop {
            if self.m.thread(t).status != ThreadStatus::Ready {
                self.running = None;
                return;
            }
            match self.m.op(t) {
                Some(Op::Access { .. }) => return,
                Some(op) if op.flushes() && !self.m.thread(t).buffer.is_empty() => return,
                op => {
                    self.m.exec(t, op, fp);
                }
            }
        }
    }

    /// Takes one schedule step and advances to the next decision.
    /// `Some(Err)` is the manifestation the step raised; `None` a step
    /// that is not enabled here (malformed replay input).
    pub(crate) fn take(
        &mut self,
        step: ScheduleStep,
        fp: &mut Footprint,
    ) -> Option<Result<(), NullRefError>> {
        match step {
            // Commits the parked op: the access, or the flush-point op
            // together with its drain.
            ScheduleStep::Continue => {
                let t = self.running?;
                if let Step::Fault(e) = self.m.exec(t, self.m.op(t), fp) {
                    return Some(Err(e));
                }
            }
            ScheduleStep::Switch(u) => {
                if self.m.threads().get(u as usize)?.status != ThreadStatus::Ready {
                    return None;
                }
                self.running = Some(ThreadId(u));
            }
            ScheduleStep::Drain { thread, idx } => {
                let obj = self.m.commit(ThreadId(thread), idx as usize)?;
                fp.object(obj);
                return Some(Ok(()));
            }
        }
        self.advance_to_decision(fp);
        Some(Ok(()))
    }

    /// The preemption cost of switching away from this node: a thread
    /// parked at an access must be preempted; a flush park or a free
    /// choice switches for nothing.
    pub(crate) fn switch_cost(&self) -> u32 {
        u32::from(self.running.is_some_and(|t| self.at_access(t)))
    }

    /// Fingerprint of the state's canonical encoding, the memo's key:
    /// ids are 16-bit fields, tags and reference states a few bits, and
    /// every list carries its length first. Fields are packed into words
    /// as they are produced; `held` is reused sort scratch, so the hot
    /// loop allocates nothing once it reaches its working size.
    pub(crate) fn fingerprint(&self, held: &mut Vec<u32>) -> u128 {
        let mut p = Packer::new();
        fn id(p: &mut Packer, v: u32) {
            debug_assert!(v < u32::from(u16::MAX), "oracle id overflow");
            p.put(v, 16);
        }
        let m = &self.m;
        id(&mut p, self.running.map_or(0, |t| t.0 + 1));
        for &h in m.heap().cells() {
            p.put(h as u32, 2);
        }
        for &s in m.signaled() {
            p.put(u32::from(s), 1);
        }
        id(&mut p, m.tasks().len() as u32);
        for &(_, script) in m.tasks() {
            id(&mut p, script.0);
        }
        for (holder, waiters) in m.lock_holders().iter().zip(m.lock_waiters()) {
            id(&mut p, holder.map_or(0, |t| t.0 + 1));
            id(&mut p, waiters.len() as u32);
            for &t in waiters {
                id(&mut p, t.0);
            }
        }
        id(&mut p, m.threads().len() as u32);
        for th in m.threads() {
            id(&mut p, th.script.0);
            id(&mut p, th.pc as u32);
            let (tag, arg) = match th.status {
                ThreadStatus::Ready => (0, 0),
                ThreadStatus::Blocked(BlockedBy::Lock(l)) => (1, l.0),
                ThreadStatus::Blocked(BlockedBy::Event(e)) => (2, e.0),
                ThreadStatus::Blocked(BlockedBy::Join) => (3, 0),
                ThreadStatus::Done => (4, 0),
            };
            p.put(tag, 3);
            id(&mut p, arg);
            id(&mut p, th.frames.len() as u32);
            for &(s, pc) in &th.frames {
                id(&mut p, s.0);
                id(&mut p, pc as u32);
            }
            // `held` stays in acquisition order in the thread (exit
            // releases in that order — semantics), so normalize into the
            // reused sort scratch rather than cloning per state.
            held.clear();
            held.extend(th.held.iter().map(|l| l.0));
            held.sort_unstable();
            id(&mut p, held.len() as u32);
            for &l in held.iter() {
                id(&mut p, l);
            }
            id(&mut p, th.children.len() as u32);
            for &c in &th.children {
                id(&mut p, c.0);
            }
            // The join targets still outstanding (only a blocked joiner
            // has any).
            let done = |j: &&ThreadId| m.thread(**j).status == ThreadStatus::Done;
            id(&mut p, th.join.iter().filter(|j| !done(j)).count() as u32);
            for j in th.join.iter().filter(|j| !done(j)) {
                id(&mut p, j.0);
            }
            if m.model().is_weak() {
                // Buffered stores are scheduler-visible state; under `Sc`
                // every buffer stays empty, so they are left out there.
                id(&mut p, th.buffer.len() as u32);
                for e in &th.buffer {
                    id(&mut p, e.obj.0);
                    p.put(e.to as u32, 2);
                }
            }
        }
        p.finish()
    }
}
