//! The oracle's DFS node: a [`Machine`] plus the thread it is parked on,
//! and the canonical byte encoding that keys the memo.
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

use super::reduction::Footprint;
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

/// Reused scratch for the canonical state encoding: the byte buffer the
/// state serializes into and the sort area for held-lock normalization.
/// One instance lives for the whole DFS, so the hot loop never allocates
/// for encoding once the buffers reach their working size.
#[derive(Debug, Default)]
pub(crate) struct EncodeScratch {
    pub(crate) buf: Vec<u8>,
    held: Vec<u32>,
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

    /// Canonical byte encoding of the state into `scratch.buf` — the
    /// pre-image of the memo fingerprint. Allocation-free once the
    /// scratch buffers reach their working size.
    pub(crate) fn encode_into(&self, scratch: &mut EncodeScratch) {
        fn push(buf: &mut Vec<u8>, v: u32) {
            debug_assert!(v < u16::MAX as u32, "oracle id overflow");
            buf.extend_from_slice(&(v as u16).to_le_bytes());
        }
        let EncodeScratch { buf, held } = scratch;
        let m = &self.m;
        buf.clear();
        push(buf, self.running.map_or(0, |t| t.0 + 1));
        for &h in m.heap().cells() {
            buf.push(h as u8);
        }
        for &s in m.signaled() {
            buf.push(s as u8);
        }
        push(buf, m.tasks().len() as u32);
        for &(_, script) in m.tasks() {
            push(buf, script.0);
        }
        for (holder, waiters) in m.lock_holders().iter().zip(m.lock_waiters()) {
            push(buf, holder.map_or(0, |t| t.0 + 1));
            push(buf, waiters.len() as u32);
            for &t in waiters {
                push(buf, t.0);
            }
        }
        push(buf, m.threads().len() as u32);
        for th in m.threads() {
            push(buf, th.script.0);
            push(buf, th.pc as u32);
            let (tag, arg) = match th.status {
                ThreadStatus::Ready => (0u8, 0),
                ThreadStatus::Blocked(BlockedBy::Lock(l)) => (1, l.0),
                ThreadStatus::Blocked(BlockedBy::Event(e)) => (2, e.0),
                ThreadStatus::Blocked(BlockedBy::Join) => (3, 0),
                ThreadStatus::Done => (4, 0),
            };
            buf.push(tag);
            push(buf, arg);
            push(buf, th.frames.len() as u32);
            for &(s, p) in &th.frames {
                push(buf, s.0);
                push(buf, p as u32);
            }
            // `held` stays in acquisition order in the thread (exit
            // releases in that order — semantics), so normalize into the
            // reused sort scratch rather than cloning per state.
            held.clear();
            held.extend(th.held.iter().map(|l| l.0));
            held.sort_unstable();
            push(buf, held.len() as u32);
            for &l in held.iter() {
                push(buf, l);
            }
            push(buf, th.children.len() as u32);
            for &c in &th.children {
                push(buf, c.0);
            }
            // The join targets still outstanding (only a blocked joiner
            // has any).
            let done = |j: &&ThreadId| m.thread(**j).status == ThreadStatus::Done;
            push(buf, th.join.iter().filter(|j| !done(j)).count() as u32);
            for j in th.join.iter().filter(|j| !done(j)) {
                push(buf, j.0);
            }
            if m.model().is_weak() {
                // Buffered stores are scheduler-visible state. Encoded only
                // under a weak model so `Sc` keys stay byte-identical to
                // the pre-weak-memory explorer.
                push(buf, th.buffer.len() as u32);
                for e in &th.buffer {
                    push(buf, e.obj.0);
                    buf.push(e.to as u8);
                }
            }
        }
    }
}
