//! Bounded exhaustive schedule exploration over the simulated instruction
//! set: the ground-truth oracle for differential detector testing.
//!
//! The explorer answers one question about a workload, independently of
//! delay injection: *does any thread schedule make an instrumented access
//! raise a NULL-reference exception?* It drives the simulator's own
//! [`Machine`](waffle_sim::Machine) — the one implementation of the heap
//! state machine, FIFO locks, sticky events, join/task rules and store
//! buffers — without virtual time, enumerating schedules in the CHESS
//! style: context switches are free at blocking points and cost one unit
//! of a *preemption budget* at instrumented accesses.
//!
//! Preemption points are placed **only** at [`Op::Access`](waffle_sim::Op) boundaries
//! because those are exactly the program points where delay injection can
//! hold a thread back: an injected delay pauses the accessing thread
//! immediately before its access commits, so every injection-reachable
//! interleaving is a sequence of access-boundary preemptions. Preempting at
//! more locations would declare bugs "exposable" that no delay placement
//! can reach and charge the detector with spurious false negatives.
//!
//! State explosion is held down by three cooperating mechanisms:
//!
//! * **Memoization** — a 128-bit word-at-a-time fingerprint of the
//!   canonical state encoding (packed into words as it is produced),
//!   XORed with one of the sleep set, keyed with the largest remaining
//!   budget it was visited with, in an exact open-addressing table of
//!   16-byte slots that never evicts. A state revisited with no more
//!   budget cannot reach anything new and is pruned, and the frontier
//!   count is the number of distinct keys, whatever the table size.
//! * **Sleep-set partial-order reduction** — interleavings that differ
//!   only in the order of independent transitions are explored once; the
//!   private `reduction` module holds the independence relation and the
//!   preemption-bound conservatism rule. Disable with
//!   [`OracleConfig::reduce`].
//! * **Clone-on-branch frames** — the DFS keeps one frame per depth and
//!   materializes a sibling by cloning into a recycled frame (the last
//!   sibling steals the parent's state outright), so the hot loop does
//!   no per-state heap allocation.
//!
//! Before any of that, the reduced explorer under `Sc` asks the private
//! `order` module for a must-happen-before certificate: a program whose
//! every read is ordered after its object's one init and before its one
//! dispose by fork, join and signal → wait edges, and which cannot
//! deadlock, is clean on every schedule, so it is answered without a
//! search ([`OracleReport::static_certified`]).

mod order;
mod reduction;
mod state;

use waffle_mem::{NullRefKind, ObjectId};
use waffle_sim::{MemoryModel, ThreadId, ThreadStatus, Workload};

use reduction::{
    filter_sleep, sleep_fingerprint, sleep_get, sleep_insert, sleep_subset, Footprint, Probe,
    SleepEntry, StateMemo, TransId,
};
use state::OState;

/// Tuning knobs for the bounded explorer.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Maximum preemptive context switches per schedule (switches taken
    /// while the running thread could have continued). Switches at
    /// blocking points are free, as in context-bounded model checking.
    pub preemption_bound: u32,
    /// Hard cap on genuine frontier states (distinct state fingerprints);
    /// exceeding it yields [`OracleVerdict::Truncated`] instead of a
    /// clean verdict. Memo-pruned revisits and sleep-set prunes are
    /// counted separately and never charge against this cap.
    pub max_states: u64,
    /// Memory model explored. Under a weak model each thread owns a store
    /// buffer whose *drain points* are additional schedule choices: the
    /// explorer may commit any committable buffered store (TSO: the oldest;
    /// PSO: the oldest per object) at any decision point, and a thread
    /// parked at a flush-point op (lock, fork, join, fence) yields a free
    /// switch first — mirroring how an injected delay at the store lets
    /// other threads run inside the stale window. Under `Sc` (the default)
    /// exploration is bit-for-bit what it always was.
    pub memory: MemoryModel,
    /// Enable sleep-set partial-order reduction and, under `Sc`, the
    /// must-happen-before certificate (on by default). The verdict is
    /// identical either way — pinned by the differential equivalence
    /// suite — only the states/second differ; turn it off to cross-check
    /// a verdict against the naive explorer.
    pub reduce: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_states: 2_000_000,
            memory: MemoryModel::Sc,
            reduce: true,
        }
    }
}

/// The oracle's answer for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleVerdict {
    /// Some schedule within the preemption bound raises a NULL-reference
    /// exception.
    Exposable {
        /// Bug class of the witnessing manifestation.
        kind: NullRefKind,
        /// Object whose reference was NULL at the faulting access.
        obj: ObjectId,
        /// Preemptive switches the witness schedule spent.
        preemptions: u32,
    },
    /// Every schedule within the preemption bound completes without a
    /// NULL-reference exception.
    CleanWithinBound,
    /// The state cap was hit before the space was exhausted; no claim.
    Truncated,
}

/// One step of a witness schedule, replayable via [`replay_schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleStep {
    /// The running thread commits its parked op (access or flush).
    Continue,
    /// Schedule the given thread.
    Switch(u32),
    /// Commit buffer entry `idx` of `thread` (weak models only).
    Drain {
        /// Thread whose store buffer drains.
        thread: u32,
        /// Buffer index committed.
        idx: u32,
    },
}

/// Verdict plus exploration statistics.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The verdict.
    pub verdict: OracleVerdict,
    /// Genuine frontier states: distinct (state, sleep set) fingerprints
    /// visited. This — and only this — is charged against
    /// [`OracleConfig::max_states`].
    pub states_explored: u64,
    /// Revisits pruned because the state was already seen with at least
    /// as much budget (includes on-path cycle prunes).
    pub memo_hits: u64,
    /// Transitions skipped by sleep-set partial-order reduction.
    pub sleep_prunes: u64,
    /// Known states re-expanded because a revisit arrived with a larger
    /// remaining budget (not new frontier, not prunable).
    pub revisits: u64,
    /// The witness schedule from the initial state to the faulting
    /// access, empty unless the verdict is `Exposable`.
    pub witness: Vec<ScheduleStep>,
    /// Terminal states reached with at least one thread still blocked — a
    /// deadlock introduced by the workload (or by a candidate repair
    /// patch). A `CleanWithinBound` verdict with `deadlocks > 0` must not
    /// be read as "no bug": schedules that deadlock expose nothing by
    /// construction, so repair certification requires this to be zero.
    pub deadlocks: u64,
    /// The verdict is `CleanWithinBound` by the must-happen-before
    /// certificate, which covers every schedule, and no schedule was
    /// explored: every count above is zero.
    pub static_certified: bool,
}

impl OracleReport {
    /// Whether the verdict is [`OracleVerdict::Exposable`].
    pub fn exposable(&self) -> bool {
        matches!(self.verdict, OracleVerdict::Exposable { .. })
    }
}

/// What a witness replay reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Bug class raised at the final step.
    pub kind: NullRefKind,
    /// Object whose reference was NULL.
    pub obj: ObjectId,
    /// Preemptive switches the schedule spent (switches taken at an
    /// access park).
    pub preemptions: u32,
}

/// The sleep-set identity of the edge `step` out of `s`; `None` for
/// `Continue`, which is visited last at a node and never sleeps.
fn trans_id(s: &OState<'_>, step: ScheduleStep) -> Option<TransId> {
    match step {
        ScheduleStep::Continue => None,
        ScheduleStep::Switch(u) => Some(TransId::Thread(u)),
        ScheduleStep::Drain { thread, idx } => {
            let obj = s.m.thread(ThreadId(thread)).buffer[idx as usize].obj;
            Some(TransId::Drain(thread, obj.0))
        }
    }
}

/// One DFS depth: the node's state, its remaining budget, its sleep set,
/// and the iteration cursor over its outgoing edges. Frames (and the
/// vectors inside them) are recycled across the whole exploration.
struct Frame<'w> {
    state: OState<'w>,
    budget: u32,
    /// Fingerprint of the state alone (sleep not folded in) — the
    /// on-path cycle guard compares against it.
    state_fp: u128,
    /// Switch cost at this node (1 if the running thread is parked at an
    /// access, else 0); cached because the sleep machinery consults it
    /// for every pruning decision.
    node_cost: u32,
    /// Edge that led here from the parent (unused at the root).
    via: ScheduleStep,
    sleep: Vec<SleepEntry>,
    choices: Vec<ScheduleStep>,
    next: usize,
}

impl<'w> Frame<'w> {
    fn new(w: &'w Workload, model: MemoryModel) -> Self {
        Self {
            state: OState::new(w, model),
            budget: 0,
            state_fp: 0,
            node_cost: 0,
            via: ScheduleStep::Continue,
            sleep: Vec::new(),
            choices: Vec::new(),
            next: 0,
        }
    }
}

/// Enumerates a node's outgoing edges in visit order: drain choices
/// (descending thread, then descending buffer index), then preemptive /
/// free switches (descending thread id), then the continue edge last —
/// the exact pop order of the historical stack-of-states explorer, so
/// unreduced exploration reproduces its traversal and witnesses.
fn enumerate_choices(s: &OState<'_>, budget: u32, out: &mut Vec<ScheduleStep>) {
    out.clear();
    // Drain choices: what the model lets commit next (TSO: the oldest
    // store; PSO: the oldest per object).
    if s.m.model().is_weak() {
        for t in s.m.thread_ids().rev() {
            let drains = s.m.committable(t).rev();
            out.extend(drains.map(|idx| ScheduleStep::Drain {
                thread: t.0,
                idx: idx as u32,
            }));
        }
    }
    // Switches at an access spend preemption budget; switches at a flush
    // point are free — an injected delay at the buffered store stretches
    // the drain arbitrarily, so any work other threads do before the
    // flush is reachable without a preemption. With nothing running the
    // previous thread blocked or exited: the choice is free, and no ready
    // thread means termination or deadlock — terminal either way, and not
    // a manifestation.
    if s.running.is_none() || s.switch_cost() == 0 || budget > 0 {
        for u in s.m.thread_ids().rev() {
            if Some(u) != s.running && s.m.thread(u).status == ThreadStatus::Ready {
                out.push(ScheduleStep::Switch(u.0));
            }
        }
    }
    if s.running.is_some() {
        out.push(ScheduleStep::Continue);
    }
}

/// A terminal state (no outgoing edges: nothing running, nothing ready,
/// nothing committable) is a deadlock iff some thread never finished —
/// blocked on a lock, event, or join that can no longer be satisfied.
fn is_deadlock(s: &OState<'_>) -> bool {
    s.m.threads().iter().any(|t| t.status != ThreadStatus::Done)
}

/// Exhaustively explores schedules of `workload` within the preemption
/// bound, returning the first NULL-reference witness found or a clean /
/// truncated verdict. With `reduce` on under `Sc`, a program the
/// must-happen-before certificate accepts is answered clean with zero
/// deadlocks and zero states, without a search.
pub fn explore(workload: &Workload, config: &OracleConfig) -> OracleReport {
    if config.reduce && config.memory == MemoryModel::Sc && order::certify(workload) {
        return OracleReport {
            verdict: OracleVerdict::CleanWithinBound,
            states_explored: 0,
            memo_hits: 0,
            sleep_prunes: 0,
            revisits: 0,
            witness: Vec::new(),
            deadlocks: 0,
            static_certified: true,
        };
    }
    search(workload, config)
}

/// The bounded DFS behind [`explore`], never short-cut by the
/// certificate: tests that measure the search call it directly.
pub(crate) fn search(workload: &Workload, config: &OracleConfig) -> OracleReport {
    let mut memo = StateMemo::new(config.max_states, config.preemption_bound);
    // Sort scratch for the state encoding's held locks.
    let mut held = Vec::new();
    // The counters accumulate here; the verdict stays clean unless a
    // witness or the state cap ends the search.
    let mut r = OracleReport {
        verdict: OracleVerdict::CleanWithinBound,
        states_explored: 1,
        memo_hits: 0,
        sleep_prunes: 0,
        revisits: 0,
        witness: Vec::new(),
        deadlocks: 0,
        static_certified: false,
    };

    let mut frames: Vec<Frame> = Vec::with_capacity(32);
    frames.push(Frame::new(workload, config.memory));
    {
        let root = &mut frames[0];
        let mut fp = Footprint::default();
        root.state.advance_to_decision(&mut fp);
        root.budget = config.preemption_bound;
        root.state_fp = root.state.fingerprint(&mut held);
        root.node_cost = root.state.switch_cost();
        root.sleep.clear();
        memo.probe(root.state_fp ^ sleep_fingerprint(&[]), root.budget);
        enumerate_choices(&root.state, root.budget, &mut root.choices);
        if root.choices.is_empty() && is_deadlock(&root.state) {
            r.deadlocks += 1;
        }
        root.next = 0;
    }

    let mut depth = 0usize;
    'dfs: loop {
        // Advance the cursor at the current frame to its next live edge,
        // popping exhausted frames.
        let (choice, is_last) = {
            let f = &mut frames[depth];
            loop {
                if f.next >= f.choices.len() {
                    if depth == 0 {
                        return r;
                    }
                    depth -= 1;
                    continue 'dfs;
                }
                let c = f.choices[f.next];
                f.next += 1;
                if config.reduce {
                    if let Some(id) = trans_id(&f.state, c) {
                        // A sleeping edge may only be pruned where its
                        // budget penalty is covered by this node's switch
                        // cost — the mirror schedule justifying the prune
                        // then fits the same preemption budget.
                        if let Some(e) = sleep_get(&f.sleep, id) {
                            if e.penalty <= f.node_cost {
                                r.sleep_prunes += 1;
                                continue;
                            }
                        }
                    }
                }
                break (c, f.next >= f.choices.len());
            }
        };

        // Materialize the child into the recycled frame at depth + 1. The
        // last sibling steals the parent's state (the parent never needs
        // it again); earlier siblings clone into the child's buffers.
        if frames.len() == depth + 1 {
            frames.push(Frame::new(workload, config.memory));
        }
        let (left, right) = frames.split_at_mut(depth + 1);
        let f = &mut left[depth];
        let child = &mut right[0];
        if is_last {
            std::mem::swap(&mut child.state, &mut f.state);
        } else {
            child.state.copy_from(&f.state);
        }

        let parent_cost = f.node_cost;
        let parent_budget = f.budget;
        let mut fp = Footprint::default();
        let (edge_thread, child_budget) = match (choice, child.state.running) {
            (ScheduleStep::Continue, Some(t)) => (t.0, parent_budget),
            (ScheduleStep::Continue, None) => unreachable!("continue needs a running thread"),
            (ScheduleStep::Switch(u), _) => (u, parent_budget - parent_cost),
            (ScheduleStep::Drain { thread, .. }, _) => (thread, parent_budget),
        };
        let taken = child.state.take(choice, &mut fp);
        if let Err(e) = taken.expect("enumerated choices are enabled") {
            r.verdict = OracleVerdict::Exposable {
                kind: e.kind,
                obj: e.obj,
                preemptions: config.preemption_bound - parent_budget,
            };
            r.witness = left[1..=depth].iter().map(|fr| fr.via).collect();
            r.witness.push(ScheduleStep::Continue);
            return r;
        }

        // Sleep bookkeeping. The child inherits the parent entries the
        // edge is independent of; the edge itself goes to sleep for the
        // parent's later siblings (unless its footprint is global —
        // dependent with everything, it would be woken immediately). The
        // entry's penalty, `max(switch_cost(here), switch_cost(child))`,
        // records how much budget the justifying mirror schedule may need
        // at the prune site; see [`SleepEntry`] for the argument. Drains
        // never move a park point and carry penalty zero.
        let child_cost = child.state.switch_cost();
        if config.reduce {
            filter_sleep(&f.sleep, edge_thread, &fp, &mut child.sleep);
            // The last sibling took the parent's state and has no later
            // siblings to sleep for.
            let id = if is_last || fp.is_global() {
                None
            } else {
                trans_id(&f.state, choice)
            };
            if let Some(id) = id {
                let penalty = match id {
                    TransId::Thread(_) => parent_cost.max(child_cost),
                    TransId::Drain(..) => 0,
                };
                sleep_insert(
                    &mut f.sleep,
                    SleepEntry {
                        id,
                        thread: edge_thread,
                        fp,
                        penalty,
                    },
                );
            }
        } else {
            child.sleep.clear();
        }

        // Memoization: fingerprint of (canonical state, sleep identities),
        // keyed with the best remaining budget seen.
        let state_fp = child.state.fingerprint(&mut held);
        let key = state_fp ^ sleep_fingerprint(&child.sleep);
        match memo.probe(key, child_budget) {
            Probe::Dominated => {
                r.memo_hits += 1;
                continue 'dfs;
            }
            Probe::Updated => r.revisits += 1,
            Probe::Inserted => {
                r.states_explored += 1;
                if r.states_explored > config.max_states {
                    r.verdict = OracleVerdict::Truncated;
                    return r;
                }
            }
        }
        // On-path guard: a child whose state already appears on the
        // current path with at least as much budget and a no-larger sleep
        // set is pruned outright. The memo only matches equal sleep
        // sets, so it misses these revisits of a free-switch cycle.
        if left.iter().any(|fr| {
            fr.state_fp == state_fp
                && fr.budget >= child_budget
                && sleep_subset(&fr.sleep, &child.sleep)
        }) {
            r.memo_hits += 1;
            continue 'dfs;
        }

        child.budget = child_budget;
        child.state_fp = state_fp;
        child.node_cost = child_cost;
        child.via = choice;
        enumerate_choices(&child.state, child_budget, &mut child.choices);
        if child.choices.is_empty() && is_deadlock(&child.state) {
            r.deadlocks += 1;
        }
        child.next = 0;
        depth += 1;
    }
}

/// Deterministically replays a witness schedule produced by [`explore`]
/// through the same (unreduced — a fixed schedule explores nothing)
/// state machine. Returns the manifestation the schedule ends in, or
/// `None` if the schedule is malformed or completes cleanly.
pub fn replay_schedule(
    workload: &Workload,
    memory: MemoryModel,
    steps: &[ScheduleStep],
) -> Option<ReplayOutcome> {
    let mut s = OState::new(workload, memory);
    let mut fp = Footprint::default();
    s.advance_to_decision(&mut fp);
    let mut preemptions = 0u32;
    for &step in steps {
        if matches!(step, ScheduleStep::Switch(_)) {
            preemptions += s.switch_cost();
        }
        if let Err(e) = s.take(step, &mut fp)? {
            return Some(ReplayOutcome {
                kind: e.kind,
                obj: e.obj,
                preemptions,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests;
