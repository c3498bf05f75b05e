//! Synchronization-repair patches over workload models.
//!
//! A [`RepairPatch`] is a small, mechanical edit to a [`Workload`]: insert a
//! fence after a store, thread a fresh sticky event between two racing
//! segments, or wrap both racing regions in a fresh mutex. Patches are
//! *candidates* — the schedule oracle decides whether a patched workload is
//! actually unexposable — so this module only guarantees that applying a
//! patch yields a structurally valid workload and that every insertion
//! respects existing `SkipIf` guard windows (an op inserted inside a guard's
//! span must stay inside it, or the guard would start skipping the wrong
//! ops).
//!
//! The candidate grammar and its enumeration live in `waffle_analysis`; the
//! oracle-backed certification loop lives in `waffle_fuzz`.

use serde::{Deserialize, Serialize};

use crate::ids::{EventId, LockId, ScriptId};
use crate::op::Op;
use crate::workload::Workload;

/// The three shapes the repair grammar can produce, in ascending cost
/// order: a fence is free at the source level, an event edge adds one
/// blocking handoff, a lock serializes two whole regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairKind {
    /// `Op::Fence` inserted after the offending store (weak-memory bugs).
    Fence,
    /// A fresh sticky event: `SignalEvent` after the earlier access,
    /// `WaitEvent` before the later one.
    EventEdge,
    /// A fresh mutex wrapped around both racing regions.
    LockScope,
}

impl RepairKind {
    /// Stable label used in reports and metrics keys.
    pub fn label(&self) -> &'static str {
        match self {
            RepairKind::Fence => "fence",
            RepairKind::EventEdge => "event-edge",
            RepairKind::LockScope => "lock",
        }
    }

    /// Position in the cost order `fence < event edge < lock`.
    pub fn cost(&self) -> u32 {
        match self {
            RepairKind::Fence => 0,
            RepairKind::EventEdge => 1,
            RepairKind::LockScope => 2,
        }
    }
}

/// One concrete candidate patch. Positions are op indices into the *unpatched*
/// script; `apply` performs all insertions atomically so indices never need
/// pre-adjustment by the caller.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairPatch {
    /// Insert `Op::Fence` immediately after `scripts[script].ops[pos]`.
    Fence {
        /// Script holding the offending store.
        script: ScriptId,
        /// Op index of the store; the fence lands at `pos + 1`.
        pos: usize,
    },
    /// Allocate a fresh event; insert `SignalEvent` immediately after
    /// `signal_pos` in `signal_script` and `WaitEvent` immediately before
    /// `wait_pos` in `wait_script`.
    EventEdge {
        /// Script of the access that must happen first.
        signal_script: ScriptId,
        /// Op index of that access; the signal lands at `signal_pos + 1`.
        signal_pos: usize,
        /// Script of the access that must happen second.
        wait_script: ScriptId,
        /// Op index of that access; the wait lands at `wait_pos`.
        wait_pos: usize,
    },
    /// Allocate a fresh lock; wrap the inclusive op ranges
    /// `[a_start, a_end]` of `a_script` and `[b_start, b_end]` of
    /// `b_script` in `Acquire`/`Release`.
    LockScope {
        /// Script of the first racing region.
        a_script: ScriptId,
        /// First op of the first region.
        a_start: usize,
        /// Last op of the first region (inclusive).
        a_end: usize,
        /// Script of the second racing region.
        b_script: ScriptId,
        /// First op of the second region.
        b_start: usize,
        /// Last op of the second region (inclusive).
        b_end: usize,
    },
}

/// A single op insertion: `op` lands at index `pos` of script `script`.
struct Insertion {
    script: usize,
    pos: usize,
    op: Op,
}

impl RepairPatch {
    /// The grammar production this patch instantiates.
    pub fn kind(&self) -> RepairKind {
        match self {
            RepairPatch::Fence { .. } => RepairKind::Fence,
            RepairPatch::EventEdge { .. } => RepairKind::EventEdge,
            RepairPatch::LockScope { .. } => RepairKind::LockScope,
        }
    }

    /// Cost of this patch in the `fence < event edge < lock` order.
    pub fn cost(&self) -> u32 {
        self.kind().cost()
    }

    /// Human-readable one-line description against the unpatched workload.
    pub fn describe(&self, w: &Workload) -> String {
        let site_at = |script: ScriptId, pos: usize| -> String {
            match w
                .scripts
                .get(script.0 as usize)
                .and_then(|s| s.ops.get(pos))
            {
                Some(Op::Access { site, .. }) => w.sites.name(*site).to_string(),
                _ => format!("op {pos}"),
            }
        };
        let script_name = |script: ScriptId| -> &str {
            w.scripts
                .get(script.0 as usize)
                .map(|s| s.name.as_str())
                .unwrap_or("?")
        };
        match self {
            RepairPatch::Fence { script, pos } => format!(
                "fence after {} in {}",
                site_at(*script, *pos),
                script_name(*script)
            ),
            RepairPatch::EventEdge {
                signal_script,
                signal_pos,
                wait_script,
                wait_pos,
            } => format!(
                "event edge: signal after {} in {} -> wait before {} in {}",
                site_at(*signal_script, *signal_pos),
                script_name(*signal_script),
                site_at(*wait_script, *wait_pos),
                script_name(*wait_script)
            ),
            RepairPatch::LockScope {
                a_script,
                a_start,
                a_end,
                b_script,
                b_start,
                b_end,
            } => format!(
                "lock scope over {}[{}..={}] and {}[{}..={}]",
                script_name(*a_script),
                a_start,
                a_end,
                script_name(*b_script),
                b_start,
                b_end
            ),
        }
    }

    /// Applies the patch to a clone of `w`, returning the patched workload.
    ///
    /// Fails if any referenced script or op index is out of range, or if the
    /// patched workload does not validate.
    pub fn apply(&self, w: &Workload) -> Result<Workload, String> {
        let insertions = self.insertions(w)?;
        let (events, locks) = match self {
            RepairPatch::Fence { .. } => (0, 0),
            RepairPatch::EventEdge { .. } => (1, 0),
            RepairPatch::LockScope { .. } => (0, 1),
        };
        apply_insertions(w, insertions, events, locks)
    }

    /// Every strictly weaker variant of this patch, labeled: dropping the
    /// fence, keeping only one half of the event edge, shrinking the lock
    /// scope to a single region, or dropping the patch outright. Used by the
    /// minimality property — each weakening must flip the oracle back to
    /// exposable. The lone `WaitEvent` weakening is deliberately absent: a
    /// wait on an event nobody signals deadlocks, and a deadlocked schedule
    /// space would let the oracle certify vacuously.
    pub fn weakenings(&self, w: &Workload) -> Vec<(&'static str, Workload)> {
        let mut out = Vec::new();
        match self {
            RepairPatch::Fence { .. } => {
                out.push(("drop-fence", w.clone()));
            }
            RepairPatch::EventEdge {
                signal_script,
                signal_pos,
                ..
            } => {
                let signal_only = apply_insertions(
                    w,
                    vec![Insertion {
                        script: signal_script.0 as usize,
                        pos: signal_pos + 1,
                        op: Op::SignalEvent {
                            ev: EventId(w.n_events),
                        },
                    }],
                    1,
                    0,
                )
                .expect("signal-only weakening of an applicable edge applies");
                out.push(("drop-wait", signal_only));
                out.push(("drop-edge", w.clone()));
            }
            RepairPatch::LockScope {
                a_script,
                a_start,
                a_end,
                b_script,
                b_start,
                b_end,
            } => {
                let one_region = |script: ScriptId, start: usize, end: usize| {
                    apply_insertions(w, lock_region(script, start, end, LockId(w.n_locks)), 0, 1)
                        .expect("single-region weakening of an applicable lock applies")
                };
                out.push(("shrink-to-first", one_region(*a_script, *a_start, *a_end)));
                out.push(("shrink-to-second", one_region(*b_script, *b_start, *b_end)));
                out.push(("drop-lock", w.clone()));
            }
        }
        out
    }

    /// The raw insertion list for this patch against `w`, with bounds
    /// checks but before any index shifting.
    fn insertions(&self, w: &Workload) -> Result<Vec<Insertion>, String> {
        let ops_len = |script: ScriptId| -> Result<usize, String> {
            w.scripts
                .get(script.0 as usize)
                .map(|s| s.ops.len())
                .ok_or_else(|| format!("repair: script {script} out of range"))
        };
        match self {
            RepairPatch::Fence { script, pos } => {
                let len = ops_len(*script)?;
                if *pos >= len {
                    return Err(format!("repair: fence position {pos} out of range"));
                }
                Ok(vec![Insertion {
                    script: script.0 as usize,
                    pos: pos + 1,
                    op: Op::Fence,
                }])
            }
            RepairPatch::EventEdge {
                signal_script,
                signal_pos,
                wait_script,
                wait_pos,
            } => {
                let slen = ops_len(*signal_script)?;
                let wlen = ops_len(*wait_script)?;
                if *signal_pos >= slen || *wait_pos >= wlen {
                    return Err("repair: event-edge position out of range".into());
                }
                let ev = EventId(w.n_events);
                Ok(vec![
                    Insertion {
                        script: signal_script.0 as usize,
                        pos: signal_pos + 1,
                        op: Op::SignalEvent { ev },
                    },
                    Insertion {
                        script: wait_script.0 as usize,
                        pos: *wait_pos,
                        op: Op::WaitEvent { ev },
                    },
                ])
            }
            RepairPatch::LockScope {
                a_script,
                a_start,
                a_end,
                b_script,
                b_start,
                b_end,
            } => {
                for (script, start, end) in
                    [(*a_script, *a_start, *a_end), (*b_script, *b_start, *b_end)]
                {
                    let len = ops_len(script)?;
                    if start > end || end >= len {
                        return Err(format!(
                            "repair: lock region {start}..={end} out of range in {script}"
                        ));
                    }
                }
                let lock = LockId(w.n_locks);
                let mut out = lock_region(*a_script, *a_start, *a_end, lock);
                out.extend(lock_region(*b_script, *b_start, *b_end, lock));
                Ok(out)
            }
        }
    }
}

/// Acquire-before / release-after insertions for one inclusive op region.
fn lock_region(script: ScriptId, start: usize, end: usize, lock: LockId) -> Vec<Insertion> {
    vec![
        Insertion {
            script: script.0 as usize,
            pos: start,
            op: Op::Acquire { lock },
        },
        Insertion {
            script: script.0 as usize,
            pos: end + 1,
            op: Op::Release { lock },
        },
    ]
}

/// Splices `insertions` into a clone of `w`, allocating `events` fresh
/// events and `locks` fresh locks, then validates.
///
/// Per script, insertions run in descending position order so earlier
/// positions stay valid. Each insertion at position `p` first widens any
/// `SkipIf` guard whose span `[i+1, i+skip]` contains `p` — the inserted op
/// becomes part of the guarded window, so a taken skip jumps over it too.
/// An insertion at `i + skip + 1` is just *past* the span and the guard is
/// left alone.
fn apply_insertions(
    w: &Workload,
    mut insertions: Vec<Insertion>,
    events: u32,
    locks: u32,
) -> Result<Workload, String> {
    let mut patched = w.clone();
    patched.n_events += events;
    patched.n_locks += locks;
    // Descending by position; for equal positions, later list entries go
    // first so the earlier entry ends up in front after both inserts.
    insertions.sort_by_key(|ins| std::cmp::Reverse((ins.script, ins.pos)));
    for ins in insertions {
        let ops = &mut patched
            .scripts
            .get_mut(ins.script)
            .ok_or_else(|| format!("repair: script index {} out of range", ins.script))?
            .ops;
        if ins.pos > ops.len() {
            return Err(format!(
                "repair: insertion at {} past end of script {}",
                ins.pos, ins.script
            ));
        }
        for (i, op) in ops.iter_mut().enumerate().take(ins.pos) {
            if let Op::SkipIf { skip, .. } = op {
                if ins.pos <= i + *skip as usize {
                    *skip += 1;
                }
            }
        }
        ops.insert(ins.pos, ins.op);
    }
    patched.validate().map_err(|e| format!("repair: {e}"))?;
    Ok(patched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Cond;
    use crate::time::SimTime;
    use crate::workload::WorkloadBuilder;

    /// main: init(obj) / fork(reader) / dispose(obj); reader guarded by a
    /// SkipIf window over its use — the shape every guard-aware insertion
    /// must handle.
    fn guarded() -> Workload {
        let mut b = WorkloadBuilder::new("repair.guarded");
        let obj = b.object("obj");
        let reader = b.script("reader", move |s| {
            s.compute(SimTime(2_000));
            s.skip_if(obj, Cond::IsDisposed, 1);
            s.use_(obj, "guarded.use", SimTime(40));
        });
        let m = b.script("main", move |s| {
            s.init(obj, "guarded.init", SimTime(40));
            s.fork(reader);
            s.dispose(obj, "guarded.dispose", SimTime(40));
            s.join_children();
        });
        b.main(m);
        b.build()
    }

    #[test]
    fn fence_inserts_after_the_store() {
        let w = guarded();
        let patch = RepairPatch::Fence {
            script: ScriptId(1),
            pos: 0,
        };
        let p = patch.apply(&w).expect("fence applies");
        assert_eq!(p.scripts[1].ops[1], Op::Fence);
        assert_eq!(p.scripts[1].ops.len(), w.scripts[1].ops.len() + 1);
        assert_eq!(p.n_events, w.n_events);
        assert_eq!(p.n_locks, w.n_locks);
    }

    #[test]
    fn event_edge_allocates_a_fresh_event() {
        let w = guarded();
        let patch = RepairPatch::EventEdge {
            signal_script: ScriptId(1),
            signal_pos: 0,
            wait_script: ScriptId(0),
            wait_pos: 0,
        };
        let p = patch.apply(&w).expect("edge applies");
        assert_eq!(p.n_events, w.n_events + 1);
        assert_eq!(
            p.scripts[1].ops[1],
            Op::SignalEvent {
                ev: EventId(w.n_events)
            }
        );
        assert_eq!(
            p.scripts[0].ops[0],
            Op::WaitEvent {
                ev: EventId(w.n_events)
            }
        );
    }

    #[test]
    fn insertion_inside_a_guard_window_widens_the_skip() {
        let w = guarded();
        // Wait inserted at position 2 (before the use) sits inside the
        // SkipIf span [2, 2], so the guard must widen to cover it: a taken
        // skip jumps both the wait and the use, never just one.
        let patch = RepairPatch::EventEdge {
            signal_script: ScriptId(1),
            signal_pos: 2,
            wait_script: ScriptId(0),
            wait_pos: 2,
        };
        let p = patch.apply(&w).expect("edge applies");
        match p.scripts[0].ops[1] {
            Op::SkipIf { skip, .. } => assert_eq!(skip, 2, "guard window widened"),
            ref other => panic!("expected SkipIf, got {other:?}"),
        }
    }

    #[test]
    fn lock_release_lands_outside_the_guard_window() {
        let w = guarded();
        // Region [1, 2] in the reader: acquire before the SkipIf, release
        // after the use. The release at span_end + 1 is outside the guard
        // window, so the skip count stays 1 and a taken skip still reaches
        // the release — no held-lock exit.
        let patch = RepairPatch::LockScope {
            a_script: ScriptId(0),
            a_start: 1,
            a_end: 2,
            b_script: ScriptId(1),
            b_start: 2,
            b_end: 2,
        };
        let p = patch.apply(&w).expect("lock applies");
        assert_eq!(p.n_locks, w.n_locks + 1);
        let reader = &p.scripts[0].ops;
        assert!(matches!(reader[1], Op::Acquire { .. }));
        match reader[2] {
            Op::SkipIf { skip, .. } => assert_eq!(skip, 1, "release stays outside the window"),
            ref other => panic!("expected SkipIf, got {other:?}"),
        }
        assert!(matches!(reader[4], Op::Release { .. }));
        let main = &p.scripts[1].ops;
        assert!(matches!(main[2], Op::Acquire { .. }));
        assert!(matches!(main[4], Op::Release { .. }));
    }

    #[test]
    fn weakenings_cover_every_strictly_weaker_shape() {
        let w = guarded();
        let fence = RepairPatch::Fence {
            script: ScriptId(1),
            pos: 0,
        };
        assert_eq!(
            fence
                .weakenings(&w)
                .iter()
                .map(|(l, _)| *l)
                .collect::<Vec<_>>(),
            ["drop-fence"]
        );
        let edge = RepairPatch::EventEdge {
            signal_script: ScriptId(1),
            signal_pos: 0,
            wait_script: ScriptId(0),
            wait_pos: 0,
        };
        let labels: Vec<_> = edge.weakenings(&w).iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["drop-wait", "drop-edge"]);
        let lock = RepairPatch::LockScope {
            a_script: ScriptId(0),
            a_start: 1,
            a_end: 2,
            b_script: ScriptId(1),
            b_start: 2,
            b_end: 2,
        };
        let labels: Vec<_> = lock.weakenings(&w).iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["shrink-to-first", "shrink-to-second", "drop-lock"]);
        for (label, weak) in lock.weakenings(&w) {
            weak.validate()
                .unwrap_or_else(|e| panic!("weakening {label} validates: {e}"));
        }
    }

    #[test]
    fn patches_round_trip_through_serde() {
        let patch = RepairPatch::LockScope {
            a_script: ScriptId(0),
            a_start: 1,
            a_end: 2,
            b_script: ScriptId(1),
            b_start: 2,
            b_end: 2,
        };
        let v = serde::Serialize::to_value(&patch);
        let back: RepairPatch = serde::Deserialize::from_value(&v).expect("round-trips");
        assert_eq!(back, patch);
        assert_eq!(patch.kind(), RepairKind::LockScope);
        assert_eq!(patch.cost(), 2);
        assert!(RepairKind::Fence.cost() < RepairKind::EventEdge.cost());
        assert!(RepairKind::EventEdge.cost() < RepairKind::LockScope.cost());
    }
}
