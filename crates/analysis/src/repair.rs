//! Oracle-certified fix synthesis: from a confirmed manifestation to the
//! cheapest synchronization patch the schedule oracle proves unexposable.
//!
//! The racing site pair comes straight from the delay plan's near-miss
//! candidates (the same happens-before-pruned pairs delay injection
//! targets), so synthesis consumes exactly the evidence the detector
//! already produces. The candidate grammar is small and ordered by cost:
//!
//! 1. **Fence** after each store (init/dispose) of the faulting object —
//!    weak-memory models only; a fence is a no-op under sc.
//! 2. **Event edge**: a fresh sticky event signaled after the candidate
//!    pair's delay site and awaited before its other site, forcing the
//!    ordering the bug violates.
//! 3. **Lock scope**: a fresh mutex wrapped around both scripts' regions
//!    of accesses to the faulting object, serializing check-then-act
//!    windows no single ordering edge can close.
//!
//! Certification is delegated through a callback so this crate stays
//! independent of the oracle's crate: the caller re-runs the bounded
//! explorer on each patched workload at the *original* preemption bound
//! under the *original* memory model, and a patch is accepted only when
//! the verdict is clean within bound **and** deadlock-free — a patch that
//! trades the race for a deadlock would otherwise certify vacuously.
//! Synthesis returns the first certified patch in cost order, or an
//! unrepairable report carrying the tried-candidate count.

use serde::{Deserialize, Serialize};
use waffle_mem::{AccessKind, NullRefKind, ObjectId};
use waffle_sim::{MemoryModel, Op, RepairKind, RepairPatch, ScriptId, Workload};

use crate::plan::Plan;

/// Verdict of one oracle certification run over a patched workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certification {
    /// Clean within the bound and deadlock-free: the patch is certified.
    Unexposable {
        /// Frontier states the certifying exploration visited (zero for
        /// a certificate that explored nothing).
        states: u64,
    },
    /// The bug still manifests under the patch.
    StillExposable,
    /// The exploration truncated, or the patch introduced a deadlock —
    /// either way the clean verdict proves nothing.
    Inconclusive,
}

/// Outcome of fix synthesis for one confirmed manifestation. `patch` is
/// `Some` only when the oracle certified it — an uncertified patch is
/// unrepresentable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairReport {
    /// Workload the bug manifested in.
    pub workload: String,
    /// Manifestation class being repaired.
    pub kind: NullRefKind,
    /// Faulting object.
    pub obj: ObjectId,
    /// Memory model the bug manifested (and the patch certified) under.
    pub memory_model: MemoryModel,
    /// Preemption bound of the certifying exploration.
    pub preemption_bound: u32,
    /// Candidate patches applied and oracle-checked before this outcome.
    pub candidates_tried: u32,
    /// The certified patch, or `None` when the case is unrepairable
    /// within the grammar.
    pub patch: Option<RepairPatch>,
    /// Human-readable description of the certified patch.
    pub description: Option<String>,
    /// Frontier states of the certifying exploration (zero when
    /// unrepairable, or when the oracle certified the patch from its
    /// must-happen-before order without exploring).
    pub certified_states: u64,
}

impl RepairReport {
    /// Whether synthesis produced an oracle-certified patch.
    pub fn certified(&self) -> bool {
        self.patch.is_some()
    }

    /// Grammar production of the certified patch, if any.
    pub fn repair_kind(&self) -> Option<RepairKind> {
        self.patch.as_ref().map(|p| p.kind())
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "repair {}: {} on {} (model {}, preemption bound {})\n",
            self.workload,
            self.kind.label(),
            self.obj,
            self.memory_model.name(),
            self.preemption_bound
        ));
        match (&self.patch, &self.description) {
            (Some(patch), desc) => {
                out.push_str(&format!(
                    "  certified patch [{}]: {}\n",
                    patch.kind().label(),
                    desc.as_deref().unwrap_or("(no description)")
                ));
                // A search counts at least its root state, so zero states
                // is a certificate that explored nothing.
                let how = match self.certified_states {
                    0 => "certified by must-happen-before order".to_string(),
                    n => format!("{n} states"),
                };
                out.push_str(&format!(
                    "  oracle: unexposable at bound {} under {} ({how}, candidate {} of {})\n",
                    self.preemption_bound,
                    self.memory_model.name(),
                    self.candidates_tried,
                    self.candidates_tried.max(1)
                ));
            }
            (None, _) => {
                out.push_str(&format!(
                    "  unrepairable within the candidate grammar ({} candidate(s) tried)\n",
                    self.candidates_tried
                ));
            }
        }
        out
    }
}

/// Enumerates the candidate grammar for `obj` in deterministic cost
/// order. The plan supplies the racing site pairs; the workload supplies
/// static op positions.
pub fn enumerate_candidates(
    w: &Workload,
    plan: &Plan,
    obj: ObjectId,
    model: MemoryModel,
) -> Vec<RepairPatch> {
    let mut out: Vec<RepairPatch> = Vec::new();

    // Cost 0: fences after each store of the faulting object (weak models
    // only — under sc program order is already the memory order).
    if model.is_weak() {
        for (si, script) in w.scripts.iter().enumerate() {
            for (pos, op) in script.ops.iter().enumerate() {
                if let Op::Access { obj: o, kind, .. } = op {
                    if *o == obj && matches!(kind, AccessKind::Init | AccessKind::Dispose) {
                        out.push(RepairPatch::Fence {
                            script: ScriptId(si as u32),
                            pos,
                        });
                    }
                }
            }
        }
    }

    // Cost 1: one ordering edge per racing candidate pair on the object.
    // The fix direction is uniform: the pair records "a delay at
    // `delay_site` pushes it past `other_site`", so the repair forces
    // `delay_site`'s op to commit first — signal after it, wait before the
    // other.
    let mut pairs: Vec<(ScriptId, ScriptId)> = Vec::new();
    for c in plan.candidates.iter().filter(|c| c.obj == obj) {
        let Some((ss, sp)) = first_op_at_site(w, c.delay_site) else {
            continue;
        };
        let Some((ws, wp)) = first_op_at_site(w, c.other_site) else {
            continue;
        };
        if ss == ws {
            continue;
        }
        let edge = RepairPatch::EventEdge {
            signal_script: ss,
            signal_pos: sp,
            wait_script: ws,
            wait_pos: wp,
        };
        if !out.contains(&edge) {
            out.push(edge);
        }
        let pair = (ss.min(ws), ss.max(ws));
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }

    // Cost 2: lock scopes over every pair of scripts touching the object.
    // Start from the racing pairs the plan identified, then fall back to
    // all touching pairs so guard-window races without an admitted
    // near-miss pair still get a lock candidate.
    let touching: Vec<ScriptId> = (0..w.scripts.len())
        .map(|i| ScriptId(i as u32))
        .filter(|s| object_region(w, *s, obj).is_some())
        .collect();
    for i in 0..touching.len() {
        for j in (i + 1)..touching.len() {
            let pair = (touching[i], touching[j]);
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
    }
    for (a, b) in pairs {
        let (Some((a_start, a_end)), Some((b_start, b_end))) =
            (lockable_region(w, a, obj), lockable_region(w, b, obj))
        else {
            continue;
        };
        let lock = RepairPatch::LockScope {
            a_script: a,
            a_start,
            a_end,
            b_script: b,
            b_start,
            b_end,
        };
        if !out.contains(&lock) {
            out.push(lock);
        }
    }

    out
}

/// Synthesizes the cheapest certified patch for one manifestation.
///
/// `certify` re-runs the bounded oracle on a patched workload; synthesis
/// accepts the first candidate (in `fence < event edge < lock` cost
/// order, deterministic within each tier) it reports
/// [`Certification::Unexposable`] for.
pub fn synthesize(
    w: &Workload,
    plan: &Plan,
    kind: NullRefKind,
    obj: ObjectId,
    model: MemoryModel,
    preemption_bound: u32,
    certify: &mut dyn FnMut(&Workload) -> Certification,
) -> RepairReport {
    let base = RepairReport {
        workload: w.name.clone(),
        kind,
        obj,
        memory_model: model,
        preemption_bound,
        candidates_tried: 0,
        patch: None,
        description: None,
        certified_states: 0,
    };
    let mut tried = 0u32;
    for patch in enumerate_candidates(w, plan, obj, model) {
        let Ok(patched) = patch.apply(w) else {
            continue;
        };
        tried += 1;
        if let Certification::Unexposable { states } = certify(&patched) {
            return RepairReport {
                candidates_tried: tried,
                description: Some(patch.describe(w)),
                patch: Some(patch),
                certified_states: states,
                ..base
            };
        }
    }
    RepairReport {
        candidates_tried: tried,
        ..base
    }
}

/// First static op at `site`, scanning scripts then ops in order.
fn first_op_at_site(w: &Workload, site: waffle_mem::SiteId) -> Option<(ScriptId, usize)> {
    for (si, script) in w.scripts.iter().enumerate() {
        for (pos, op) in script.ops.iter().enumerate() {
            if matches!(op, Op::Access { site: s, .. } if *s == site) {
                return Some((ScriptId(si as u32), pos));
            }
        }
    }
    None
}

/// Inclusive op range of `script` touching `obj` (accesses and guard
/// checks), or `None` when the script never touches it.
fn object_region(w: &Workload, script: ScriptId, obj: ObjectId) -> Option<(usize, usize)> {
    let ops = &w.scripts.get(script.0 as usize)?.ops;
    let mut range: Option<(usize, usize)> = None;
    for (pos, op) in ops.iter().enumerate() {
        let touches = match op {
            Op::Access { obj: o, .. } => *o == obj,
            Op::SkipIf { obj: o, .. } => *o == obj,
            _ => false,
        };
        if touches {
            range = Some(match range {
                None => (pos, pos),
                Some((start, _)) => (start, pos),
            });
        }
    }
    range
}

/// [`object_region`] restricted to regions a lock may legally wrap: no
/// blocking op (join, wait, lock) and no thread-structure op inside — a
/// lock held across those either deadlocks or leaks out of the region.
fn lockable_region(w: &Workload, script: ScriptId, obj: ObjectId) -> Option<(usize, usize)> {
    let (start, end) = object_region(w, script, obj)?;
    let ops = &w.scripts[script.0 as usize].ops;
    let safe = ops[start..=end].iter().all(|op| {
        !matches!(
            op,
            Op::Fork { .. }
                | Op::JoinChildren
                | Op::WaitEvent { .. }
                | Op::Acquire { .. }
                | Op::Release { .. }
                | Op::SpawnTask { .. }
                | Op::RunTasks
                | Op::Throw { .. }
                | Op::Exit
        )
    });
    safe.then_some((start, end))
}
