//! Delta-debugging shrinker for failing fuzz cases.
//!
//! Given a case and a failure predicate (e.g. "the classification still
//! produces this disagreement"), the shrinker greedily removes whole
//! scripts and then individual operations, keeping a removal only when the
//! candidate still [`Workload::validate`]s *and* still fails. Invariants:
//!
//! - the predicate is re-evaluated on every accepted candidate, so the
//!   returned case provably still fails;
//! - candidates that fail validation (dangling script references,
//!   out-of-range `SkipIf` spans) are skipped, never returned;
//! - the ground-truth label is carried through untouched — the predicate
//!   owns its interpretation, so a shrink that removes the planted race
//!   itself is rejected by any predicate that checks the label;
//! - passes repeat until a fixpoint (or a generous pass cap, since each
//!   probe may run the full oracle + detector pipeline).

use waffle_sim::{Op, Workload};

use crate::gen::FuzzCase;

/// Removes script `victim` and every reference to it, remapping the
/// script ids behind it. Returns `None` for the main script.
fn remove_script(w: &Workload, victim: usize) -> Option<Workload> {
    if victim == w.main.0 as usize {
        return None;
    }
    let mut out = w.clone();
    out.scripts.remove(victim);
    let remap = |id: &mut waffle_sim::ScriptId| {
        if id.0 as usize > victim {
            id.0 -= 1;
        }
    };
    remap(&mut out.main);
    for script in &mut out.scripts {
        script.ops.retain(|op| {
            !matches!(
                op,
                Op::Fork { script: s } | Op::SpawnTask { script: s } if s.0 as usize == victim
            )
        });
        for op in &mut script.ops {
            match op {
                Op::Fork { script: s } | Op::SpawnTask { script: s } => remap(s),
                _ => {}
            }
        }
    }
    Some(out)
}

/// Removes one op. Returns `None` when out of range.
fn remove_op(w: &Workload, script: usize, op: usize) -> Option<Workload> {
    let mut out = w.clone();
    let ops = &mut out.scripts.get_mut(script)?.ops;
    if op >= ops.len() {
        return None;
    }
    ops.remove(op);
    Some(out)
}

/// Shrinks `case` to a locally minimal workload that still satisfies
/// `still_fails`. The input case itself must satisfy the predicate.
pub fn shrink_case(case: &FuzzCase, still_fails: &dyn Fn(&FuzzCase) -> bool) -> FuzzCase {
    debug_assert!(still_fails(case), "shrink input must fail");
    let mut best = case.clone();
    // Each outer pass retries script and op deletion over the whole
    // (shrunken) workload; a fixpoint is reached when a full pass accepts
    // nothing. The cap bounds worst-case probe count on absurd inputs.
    for _pass in 0..24 {
        let mut changed = false;

        let mut s = best.workload.scripts.len();
        while s > 0 {
            s -= 1;
            let Some(candidate) = remove_script(&best.workload, s) else {
                continue;
            };
            if candidate.validate().is_err() {
                continue;
            }
            let candidate = FuzzCase {
                workload: candidate,
                ..best.clone()
            };
            if still_fails(&candidate) {
                best = candidate;
                changed = true;
            }
        }

        for s in 0..best.workload.scripts.len() {
            let mut o = best.workload.scripts[s].ops.len();
            while o > 0 {
                o -= 1;
                let Some(candidate) = remove_op(&best.workload, s, o) else {
                    continue;
                };
                if candidate.validate().is_err() {
                    continue;
                }
                let candidate = FuzzCase {
                    workload: candidate,
                    ..best.clone()
                };
                if still_fails(&candidate) {
                    best = candidate;
                    changed = true;
                }
            }
        }

        if !changed {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, GroundTruth};
    use crate::oracle::{explore, OracleConfig};
    use waffle_mem::AccessKind;

    /// Structural predicate: the workload still contains both racy
    /// accesses (an init and a use of the planted object).
    fn has_racy_pair(case: &FuzzCase) -> bool {
        let GroundTruth::Planted { obj, .. } = case.truth else {
            return false;
        };
        let mut init = false;
        let mut used = false;
        for script in &case.workload.scripts {
            for op in &script.ops {
                if let Op::Access { obj: o, kind, .. } = op {
                    if *o == obj {
                        init |= *kind == AccessKind::Init;
                        used |= *kind == AccessKind::Use;
                    }
                }
            }
        }
        init && used
    }

    #[test]
    fn shrinks_a_planted_case_to_its_racy_core() {
        // Find a planted seed with some surrounding structure.
        let case = (0..50)
            .map(generate_case)
            .find(|c| c.truth.planted() && c.workload.total_ops() > 20)
            .expect("a busy planted case in the first 50 seeds");
        let before = case.workload.total_ops();
        let shrunk = shrink_case(&case, &has_racy_pair);
        let after = shrunk.workload.total_ops();
        assert!(after < before, "no shrink happened ({before} -> {after})");
        assert!(has_racy_pair(&shrunk), "shrink broke the predicate");
        assert!(shrunk.workload.validate().is_ok());
        // The racy pair alone cannot occupy more than a handful of ops
        // once every deletable op is gone.
        assert!(after <= 8, "not minimal: {after} ops left");
    }

    #[test]
    fn shrinking_preserves_oracle_exposability_when_predicate_demands_it() {
        let case = (0..50)
            .map(generate_case)
            .find(|c| c.truth.planted())
            .expect("a planted case");
        let cfg = OracleConfig::default();
        let exposable = |c: &FuzzCase| explore(&c.workload, &cfg).exposable();
        assert!(exposable(&case));
        let shrunk = shrink_case(&case, &exposable);
        assert!(exposable(&shrunk));
        assert!(shrunk.workload.total_ops() < case.workload.total_ops());
    }
}
