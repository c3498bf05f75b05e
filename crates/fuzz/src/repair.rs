//! The oracle-backed certification loop for fix synthesis.
//!
//! `waffle_analysis::repair` enumerates candidate patches but delegates
//! certification through a callback; this module closes the loop with the
//! bounded schedule oracle. A patch certifies only when the explorer
//! returns `CleanWithinBound` **with zero deadlocks** at the case's
//! original preemption bound under its original memory model — a
//! truncated exploration proves nothing, and a deadlocking patch would
//! otherwise certify vacuously (a deadlocked schedule space exposes no
//! bug because it runs no code).

use serde::{Deserialize, Serialize};
use waffle_analysis::plan::Plan;
use waffle_analysis::repair::{synthesize, Certification, RepairReport};
use waffle_mem::{NullRefKind, ObjectId};
use waffle_sim::{MemoryModel, RepairKind, Workload};

use crate::gen::FuzzCase;
use crate::oracle::{explore, OracleConfig, OracleVerdict};

/// Certifies one (patched) workload against the bounded oracle.
pub fn certify_unexposable(w: &Workload, cfg: &OracleConfig) -> Certification {
    let r = explore(w, cfg);
    match r.verdict {
        OracleVerdict::CleanWithinBound if r.deadlocks == 0 => Certification::Unexposable {
            states: r.states_explored,
        },
        OracleVerdict::CleanWithinBound | OracleVerdict::Truncated => Certification::Inconclusive,
        OracleVerdict::Exposable { .. } => Certification::StillExposable,
    }
}

/// A checked-in fix-synthesis regression case (`tests/corpus/repair/`): a
/// workload with a pinned synthesis outcome, replayed forever. `expected`
/// is the grammar production synthesis must certify, or `None` for a case
/// whose real fix lies outside the grammar — those must stay reported
/// unrepairable rather than ever acquiring an uncertified patch. Unknown
/// keys are an error, like [`CorpusCase`](crate::CorpusCase)'s.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RepairCorpusCase {
    /// Why the case is pinned (what it exercises).
    pub label: String,
    /// Preemption bound the outcome was certified at.
    pub preemption_bound: u32,
    /// Memory model the outcome was certified under.
    pub memory: MemoryModel,
    /// Expected certified production, or `None` for unrepairable.
    pub expected: Option<RepairKind>,
    /// The workload plus ground truth.
    pub case: FuzzCase,
}

impl RepairCorpusCase {
    /// Serializes the corpus entry.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a corpus entry.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Re-runs oracle confirmation and fix synthesis on the stored case,
    /// returning the fresh report (the caller compares it to `expected`).
    pub fn replay(&self) -> Result<RepairReport, String> {
        let cfg = OracleConfig {
            preemption_bound: self.preemption_bound,
            memory: self.memory,
            ..OracleConfig::default()
        };
        let r = explore(&self.case.workload, &cfg);
        let OracleVerdict::Exposable { kind, obj, .. } = r.verdict else {
            return Err(format!(
                "{}: no longer oracle-exposable ({:?})",
                self.label, r.verdict
            ));
        };
        let plan = crate::harness::derive_plan(&self.case.workload, 1, self.memory);
        Ok(synthesize_with_oracle(
            &self.case.workload,
            &plan,
            kind,
            obj,
            &cfg,
        ))
    }
}

/// Synthesizes the cheapest oracle-certified patch for a confirmed
/// manifestation of `kind` on `obj` in `w`, certifying every candidate
/// with [`explore`] under `cfg` (the case's original bound and model).
pub fn synthesize_with_oracle(
    w: &Workload,
    plan: &Plan,
    kind: NullRefKind,
    obj: ObjectId,
    cfg: &OracleConfig,
) -> RepairReport {
    let mut certify = |patched: &Workload| certify_unexposable(patched, cfg);
    synthesize(
        w,
        plan,
        kind,
        obj,
        cfg.memory,
        cfg.preemption_bound,
        &mut certify,
    )
}
