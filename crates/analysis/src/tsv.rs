//! Preparation-run analysis for thread-safety violations.
//!
//! An extension in the spirit of the paper's conclusion (§8): applying
//! Waffle's resource-conscious design — one delay-free run, then planned,
//! measured injection — to the *atomicity-violation* timing condition of
//! Fig. 2. Unlike MemOrder bugs (delay > gap, open-ended), a TSV needs the
//! delay to land in a window: `gap − w₂ < delay < gap + w₁` for execution
//! windows of lengths w₁ (the delayed call) and w₂ (the other call). The
//! analyzer therefore plans the *centre* of the window (the observed gap
//! itself) rather than `α · gap`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use waffle_mem::{ObjectId, SiteId};
use waffle_sim::SimTime;
use waffle_trace::Trace;

/// A planned thread-safety-violation candidate: delay the *earlier* call
/// by ~`gap` so its window slides onto the later call's.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TsvCandidate {
    /// The call to delay (the earlier one in the preparation run).
    pub delay_site: SiteId,
    /// The call to collide with.
    pub other_site: SiteId,
    /// Object both calls touch.
    pub obj: ObjectId,
    /// Observed start-to-start gap (the planned delay).
    pub gap: SimTime,
    /// Observed execution-window length of the delayed call (tolerance).
    pub window: SimTime,
}

/// The TSV detection plan: candidates plus per-site planned delays.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TsvPlan {
    /// Workload the plan was derived from.
    pub workload: String,
    /// Candidate pairs, deterministic order.
    pub candidates: Vec<TsvCandidate>,
    /// Planned delay per delay site (the largest gap among its pairs).
    pub delay_len: BTreeMap<SiteId, SimTime>,
}

impl TsvPlan {
    /// Planned delay for `site` (zero when not a candidate).
    pub fn delay_for(&self, site: SiteId) -> SimTime {
        self.delay_len.get(&site).copied().unwrap_or(SimTime::ZERO)
    }

    /// Serializes the plan (same persistence format as [`crate::Plan`]).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a plan from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Analyzes a preparation trace for TSV candidates within `delta`.
///
/// Two thread-unsafe API calls on the same object from different threads
/// within the near-miss window form a candidate; the earlier call is the
/// delay location. Call windows are estimated from consecutive same-site
/// event spacing when available, defaulting to `default_window`.
///
/// Builds the columnar [`waffle_trace::TraceIndex`] and runs the indexed
/// sweep ([`crate::pipeline::analyze_tsv_indexed`]); callers that already
/// hold an index should use the indexed entry point directly to avoid
/// rebuilding it.
pub fn analyze_tsv(trace: &Trace, delta: SimTime, default_window: SimTime) -> TsvPlan {
    crate::pipeline::analyze_tsv_indexed(&trace.index(), delta, default_window, 1)
}

/// Reference per-pass TSV scanner: regroups the trace's TSV events per
/// object on the heap and scans the groups. Kept as the semantic spec the
/// indexed sweep is equivalence-tested against (`tests/analysis_equivalence.rs`).
pub fn analyze_tsv_unindexed(trace: &Trace, delta: SimTime, default_window: SimTime) -> TsvPlan {
    let mut per_obj: BTreeMap<ObjectId, Vec<&waffle_trace::TraceEvent>> = BTreeMap::new();
    for e in trace.tsv_events() {
        per_obj.entry(e.obj).or_default().push(e);
    }
    let mut seen: BTreeMap<(SiteId, SiteId), TsvCandidate> = BTreeMap::new();
    for events in per_obj.values() {
        for (i, e1) in events.iter().enumerate() {
            for e2 in events[i + 1..].iter() {
                let gap = e2.time.saturating_sub(e1.time);
                if gap >= delta {
                    break;
                }
                if e1.thread == e2.thread {
                    continue;
                }
                let entry = seen
                    .entry((e1.site, e2.site))
                    .or_insert_with(|| TsvCandidate {
                        delay_site: e1.site,
                        other_site: e2.site,
                        obj: e1.obj,
                        gap: SimTime::ZERO,
                        window: default_window,
                    });
                entry.gap = entry.gap.max(gap);
            }
        }
    }
    let candidates: Vec<TsvCandidate> = seen.into_values().collect();
    let mut delay_len = BTreeMap::new();
    for c in &candidates {
        let cur = delay_len.entry(c.delay_site).or_insert(SimTime::ZERO);
        *cur = (*cur).max(c.gap);
    }
    TsvPlan {
        workload: trace.workload.clone(),
        candidates,
        delay_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_mem::{AccessKind, SiteRegistry};
    use waffle_sim::ThreadId;
    use waffle_trace::{ClockId, ClockPool, TraceEvent};

    fn trace() -> Trace {
        let mut sites = SiteRegistry::new();
        let a = sites.register("A.call", AccessKind::UnsafeApiCall);
        let b = sites.register("B.call", AccessKind::UnsafeApiCall);
        let mk = |t_us: u64, thread: u32, site| TraceEvent {
            time: SimTime::from_us(t_us),
            thread: ThreadId(thread),
            site,
            obj: ObjectId(0),
            kind: AccessKind::UnsafeApiCall,
            dyn_index: 0,
            clock: ClockId::EMPTY,
        };
        Trace {
            workload: "tsv".into(),
            sites,
            events: vec![mk(1_000, 0, a), mk(31_000, 1, b)],
            forks: vec![],
            clocks: ClockPool::new(),
            end_time: SimTime::from_ms(1),
        }
    }

    #[test]
    fn near_missing_calls_become_candidates_with_gap_delays() {
        let plan = analyze_tsv(&trace(), SimTime::from_ms(100), SimTime::from_us(500));
        assert_eq!(plan.candidates.len(), 1);
        let c = &plan.candidates[0];
        assert_eq!(c.gap, SimTime::from_us(30_000));
        assert_eq!(plan.delay_for(c.delay_site), SimTime::from_us(30_000));
        // The earlier call is the only delay location.
        assert_eq!(plan.delay_for(c.other_site), SimTime::ZERO);
        assert_eq!(plan.delay_len.len(), 1);
    }

    #[test]
    fn same_thread_calls_are_not_candidates() {
        let mut t = trace();
        for e in &mut t.events {
            e.thread = ThreadId(0);
        }
        let plan = analyze_tsv(&t, SimTime::from_ms(100), SimTime::from_us(500));
        assert!(plan.candidates.is_empty());
    }
}
