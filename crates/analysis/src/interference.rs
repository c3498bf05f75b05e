//! The interference set `I` (§4.4).

use std::collections::{HashMap, HashSet};

use serde::value::Value;
use serde::{Deserialize, Serialize};
use waffle_mem::SiteId;
use waffle_sim::SimTime;
use waffle_trace::Trace;

use crate::candidates::CandidatePair;

/// Near-miss observations of one candidate pair: `(τ1, τ2, thread-of-ℓ2)`.
type PairObservations = Vec<(SimTime, SimTime, waffle_sim::ThreadId)>;

/// A symmetric set of candidate-location pairs whose concurrent delays
/// would cancel each other.
///
/// Built from the preparation trace: for a candidate pair `{ℓ1, ℓ2}`
/// observed at `(τ1, τ2)`, any *candidate location* ℓ\* exercised by ℓ2's
/// thread at a time within `(τ1 − δ, τ2]` is recorded as interfering with
/// ℓ1 — a delay at ℓ\* would block ℓ2's thread and cancel the delay at ℓ1
/// (Fig. 5). The look-behind boundary is *strict* (a gap of exactly δ is
/// outside the window), matching the strict `< δ` near-miss window used
/// for candidate identification in `candidates.rs`. Self-pairs `(ℓ, ℓ)`
/// are meaningful: they capture the "interfering dynamic instances"
/// pattern of Fig. 4b.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct InterferenceSet {
    /// Normalized `(min, max)` pairs, sorted and deduplicated.
    pairs: Vec<(SiteId, SiteId)>,
}

// Hand-written so a plan file's pairs are normalized exactly as
// [`InterferenceSet::insert`] would store them: `[[5,2]]` reads as the
// pair `(2, 5)`, and `[[2,5],[5,2]]` as that one pair. Valid plans read
// back unchanged, so they serialize byte-identically.
impl Deserialize for InterferenceSet {
    fn from_value(v: &Value) -> Result<Self, serde::value::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::value::Error::expected("map", v))?;
        match serde::value::get(m, "pairs") {
            Some(pairs) => Ok(Self::from_pairs(Vec::from_value(pairs)?)),
            None => Deserialize::missing_field("pairs"),
        }
    }
}

impl InterferenceSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from pairs in any order and orientation (linear when
    /// they are already normalized and sorted).
    pub(crate) fn from_pairs(mut pairs: Vec<(SiteId, SiteId)>) -> Self {
        for p in &mut pairs {
            *p = Self::norm(p.0, p.1);
        }
        pairs.sort_unstable();
        pairs.dedup();
        Self { pairs }
    }

    /// Normalizes a pair to `(min, max)`.
    fn norm(a: SiteId, b: SiteId) -> (SiteId, SiteId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Records that delays at `a` and `b` interfere.
    pub fn insert(&mut self, a: SiteId, b: SiteId) {
        let p = Self::norm(a, b);
        if let Err(at) = self.pairs.binary_search(&p) {
            self.pairs.insert(at, p);
        }
    }

    /// Whether delays at `a` and `b` interfere.
    pub fn interferes(&self, a: SiteId, b: SiteId) -> bool {
        self.pairs.binary_search(&Self::norm(a, b)).is_ok()
    }

    /// Number of interfering pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over normalized pairs, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, SiteId)> + '_ {
        self.pairs.iter().copied()
    }
}

/// Builds the interference set from a trace and the candidate set.
///
/// `delta` is the near-miss window (the look-behind before τ1 in Fig. 5).
///
/// This is the *reference* per-pass builder — it re-scans the whole trace
/// and regroups events per object, independently of the candidate scan.
/// Production paths go through [`crate::analyze`], whose fused pipeline
/// collects the same observations during the single indexed sweep; the
/// equivalence is pinned by `tests/analysis_equivalence.rs`.
pub fn build_interference(
    trace: &Trace,
    candidates: &[CandidatePair],
    delta: SimTime,
) -> InterferenceSet {
    let mut set = InterferenceSet::new();
    let delay_sites: HashSet<SiteId> = candidates.iter().map(|c| c.delay_site).collect();
    if delay_sites.is_empty() {
        return set;
    }
    // Re-discover the observation times of every candidate pair: for each
    // (obj, delay_site event e1, other_site event e2) within the window,
    // find candidate locations executed by e2's thread in (τ1 − δ, τ2].
    // Index events by thread for the window scan.
    let mut by_thread: HashMap<waffle_sim::ThreadId, Vec<(SimTime, SiteId)>> = HashMap::new();
    for e in trace.mem_order_events() {
        if delay_sites.contains(&e.site) {
            by_thread
                .entry(e.thread)
                .or_default()
                .push((e.time, e.site));
        }
    }
    let mut per_pair: HashMap<(SiteId, SiteId), PairObservations> = HashMap::new();
    {
        // Collect (τ1, τ2, thread-of-ℓ2) per candidate pair.
        let mut per_obj: std::collections::BTreeMap<
            waffle_mem::ObjectId,
            Vec<&waffle_trace::TraceEvent>,
        > = Default::default();
        for e in trace.mem_order_events() {
            per_obj.entry(e.obj).or_default().push(e);
        }
        let cand_keys: HashSet<(SiteId, SiteId)> = candidates
            .iter()
            .map(|c| (c.delay_site, c.other_site))
            .collect();
        for events in per_obj.values() {
            for (i, e1) in events.iter().enumerate() {
                for e2 in events[i + 1..].iter() {
                    if e2.time.saturating_sub(e1.time) >= delta {
                        break;
                    }
                    if e1.thread == e2.thread {
                        continue;
                    }
                    if cand_keys.contains(&(e1.site, e2.site)) {
                        per_pair
                            .entry((e1.site, e2.site))
                            .or_default()
                            .push((e1.time, e2.time, e2.thread));
                    }
                }
            }
        }
    }
    for ((l1, _l2), observations) in per_pair {
        for (t1, t2, thd2) in observations {
            if let Some(execs) = by_thread.get(&thd2) {
                for &(t_star, l_star) in execs {
                    // Window is (τ1 − δ, τ2]: the look-behind boundary is
                    // strict so a location exactly δ before τ1 does not
                    // count, consistent with the strict `< δ` near-miss
                    // window used on the pair side and in candidates.rs.
                    if t1.saturating_sub(t_star) < delta && t_star <= t2 {
                        set.insert(l1, l_star);
                    }
                }
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_is_symmetric_and_deduplicated() {
        let mut s = InterferenceSet::new();
        s.insert(SiteId(3), SiteId(1));
        s.insert(SiteId(1), SiteId(3));
        assert_eq!(s.len(), 1);
        assert!(s.interferes(SiteId(1), SiteId(3)));
        assert!(s.interferes(SiteId(3), SiteId(1)));
        assert!(!s.interferes(SiteId(1), SiteId(2)));
    }

    #[test]
    fn self_pairs_are_representable() {
        let mut s = InterferenceSet::new();
        s.insert(SiteId(5), SiteId(5));
        assert!(s.interferes(SiteId(5), SiteId(5)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_set_reports_no_interference() {
        let s = InterferenceSet::new();
        assert!(s.is_empty());
        assert!(!s.interferes(SiteId(0), SiteId(1)));
    }

    /// The look-behind boundary of the `(τ1 − δ, τ2]` window is strict:
    /// a candidate location executed exactly δ before τ1 is outside, one
    /// microsecond later is inside. Mirrors the strict `< δ` near-miss
    /// window of candidate identification.
    #[test]
    fn lookback_boundary_is_strict_at_exactly_delta() {
        use crate::candidates::{BugKind, CandidatePair};
        use waffle_mem::{AccessKind, ObjectId, SiteRegistry};
        use waffle_sim::ThreadId;
        use waffle_trace::{ClockId, ClockPool, Trace, TraceEvent};

        let delta = SimTime::from_us(100);
        let mut sites = SiteRegistry::new();
        let l1 = sites.register("M.init:1", AccessKind::Init);
        let l2 = sites.register("W.use:2", AccessKind::Use);
        // Candidate locations on ℓ2's thread: one exactly δ before τ1
        // (outside the strict window), one 1µs inside it.
        let l_out = sites.register("W.out:3", AccessKind::Use);
        let l_in = sites.register("W.in:4", AccessKind::Use);

        let ev = |time_us, thread, site, obj, kind| TraceEvent {
            time: SimTime::from_us(time_us),
            thread: ThreadId(thread),
            site,
            obj: ObjectId(obj),
            kind,
            dyn_index: 0,
            clock: ClockId::EMPTY,
        };
        // τ1 = 1000, τ2 = 1050; ℓ* candidates at 900 (= τ1 − δ) and 901.
        let trace = Trace {
            workload: "boundary".into(),
            sites,
            events: vec![
                ev(900, 1, l_out, 1, AccessKind::Use),
                ev(901, 1, l_in, 1, AccessKind::Use),
                ev(1000, 0, l1, 0, AccessKind::Init),
                ev(1050, 1, l2, 0, AccessKind::Use),
            ],
            forks: vec![],
            clocks: ClockPool::new(),
            end_time: SimTime::from_us(1100),
        };
        let pair = |delay_site, other_site| CandidatePair {
            delay_site,
            other_site,
            kind: BugKind::UseBeforeInit,
            obj: ObjectId(0),
            max_gap: SimTime::from_us(50),
            observations: 1,
        };
        // ℓ_out / ℓ_in become delay sites via their own (never-observed)
        // candidate pairs, so they are eligible ℓ* locations.
        let candidates = vec![pair(l1, l2), pair(l_out, l2), pair(l_in, l2)];
        let set = build_interference(&trace, &candidates, delta);
        assert!(
            set.interferes(l1, l_in),
            "gap of δ−1 must be inside the window"
        );
        assert!(
            !set.interferes(l1, l_out),
            "gap of exactly δ must be outside the strict window"
        );
    }
}
