//! Near-miss candidate construction and happens-before pruning.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};
use waffle_mem::{AccessKind, ObjectId, SiteId};
use waffle_sim::SimTime;
use waffle_trace::{Trace, TraceEvent};

/// Which MemOrder bug a candidate pair could expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BugKind {
    /// Delay the initialization at ℓ1 past the use at ℓ2.
    UseBeforeInit,
    /// Delay the use at ℓ1 past the disposal at ℓ2.
    UseAfterFree,
}

impl BugKind {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            BugKind::UseBeforeInit => "use-before-init",
            BugKind::UseAfterFree => "use-after-free",
        }
    }
}

/// A MemOrder bug candidate `{ℓ1, ℓ2}`: ℓ1 is the *delay location* (where
/// the runtime injects), ℓ2 the operation to be overtaken.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidatePair {
    /// The delay-injection location.
    pub delay_site: SiteId,
    /// The location the delayed operation must fall behind.
    pub other_site: SiteId,
    /// The bug class this pair could expose.
    pub kind: BugKind,
    /// One object the near-miss was observed on (reporting context).
    ///
    /// **Pinned selection rule**: the representative is the first admitted
    /// observation scanning objects in ascending `ObjectId` order (trace
    /// order within an object) — i.e. the *lowest-numbered* object with an
    /// admitted observation of this pair. Both the sequential scanner and
    /// the sharded indexed pipeline implement this rule, so reports cannot
    /// silently change with `--jobs`; `obj_representative_is_pinned`
    /// regresses it.
    pub obj: ObjectId,
    /// Largest observed gap `|τ1 − τ2|` across near-miss observations.
    pub max_gap: SimTime,
    /// Number of near-miss observations of this pair in the trace.
    pub observations: u32,
}

/// Configuration for the near-miss scan.
#[derive(Debug, Clone, Copy)]
pub struct NearMissConfig {
    /// The near-miss window δ (default 100 ms, as in TSVD and the paper).
    pub delta: SimTime,
    /// Whether to prune pairs whose event clocks are ordered (§4.1).
    /// Disabled by the "no parent-child analysis" ablation (Table 7).
    pub prune_ordered: bool,
}

impl Default for NearMissConfig {
    fn default() -> Self {
        Self {
            delta: SimTime::from_ms(100),
            prune_ordered: true,
        }
    }
}

/// Statistics from a near-miss scan (used by experiment reporting).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NearMissStats {
    /// Same-object event pairs that fell inside the δ window (before the
    /// thread and kind filters) — the raw work the windowed sweep did, and
    /// the denominator for the bench's pairs/sec rate.
    pub window_pairs: u64,
    /// Near-miss event pairs examined (same object, different thread,
    /// within δ, kinds matching a bug pattern).
    pub examined: u64,
    /// Pairs discarded because their clocks were ordered.
    pub pruned_ordered: u64,
    /// Distinct candidate site pairs admitted to `S`.
    pub admitted: usize,
}

/// Runs the near-miss heuristic over a trace and returns the candidate set
/// `S` plus scan statistics.
///
/// For every object, an `Init` at τ1 followed by a `Use` at τ2 with
/// `0 ≤ τ2 − τ1 < δ` from a different thread yields a use-before-init
/// candidate (delay the init); a `Use` at τ1 followed by a `Dispose` at τ2
/// under the same constraints yields a use-after-free candidate (delay the
/// use). Pairs whose vector clocks are ordered are pruned when
/// `prune_ordered` is set.
///
/// This is the *reference* per-pass scanner, kept as the semantic spec the
/// indexed single-pass pipeline ([`crate::pipeline`]) is equivalence-tested
/// against; production paths go through [`crate::analyze`], which runs the
/// pipeline over the columnar [`waffle_trace::TraceIndex`].
pub fn near_miss_candidates(
    trace: &Trace,
    config: &NearMissConfig,
) -> (Vec<CandidatePair>, NearMissStats) {
    let mut stats = NearMissStats::default();
    // Group MemOrder events per object, preserving trace (time) order.
    // BTreeMap keeps the scan order — and therefore each pair's
    // representative observation — deterministic.
    let mut per_obj: BTreeMap<ObjectId, Vec<&TraceEvent>> = BTreeMap::new();
    for e in trace.mem_order_events() {
        per_obj.entry(e.obj).or_default().push(e);
    }
    let mut pairs: HashMap<(SiteId, SiteId, BugKind), CandidatePair> = HashMap::new();
    for events in per_obj.values() {
        for (i, e1) in events.iter().enumerate() {
            // Scan forward while within the near-miss window.
            for e2 in events[i + 1..].iter() {
                let gap = e2.time.saturating_sub(e1.time);
                if gap >= config.delta {
                    break;
                }
                stats.window_pairs += 1;
                if e2.thread == e1.thread {
                    continue;
                }
                let kind = match (e1.kind, e2.kind) {
                    (AccessKind::Init, AccessKind::Use) => BugKind::UseBeforeInit,
                    (AccessKind::Use, AccessKind::Dispose) => BugKind::UseAfterFree,
                    _ => continue,
                };
                stats.examined += 1;
                if config.prune_ordered
                    && trace
                        .event_clock(e1)
                        .order(trace.event_clock(e2))
                        .is_ordered()
                {
                    stats.pruned_ordered += 1;
                    continue;
                }
                let entry =
                    pairs
                        .entry((e1.site, e2.site, kind))
                        .or_insert_with(|| CandidatePair {
                            delay_site: e1.site,
                            other_site: e2.site,
                            kind,
                            obj: e1.obj,
                            max_gap: SimTime::ZERO,
                            observations: 0,
                        });
                entry.max_gap = entry.max_gap.max(gap);
                entry.observations += 1;
            }
        }
    }
    let mut out: Vec<CandidatePair> = pairs.into_values().collect();
    // Deterministic order for plans and reports.
    out.sort_by_key(|p| (p.delay_site, p.other_site, p.kind as u8));
    stats.admitted = out.len();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_mem::SiteRegistry;
    use waffle_sim::ThreadId;
    use waffle_trace::ClockPool;
    use waffle_vclock::ClockSnapshot;

    struct TB {
        sites: SiteRegistry,
        events: Vec<TraceEvent>,
        clocks: ClockPool,
    }

    impl TB {
        fn new() -> Self {
            Self {
                sites: SiteRegistry::new(),
                events: Vec::new(),
                clocks: ClockPool::new(),
            }
        }

        fn ev(
            &mut self,
            t_us: u64,
            thread: u32,
            site: &str,
            obj: u32,
            kind: AccessKind,
            clock: &[(u32, u64)],
        ) -> &mut Self {
            let site = self.sites.register(site, kind);
            let clock = self.clocks.intern(ClockSnapshot::from_entries(
                clock.iter().map(|&(t, v)| (ThreadId(t), v)),
            ));
            self.events.push(TraceEvent {
                time: SimTime::from_us(t_us),
                thread: ThreadId(thread),
                site,
                obj: ObjectId(obj),
                kind,
                dyn_index: 0,
                clock,
            });
            self
        }

        fn trace(self) -> Trace {
            Trace {
                workload: "test".into(),
                sites: self.sites,
                events: self.events,
                forks: vec![],
                clocks: self.clocks,
                end_time: SimTime::from_ms(10),
            }
        }
    }

    #[test]
    fn init_use_near_miss_yields_ubi_candidate() {
        let mut b = TB::new();
        b.ev(100, 0, "init", 0, AccessKind::Init, &[(0, 2)]);
        b.ev(150, 1, "use", 0, AccessKind::Use, &[(1, 1)]);
        let (pairs, stats) = near_miss_candidates(&b.trace(), &NearMissConfig::default());
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].kind, BugKind::UseBeforeInit);
        assert_eq!(pairs[0].max_gap, SimTime::from_us(50));
        assert_eq!(stats.window_pairs, 1);
        assert_eq!(stats.examined, 1);
        assert_eq!(stats.pruned_ordered, 0);
    }

    #[test]
    fn use_dispose_near_miss_yields_uaf_candidate() {
        let mut b = TB::new();
        b.ev(100, 1, "use", 0, AccessKind::Use, &[(1, 1)]);
        b.ev(180, 0, "dispose", 0, AccessKind::Dispose, &[(0, 2)]);
        let (pairs, _) = near_miss_candidates(&b.trace(), &NearMissConfig::default());
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].kind, BugKind::UseAfterFree);
        assert_eq!(pairs[0].max_gap, SimTime::from_us(80));
    }

    #[test]
    fn same_thread_pairs_are_not_candidates() {
        let mut b = TB::new();
        b.ev(100, 0, "init", 0, AccessKind::Init, &[(0, 1)]);
        b.ev(150, 0, "use", 0, AccessKind::Use, &[(0, 1)]);
        let (pairs, _) = near_miss_candidates(&b.trace(), &NearMissConfig::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn different_objects_are_not_candidates() {
        let mut b = TB::new();
        b.ev(100, 0, "init", 0, AccessKind::Init, &[(0, 2)]);
        b.ev(150, 1, "use", 1, AccessKind::Use, &[(1, 1)]);
        let (pairs, _) = near_miss_candidates(&b.trace(), &NearMissConfig::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn gap_beyond_delta_is_not_a_near_miss() {
        let mut b = TB::new();
        b.ev(0, 0, "init", 0, AccessKind::Init, &[(0, 2)]);
        b.ev(200_000, 1, "use", 0, AccessKind::Use, &[(1, 1)]);
        let (pairs, _) = near_miss_candidates(&b.trace(), &NearMissConfig::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn ordered_clocks_are_pruned_unless_disabled() {
        let mut b = TB::new();
        // Parent inits pre-fork (clock {0:1}); child uses with {0:2, 1:1}:
        // ordered → pruned.
        b.ev(100, 0, "init", 0, AccessKind::Init, &[(0, 1)]);
        b.ev(150, 1, "use", 0, AccessKind::Use, &[(0, 2), (1, 1)]);
        let trace = b.trace();
        let (pairs, stats) = near_miss_candidates(&trace, &NearMissConfig::default());
        assert!(pairs.is_empty());
        assert_eq!(stats.pruned_ordered, 1);
        // Ablation: no parent-child analysis keeps the pair.
        let (pairs, _) = near_miss_candidates(
            &trace,
            &NearMissConfig {
                prune_ordered: false,
                ..NearMissConfig::default()
            },
        );
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn repeated_observations_keep_max_gap() {
        let mut b = TB::new();
        b.ev(0, 0, "init", 0, AccessKind::Init, &[(0, 2)]);
        b.ev(30, 1, "use", 0, AccessKind::Use, &[(1, 1)]);
        b.ev(1_000, 0, "init", 1, AccessKind::Init, &[(0, 2)]);
        b.ev(1_090, 1, "use", 1, AccessKind::Use, &[(1, 1)]);
        let (pairs, _) = near_miss_candidates(&b.trace(), &NearMissConfig::default());
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].observations, 2);
        assert_eq!(pairs[0].max_gap, SimTime::from_us(90));
    }

    #[test]
    fn reversed_kind_order_is_not_a_candidate() {
        // A use *before* an init (would already have crashed) and a dispose
        // before a use are not near-miss patterns.
        let mut b = TB::new();
        b.ev(100, 0, "dispose", 0, AccessKind::Dispose, &[(0, 2)]);
        b.ev(150, 1, "use", 0, AccessKind::Use, &[(1, 1)]);
        let (pairs, _) = near_miss_candidates(&b.trace(), &NearMissConfig::default());
        assert!(pairs.is_empty());
    }
}
