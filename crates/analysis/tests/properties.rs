//! Property tests: analyzer invariants over randomly generated traces.

use proptest::prelude::*;
use waffle_analysis::{
    analyze, analyze_unindexed, AnalyzerConfig, BugKind, InterferenceSet,
};
use waffle_mem::{AccessKind, ObjectId, SiteId, SiteRegistry};
use waffle_sim::{SimTime, ThreadId};
use waffle_trace::{ClockPool, Trace, TraceEvent};
use waffle_vclock::ClockSnapshot;

/// A compact random event description.
#[derive(Debug, Clone)]
struct Ev {
    t_us: u64,
    thread: u32,
    obj: u32,
    kind: AccessKind,
    // Clock entry for the event's own thread; other entries empty →
    // clocks are concurrent unless threads coincide.
    tick: u64,
}

fn kind_strategy() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Init),
        Just(AccessKind::Use),
        Just(AccessKind::Dispose),
    ]
}

fn events_strategy() -> impl Strategy<Value = Vec<Ev>> {
    proptest::collection::vec(
        (0u64..500_000, 0u32..4, 0u32..3, kind_strategy(), 1u64..5).prop_map(
            |(t_us, thread, obj, kind, tick)| Ev {
                t_us,
                thread,
                obj,
                kind,
                tick,
            },
        ),
        0..60,
    )
}

/// Dense traces for the interference resolution: every event falls inside
/// one 150 ms stretch (so δ = 100 ms windows overlap heavily), and sites
/// are per (thread, kind, object), so one thread runs several delay sites.
fn dense_events_strategy() -> impl Strategy<Value = Vec<Ev>> {
    proptest::collection::vec(
        (0u64..150_000, 0u32..4, 0u32..3, kind_strategy(), 1u64..5).prop_map(
            |(t_us, thread, obj, kind, tick)| Ev {
                t_us,
                thread,
                obj,
                kind,
                tick,
            },
        ),
        0..120,
    )
}

fn build_trace(evs: Vec<Ev>) -> Trace {
    // One site per (thread, kind) pair, like static code locations.
    build_trace_sited(evs, |e| format!("s{}k{}", e.thread, e.kind))
}

fn build_trace_sited(mut evs: Vec<Ev>, site_name: impl Fn(&Ev) -> String) -> Trace {
    evs.sort_by_key(|e| e.t_us);
    let mut sites = SiteRegistry::new();
    let mut clocks = ClockPool::new();
    let events = evs
        .iter()
        .map(|e| {
            let site = sites.register(&site_name(e), e.kind);
            TraceEvent {
                time: SimTime::from_us(e.t_us),
                thread: ThreadId(e.thread),
                site,
                obj: ObjectId(e.obj),
                kind: e.kind,
                dyn_index: 0,
                clock: clocks.intern(ClockSnapshot::from_entries([(
                    ThreadId(e.thread),
                    e.tick,
                )])),
            }
        })
        .collect();
    Trace {
        workload: "prop".into(),
        sites,
        events,
        forks: vec![],
        clocks,
        end_time: SimTime::from_ms(500),
    }
}

proptest! {
    /// Soundness: every candidate pair corresponds to at least one
    /// real near-miss observation in the trace (right kinds, same object,
    /// different threads, within δ, in order).
    #[test]
    fn candidates_are_sound(evs in events_strategy()) {
        let trace = build_trace(evs);
        let plan = analyze(&trace, &AnalyzerConfig::default());
        for c in &plan.candidates {
            let (k1, k2) = match c.kind {
                BugKind::UseBeforeInit => (AccessKind::Init, AccessKind::Use),
                BugKind::UseAfterFree => (AccessKind::Use, AccessKind::Dispose),
            };
            let witnessed = trace.events.iter().enumerate().any(|(i, e1)| {
                e1.site == c.delay_site
                    && e1.kind == k1
                    && trace.events[i + 1..].iter().any(|e2| {
                        e2.site == c.other_site
                            && e2.kind == k2
                            && e2.obj == e1.obj
                            && e2.thread != e1.thread
                            && e2.time.saturating_sub(e1.time) < plan.delta
                            && e2.time >= e1.time
                    })
            });
            prop_assert!(witnessed, "unwitnessed candidate {:?}", c);
        }
    }

    /// The parent-child pruning only ever removes candidates: the pruned
    /// plan's candidate set is a subset of the unpruned plan's.
    #[test]
    fn pruning_is_monotone(evs in events_strategy()) {
        let trace = build_trace(evs);
        let pruned = analyze(&trace, &AnalyzerConfig::default());
        let unpruned = analyze(&trace, &AnalyzerConfig::default().without_parent_child());
        for c in &pruned.candidates {
            prop_assert!(
                unpruned
                    .candidates
                    .iter()
                    .any(|u| u.delay_site == c.delay_site
                        && u.other_site == c.other_site
                        && u.kind == c.kind),
                "pruned plan invented candidate {:?}",
                c
            );
        }
        prop_assert!(pruned.candidates.len() <= unpruned.candidates.len());
    }

    /// Delay lengths: every planned delay is α· the max gap over that
    /// location's pairs, and strictly exceeds each observed gap.
    #[test]
    fn delay_lengths_cover_gaps(evs in events_strategy()) {
        let trace = build_trace(evs);
        let plan = analyze(&trace, &AnalyzerConfig::default());
        for c in &plan.candidates {
            let planned = plan.delay_for(c.delay_site);
            prop_assert!(planned >= c.max_gap.scale(115, 100));
            // α > 1 ⇒ the delay beats the observed gap (unless sub-µs).
            if c.max_gap.as_us() >= 7 {
                prop_assert!(planned > c.max_gap);
            }
        }
    }

    /// The interference set only couples delay locations of the plan.
    #[test]
    fn interference_pairs_are_delay_sites(evs in events_strategy()) {
        let trace = build_trace(evs);
        let plan = analyze(&trace, &AnalyzerConfig::default());
        let delay_sites: std::collections::HashSet<SiteId> =
            plan.delay_sites().collect();
        for (a, b) in plan.interference.iter() {
            prop_assert!(
                delay_sites.contains(&a) || delay_sites.contains(&b),
                "interference pair ({a}, {b}) references no delay site"
            );
        }
    }

    /// Analysis is a pure function of the trace.
    #[test]
    fn analysis_is_deterministic(evs in events_strategy()) {
        let trace = build_trace(evs);
        let p1 = analyze(&trace, &AnalyzerConfig::default());
        let p2 = analyze(&trace, &AnalyzerConfig::default());
        prop_assert_eq!(p1.to_json().unwrap(), p2.to_json().unwrap());
    }

    /// Plans survive the persistence round trip for arbitrary traces.
    #[test]
    fn plans_round_trip(evs in events_strategy()) {
        let trace = build_trace(evs);
        let plan = analyze(&trace, &AnalyzerConfig::default());
        let back = waffle_analysis::Plan::from_json(&plan.to_json().unwrap()).unwrap();
        prop_assert_eq!(back.candidates, plan.candidates);
        prop_assert_eq!(back.delay_len, plan.delay_len);
        prop_assert_eq!(back.interference, plan.interference);
    }

    /// The fused indexed pipeline is byte-equivalent to the reference
    /// per-pass scanners on arbitrary traces, at every sharding width.
    #[test]
    fn indexed_pipeline_matches_reference(
        evs in events_strategy(),
        jobs in 1usize..5,
    ) {
        let trace = build_trace(evs);
        let reference = analyze_unindexed(&trace, &AnalyzerConfig::default());
        let indexed = waffle_analysis::analyze_jobs(&trace, &AnalyzerConfig::default(), jobs);
        prop_assert_eq!(indexed.to_json().unwrap(), reference.to_json().unwrap());
    }

    /// The same equivalence on dense traces, where a delay site's windows
    /// overlap and one thread runs several delay sites: the cases the
    /// interference resolution's per-thread range merge and per-site
    /// dedupe handle.
    #[test]
    fn indexed_pipeline_matches_reference_on_dense_windows(
        evs in dense_events_strategy(),
        jobs in 1usize..5,
    ) {
        let trace = build_trace_sited(evs, |e| format!("s{}k{}o{}", e.thread, e.kind, e.obj));
        let reference = analyze_unindexed(&trace, &AnalyzerConfig::default());
        let indexed = waffle_analysis::analyze_jobs(&trace, &AnalyzerConfig::default(), jobs);
        prop_assert_eq!(indexed.to_json().unwrap(), reference.to_json().unwrap());
    }

    /// `InterferenceSet` is symmetric regardless of the order pairs were
    /// inserted or queried in: `interferes(a, b) == interferes(b, a)` for
    /// every site pair, under arbitrary insert sequences.
    #[test]
    fn interference_set_is_symmetric_under_any_insert_order(
        inserts in proptest::collection::vec((0u32..8, 0u32..8, 0u8..2), 0..40),
    ) {
        let mut set = InterferenceSet::new();
        for &(a, b, flip) in &inserts {
            let (a, b) = (SiteId(a), SiteId(b));
            if flip == 1 {
                set.insert(b, a);
            } else {
                set.insert(a, b);
            }
        }
        for a in 0..8u32 {
            for b in 0..8u32 {
                let (a, b) = (SiteId(a), SiteId(b));
                prop_assert_eq!(set.interferes(a, b), set.interferes(b, a));
                let expected = inserts
                    .iter()
                    .any(|&(x, y, _)| {
                        (SiteId(x), SiteId(y)) == (a, b) || (SiteId(x), SiteId(y)) == (b, a)
                    });
                prop_assert_eq!(set.interferes(a, b), expected);
            }
        }
    }
}
