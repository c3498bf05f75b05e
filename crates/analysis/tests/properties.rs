//! Property tests: analyzer invariants over randomly generated traces.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use serde::Serialize;
use waffle_analysis::{
    analyze, analyze_segments, analyze_tsv_segments, analyze_tsv_unindexed, analyze_unindexed,
    AnalyzerConfig, BugKind, IncrementalAnalysis, InterferenceSet, Plan, PlanTables,
};
use waffle_mem::{AccessKind, ObjectId, SiteId, SiteRegistry};
use waffle_sim::{SimTime, ThreadId};
use waffle_trace::{ClockPool, SegmentReader, SessionIndexBuilder, Trace, TraceEvent, TraceIndex};
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
                clock: clocks.intern(ClockSnapshot::from_entries([(ThreadId(e.thread), e.tick)])),
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

/// A site id: mostly small, sometimes at the top of the id space.
fn site_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..6, (u32::MAX - 2)..=u32::MAX]
}

/// The interference set's JSON layout before it became a sorted `Vec`: the
/// byte-identity reference for its serialization.
#[derive(Serialize)]
struct ModelSet {
    pairs: BTreeSet<(SiteId, SiteId)>,
}

proptest! {
    /// The sorted-`Vec` [`InterferenceSet`] and the policy's compiled
    /// interference rows ([`PlanTables`]) agree with a `BTreeSet` model
    /// under random insert sequences — self-pairs, reversed pairs, ids at
    /// the top of the id space, and sites with no delay length (ℓ\* that
    /// only the interference set names): membership, length, iteration
    /// order and JSON bytes.
    #[test]
    fn interference_set_and_compiled_rows_match_a_btreeset_model(
        inserts in proptest::collection::vec((site_strategy(), site_strategy()), 0..40),
        delays in proptest::collection::btree_map(site_strategy(), 0u64..3, 0..4),
    ) {
        let mut set = InterferenceSet::new();
        let mut model = BTreeSet::new();
        for &(a, b) in &inserts {
            set.insert(SiteId(a), SiteId(b));
            model.insert((SiteId(a.min(b)), SiteId(a.max(b))));
        }
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.is_empty(), model.is_empty());
        let in_order: Vec<(SiteId, SiteId)> = model.iter().copied().collect();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), in_order);
        let json = serde_json::to_string(&set).unwrap();
        let model_json = serde_json::to_string(&ModelSet { pairs: model.clone() }).unwrap();
        prop_assert_eq!(&json, &model_json);

        // Every insert written as stored, reversed and repeated reads
        // back as the same set.
        let raw: Vec<String> = inserts
            .iter()
            .flat_map(|&(a, b)| [format!("[{a},{b}]"), format!("[{b},{a}]")])
            .collect();
        let parsed: InterferenceSet =
            serde_json::from_str(&format!("{{\"pairs\":[{}]}}", raw.join(","))).unwrap();
        prop_assert_eq!(&parsed, &set);
        prop_assert_eq!(serde_json::to_string(&parsed).unwrap(), json);

        let plan = Plan {
            workload: "model".into(),
            candidates: vec![],
            delay_len: delays
                .iter()
                .map(|(&s, &us)| (SiteId(s), SimTime::from_us(us)))
                .collect::<BTreeMap<_, _>>(),
            interference: set.clone(),
            delta: SimTime::from_ms(100),
            stats: Default::default(),
            memory_model: Default::default(),
        };
        let tables = PlanTables::compile(&plan, usize::MAX);
        let universe: BTreeSet<u32> = inserts
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .chain(delays.keys().copied())
            .chain([3, u32::MAX - 1])
            .collect();
        for &a in &universe {
            let a = SiteId(a);
            let delay = tables.rank(a).map_or(SimTime::ZERO, |r| tables.delay(r));
            prop_assert_eq!(delay, plan.delay_for(a));
            for &b in &universe {
                let b = SiteId(b);
                let expected = model.contains(&(a.min(b), a.max(b)));
                prop_assert_eq!(set.interferes(a, b), expected);
                prop_assert_eq!(tables.interferes(a, b), expected);
            }
        }
    }
}

/// A fresh scratch path per call, so property cases never share files.
fn scratch_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "waffle-prop-src-{}-{n}-{tag}.wseg",
        std::process::id()
    ))
}

/// Streams `trace` through a serve-style session: seals every `seal`
/// events into a generation, absorbs each into an [`IncrementalAnalysis`]
/// at `jobs`, and finishes the fold by replaying the generation files in
/// seal order under a one-byte budget. Returns the plan and TSV JSON.
fn incremental_json(
    trace: &Trace,
    config: &AnalyzerConfig,
    window: SimTime,
    seal: usize,
    jobs: usize,
) -> (String, String) {
    let mut b = SessionIndexBuilder::new(trace.workload.clone());
    let sites: Vec<_> = trace
        .sites
        .iter()
        .map(|(_, info)| (info.name.clone(), info.kind))
        .collect();
    b.add_sites(&sites).unwrap();
    let snaps = trace.clocks.snapshots();
    if snaps.len() > 1 {
        b.add_clocks(snaps[1..].to_vec()).unwrap();
    }
    b.declare_end_time(trace.end_time);
    let mut inc = IncrementalAnalysis::new(*config, window);
    let mut generations = Vec::new();
    for events in trace.events.chunks(seal) {
        b.push_batch(events.to_vec()).unwrap();
        let path = scratch_path("gen");
        let out = b.seal(&path).unwrap();
        inc.absorb(&out.mem, &out.tsv, b.clocks(), b.last_time(), jobs);
        generations.push(path);
    }
    let readers = generations.iter().map(|p| SegmentReader::open(p).unwrap());
    let (plan, tsv) = inc.finish(&trace.workload, readers, 1).unwrap();
    for p in &generations {
        let _ = std::fs::remove_file(p);
    }
    (plan.to_json().unwrap(), tsv.to_json().unwrap())
}

proptest! {
    /// Every production source — the streamed segment file at a one-byte
    /// budget and the serve-side incremental fold at a drawn seal size —
    /// yields plan and TSV JSON identical to the reference scanners on
    /// dense random traces. Events whose tick matches `tsv_tick` become
    /// unsafe API calls, so both classes share each trace. Sites are per
    /// (thread, kind), so one site pair recurs on several objects and the
    /// representative-object fold across batches and generations matters,
    /// or per (thread, kind, object), so one thread runs many delay sites.
    #[test]
    fn every_analysis_source_matches_reference_on_dense_windows(
        evs in dense_events_strategy(),
        tsv_tick in 1u64..6,
        seal in 1usize..40,
        per_object_sites in 0u8..2,
    ) {
        let evs: Vec<Ev> = evs
            .into_iter()
            .map(|mut e| {
                if e.tick == tsv_tick {
                    e.kind = AccessKind::UnsafeApiCall;
                }
                e
            })
            .collect();
        let trace = if per_object_sites == 1 {
            build_trace_sited(evs, |e| format!("s{}k{}o{}", e.thread, e.kind, e.obj))
        } else {
            build_trace(evs)
        };
        let config = AnalyzerConfig::default();
        let window = SimTime::from_ms(1);
        let plan_ref = analyze_unindexed(&trace, &config).to_json().unwrap();
        let tsv_ref = analyze_tsv_unindexed(&trace, config.delta, window).to_json().unwrap();

        let path = scratch_path("batch");
        TraceIndex::build(&trace).write_segments(&path).unwrap();
        for jobs in [1, 2] {
            let mut reader = SegmentReader::open(&path).unwrap();
            let plan = analyze_segments(&mut reader, &config, jobs, 1).unwrap();
            let tsv = analyze_tsv_segments(&mut reader, config.delta, window, jobs, 1).unwrap();
            prop_assert_eq!(plan.to_json().unwrap(), plan_ref.clone(), "segments, jobs={}", jobs);
            prop_assert_eq!(tsv.to_json().unwrap(), tsv_ref.clone(), "segments tsv, jobs={}", jobs);

            let (plan, tsv) = incremental_json(&trace, &config, window, seal, jobs);
            prop_assert_eq!(plan, plan_ref.clone(), "incremental, seal={}, jobs={}", seal, jobs);
            prop_assert_eq!(tsv, tsv_ref.clone(), "incremental tsv, seal={}, jobs={}", seal, jobs);
        }
        let _ = std::fs::remove_file(&path);
    }
}
