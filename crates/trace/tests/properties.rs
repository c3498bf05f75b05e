//! Property tests: traces and statistics over arbitrary event streams.

use proptest::prelude::*;
use waffle_mem::{AccessKind, ObjectId, SiteRegistry};
use waffle_sim::{ForkEdge, SimTime, ThreadId};
use waffle_trace::{ClockPool, Trace, TraceEvent, TraceIndex, TraceStats};
use waffle_vclock::ClockSnapshot;

fn kind_strategy() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Init),
        Just(AccessKind::Use),
        Just(AccessKind::Dispose),
        Just(AccessKind::UnsafeApiCall),
    ]
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(
        (
            0u64..1_000_000,
            0u32..5,
            0u32..4,
            kind_strategy(),
            proptest::collection::btree_map(0u32..4, 1u64..9, 0..4),
        ),
        0..50,
    )
    .prop_map(|rows| {
        let mut sites = SiteRegistry::new();
        let mut clocks = ClockPool::new();
        let mut events: Vec<TraceEvent> = rows
            .into_iter()
            .map(|(t, thread, obj, kind, clock)| {
                let site = sites.register(&format!("s-{thread}-{}", kind.label()), kind);
                TraceEvent {
                    time: SimTime::from_us(t),
                    thread: ThreadId(thread),
                    site,
                    obj: ObjectId(obj),
                    kind,
                    dyn_index: 0,
                    clock: clocks.intern(ClockSnapshot::from_entries(
                        clock.into_iter().map(|(k, v)| (ThreadId(k), v)),
                    )),
                }
            })
            .collect();
        events.sort_by_key(|e| e.time);
        // Dynamic indices per site, in order.
        let mut counts = std::collections::HashMap::new();
        for e in &mut events {
            let c = counts.entry(e.site).or_insert(0u64);
            e.dyn_index = *c;
            *c += 1;
        }
        Trace {
            workload: "prop-trace".into(),
            sites,
            events,
            forks: vec![ForkEdge {
                parent: ThreadId(0),
                child: ThreadId(1),
                time: SimTime::ZERO,
            }],
            clocks,
            end_time: SimTime::from_ms(1_000),
        }
    })
}

proptest! {
    /// Any trace survives the JSON persistence round trip intact.
    #[test]
    fn traces_round_trip_through_json(trace in trace_strategy()) {
        let back = Trace::from_json(&trace.to_json().unwrap()).unwrap();
        prop_assert_eq!(back.events, trace.events);
        prop_assert_eq!(back.forks, trace.forks);
        prop_assert_eq!(back.clocks, trace.clocks);
        prop_assert_eq!(back.end_time, trace.end_time);
        prop_assert_eq!(back.sites.len(), trace.sites.len());
    }

    /// Serialization is a fixpoint: parsing `to_json` output and
    /// re-serializing produces byte-identical JSON, the interned clock
    /// pool keeps its exact size (no snapshot is duplicated or dropped
    /// by the round trip), and the pool holds each snapshot only once.
    #[test]
    fn json_serialization_is_a_fixpoint(trace in trace_strategy()) {
        let first = trace.to_json().unwrap();
        let back = Trace::from_json(&first).unwrap();
        let second = back.to_json().unwrap();
        prop_assert_eq!(&first, &second, "re-serialization must be byte-identical");
        prop_assert_eq!(back.clocks.len(), trace.clocks.len());
        let snaps = back.clocks.snapshots();
        for (i, a) in snaps.iter().enumerate() {
            for b in &snaps[i + 1..] {
                prop_assert!(
                    a != b,
                    "interned pool holds a duplicate snapshot after the round trip"
                );
            }
        }
    }

    /// The columnar index is an object-major permutation of each class's
    /// events: identical row multiset, contiguous CSR segments of one
    /// object each, time-sorted within every segment.
    #[test]
    fn index_is_an_object_major_permutation(trace in trace_strategy()) {
        let idx = TraceIndex::build(&trace);
        prop_assert_eq!(idx.mem.len(), trace.mem_order_events().count());
        prop_assert_eq!(idx.tsv.len(), trace.tsv_events().count());
        for cols in [&idx.mem, &idx.tsv] {
            prop_assert_eq!(*cols.offsets.last().unwrap() as usize, cols.len());
            let mut prev = None;
            for k in 0..cols.object_count() {
                if let Some(p) = prev {
                    prop_assert!(p < cols.objects[k], "objects ascend");
                }
                prev = Some(cols.objects[k]);
                let r = cols.range(k);
                prop_assert!(!r.is_empty(), "no empty segments");
                for w in cols.times[r].windows(2) {
                    prop_assert!(w[0] <= w[1], "segment time-sorted");
                }
            }
        }
        // Row multiset is preserved (the permutation drops nothing).
        let mut want: std::collections::HashMap<_, i64> = std::collections::HashMap::new();
        for e in &trace.events {
            *want.entry((e.time, e.thread, e.site, e.obj, e.kind, e.clock)).or_insert(0) += 1;
        }
        for cols in [&idx.mem, &idx.tsv] {
            for k in 0..cols.object_count() {
                for i in cols.range(k) {
                    let key = (cols.times[i], cols.threads[i], cols.sites[i],
                               cols.objects[k], cols.kinds[i], cols.clocks[i]);
                    *want.get_mut(&key).expect("indexed row exists in trace") -= 1;
                }
            }
        }
        prop_assert!(want.values().all(|&n| n == 0));
    }

    /// Every event's clock handle resolves in the trace's pool.
    #[test]
    fn clock_handles_resolve(trace in trace_strategy()) {
        for e in &trace.events {
            prop_assert!((e.clock.0 as usize) < trace.clocks.len());
            let _ = trace.event_clock(e);
        }
    }

    /// Statistics partition the events exactly by instrumentation class.
    #[test]
    fn stats_partition_by_class(trace in trace_strategy()) {
        let stats = TraceStats::compute(&trace);
        prop_assert_eq!(
            stats.mem_order_accesses + stats.tsv_accesses,
            trace.events.len() as u64
        );
        let per_site_total: u64 = stats.per_site.values().sum();
        prop_assert_eq!(per_site_total, trace.events.len() as u64);
        // Site classes are consistent with the registry.
        for (site, _) in stats.per_site.iter() {
            prop_assert!(trace.sites.info(*site).is_some());
        }
    }

    /// The class filters partition the event stream.
    #[test]
    fn event_filters_partition(trace in trace_strategy()) {
        let mo = trace.mem_order_events().count();
        let tsv = trace.tsv_events().count();
        prop_assert_eq!(mo + tsv, trace.events.len());
    }
}
