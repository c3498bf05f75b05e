//! Property tests for the on-disk segment format: arbitrary traces must
//! survive the write → read round trip with byte-identical columns, and
//! any single-byte corruption of the file must be *detected* — either
//! rejected at open (header/footer/trailer damage) or at segment load
//! (payload damage) — never silently accepted as different data.

use std::path::PathBuf;

use proptest::prelude::*;
use waffle_mem::{AccessKind, ObjectId, SiteId, SiteRegistry};
use waffle_sim::{SimTime, ThreadId};
use waffle_trace::{
    ClockId, ClockPool, ColumnSlice, SegmentClass, SegmentReader, SegmentWriter, Trace, TraceEvent,
    TraceIndex,
};
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
            0u32..6,
            kind_strategy(),
            proptest::collection::btree_map(0u32..4, 1u64..9, 0..4),
        ),
        1..60,
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
        Trace {
            workload: "prop-seg".into(),
            sites,
            events,
            forks: vec![],
            clocks,
            end_time: SimTime::from_ms(1_000),
        }
    })
}

fn tmpfile(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!("waffle-segprop-{}-{tag}.wseg", std::process::id()))
}

proptest! {
    /// write_segments → SegmentReader reproduces the in-memory index
    /// byte for byte: both column classes, the clock pool, and the
    /// catalog's event accounting.
    #[test]
    fn segments_round_trip_to_identical_columns(trace in trace_strategy(), tag in 0u64..u64::MAX) {
        let index = TraceIndex::build(&trace);
        let path = tmpfile(tag);
        let stats = index.write_segments(&path).unwrap();
        prop_assert_eq!(stats.events, trace.events.len() as u64);

        let mut reader = SegmentReader::open(&path).unwrap();
        prop_assert_eq!(&reader.catalog().workload, &trace.workload);
        prop_assert_eq!(reader.catalog().end_time, trace.end_time);
        prop_assert_eq!(reader.clocks(), &trace.clocks);
        let mem = reader.read_class_columns(SegmentClass::MemOrder).unwrap();
        let tsv = reader.read_class_columns(SegmentClass::Tsv).unwrap();
        prop_assert_eq!(&mem, &index.mem);
        prop_assert_eq!(&tsv, &index.tsv);
        let _ = std::fs::remove_file(&path);
    }

    /// Flipping any single byte of the file is detected: open fails with
    /// `InvalidData`, or some segment load fails, or — when the flip lands
    /// in JSON the parser tolerates (e.g. an insignificant char of the
    /// footer it would re-derive) — the columns still match. What never
    /// happens is a clean read of *different* data.
    #[test]
    fn corruption_never_reads_back_differently(
        trace in trace_strategy(),
        flip_frac in 0u64..10_000,
        bit in 0u32..8,
        tag in 0u64..u64::MAX,
    ) {
        let index = TraceIndex::build(&trace);
        let path = tmpfile(tag.wrapping_add(1));
        index.write_segments(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((bytes.len() as u64 - 1) * flip_frac / 10_000) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        match SegmentReader::open(&path) {
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            Ok(mut reader) => {
                let mem = reader.read_class_columns(SegmentClass::MemOrder);
                let tsv = reader.read_class_columns(SegmentClass::Tsv);
                match (mem, tsv) {
                    (Ok(mem), Ok(tsv)) => {
                        // The flip must have been semantically neutral
                        // (checksums still verified): data is unchanged.
                        prop_assert_eq!(&mem, &index.mem);
                        prop_assert_eq!(&tsv, &index.tsv);
                    }
                    (Err(e), _) | (_, Err(e)) => {
                        prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A segment whose checksum is valid but whose clock or site ids lie past
/// the footer's pool or registry: the writer checks neither, so only the
/// reader stands between such a file and the analyzer, which indexes the
/// pool by clock id. Both `load` and the whole-class read must reject it
/// as `InvalidData` rather than hand the ids on.
#[test]
fn checksummed_segment_with_undefined_ids_is_invalid_data() {
    let mut sites = SiteRegistry::new();
    sites.register("init", AccessKind::Init);
    let cases = [
        ("clock", SiteId(0), ClockId(7), "clock id 7"),
        ("site", SiteId(3), ClockId::EMPTY, "site"),
    ];
    for (tag, site, clock, needle) in cases {
        let path = std::env::temp_dir().join(format!(
            "waffle-segprop-hostile-{tag}-{}.wseg",
            std::process::id()
        ));
        let mut w = SegmentWriter::create(&path).unwrap();
        w.append(
            SegmentClass::MemOrder,
            ColumnSlice {
                object: ObjectId(0),
                times: &[SimTime::from_us(1), SimTime::from_us(2)],
                threads: &[ThreadId(0), ThreadId(1)],
                sites: &[SiteId(0), site],
                kinds: &[AccessKind::Init, AccessKind::Init],
                clocks: &[ClockId::EMPTY, clock],
            },
        )
        .unwrap();
        w.finish(
            "seg.hostile",
            SimTime::from_ms(1),
            &ClockPool::new(),
            &sites,
        )
        .unwrap();

        let mut reader = SegmentReader::open(&path).expect("footer and checksums are valid");
        let err = reader.load(SegmentClass::MemOrder, 0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
        assert!(err.to_string().contains(needle), "{tag}: {err}");
        let err = reader
            .read_class_columns(SegmentClass::MemOrder)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
        let _ = std::fs::remove_file(&path);
    }
}
