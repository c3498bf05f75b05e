//! Property tests for the on-disk segment format: arbitrary traces must
//! survive the write → read round trip with byte-identical columns, and
//! any single-byte corruption of the file must be *detected* — either
//! rejected at open (header/footer/trailer damage) or at segment load
//! (payload damage) — never silently accepted as different data. Footer
//! mutations with a refixed checksum reach the binary catalog decoder
//! itself, which must reject them or decode exactly the mutated bytes.

use std::path::PathBuf;

use proptest::prelude::*;
use waffle_mem::{AccessKind, ObjectId, SiteId, SiteRegistry};
use waffle_sim::{SimTime, ThreadId};
use waffle_trace::{
    fnv1a, ClassColumns, ClockId, ClockPool, SegmentCatalog, SegmentClass, SegmentMeta,
    SegmentReader, SegmentWriter, Trace, TraceEvent, TraceIndex,
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

/// Splits a segment file into its pre-footer bytes and its footer.
fn split_footer(file: &[u8]) -> (&[u8], &[u8]) {
    let size = file.len();
    let off = u64::from_le_bytes(file[size - 32..size - 24].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(file[size - 24..size - 16].try_into().unwrap()) as usize;
    (&file[..off], &file[off..off + len])
}

/// Reassembles a file around `footer` with a matching trailer and
/// checksum, so only the footer decoder can reject it.
fn with_footer(body: &[u8], footer: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(footer);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(footer).to_le_bytes());
    out.extend_from_slice(b"WFLSEGFT");
    out
}

/// The version-2 footer layout, encoded independently of the writer from
/// its documented grammar. Also returns where the mem, tsv, clocks and
/// sites counts sit, for tests that patch them.
fn spec_footer(
    workload: &str,
    end_time: SimTime,
    mem: &[SegmentMeta],
    tsv: &[SegmentMeta],
    clocks: &[ClockSnapshot<ThreadId>],
    sites: &[(&str, AccessKind)],
) -> (Vec<u8>, [usize; 4]) {
    fn str(b: &mut Vec<u8>, s: &str) {
        b.extend_from_slice(&(s.len() as u32).to_le_bytes());
        b.extend_from_slice(s.as_bytes());
    }
    fn metas(b: &mut Vec<u8>, metas: &[SegmentMeta]) {
        b.extend_from_slice(&(metas.len() as u32).to_le_bytes());
        for m in metas {
            b.extend_from_slice(&m.object.0.to_le_bytes());
            b.extend_from_slice(&m.offset.to_le_bytes());
            b.extend_from_slice(&m.bytes.to_le_bytes());
            b.extend_from_slice(&m.events.to_le_bytes());
            b.extend_from_slice(&m.min_time.as_us().to_le_bytes());
            b.extend_from_slice(&m.max_time.as_us().to_le_bytes());
            b.extend_from_slice(&m.checksum.to_le_bytes());
        }
    }
    let mut b = 2u32.to_le_bytes().to_vec();
    str(&mut b, workload);
    b.extend_from_slice(&end_time.as_us().to_le_bytes());
    let mut counts = [0; 4];
    counts[0] = b.len();
    metas(&mut b, mem);
    counts[1] = b.len();
    metas(&mut b, tsv);
    counts[2] = b.len();
    b.extend_from_slice(&(clocks.len() as u32).to_le_bytes());
    for snap in clocks {
        b.extend_from_slice(&(snap.len() as u32).to_le_bytes());
        for (tid, val) in snap.iter() {
            b.extend_from_slice(&tid.0.to_le_bytes());
            b.extend_from_slice(&val.to_le_bytes());
        }
    }
    counts[3] = b.len();
    b.extend_from_slice(&(sites.len() as u32).to_le_bytes());
    for (name, kind) in sites {
        b.push(match kind {
            AccessKind::Init => 0,
            AccessKind::Use => 1,
            AccessKind::Dispose => 2,
            AccessKind::UnsafeApiCall => 3,
        });
        str(&mut b, name);
    }
    (b, counts)
}

/// [`spec_footer`] of a whole catalog.
fn catalog_footer(cat: &SegmentCatalog) -> (Vec<u8>, [usize; 4]) {
    let sites: Vec<_> = cat
        .sites
        .iter()
        .map(|(_, i)| (i.name.as_str(), i.kind))
        .collect();
    spec_footer(
        &cat.workload,
        cat.end_time,
        &cat.mem,
        &cat.tsv,
        &cat.clocks.snapshots()[1..],
        &sites,
    )
}

/// How a footer is damaged before its checksum and trailer are refixed.
#[derive(Debug, Clone)]
enum FooterMutation {
    /// XOR one byte (position as a fraction of the footer) with a mask.
    Flip { at: u64, mask: u8 },
    /// Keep only a prefix (as a fraction of the footer).
    Truncate { keep: u64 },
    /// Append bytes.
    Extend { tail: Vec<u8> },
}

fn footer_mutation() -> impl Strategy<Value = FooterMutation> {
    let flip =
        || (0u64..10_000, 1u8..=255).prop_map(|(at, mask)| FooterMutation::Flip { at, mask });
    prop_oneof![
        flip(),
        flip(),
        flip(),
        (0u64..10_000).prop_map(|keep| FooterMutation::Truncate { keep }),
        proptest::collection::vec(0u8..=255, 1..16)
            .prop_map(|tail| FooterMutation::Extend { tail }),
    ]
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
    /// `InvalidData`, or some segment load fails, or the columns still
    /// match. What never happens is a clean read of *different* data.
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

    /// The footer decoder, reached past the checksum: the writer's footer
    /// is exactly the documented layout, and a mutated footer is either
    /// `InvalidData` or decodes to a catalog that re-encodes to exactly
    /// the mutated bytes — nothing dropped, nothing invented. A truncated
    /// or extended footer can only be rejected. Nothing panics, and a
    /// catalog that opens still reads as data or `InvalidData`.
    #[test]
    fn mutated_footers_are_rejected_or_decoded_exactly(
        trace in trace_strategy(),
        mutations in proptest::collection::vec(footer_mutation(), 1..24),
        tag in 0u64..u64::MAX,
    ) {
        let path = tmpfile(tag.wrapping_add(2));
        TraceIndex::build(&trace).write_segments(&path).unwrap();
        let file = std::fs::read(&path).unwrap();
        let (body, footer) = split_footer(&file);
        let original = SegmentReader::open(&path).unwrap();
        prop_assert_eq!(&catalog_footer(original.catalog()).0[..], footer);

        for mutation in mutations {
            let mut mutated = footer.to_vec();
            let resized = match &mutation {
                FooterMutation::Flip { at, mask } => {
                    let pos = ((mutated.len() as u64 - 1) * at / 10_000) as usize;
                    mutated[pos] ^= mask;
                    false
                }
                FooterMutation::Truncate { keep } => {
                    mutated.truncate((mutated.len() as u64 * keep / 10_000) as usize);
                    true
                }
                FooterMutation::Extend { tail } => {
                    mutated.extend_from_slice(tail);
                    true
                }
            };
            std::fs::write(&path, with_footer(body, &mutated)).unwrap();
            match SegmentReader::open(&path) {
                Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e),
                Ok(mut reader) => {
                    prop_assert!(!resized, "resized footer accepted: {:?}", mutation);
                    prop_assert_eq!(&catalog_footer(reader.catalog()).0, &mutated);
                    for class in [SegmentClass::MemOrder, SegmentClass::Tsv] {
                        if let Err(e) = reader.read_class_columns(class) {
                            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                        }
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Opens `file` and returns its error, which must be `InvalidData`.
fn open_invalid(tag: &str, file: &[u8]) -> std::io::Error {
    let path =
        std::env::temp_dir().join(format!("waffle-segprop-{tag}-{}.wseg", std::process::id()));
    std::fs::write(&path, file).unwrap();
    let err = SegmentReader::open(&path).unwrap_err();
    let _ = std::fs::remove_file(&path);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
    err
}

/// A count of `u32::MAX` in any list of the footer — or as the workload
/// string's length — is rejected against the bytes that remain, before
/// anything is reserved.
#[test]
fn footer_count_of_u32_max_is_invalid_data() {
    let snap = ClockSnapshot::from_entries([(ThreadId(1), 4)]);
    let (footer, counts) = spec_footer(
        "seg.counts",
        SimTime::ZERO,
        &[],
        &[],
        std::slice::from_ref(&snap),
        &[("init", AccessKind::Init)],
    );
    let snap_entries = counts[2] + 4;
    for at in [4, counts[0], counts[1], counts[2], snap_entries, counts[3]] {
        let mut hostile = footer.clone();
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = open_invalid("count-max", &with_footer(b"WFLSEG00", &hostile));
        let msg = err.to_string();
        assert!(
            msg.contains("exceeds") || msg.contains("truncated"),
            "offset {at}: {msg}"
        );
    }
}

/// Clock snapshot entries must be in the one form the encoder emits:
/// threads strictly ascending, values non-zero. Anything else would decode
/// to a snapshot whose encoding differs from the bytes that were read.
#[test]
fn footer_non_canonical_clock_snapshot_is_invalid_data() {
    let snap = ClockSnapshot::from_entries([(ThreadId(1), 4), (ThreadId(2), 5)]);
    let (footer, counts) = spec_footer(
        "seg.clocks",
        SimTime::ZERO,
        &[],
        &[],
        std::slice::from_ref(&snap),
        &[],
    );
    let first_tid = counts[2] + 8;
    let (second_tid, first_val) = (first_tid + 12, first_tid + 4);
    let patches: [(usize, &[u8]); 3] = [
        (second_tid, &1u32.to_le_bytes()),
        (second_tid, &0u32.to_le_bytes()),
        (first_val, &0u64.to_le_bytes()),
    ];
    for (at, bytes) in patches {
        let mut hostile = footer.clone();
        hostile[at..at + bytes.len()].copy_from_slice(bytes);
        let err = open_invalid("clock-canon", &with_footer(b"WFLSEG00", &hostile));
        assert!(
            err.to_string().contains("non-canonical"),
            "offset {at}: {err}"
        );
    }
}

/// A site name defined twice is rejected — with another kind, which
/// `SiteRegistry::register` would panic on, and with the same kind, which
/// it would silently merge and so shift every later site id.
#[test]
fn footer_site_defined_twice_is_invalid_data() {
    for second in [AccessKind::Use, AccessKind::Init] {
        let (footer, _) = spec_footer(
            "seg.dup",
            SimTime::ZERO,
            &[],
            &[],
            &[],
            &[("a", AccessKind::Init), ("a", second)],
        );
        let err = open_invalid("dup-site", &with_footer(b"WFLSEG00", &footer));
        assert!(
            err.to_string().contains("defined twice"),
            "{second:?}: {err}"
        );
    }
}

/// The MemOrder columns of a hand-built trace: one `Init` then `Use` on
/// each of `objects`, with the given sites and clock ids.
fn mem_columns(objects: &[u32], sites: [SiteId; 2], clocks: [ClockId; 2]) -> ClassColumns {
    let events = objects
        .iter()
        .enumerate()
        .flat_map(|(i, &o)| {
            let t = 10 * i as u64;
            [(0, AccessKind::Init), (1, AccessKind::Use)].map(|(j, kind)| TraceEvent {
                time: SimTime::from_us(t + j as u64 + 1),
                thread: ThreadId(j as u32),
                site: sites[j],
                obj: ObjectId(o),
                kind,
                dyn_index: 0,
                clock: clocks[j],
            })
        })
        .collect();
    let trace = Trace {
        workload: "seg.hostile".into(),
        sites: SiteRegistry::new(),
        events,
        forks: vec![],
        clocks: ClockPool::new(),
        end_time: SimTime::from_ms(1),
    };
    TraceIndex::build(&trace).mem
}

/// Writes every slot of `mem` through the public writer, with a footer
/// holding one site and the empty clock pool.
fn write_hostile(tag: &str, mem: &ClassColumns) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "waffle-segprop-hostile-{tag}-{}.wseg",
        std::process::id()
    ));
    let mut sites = SiteRegistry::new();
    sites.register("init", AccessKind::Init);
    let mut w = SegmentWriter::create(&path).unwrap();
    for slot in 0..mem.object_count() {
        w.append(SegmentClass::MemOrder, mem, slot).unwrap();
    }
    w.finish(
        "seg.hostile",
        SimTime::from_ms(1),
        &ClockPool::new(),
        &sites,
    )
    .unwrap();
    path
}

/// A segment whose checksum is valid but whose clock or site ids lie past
/// the footer's pool or registry: the writer checks neither, so only the
/// reader stands between such a file and the analyzer, which indexes the
/// pool by clock id. Both a one-segment read and the whole-class read
/// must reject it as `InvalidData` rather than hand the ids on.
#[test]
fn checksummed_segment_with_undefined_ids_is_invalid_data() {
    let cases = [
        ("clock", SiteId(0), ClockId(7), "clock id 7"),
        ("site", SiteId(3), ClockId::EMPTY, "site"),
    ];
    for (tag, site, clock, needle) in cases {
        let mem = mem_columns(&[0], [SiteId(0), site], [ClockId::EMPTY, clock]);
        let path = write_hostile(tag, &mem);
        let mut reader = SegmentReader::open(&path).expect("footer and checksums are valid");
        let err = reader
            .read_segments(SegmentClass::MemOrder, 0..1)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
        assert!(err.to_string().contains(needle), "{tag}: {err}");
        let err = reader
            .read_class_columns(SegmentClass::MemOrder)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
        let _ = std::fs::remove_file(&path);
    }
}

/// The writer does not check time order within a segment, so a file whose
/// segment times descend can be written through the public API with valid
/// checksums. The reader's column check is what rejects it, naming the
/// object, while the sorted segment before it still reads.
#[test]
fn checksummed_segment_with_descending_times_is_invalid_data() {
    let mut mem = mem_columns(&[2, 5], [SiteId(0); 2], [ClockId::EMPTY; 2]);
    let r = mem.range(1);
    mem.times[r].reverse();
    let path = write_hostile("descending", &mem);
    let mut reader = SegmentReader::open(&path).expect("footer and checksums are valid");
    assert_eq!(
        reader.catalog().mem[1].min_time,
        SimTime::from_us(12),
        "the catalog records the descending segment as written"
    );
    reader
        .read_segments(SegmentClass::MemOrder, 0..1)
        .expect("the sorted segment reads");
    let err = reader
        .read_class_columns(SegmentClass::MemOrder)
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let msg = err.to_string();
    assert!(msg.contains("segment for obj#5 not time-sorted"), "{msg}");
    let _ = std::fs::remove_file(&path);
}

/// A footer that lists one 2-event segment 1,000 times, under objects
/// 0..999, is checksummed and in bounds entry by entry, yet would read
/// back 2,000 rows from a file holding two. Entries must tile the file
/// end to end, so the reader rejects the overlap at open; a catalog
/// with a gap before the footer is rejected the same way.
#[test]
fn catalog_entries_that_overlap_or_leave_a_gap_are_invalid_data() {
    let mem = mem_columns(&[0], [SiteId(0); 2], [ClockId::EMPTY; 2]);
    let path = write_hostile("overlap", &mem);
    let file = std::fs::read(&path).unwrap();
    let reader = SegmentReader::open(&path).expect("the written file opens");
    let _ = std::fs::remove_file(&path);
    let original = reader.catalog();
    let (body, footer) = split_footer(&file);
    assert_eq!(catalog_footer(original).0, footer, "spec encoder matches");

    let sites = [("init", AccessKind::Init)];
    let one = original.mem[0].clone();
    let repeated: Vec<SegmentMeta> = (0..1_000)
        .map(|o| SegmentMeta {
            object: ObjectId(o),
            ..one.clone()
        })
        .collect();
    let (overlapping, _) = spec_footer(
        &original.workload,
        original.end_time,
        &repeated,
        &[],
        &[],
        &sites,
    );
    let err = open_invalid("overlap", &with_footer(body, &overlapping));
    assert!(
        err.to_string()
            .contains("not where the previous segment ends"),
        "{err}"
    );

    // The same segment with room left between it and the footer.
    let mut padded = body.to_vec();
    padded.extend_from_slice(&[0; 21]);
    let (gap, _) = spec_footer(
        &original.workload,
        original.end_time,
        &[one],
        &[],
        &[],
        &sites,
    );
    let err = open_invalid("gap", &with_footer(&padded, &gap));
    assert!(err.to_string().contains("not at the footer"), "{err}");
}
