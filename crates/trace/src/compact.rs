//! Segment compaction: merge seal generations into one canonical file.
//!
//! Streaming ingest seals a session's pending events into a fresh segment
//! file per generation (`gen-0.wseg`, `gen-1.wseg`, …). Each
//! generation is internally canonical — per-object, time-sorted, ascending
//! object order — but an object active across the whole session ends up
//! with one segment *per generation*, and every generation carries its own
//! snapshot of the (monotonically growing) clock pool and site registry.
//!
//! [`compact_segments`] merges N generation files into one file that is
//! indistinguishable from a single-shot
//! [`TraceIndex::write_segments`](crate::TraceIndex::write_segments) over
//! the concatenated trace:
//!
//! - **Sites** are re-registered in input order; name collisions across
//!   inputs resolve to one id (a name registered with two different kinds
//!   is `InvalidData` — it means the inputs came from different builds of
//!   the workload).
//! - **Clocks** are re-interned into one pool through a
//!   [`ClockInterner`], deduplicating identical snapshots that different
//!   generations pooled independently.
//! - **Events** merge per object: each input's segment for an object is
//!   read as a one-object [`ClassColumns`], remapped, and time-sorted,
//!   so an ascending k-way merge (ties broken by input order, which is
//!   seal order, which is trace order) that appends row by row into one
//!   more `ClassColumns` reproduces the exact row order a one-shot index
//!   build would have produced.
//!
//! Memory is bounded by one object's rows across all inputs plus the
//! merged catalog — never by the total event count.
//!
//! `waffle serve` no longer compacts: its Finish replays the generations
//! themselves, carrying a δ-window tail across their boundaries
//! (`IncrementalAnalysis::finish` in `waffle-analysis`), and keeps them as
//! the session artifact. Compaction stays for merging a session's
//! generations into one file offline, which `analyze_segments` then
//! streams as a single trace (`tests/analysis_equivalence.rs` pins that
//! plan), and the serve-stream benchmark's traced replay still times it
//! as a layer.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use waffle_mem::{ObjectId, SiteId, SiteRegistry};
use waffle_sim::SimTime;

use crate::index::{ClassColumns, ClockId, ClockInterner, ClockPool};
use crate::segment::{SegmentClass, SegmentReader, SegmentWriter};

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Generation files merged.
    pub inputs: usize,
    /// Object segments in the compacted file (across both classes).
    pub segments: usize,
    /// Events in the compacted file.
    pub events: u64,
    /// Compacted file size in bytes.
    pub file_bytes: u64,
    /// Distinct clock snapshots after re-interning.
    pub clocks: usize,
}

fn invalid(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Merges the segment files at `inputs` (in seal order) into one canonical
/// segment file at `out`.
///
/// All inputs must record the same workload. Site and clock ids are
/// remapped into one registry/pool; per-object event rows k-way merge by
/// time with input order breaking ties, so the output equals what a
/// one-shot index over the concatenated events would have written.
pub fn compact_segments(inputs: &[PathBuf], out: &Path) -> io::Result<CompactStats> {
    if inputs.is_empty() {
        return Err(invalid("compaction needs at least one input segment file"));
    }
    let mut readers = inputs
        .iter()
        .map(SegmentReader::open)
        .collect::<io::Result<Vec<_>>>()?;

    let workload = readers[0].catalog().workload.clone();
    let mut end_time = SimTime::ZERO;
    for (r, path) in readers.iter().zip(inputs) {
        if r.catalog().workload != workload {
            return Err(invalid(format!(
                "{}: workload {:?} does not match {:?}",
                path.display(),
                r.catalog().workload,
                workload
            )));
        }
        end_time = end_time.max(r.catalog().end_time);
    }

    // Merged site registry + per-input id remaps. Registration order
    // follows input order, so a single-input compaction is an identity
    // remap and multi-generation inputs (whose registries are prefixes of
    // each other) keep their ids unchanged.
    let mut sites = SiteRegistry::new();
    let mut site_maps: Vec<Vec<SiteId>> = Vec::with_capacity(readers.len());
    for (r, path) in readers.iter().zip(inputs) {
        let mut map = Vec::with_capacity(r.catalog().sites.len());
        for (_, info) in r.catalog().sites.iter() {
            match sites.lookup(&info.name) {
                Some(existing) => {
                    let have = sites.info(existing).expect("looked-up site has info").kind;
                    if have != info.kind {
                        return Err(invalid(format!(
                            "{}: site {:?} registered as {:?} here but {:?} in an earlier input",
                            path.display(),
                            info.name,
                            info.kind,
                            have
                        )));
                    }
                    map.push(existing);
                }
                None => map.push(sites.register(&info.name, info.kind)),
            }
        }
        site_maps.push(map);
    }

    // Merged clock pool + per-input id remaps, deduplicating snapshots
    // that generations pooled independently.
    let mut clocks = ClockPool::new();
    let mut interner = ClockInterner::for_pool(&clocks);
    let mut clock_maps: Vec<Vec<ClockId>> = Vec::with_capacity(readers.len());
    for r in &readers {
        let map = r
            .clocks()
            .snapshots()
            .iter()
            .map(|s| {
                interner
                    .try_intern(&mut clocks, s.clone())
                    .ok_or_else(|| invalid("clock pool overflow while compacting"))
            })
            .collect::<io::Result<Vec<_>>>()?;
        clock_maps.push(map);
    }

    let mut writer = SegmentWriter::create(out)?;
    for class in [SegmentClass::MemOrder, SegmentClass::Tsv] {
        // Every (input, segment) holding each object, in input order.
        let mut by_obj: BTreeMap<ObjectId, Vec<(usize, usize)>> = BTreeMap::new();
        for (ri, r) in readers.iter().enumerate() {
            for (k, meta) in r.catalog().class(class).iter().enumerate() {
                by_obj.entry(meta.object).or_default().push((ri, k));
            }
        }
        for (object, parts) in by_obj {
            let mut loaded = Vec::with_capacity(parts.len());
            for &(ri, k) in &parts {
                // The read rejects ids outside the input's registry and
                // pool, which the remap tables cover one-to-one.
                let mut seg = readers[ri].read_segments(class, k..k + 1)?;
                for s in &mut seg.sites {
                    *s = site_maps[ri][s.0 as usize];
                }
                for c in &mut seg.clocks {
                    *c = clock_maps[ri][c.0 as usize];
                }
                loaded.push(seg);
            }
            let total = loaded.iter().map(ClassColumns::len).sum();
            let mut merged = ClassColumns::with_capacity(total, 1);
            // Ascending k-way merge; strict `<` keeps the earliest input on
            // equal timestamps, i.e. seal order = original trace order.
            let mut cursors = vec![0usize; loaded.len()];
            loop {
                let mut best: Option<usize> = None;
                for (i, seg) in loaded.iter().enumerate() {
                    if cursors[i] >= seg.len() {
                        continue;
                    }
                    let wins = match best {
                        None => true,
                        Some(b) => seg.times[cursors[i]] < loaded[b].times[cursors[b]],
                    };
                    if wins {
                        best = Some(i);
                    }
                }
                let Some(b) = best else { break };
                merged.extend_rows(&loaded[b], cursors[b]..cursors[b] + 1);
                cursors[b] += 1;
            }
            merged.push_object(object);
            writer.append(class, &merged, 0)?;
        }
    }
    let stats = writer.finish(&workload, end_time, &clocks, &sites)?;
    Ok(CompactStats {
        inputs: inputs.len(),
        segments: stats.segments,
        events: stats.events,
        file_bytes: stats.file_bytes,
        clocks: clocks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Trace, TraceEvent};
    use crate::index::TraceIndex;
    use waffle_mem::AccessKind;
    use waffle_sim::ThreadId;
    use waffle_vclock::ClockSnapshot;

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("waffle-compact-{tag}-{}.wseg", std::process::id()))
    }

    /// A trace whose events cover `t_range` microseconds: two threads
    /// alternating init/use/call over three objects, with clocks distinct
    /// per generation but overlapping snapshots between halves.
    fn slice_trace(t0: u64, t1: u64, full_sites: bool) -> Trace {
        let mut sites = SiteRegistry::new();
        let si = sites.register("init", AccessKind::Init);
        let su = sites.register("use", AccessKind::Use);
        let sc = if full_sites {
            Some(sites.register("call", AccessKind::UnsafeApiCall))
        } else {
            None
        };
        let mut clocks = ClockPool::new();
        let mut events = Vec::new();
        let mut t = t0;
        while t < t1 {
            let o = ObjectId((t / 10 % 3) as u32);
            let thread = ThreadId((t / 10 % 2) as u32);
            let (site, kind) = match (t / 10) % 3 {
                0 => (si, AccessKind::Init),
                1 => (su, AccessKind::Use),
                _ => match sc {
                    Some(s) => (s, AccessKind::UnsafeApiCall),
                    None => (su, AccessKind::Use),
                },
            };
            let clock = clocks.intern(ClockSnapshot::from_entries([(thread, t / 40 + 1)]));
            events.push(TraceEvent {
                time: SimTime::from_us(t),
                thread,
                site,
                obj: o,
                kind,
                dyn_index: 0,
                clock,
            });
            t += 10;
        }
        Trace {
            workload: "compact.sample".into(),
            sites,
            events,
            forks: vec![],
            clocks,
            end_time: SimTime::from_us(t1),
        }
    }

    #[test]
    fn compacting_generations_equals_a_one_shot_write() {
        // Whole trace written in one shot…
        let whole = slice_trace(0, 600, true);
        let whole_path = tmpfile("whole");
        TraceIndex::build(&whole)
            .write_segments(&whole_path)
            .unwrap();
        // …versus the same events sealed as two generations and compacted.
        let g0 = slice_trace(0, 300, true);
        let g1 = slice_trace(300, 600, true);
        let p0 = tmpfile("gen0");
        let p1 = tmpfile("gen1");
        TraceIndex::build(&g0).write_segments(&p0).unwrap();
        TraceIndex::build(&g1).write_segments(&p1).unwrap();
        let out = tmpfile("merged");
        let stats = compact_segments(&[p0.clone(), p1.clone()], &out).unwrap();
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.events, whole.events.len() as u64);

        let mut a = SegmentReader::open(&whole_path).unwrap();
        let mut b = SegmentReader::open(&out).unwrap();
        assert_eq!(a.catalog().workload, b.catalog().workload);
        assert_eq!(a.catalog().end_time, b.catalog().end_time);
        for class in [SegmentClass::MemOrder, SegmentClass::Tsv] {
            let ca = a.read_class_columns(class).unwrap();
            let cb = b.read_class_columns(class).unwrap();
            // Clock ids may differ (independent pools); compare via the
            // resolved snapshots, then the rest of the columns directly.
            let pa = a.clocks().clone();
            let pb = b.clocks().clone();
            assert_eq!(ca.times, cb.times);
            assert_eq!(ca.threads, cb.threads);
            assert_eq!(ca.kinds, cb.kinds);
            assert_eq!(ca.objects, cb.objects);
            assert_eq!(ca.offsets, cb.offsets);
            for (ia, ib) in ca.clocks.iter().zip(&cb.clocks) {
                assert_eq!(pa.get(*ia), pb.get(*ib));
            }
            // Site names must match even if ids were remapped.
            for (sa, sb) in ca.sites.iter().zip(&cb.sites) {
                assert_eq!(a.catalog().sites.name(*sa), b.catalog().sites.name(*sb));
            }
            cb.validate().unwrap();
        }
        for p in [whole_path, p0, p1, out] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn single_input_compaction_is_an_identity() {
        let t = slice_trace(0, 400, true);
        let p = tmpfile("ident-in");
        TraceIndex::build(&t).write_segments(&p).unwrap();
        let out = tmpfile("ident-out");
        compact_segments(std::slice::from_ref(&p), &out).unwrap();
        let mut a = SegmentReader::open(&p).unwrap();
        let mut b = SegmentReader::open(&out).unwrap();
        for class in [SegmentClass::MemOrder, SegmentClass::Tsv] {
            assert_eq!(
                a.read_class_columns(class).unwrap(),
                b.read_class_columns(class).unwrap()
            );
        }
        assert_eq!(a.clocks(), b.clocks());
        for p in [p, out] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn workload_mismatch_is_invalid_data() {
        let mut t1 = slice_trace(0, 100, false);
        let mut t2 = slice_trace(100, 200, false);
        t1.workload = "a".into();
        t2.workload = "b".into();
        let p1 = tmpfile("wl-a");
        let p2 = tmpfile("wl-b");
        TraceIndex::build(&t1).write_segments(&p1).unwrap();
        TraceIndex::build(&t2).write_segments(&p2).unwrap();
        let out = tmpfile("wl-out");
        let err = compact_segments(&[p1.clone(), p2.clone()], &out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("workload"), "{err}");
        for p in [p1, p2] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn site_kind_conflict_is_invalid_data_not_a_panic() {
        let t1 = slice_trace(0, 100, false);
        // Same site name, different kind.
        let mut sites = SiteRegistry::new();
        let s = sites.register("init", AccessKind::Use);
        let t2 = Trace {
            workload: "compact.sample".into(),
            sites,
            events: vec![TraceEvent {
                time: SimTime::from_us(500),
                thread: ThreadId(0),
                site: s,
                obj: ObjectId(0),
                kind: AccessKind::Use,
                dyn_index: 0,
                clock: ClockId::EMPTY,
            }],
            forks: vec![],
            clocks: ClockPool::new(),
            end_time: SimTime::from_us(600),
        };
        let p1 = tmpfile("kind-a");
        let p2 = tmpfile("kind-b");
        TraceIndex::build(&t1).write_segments(&p1).unwrap();
        TraceIndex::build(&t2).write_segments(&p2).unwrap();
        let out = tmpfile("kind-out");
        let err = compact_segments(&[p1.clone(), p2.clone()], &out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("registered as"), "{err}");
        for p in [p1, p2] {
            let _ = std::fs::remove_file(&p);
        }
    }
}
