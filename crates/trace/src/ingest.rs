//! Incremental per-session index building for streaming ingest.
//!
//! A serve session receives its trace as wire frames (see
//! [`crate::wire`]) instead of as one resident [`Trace`](crate::Trace). The
//! [`SessionIndexBuilder`] accumulates validated events in a pending
//! buffer and, at each **seal**, runs the same counting sort that
//! [`TraceIndex::build`](crate::TraceIndex::build) uses over just the
//! pending slice, writes the resulting [`ClassColumns`] as one
//! *generation* segment file through the same writer
//! [`TraceIndex::write_segments`](crate::TraceIndex::write_segments)
//! uses, and hands the fresh columns back so the analyzer can absorb them
//! incrementally. The session's site registry and clock pool
//! grow monotonically across seals, so `SiteId` and
//! [`ClockId`](crate::ClockId) handles in an earlier generation stay valid
//! in every later one — the property the compactor and the incremental
//! sweep both rely on.
//!
//! Validation happens at the pending buffer's edge, once per event:
//! non-decreasing time (the column invariant every downstream sweep
//! assumes), known site id, known clock id. Everything after ingest can
//! then trust the data unconditionally.

use std::io;
use std::path::Path;

use waffle_mem::{AccessKind, SiteRegistry};
use waffle_sim::{SimTime, ThreadId};
use waffle_vclock::ClockSnapshot;

use crate::event::TraceEvent;
use crate::index::{ClassColumns, ClockPool, IndexArena};
use crate::segment::{write_columns, SegmentWriteStats};

/// What one [`SessionIndexBuilder::seal`] produced: the generation file's
/// write stats plus the freshly built columns for incremental absorption.
#[derive(Debug)]
pub struct SealOutput {
    /// MemOrder columns of the sealed generation.
    pub mem: ClassColumns,
    /// TSV columns of the sealed generation.
    pub tsv: ClassColumns,
    /// On-disk stats of the generation file.
    pub stats: SegmentWriteStats,
}

fn invalid(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Builds one session's columnar index incrementally from wire frames.
#[derive(Debug)]
pub struct SessionIndexBuilder {
    workload: String,
    sites: SiteRegistry,
    clocks: ClockPool,
    pending: Vec<TraceEvent>,
    arena: IndexArena,
    last_time: SimTime,
    end_time: SimTime,
    generations: u32,
}

impl SessionIndexBuilder {
    /// Opens a builder for one session of `workload`.
    pub fn new(workload: impl Into<String>) -> Self {
        Self {
            workload: workload.into(),
            sites: SiteRegistry::new(),
            clocks: ClockPool::new(),
            pending: Vec::new(),
            arena: IndexArena::default(),
            last_time: SimTime::ZERO,
            end_time: SimTime::ZERO,
            generations: 0,
        }
    }

    /// The session's workload name.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The session's (monotonically growing) site registry.
    pub fn sites(&self) -> &SiteRegistry {
        &self.sites
    }

    /// The session's (monotonically growing) clock pool.
    pub fn clocks(&self) -> &ClockPool {
        &self.clocks
    }

    /// Events waiting in the pending buffer (not yet sealed).
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Generations sealed so far.
    pub fn generations(&self) -> u32 {
        self.generations
    }

    /// Latest event time accepted (the incremental sweep's tail-pruning
    /// horizon).
    pub fn last_time(&self) -> SimTime {
        self.last_time
    }

    /// The session's end time: the max of every accepted event time and
    /// any client-declared end time.
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// Extends the site table with definitions in dense registration
    /// order. Re-sending an already-known `(name, kind)` is a no-op;
    /// re-sending a known name under a different kind is `InvalidData`.
    pub fn add_sites(&mut self, defs: &[(String, AccessKind)]) -> io::Result<()> {
        for (name, kind) in defs {
            match self.sites.lookup(name) {
                Some(id) => {
                    let have = self.sites.info(id).expect("looked-up site has info").kind;
                    if have != *kind {
                        return Err(invalid(format!(
                            "site {name:?} redefined as {kind:?} (registered as {have:?})"
                        )));
                    }
                }
                None => {
                    self.sites.register(name, *kind);
                }
            }
        }
        Ok(())
    }

    /// Appends clock snapshots in dense pool order (the producer already
    /// interned; ids continue after the implicit empty snapshot at id 0).
    pub fn add_clocks(&mut self, snaps: Vec<ClockSnapshot<ThreadId>>) -> io::Result<()> {
        for snap in snaps {
            self.clocks
                .try_push(snap)
                .ok_or_else(|| invalid("session clock pool overflow (u32::MAX snapshots)"))?;
        }
        Ok(())
    }

    /// Accepts one event into the pending buffer after validating the
    /// stream invariants: non-decreasing time, in-range site and clock
    /// ids.
    pub fn push(&mut self, ev: TraceEvent) -> io::Result<()> {
        if ev.time < self.last_time {
            return Err(invalid(format!(
                "event at {} arrived after {} (session streams must be time-ordered)",
                ev.time, self.last_time
            )));
        }
        if ev.site.0 as usize >= self.sites.len() {
            return Err(invalid(format!(
                "event references undefined site id {} (table holds {})",
                ev.site.0,
                self.sites.len()
            )));
        }
        if ev.clock.0 as usize >= self.clocks.len() {
            return Err(invalid(format!(
                "event references undefined clock id {} (pool holds {})",
                ev.clock.0,
                self.clocks.len()
            )));
        }
        self.last_time = ev.time;
        self.end_time = self.end_time.max(ev.time);
        self.pending.push(ev);
        Ok(())
    }

    /// Accepts a batch (one wire Events frame).
    pub fn push_batch(&mut self, events: Vec<TraceEvent>) -> io::Result<()> {
        for ev in events {
            self.push(ev)?;
        }
        Ok(())
    }

    /// Raises the session end time (the Finish frame's declared value;
    /// never lowers it below the last event seen).
    pub fn declare_end_time(&mut self, end_time: SimTime) {
        self.end_time = self.end_time.max(end_time);
    }

    /// Seals the pending buffer into generation file `path`: builds both
    /// class columns via the shared counting sort, writes them with the
    /// session's current site/clock tables in the footer, clears the
    /// buffer, and returns the fresh columns for incremental absorption.
    pub fn seal(&mut self, path: &Path) -> io::Result<SealOutput> {
        let mem = ClassColumns::build_in(&self.pending, AccessKind::is_mem_order, &mut self.arena);
        let tsv = ClassColumns::build_in(&self.pending, AccessKind::is_tsv, &mut self.arena);
        let stats = write_columns(
            path,
            &mem,
            &tsv,
            &self.workload,
            self.end_time,
            &self.clocks,
            &self.sites,
        )?;
        self.pending.clear();
        self.generations += 1;
        Ok(SealOutput { mem, tsv, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ClockId;
    use crate::segment::{SegmentClass, SegmentReader};
    use waffle_mem::{ObjectId, SiteId};

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("waffle-ingest-{tag}-{}.wseg", std::process::id()))
    }

    fn ev(t: u64, site: u32, obj: u32, kind: AccessKind, clock: u32) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_us(t),
            thread: ThreadId(obj % 2),
            site: SiteId(site),
            obj: ObjectId(obj),
            kind,
            dyn_index: 0,
            clock: ClockId(clock),
        }
    }

    #[test]
    fn builder_validates_the_stream_edge() {
        let mut b = SessionIndexBuilder::new("ing");
        b.add_sites(&[
            ("init".into(), AccessKind::Init),
            ("use".into(), AccessKind::Use),
        ])
        .unwrap();
        b.add_clocks(vec![ClockSnapshot::from_entries([(ThreadId(0), 1)])])
            .unwrap();
        b.push(ev(10, 0, 0, AccessKind::Init, 1)).unwrap();
        // Time regression rejected.
        let err = b.push(ev(5, 1, 0, AccessKind::Use, 0)).unwrap_err();
        assert!(err.to_string().contains("time-ordered"), "{err}");
        // Unknown site rejected.
        let err = b.push(ev(20, 9, 0, AccessKind::Use, 0)).unwrap_err();
        assert!(err.to_string().contains("undefined site"), "{err}");
        // Unknown clock rejected.
        let err = b.push(ev(20, 1, 0, AccessKind::Use, 7)).unwrap_err();
        assert!(err.to_string().contains("undefined clock"), "{err}");
        // Site redefinition under another kind rejected; same kind is fine.
        b.add_sites(&[("init".into(), AccessKind::Init)]).unwrap();
        let err = b
            .add_sites(&[("init".into(), AccessKind::Use)])
            .unwrap_err();
        assert!(err.to_string().contains("redefined"), "{err}");
        // Only the one valid event was buffered.
        assert_eq!(b.pending_events(), 1);
    }

    #[test]
    fn sealed_generations_round_trip_and_clear_pending() {
        let mut b = SessionIndexBuilder::new("ing.seal");
        b.add_sites(&[
            ("init".into(), AccessKind::Init),
            ("use".into(), AccessKind::Use),
        ])
        .unwrap();
        b.push_batch(vec![
            ev(10, 0, 1, AccessKind::Init, 0),
            ev(20, 1, 1, AccessKind::Use, 0),
            ev(30, 1, 0, AccessKind::Use, 0),
        ])
        .unwrap();
        let p0 = tmpfile("gen0");
        let out = b.seal(&p0).unwrap();
        assert_eq!(out.stats.events, 3);
        assert_eq!(b.pending_events(), 0);
        assert_eq!(b.generations(), 1);
        assert_eq!(out.mem.objects, vec![ObjectId(0), ObjectId(1)]);

        // Second generation: later times, one more object.
        b.push_batch(vec![
            ev(40, 0, 2, AccessKind::Init, 0),
            ev(50, 1, 2, AccessKind::Use, 0),
        ])
        .unwrap();
        let p1 = tmpfile("gen1");
        let out1 = b.seal(&p1).unwrap();
        assert_eq!(out1.mem.objects, vec![ObjectId(2)]);

        let mut r = SegmentReader::open(&p1).unwrap();
        assert_eq!(r.catalog().workload, "ing.seal");
        let cols = r.read_class_columns(SegmentClass::MemOrder).unwrap();
        assert_eq!(cols, out1.mem);
        for p in [p0, p1] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn empty_seal_writes_a_valid_empty_generation() {
        let mut b = SessionIndexBuilder::new("ing.empty");
        let p = tmpfile("empty");
        let out = b.seal(&p).unwrap();
        assert_eq!(out.stats.segments, 0);
        let r = SegmentReader::open(&p).unwrap();
        assert_eq!(r.catalog().events(), 0);
        let _ = std::fs::remove_file(&p);
    }
}
