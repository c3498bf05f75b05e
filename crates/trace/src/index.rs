//! The columnar trace index and the interned clock-snapshot pool.
//!
//! Trace analysis used to chase per-event heap structures: every pass
//! regrouped `Vec<TraceEvent>` into a `BTreeMap<ObjectId, Vec<&TraceEvent>>`
//! and every event carried its own `ClockSnapshot` clone. [`TraceIndex`]
//! replaces that with a struct-of-arrays layout built **once** per trace:
//!
//! - [`ClockPool`]: each distinct vector-clock snapshot is stored once and
//!   events carry a dense [`ClockId`] handle (id 0 is always the empty
//!   snapshot). The recorder interns at record time, so identical
//!   snapshots — the common case between fork/join edges — are never
//!   cloned per event.
//! - [`ClassColumns`]: one column set per instrumentation class (MemOrder
//!   and TSV), with events permuted into *object-major* order — all events
//!   of the lowest `ObjectId` first, trace order preserved within each
//!   object — plus a CSR-style offset table (`objects[k]`'s events occupy
//!   `offsets[k]..offsets[k + 1]`). The near-miss window scan becomes a
//!   linear two-pointer sweep over contiguous arrays.
//!
//! Construction asserts (in debug builds) that each object's events are
//! time-sorted — the invariant the analyzer's early-exit window scan
//! silently relied on when it walked `BTreeMap` groups.

use std::collections::BTreeMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};
use waffle_mem::{AccessKind, ObjectId, SiteId};
use waffle_sim::{SimTime, ThreadId};
use waffle_vclock::ClockSnapshot;

use crate::event::Trace;

/// Dense handle into a [`ClockPool`]. `ClockId(0)` is always the empty
/// snapshot, so a default-constructed id is valid in any pool.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ClockId(pub u32);

impl ClockId {
    /// The empty snapshot present in every pool.
    pub const EMPTY: ClockId = ClockId(0);

    /// Checked construction from a table index: `None` once the index has
    /// outgrown the 32-bit id space. Every place a pool length becomes an
    /// id goes through this instead of a bare `as u32` cast, which would
    /// silently wrap a 4-billion-snapshot pool back onto id 0.
    pub fn try_new(index: usize) -> Option<ClockId> {
        u32::try_from(index).ok().map(ClockId)
    }
}

/// Interned vector-clock snapshots: one copy per distinct snapshot, shared
/// by every trace event that observed it.
///
/// The pool serializes as part of the [`Trace`]; the dedup map used while
/// interning is transient state held by the producer (see
/// [`ClockInterner`]), so persisted traces carry only the snapshots.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClockPool {
    snapshots: Vec<ClockSnapshot<ThreadId>>,
}

impl Default for ClockPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockPool {
    /// Creates a pool holding only the empty snapshot (at [`ClockId::EMPTY`]).
    pub fn new() -> Self {
        Self {
            snapshots: vec![ClockSnapshot::new()],
        }
    }

    /// Number of distinct snapshots (≥ 1 for any pool built here).
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the pool holds no snapshots (only possible for a pool
    /// deserialized from corrupt input).
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The snapshot behind `id`.
    ///
    /// # Panics
    /// When `id` was not produced by this pool.
    pub fn get(&self, id: ClockId) -> &ClockSnapshot<ThreadId> {
        &self.snapshots[id.0 as usize]
    }

    /// All snapshots, indexable by `ClockId.0`.
    pub fn snapshots(&self) -> &[ClockSnapshot<ThreadId>] {
        &self.snapshots
    }

    /// Interns `snap`, returning the id of the existing copy when one is
    /// already pooled. Linear-scan dedup — convenient for hand-built test
    /// traces; hot paths (the recorder) use a [`ClockInterner`] instead.
    ///
    /// # Panics
    /// When a fresh snapshot would push the pool past the 32-bit id space.
    /// Long-running producers (streaming ingest) use
    /// [`try_intern`](Self::try_intern) and surface the overflow as an
    /// error instead.
    pub fn intern(&mut self, snap: ClockSnapshot<ThreadId>) -> ClockId {
        self.try_intern(snap)
            .expect("clock pool overflow: more than u32::MAX distinct snapshots")
    }

    /// Fallible [`intern`](Self::intern): `None` when a fresh snapshot
    /// would not fit the 32-bit id space (previously the id wrapped
    /// silently and aliased an unrelated early snapshot).
    pub fn try_intern(&mut self, snap: ClockSnapshot<ThreadId>) -> Option<ClockId> {
        match self.snapshots.iter().position(|s| *s == snap) {
            Some(i) => ClockId::try_new(i),
            None => {
                let id = ClockId::try_new(self.snapshots.len())?;
                self.snapshots.push(snap);
                Some(id)
            }
        }
    }

    /// Appends `snap` without deduplication, returning its id — `None` on
    /// id-space overflow. Streaming ingest uses this: the producer already
    /// interned on its side and ships snapshots in dense id order, so a
    /// dedup scan per snapshot would be wasted work.
    pub fn try_push(&mut self, snap: ClockSnapshot<ThreadId>) -> Option<ClockId> {
        let id = ClockId::try_new(self.snapshots.len())?;
        self.snapshots.push(snap);
        Some(id)
    }
}

/// O(log n) dedup map over a [`ClockPool`], held by the pool's producer.
///
/// Kept outside the pool so the serialized trace carries each snapshot
/// once, not twice (the map keys would double it).
#[derive(Debug, Default)]
pub struct ClockInterner {
    ids: BTreeMap<ClockSnapshot<ThreadId>, ClockId>,
}

impl ClockInterner {
    /// Creates an interner whose map covers everything already in `pool`.
    pub fn for_pool(pool: &ClockPool) -> Self {
        Self {
            ids: pool
                .snapshots
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let id = ClockId::try_new(i)
                        .expect("clock pool overflow: more than u32::MAX distinct snapshots");
                    (s.clone(), id)
                })
                .collect(),
        }
    }

    /// Interns `snap` into `pool`, deduplicating against every snapshot
    /// interned through this interner.
    ///
    /// # Panics
    /// On 32-bit id-space overflow; see [`try_intern`](Self::try_intern).
    pub fn intern(&mut self, pool: &mut ClockPool, snap: ClockSnapshot<ThreadId>) -> ClockId {
        self.try_intern(pool, snap)
            .expect("clock pool overflow: more than u32::MAX distinct snapshots")
    }

    /// Fallible [`intern`](Self::intern): `None` when a fresh snapshot
    /// would overflow the 32-bit id space.
    pub fn try_intern(
        &mut self,
        pool: &mut ClockPool,
        snap: ClockSnapshot<ThreadId>,
    ) -> Option<ClockId> {
        if let Some(&id) = self.ids.get(&snap) {
            return Some(id);
        }
        let id = ClockId::try_new(pool.snapshots.len())?;
        pool.snapshots.push(snap.clone());
        self.ids.insert(snap, id);
        Some(id)
    }
}

/// Struct-of-arrays event columns for one instrumentation class, permuted
/// into object-major order with a CSR offset table.
///
/// This is the one owned container of per-event rows: the resident index,
/// a streamed budget batch, a seal's fresh generation, the incremental
/// fold's carried tails and a compacted object all use it. All event
/// columns have equal length `n`; `objects` lists the distinct object ids
/// in ascending order and `offsets` (length `objects.len() + 1`) brackets
/// each object's contiguous, time-sorted slice of the columns. Object
/// identity lives only in that table, never per event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassColumns {
    /// Virtual timestamps.
    pub times: Vec<SimTime>,
    /// Accessing threads.
    pub threads: Vec<ThreadId>,
    /// Static sites.
    pub sites: Vec<SiteId>,
    /// Operation classes.
    pub kinds: Vec<AccessKind>,
    /// Pooled clock handles.
    pub clocks: Vec<ClockId>,
    /// Distinct objects, ascending.
    pub objects: Vec<ObjectId>,
    /// CSR offsets: `objects[k]`'s events are `offsets[k]..offsets[k + 1]`.
    pub offsets: Vec<u32>,
}

impl Default for ClassColumns {
    /// No rows and no objects: a well-formed CSR table (`offsets == [0]`).
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

/// Reusable scratch buffers for the two-pass counting sort in
/// [`ClassColumns`] construction.
///
/// One index build needs three transient tables (per-object counts, the
/// object→slot map, and the scatter cursors), each sized by the largest
/// object id. A serve session builds columns at every seal and holds one
/// arena for all of them: the vectors are cleared, not dropped, so their
/// capacity persists across builds.
#[derive(Debug, Default)]
pub(crate) struct IndexArena {
    counts: Vec<u32>,
    slot_of: Vec<u32>,
    cursor: Vec<u32>,
}

impl ClassColumns {
    /// Builds the columns from an execution-ordered event slice, borrowing
    /// `arena`'s scratch tables instead of allocating fresh ones. Taking a
    /// slice (not a [`Trace`]) lets streaming ingest reuse the counting
    /// sort on its pending buffer between seals.
    pub(crate) fn build_in(
        events: &[crate::event::TraceEvent],
        class: impl Fn(AccessKind) -> bool,
        arena: &mut IndexArena,
    ) -> Self {
        // Pass 1: per-object counts. Object ids are dense small integers
        // (the workload builder hands them out sequentially), so a
        // direct-indexed table beats a map: the counting sort then runs in
        // pure array ops with no per-event comparisons.
        let counts = &mut arena.counts;
        counts.clear();
        let mut n = 0usize;
        for e in events {
            if class(e.kind) {
                let id = e.obj.0 as usize;
                if id >= counts.len() {
                    counts.resize(id + 1, 0);
                }
                counts[id] = counts[id]
                    .checked_add(1)
                    .expect("class column overflow: an object holds more than u32::MAX events");
                n += 1;
            }
        }
        // Ascending-id iteration keeps `objects` sorted, which the
        // analyzer's deterministic shard merge relies on.
        let present = counts.iter().filter(|&&c| c > 0).count();
        let mut objects = Vec::with_capacity(present);
        let mut offsets = Vec::with_capacity(present + 1);
        offsets.push(0u32);
        let slot_of = &mut arena.slot_of;
        slot_of.clear();
        slot_of.resize(counts.len(), u32::MAX);
        for (id, count) in counts.iter().enumerate() {
            if *count == 0 {
                continue;
            }
            // Slot indexes fit by construction (slots ≤ distinct u32
            // object ids), but the running CSR offset is a genuine event
            // total and must not wrap past the u32 offset table.
            slot_of[id] = u32::try_from(objects.len())
                .expect("object table overflow: more than u32::MAX distinct objects");
            objects.push(ObjectId(id as u32));
            offsets.push(
                offsets
                    .last()
                    .unwrap()
                    .checked_add(*count)
                    .expect("class column overflow: more than u32::MAX events in one class"),
            );
        }
        // Pass 2: scatter events into their object segment. Iterating the
        // trace in execution order keeps each segment in trace (and hence
        // time) order.
        let cursor = &mut arena.cursor;
        cursor.clear();
        cursor.extend_from_slice(&offsets[..offsets.len().saturating_sub(1)]);
        let mut cols = ClassColumns {
            times: vec![SimTime::ZERO; n],
            threads: vec![ThreadId(0); n],
            sites: vec![SiteId(0); n],
            kinds: vec![AccessKind::Use; n],
            clocks: vec![ClockId::EMPTY; n],
            objects,
            offsets,
        };
        for e in events {
            if !class(e.kind) {
                continue;
            }
            let slot = slot_of[e.obj.0 as usize] as usize;
            let i = cursor[slot] as usize;
            cursor[slot] += 1;
            cols.times[i] = e.time;
            cols.threads[i] = e.thread;
            cols.sites[i] = e.site;
            cols.kinds[i] = e.kind;
            cols.clocks[i] = e.clock;
        }
        cols.debug_assert_sorted();
        cols
    }

    /// Debug-build check of the invariant the analyzer's early-exit window
    /// scan depends on: within every object segment, timestamps are
    /// non-decreasing. The recorder guarantees this (the simulator
    /// dispatches in virtual-time order and the recorder appends), but a
    /// hand-built or corrupted trace could violate it and silently truncate
    /// the scan.
    fn debug_assert_sorted(&self) {
        #[cfg(debug_assertions)]
        for k in 0..self.objects.len() {
            let seg = &self.times[self.range(k)];
            for w in seg.windows(2) {
                debug_assert!(
                    w[0] <= w[1],
                    "object {} events out of time order: {:?} then {:?}",
                    self.objects[k],
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// Empty columns (offsets `[0]`) with room for `events` rows over
    /// `objects` objects.
    pub fn with_capacity(events: usize, objects: usize) -> Self {
        let mut offsets = Vec::with_capacity(objects + 1);
        offsets.push(0);
        Self {
            times: Vec::with_capacity(events),
            threads: Vec::with_capacity(events),
            sites: Vec::with_capacity(events),
            kinds: Vec::with_capacity(events),
            clocks: Vec::with_capacity(events),
            objects: Vec::with_capacity(objects),
            offsets,
        }
    }

    /// Appends rows `rows` of `src` to the segment being assembled at the
    /// end of the columns; [`push_object`](Self::push_object) closes it.
    pub fn extend_rows(&mut self, src: &ClassColumns, rows: Range<usize>) {
        self.times.extend_from_slice(&src.times[rows.clone()]);
        self.threads.extend_from_slice(&src.threads[rows.clone()]);
        self.sites.extend_from_slice(&src.sites[rows.clone()]);
        self.kinds.extend_from_slice(&src.kinds[rows.clone()]);
        self.clocks.extend_from_slice(&src.clocks[rows]);
    }

    /// Closes every row appended since the previous segment as `object`'s
    /// segment. Objects must be pushed in ascending order.
    ///
    /// # Panics
    /// When the columns hold more than `u32::MAX` rows.
    pub fn push_object(&mut self, object: ObjectId) {
        self.objects.push(object);
        self.offsets.push(
            u32::try_from(self.len())
                .expect("class column overflow: more than u32::MAX events in one class"),
        );
    }

    /// Whether the event columns differ in length.
    pub(crate) fn is_ragged(&self) -> bool {
        let n = self.times.len();
        [
            self.threads.len(),
            self.sites.len(),
            self.kinds.len(),
            self.clocks.len(),
        ]
        .iter()
        .any(|&l| l != n)
    }

    /// Total events in this class.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the class recorded no events.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of distinct objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Column range of object slot `k` (not an `ObjectId` — index into
    /// [`objects`](Self::objects)).
    pub fn range(&self, k: usize) -> Range<usize> {
        self.offsets[k] as usize..self.offsets[k + 1] as usize
    }

    /// Full structural check for columns assembled outside
    /// [`TraceIndex::build`] (e.g. reloaded from disk): equal column
    /// lengths, a well-formed CSR table (non-decreasing offsets from 0 to
    /// the row count) over strictly ascending objects, and non-empty,
    /// time-sorted segments.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_ragged() {
            return Err("column lengths differ".into());
        }
        if self.offsets.len() != self.objects.len() + 1
            || self.offsets.first().copied().unwrap_or(1) != 0
            || *self.offsets.last().unwrap_or(&0) as usize != self.len()
            || self.offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err("CSR offset table malformed".into());
        }
        if self.objects.windows(2).any(|w| w[0] >= w[1]) {
            return Err("objects not strictly ascending".into());
        }
        for k in 0..self.objects.len() {
            let r = self.range(k);
            if r.is_empty() {
                return Err(format!("empty segment for {}", self.objects[k]));
            }
            if self.times[r].windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("segment for {} not time-sorted", self.objects[k]));
            }
        }
        Ok(())
    }
}

/// Size statistics of a built index (reported by `waffle analyze --stats`
/// and the `analysis_rate` bench).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct IndexStats {
    /// Events indexed across both classes.
    pub events: usize,
    /// MemOrder-class events.
    pub mem_events: usize,
    /// TSV-class events.
    pub tsv_events: usize,
    /// Distinct objects with MemOrder events.
    pub mem_objects: usize,
    /// Distinct objects with TSV events.
    pub tsv_objects: usize,
    /// Distinct clock snapshots in the trace's pool.
    pub distinct_clocks: usize,
}

/// The shared columnar index every analysis pass consumes. Built once from
/// a [`Trace`]; borrows it for site/clock resolution.
#[derive(Debug)]
pub struct TraceIndex<'t> {
    /// The indexed trace.
    pub trace: &'t Trace,
    /// MemOrder-class columns (near-miss candidate + interference scans).
    pub mem: ClassColumns,
    /// TSV-class columns (thread-safety-violation scan).
    pub tsv: ClassColumns,
}

impl<'t> TraceIndex<'t> {
    /// Builds the index: one pass per class over the trace's events.
    pub fn build(trace: &'t Trace) -> Self {
        let arena = &mut IndexArena::default();
        Self {
            trace,
            mem: ClassColumns::build_in(&trace.events, AccessKind::is_mem_order, arena),
            tsv: ClassColumns::build_in(&trace.events, AccessKind::is_tsv, arena),
        }
    }

    /// Resolves a pooled clock handle.
    pub fn clock(&self, id: ClockId) -> &ClockSnapshot<ThreadId> {
        self.trace.clocks.get(id)
    }

    /// Size statistics of this index.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            events: self.mem.len() + self.tsv.len(),
            mem_events: self.mem.len(),
            tsv_events: self.tsv.len(),
            mem_objects: self.mem.object_count(),
            tsv_objects: self.tsv.object_count(),
            distinct_clocks: self.trace.clocks.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use waffle_mem::SiteRegistry;

    fn trace() -> Trace {
        let mut sites = SiteRegistry::new();
        let si = sites.register("init", AccessKind::Init);
        let su = sites.register("use", AccessKind::Use);
        let sc = sites.register("call", AccessKind::UnsafeApiCall);
        let mut clocks = ClockPool::new();
        let c1 = clocks.intern(ClockSnapshot::from_entries([(ThreadId(0), 1)]));
        let ev = |t_us: u64, thread: u32, site, obj: u32, kind, clock| TraceEvent {
            time: SimTime::from_us(t_us),
            thread: ThreadId(thread),
            site,
            obj: ObjectId(obj),
            kind,
            dyn_index: 0,
            clock,
        };
        Trace {
            workload: "idx".into(),
            sites,
            events: vec![
                ev(10, 0, si, 2, AccessKind::Init, c1),
                ev(20, 0, sc, 0, AccessKind::UnsafeApiCall, ClockId::EMPTY),
                ev(30, 1, su, 2, AccessKind::Use, ClockId::EMPTY),
                ev(40, 1, su, 1, AccessKind::Use, c1),
                ev(50, 0, su, 2, AccessKind::Use, c1),
            ],
            forks: vec![],
            clocks,
            end_time: SimTime::from_us(60),
        }
    }

    #[test]
    fn columns_partition_by_class_and_object() {
        let t = trace();
        let idx = TraceIndex::build(&t);
        assert_eq!(idx.mem.len(), 4);
        assert_eq!(idx.tsv.len(), 1);
        assert_eq!(idx.mem.objects, vec![ObjectId(1), ObjectId(2)]);
        assert_eq!(idx.mem.offsets, vec![0, 1, 4]);
        // Object 2's segment keeps trace order (= time order).
        let seg = idx.mem.range(1);
        assert_eq!(
            idx.mem.times[seg],
            [
                SimTime::from_us(10),
                SimTime::from_us(30),
                SimTime::from_us(50)
            ]
        );
        let stats = idx.stats();
        assert_eq!(stats.events, 5);
        assert_eq!(stats.mem_objects, 2);
        assert_eq!(stats.tsv_objects, 1);
        assert_eq!(stats.distinct_clocks, 2);
    }

    /// Each rejecting branch of `validate`, on a copy of a valid index
    /// (objects 1 and 2, offsets `[0, 1, 4]`) broken in one place.
    #[test]
    fn validate_rejects_each_malformation_by_name() {
        let t = trace();
        let good = TraceIndex::build(&t).mem;
        assert_eq!(good.validate(), Ok(()));
        assert_eq!(ClassColumns::default().validate(), Ok(()));
        let broken = |f: &dyn Fn(&mut ClassColumns)| {
            let mut cols = good.clone();
            f(&mut cols);
            cols.validate().unwrap_err()
        };
        assert_eq!(
            broken(&|c| {
                c.threads.pop();
            }),
            "column lengths differ"
        );
        assert_eq!(
            broken(&|c| {
                c.clocks.push(ClockId::EMPTY);
            }),
            "column lengths differ"
        );
        for offsets in [vec![0, 1], vec![1, 1, 4], vec![0, 1, 3], vec![0, 5, 4]] {
            // [0, 5, 4] ends at the row count but steps backwards; the
            // check must reject it before slicing rows 0..5 of 4.
            assert_eq!(
                broken(&|c| c.offsets = offsets.clone()),
                "CSR offset table malformed",
                "{offsets:?}"
            );
        }
        for objects in [
            vec![ObjectId(2), ObjectId(1)],
            vec![ObjectId(2), ObjectId(2)],
        ] {
            assert_eq!(
                broken(&|c| c.objects = objects.clone()),
                "objects not strictly ascending"
            );
        }
        assert_eq!(
            broken(&|c| c.offsets = vec![0, 0, 4]),
            "empty segment for obj#1"
        );
        assert_eq!(
            broken(&|c| c.times.swap(1, 3)),
            "segment for obj#2 not time-sorted"
        );
    }

    #[test]
    fn row_operations_rebuild_a_column_set() {
        let t = trace();
        let mem = TraceIndex::build(&t).mem;
        let mut copy = ClassColumns::with_capacity(mem.len(), mem.object_count());
        for k in 0..mem.object_count() {
            // Two appends per segment: the split point is invisible.
            let r = mem.range(k);
            let mid = r.start + r.len() / 2;
            copy.extend_rows(&mem, r.start..mid);
            copy.extend_rows(&mem, mid..r.end);
            copy.push_object(mem.objects[k]);
        }
        assert_eq!(copy, mem);
        // A suffix of object 2's segment alone.
        let mut tail = ClassColumns::default();
        tail.extend_rows(&mem, 2..4);
        tail.push_object(ObjectId(2));
        assert_eq!(tail.validate(), Ok(()));
        assert_eq!(tail.offsets, vec![0, 2]);
        assert_eq!(tail.times, mem.times[2..4]);
        assert!(!tail.is_ragged());
    }

    #[test]
    fn clock_handles_resolve_through_the_pool() {
        let t = trace();
        let idx = TraceIndex::build(&t);
        // Event 0 (object 2, first in segment) carries the interned clock.
        let seg = idx.mem.range(1);
        let id = idx.mem.clocks[seg.start];
        assert_eq!(idx.clock(id).get(&ThreadId(0)), 1);
        assert!(idx.clock(ClockId::EMPTY).is_empty());
    }

    #[test]
    fn pool_interning_deduplicates() {
        let mut pool = ClockPool::new();
        let a = pool.intern(ClockSnapshot::from_entries([(ThreadId(1), 2)]));
        let b = pool.intern(ClockSnapshot::from_entries([(ThreadId(1), 2)]));
        let c = pool.intern(ClockSnapshot::from_entries([(ThreadId(1), 3)]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.len(), 3, "empty + two distinct");
        assert_eq!(pool.intern(ClockSnapshot::new()), ClockId::EMPTY);
    }

    #[test]
    fn interner_matches_linear_interning_and_resumes_from_a_pool() {
        let mut p1 = ClockPool::new();
        let mut p2 = ClockPool::new();
        let mut interner = ClockInterner::for_pool(&p2);
        let snaps: Vec<ClockSnapshot<ThreadId>> = (0..6)
            .map(|i| ClockSnapshot::from_entries([(ThreadId(i % 2), u64::from(i / 2 + 1))]))
            .collect();
        for s in &snaps {
            assert_eq!(p1.intern(s.clone()), interner.intern(&mut p2, s.clone()));
        }
        assert_eq!(p1, p2);
        // A fresh interner over the existing pool keeps deduplicating.
        let mut resumed = ClockInterner::for_pool(&p2);
        assert_eq!(
            resumed.intern(&mut p2, snaps[3].clone()),
            p1.intern(snaps[3].clone())
        );
    }

    #[test]
    fn fallible_interning_matches_the_panicking_path() {
        let mut pool = ClockPool::new();
        let a = pool
            .try_intern(ClockSnapshot::from_entries([(ThreadId(0), 1)]))
            .unwrap();
        let b = pool
            .try_intern(ClockSnapshot::from_entries([(ThreadId(0), 1)]))
            .unwrap();
        assert_eq!(a, b);
        // try_push skips dedup: the same snapshot gets a fresh id.
        let c = pool
            .try_push(ClockSnapshot::from_entries([(ThreadId(0), 1)]))
            .unwrap();
        assert_ne!(a, c);
        assert_eq!(c.0 as usize, pool.len() - 1);
        // ClockId::try_new refuses out-of-range indexes instead of wrapping.
        assert_eq!(ClockId::try_new(7), Some(ClockId(7)));
        assert_eq!(ClockId::try_new(u32::MAX as usize + 1), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of time order")]
    fn out_of_order_object_events_trip_the_debug_assertion() {
        let mut t = trace();
        // Swap object 2's first two events so its segment is unsorted.
        t.events.swap(0, 2);
        let _ = TraceIndex::build(&t);
    }
}
