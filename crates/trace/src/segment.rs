//! The on-disk columnar segment format: traces larger than RAM.
//!
//! [`TraceIndex`] is fast but fully resident — a 100M-event trace costs
//! tens of gigabytes of columns. This module persists an index as a single
//! **segment file** so the analysis sweep can stream object segments
//! through a bounded resident budget instead of holding every column:
//!
//! ```text
//! ┌──────────┬──────────────────────────┬────────────┬─────────────────┐
//! │ 8B magic │ segments (mem*, tsv*)    │ footer     │ 24B trailer + 8B│
//! │ WFLSEG00 │ per-object column bytes  │ (catalog)  │ magic WFLSEGFT  │
//! └──────────┴──────────────────────────┴────────────┴─────────────────┘
//! ```
//!
//! - **Segments**: one per `(class, object)`, in ascending object order —
//!   exactly the order the two-pointer sweep consumes — holding that
//!   object's time-sorted columns as packed little-endian arrays
//!   (`times: u64ⁿ ++ threads: u32ⁿ ++ sites: u32ⁿ ++ kinds: u8ⁿ ++
//!   clocks: u32ⁿ`). The object id is stored once, in the catalog entry,
//!   as [`ClassColumns`] keeps it once in its CSR table, never per event.
//!   The writer appends one object slot of a [`ClassColumns`] at a time,
//!   and the reader reassembles a run of segments into one validated
//!   [`ClassColumns`] ([`SegmentReader::read_segments`]).
//! - **Footer catalog** ([`SegmentCatalog`]): per-segment byte offsets,
//!   lengths, event counts, min/max timestamps, and FNV-1a checksums,
//!   plus the interned [`ClockPool`] and the trace's [`SiteRegistry`]
//!   stored **once** — the happens-before structure is the only part of
//!   the trace that must stay hot (cf. partial-order BMC: keep the
//!   ordering skeleton resident, stream the events). The footer is
//!   binary, little-endian, and reuses the serve wire codec's `str`,
//!   `sites` and `clocks` encodings (see `crate::codec`):
//!
//!   ```text
//!   footer := version:u32 | workload:str | end_time:u64
//!             | mem:metas | tsv:metas | clocks | sites
//!   metas  := count:u32 | (object:u32 | offset:u64 | bytes:u64 | events:u32
//!                          | min_time:u64 | max_time:u64 | checksum:u64){count}
//!   ```
//!
//!   `clocks` holds the pool's snapshots from id 1 on; id 0 is always the
//!   implicit empty snapshot. `sites` lists the registry in id order.
//! - **Trailer**: `footer_offset u64 | footer_len u64 | footer_fnv u64`
//!   followed by the closing magic, so a reader can locate the footer
//!   from the end of the file and reject truncation before trusting any
//!   offset in it.
//!
//! Corruption discipline matches the PR 3 storage rules: a missing file
//! is the caller's absent case; a present-but-unusable file (bad magic,
//! truncated footer, checksum mismatch, another version — including the
//! JSON-footer version 1) is always a distinct
//! [`io::ErrorKind::InvalidData`] error naming what failed. Footer
//! decoding is bounded by the footer's length: every count is checked
//! against the bytes that remain before anything is reserved, a site name
//! defined twice or a trailing byte is rejected, and every offset sum is
//! checked for overflow. The catalog's segments, MemOrder then Tsv, must
//! lie end to end from the head magic to the footer, the writer's only
//! layout, so entries cannot overlap and reads stay bounded by the
//! file's size.

use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};

use waffle_mem::{ObjectId, SiteId, SiteRegistry};
use waffle_sim::{SimTime, ThreadId};

use crate::codec::{
    self, kind_from_tag, kind_tag, put_clocks, put_sites, put_str, put_u32, put_u64, Cursor,
};
use crate::index::{ClassColumns, ClockId, ClockPool, TraceIndex};

/// Segment file schema version; bumped on incompatible layout changes.
/// Version 1 stored the footer catalog as JSON; version 2 is binary.
pub const SEGMENT_VERSION: u32 = 2;

const HEAD_MAGIC: &[u8; 8] = b"WFLSEG00";
const FOOT_MAGIC: &[u8; 8] = b"WFLSEGFT";
/// Trailer: footer offset + footer length + footer checksum + magic.
const TRAILER_LEN: u64 = 8 + 8 + 8 + 8;

/// Bytes one event occupies in a segment (8 time + 4 thread + 4 site +
/// 1 kind + 4 clock).
pub const EVENT_BYTES: u64 = 21;

/// Bytes one [`SegmentMeta`] occupies in the footer (object 4 + offset 8 +
/// bytes 8 + events 4 + min 8 + max 8 + checksum 8).
const META_BYTES: usize = 48;

/// 64-bit FNV-1a over a byte slice: the segment checksum, cheap enough to
/// verify on every segment load, and the campaign manifest's grid
/// fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Which event class a segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentClass {
    /// MemOrder-instrumented events (init/use/dispose).
    MemOrder,
    /// Thread-safety-violation events (unsafe API calls).
    Tsv,
}

/// Catalog entry for one on-disk object segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// The object every event in the segment touches.
    pub object: ObjectId,
    /// Absolute file offset of the segment's first byte.
    pub offset: u64,
    /// Segment payload length in bytes (`events × EVENT_BYTES`).
    pub bytes: u64,
    /// Events in the segment.
    pub events: u32,
    /// Smallest timestamp in the segment (segments are time-sorted).
    pub min_time: SimTime,
    /// Largest timestamp in the segment.
    pub max_time: SimTime,
    /// FNV-1a over the segment payload, verified on load.
    pub checksum: u64,
}

/// The footer catalog: everything a reader needs besides the column bytes.
///
/// The clock pool lives here — stored once for the whole trace — because
/// happens-before checks are the one part of analysis that needs random
/// access while event columns stream through a bounded window.
#[derive(Debug, Clone)]
pub struct SegmentCatalog {
    /// Schema version ([`SEGMENT_VERSION`]).
    pub version: u32,
    /// Name of the traced workload.
    pub workload: String,
    /// End-to-end virtual time of the traced run.
    pub end_time: SimTime,
    /// MemOrder segments, ascending object order.
    pub mem: Vec<SegmentMeta>,
    /// TSV segments, ascending object order.
    pub tsv: Vec<SegmentMeta>,
    /// The interned clock snapshots, stored once.
    pub clocks: ClockPool,
    /// The trace's site table (for rendering plans without the workload).
    pub sites: SiteRegistry,
}

impl SegmentCatalog {
    /// The catalog's segment list for `class`.
    pub fn class(&self, class: SegmentClass) -> &[SegmentMeta] {
        match class {
            SegmentClass::MemOrder => &self.mem,
            SegmentClass::Tsv => &self.tsv,
        }
    }

    /// Total events across both classes.
    pub fn events(&self) -> u64 {
        self.mem
            .iter()
            .chain(&self.tsv)
            .map(|s| u64::from(s.events))
            .sum()
    }
}

fn put_metas(buf: &mut Vec<u8>, metas: &[SegmentMeta]) {
    put_u32(buf, metas.len() as u32);
    for m in metas {
        put_u32(buf, m.object.0);
        put_u64(buf, m.offset);
        put_u64(buf, m.bytes);
        put_u32(buf, m.events);
        put_u64(buf, m.min_time.as_us());
        put_u64(buf, m.max_time.as_us());
        put_u64(buf, m.checksum);
    }
}

fn get_metas(c: &mut Cursor<'_>) -> io::Result<Vec<SegmentMeta>> {
    let n = c.count(META_BYTES)?;
    let mut metas = Vec::with_capacity(n);
    for _ in 0..n {
        metas.push(SegmentMeta {
            object: ObjectId(c.u32()?),
            offset: c.u64()?,
            bytes: c.u64()?,
            events: c.u32()?,
            min_time: SimTime::from_us(c.u64()?),
            max_time: SimTime::from_us(c.u64()?),
            checksum: c.u64()?,
        });
    }
    Ok(metas)
}

/// Appends the version-2 footer (layout in the module docs) to `buf`.
/// `InvalidData` when `clocks` does not hold the empty snapshot at id 0,
/// which the footer leaves implicit.
fn encode_footer(
    buf: &mut Vec<u8>,
    workload: &str,
    end_time: SimTime,
    mem: &[SegmentMeta],
    tsv: &[SegmentMeta],
    clocks: &ClockPool,
    sites: &SiteRegistry,
) -> io::Result<()> {
    let Some((empty, snaps)) = clocks.snapshots().split_first() else {
        return Err(codec::invalid("clock pool has no empty snapshot at id 0"));
    };
    if !empty.is_empty() {
        return Err(codec::invalid("clock pool id 0 is not the empty snapshot"));
    }
    put_u32(buf, SEGMENT_VERSION);
    put_str(buf, workload);
    put_u64(buf, end_time.as_us());
    put_metas(buf, mem);
    put_metas(buf, tsv);
    put_clocks(buf, snaps);
    put_sites(
        buf,
        sites
            .iter()
            .map(|(_, info)| (info.name.as_str(), info.kind)),
    );
    Ok(())
}

/// Decodes a footer written by [`encode_footer`]. Rejects the JSON footer
/// of version 1 and any other version before reading further, and a site
/// name defined twice (which [`SiteRegistry::register`] would otherwise
/// merge or panic on).
fn decode_footer(footer: &[u8]) -> io::Result<SegmentCatalog> {
    if footer.first() == Some(&b'{') {
        return Err(codec::invalid(format!(
            "segment format version 1 (a JSON footer; this build speaks {SEGMENT_VERSION})"
        )));
    }
    let mut c = Cursor::new(footer, "segment footer");
    let version = c.u32()?;
    if version != SEGMENT_VERSION {
        return Err(codec::invalid(format!(
            "segment format version {version} (this build speaks {SEGMENT_VERSION})"
        )));
    }
    let workload = c.str()?;
    let end_time = SimTime::from_us(c.u64()?);
    let mem = get_metas(&mut c)?;
    let tsv = get_metas(&mut c)?;
    let mut clocks = ClockPool::new();
    for snap in c.clocks()? {
        clocks
            .try_push(snap)
            .ok_or_else(|| codec::invalid("clock pool overflows the 32-bit id space"))?;
    }
    let mut sites = SiteRegistry::new();
    for (name, kind) in c.sites()? {
        if sites.lookup(&name).is_some() {
            return Err(codec::invalid(format!(
                "site {name:?} defined twice in segment footer"
            )));
        }
        sites.register(&name, kind);
    }
    c.done()?;
    Ok(SegmentCatalog {
        version,
        workload,
        end_time,
        mem,
        tsv,
        clocks,
        sites,
    })
}

/// What [`TraceIndex::write_segments`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentWriteStats {
    /// Segments written across both classes.
    pub segments: usize,
    /// Events written across both classes.
    pub events: u64,
    /// Total file size in bytes, trailer included.
    pub file_bytes: u64,
}

fn invalid(path: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    )
}

/// Serializes object slot `slot` of `cols` into `buf` (cleared first)
/// and returns its catalog entry with `offset` left at 0 for the writer to
/// fix. `InvalidData` on ragged columns, an empty segment, or an event
/// count past the catalog's u32 field (which a bare cast used to wrap
/// silently).
///
/// # Panics
/// When `slot` is not a slot of `cols`.
fn encode_segment(cols: &ClassColumns, slot: usize, buf: &mut Vec<u8>) -> io::Result<SegmentMeta> {
    buf.clear();
    let object = cols.objects[slot];
    let err = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let r = cols.range(slot);
    if cols.is_ragged() || r.end > cols.len() {
        return Err(err(format!("segment for {object} has ragged columns")));
    }
    if r.is_empty() {
        return Err(err(format!("segment for {object} is empty")));
    }
    let n = r.len();
    let events = u32::try_from(n).map_err(|_| {
        err(format!(
            "segment for {object} holds {n} events (catalog limit is {})",
            u32::MAX
        ))
    })?;
    buf.reserve(n * EVENT_BYTES as usize);
    for t in &cols.times[r.clone()] {
        buf.extend_from_slice(&t.as_us().to_le_bytes());
    }
    for t in &cols.threads[r.clone()] {
        buf.extend_from_slice(&t.0.to_le_bytes());
    }
    for s in &cols.sites[r.clone()] {
        buf.extend_from_slice(&s.0.to_le_bytes());
    }
    for k in &cols.kinds[r.clone()] {
        buf.push(kind_tag(*k));
    }
    for c in &cols.clocks[r.clone()] {
        buf.extend_from_slice(&c.0.to_le_bytes());
    }
    Ok(SegmentMeta {
        object,
        offset: 0,
        bytes: buf.len() as u64,
        events,
        min_time: cols.times[r.start],
        max_time: cols.times[r.end - 1],
        checksum: fnv1a(buf),
    })
}

/// Incremental segment-file writer: the producer behind
/// [`TraceIndex::write_segments`], streaming-ingest seals, and the
/// compactor. Segments append one object at a time (ascending object order
/// enforced per class); [`finish`](Self::finish) writes the footer catalog
/// and trailer and atomically renames the temp file into place. Dropping
/// an unfinished writer removes the temp file, so an abandoned seal never
/// leaves debris under a visible name.
#[derive(Debug)]
pub struct SegmentWriter {
    file: Option<io::BufWriter<fs::File>>,
    tmp: PathBuf,
    path: PathBuf,
    offset: u64,
    buf: Vec<u8>,
    mem: Vec<SegmentMeta>,
    tsv: Vec<SegmentMeta>,
}

impl SegmentWriter {
    /// Opens a writer targeting `path`, writing to a sibling temp file
    /// until [`finish`](Self::finish).
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path: PathBuf = path.into();
        let tmp = path.with_file_name(format!(
            ".{}.tmp.{}",
            path.file_name()
                .ok_or_else(|| io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "path has no file name"
                ))?
                .to_string_lossy(),
            std::process::id()
        ));
        let mut f = io::BufWriter::new(fs::File::create(&tmp)?);
        f.write_all(HEAD_MAGIC)?;
        Ok(Self {
            file: Some(f),
            tmp,
            path,
            offset: HEAD_MAGIC.len() as u64,
            buf: Vec::new(),
            mem: Vec::new(),
            tsv: Vec::new(),
        })
    }

    /// Appends object slot `slot` of `cols` as one segment of `class`.
    /// Every MemOrder segment comes before the first Tsv one, so the file
    /// holds its segments in catalog order, and objects must arrive in
    /// strictly ascending order within each class — the invariant the
    /// streaming sweep's deterministic merge reads back. The writer does
    /// not check time order; the reader does.
    ///
    /// # Panics
    /// When `slot` is not a slot of `cols`.
    pub fn append(
        &mut self,
        class: SegmentClass,
        cols: &ClassColumns,
        slot: usize,
    ) -> io::Result<()> {
        let metas = match class {
            SegmentClass::MemOrder => &self.mem,
            SegmentClass::Tsv => &self.tsv,
        };
        let object = cols.objects[slot];
        if class == SegmentClass::MemOrder && !self.tsv.is_empty() {
            return Err(invalid(
                &self.path,
                format!("MemOrder segment for {object} appended after a Tsv segment"),
            ));
        }
        if let Some(last) = metas.last() {
            if object <= last.object {
                return Err(invalid(
                    &self.path,
                    format!(
                        "segment for {object} appended out of ascending object order (after {})",
                        last.object
                    ),
                ));
            }
        }
        let mut meta = encode_segment(cols, slot, &mut self.buf)?;
        meta.offset = self.offset;
        self.offset += meta.bytes;
        let f = self.file.as_mut().expect("writer already finished");
        f.write_all(&self.buf)?;
        match class {
            SegmentClass::MemOrder => self.mem.push(meta),
            SegmentClass::Tsv => self.tsv.push(meta),
        }
        Ok(())
    }

    /// Writes the footer catalog and trailer, then renames the temp file
    /// into place.
    pub fn finish(
        mut self,
        workload: &str,
        end_time: SimTime,
        clocks: &ClockPool,
        sites: &SiteRegistry,
    ) -> io::Result<SegmentWriteStats> {
        let mut footer = std::mem::take(&mut self.buf);
        footer.clear();
        encode_footer(
            &mut footer,
            workload,
            end_time,
            &self.mem,
            &self.tsv,
            clocks,
            sites,
        )
        .map_err(|e| invalid(&self.path, e))?;
        let mut f = self.file.take().expect("writer already finished");
        f.write_all(&footer)?;
        f.write_all(&self.offset.to_le_bytes())?;
        f.write_all(&(footer.len() as u64).to_le_bytes())?;
        f.write_all(&fnv1a(&footer).to_le_bytes())?;
        f.write_all(FOOT_MAGIC)?;
        f.flush()?;
        drop(f);
        fs::rename(&self.tmp, &self.path).inspect_err(|_| {
            let _ = fs::remove_file(&self.tmp);
        })?;
        Ok(SegmentWriteStats {
            segments: self.mem.len() + self.tsv.len(),
            events: self
                .mem
                .iter()
                .chain(&self.tsv)
                .map(|s| u64::from(s.events))
                .sum(),
            file_bytes: self.offset + footer.len() as u64 + TRAILER_LEN,
        })
    }
}

impl Drop for SegmentWriter {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Writes both classes' columns, every object slot in order, as one
/// segment file at `path`; the other arguments go to
/// [`SegmentWriter::finish`].
pub(crate) fn write_columns(
    path: &Path,
    mem: &ClassColumns,
    tsv: &ClassColumns,
    workload: &str,
    end_time: SimTime,
    clocks: &ClockPool,
    sites: &SiteRegistry,
) -> io::Result<SegmentWriteStats> {
    let mut w = SegmentWriter::create(path)?;
    for (class, cols) in [(SegmentClass::MemOrder, mem), (SegmentClass::Tsv, tsv)] {
        for slot in 0..cols.object_count() {
            w.append(class, cols, slot)?;
        }
    }
    w.finish(workload, end_time, clocks, sites)
}

impl<'t> TraceIndex<'t> {
    /// Writes this index as a segment file at `path` (atomically: a
    /// sibling temp file renamed into place, so a crash mid-write never
    /// leaves a half file under the final name).
    pub fn write_segments(&self, path: &Path) -> io::Result<SegmentWriteStats> {
        let t = self.trace;
        write_columns(
            path,
            &self.mem,
            &self.tsv,
            &t.workload,
            t.end_time,
            &t.clocks,
            &t.sites,
        )
    }
}

/// Streaming reader over a segment file: the catalog (with the clock pool)
/// stays resident; event columns are loaded per segment on demand and
/// dropped by the caller when its budget window moves on.
#[derive(Debug)]
pub struct SegmentReader {
    file: fs::File,
    catalog: SegmentCatalog,
    path: PathBuf,
}

impl SegmentReader {
    /// Opens and validates a segment file: both magics, the trailer, the
    /// footer checksum, and the schema version. Per-segment payloads are
    /// verified lazily, when [`read_segments`](Self::read_segments) loads
    /// them.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut file = fs::File::open(&path)?;
        let size = file.metadata()?.len();
        if size < HEAD_MAGIC.len() as u64 + TRAILER_LEN {
            return Err(invalid(
                &path,
                "not a segment file (shorter than header + trailer)",
            ));
        }
        let mut head = [0u8; 8];
        file.read_exact(&mut head)?;
        if &head != HEAD_MAGIC {
            return Err(invalid(&path, "bad magic (not a segment file)"));
        }
        file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact(&mut trailer)?;
        if &trailer[24..32] != FOOT_MAGIC {
            return Err(invalid(
                &path,
                "truncated segment file (trailer magic missing)",
            ));
        }
        let footer_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let footer_len = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
        let footer_fnv = u64::from_le_bytes(trailer[16..24].try_into().unwrap());
        let file_end = footer_offset
            .checked_add(footer_len)
            .and_then(|end| end.checked_add(TRAILER_LEN));
        if file_end != Some(size) {
            return Err(invalid(
                &path,
                "truncated segment file (footer out of bounds)",
            ));
        }
        file.seek(SeekFrom::Start(footer_offset))?;
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact(&mut footer)?;
        if fnv1a(&footer) != footer_fnv {
            return Err(invalid(&path, "footer checksum mismatch (corrupt catalog)"));
        }
        let catalog = decode_footer(&footer).map_err(|e| invalid(&path, e))?;
        // Segments tile the file in catalog order (see the module docs).
        let mut next = HEAD_MAGIC.len() as u64;
        for meta in catalog.mem.iter().chain(&catalog.tsv) {
            let end = meta
                .offset
                .checked_add(meta.bytes)
                .filter(|&end| {
                    meta.bytes == u64::from(meta.events) * EVENT_BYTES && end <= footer_offset
                })
                .ok_or_else(|| {
                    invalid(
                        &path,
                        format!("catalog entry for {} out of bounds", meta.object),
                    )
                })?;
            if meta.offset != next {
                return Err(invalid(
                    &path,
                    format!(
                        "catalog entry for {} starts at byte {}, not where the previous segment ends ({next})",
                        meta.object, meta.offset
                    ),
                ));
            }
            next = end;
        }
        if next != footer_offset {
            return Err(invalid(
                &path,
                format!("segments end at byte {next}, not at the footer ({footer_offset})"),
            ));
        }
        Ok(Self {
            file,
            catalog,
            path,
        })
    }

    /// The footer catalog.
    pub fn catalog(&self) -> &SegmentCatalog {
        &self.catalog
    }

    /// The resident clock pool.
    pub fn clocks(&self) -> &ClockPool {
        &self.catalog.clocks
    }

    /// Appends segment `k` of `class` to `cols` as one more object slot,
    /// verifying its checksum and that every clock id and site id resolves
    /// in the catalog's pool and registry (a checksummed segment can still
    /// carry ids its footer never defined, and the analyzer indexes the
    /// pool by them). On error `cols` is left part-written.
    fn load_into(
        &mut self,
        class: SegmentClass,
        k: usize,
        cols: &mut ClassColumns,
    ) -> io::Result<()> {
        let meta = &self.catalog.class(class)[k];
        let (n, object) = (meta.events as usize, meta.object);
        self.file.seek(SeekFrom::Start(meta.offset))?;
        let mut raw = vec![0u8; meta.bytes as usize];
        self.file.read_exact(&mut raw)?;
        if fnv1a(&raw) != meta.checksum {
            return Err(invalid(
                &self.path,
                format!("segment checksum mismatch for {object} (corrupt payload)"),
            ));
        }
        let (times_b, rest) = raw.split_at(n * 8);
        let (threads_b, rest) = rest.split_at(n * 4);
        let (sites_b, rest) = rest.split_at(n * 4);
        let (kinds_b, clocks_b) = rest.split_at(n);
        let le_u32 = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap());
        let start = cols.len();
        cols.times.extend(
            times_b
                .chunks_exact(8)
                .map(|b| SimTime::from_us(u64::from_le_bytes(b.try_into().unwrap()))),
        );
        cols.threads
            .extend(threads_b.chunks_exact(4).map(|b| ThreadId(le_u32(b))));
        cols.sites
            .extend(sites_b.chunks_exact(4).map(|b| SiteId(le_u32(b))));
        for &k in kinds_b {
            cols.kinds.push(kind_from_tag(k).ok_or_else(|| {
                invalid(
                    &self.path,
                    format!("unknown access-kind tag {k} in segment for {object}"),
                )
            })?);
        }
        cols.clocks
            .extend(clocks_b.chunks_exact(4).map(|b| ClockId(le_u32(b))));
        let pool = self.catalog.clocks.len();
        if let Some(c) = cols.clocks[start..].iter().find(|c| c.0 as usize >= pool) {
            return Err(invalid(
                &self.path,
                format!(
                    "segment for {object} references clock id {} outside the {pool}-snapshot pool",
                    c.0
                ),
            ));
        }
        let registry = self.catalog.sites.len();
        if let Some(s) = cols.sites[start..]
            .iter()
            .find(|s| s.0 as usize >= registry)
        {
            return Err(invalid(
                &self.path,
                format!(
                    "segment for {object} references site {s} outside the {registry}-site registry"
                ),
            ));
        }
        cols.push_object(object);
        Ok(())
    }

    /// Loads segments `range` of `class` into one validated
    /// [`ClassColumns`]: CSR offsets are relative to the range, and
    /// `objects` keeps the catalog's ascending order. This is the batch
    /// loader the streaming analysis feeds its budget windows through.
    /// `InvalidData` names the segment whose payload or ids are bad, and
    /// the object whose reassembled segment breaks a column invariant
    /// (see [`ClassColumns::validate`]).
    ///
    /// # Panics
    /// When `range` reaches past the catalog's segment list for `class`.
    pub fn read_segments(
        &mut self,
        class: SegmentClass,
        range: Range<usize>,
    ) -> io::Result<ClassColumns> {
        let total: u64 = self.catalog.class(class)[range.clone()]
            .iter()
            .map(|m| u64::from(m.events))
            .sum();
        if total > u64::from(u32::MAX) {
            return Err(invalid(
                &self.path,
                format!(
                    "segments {range:?} hold {total} events (one batch holds at most u32::MAX)"
                ),
            ));
        }
        let mut cols = ClassColumns::with_capacity(total as usize, range.len());
        for k in range {
            self.load_into(class, k, &mut cols)?;
        }
        cols.validate()
            .map_err(|e| invalid(&self.path, format!("reassembled columns invalid: {e}")))?;
        Ok(cols)
    }

    /// Reassembles one class's full [`ClassColumns`]: [`read_segments`]
    /// over every segment of `class`.
    ///
    /// [`read_segments`]: Self::read_segments
    pub fn read_class_columns(&mut self, class: SegmentClass) -> io::Result<ClassColumns> {
        let n = self.catalog.class(class).len();
        self.read_segments(class, 0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Trace, TraceEvent};
    use waffle_mem::AccessKind;
    use waffle_vclock::ClockSnapshot;

    fn sample_trace(objects: u32, per_object: u64) -> Trace {
        let mut sites = SiteRegistry::new();
        let si = sites.register("init", AccessKind::Init);
        let su = sites.register("use", AccessKind::Use);
        let sc = sites.register("call", AccessKind::UnsafeApiCall);
        let mut clocks = ClockPool::new();
        let mut events = Vec::new();
        let mut t = 0;
        for round in 0..per_object {
            for o in 0..objects {
                t += 10;
                let kind = match round % 3 {
                    0 => (si, AccessKind::Init),
                    1 => (su, AccessKind::Use),
                    _ => (sc, AccessKind::UnsafeApiCall),
                };
                let clock = clocks.intern(ClockSnapshot::from_entries([(
                    ThreadId(o % 3),
                    round / 2 + 1,
                )]));
                events.push(TraceEvent {
                    time: SimTime::from_us(t),
                    thread: ThreadId(o % 3),
                    site: kind.0,
                    obj: ObjectId(o),
                    kind: kind.1,
                    dyn_index: round,
                    clock,
                });
            }
        }
        Trace {
            workload: "seg.sample".into(),
            sites,
            events,
            forks: vec![],
            clocks,
            end_time: SimTime::from_us(t + 10),
        }
    }

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("waffle-seg-{tag}-{}.wseg", std::process::id()))
    }

    #[test]
    fn write_read_round_trip_is_byte_identical() {
        let trace = sample_trace(5, 9);
        let index = TraceIndex::build(&trace);
        let path = tmpfile("roundtrip");
        let stats = index.write_segments(&path).unwrap();
        assert_eq!(stats.events, trace.events.len() as u64);
        assert_eq!(
            stats.segments,
            index.mem.object_count() + index.tsv.object_count()
        );

        let mut reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.catalog().workload, "seg.sample");
        assert_eq!(reader.clocks(), &trace.clocks);
        assert_eq!(reader.catalog().events(), trace.events.len() as u64);
        let mem = reader.read_class_columns(SegmentClass::MemOrder).unwrap();
        let tsv = reader.read_class_columns(SegmentClass::Tsv).unwrap();
        assert_eq!(mem, index.mem);
        assert_eq!(tsv, index.tsv);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn catalog_min_max_times_bracket_each_segment() {
        let trace = sample_trace(3, 5);
        let index = TraceIndex::build(&trace);
        let path = tmpfile("minmax");
        index.write_segments(&path).unwrap();
        let mut reader = SegmentReader::open(&path).unwrap();
        for k in 0..reader.catalog().mem.len() {
            let meta = reader.catalog().mem[k].clone();
            let seg = reader
                .read_segments(SegmentClass::MemOrder, k..k + 1)
                .unwrap();
            assert_eq!(seg.objects, [meta.object]);
            assert_eq!(*seg.times.first().unwrap(), meta.min_time);
            assert_eq!(*seg.times.last().unwrap(), meta.max_time);
            assert!(seg.times.windows(2).all(|w| w[0] <= w[1]));
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_footer_is_invalid_data() {
        let trace = sample_trace(4, 6);
        let path = tmpfile("truncated");
        TraceIndex::build(&trace).write_segments(&path).unwrap();
        let full = fs::read(&path).unwrap();
        // Chop the file mid-footer: the trailer magic disappears.
        fs::write(&path, &full[..full.len() - 40]).unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_segment_payload_fails_checksum_on_load() {
        let trace = sample_trace(4, 6);
        let path = tmpfile("corrupt");
        TraceIndex::build(&trace).write_segments(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one byte inside the first mem segment's payload.
        let off = SegmentReader::open(&path).unwrap().catalog().mem[0].offset as usize;
        bytes[off + 3] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let mut reader = SegmentReader::open(&path).expect("footer still valid");
        let err = reader
            .read_segments(SegmentClass::MemOrder, 0..1)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = fs::remove_file(&path);
    }

    /// Splits a segment file into its pre-footer bytes and its footer.
    fn split_footer(file: &[u8]) -> (&[u8], &[u8]) {
        let size = file.len();
        let off = u64::from_le_bytes(file[size - 32..size - 24].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(file[size - 24..size - 16].try_into().unwrap()) as usize;
        (&file[..off], &file[off..off + len])
    }

    /// Reassembles a file around `footer`, fixing up the trailer so only
    /// the footer's contents can fail.
    fn with_footer(body: &[u8], footer: &[u8]) -> Vec<u8> {
        let mut out = body.to_vec();
        out.extend_from_slice(footer);
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(footer).to_le_bytes());
        out.extend_from_slice(FOOT_MAGIC);
        out
    }

    fn open_err(tag: &str, bytes: &[u8]) -> io::Error {
        let path = tmpfile(tag);
        fs::write(&path, bytes).unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        let _ = fs::remove_file(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err
    }

    #[test]
    fn future_version_is_rejected() {
        let trace = sample_trace(2, 4);
        let path = tmpfile("version");
        TraceIndex::build(&trace).write_segments(&path).unwrap();
        let file = fs::read(&path).unwrap();
        let _ = fs::remove_file(&path);
        // Patch the footer's leading u32 version, refixing the checksum so
        // only the version check can fail.
        let (body, footer) = split_footer(&file);
        assert_eq!(
            footer[..4],
            SEGMENT_VERSION.to_le_bytes(),
            "footer leads with the version"
        );
        let mut bumped = footer.to_vec();
        bumped[..4].copy_from_slice(&99u32.to_le_bytes());
        let err = open_err("version", &with_footer(body, &bumped));
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn json_footer_of_version_1_is_rejected_by_name() {
        let trace = sample_trace(2, 4);
        let path = tmpfile("version1");
        TraceIndex::build(&trace).write_segments(&path).unwrap();
        let file = fs::read(&path).unwrap();
        let _ = fs::remove_file(&path);
        let (body, _) = split_footer(&file);
        let v1 = br#"{"version":1,"workload":"seg.sample","end_time":0,"mem":[],"tsv":[],"clocks":{"snapshots":[{"entries":{}}]},"sites":{"sites":[],"by_name":{}}}"#;
        let err = open_err("version1", &with_footer(body, v1));
        assert!(err.to_string().contains("version 1 "), "{err}");
    }

    /// A 40-byte file — head magic plus a trailer whose footer offset sits
    /// just below `u64::MAX` — used to overflow the bounds sum.
    #[test]
    fn trailer_offset_near_u64_max_is_invalid_not_overflow() {
        let mut file = HEAD_MAGIC.to_vec();
        file.extend_from_slice(&(u64::MAX - 8).to_le_bytes());
        file.extend_from_slice(&0u64.to_le_bytes());
        file.extend_from_slice(&fnv1a(&[]).to_le_bytes());
        file.extend_from_slice(FOOT_MAGIC);
        assert_eq!(file.len(), 40);
        let err = open_err("offset-overflow", &file);
        assert!(err.to_string().contains("footer out of bounds"), "{err}");
    }

    /// A catalog entry whose `offset + bytes` overflows, under a valid
    /// footer checksum.
    #[test]
    fn catalog_entry_offset_overflow_is_invalid_not_overflow() {
        let meta = SegmentMeta {
            object: ObjectId(0),
            offset: u64::MAX - 10,
            bytes: EVENT_BYTES,
            events: 1,
            min_time: SimTime::ZERO,
            max_time: SimTime::ZERO,
            checksum: 0,
        };
        let mut footer = Vec::new();
        let (clocks, sites) = (ClockPool::new(), SiteRegistry::new());
        encode_footer(
            &mut footer,
            "w",
            SimTime::ZERO,
            &[meta],
            &[],
            &clocks,
            &sites,
        )
        .unwrap();
        let err = open_err("meta-overflow", &with_footer(HEAD_MAGIC, &footer));
        let needle = "catalog entry for obj#0 out of bounds";
        assert!(err.to_string().contains(needle), "{err}");
    }

    #[test]
    fn writer_rejects_a_pool_without_the_empty_snapshot_at_id_0() {
        let path = tmpfile("writer-pool");
        let mut clocks = ClockPool::new();
        clocks.try_push(ClockSnapshot::from_entries([(ThreadId(0), 1)]));
        // Drop the empty snapshot at id 0, as a hand-edited trace could.
        let json = serde_json::to_string(&clocks).unwrap();
        let full: ClockPool = serde_json::from_str(&json.replace("{\"entries\":{}},", "")).unwrap();
        assert!(!full.get(ClockId::EMPTY).is_empty());
        let err = SegmentWriter::create(&path)
            .unwrap()
            .finish("w", SimTime::ZERO, &full, &SiteRegistry::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("empty snapshot"), "{err}");
        assert!(!path.exists());
    }

    /// Columns holding one `Use` row at 1 µs for each of `objects`.
    fn one_row_each(objects: &[u32]) -> ClassColumns {
        let events: Vec<TraceEvent> = objects
            .iter()
            .map(|&o| TraceEvent {
                time: SimTime::from_us(1),
                thread: ThreadId(0),
                site: SiteId(0),
                obj: ObjectId(o),
                kind: AccessKind::Use,
                dyn_index: 0,
                clock: ClockId::EMPTY,
            })
            .collect();
        ClassColumns::build_in(&events, |_| true, &mut Default::default())
    }

    #[test]
    fn writer_rejects_out_of_order_objects_and_cleans_up_on_drop() {
        let path = tmpfile("writer-order");
        let cols = one_row_each(&[1, 5]);
        let mut w = SegmentWriter::create(&path).unwrap();
        let tmp = w.tmp.clone();
        w.append(SegmentClass::MemOrder, &cols, 1).unwrap();
        let err = w.append(SegmentClass::MemOrder, &cols, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("ascending object order"), "{err}");
        let err = w.append(SegmentClass::MemOrder, &cols, 0).unwrap_err();
        assert!(err.to_string().contains("ascending object order"), "{err}");
        // A different class keeps its own order cursor.
        w.append(SegmentClass::Tsv, &cols, 0).unwrap();
        // Segments stay in catalog order: no MemOrder after a Tsv one.
        let err = w.append(SegmentClass::MemOrder, &cols, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("after a Tsv segment"), "{err}");
        assert!(tmp.exists());
        drop(w);
        assert!(!tmp.exists(), "abandoned writer must remove its temp file");
        assert!(
            !path.exists(),
            "unfinished file must not appear under the final name"
        );
    }

    #[test]
    fn encode_rejects_empty_and_ragged_segments() {
        let path = tmpfile("writer-ragged");
        let mut w = SegmentWriter::create(&path).unwrap();
        let mut ragged = one_row_each(&[0, 1]);
        ragged.threads.pop();
        let err = w.append(SegmentClass::MemOrder, &ragged, 0).unwrap_err();
        assert!(err.to_string().contains("ragged"), "{err}");
        // Offsets past the rows are ragged too, not a slicing panic.
        let mut past = one_row_each(&[0]);
        past.offsets = vec![0, 2];
        let err = w.append(SegmentClass::MemOrder, &past, 0).unwrap_err();
        assert!(err.to_string().contains("ragged"), "{err}");
        let mut empty = one_row_each(&[0, 1]);
        empty.offsets = vec![0, 0, 2];
        let err = w.append(SegmentClass::MemOrder, &empty, 0).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn missing_file_stays_not_found_not_invalid() {
        let err = SegmentReader::open(tmpfile("absent")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn garbage_file_is_invalid_data() {
        let path = tmpfile("garbage");
        fs::write(&path, b"this is not a segment file at all........").unwrap();
        let err = SegmentReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_file(&path);
    }
}
