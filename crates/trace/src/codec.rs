//! The little-endian byte codec shared by the serve wire format
//! ([`crate::wire`]) and the segment-file footer ([`crate::segment`]).
//!
//! Both carry the same two tables — site definitions and clock
//! snapshots — so both use one encoding for them:
//!
//! ```text
//! str    := len:u32 | utf8[len]
//! sites  := count:u32 | (kind:u8 | name:str){count}
//! clocks := count:u32 | (entries:u32 | (thread:u32 | value:u64){entries}){count}
//! ```
//!
//! Decoding goes through one bounded [`Cursor`]: every count is checked
//! against the bytes that remain before anything is reserved, so a lying
//! count cannot allocate more than the (already size-bounded) input holds.
//! A snapshot's entries must be in the one form an encoder emits —
//! strictly ascending threads, non-zero values — so no two byte strings
//! decode to the same snapshot.

use std::io;

use waffle_mem::AccessKind;
use waffle_sim::ThreadId;
use waffle_vclock::ClockSnapshot;

pub(crate) fn invalid(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// On-disk and on-wire tag for an [`AccessKind`].
pub(crate) fn kind_tag(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Init => 0,
        AccessKind::Use => 1,
        AccessKind::Dispose => 2,
        AccessKind::UnsafeApiCall => 3,
    }
}

/// Inverse of [`kind_tag`]; `None` for unknown tags.
pub(crate) fn kind_from_tag(tag: u8) -> Option<AccessKind> {
    Some(match tag {
        0 => AccessKind::Init,
        1 => AccessKind::Use,
        2 => AccessKind::Dispose,
        3 => AccessKind::UnsafeApiCall,
        _ => return None,
    })
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a `sites` payload.
pub(crate) fn put_sites<'a>(
    buf: &mut Vec<u8>,
    sites: impl ExactSizeIterator<Item = (&'a str, AccessKind)>,
) {
    put_u32(buf, sites.len() as u32);
    for (name, kind) in sites {
        buf.push(kind_tag(kind));
        put_str(buf, name);
    }
}

/// Appends a `clocks` payload.
pub(crate) fn put_clocks(buf: &mut Vec<u8>, snaps: &[ClockSnapshot<ThreadId>]) {
    put_u32(buf, snaps.len() as u32);
    for snap in snaps {
        put_u32(buf, snap.len() as u32);
        for (tid, val) in snap.iter() {
            put_u32(buf, tid.0);
            put_u64(buf, *val);
        }
    }
}

/// A bounded reader over one decoded unit (a frame payload or a footer);
/// `what` names that unit in every error.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, pos: 0, what }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(invalid(format!("{} truncated", self.what)));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take(4) yields 4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take(8) yields 8 bytes"),
        ))
    }

    pub(crate) fn str(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| invalid(format!("non-UTF-8 string: {e}")))
    }

    /// A count-prefixed list can't hold more entries than bytes remain;
    /// checking it first keeps a corrupt count from pre-allocating
    /// gigabytes.
    pub(crate) fn count(&mut self, min_entry_bytes: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_entry_bytes) > self.remaining() {
            return Err(invalid(format!("count {n} exceeds {}", self.what)));
        }
        Ok(n)
    }

    pub(crate) fn done(&self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(invalid(format!("trailing bytes after {}", self.what)));
        }
        Ok(())
    }

    /// Reads a `sites` payload.
    pub(crate) fn sites(&mut self) -> io::Result<Vec<(String, AccessKind)>> {
        let n = self.count(5)?;
        let mut sites = Vec::with_capacity(n);
        for _ in 0..n {
            let kind = kind_from_tag(self.u8()?)
                .ok_or_else(|| invalid(format!("unknown access-kind tag in {}", self.what)))?;
            sites.push((self.str()?, kind));
        }
        Ok(sites)
    }

    /// Reads a `clocks` payload, rejecting non-canonical snapshots.
    pub(crate) fn clocks(&mut self) -> io::Result<Vec<ClockSnapshot<ThreadId>>> {
        let n = self.count(4)?;
        let mut snaps = Vec::with_capacity(n);
        for _ in 0..n {
            let entries = self.count(12)?;
            let mut snap = Vec::with_capacity(entries);
            for _ in 0..entries {
                let tid = self.u32()?;
                let val = self.u64()?;
                let ascending = snap.last().is_none_or(|&(ThreadId(prev), _)| prev < tid);
                if val == 0 || !ascending {
                    return Err(invalid(format!(
                        "non-canonical clock snapshot in {} (threads must ascend, values be non-zero)",
                        self.what
                    )));
                }
                snap.push((ThreadId(tid), val));
            }
            snaps.push(ClockSnapshot::from_entries(snap));
        }
        Ok(snaps)
    }
}
