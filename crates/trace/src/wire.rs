//! The serve ingest wire format: length-prefixed binary frames.
//!
//! A client session streams its trace to `waffle serve` as a sequence of
//! frames over a byte stream (Unix socket in the CLI; the codec itself is
//! transport-agnostic and pure — it only touches `Read`/`Write`):
//!
//! ```text
//! frame   := len:u32 LE | type:u8 | payload[len-1]
//! session := Hello Sites* Clocks* Events* … Finish
//! ```
//!
//! - **Hello** opens a session and names the workload.
//! - **Sites** appends site definitions in dense registration order; the
//!   ids events reference are implied by arrival order (the first defined
//!   site is id 0). Incremental: later Sites frames extend the table.
//! - **Clocks** appends vector-clock snapshots in dense pool order
//!   starting at id 1 (id 0 is always the empty snapshot). The producer
//!   interns on its side; the server pools them without rescanning. Each
//!   snapshot's entries ascend by thread with non-zero values, the form
//!   [`ClockSnapshot::iter`] yields; anything else is `InvalidData`.
//! - **Events** carries packed 25-byte rows
//!   (`time:u64 | thread:u32 | site:u32 | obj:u32 | kind:u8 | clock:u32`),
//!   non-decreasing in time within the session. `dyn_index` is not
//!   carried (analysis never reads it) and decodes as 0.
//! - **Finish** closes the session with the trace's end time; the server
//!   answers with one **Report** frame (the analysis JSON) or an
//!   **Error** frame naming what was rejected.
//!
//! Every frame is bounded by [`MAX_FRAME_BYTES`]; an oversized length
//! prefix is `InvalidData` *before* any allocation, and a body is
//! allocated as its bytes arrive, so a malicious or corrupt length can't
//! balloon server memory. The Sites and Clocks payloads are encoded by
//! `crate::codec`, which the segment-file footer shares.

use std::io::{self, Read, Write};

use waffle_mem::{AccessKind, ObjectId, SiteId};
use waffle_sim::{SimTime, ThreadId};
use waffle_vclock::ClockSnapshot;

use crate::codec::{invalid, kind_from_tag, kind_tag, put_clocks, put_sites, Cursor};
use crate::event::TraceEvent;
use crate::index::ClockId;

/// Upper bound on one frame's payload: 16 MiB (≈670k events per Events
/// frame) — far above any sane batch, low enough that a corrupt length
/// prefix cannot allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// The most [`read_frame`] allocates for a frame body before any of its
/// bytes arrive; larger bodies grow as they are read.
const FIRST_READ_BYTES: usize = 64 << 10;

/// Bytes one event occupies on the wire (time 8 + thread 4 + site 4 +
/// obj 4 + kind 1 + clock 4).
pub const WIRE_EVENT_BYTES: usize = 25;

const TAG_HELLO: u8 = 1;
const TAG_SITES: u8 = 2;
const TAG_CLOCKS: u8 = 3;
const TAG_EVENTS: u8 = 4;
const TAG_FINISH: u8 = 5;
const TAG_REPORT: u8 = 6;
const TAG_ERROR: u8 = 7;

/// One ingest protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Opens a session for the named workload.
    Hello {
        /// Workload the session's events belong to.
        workload: String,
    },
    /// Appends site definitions in dense registration order.
    Sites(Vec<(String, AccessKind)>),
    /// Appends clock snapshots in dense pool order (continuing after the
    /// implicit empty snapshot at id 0).
    Clocks(Vec<ClockSnapshot<ThreadId>>),
    /// A batch of events, non-decreasing in time.
    Events(Vec<TraceEvent>),
    /// Ends the session.
    Finish {
        /// End-to-end virtual time of the traced run.
        end_time: SimTime,
    },
    /// Server → client: the session's analysis report JSON.
    Report(String),
    /// Server → client: the session was rejected; the payload says why.
    Error(String),
}

/// Serializes `frame` into a length-prefixed byte vector (the exact bytes
/// [`write_frame`] emits).
pub fn encode_frame(frame: &Frame) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    let tag = match frame {
        Frame::Hello { workload } => {
            payload.extend_from_slice(workload.as_bytes());
            TAG_HELLO
        }
        Frame::Sites(sites) => {
            put_sites(
                &mut payload,
                sites.iter().map(|(name, kind)| (name.as_str(), *kind)),
            );
            TAG_SITES
        }
        Frame::Clocks(snaps) => {
            put_clocks(&mut payload, snaps);
            TAG_CLOCKS
        }
        Frame::Events(events) => {
            payload.reserve(4 + events.len() * WIRE_EVENT_BYTES);
            payload.extend_from_slice(&(events.len() as u32).to_le_bytes());
            for e in events {
                payload.extend_from_slice(&e.time.as_us().to_le_bytes());
                payload.extend_from_slice(&e.thread.0.to_le_bytes());
                payload.extend_from_slice(&e.site.0.to_le_bytes());
                payload.extend_from_slice(&e.obj.0.to_le_bytes());
                payload.push(kind_tag(e.kind));
                payload.extend_from_slice(&e.clock.0.to_le_bytes());
            }
            TAG_EVENTS
        }
        Frame::Finish { end_time } => {
            payload.extend_from_slice(&end_time.as_us().to_le_bytes());
            TAG_FINISH
        }
        Frame::Report(json) => {
            payload.extend_from_slice(json.as_bytes());
            TAG_REPORT
        }
        Frame::Error(message) => {
            payload.extend_from_slice(message.as_bytes());
            TAG_ERROR
        }
    };
    if payload.len() + 1 > MAX_FRAME_BYTES {
        return Err(invalid(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(5 + payload.len());
    out.extend_from_slice(&(payload.len() as u32 + 1).to_le_bytes());
    out.push(tag);
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Writes one frame to `w`.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame)?)
}

fn utf8(bytes: &[u8]) -> io::Result<String> {
    String::from_utf8(bytes.to_vec()).map_err(|e| invalid(format!("non-UTF-8 payload: {e}")))
}

/// Reads one frame from `r`. `Ok(None)` on clean EOF at a frame boundary;
/// EOF mid-frame is `UnexpectedEof`, a malformed frame is `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(invalid("zero-length frame (missing type byte)"));
    }
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    // Grow the body as its bytes arrive, at most doubling per step, so a
    // length prefix alone cannot make the reader allocate up to the limit.
    let mut body = Vec::new();
    while body.len() < len {
        let filled = body.len();
        let step = (len - filled).min(filled.max(FIRST_READ_BYTES));
        body.reserve_exact(step);
        body.resize(filled + step, 0);
        r.read_exact(&mut body[filled..])?;
    }
    let (tag, payload) = (body[0], &body[1..]);
    let mut c = Cursor::new(payload, "frame payload");
    let frame = match tag {
        TAG_HELLO => Frame::Hello {
            workload: utf8(payload)?,
        },
        TAG_SITES => {
            let sites = c.sites()?;
            c.done()?;
            Frame::Sites(sites)
        }
        TAG_CLOCKS => {
            let snaps = c.clocks()?;
            c.done()?;
            Frame::Clocks(snaps)
        }
        TAG_EVENTS => {
            let n = c.count(WIRE_EVENT_BYTES)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let time = SimTime::from_us(c.u64()?);
                let thread = ThreadId(c.u32()?);
                let site = SiteId(c.u32()?);
                let obj = ObjectId(c.u32()?);
                let kind = kind_from_tag(c.u8()?)
                    .ok_or_else(|| invalid("unknown access-kind tag in Events frame"))?;
                let clock = ClockId(c.u32()?);
                events.push(TraceEvent {
                    time,
                    thread,
                    site,
                    obj,
                    kind,
                    dyn_index: 0,
                    clock,
                });
            }
            c.done()?;
            Frame::Events(events)
        }
        TAG_FINISH => {
            let end_time = SimTime::from_us(c.u64()?);
            c.done()?;
            Frame::Finish { end_time }
        }
        TAG_REPORT => Frame::Report(utf8(payload)?),
        TAG_ERROR => Frame::Error(utf8(payload)?),
        other => return Err(invalid(format!("unknown frame type {other}"))),
    };
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = encode_frame(&frame).unwrap();
        let mut r = &bytes[..];
        let got = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(got, frame);
        assert!(
            read_frame(&mut r).unwrap().is_none(),
            "clean EOF after frame"
        );
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip(Frame::Hello {
            workload: "wl.demo".into(),
        });
        round_trip(Frame::Sites(vec![
            ("a.init".into(), AccessKind::Init),
            ("b.use".into(), AccessKind::Use),
            ("c.call".into(), AccessKind::UnsafeApiCall),
        ]));
        round_trip(Frame::Clocks(vec![
            ClockSnapshot::from_entries([(ThreadId(0), 3), (ThreadId(2), 1)]),
            ClockSnapshot::new(),
        ]));
        round_trip(Frame::Events(vec![
            TraceEvent {
                time: SimTime::from_us(17),
                thread: ThreadId(1),
                site: SiteId(2),
                obj: ObjectId(3),
                kind: AccessKind::Dispose,
                dyn_index: 0,
                clock: ClockId(4),
            },
            TraceEvent {
                time: SimTime::from_us(18),
                thread: ThreadId(0),
                site: SiteId(0),
                obj: ObjectId(0),
                kind: AccessKind::Init,
                dyn_index: 0,
                clock: ClockId::EMPTY,
            },
        ]));
        round_trip(Frame::Finish {
            end_time: SimTime::from_ms(9),
        });
        round_trip(Frame::Report("{\"plan\":null}".into()));
        round_trip(Frame::Error("no Hello".into()));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.push(TAG_EVENTS);
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn lying_counts_and_truncation_are_invalid_data() {
        // An Events frame whose count claims more rows than the payload holds.
        let mut bytes = encode_frame(&Frame::Events(vec![])).unwrap();
        // Patch the count to 1000 with no rows behind it.
        let payload_start = 5;
        bytes[payload_start..payload_start + 4].copy_from_slice(&1000u32.to_le_bytes());
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // EOF mid-frame is UnexpectedEof, distinct from a clean boundary.
        let full = encode_frame(&Frame::Hello {
            workload: "x".into(),
        })
        .unwrap();
        let err = read_frame(&mut &full[..3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_frame_type_is_invalid_data() {
        let bytes = [1u8, 0, 0, 0, 0xEE];
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown frame type"), "{err}");
    }
}
