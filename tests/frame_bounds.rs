//! Wire frames are untrusted input: a truncated or lying frame is a typed
//! error with bounded allocation, never a panic.
//!
//! A length prefix is checked against `MAX_FRAME_BYTES` before anything is
//! read, but a prefix at the limit is legal. The reader must still not
//! allocate the claimed body before its bytes arrive: a 5-byte input
//! claiming a 16 MiB frame has to fail cheaply.

use std::io::ErrorKind;
use std::sync::Mutex;

use waffle_bench::alloc;
use waffle_repro::mem::{AccessKind, ObjectId, SiteId};
use waffle_repro::sim::{SimTime, ThreadId};
use waffle_repro::trace::{encode_frame, read_frame, ClockId, Frame, TraceEvent, MAX_FRAME_BYTES};
use waffle_repro::vclock::ClockSnapshot;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The counting allocator sees every thread of the process, so each test
/// here holds this lock: no other test may allocate while the peak is
/// being measured.
static SERIAL: Mutex<()> = Mutex::new(());

/// One frame of every type, each with a non-trivial payload.
fn every_frame() -> Vec<Frame> {
    let event = |t: u64, clock: u32| TraceEvent {
        time: SimTime::from_us(t),
        thread: ThreadId(1),
        site: SiteId(0),
        obj: ObjectId(2),
        kind: AccessKind::Use,
        dyn_index: 0,
        clock: ClockId(clock),
    };
    vec![
        Frame::Hello {
            workload: "bounds.demo".into(),
        },
        Frame::Sites(vec![
            ("a.init".into(), AccessKind::Init),
            ("b.use".into(), AccessKind::Use),
        ]),
        Frame::Clocks(vec![
            ClockSnapshot::from_entries([(ThreadId(0), 3), (ThreadId(2), 1)]),
            ClockSnapshot::new(),
        ]),
        Frame::Events(vec![event(5, 1), event(9, 0)]),
        Frame::Finish {
            end_time: SimTime::from_ms(4),
        },
        Frame::Report("{\"plan\":null}".into()),
        Frame::Error("Events before Hello".into()),
    ]
}

#[test]
fn a_length_prefix_at_the_limit_allocates_only_what_arrives() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut bytes = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    bytes.push(4); // the Events tag, and nothing behind it
    let base = alloc::reset_peak();
    let err = read_frame(&mut &bytes[..]).unwrap_err();
    let peak = alloc::peak() - base;
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    assert!(
        peak < 128 << 10,
        "a 5-byte input claiming {MAX_FRAME_BYTES} bytes peaked at {peak} bytes"
    );
}

#[test]
fn every_proper_prefix_of_every_frame_is_a_typed_error() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(read_frame(&mut &[][..]).unwrap().is_none());
    for frame in every_frame() {
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(read_frame(&mut &bytes[..]).unwrap(), Some(frame.clone()));
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    ErrorKind::UnexpectedEof | ErrorKind::InvalidData
                ),
                "{frame:?} cut at {cut} of {}: {err}",
                bytes.len()
            );
        }
    }
}
