//! `serve`: streamed-session ingest throughput and bounded resident
//! memory, written to `BENCH_serve.json`.
//!
//! This drives the serve-side hot path without the socket: client frames
//! are encoded and decoded through the real wire codec, pushed through a
//! [`SessionIndexBuilder`], sealed into generation segment files at a
//! fixed threshold, folded into an [`IncrementalAnalysis`] as each
//! generation seals, and finished by replaying the generation files, one
//! open at a time, through the streaming interference pass — exactly the
//! per-session work `waffle serve` does, minus kernel socket copies
//! (which a loopback Unix socket on a 1-core box would measure instead of
//! the engine).
//!
//! The events come from the synthetic [`Stream`] the `scale` bench scans,
//! generated batch by batch (never a whole-trace vector), so the measured
//! resident cost is the builder's pending window, the per-generation seal
//! output, and the fold's δ-window tails.
//!
//! The finished report must be byte-identical to the batch analyzer over
//! the same trace (an assert). Two gates:
//! 1. `ingest_events_per_sec` meets the floor (`WAFFLE_SERVE_MIN_RATE`,
//!    default 1M events/sec);
//! 2. `ingest_peak_ratio` ≤ 1.25: the streaming loop's peak heap is
//!    seal-threshold-shaped, not session-shaped, so it stays flat as the
//!    stream grows 4×.

use std::path::{Path, PathBuf};
use std::time::Instant;

use waffle_analysis::{analyze_jobs, analyze_tsv_indexed, IncrementalAnalysis};
use waffle_bench::{alloc, Ledger, Stream};
use waffle_core::session_report_json;
use waffle_sim::SimTime;
use waffle_trace::{
    encode_frame, read_frame, Frame, SegmentReader, SessionIndexBuilder, TraceIndex,
};

/// Events in the headline session; the sweep adds a quarter-size one.
const EVENTS: u64 = 2_000_000;
/// Events per wire `Events` frame (the client batch size).
const BATCH: usize = 4096;
/// Generation seal threshold, matching the `waffle serve` default.
const SEAL_EVENTS: usize = 64 << 10;
/// Resident budget handed to the finish-time interference pass.
const FINISH_BUDGET: u64 = 64 << 20;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Encodes a frame and decodes it back — the wire-codec cost of the
/// socket path, without the socket.
fn roundtrip(frame: &Frame) -> Frame {
    let bytes = encode_frame(frame).expect("frame encodes");
    read_frame(&mut &bytes[..])
        .expect("frame decodes")
        .expect("frame present")
}

/// One streamed session's measurements.
struct StreamRun {
    /// Wall nanoseconds of the streaming loop (decode, push, seal, absorb).
    ingest_ns: u64,
    /// Wall nanoseconds including the generation replay, interference,
    /// and the report.
    total_ns: u64,
    /// The finished session report JSON.
    report: String,
    /// Generations the session sealed.
    generations: u32,
    /// Peak live heap bytes during the streaming loop.
    ingest_peak: u64,
}

/// Streams `n` generated events through the full serve-side session path
/// with `jobs = 1`, exactly as one `waffle serve` worker handles them.
fn streamed_session(src: &Stream, n: u64, scratch: &Path) -> StreamRun {
    let dir = scratch.join(format!("session-{n}"));
    std::fs::create_dir_all(&dir).expect("session dir");
    // An absolute peak, live bytes before the session included: the
    // `ingest_peak_ratio` gate is defined on it.
    alloc::reset_peak();
    let t0 = Instant::now();

    let Frame::Hello { workload } = roundtrip(&Frame::Hello {
        workload: format!("bench.stream.{n}"),
    }) else {
        unreachable!("Hello round-trips")
    };
    let mut b = SessionIndexBuilder::new(workload);
    let site_defs = src
        .sites
        .iter()
        .map(|(_, info)| (info.name.clone(), info.kind))
        .collect();
    let Frame::Sites(defs) = roundtrip(&Frame::Sites(site_defs)) else {
        unreachable!("Sites round-trips")
    };
    b.add_sites(&defs).expect("site table streams");
    let snaps = src.clocks.snapshots();
    if snaps.len() > 1 {
        let Frame::Clocks(snaps) = roundtrip(&Frame::Clocks(snaps[1..].to_vec())) else {
            unreachable!("Clocks round-trips")
        };
        b.add_clocks(snaps).expect("clock pool streams");
    }

    let mut inc = IncrementalAnalysis::new(Stream::config(), SimTime::from_ms(1));
    let mut generations: Vec<PathBuf> = Vec::new();
    let seal = |b: &mut SessionIndexBuilder,
                inc: &mut IncrementalAnalysis,
                generations: &mut Vec<PathBuf>| {
        let path = dir.join(format!("gen-{}.wseg", generations.len()));
        let out = b.seal(&path).expect("generation seals");
        inc.absorb(&out.mem, &out.tsv, b.clocks(), b.last_time(), 1);
        generations.push(path);
    };

    let mut i = 0u64;
    while i < n {
        let hi = (i + BATCH as u64).min(n);
        let Frame::Events(evs) = roundtrip(&Frame::Events((i..hi).map(|k| src.event(k)).collect()))
        else {
            unreachable!("Events round-trips")
        };
        b.push_batch(evs).expect("stream is time-ordered");
        if b.pending_events() >= SEAL_EVENTS {
            seal(&mut b, &mut inc, &mut generations);
        }
        i = hi;
    }
    let Frame::Finish { end_time } = roundtrip(&Frame::Finish {
        end_time: SimTime::from_us(n + 2),
    }) else {
        unreachable!("Finish round-trips")
    };
    b.declare_end_time(end_time);
    if b.pending_events() > 0 || generations.is_empty() {
        seal(&mut b, &mut inc, &mut generations);
    }
    let ingest_peak = alloc::peak();
    let ingest_ns = t0.elapsed().as_nanos() as u64;

    let readers = generations
        .iter()
        .map(|p| SegmentReader::open(p).expect("generation opens"));
    let (plan, tsv) = inc
        .finish(b.workload(), readers, FINISH_BUDGET)
        .expect("incremental finish");
    let report = session_report_json(&plan, &tsv).expect("report serializes");
    let total_ns = t0.elapsed().as_nanos() as u64;
    let run = StreamRun {
        ingest_ns,
        total_ns,
        report,
        generations: b.generations(),
        ingest_peak,
    };
    std::fs::remove_dir_all(&dir).ok();
    run
}

fn main() {
    let mut ledger = Ledger::new("serve");
    let min_rate = ledger.env_param("min_ingest_rate", "WAFFLE_SERVE_MIN_RATE", 1_000_000);
    ledger
        .param("events", EVENTS)
        .param("batch_events", BATCH as u64)
        .param("seal_events", SEAL_EVENTS as u64);
    // Relative to the working directory and the same on every machine:
    // the paths the run holds are part of its peak-heap counters.
    let scratch = Path::new("bench-scratch").join("serve");
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    // ---- Batch reference over the same stream, for byte-identity. ----
    println!("generating the {EVENTS}-event batch reference…");
    let src = Stream::new();
    let config = Stream::config();
    let trace = src.trace(EVENTS);
    let plan_ref = analyze_jobs(&trace, &config, 1);
    assert!(
        !plan_ref.candidates.is_empty(),
        "the synthetic stream must produce candidates or the bench is vacuous"
    );
    let tsv_ref = analyze_tsv_indexed(
        &TraceIndex::build(&trace),
        config.delta,
        SimTime::from_ms(1),
        1,
    );
    let want = session_report_json(&plan_ref, &tsv_ref).expect("report serializes");
    drop(plan_ref);
    drop(trace);

    // ---- The headline session (trace dropped, so the ingest peak is
    // honest), then the same shape at a quarter of the size: the peak
    // must be seal-threshold-shaped, not session-shaped. ----
    let mut peaks = Vec::new();
    for n in [EVENTS, EVENTS / 4] {
        let run = streamed_session(&src, n, &scratch);
        if n == EVENTS {
            assert!(
                run.report == want,
                "streamed session report diverged from the batch report"
            );
            let rate = n as f64 * 1e9 / run.ingest_ns as f64;
            ledger.stage("end_to_end", run.total_ns, n).min(
                "ingest_events_per_sec",
                rate,
                min_rate as f64,
            );
        }
        println!(
            "ingest {n}: {:.2}s, {} generations, peak {:.1} MiB",
            run.ingest_ns as f64 / 1e9,
            run.generations,
            run.ingest_peak as f64 / (1 << 20) as f64
        );
        ledger
            .stage(&format!("ingest/{n}"), run.ingest_ns, n)
            .counter(
                &format!("ingest/{n}/generations"),
                u64::from(run.generations),
            )
            .counter(&format!("ingest/{n}/peak_alloc_bytes"), run.ingest_peak);
        peaks.push(run.ingest_peak);
    }
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::remove_dir("bench-scratch").ok(); // only when no other bench uses it
    let peak_min = peaks.iter().copied().min().unwrap();
    let peak_max = peaks.iter().copied().max().unwrap();
    assert!(peak_min > 0, "the counting allocator saw no heap");
    ledger.max("ingest_peak_ratio", peak_max as f64 / peak_min as f64, 1.25);
    ledger.write();
}
