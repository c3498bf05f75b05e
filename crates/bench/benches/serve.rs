//! `serve`: streamed-session ingest throughput and bounded resident
//! memory, written to `BENCH_serve.json`.
//!
//! This drives the server's own per-session state machine,
//! [`ServeSession`], without the socket: each client frame is encoded and
//! decoded through the real wire codec and handed to the session, which
//! pushes it into its index builder, seals a generation file every
//! `seal_events` events, folds each generation into its incremental
//! analysis, and on Finish seals the remainder and replays the generation
//! files, one open at a time, through the streaming interference pass.
//! That is exactly the per-session work a `waffle serve` worker does,
//! minus the socket's kernel copies and the reader/worker hand-off, which
//! on the 2-CPU box the ledgers record would be measured instead of the
//! engine. The one difference is the analyzer config: the stream's
//! [`Stream::config`] rather than the server's default.
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

use std::path::Path;
use std::time::Instant;

use waffle_analysis::{analyze_jobs, analyze_tsv_indexed};
use waffle_bench::{alloc, Ledger, Stream};
use waffle_core::{session_report_json, ServeOptions, ServeSession};
use waffle_sim::SimTime;
use waffle_trace::{encode_frame, read_frame, Frame, TraceIndex};

/// Events in the headline session; the sweep adds a quarter-size one.
const EVENTS: u64 = 2_000_000;
/// Events per wire `Events` frame (the client batch size).
const BATCH: usize = 4096;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Encodes a frame and decodes it back — the wire-codec cost of the
/// socket path, without the socket — then hands it to the session.
fn feed(session: &mut ServeSession, frame: &Frame) -> Option<String> {
    let bytes = encode_frame(frame).expect("frame encodes");
    let frame = read_frame(&mut &bytes[..])
        .expect("frame decodes")
        .expect("frame present");
    session.handle(frame).expect("session accepts the frame")
}

/// One streamed session's measurements.
struct StreamRun {
    /// Wall nanoseconds of the streaming loop (decode, push, seal, absorb)
    /// plus the session's remainder seal at Finish.
    ingest_ns: u64,
    /// Wall nanoseconds including the generation replay, interference,
    /// and the report.
    total_ns: u64,
    /// The finished session report JSON.
    report: String,
    /// Generations the session sealed.
    generations: u64,
    /// Peak live heap bytes before Finish.
    ingest_peak: u64,
}

/// Streams `n` generated events through one [`ServeSession`] with the
/// server's default options (`jobs = 1`, a 64k-event seal threshold).
fn streamed_session(src: &Stream, n: u64, opts: &ServeOptions) -> StreamRun {
    // An absolute peak, live bytes before the session included: the
    // `ingest_peak_ratio` gate is defined on it.
    alloc::reset_peak();
    let t0 = Instant::now();
    let mut session = ServeSession::new(n, opts, Stream::config());
    let hello = Frame::Hello {
        workload: format!("bench.stream.{n}"),
    };
    feed(&mut session, &hello);
    let site_defs = src
        .sites
        .iter()
        .map(|(_, info)| (info.name.clone(), info.kind))
        .collect();
    feed(&mut session, &Frame::Sites(site_defs));
    let snaps = src.clocks.snapshots();
    if snaps.len() > 1 {
        feed(&mut session, &Frame::Clocks(snaps[1..].to_vec()));
    }
    let mut i = 0u64;
    while i < n {
        let hi = (i + BATCH as u64).min(n);
        feed(
            &mut session,
            &Frame::Events((i..hi).map(|k| src.event(k)).collect()),
        );
        i = hi;
    }
    // Peak and time are read before Finish. The remainder seal holds
    // fewer events than a full one, so the full seals bound its peak; its
    // time is added from the session's own `ingest/finish_seal` below.
    let ingest_peak = alloc::peak();
    let streamed_ns = t0.elapsed().as_nanos() as u64;
    let finish = Frame::Finish {
        end_time: SimTime::from_us(n + 2),
    };
    let report = feed(&mut session, &finish).expect("Finish answers with the report");
    let total_ns = t0.elapsed().as_nanos() as u64;
    let m = session.metrics();
    StreamRun {
        ingest_ns: streamed_ns + m.counter("ingest/finish_seal/total_us") * 1000,
        total_ns,
        report,
        generations: m.counter("ingest/sealed_generations"),
        ingest_peak,
    }
}

fn main() {
    // Relative to the working directory and the same on every machine:
    // the paths the run holds are part of its peak-heap counters.
    let scratch = Path::new("bench-scratch").join("serve");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    // The socket is never bound: a session reads only the directory and
    // the thresholds.
    let opts = ServeOptions::new(scratch.join("unbound.sock"), &scratch);
    let mut ledger = Ledger::new("serve");
    let min_rate = ledger.env_param("min_ingest_rate", "WAFFLE_SERVE_MIN_RATE", 1_000_000);
    ledger
        .param("events", EVENTS)
        .param("batch_events", BATCH as u64)
        .param("seal_events", opts.seal_events as u64);

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
        let run = streamed_session(&src, n, &opts);
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
            .counter(&format!("ingest/{n}/generations"), run.generations)
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
