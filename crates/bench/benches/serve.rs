//! `serve`: streamed-session ingest throughput and bounded resident
//! memory, written to `BENCH_serve.json` (`WAFFLE_BENCH_SERVE_OUT`
//! overrides the path).
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
//! The stream shape mirrors the `scale` bench: 4096 objects round-robined
//! over four threads, per-object site trios, heavily-reused interned chain
//! snapshots with a handful of genuinely concurrent objects carrying the
//! candidate pairs.
//!
//! Two claims, asserted before the report is written:
//! 1. sustained ingest meets the floor (`WAFFLE_SERVE_MIN_RATE`, default
//!    1M events/sec) while the finished report stays byte-identical to
//!    the batch analyzer over the same trace;
//! 2. the streaming loop's peak heap is seal-threshold-shaped, not
//!    session-shaped: flat (±25%) as the stream grows 4×. Events are
//!    generated batch-by-batch (never a whole-trace vector), so the
//!    measured resident cost is the builder's pending window, the
//!    per-generation seal output, and the fold's δ-window tails.
//!
//! `WAFFLE_SERVE_EVENTS` scales the headline stream (default 2_000_000).

use std::path::{Path, PathBuf};
use std::time::Instant;

use waffle_analysis::{analyze_jobs, analyze_tsv_indexed, AnalyzerConfig, IncrementalAnalysis};
use waffle_bench::{ServeBenchReport, ServeSweepPoint};
use waffle_core::session_report_json;
use waffle_mem::{AccessKind, ObjectId, SiteId, SiteRegistry};
use waffle_sim::{SimTime, ThreadId};
use waffle_trace::{
    encode_frame, read_frame, ClockId, ClockPool, Frame, SegmentReader,
    SessionIndexBuilder, Trace, TraceEvent, TraceIndex,
};
use waffle_vclock::ClockSnapshot;

/// Objects the events round-robin over (the shardable dimension).
const OBJECTS: u64 = 4096;
/// Interned chain snapshots; coprime with [`OBJECTS`] so window pairs
/// cycle through distinct (but bounded) clock-pair keys.
const CHAIN_CLOCKS: u64 = 509;
/// Entries per chain snapshot — wide clocks keep the pruning comparison
/// honest for a many-thread application.
const CHAIN_ENTRIES: u32 = 64;
/// Events per wire `Events` frame (the client batch size).
const BATCH: usize = 4096;
/// Generation seal threshold, matching the `waffle serve` default.
const SEAL_EVENTS: usize = 64 << 10;
/// Resident budget handed to the finish-time interference pass.
const FINISH_BUDGET: u64 = 64 << 20;

/// Heap-byte counter wrapping the system allocator (peak-RSS proxy; the
/// workspace has no allocator introspection deps).
mod alloc_counter {
    #![allow(unsafe_code)] // GlobalAlloc is inherently unsafe; bench-only code.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    /// Pass-through allocator that tracks live and peak heap bytes.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                let live =
                    LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
                PEAK.fetch_max(live, Ordering::Relaxed);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
    }

    /// Restarts the peak watermark from the current live total.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Peak live heap bytes since the last [`reset_peak`].
    pub fn peak() -> u64 {
        PEAK.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Bounded-size stream source: the site registry, clock pool, and
/// per-object site trios are materialized once (O(`OBJECTS`)); events are
/// generated on demand, so a 4×-longer session costs no extra resident
/// memory on the client side of the measurement.
struct EventSource {
    sites: SiteRegistry,
    clocks: ClockPool,
    trios: Vec<(SiteId, SiteId, SiteId)>,
    chain: Vec<ClockId>,
    conc: Vec<ClockId>,
}

impl EventSource {
    fn new() -> Self {
        let mut sites = SiteRegistry::new();
        let mut trios = Vec::with_capacity(OBJECTS as usize);
        for o in 0..OBJECTS {
            trios.push((
                sites.register(&format!("o{o}.init"), AccessKind::Init),
                sites.register(&format!("o{o}.use"), AccessKind::Use),
                sites.register(&format!("o{o}.dispose"), AccessKind::Dispose),
            ));
        }
        let mut clocks = ClockPool::new();
        let chain: Vec<_> = (0..CHAIN_CLOCKS)
            .map(|j| {
                clocks.intern(ClockSnapshot::from_entries(
                    (0..CHAIN_ENTRIES).map(|t| (ThreadId(100 + t), (j + 1) * 8 + t as u64)),
                ))
            })
            .collect();
        let conc: Vec<_> = (0..4)
            .map(|t| clocks.intern(ClockSnapshot::from_entries([(ThreadId(t), 1)])))
            .collect();
        Self { sites, clocks, trios, chain, conc }
    }

    /// Event `i`: object `i % OBJECTS` at `i+1` µs, cycling thread and
    /// access kind per round (`Init, Use, Use, Dispose`); ordinary
    /// objects carry chain snapshots, the `obj % 1024 == 0` objects carry
    /// single-entry concurrent snapshots and contribute the candidates.
    fn event(&self, i: u64) -> TraceEvent {
        let obj = i % OBJECTS;
        let round = i / OBJECTS;
        let lane = (round % 4) as usize;
        let trio = self.trios[obj as usize];
        let (site, kind) = match lane {
            0 => (trio.0, AccessKind::Init),
            1 | 2 => (trio.1, AccessKind::Use),
            _ => (trio.2, AccessKind::Dispose),
        };
        TraceEvent {
            time: SimTime::from_us(i + 1),
            thread: ThreadId(lane as u32),
            site,
            obj: ObjectId(obj as u32),
            kind,
            dyn_index: round,
            clock: if obj.is_multiple_of(1024) {
                self.conc[lane]
            } else {
                self.chain[(i % CHAIN_CLOCKS) as usize]
            },
        }
    }

    /// Site definitions in registration order, as a `Sites` frame carries
    /// them.
    fn site_defs(&self) -> Vec<(String, AccessKind)> {
        self.sites.iter().map(|(_, info)| (info.name.clone(), info.kind)).collect()
    }

    /// Materializes the whole stream as a [`Trace`] for the batch
    /// reference analysis.
    fn trace(&self, n: u64) -> Trace {
        Trace {
            workload: format!("bench.serve.{n}"),
            sites: self.sites.clone(),
            events: (0..n).map(|i| self.event(i)).collect(),
            forks: vec![],
            clocks: self.clocks.clone(),
            end_time: SimTime::from_us(n + 2),
        }
    }
}

/// δ covering the three nearest same-object successors (spaced `OBJECTS`
/// µs apart), so the sweep visits ~3 window pairs per event.
fn config() -> AnalyzerConfig {
    AnalyzerConfig {
        delta: SimTime::from_us(OBJECTS * 7 / 2),
        ..AnalyzerConfig::default()
    }
}

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
    /// Wall seconds of the streaming loop (decode, push, seal, absorb).
    ingest_secs: f64,
    /// Wall seconds including the generation replay, interference, and
    /// the report.
    total_secs: f64,
    /// The finished session report JSON.
    report: String,
    /// Generations the session sealed.
    generations: u32,
    /// Peak live heap bytes during the streaming loop.
    ingest_peak: u64,
}

/// Streams `n` generated events through the full serve-side session path
/// with `jobs = 1`, exactly as one `waffle serve` worker handles them.
fn streamed_session(src: &EventSource, n: u64, scratch: &Path, tag: &str) -> StreamRun {
    let dir = scratch.join(format!("session-{tag}"));
    std::fs::create_dir_all(&dir).expect("session dir");
    alloc_counter::reset_peak();
    let t0 = Instant::now();

    let Frame::Hello { workload } = roundtrip(&Frame::Hello {
        workload: format!("bench.serve.{n}"),
    }) else {
        unreachable!("Hello round-trips")
    };
    let mut b = SessionIndexBuilder::new(workload);
    let Frame::Sites(defs) = roundtrip(&Frame::Sites(src.site_defs())) else {
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

    let mut inc = IncrementalAnalysis::new(config(), SimTime::from_ms(1));
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
        let Frame::Events(evs) =
            roundtrip(&Frame::Events((i..hi).map(|k| src.event(k)).collect()))
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
    let ingest_peak = alloc_counter::peak();
    let ingest_secs = t0.elapsed().as_secs_f64();

    let readers = generations
        .iter()
        .map(|p| SegmentReader::open(p).expect("generation opens"));
    let (plan, tsv) = inc
        .finish(b.workload(), readers, FINISH_BUDGET)
        .expect("incremental finish");
    let report = session_report_json(&plan, &tsv).expect("report serializes");
    let total_secs = t0.elapsed().as_secs_f64();
    let run = StreamRun {
        ingest_secs,
        total_secs,
        report,
        generations: b.generations(),
        ingest_peak,
    };
    std::fs::remove_dir_all(&dir).ok();
    run
}

fn main() {
    let n: u64 = std::env::var("WAFFLE_SERVE_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);
    assert!(n >= 100_000, "WAFFLE_SERVE_EVENTS must be at least 100000");
    let min_rate: f64 = std::env::var("WAFFLE_SERVE_MIN_RATE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000.0);
    let scratch = std::env::temp_dir().join(format!("waffle-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    // ---- Batch reference over the same stream, for byte-identity. ----
    println!("generating the {n}-event batch reference…");
    let src = EventSource::new();
    let config = config();
    let trace = src.trace(n);
    let plan_ref = analyze_jobs(&trace, &config, 1);
    assert!(
        !plan_ref.candidates.is_empty(),
        "the synthetic stream must produce candidates or the bench is vacuous"
    );
    let tsv_ref = analyze_tsv_indexed(&TraceIndex::build(&trace), config.delta, SimTime::from_ms(1), 1);
    let want = session_report_json(&plan_ref, &tsv_ref).expect("report serializes");
    drop(plan_ref);
    drop(trace);

    // ---- Headline: full-size streamed session (trace dropped, so the
    // ingest peak is honest). ----
    let full = streamed_session(&src, n, &scratch, "full");
    let report_matches_batch = full.report == want;
    assert!(
        report_matches_batch,
        "streamed session report diverged from the batch report"
    );
    let ingest_rate = n as f64 / full.ingest_secs;
    println!(
        "ingest: {:.2}s ({:.0} events/sec; {:.0} end-to-end), {} generations, peak {:.1} MiB",
        full.ingest_secs,
        ingest_rate,
        n as f64 / full.total_secs,
        full.generations,
        full.ingest_peak as f64 / (1 << 20) as f64
    );

    // ---- Memory sweep: same shape at a quarter of the size; the peak
    // must be seal-threshold-shaped, not session-shaped. ----
    let quarter = streamed_session(&src, n / 4, &scratch, "quarter");
    println!(
        "ingest {}: {:.2}s ({:.0} events/sec), peak {:.1} MiB",
        n / 4,
        quarter.ingest_secs,
        (n / 4) as f64 / quarter.ingest_secs,
        quarter.ingest_peak as f64 / (1 << 20) as f64
    );
    let sweep = vec![
        ServeSweepPoint {
            events: n / 4,
            ingest_events_per_sec: (n / 4) as f64 / quarter.ingest_secs,
            ingest_peak_alloc_bytes: quarter.ingest_peak,
            generations: quarter.generations,
        },
        ServeSweepPoint {
            events: n,
            ingest_events_per_sec: ingest_rate,
            ingest_peak_alloc_bytes: full.ingest_peak,
            generations: full.generations,
        },
    ];
    let peak_min = sweep.iter().map(|p| p.ingest_peak_alloc_bytes).min().unwrap().max(1);
    let peak_max = sweep.iter().map(|p| p.ingest_peak_alloc_bytes).max().unwrap();
    let sweep_peak_ratio = peak_max as f64 / peak_min as f64;
    std::fs::remove_dir_all(&scratch).ok();

    let report = ServeBenchReport {
        events: n,
        batch_events: BATCH as u64,
        seal_events: SEAL_EVENTS as u64,
        generations: full.generations,
        ingest_events_per_sec: ingest_rate,
        end_to_end_events_per_sec: n as f64 / full.total_secs,
        min_ingest_rate_floor: min_rate,
        report_matches_batch,
        sweep,
        sweep_peak_ratio,
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    };

    assert!(
        report.ingest_events_per_sec >= min_rate,
        "sustained ingest is {:.0} events/sec (floor {min_rate:.0})",
        report.ingest_events_per_sec
    );
    assert!(
        report.sweep_peak_ratio <= 1.25,
        "streamed ingest peak heap is not flat: max/min = {:.2} across a 4x growth sweep",
        report.sweep_peak_ratio
    );

    let path = ServeBenchReport::default_path();
    report.write(&path).expect("write serve bench report");
    println!("wrote {}", path.display());
}
