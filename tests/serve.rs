//! End-to-end `waffle serve`: real Unix socket, concurrent client
//! sessions, small seal thresholds (many generations per session), and a
//! queue bound small enough that backpressure actually engages — the
//! streamed reports must still be byte-identical to the batch path.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use waffle_repro::analysis::{
    analyze_jobs, analyze_tsv_indexed, AnalyzerConfig, IncrementalAnalysis, DEFAULT_RESIDENT_BYTES,
};
use waffle_repro::apps::all_bugs;
use waffle_repro::core::{replay_trace, serve, session_report_json, QueuePolicy, ServeOptions};
use waffle_repro::sim::{time::ms, SimConfig, Simulator, Workload};
use waffle_repro::trace::{SegmentClass, SegmentReader, Trace, TraceIndex, TraceRecorder};

fn workload_for(id: u32) -> Workload {
    waffle_repro::apps::bug_workload(id).expect("bug workload exists")
}

fn recorded_trace(w: &Workload) -> Trace {
    let mut rec = TraceRecorder::new(w);
    Simulator::run(w, SimConfig::with_seed(0).deterministic(), &mut rec);
    rec.into_trace()
}

fn batch_report(trace: &Trace) -> String {
    let config = AnalyzerConfig::default();
    let plan = analyze_jobs(trace, &config, 1);
    let tsv = analyze_tsv_indexed(&TraceIndex::build(trace), config.delta, ms(1), 1);
    session_report_json(&plan, &tsv).expect("report serializes")
}

fn wait_for(path: &PathBuf) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !path.exists() {
        assert!(Instant::now() < deadline, "server never bound {path:?}");
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn concurrent_streamed_sessions_match_the_batch_reports() {
    let base = std::env::temp_dir().join(format!("waffle-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("temp dir");
    let socket = base.join("ingest.sock");
    let dir = base.join("out");

    // Two different seeded-bug traces, streamed concurrently.
    let bugs = all_bugs();
    let traces: Vec<Trace> = bugs
        .iter()
        .take(2)
        .map(|spec| recorded_trace(&workload_for(spec.id)))
        .collect();
    let expected: Vec<String> = traces.iter().map(batch_report).collect();
    let total_events: u64 = traces.iter().map(|t| t.events.len() as u64).sum();

    let mut opts = ServeOptions::new(&socket, &dir);
    opts.seal_events = 4; // many generations per session
    opts.queue_events = 128; // small enough that Block backpressure engages
    opts.jobs = 2;
    opts.max_sessions = Some(traces.len());
    let server = thread::spawn(move || serve(&opts).expect("serve runs"));
    wait_for(&socket);

    let clients: Vec<_> = traces
        .into_iter()
        .map(|trace| {
            let socket = socket.clone();
            // Small batches keep both sessions interleaved on the socket
            // and seal the ~15-event traces into several generations.
            thread::spawn(move || replay_trace(&socket, &trace, 4).expect("session accepted"))
        })
        .collect();
    let got: Vec<String> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let report = server.join().expect("server thread");

    // Reports may come back in either order; match by content.
    for (i, want) in expected.iter().enumerate() {
        assert!(
            got.iter().any(|g| g == want),
            "no streamed session produced the batch report of trace #{i}"
        );
    }
    assert_eq!(report.sessions, 2);
    assert_eq!(report.metrics.counter("ingest/sessions"), 2);
    assert_eq!(report.metrics.counter("ingest/events"), total_events);
    assert!(
        report.metrics.counter("ingest/sealed_generations") >= 2,
        "each session seals at least once"
    );
    assert_eq!(report.metrics.counter("ingest/failed_sessions"), 0);
    // Finish explains where its time went: one observation per session
    // of each stage.
    for stage in ["ingest/finish_seal", "ingest/finish_replay"] {
        assert_eq!(
            report.metrics.counter(&format!("{stage}/count")),
            2,
            "{stage}"
        );
        assert!(
            report.metrics.histogram(stage).is_some(),
            "{stage} histogram"
        );
    }
    // Per-session artifacts landed on disk: the sealed generations and
    // the report. Re-analyzing the generations offline reproduces the
    // saved report byte for byte.
    for id in 1..=2u64 {
        let saved = std::fs::read_to_string(dir.join(format!("session-{id}.report.json"))).unwrap();
        assert!(
            expected.contains(&saved),
            "saved report matches a batch report"
        );
        let generations = generation_files(&dir.join(format!("session-{id}.gen")));
        assert!(generations.len() >= 2, "session {id} kept its generations");
        assert_eq!(reanalyze(&generations), saved, "session {id}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A session's `gen-N.wseg` files, in seal order.
fn generation_files(gen_dir: &Path) -> Vec<PathBuf> {
    let mut numbered: Vec<(u32, PathBuf)> = std::fs::read_dir(gen_dir)
        .expect("generation directory kept")
        .map(|entry| entry.expect("directory entry").path())
        .map(|path| {
            let n = path
                .file_name()
                .and_then(|name| name.to_str())
                .and_then(|name| {
                    name.strip_prefix("gen-")?
                        .strip_suffix(".wseg")?
                        .parse()
                        .ok()
                })
                .unwrap_or_else(|| panic!("unexpected artifact {path:?}"));
            (n, path)
        })
        .collect();
    numbered.sort();
    numbered.into_iter().map(|(_, path)| path).collect()
}

/// Replays a session's generation files through the public incremental
/// calls, as the server did, and renders the session report.
fn reanalyze(generations: &[PathBuf]) -> String {
    let mut fold = IncrementalAnalysis::new(AnalyzerConfig::default(), ms(1));
    let mut workload = String::new();
    for path in generations {
        let mut reader = SegmentReader::open(path).expect("generation opens");
        let mem = reader
            .read_class_columns(SegmentClass::MemOrder)
            .expect("mem columns");
        let tsv = reader
            .read_class_columns(SegmentClass::Tsv)
            .expect("tsv columns");
        // Any bound at or below the session's true stream head is sound:
        // it only keeps a longer tail.
        let catalog = reader.catalog();
        let horizon = catalog
            .mem
            .iter()
            .chain(&catalog.tsv)
            .map(|m| m.max_time)
            .max();
        fold.absorb(&mem, &tsv, reader.clocks(), horizon.unwrap_or_default(), 1);
        workload.clone_from(&catalog.workload);
    }
    let readers = generations
        .iter()
        .map(|p| SegmentReader::open(p).expect("generation reopens"));
    let (plan, tsv) = fold
        .finish(&workload, readers, DEFAULT_RESIDENT_BYTES)
        .expect("offline finish");
    session_report_json(&plan, &tsv).expect("report serializes")
}

#[test]
fn shed_policy_discloses_dropped_batches_in_the_session_report() {
    // A one-event queue plus a per-batch seal (file I/O keeps the worker
    // behind the reader) makes Shed engage on a many-batch session. The
    // race is probabilistic in principle, so the whole session retries a
    // few times and passes on the first run that actually sheds.
    let base = std::env::temp_dir().join(format!("waffle-serve-shed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    // Bug-16's packet-churn workload records ~1k events: >100 batches at
    // batch size 8, plenty of chances for the reader to outrun the worker.
    let trace = recorded_trace(&workload_for(16));
    let total = trace.events.len() as u64;
    assert!(total > 512, "needs a trace big enough to shed from");

    let mut shed_seen = false;
    for attempt in 0..5 {
        let dir = base.join(format!("attempt-{attempt}"));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let socket = dir.join("ingest.sock");
        let mut opts = ServeOptions::new(&socket, dir.join("out"));
        opts.policy = QueuePolicy::Shed;
        opts.queue_events = 1; // any pending frame forces the next batch over
        opts.seal_events = 1; // one seal per accepted batch
        opts.max_sessions = Some(1);
        let server = thread::spawn(move || serve(&opts).expect("serve runs"));
        wait_for(&socket);
        let json = replay_trace(&socket, &trace, 8).expect("a lossy session still reports");
        let report = server.join().expect("server thread");
        let shed_batches = report.metrics.counter("ingest/shed_batches");
        let shed_events = report.metrics.counter("ingest/shed_events");
        if shed_batches == 0 {
            assert!(
                !json.contains("\"shed\""),
                "lossless report must not carry a shed member"
            );
            continue;
        }
        // The sole session's report must disclose exactly the totals the
        // global counters saw, and nothing may fall through the gap.
        assert!(
            shed_events >= shed_batches,
            "a shed batch holds at least one event"
        );
        assert_eq!(
            report.metrics.counter("ingest/events") + shed_events,
            total,
            "every event is either ingested or counted as shed"
        );
        let want =
            format!("\n\"shed\": {{\"batches\": {shed_batches}, \"events\": {shed_events}}}\n");
        assert!(
            json.contains(&want),
            "session report missing per-session shed totals: {json}"
        );
        shed_seen = true;
        break;
    }
    assert!(
        shed_seen,
        "shed never engaged across 5 attempts despite a 1-event queue"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn a_malformed_session_gets_an_error_not_a_hang() {
    use std::io::Write as _;
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;
    use waffle_repro::trace::{read_frame, write_frame, Frame};

    let base = std::env::temp_dir().join(format!("waffle-serve-err-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("temp dir");
    let socket = base.join("ingest.sock");
    let mut opts = ServeOptions::new(&socket, base.join("out"));
    opts.max_sessions = Some(1);
    let (done, served) = mpsc::channel();
    let server = thread::spawn(move || {
        let _ = done.send(serve(&opts).expect("serve runs"));
    });
    wait_for(&socket);

    // Events before Hello: protocol violation, answered with Error.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    write_frame(&mut stream, &Frame::Events(vec![])).expect("write");
    stream.flush().expect("flush");
    match read_frame(&mut stream).expect("server replies") {
        Some(Frame::Error(message)) => assert_eq!(message, "Events before Hello"),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    // The client keeps its socket open, and the server still ends: the
    // rejected session must not hold its reader until the client closes.
    let report = match served.recv_timeout(Duration::from_secs(10)) {
        Ok(report) => report,
        Err(e) => {
            drop(stream);
            let _ = server.join();
            panic!("serve still running 10 s after rejecting its only session: {e}");
        }
    };
    server.join().expect("server thread");
    assert_eq!(report.metrics.counter("ingest/failed_sessions"), 1);
    drop(stream);
    let _ = std::fs::remove_dir_all(&base);
}
