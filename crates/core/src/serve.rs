//! `waffle serve`: a long-running trace ingestion server.
//!
//! The batch pipeline records a whole trace, indexes it, and analyzes it
//! in one process. `serve` inverts that: traced programs *stream* their
//! events to a resident server over a Unix socket as length-prefixed
//! binary frames ([`waffle_trace::wire`]), and the server builds each
//! session's columnar index incrementally — sealing full columns into
//! generation segment files, folding every sealed generation into a
//! running [`IncrementalAnalysis`], and answering the session's Finish
//! frame with the same report a one-shot `waffle analyze` would produce
//! over the concatenated trace (byte-identity pinned by `tests/serve.rs`
//! and `tests/analysis_equivalence.rs`).
//!
//! # Session lifecycle
//!
//! ```text
//! client: Hello  Sites*  Clocks*  Events* … Finish
//! server:                                          Report | Error
//! ```
//!
//! Per connection the server runs **two** threads joined by a bounded
//! session queue:
//!
//! - the *reader* decodes frames off the socket and enqueues them;
//! - the *worker* pops each frame and hands it to the connection's
//!   [`ServeSession`], the one type that holds a session's state. It
//!   validates each frame against the session's [`SessionIndexBuilder`],
//!   seals a generation every [`ServeOptions::seal_events`] accepted
//!   events, and absorbs the fresh columns into the session's
//!   incremental fold.
//!
//! On Finish the session seals the remainder, finalizes the fold (the
//! interference pass replays the sealed generation files in seal order,
//! one open at a time, carrying a δ-window tail across their boundaries),
//! and writes the report atomically next to its generation directory;
//! the worker sends it back as a Report frame. The two stages are timed
//! as `ingest/finish_seal` and `ingest/finish_replay`. When the session
//! fails instead, the worker answers with an Error frame and shuts the
//! socket's read half, so the reader ends even if the client keeps its
//! socket open. The `serve` rate bench drives the same [`ServeSession`]
//! without a socket.
//!
//! # Session artifacts
//!
//! Each session leaves `session-N.gen/gen-0.wseg`, `gen-1.wseg`, … (the
//! generations in seal order) and `session-N.report.json` under
//! [`ServeOptions::dir`]. Replaying the generations through
//! [`IncrementalAnalysis::absorb`] and
//! [`IncrementalAnalysis::finish`] reproduces the report offline.
//!
//! # Backpressure
//!
//! The queue is bounded in **events** ([`ServeOptions::queue_events`]),
//! never in frames, so a fast client cannot grow server memory without
//! limit. When an Events batch would overflow the bound:
//!
//! - [`QueuePolicy::Block`] (default): the reader blocks until the worker
//!   drains — the unread socket fills and the kernel's flow control
//!   throttles the client. Lossless.
//! - [`QueuePolicy::Shed`]: the batch is dropped and counted — globally
//!   (`ingest/shed_batches`, `ingest/shed_events`) *and* per session, so
//!   the session's own report discloses how many batches/events were
//!   dropped (a `"shed"` object, present only when something was).
//!   Lossy by design, for load-shedding telemetry ingest where a
//!   complete report matters less than a live server.
//!
//! Control frames (Hello/Sites/Clocks/Finish) always block rather than
//! shed — dropping one would corrupt the session, not just thin it.

use std::collections::VecDeque;
use std::fs;
use std::io;
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use waffle_analysis::{AnalyzerConfig, IncrementalAnalysis, Plan, TsvPlan, DEFAULT_RESIDENT_BYTES};
use waffle_sim::time::ms;
use waffle_sim::SimTime;
use waffle_telemetry::MetricsRegistry;
use waffle_trace::{read_frame, write_frame, Frame, SegmentReader, SessionIndexBuilder, Trace};

use crate::storage::write_atomic;

/// What to do when an Events batch would overflow the session queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Block the reader until the worker drains; socket flow control
    /// throttles the client. Lossless (the default).
    Block,
    /// Drop the batch and count it, globally (`ingest/shed_batches`,
    /// `ingest/shed_events`) and in the session's own report. Lossy.
    Shed,
}

/// Configuration for one [`serve`] run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix socket path to listen on (an existing socket file is
    /// replaced).
    pub socket: PathBuf,
    /// Directory for per-session segment files and reports.
    pub dir: PathBuf,
    /// Accepted events per session that trigger a generation seal.
    pub seal_events: usize,
    /// Session queue bound, in events.
    pub queue_events: usize,
    /// Overflow policy for Events batches.
    pub policy: QueuePolicy,
    /// Shards for the incremental sweep (like `analyze --jobs`).
    pub jobs: usize,
    /// Stop accepting after this many sessions (`None` = run forever).
    /// Already-accepted sessions always run to completion.
    pub max_sessions: Option<usize>,
    /// Resident budget for the finish-time streaming interference pass.
    pub resident_bytes: u64,
}

impl ServeOptions {
    /// Defaults: seal every 64k events, queue bound 256k events, Block
    /// policy, single-shard sweeps, default streaming budget.
    pub fn new(socket: impl Into<PathBuf>, dir: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            dir: dir.into(),
            seal_events: 64 << 10,
            queue_events: 256 << 10,
            policy: QueuePolicy::Block,
            jobs: 1,
            max_sessions: None,
            resident_bytes: DEFAULT_RESIDENT_BYTES,
        }
    }
}

/// What one [`serve`] run did (returned once the accept loop ends).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Sessions accepted.
    pub sessions: u64,
    /// Ingest counters and queue-depth histograms: `ingest/events`,
    /// `ingest/sessions`, `ingest/sealed_segments`,
    /// `ingest/sealed_generations`, `ingest/shed_batches`,
    /// `ingest/shed_events`, `ingest/failed_sessions`,
    /// `ingest/queue_depth` (histogram), and the Finish stage timings
    /// `ingest/finish_seal` and `ingest/finish_replay` (µs histograms with
    /// `/count` and `/total_us` counters). Each session's own metrics
    /// ([`ServeSession::metrics`]) are added in when it ends.
    pub metrics: MetricsRegistry,
}

fn invalid(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// The canonical serve/`--plan-only` report serialization: exactly the
/// plan and TSV objects, in the same composite style as
/// `waffle analyze --json` (which additionally embeds index stats).
pub fn session_report_json(plan: &Plan, tsv: &TsvPlan) -> io::Result<String> {
    report_json(plan, tsv, (0, 0))
}

/// [`session_report_json`] for a session that shed `(batches, events)`
/// under [`QueuePolicy::Shed`]. A lossy report must say so *in the
/// report*: the global `ingest/shed_batches` counter tells the operator
/// the server shed, but not which session's plan is missing events. The
/// `"shed"` object appears only when something was actually dropped, so
/// lossless sessions stay byte-identical to the batch `--plan-only`
/// output the CI smoke diff pins.
fn report_json(plan: &Plan, tsv: &TsvPlan, (batches, events): (u64, u64)) -> io::Result<String> {
    let shed_part = if batches > 0 {
        format!(",\n\"shed\": {{\"batches\": {batches}, \"events\": {events}}}")
    } else {
        String::new()
    };
    Ok(format!(
        "{{\n\"plan\": {},\n\"tsv\": {}{shed_part}\n}}",
        plan.to_json().map_err(invalid)?,
        tsv.to_json().map_err(invalid)?
    ))
}

/// Per-session shed totals, shared between the reader (which drops the
/// batches) and the session (which discloses them in its report).
#[derive(Debug, Default)]
struct ShedCounts {
    batches: AtomicU64,
    events: AtomicU64,
}

impl ShedCounts {
    fn record(&self, events: u64) {
        self.batches.fetch_add(1, Ordering::SeqCst);
        self.events.fetch_add(events, Ordering::SeqCst);
    }

    /// `(batches, events)` dropped so far.
    fn totals(&self) -> (u64, u64) {
        (
            self.batches.load(Ordering::SeqCst),
            self.events.load(Ordering::SeqCst),
        )
    }
}

/// One session's frame handling, from Hello to Finish: the state machine
/// every `waffle serve` connection drives, one decoded [`Frame`] at a
/// time, and the one place a session's state lives.
///
/// It validates each frame against the session's [`SessionIndexBuilder`],
/// seals a generation file every [`ServeOptions::seal_events`] accepted
/// events and folds it into the session's [`IncrementalAnalysis`]. On
/// Finish it seals the remainder, replays the generations, writes
/// `session-N.report.json` and returns the report. An error ends the
/// session; the server answers it with an Error frame.
#[derive(Debug)]
pub struct ServeSession {
    analyzer: AnalyzerConfig,
    seal_events: usize,
    jobs: usize,
    resident_bytes: u64,
    /// `session-N.gen`, the directory of the sealed generations.
    gen_dir: PathBuf,
    /// `session-N.report.json`.
    report_path: PathBuf,
    state: State,
    shed: Arc<ShedCounts>,
    metrics: MetricsRegistry,
}

#[derive(Debug)]
enum State {
    AwaitingHello,
    /// Boxed, so a frame moves a pointer in and out of the session.
    Open(Box<Open>),
    /// After Finish or an error.
    Ended,
}

/// A session between Hello and Finish. Its generation files are
/// `gen-0.wseg` … under the session's `gen_dir`, one per seal the
/// builder counts.
#[derive(Debug)]
struct Open {
    builder: SessionIndexBuilder,
    fold: IncrementalAnalysis,
}

impl ServeSession {
    /// Session `id` under `opts` (its `dir`, `seal_events`, `jobs` and
    /// `resident_bytes`), analyzed with `analyzer`; the server passes
    /// `AnalyzerConfig::default()`.
    pub fn new(id: u64, opts: &ServeOptions, analyzer: AnalyzerConfig) -> Self {
        Self {
            analyzer,
            seal_events: opts.seal_events,
            jobs: opts.jobs,
            resident_bytes: opts.resident_bytes,
            gen_dir: opts.dir.join(format!("session-{id}.gen")),
            report_path: opts.dir.join(format!("session-{id}.report.json")),
            state: State::AwaitingHello,
            shed: Arc::default(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The session's own counters and Finish stage timings so far:
    /// `ingest/sessions`, `ingest/events`, `ingest/sealed_segments`,
    /// `ingest/sealed_generations`, `ingest/finish_seal` and
    /// `ingest/finish_replay`.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Handles one frame. Returns the report once Finish lands and
    /// `None` before; an error ends the session.
    pub fn handle(&mut self, frame: Frame) -> io::Result<Option<String>> {
        let open = match (std::mem::replace(&mut self.state, State::Ended), frame) {
            (State::Ended, _) => return Err(invalid("frame after the session ended")),
            (_, Frame::Report(_) | Frame::Error(_)) => {
                return Err(invalid("client sent a server-only frame"))
            }
            (State::AwaitingHello, Frame::Hello { workload }) => {
                self.metrics.inc("ingest/sessions", 1);
                Box::new(Open {
                    builder: SessionIndexBuilder::new(workload),
                    fold: IncrementalAnalysis::new(self.analyzer, ms(1)),
                })
            }
            (State::Open(_), Frame::Hello { .. }) => return Err(invalid("duplicate Hello")),
            (State::AwaitingHello, Frame::Sites(_)) => return Err(invalid("Sites before Hello")),
            (State::AwaitingHello, Frame::Clocks(_)) => return Err(invalid("Clocks before Hello")),
            (State::AwaitingHello, Frame::Events(_)) => return Err(invalid("Events before Hello")),
            (State::AwaitingHello, Frame::Finish { .. }) => {
                return Err(invalid("Finish before Hello"))
            }
            (State::Open(mut open), Frame::Sites(defs)) => {
                open.builder.add_sites(&defs)?;
                open
            }
            (State::Open(mut open), Frame::Clocks(snaps)) => {
                open.builder.add_clocks(snaps)?;
                open
            }
            (State::Open(mut open), Frame::Events(events)) => {
                let n = events.len() as u64;
                open.builder.push_batch(events)?;
                self.metrics.inc("ingest/events", n);
                if open.builder.pending_events() >= self.seal_events {
                    self.seal(&mut open)?;
                }
                open
            }
            (State::Open(open), Frame::Finish { end_time }) => {
                return self.finish(open, end_time).map(Some)
            }
        };
        self.state = State::Open(open);
        Ok(None)
    }

    /// Seals the pending events as the next generation file and folds
    /// its columns in.
    fn seal(&mut self, open: &mut Open) -> io::Result<()> {
        let b = &mut open.builder;
        if b.generations() == 0 {
            // A directory left by an earlier server run under the same
            // session id would mix stale generations into this one.
            let _ = fs::remove_dir_all(&self.gen_dir);
            fs::create_dir_all(&self.gen_dir)?;
        }
        let out = b.seal(&self.generation(b.generations()))?;
        open.fold
            .absorb(&out.mem, &out.tsv, b.clocks(), b.last_time(), self.jobs);
        self.metrics
            .inc("ingest/sealed_segments", out.stats.segments as u64);
        self.metrics.inc("ingest/sealed_generations", 1);
        Ok(())
    }

    /// The path of generation `k`.
    fn generation(&self, k: u32) -> PathBuf {
        self.gen_dir.join(format!("gen-{k}.wseg"))
    }

    fn finish(&mut self, mut open: Box<Open>, end_time: SimTime) -> io::Result<String> {
        open.builder.declare_end_time(end_time);
        // Seal the remainder — and always at least once, so even an
        // event-free session leaves a valid generation file.
        let started = Instant::now();
        if open.builder.pending_events() > 0 || open.builder.generations() == 0 {
            self.seal(&mut open)?;
        }
        self.observe_since("ingest/finish_seal", started);
        // Opened lazily, so only one generation's footer catalog is
        // resident at a time; the first open error ends the replay and
        // fails the session.
        let started = Instant::now();
        let Open { builder, fold } = *open;
        let mut open_err = None;
        let readers = (0..builder.generations()).map_while(|k| {
            SegmentReader::open(self.generation(k))
                .map_err(|e| open_err = Some(e))
                .ok()
        });
        let (plan, tsv) = fold.finish(builder.workload(), readers, self.resident_bytes)?;
        if let Some(e) = open_err {
            return Err(e);
        }
        self.observe_since("ingest/finish_replay", started);
        // Any shed Events frame for this session was enqueued (or dropped)
        // before its Finish, so the totals are complete by now.
        let json = report_json(&plan, &tsv, self.shed.totals())?;
        write_atomic(&self.report_path, &json)?;
        Ok(json)
    }

    /// Records the wall time since `started` as one `name` observation.
    fn observe_since(&mut self, name: &str, started: Instant) {
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.observe_us(name, us);
    }
}

/// Outcome of one queue push.
enum Push {
    /// Enqueued; carries the post-push depth in events.
    Queued(usize),
    /// Dropped under [`QueuePolicy::Shed`].
    Shed,
    /// The worker is gone; the reader should stop.
    Closed,
}

struct QueueState {
    items: VecDeque<(io::Result<Frame>, usize)>,
    used: usize,
    /// Reader finished (Finish seen, EOF, or error pushed).
    input_done: bool,
    /// Worker exited; pushes bounce.
    closed: bool,
}

/// A bounded MPSC-of-one queue of frames, measured in events: an Events
/// frame costs its batch length (min 1), control frames cost 1. Built on
/// `std` primitives (the vendored `parking_lot` stub has no `Condvar`).
struct SessionQueue {
    state: Mutex<QueueState>,
    space: Condvar,
    ready: Condvar,
    capacity: usize,
}

impl SessionQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                used: 0,
                input_done: false,
                closed: false,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn cost(frame: &io::Result<Frame>) -> usize {
        match frame {
            Ok(Frame::Events(events)) => events.len().max(1),
            _ => 1,
        }
    }

    /// Enqueues one frame. `may_shed` selects the overflow behavior
    /// (true only for Events batches under [`QueuePolicy::Shed`]). A
    /// frame larger than the whole capacity is admitted once the queue is
    /// empty, so an oversized batch degrades to rendezvous rather than
    /// deadlock.
    fn push(&self, frame: io::Result<Frame>, may_shed: bool) -> Push {
        let cost = Self::cost(&frame);
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if st.closed {
                return Push::Closed;
            }
            if st.used + cost <= self.capacity || st.items.is_empty() {
                st.used += cost;
                st.items.push_back((frame, cost));
                let depth = st.used;
                self.ready.notify_one();
                return Push::Queued(depth);
            }
            if may_shed {
                return Push::Shed;
            }
            st = self.space.wait(st).expect("queue poisoned");
        }
    }

    /// Marks the input side done (reader exiting) and wakes the worker.
    fn finish_input(&self) {
        self.state.lock().expect("queue poisoned").input_done = true;
        self.ready.notify_one();
    }

    /// Marks the consumer gone and unblocks any waiting reader.
    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.space.notify_all();
        self.ready.notify_all();
    }

    /// Dequeues the next frame; `None` once the input side is done and
    /// the queue drained.
    fn pop(&self) -> Option<io::Result<Frame>> {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if let Some((frame, cost)) = st.items.pop_front() {
                st.used -= cost;
                self.space.notify_one();
                return Some(frame);
            }
            if st.input_done || st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("queue poisoned");
        }
    }
}

type SharedMetrics = Arc<Mutex<MetricsRegistry>>;

fn metric(metrics: &SharedMetrics, f: impl FnOnce(&mut MetricsRegistry)) {
    f(&mut metrics.lock().expect("metrics poisoned"));
}

/// The reader half of one session: socket frames into the queue until
/// Finish, EOF, or a decode error (which is forwarded to the worker).
fn read_into_queue(
    mut stream: UnixStream,
    queue: &SessionQueue,
    policy: QueuePolicy,
    metrics: &SharedMetrics,
    shed: &ShedCounts,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(frame)) => {
                let is_finish = matches!(frame, Frame::Finish { .. });
                let may_shed = policy == QueuePolicy::Shed && matches!(frame, Frame::Events(_));
                // Captured before push consumes the frame; only a shed
                // outcome reads it.
                let batch_events = match &frame {
                    Frame::Events(events) => events.len() as u64,
                    _ => 0,
                };
                match queue.push(Ok(frame), may_shed) {
                    Push::Queued(depth) => {
                        metric(metrics, |m| {
                            m.observe_value("ingest/queue_depth", depth as u64)
                        });
                    }
                    Push::Shed => {
                        shed.record(batch_events);
                        metric(metrics, |m| {
                            m.inc("ingest/shed_batches", 1);
                            m.inc("ingest/shed_events", batch_events);
                        });
                    }
                    Push::Closed => break,
                }
                if is_finish {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                let _ = queue.push(Err(e), false);
                break;
            }
        }
    }
    queue.finish_input();
}

/// The worker half: hands the queued frames to the session until Finish
/// answers with the report.
fn drain_session(queue: &SessionQueue, session: &mut ServeSession) -> io::Result<String> {
    loop {
        let frame = queue.pop().ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "session ended before Finish")
        })??;
        if let Some(json) = session.handle(frame)? {
            return Ok(json);
        }
    }
}

/// Runs one accepted connection end to end: spawns the reader, drains the
/// session, answers with Report or Error.
fn handle_session(stream: UnixStream, id: u64, opts: &ServeOptions, metrics: &SharedMetrics) {
    let queue = Arc::new(SessionQueue::new(opts.queue_events));
    let mut session = ServeSession::new(id, opts, AnalyzerConfig::default());
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let reader = {
        let queue = Arc::clone(&queue);
        let metrics = Arc::clone(metrics);
        let shed = Arc::clone(&session.shed);
        let policy = opts.policy;
        thread::spawn(move || read_into_queue(stream, &queue, policy, &metrics, &shed))
    };
    let outcome = drain_session(&queue, &mut session);
    queue.close();
    let failed = outcome.is_err();
    let reply = match outcome {
        Ok(json) => Frame::Report(json),
        Err(e) => Frame::Error(e.to_string()),
    };
    let _ = write_frame(&mut write_half, &reply);
    // A reader still blocked in `read_frame` (the session failed and the
    // client keeps its socket open) sees end of stream instead of waiting
    // for the client to close.
    let _ = write_half.shutdown(Shutdown::Read);
    let _ = reader.join();
    metric(metrics, |m| {
        m.merge(session.metrics());
        if failed {
            m.inc("ingest/failed_sessions", 1);
        }
    });
}

/// Binds the socket and serves sessions until
/// [`ServeOptions::max_sessions`] connections have been handled (or
/// forever when `None`).
pub fn serve(opts: &ServeOptions) -> io::Result<ServeReport> {
    fs::create_dir_all(&opts.dir)?;
    if opts.socket.exists() {
        fs::remove_file(&opts.socket)?;
    }
    let listener = UnixListener::bind(&opts.socket)?;
    let metrics: SharedMetrics = Arc::new(Mutex::new(MetricsRegistry::new()));
    let mut accepted = 0u64;
    thread::scope(|s| -> io::Result<()> {
        loop {
            if let Some(max) = opts.max_sessions {
                if accepted >= max as u64 {
                    break;
                }
            }
            let (stream, _) = listener.accept()?;
            accepted += 1;
            let id = accepted;
            let metrics = Arc::clone(&metrics);
            s.spawn(move || handle_session(stream, id, opts, &metrics));
        }
        Ok(())
    })?;
    let _ = fs::remove_file(&opts.socket);
    let metrics = metrics.lock().expect("metrics poisoned").clone();
    Ok(ServeReport {
        sessions: accepted,
        metrics,
    })
}

/// Streams a recorded [`Trace`] to a serve socket as one session —
/// Hello, the full site table, the interned clock pool, Events in
/// `batch`-sized frames, Finish — and returns the server's report JSON.
///
/// This is the reference client (`waffle ingest` wraps it); a real
/// runtime would emit the same frames while the program runs.
pub fn replay_trace(socket: &Path, trace: &Trace, batch: usize) -> io::Result<String> {
    let mut stream = UnixStream::connect(socket)?;
    write_frame(
        &mut stream,
        &Frame::Hello {
            workload: trace.workload.clone(),
        },
    )?;
    let sites: Vec<_> = trace
        .sites
        .iter()
        .map(|(_, info)| (info.name.clone(), info.kind))
        .collect();
    write_frame(&mut stream, &Frame::Sites(sites))?;
    let snaps = trace.clocks.snapshots();
    if snaps.len() > 1 {
        write_frame(&mut stream, &Frame::Clocks(snaps[1..].to_vec()))?;
    }
    for chunk in trace.events.chunks(batch.max(1)) {
        write_frame(&mut stream, &Frame::Events(chunk.to_vec()))?;
    }
    write_frame(
        &mut stream,
        &Frame::Finish {
            end_time: trace.end_time,
        },
    )?;
    loop {
        match read_frame(&mut stream)? {
            Some(Frame::Report(json)) => return Ok(json),
            Some(Frame::Error(message)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("session rejected: {message}"),
                ))
            }
            Some(_) => continue,
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the stream without a report",
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_analysis::{analyze_jobs, analyze_tsv_indexed};
    use waffle_mem::SiteRegistry;
    use waffle_trace::{ClockPool, TraceIndex};

    /// A session whose artifacts would land under a per-test directory
    /// (only the event-free session test writes any).
    fn session(tag: &str) -> (ServeSession, PathBuf) {
        let dir = std::env::temp_dir().join(format!("waffle-serve-{tag}-{}", std::process::id()));
        let opts = ServeOptions::new(dir.join("unbound.sock"), &dir);
        (ServeSession::new(1, &opts, AnalyzerConfig::default()), dir)
    }

    fn hello() -> Frame {
        Frame::Hello {
            workload: "w".into(),
        }
    }

    fn finish() -> Frame {
        Frame::Finish {
            end_time: SimTime::from_ms(5),
        }
    }

    /// The error text `frames` end with, fed to a fresh session.
    fn rejection(frames: Vec<Frame>) -> String {
        let (mut s, _) = session("reject");
        let mut frames = frames.into_iter();
        let last = frames.next_back().expect("a frame to reject");
        for frame in frames {
            assert_eq!(s.handle(frame).expect("accepted"), None);
        }
        let err = s.handle(last).expect_err("rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn every_frame_but_hello_is_rejected_before_hello() {
        for (frame, want) in [
            (Frame::Sites(vec![]), "Sites before Hello"),
            (Frame::Clocks(vec![]), "Clocks before Hello"),
            (Frame::Events(vec![]), "Events before Hello"),
            (finish(), "Finish before Hello"),
        ] {
            assert_eq!(rejection(vec![frame]), want);
        }
    }

    #[test]
    fn a_second_hello_is_rejected() {
        assert_eq!(rejection(vec![hello(), hello()]), "duplicate Hello");
    }

    #[test]
    fn server_only_frames_from_the_client_are_rejected() {
        for frame in [Frame::Report("{}".into()), Frame::Error("no".into())] {
            assert_eq!(
                rejection(vec![frame.clone()]),
                "client sent a server-only frame"
            );
            assert_eq!(
                rejection(vec![hello(), frame]),
                "client sent a server-only frame"
            );
        }
    }

    #[test]
    fn an_event_free_session_seals_one_generation_and_reports_the_empty_trace() {
        let (mut s, dir) = session("empty");
        assert_eq!(s.handle(hello()).unwrap(), None);
        let json = s.handle(finish()).unwrap().expect("Finish answers");
        assert!(dir.join("session-1.gen/gen-0.wseg").is_file());
        assert_eq!(
            fs::read_to_string(dir.join("session-1.report.json")).unwrap(),
            json
        );
        let trace = Trace {
            workload: "w".into(),
            sites: SiteRegistry::new(),
            events: vec![],
            forks: vec![],
            clocks: ClockPool::new(),
            end_time: SimTime::from_ms(5),
        };
        let config = AnalyzerConfig::default();
        let plan = analyze_jobs(&trace, &config, 1);
        let tsv = analyze_tsv_indexed(&TraceIndex::build(&trace), config.delta, ms(1), 1);
        assert_eq!(json, session_report_json(&plan, &tsv).unwrap());
        assert_eq!(s.metrics().counter("ingest/sealed_generations"), 1);
        assert_eq!(
            s.handle(hello()).unwrap_err().to_string(),
            "frame after the session ended"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_blocks_at_capacity_and_drains_in_order() {
        let q = Arc::new(SessionQueue::new(3));
        // Fill to capacity with control frames.
        for _ in 0..3 {
            assert!(matches!(
                q.push(
                    Ok(Frame::Finish {
                        end_time: waffle_sim::SimTime::ZERO
                    }),
                    false
                ),
                Push::Queued(_)
            ));
        }
        // A blocking push parks until the consumer drains.
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || {
            q2.push(
                Ok(Frame::Hello {
                    workload: "late".into(),
                }),
                false,
            )
        });
        thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_finished(), "push must block while full");
        assert!(q.pop().is_some());
        assert!(matches!(t.join().unwrap(), Push::Queued(_)));
        // Shed-eligible pushes bounce instead of blocking.
        for _ in 0..3 {
            let _ = q.pop();
        }
        for _ in 0..3 {
            let _ = q.push(
                Ok(Frame::Finish {
                    end_time: waffle_sim::SimTime::ZERO,
                }),
                false,
            );
        }
        assert!(matches!(
            q.push(Ok(Frame::Events(vec![])), true),
            Push::Shed
        ));
        // Close unblocks and bounces everything.
        q.close();
        assert!(matches!(
            q.push(Ok(Frame::Events(vec![])), false),
            Push::Closed
        ));
    }

    #[test]
    fn oversized_batches_rendezvous_instead_of_deadlocking() {
        let q = SessionQueue::new(2);
        // Cost 5 > capacity 2, but the queue is empty: admitted.
        let events = vec![
            waffle_trace::TraceEvent {
                time: waffle_sim::SimTime::ZERO,
                thread: waffle_sim::ThreadId(0),
                site: waffle_mem::SiteId(0),
                obj: waffle_mem::ObjectId(0),
                kind: waffle_mem::AccessKind::Init,
                dyn_index: 0,
                clock: waffle_trace::ClockId::EMPTY,
            };
            5
        ];
        assert!(matches!(
            q.push(Ok(Frame::Events(events)), false),
            Push::Queued(5)
        ));
        assert!(q.pop().is_some());
    }
}
