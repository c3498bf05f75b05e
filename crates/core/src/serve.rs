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
//! - the *worker* drains the queue, validates each frame against the
//!   session's [`SessionIndexBuilder`], seals a generation every
//!   [`ServeOptions::seal_events`] accepted events, and absorbs the fresh
//!   columns into the session's incremental fold.
//!
//! On Finish the worker seals the remainder, finalizes the fold (the
//! interference pass replays the sealed generation files in seal order,
//! one open at a time, carrying a δ-window tail across their boundaries),
//! writes the report atomically next to the session's generation
//! directory, and sends it back as a Report frame. The two stages are
//! timed as `ingest/finish_seal` and `ingest/finish_replay`.
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
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use waffle_analysis::{IncrementalAnalysis, Plan, TsvPlan, DEFAULT_RESIDENT_BYTES};
use waffle_sim::time::ms;
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
    /// `ingest/sessions`, `ingest/sealed_segments`, `ingest/shed_batches`,
    /// `ingest/shed_events`, `ingest/failed_sessions`,
    /// `ingest/queue_depth` (histogram), and the Finish stage timings
    /// `ingest/finish_seal` and `ingest/finish_replay` (µs histograms with
    /// `/count` and `/total_us` counters).
    pub metrics: MetricsRegistry,
}

fn invalid(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// The canonical serve/`--plan-only` report serialization: exactly the
/// plan and TSV objects, in the same composite style as
/// `waffle analyze --json` (which additionally embeds index stats).
pub fn session_report_json(plan: &Plan, tsv: &TsvPlan) -> io::Result<String> {
    session_report_json_with_shed(plan, tsv, &ShedCounts::default())
}

/// [`session_report_json`] for a session that may have shed batches
/// under [`QueuePolicy::Shed`]. A lossy report must say so *in the
/// report*: the global `ingest/shed_batches` counter tells the operator
/// the server shed, but not which session's plan is missing events. The
/// `"shed"` object appears only when something was actually dropped, so
/// lossless sessions stay byte-identical to the batch `--plan-only`
/// output the CI smoke diff pins.
pub fn session_report_json_with_shed(
    plan: &Plan,
    tsv: &TsvPlan,
    shed: &ShedCounts,
) -> io::Result<String> {
    let (batches, events) = shed.totals();
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
/// batches) and the worker (which discloses them in the report).
#[derive(Debug, Default)]
pub struct ShedCounts {
    batches: std::sync::atomic::AtomicU64,
    events: std::sync::atomic::AtomicU64,
}

impl ShedCounts {
    fn record(&self, events: u64) {
        use std::sync::atomic::Ordering;
        self.batches.fetch_add(1, Ordering::SeqCst);
        self.events.fetch_add(events, Ordering::SeqCst);
    }

    /// `(batches, events)` dropped so far.
    pub fn totals(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        (
            self.batches.load(Ordering::SeqCst),
            self.events.load(Ordering::SeqCst),
        )
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

/// Records the wall time since `started` as one `name` observation.
fn observe_since(metrics: &SharedMetrics, name: &str, started: Instant) {
    let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    metric(metrics, |m| m.observe_us(name, us));
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

/// The worker half: drains the queue into a [`SessionIndexBuilder`],
/// sealing and absorbing as thresholds pass; returns the session's report
/// JSON once Finish lands.
fn drain_session(
    id: u64,
    queue: &SessionQueue,
    opts: &ServeOptions,
    metrics: &SharedMetrics,
    shed: &ShedCounts,
) -> io::Result<String> {
    let mut builder: Option<SessionIndexBuilder> = None;
    let mut fold: Option<IncrementalAnalysis> = None;
    let mut generations: Vec<PathBuf> = Vec::new();
    let gen_dir = opts.dir.join(format!("session-{id}.gen"));

    let seal = |b: &mut SessionIndexBuilder,
                fold: &mut IncrementalAnalysis,
                generations: &mut Vec<PathBuf>|
     -> io::Result<()> {
        if generations.is_empty() {
            // A directory left by an earlier server run under the same
            // session id would mix stale generations into this one.
            let _ = fs::remove_dir_all(&gen_dir);
            fs::create_dir_all(&gen_dir)?;
        }
        let path = gen_dir.join(format!("gen-{}.wseg", b.generations()));
        let out = b.seal(&path)?;
        fold.absorb(&out.mem, &out.tsv, b.clocks(), b.last_time(), opts.jobs);
        metric(metrics, |m| {
            m.inc("ingest/sealed_segments", out.stats.segments as u64);
            m.inc("ingest/sealed_generations", 1);
        });
        generations.push(path);
        Ok(())
    };

    loop {
        let frame = match queue.pop() {
            Some(frame) => frame?,
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "session ended before Finish",
                ))
            }
        };
        match frame {
            Frame::Hello { workload } => {
                if builder.is_some() {
                    return Err(invalid("duplicate Hello"));
                }
                builder = Some(SessionIndexBuilder::new(workload));
                fold = Some(IncrementalAnalysis::new(Default::default(), ms(1)));
                metric(metrics, |m| m.inc("ingest/sessions", 1));
            }
            Frame::Sites(defs) => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| invalid("Sites before Hello"))?;
                b.add_sites(&defs)?;
            }
            Frame::Clocks(snaps) => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| invalid("Clocks before Hello"))?;
                b.add_clocks(snaps)?;
            }
            Frame::Events(events) => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| invalid("Events before Hello"))?;
                let n = events.len() as u64;
                b.push_batch(events)?;
                metric(metrics, |m| m.inc("ingest/events", n));
                if b.pending_events() >= opts.seal_events {
                    seal(
                        b,
                        fold.as_mut().expect("fold exists with builder"),
                        &mut generations,
                    )?;
                }
            }
            Frame::Finish { end_time } => {
                let mut b = builder
                    .take()
                    .ok_or_else(|| invalid("Finish before Hello"))?;
                let mut fold = fold.take().expect("fold exists with builder");
                b.declare_end_time(end_time);
                // Seal the remainder — and always at least once, so even
                // an event-free session leaves a valid generation file.
                let started = Instant::now();
                if b.pending_events() > 0 || generations.is_empty() {
                    seal(&mut b, &mut fold, &mut generations)?;
                }
                observe_since(metrics, "ingest/finish_seal", started);
                // Opened lazily, so only one generation's footer catalog
                // is resident at a time; the first open error ends the
                // replay and fails the session.
                let started = Instant::now();
                let mut open_err = None;
                let readers = generations.iter().map_while(|path| {
                    SegmentReader::open(path)
                        .map_err(|e| open_err = Some(e))
                        .ok()
                });
                let (plan, tsv) = fold.finish(b.workload(), readers, opts.resident_bytes)?;
                if let Some(e) = open_err {
                    return Err(e);
                }
                observe_since(metrics, "ingest/finish_replay", started);
                // Any shed Events frame for this session was enqueued (or
                // dropped) before its Finish, so the totals are complete
                // by the time Finish reaches the worker.
                let json = session_report_json_with_shed(&plan, &tsv, shed)?;
                write_atomic(&opts.dir.join(format!("session-{id}.report.json")), &json)?;
                return Ok(json);
            }
            Frame::Report(_) | Frame::Error(_) => {
                return Err(invalid("client sent a server-only frame"));
            }
        }
    }
}

/// Runs one accepted connection end to end: spawns the reader, drains the
/// session, answers with Report or Error.
fn handle_session(stream: UnixStream, id: u64, opts: &ServeOptions, metrics: &SharedMetrics) {
    let queue = Arc::new(SessionQueue::new(opts.queue_events));
    let shed = Arc::new(ShedCounts::default());
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let reader = {
        let queue = Arc::clone(&queue);
        let metrics = Arc::clone(metrics);
        let shed = Arc::clone(&shed);
        let policy = opts.policy;
        thread::spawn(move || read_into_queue(stream, &queue, policy, &metrics, &shed))
    };
    let outcome = drain_session(id, &queue, opts, metrics, &shed);
    queue.close();
    let reply = match outcome {
        Ok(json) => Frame::Report(json),
        Err(e) => {
            metric(metrics, |m| m.inc("ingest/failed_sessions", 1));
            Frame::Error(e.to_string())
        }
    };
    let _ = write_frame(&mut write_half, &reply);
    let _ = reader.join();
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
