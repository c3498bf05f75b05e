//! The synthetic access stream the `scale` and `serve` benches analyze.
//!
//! Event `i` hits object `i % OBJECTS` at `i+1` µs, cycling thread and
//! access kind per round (`Init, Use, Use, Dispose`) over per-object site
//! trios. The clock population is shaped like real application traces:
//! ordinary objects carry one of a bounded pool of heavily reused chain
//! snapshots (totally ordered, so every cross-thread pair is pruned as
//! parent-child ordered, §4.1), and the four `obj % 1024 == 0` objects
//! carry single-entry concurrent snapshots and contribute the candidate
//! pairs.
//!
//! The site registry, clock pool and site trios are built once
//! (O(`OBJECTS`)); events are generated on demand, so a stream can be
//! replayed batch by batch without holding the whole trace.

use waffle_analysis::AnalyzerConfig;
use waffle_mem::{AccessKind, ObjectId, SiteId, SiteRegistry};
use waffle_sim::{SimTime, ThreadId};
use waffle_trace::{ClockId, ClockPool, Trace, TraceEvent};
use waffle_vclock::ClockSnapshot;

/// Objects the events round-robin over (the shardable dimension).
const OBJECTS: u64 = 4096;
/// Interned chain snapshots; coprime with [`OBJECTS`] so window pairs
/// cycle through distinct (but bounded) clock-pair keys.
const CHAIN_CLOCKS: u64 = 509;
/// Entries per chain snapshot: wide clocks keep the unmemoized
/// comparison honest for a many-thread (thread-pool) application.
const CHAIN_ENTRIES: u32 = 64;

/// The generator: the stream's sites and clocks, and its events on demand.
pub struct Stream {
    /// Every site, three per object, in registration order.
    pub sites: SiteRegistry,
    /// Every clock snapshot the events carry.
    pub clocks: ClockPool,
    trios: Vec<(SiteId, SiteId, SiteId)>,
    chain: Vec<ClockId>,
    conc: Vec<ClockId>,
}

impl Default for Stream {
    fn default() -> Self {
        Self::new()
    }
}

impl Stream {
    /// Registers the sites and interns the clocks.
    pub fn new() -> Self {
        let mut sites = SiteRegistry::new();
        let trios = (0..OBJECTS)
            .map(|o| {
                (
                    sites.register(&format!("o{o}.init"), AccessKind::Init),
                    sites.register(&format!("o{o}.use"), AccessKind::Use),
                    sites.register(&format!("o{o}.dispose"), AccessKind::Dispose),
                )
            })
            .collect();
        let mut clocks = ClockPool::new();
        let chain = (0..CHAIN_CLOCKS)
            .map(|j| {
                clocks.intern(ClockSnapshot::from_entries(
                    (0..CHAIN_ENTRIES).map(|t| (ThreadId(100 + t), (j + 1) * 8 + t as u64)),
                ))
            })
            .collect();
        let conc = (0..4)
            .map(|t| clocks.intern(ClockSnapshot::from_entries([(ThreadId(t), 1)])))
            .collect();
        Stream {
            sites,
            clocks,
            trios,
            chain,
            conc,
        }
    }

    /// Event `i` of the stream.
    pub fn event(&self, i: u64) -> TraceEvent {
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

    /// The first `n` events as one [`Trace`] named `bench.stream.<n>`.
    pub fn trace(&self, n: u64) -> Trace {
        Trace {
            workload: format!("bench.stream.{n}"),
            sites: self.sites.clone(),
            events: (0..n).map(|i| self.event(i)).collect(),
            forks: vec![],
            clocks: self.clocks.clone(),
            end_time: SimTime::from_us(n + 2),
        }
    }

    /// The analyzer configuration both benches use: δ covers the three
    /// nearest same-object successors (spaced `OBJECTS` µs apart), so
    /// the sweep visits about three window pairs per event.
    pub fn config() -> AnalyzerConfig {
        AnalyzerConfig {
            delta: SimTime::from_us(OBJECTS * 7 / 2),
            ..AnalyzerConfig::default()
        }
    }
}
