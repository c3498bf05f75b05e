//! The trace event model and its serialization.

use serde::{Deserialize, Serialize};
use waffle_mem::{AccessKind, ObjectId, SiteId, SiteRegistry};
use waffle_sim::{ForkEdge, SimTime, ThreadId};
use waffle_vclock::ClockSnapshot;

use crate::index::{ClockId, ClockPool, TraceIndex};

/// One recorded heap-object access.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual timestamp of the access.
    pub time: SimTime,
    /// The accessing thread.
    pub thread: ThreadId,
    /// Static location.
    pub site: SiteId,
    /// Target object.
    pub obj: ObjectId,
    /// Operation class.
    pub kind: AccessKind,
    /// Zero-based dynamic instance index of `site` within the run.
    pub dyn_index: u64,
    /// Handle into the trace's [`ClockPool`]: the accessing thread's vector
    /// clock at event time (read through the TLS-propagated shared
    /// counters, §4.1). Identical snapshots share one pooled copy instead
    /// of each event cloning its own.
    pub clock: ClockId,
}

/// A complete preparation-run trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Name of the traced workload.
    pub workload: String,
    /// Copy of the workload's site table (so the analyzer can resolve
    /// names/kinds without the workload object).
    pub sites: SiteRegistry,
    /// All recorded accesses, in execution order.
    pub events: Vec<TraceEvent>,
    /// The run's fork tree.
    pub forks: Vec<ForkEdge>,
    /// Interned clock snapshots referenced by the events' [`ClockId`]s.
    pub clocks: ClockPool,
    /// End-to-end virtual time of the traced run.
    pub end_time: SimTime,
}

impl Trace {
    /// Serializes the trace to JSON (the cross-run persistence format);
    /// errors propagate so a failing save aborts only the persistence step.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a trace from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Resolves a pooled clock handle.
    pub fn clock(&self, id: ClockId) -> &ClockSnapshot<ThreadId> {
        self.clocks.get(id)
    }

    /// The vector-clock snapshot an event was stamped with.
    pub fn event_clock(&self, e: &TraceEvent) -> &ClockSnapshot<ThreadId> {
        self.clocks.get(e.clock)
    }

    /// Builds the columnar [`TraceIndex`] over this trace.
    pub fn index(&self) -> TraceIndex<'_> {
        TraceIndex::build(self)
    }

    /// Events of the MemOrder instrumentation class, in order.
    pub fn mem_order_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.kind.is_mem_order())
    }

    /// Events of the TSV instrumentation class, in order.
    pub fn tsv_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.kind.is_tsv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut sites = SiteRegistry::new();
        let s0 = sites.register("A.init:1", AccessKind::Init);
        let s1 = sites.register("B.use:2", AccessKind::Use);
        let mut clocks = ClockPool::new();
        let c0 = clocks.intern(ClockSnapshot::from_entries([(ThreadId(0), 1)]));
        let c1 = clocks.intern(ClockSnapshot::from_entries([
            (ThreadId(0), 2),
            (ThreadId(1), 1),
        ]));
        Trace {
            workload: "demo.t1".into(),
            sites,
            events: vec![
                TraceEvent {
                    time: SimTime::from_us(10),
                    thread: ThreadId(0),
                    site: s0,
                    obj: ObjectId(0),
                    kind: AccessKind::Init,
                    dyn_index: 0,
                    clock: c0,
                },
                TraceEvent {
                    time: SimTime::from_us(40),
                    thread: ThreadId(1),
                    site: s1,
                    obj: ObjectId(0),
                    kind: AccessKind::Use,
                    dyn_index: 0,
                    clock: c1,
                },
            ],
            forks: vec![ForkEdge {
                parent: ThreadId(0),
                child: ThreadId(1),
                time: SimTime::from_us(20),
            }],
            clocks,
            end_time: SimTime::from_us(50),
        }
    }

    #[test]
    fn json_round_trip_preserves_trace() {
        let t = sample_trace();
        let json = t.to_json().unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back.workload, t.workload);
        assert_eq!(back.events, t.events);
        assert_eq!(back.forks, t.forks);
        assert_eq!(back.clocks, t.clocks);
        assert_eq!(back.end_time, t.end_time);
        assert_eq!(back.sites.len(), 2);
    }

    #[test]
    fn class_filters_partition_events() {
        let t = sample_trace();
        assert_eq!(t.mem_order_events().count(), 2);
        assert_eq!(t.tsv_events().count(), 0);
    }

    #[test]
    fn event_clocks_expose_fork_ordering() {
        let t = sample_trace();
        let a = t.event_clock(&t.events[0]);
        let b = t.event_clock(&t.events[1]);
        assert!(a.leq(b));
    }
}
