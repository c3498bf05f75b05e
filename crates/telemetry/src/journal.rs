//! The per-run injection event journal.
//!
//! A [`RunTelemetry`] recorder lives inside a delay-injection policy for
//! exactly one run. Counters and histograms update on every decision;
//! individual [`JournalEvent`]s are recorded only when the recorder was
//! built with [`RunTelemetry::with_events`], keeping the default hot path
//! free of per-decision allocation.

use serde::{Deserialize, Serialize};
use waffle_mem::SiteId;
use waffle_sim::{SimTime, ThreadId};

use crate::metrics::SimTimeHistogram;

/// What happened at one injection decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A delay fired at the site.
    Injected,
    /// The probability roll declined the injection.
    SkippedProbability,
    /// Interference control suppressed the injection (§4.4): a delay at an
    /// interfering location was ongoing in another thread.
    SkippedInterference,
    /// The site's injection probability decayed after a fired delay (§2);
    /// `permille` carries the post-step probability.
    DecayStep,
}

/// One entry of the event journal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JournalEvent {
    /// What happened.
    pub kind: EventKind,
    /// The candidate site the decision was about.
    pub site: SiteId,
    /// The thread that reached the site.
    pub thread: ThreadId,
    /// Virtual time of the decision.
    pub time: SimTime,
    /// Injected delay length ([`EventKind::Injected`] only; zero otherwise).
    pub delay: SimTime,
    /// Injection probability in per-mille: the probability *used* for a
    /// roll, or the post-step probability for [`EventKind::DecayStep`].
    pub permille: u32,
}

/// Always-on counters of one run's injection decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryCounters {
    /// Delays injected.
    pub injected: u64,
    /// Injections declined by the probability roll.
    pub skipped_probability: u64,
    /// Injections suppressed by interference control.
    pub skipped_interference: u64,
    /// Probability-decay steps applied (one per fired delay).
    pub decay_steps: u64,
    /// Instrumented accesses observed by the policy.
    pub instrumented_ops: u64,
}

impl TelemetryCounters {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &TelemetryCounters) {
        self.injected += other.injected;
        self.skipped_probability += other.skipped_probability;
        self.skipped_interference += other.skipped_interference;
        self.decay_steps += other.decay_steps;
        self.instrumented_ops += other.instrumented_ops;
    }

    /// Injection decision points reached (fired + both skip classes).
    pub fn decisions(&self) -> u64 {
        self.injected + self.skipped_probability + self.skipped_interference
    }
}

/// The finished journal of one detection run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunJournal {
    /// Decision counters.
    pub counters: TelemetryCounters,
    /// Histogram of injected delay lengths.
    pub delay_hist: SimTimeHistogram,
    /// Histogram of per-access instrumentation overhead.
    pub overhead_hist: SimTimeHistogram,
    /// The event stream, in decision order (empty unless event recording
    /// was enabled for the run).
    pub events: Vec<JournalEvent>,
}

impl RunJournal {
    /// Serializes the journal.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a persisted journal.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// The in-run recorder: counters always, events on request.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    journal: RunJournal,
    record_events: bool,
}

impl RunTelemetry {
    /// A recorder that keeps counters and histograms only (the default).
    pub fn counters_only() -> Self {
        Self::default()
    }

    /// A recorder that additionally journals every decision event.
    pub fn with_events() -> Self {
        Self {
            journal: RunJournal::default(),
            record_events: true,
        }
    }

    /// Turns decision-event journaling on or off (counters stay on).
    pub fn set_events(&mut self, on: bool) {
        self.record_events = on;
    }

    /// The journal recorded so far.
    pub fn journal(&self) -> &RunJournal {
        &self.journal
    }

    /// Takes the finished journal, resetting the recorder for another run
    /// (event recording stays as configured).
    pub fn take_journal(&mut self) -> RunJournal {
        std::mem::take(&mut self.journal)
    }

    fn push(
        &mut self,
        kind: EventKind,
        site: SiteId,
        thread: ThreadId,
        time: SimTime,
        delay: SimTime,
        permille: u32,
    ) {
        if self.record_events {
            self.journal.events.push(JournalEvent {
                kind,
                site,
                thread,
                time,
                delay,
                permille,
            });
        }
    }

    /// Records a fired delay of length `delay`, rolled at probability
    /// `permille`.
    pub fn injected(
        &mut self,
        site: SiteId,
        thread: ThreadId,
        time: SimTime,
        delay: SimTime,
        permille: u32,
    ) {
        self.journal.counters.injected += 1;
        self.journal.delay_hist.record(delay);
        self.push(EventKind::Injected, site, thread, time, delay, permille);
    }

    /// Records an injection declined by the probability roll at `permille`.
    pub fn skipped_probability(
        &mut self,
        site: SiteId,
        thread: ThreadId,
        time: SimTime,
        permille: u32,
    ) {
        self.journal.counters.skipped_probability += 1;
        self.push(
            EventKind::SkippedProbability,
            site,
            thread,
            time,
            SimTime::ZERO,
            permille,
        );
    }

    /// Records an injection suppressed by interference control (§4.4).
    pub fn skipped_interference(&mut self, site: SiteId, thread: ThreadId, time: SimTime) {
        self.journal.counters.skipped_interference += 1;
        self.push(
            EventKind::SkippedInterference,
            site,
            thread,
            time,
            SimTime::ZERO,
            0,
        );
    }

    /// Records a probability-decay step; `permille` is the post-step value.
    pub fn decay_step(&mut self, site: SiteId, thread: ThreadId, time: SimTime, permille: u32) {
        self.journal.counters.decay_steps += 1;
        self.push(
            EventKind::DecayStep,
            site,
            thread,
            time,
            SimTime::ZERO,
            permille,
        );
    }

    /// Records one instrumented access and the overhead charged for it.
    pub fn instrumented(&mut self, overhead: SimTime) {
        self.journal.counters.instrumented_ops += 1;
        self.journal.overhead_hist.record(overhead);
    }
}

/// All journals of one detection attempt, in run order, with enough
/// context to aggregate across attempts and campaigns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttemptJournal {
    /// Workload (test input) name.
    pub workload: String,
    /// Tool that drove the runs.
    pub tool: String,
    /// The attempt seed (the paper's repetition index).
    pub attempt_seed: u64,
    /// One journal per detection run, in execution order.
    pub runs: Vec<RunJournal>,
}

impl AttemptJournal {
    /// Serializes the attempt journal.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a persisted attempt journal.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_sim::time::us;

    #[test]
    fn counters_update_without_event_recording() {
        let mut t = RunTelemetry::counters_only();
        t.injected(SiteId(1), ThreadId(0), us(10), us(115), 1000);
        t.decay_step(SiteId(1), ThreadId(0), us(10), 850);
        t.skipped_probability(SiteId(1), ThreadId(0), us(20), 850);
        t.skipped_interference(SiteId(2), ThreadId(1), us(30));
        t.instrumented(us(1));
        let j = t.take_journal();
        assert_eq!(j.counters.injected, 1);
        assert_eq!(j.counters.decay_steps, 1);
        assert_eq!(j.counters.skipped_probability, 1);
        assert_eq!(j.counters.skipped_interference, 1);
        assert_eq!(j.counters.instrumented_ops, 1);
        assert_eq!(j.counters.decisions(), 3);
        assert!(j.events.is_empty(), "events off by default");
        assert_eq!(j.delay_hist.count(), 1);
        assert_eq!(j.overhead_hist.sum_us(), 1);
    }

    #[test]
    fn event_journal_preserves_decision_order_and_payloads() {
        let mut t = RunTelemetry::with_events();
        t.skipped_interference(SiteId(3), ThreadId(2), us(5));
        t.injected(SiteId(3), ThreadId(2), us(7), us(200), 700);
        t.decay_step(SiteId(3), ThreadId(2), us(7), 550);
        let j = t.take_journal();
        assert_eq!(j.events.len(), 3);
        assert_eq!(j.events[0].kind, EventKind::SkippedInterference);
        assert_eq!(j.events[1].kind, EventKind::Injected);
        assert_eq!(j.events[1].delay, us(200));
        assert_eq!(j.events[1].permille, 700);
        assert_eq!(j.events[2].kind, EventKind::DecayStep);
        assert_eq!(j.events[2].permille, 550);
    }

    #[test]
    fn take_journal_resets_but_keeps_event_mode() {
        let mut t = RunTelemetry::with_events();
        t.injected(SiteId(0), ThreadId(0), us(1), us(10), 1000);
        let first = t.take_journal();
        assert_eq!(first.counters.injected, 1);
        assert!(t.journal().events.is_empty());
        t.injected(SiteId(0), ThreadId(0), us(2), us(10), 1000);
        let second = t.take_journal();
        assert_eq!(second.counters.injected, 1);
        assert_eq!(second.events.len(), 1, "event mode survives take");
    }

    #[test]
    fn journals_round_trip_through_json() {
        let mut t = RunTelemetry::with_events();
        t.injected(SiteId(9), ThreadId(1), us(42), us(115), 1000);
        t.decay_step(SiteId(9), ThreadId(1), us(42), 850);
        let attempt = AttemptJournal {
            workload: "w".into(),
            tool: "waffle".into(),
            attempt_seed: 3,
            runs: vec![t.take_journal()],
        };
        let back = AttemptJournal::from_json(&attempt.to_json().unwrap()).unwrap();
        assert_eq!(back, attempt);
        assert_eq!(back.runs[0].counters.injected, 1);
        assert_eq!(back.runs[0].counters.decay_steps, 1);
    }
}
