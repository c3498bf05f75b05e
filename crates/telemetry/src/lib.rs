//! Structured run telemetry for the detection runtime.
//!
//! The paper's evaluation (§6, Tables 4–7) is built on per-run injection
//! behaviour: how many delays fired, how many were skipped by probability
//! decay versus interference control, and how the decay state evolved over
//! the course of a campaign. This crate is the observability layer that
//! exposes that behaviour as data instead of ad-hoc log lines:
//!
//! - [`journal`] — a cheap, allocation-conscious per-run event journal
//!   ([`RunJournal`]) recording every injection decision (fired /
//!   skipped-probability / skipped-interference / decay-step) with its
//!   site, thread, and sim-time, next to always-on counters;
//! - [`metrics`] — sim-time histograms ([`SimTimeHistogram`]) for delay
//!   lengths and instrumentation overhead, cross-run aggregation
//!   ([`TelemetrySummary`]), and a deterministic name-keyed
//!   [`MetricsRegistry`] for campaign-level breakdowns.
//!
//! Every policy in `waffle-inject` owns a [`RunTelemetry`] recorder; the
//! detector collects the finished journals per run, and the experiment
//! layer merges them **in attempt order**, so aggregated telemetry is
//! bit-identical at any `--jobs` worker count — the same determinism
//! contract the experiment engine gives for summaries.
//!
//! Counters are always on (they are a handful of integer increments per
//! decision); the event journal is opt-in per run
//! ([`RunTelemetry::with_events`]) so the hot path stays allocation-free
//! unless a campaign actually asked for `--telemetry`.

pub mod journal;
pub mod metrics;

pub use journal::{
    AttemptJournal, EventKind, JournalEvent, RunJournal, RunTelemetry, TelemetryCounters,
};
pub use metrics::{MetricsRegistry, SimTimeHistogram, TelemetrySummary};
