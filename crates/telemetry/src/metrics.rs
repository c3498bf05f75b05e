//! Sim-time histograms and cross-run aggregation.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use waffle_sim::SimTime;

use crate::journal::{AttemptJournal, RunJournal, TelemetryCounters};

/// Number of power-of-two buckets: bucket 0 holds zero-length values,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)` microseconds. 40
/// buckets cover every representable `SimTime` the simulator produces
/// (2^39 µs ≈ 6.4 days of virtual time).
const BUCKETS: usize = 40;

/// A fixed-bucket log₂ histogram over [`SimTime`] values (microsecond
/// resolution). Recording is allocation-free after construction; merging
/// is bucket-wise addition, so aggregation order cannot change the result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimTimeHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for SimTimeHistogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl SimTimeHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: SimTime) {
        let us = value.as_us();
        self.buckets[Self::bucket_index(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Largest recorded value, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean recorded value in microseconds (zero when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive, µs) of the bucket holding the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`), or `None` when empty. Bucket-granular: the true
    /// quantile lies within a factor of two below the returned bound.
    pub fn quantile_upper_bound_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i == 0 { 0 } else { 1u64 << i });
            }
        }
        None
    }

    /// Bucket-wise accumulation of another histogram.
    pub fn merge(&mut self, other: &SimTimeHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Non-empty buckets as `(lower_us, upper_us_exclusive, count)` rows.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                if i == 0 {
                    (0, 1, n)
                } else {
                    (1u64 << (i - 1), 1u64 << i, n)
                }
            })
    }
}

/// Telemetry aggregated over any number of runs (and attempts).
///
/// Merging is commutative and associative, but the experiment layer still
/// folds journals **in attempt order** so that even non-commutative
/// consumers (e.g. event concatenation, if ever added) would stay
/// deterministic under the parallel engine.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Detection runs aggregated.
    pub runs: u64,
    /// Summed decision counters.
    pub counters: TelemetryCounters,
    /// Merged delay-length histogram.
    pub delay_hist: SimTimeHistogram,
    /// Merged instrumentation-overhead histogram.
    pub overhead_hist: SimTimeHistogram,
}

impl TelemetrySummary {
    /// Folds one run journal into the summary.
    pub fn absorb_run(&mut self, journal: &RunJournal) {
        self.runs += 1;
        self.counters.merge(&journal.counters);
        self.delay_hist.merge(&journal.delay_hist);
        self.overhead_hist.merge(&journal.overhead_hist);
    }

    /// Folds every run of an attempt journal into the summary.
    pub fn absorb_attempt(&mut self, attempt: &AttemptJournal) {
        for run in &attempt.runs {
            self.absorb_run(run);
        }
    }

    /// Accumulates another summary.
    pub fn merge(&mut self, other: &TelemetrySummary) {
        self.runs += other.runs;
        self.counters.merge(&other.counters);
        self.delay_hist.merge(&other.delay_hist);
        self.overhead_hist.merge(&other.overhead_hist);
    }
}

/// A deterministic, name-keyed metrics registry for campaign-level
/// breakdowns (e.g. per `workload/tool` counters in `waffle stats`).
/// `BTreeMap` keys make iteration — and serialized output — stable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, SimTimeHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter, creating it at zero.
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// The named counter's value (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mutable access to the named histogram, creating it empty.
    pub(crate) fn histogram_mut(&mut self, name: &str) -> &mut SimTimeHistogram {
        self.histograms.entry(name.to_owned()).or_default()
    }

    /// The named histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&SimTimeHistogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Adds every counter and histogram of `other` into this registry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.inc(name, value);
        }
        for (name, hist) in &other.histograms {
            self.histogram_mut(name).merge(hist);
        }
    }

    /// Records one duration observation (µs) under `name`: bumps the
    /// `{name}/count` counter, adds to `{name}/total_us`, and buckets the
    /// value in the `{name}` histogram. Used for phase timings such as
    /// `analysis/index_build` and `analysis/scan` (`waffle analyze --stats`).
    pub fn observe_us(&mut self, name: &str, us: u64) {
        self.inc(&format!("{name}/count"), 1);
        self.inc(&format!("{name}/total_us"), us);
        self.histogram_mut(name).record(SimTime::from_us(us));
    }

    /// Records one dimensionless observation (e.g. an ingest queue depth)
    /// under `name`: bumps `{name}/count`, adds to `{name}/total`, and
    /// buckets the raw value in the `{name}` histogram (log₂ buckets; the
    /// histogram's µs labels read as plain magnitudes here).
    pub fn observe_value(&mut self, name: &str, value: u64) {
        self.inc(&format!("{name}/count"), 1);
        self.inc(&format!("{name}/total"), value);
        self.histogram_mut(name).record(SimTime::from_us(value));
    }

    /// Folds an attempt journal in under a `workload/tool` prefix, plus
    /// the global totals: its runs folded into a [`TelemetrySummary`],
    /// then [`absorb_summary`](Self::absorb_summary).
    pub fn absorb_attempt(&mut self, attempt: &AttemptJournal) {
        let mut summary = TelemetrySummary::default();
        summary.absorb_attempt(attempt);
        self.absorb_summary(&attempt.workload, &attempt.tool, &summary);
    }

    /// Folds an already-aggregated per-cell summary in under a
    /// `workload/tool` prefix, plus the global totals — the resume path of
    /// a checkpointed campaign, where each cell's journals were folded
    /// into its [`TelemetrySummary`] before being persisted. Because
    /// counter and histogram merging is commutative bucket-wise addition,
    /// folding checkpointed summaries is bit-identical to folding the
    /// original run journals.
    pub fn absorb_summary(&mut self, workload: &str, tool: &str, summary: &TelemetrySummary) {
        let prefix = format!("{workload}/{tool}");
        for (name, value) in [
            ("injected", summary.counters.injected),
            ("skipped_probability", summary.counters.skipped_probability),
            (
                "skipped_interference",
                summary.counters.skipped_interference,
            ),
            ("decay_steps", summary.counters.decay_steps),
            ("instrumented_ops", summary.counters.instrumented_ops),
        ] {
            self.inc(&format!("{prefix}/{name}"), value);
            self.inc(&format!("total/{name}"), value);
        }
        self.inc(&format!("{prefix}/runs"), summary.runs);
        self.inc("total/runs", summary.runs);
        for name in [format!("{prefix}/delay"), "total/delay".to_owned()] {
            self.histogram_mut(&name).merge(&summary.delay_hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::RunTelemetry;
    use waffle_mem::SiteId;
    use waffle_sim::time::{ms, us};
    use waffle_sim::ThreadId;

    #[test]
    fn histogram_buckets_values_by_power_of_two() {
        let mut h = SimTimeHistogram::new();
        h.record(SimTime::ZERO);
        h.record(us(1));
        h.record(us(3));
        h.record(ms(100));
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_us(), 100_004);
        assert_eq!(h.max_us(), 100_000);
        let rows: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(rows[0], (0, 1, 1), "zero bucket");
        assert!(rows.iter().any(|&(lo, hi, n)| lo == 1 && hi == 2 && n == 1));
        assert!(rows.iter().any(|&(lo, hi, n)| lo == 2 && hi == 4 && n == 1));
        assert!(
            rows.iter()
                .any(|&(lo, hi, n)| lo <= 100_000 && 100_000 < hi && n == 1),
            "100ms lands in its power-of-two bucket"
        );
    }

    #[test]
    fn histogram_merge_is_bucketwise_and_order_independent() {
        let mut a = SimTimeHistogram::new();
        a.record(us(10));
        a.record(us(500));
        let mut b = SimTimeHistogram::new();
        b.record(us(10));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 3);
        assert_eq!(ab.sum_us(), 520);
    }

    #[test]
    fn quantile_bound_brackets_the_median() {
        let mut h = SimTimeHistogram::new();
        for _ in 0..10 {
            h.record(us(100)); // bucket [64, 128)
        }
        h.record(ms(50));
        let p50 = h.quantile_upper_bound_us(0.5).unwrap();
        assert_eq!(p50, 128);
        assert!(h.quantile_upper_bound_us(1.0).unwrap() > 50_000);
        assert_eq!(SimTimeHistogram::new().quantile_upper_bound_us(0.5), None);
    }

    #[test]
    fn summary_absorbs_runs_and_merges() {
        let mut t = RunTelemetry::counters_only();
        t.injected(SiteId(0), ThreadId(0), us(5), us(115), 1000);
        t.decay_step(SiteId(0), ThreadId(0), us(5), 850);
        let j1 = t.take_journal();
        t.skipped_probability(SiteId(0), ThreadId(0), us(6), 850);
        let j2 = t.take_journal();
        let mut s = TelemetrySummary::default();
        s.absorb_run(&j1);
        s.absorb_run(&j2);
        assert_eq!(s.runs, 2);
        assert_eq!(s.counters.injected, 1);
        assert_eq!(s.counters.skipped_probability, 1);
        let mut merged = TelemetrySummary::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.runs, 4);
        assert_eq!(merged.counters.decay_steps, 2);
        assert_eq!(merged.delay_hist.count(), 2);
    }

    /// The campaign resume path: folding a checkpointed per-cell summary
    /// must equal folding the attempt journals it was built from.
    #[test]
    fn absorbing_a_folded_summary_equals_absorbing_its_journals() {
        let mut t = RunTelemetry::counters_only();
        t.injected(SiteId(0), ThreadId(0), us(5), us(115), 1000);
        t.decay_step(SiteId(0), ThreadId(0), us(5), 850);
        let j1 = t.take_journal();
        t.skipped_probability(SiteId(0), ThreadId(0), us(6), 850);
        t.injected(SiteId(1), ThreadId(1), us(9), us(230), 850);
        let j2 = t.take_journal();
        let attempt = AttemptJournal {
            workload: "w".into(),
            tool: "waffle".into(),
            attempt_seed: 1,
            runs: vec![j1.clone(), j2.clone()],
        };
        let mut from_journals = MetricsRegistry::new();
        from_journals.absorb_attempt(&attempt);
        let mut cell_summary = TelemetrySummary::default();
        cell_summary.absorb_run(&j1);
        cell_summary.absorb_run(&j2);
        let mut from_summary = MetricsRegistry::new();
        from_summary.absorb_summary("w", "waffle", &cell_summary);
        assert_eq!(from_summary, from_journals);
        assert_eq!(from_summary.counter("w/waffle/injected"), 2);
        assert_eq!(from_summary.counter("total/runs"), 2);
        assert_eq!(from_summary.histogram("total/delay").unwrap().count(), 2);
    }

    #[test]
    fn observe_us_tracks_count_total_and_histogram() {
        let mut r = MetricsRegistry::new();
        r.observe_us("analysis/index_build", 300);
        r.observe_us("analysis/index_build", 700);
        assert_eq!(r.counter("analysis/index_build/count"), 2);
        assert_eq!(r.counter("analysis/index_build/total_us"), 1_000);
        let h = r.histogram("analysis/index_build").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_us(), 1_000);
        assert_eq!(h.max_us(), 700);
    }

    #[test]
    fn registry_breaks_out_per_workload_counters_deterministically() {
        let mut t = RunTelemetry::counters_only();
        t.injected(SiteId(0), ThreadId(0), us(5), us(115), 1000);
        let attempt = AttemptJournal {
            workload: "w1".into(),
            tool: "waffle".into(),
            attempt_seed: 1,
            runs: vec![t.take_journal()],
        };
        let mut r = MetricsRegistry::new();
        r.absorb_attempt(&attempt);
        assert_eq!(r.counter("w1/waffle/injected"), 1);
        assert_eq!(r.counter("total/injected"), 1);
        assert_eq!(r.counter("w1/waffle/runs"), 1);
        assert_eq!(r.counter("absent/metric"), 0);
        assert_eq!(r.histogram("w1/waffle/delay").unwrap().count(), 1);
        let names: Vec<_> = r.counters().map(|(n, _)| n.to_owned()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "iteration is name-ordered");
    }
}
