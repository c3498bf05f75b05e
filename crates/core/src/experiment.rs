//! The paper's repetition methodology (§6.1): each experiment runs 15
//! times; a bug is reported as "detected in k runs" when that holds in a
//! majority (≥10/15) of the attempts; otherwise the median is reported.

use serde::{Deserialize, Serialize};
use waffle_sim::Workload;
use waffle_telemetry::TelemetrySummary;

use crate::detector::Detector;
use crate::report::DetectionOutcome;

/// Aggregated result of repeated detection attempts on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSummary {
    /// Workload name.
    pub workload: String,
    /// Tool name.
    pub tool: String,
    /// Attempts performed.
    pub attempts: u32,
    /// Attempts in which the bug was exposed.
    pub exposed_attempts: u32,
    /// Attempts in which a thread-safety violation was exposed instead of
    /// a MemOrder bug (only the TSVD baseline reports these).
    pub tsv_attempts: u32,
    /// Runs-to-exposure when at least two thirds of all attempts (10 of
    /// 15) agree on the same count (the paper's reporting rule);
    /// otherwise `None`.
    pub majority_runs: Option<u32>,
    /// Median runs-to-exposure across successful attempts.
    pub median_runs: Option<u32>,
    /// Median end-to-end slowdown across successful attempts.
    pub median_slowdown: Option<f64>,
    /// Whether any attempt saw a timed-out run.
    pub any_timeout: bool,
    /// Telemetry aggregated across every detection run of every attempt,
    /// folded in attempt order (deterministic at any worker count).
    pub telemetry: TelemetrySummary,
}

impl ExperimentSummary {
    /// Whether the tool is credited with detecting the bug: exposed in a
    /// majority of attempts.
    pub fn detected(&self) -> bool {
        self.exposed_attempts * 2 > self.attempts
    }

    /// The runs-to-exposure figure the paper reports: the majority count
    /// when one exists, the median otherwise.
    pub fn reported_runs(&self) -> Option<u32> {
        self.majority_runs.or(self.median_runs)
    }
}

fn median<T: Copy + Ord>(values: &mut [T]) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    Some(values[values.len() / 2])
}

/// Runs `attempts` independent detection attempts (distinct seeds) and
/// summarizes them per §6.1. Seeds come from the same
/// [`attempt_seed`](crate::engine::attempt_seed) ladder as the parallel
/// engine and the campaign runner, so all three paths are interchangeable.
pub fn run_experiment(
    detector: &Detector,
    workload: &Workload,
    attempts: u32,
) -> ExperimentSummary {
    let outcomes: Vec<DetectionOutcome> = (0..attempts)
        .map(|a| detector.detect(workload, crate::engine::attempt_seed(a)))
        .collect();
    summarize(detector, workload, &outcomes)
}

/// Summarizes already-computed outcomes (used when callers also need the
/// raw outcomes, e.g. for the overhead tables).
pub fn summarize(
    detector: &Detector,
    workload: &Workload,
    outcomes: &[DetectionOutcome],
) -> ExperimentSummary {
    let mut runs: Vec<u32> = outcomes
        .iter()
        .filter_map(|o| o.exposed.as_ref().map(|b| b.total_runs))
        .collect();
    // Round to the nearest millislowdown: truncation would report a
    // 1.9996× attempt as 1.999× and bias the median low.
    let mut slowdowns_milli: Vec<u64> = outcomes
        .iter()
        .filter(|o| o.exposed.is_some())
        .map(|o| (o.slowdown() * 1000.0).round() as u64)
        .collect();
    let exposed_attempts = runs.len() as u32;
    // Majority rule: at least ⌈2/3⌉ of attempts (10 of 15) agree.
    let majority_runs = {
        let mut counts = std::collections::HashMap::new();
        for r in &runs {
            *counts.entry(*r).or_insert(0u32) += 1;
        }
        counts
            .into_iter()
            .find(|(_, c)| *c * 3 >= outcomes.len() as u32 * 2)
            .map(|(r, _)| r)
    };
    // Fold journals in outcome (= attempt) order, runs in run order: the
    // same order at any `--jobs`, so aggregation is bit-identical.
    let mut telemetry = TelemetrySummary::default();
    for o in outcomes {
        for j in &o.telemetry {
            telemetry.absorb_run(j);
        }
    }
    ExperimentSummary {
        workload: workload.name.clone(),
        tool: detector.tool().name().to_owned(),
        attempts: outcomes.len() as u32,
        exposed_attempts,
        tsv_attempts: outcomes.iter().filter(|o| o.tsv_exposed.is_some()).count() as u32,
        majority_runs,
        median_runs: median(&mut runs),
        median_slowdown: median(&mut slowdowns_milli).map(|m| m as f64 / 1000.0),
        any_timeout: outcomes.iter().any(|o| o.any_timeout()),
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Tool;
    use waffle_sim::{SimTime, WorkloadBuilder};

    fn racy() -> Workload {
        let mut b = WorkloadBuilder::new("exp.racy");
        let o = b.object("o");
        let started = b.event("s");
        let worker = b.script("worker", move |s| {
            s.wait(started)
                .compute(SimTime::from_us(150))
                .use_(o, "W.use:1", SimTime::from_us(10));
        });
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", SimTime::from_us(10))
                .fork(worker)
                .signal(started)
                .compute(SimTime::from_us(700))
                .dispose(o, "M.dispose:9", SimTime::from_us(10))
                .join_children();
        });
        b.main(main);
        b.build()
    }

    #[test]
    fn fifteen_attempts_agree_on_two_runs() {
        let det = Detector::new(Tool::waffle());
        let summary = run_experiment(&det, &racy(), 15);
        assert!(summary.detected());
        assert_eq!(summary.exposed_attempts, 15);
        assert_eq!(summary.majority_runs, Some(2));
        assert_eq!(summary.reported_runs(), Some(2));
        assert!(summary.median_slowdown.unwrap() > 1.0);
    }

    #[test]
    fn clean_workload_is_never_detected() {
        let mut b = WorkloadBuilder::new("exp.clean");
        let o = b.object("o");
        let main = b.script("main", move |s| {
            s.init(o, "i", SimTime::from_us(5))
                .use_(o, "u", SimTime::from_us(5))
                .dispose(o, "d", SimTime::from_us(5));
        });
        b.main(main);
        let w = b.build();
        let det = Detector::with_config(
            Tool::waffle(),
            crate::detector::DetectorConfig {
                max_detection_runs: 3,
                ..Default::default()
            },
        );
        let summary = run_experiment(&det, &w, 5);
        assert!(!summary.detected());
        assert_eq!(summary.exposed_attempts, 0);
        assert_eq!(summary.reported_runs(), None);
    }

    /// An attempt that exposed the bug after `runs` runs.
    fn exposed_after(runs: u32) -> DetectionOutcome {
        use crate::report::BugReport;
        DetectionOutcome {
            workload: "agree".into(),
            base_time: SimTime::from_us(100),
            exposed: Some(BugReport {
                workload: "agree".into(),
                kind: waffle_mem::NullRefKind::UseAfterFree,
                site: "X".into(),
                obj: waffle_mem::ObjectId(0),
                time: SimTime::from_us(1),
                exposed_in_run: runs,
                total_runs: runs,
                delays_in_run: 1,
                delayed_sites: vec!["X".into()],
                thread_contexts: vec![],
                memory_model: waffle_sim::MemoryModel::Sc,
            }),
            ..DetectionOutcome::default()
        }
    }

    /// The reporting rule needs two thirds of the attempts to agree: 10
    /// of 15 is enough, 9 of 15 (still a strict majority) is not.
    #[test]
    fn majority_runs_needs_two_thirds_of_the_attempts() {
        let det = Detector::new(Tool::waffle());
        for (agreeing, want) in [(10, Some(3)), (9, None)] {
            let outcomes: Vec<DetectionOutcome> = (0..15)
                .map(|i| exposed_after(if i < agreeing { 3 } else { 4 + i }))
                .collect();
            let summary = summarize(&det, &racy(), &outcomes);
            assert_eq!(summary.majority_runs, want, "{agreeing} of 15 agree");
        }
    }

    #[test]
    fn median_helper_handles_odd_and_even() {
        assert_eq!(median(&mut [3, 1, 2]), Some(2));
        assert_eq!(median(&mut [4, 1, 2, 3]), Some(3));
        assert_eq!(median::<u32>(&mut []), None);
    }

    /// Regression: the median slowdown is rounded to the nearest
    /// millislowdown, not floored. A 1.9996× attempt must report as
    /// 2.000, not 1.999.
    #[test]
    fn median_slowdown_rounds_to_nearest_millislowdown() {
        use crate::report::{BugReport, RunSummary};
        let base_us = 10_000u64;
        // total/base = 19_996/10_000 = 1.9996.
        let outcome = DetectionOutcome {
            workload: "round".into(),
            base_time: SimTime::from_us(base_us),
            detection_runs: vec![RunSummary {
                time: SimTime::from_us(19_996),
                ..RunSummary::default()
            }],
            exposed: Some(BugReport {
                workload: "round".into(),
                kind: waffle_mem::NullRefKind::UseAfterFree,
                site: "X".into(),
                obj: waffle_mem::ObjectId(0),
                time: SimTime::from_us(1),
                exposed_in_run: 1,
                total_runs: 1,
                delays_in_run: 1,
                delayed_sites: vec!["X".into()],
                thread_contexts: vec![],
                memory_model: waffle_sim::MemoryModel::Sc,
            }),
            ..DetectionOutcome::default()
        };
        assert!((outcome.slowdown() - 1.9996).abs() < 1e-9);
        let det = Detector::new(Tool::waffle());
        let summary = summarize(&det, &racy(), &[outcome]);
        assert_eq!(summary.median_slowdown, Some(2.0));
    }
}
