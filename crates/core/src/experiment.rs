//! The paper's repetition methodology (§6.1): each experiment runs 15
//! times; a bug is reported as "detected in k runs" when that holds in a
//! majority (≥10/15) of the attempts; otherwise the median is reported.
//!
//! Attempts are embarrassingly parallel: `Detector::detect` is a pure
//! function of `(workload, seed)`, and attempt `a` always runs at seed
//! [`attempt_seed`]`(a)`. [`run_attempts`] fans them out through
//! [`par_map`], which returns results in attempt order, so a summary
//! computed with `jobs = 8` is bit-for-bit the summary computed with
//! `jobs = 1`. The campaign runner and the paper tables use the same
//! `par_map` and seed ladder.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};
use waffle_sim::Workload;
use waffle_telemetry::TelemetrySummary;

use crate::detector::Detector;
use crate::report::DetectionOutcome;

/// Renders a caught panic payload as a message (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Computes `f(0), …, f(n - 1)` on up to `jobs` scoped worker threads and
/// returns the results in index order, so the output does not depend on
/// the worker count or on scheduling.
///
/// Runs inline when `jobs <= 1 || n <= 1`; otherwise `min(jobs, n)`
/// workers claim indices from one atomic counter. Every item's panic is
/// caught and the remaining items still run; the panic with the lowest
/// index is returned as `(index, message)`, which is the same answer at
/// any job count. Callers re-raise it with their own item's identity.
pub fn par_map<R, F>(n: usize, jobs: usize, f: F) -> Result<Vec<R>, (usize, String)>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let run = |i| catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| panic_message(p.as_ref()));
    let results: Vec<Result<R, String>> = if jobs <= 1 || n <= 1 {
        (0..n).map(run).collect()
    } else {
        let next = AtomicUsize::new(0);
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
        let mut done: Vec<(usize, Result<R, String>)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..jobs.min(n))
                .map(|_| {
                    s.spawn(|| {
                        std::iter::from_fn(claim)
                            .map(|i| (i, run(i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("par_map catches every item's panic"))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    };
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.map_err(|msg| (i, msg)))
        .collect()
}

/// The seed for attempt number `attempt` (0-based). Every runner keys
/// its attempts on this one formula, which is what makes their results
/// reproducible at any job count.
pub fn attempt_seed(attempt: u32) -> u64 {
    u64::from(attempt) + 1
}

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

/// Runs `attempts` detection attempts on up to `jobs` workers and returns
/// the outcomes in attempt order; attempt `a` runs at seed
/// [`attempt_seed`]`(a)` whichever worker picks it up.
///
/// A panicking attempt does not stop the others; the panic with the
/// lowest attempt index is resurfaced afterwards, annotated with that
/// index and its seed. Callers that must survive a panicking attempt
/// want the checkpointing [`Campaign`](crate::campaign::Campaign) runner,
/// which retries and then quarantines its cell.
pub fn run_attempts(
    detector: &Detector,
    workload: &Workload,
    attempts: u32,
    jobs: usize,
) -> Vec<DetectionOutcome> {
    par_map(attempts as usize, jobs, |a| {
        detector.detect(workload, attempt_seed(a as u32))
    })
    .unwrap_or_else(|(a, msg)| {
        panic!(
            "attempt {a} (seed {}) panicked: {msg}",
            attempt_seed(a as u32)
        )
    })
}

/// Runs `attempts` independent detection attempts on up to `jobs`
/// workers and summarizes them per §6.1. The summary is the same at any
/// `jobs`.
pub fn run_experiment(
    detector: &Detector,
    workload: &Workload,
    attempts: u32,
    jobs: usize,
) -> ExperimentSummary {
    summarize(
        detector,
        workload,
        &run_attempts(detector, workload, attempts, jobs),
    )
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
    use crate::detector::{DetectorConfig, Tool};
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
        let summary = run_experiment(&det, &racy(), 15, 1);
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
            DetectorConfig {
                max_detection_runs: 3,
                ..Default::default()
            },
        );
        let summary = run_experiment(&det, &w, 5, 1);
        assert!(!summary.detected());
        assert_eq!(summary.exposed_attempts, 0);
        assert_eq!(summary.reported_runs(), None);
    }

    #[test]
    fn summary_does_not_depend_on_the_job_count() {
        let det = Detector::new(Tool::waffle());
        let w = racy();
        let reference = run_experiment(&det, &w, 8, 1);
        for jobs in [2, 4] {
            assert_eq!(
                run_experiment(&det, &w, 8, jobs),
                reference,
                "jobs = {jobs}"
            );
        }
    }

    /// A panicking attempt resurfaces annotated with its index and seed.
    #[test]
    fn attempt_panic_resurfaces_with_its_index() {
        let det = Detector::with_config(
            Tool::waffle(),
            DetectorConfig {
                max_detection_runs: 4,
                panic_on_seed: Some(attempt_seed(2)),
                ..DetectorConfig::default()
            },
        );
        let caught = catch_unwind(AssertUnwindSafe(|| run_attempts(&det, &racy(), 6, 4)))
            .expect_err("the panic must propagate");
        let msg = panic_message(caught.as_ref());
        assert!(msg.contains("attempt 2"), "index surfaced: {msg}");
        assert!(msg.contains("fault injection"), "payload surfaced: {msg}");
    }

    #[test]
    fn zero_attempts_are_fine() {
        let det = Detector::new(Tool::waffle());
        assert!(run_attempts(&det, &racy(), 0, 4).is_empty());
        let summary = run_experiment(&det, &racy(), 0, 4);
        assert_eq!(summary.attempts, 0);
        assert_eq!(summary.reported_runs(), None);
    }

    /// Results come back in index order at any job count, even when later
    /// items finish first, and for `n = 0` and `n < jobs`.
    #[test]
    fn par_map_keeps_index_order() {
        for jobs in [1, 2, 8] {
            for n in [0, 1, 3, 17] {
                let out = par_map(n, jobs, |i| {
                    let cost = ((n - i) % 4) as u64 * 200;
                    std::thread::sleep(std::time::Duration::from_micros(cost));
                    i * i
                });
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, Ok(want), "jobs = {jobs}, n = {n}");
            }
        }
    }

    /// When several items panic, the lowest index is reported whatever the
    /// worker scheduling, and every item that does not panic still runs.
    #[test]
    fn par_map_reports_the_lowest_panic_and_runs_the_rest() {
        for jobs in [1, 2, 8] {
            let ran = AtomicUsize::new(0);
            let out = par_map(12, jobs, |i| {
                if [9, 4, 7].contains(&i) {
                    panic!("item {i} failed");
                }
                ran.fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out, Err((4, "item 4 failed".to_owned())), "jobs = {jobs}");
            assert_eq!(ran.into_inner(), 9, "jobs = {jobs}");
        }
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
