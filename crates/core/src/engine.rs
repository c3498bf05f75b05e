//! Parallel experiment execution.
//!
//! Detection attempts are embarrassingly parallel: `Detector::detect` is a
//! pure function of `(workload, seed)`, and [`run_experiment`] derives the
//! attempt seeds from the attempt index alone. [`ExperimentEngine`] exploits
//! that by fanning attempts (and whole grid cells) out through [`par_map`]
//! while keeping the seed assignment — and therefore every simulated run —
//! exactly identical to the sequential path. Results come back in input
//! order, so a summary computed with `jobs = 8` is bit-for-bit the summary
//! computed with `jobs = 1`.
//!
//! [`run_experiment`]: crate::experiment::run_experiment

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use waffle_sim::Workload;

use crate::detector::Detector;
use crate::experiment::{run_experiment, summarize, ExperimentSummary};
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

/// The seed for attempt number `attempt` (0-based). Shared by the
/// sequential and parallel paths; keeping them on one formula is what
/// makes the engine's results reproducible at any job count.
pub fn attempt_seed(attempt: u32) -> u64 {
    u64::from(attempt) + 1
}

/// One `(workload, tool)` cell of an experiment grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The workload to run.
    pub workload: Workload,
    /// The configured detector (tool + config) to run it under.
    pub detector: Detector,
    /// Number of repetition attempts (§6.1; the paper uses 15).
    pub attempts: u32,
}

/// A worker pool that runs detection attempts and experiment grids in
/// parallel, with results identical to sequential execution.
#[derive(Debug, Clone)]
pub struct ExperimentEngine {
    jobs: usize,
}

impl Default for ExperimentEngine {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

impl ExperimentEngine {
    /// Creates an engine with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        ExperimentEngine {
            jobs: jobs.max(1),
        }
    }

    /// Creates an engine sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let jobs = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::new(jobs)
    }

    /// The worker count this engine fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `attempts` detection attempts in parallel and summarizes them.
    ///
    /// Equivalent to [`run_experiment`](crate::experiment::run_experiment):
    /// attempt `a` uses seed [`attempt_seed`]`(a)` regardless of which
    /// worker executes it, and outcomes are summarized in attempt order.
    pub fn run_experiment(
        &self,
        detector: &Detector,
        workload: &Workload,
        attempts: u32,
    ) -> ExperimentSummary {
        let outcomes = self.run_attempts(detector, workload, attempts);
        summarize(detector, workload, &outcomes)
    }

    /// Runs the attempts and returns the raw outcomes in attempt order.
    ///
    /// A panicking attempt does not stop the others; the panic with the
    /// lowest attempt index is resurfaced afterwards, annotated with that
    /// index and its seed.
    pub fn run_attempts(
        &self,
        detector: &Detector,
        workload: &Workload,
        attempts: u32,
    ) -> Vec<DetectionOutcome> {
        par_map(attempts as usize, self.jobs, |i| {
            detector.detect(workload, attempt_seed(i as u32))
        })
        .unwrap_or_else(|(i, msg)| {
            panic!(
                "attempt {i} (seed {}) panicked: {msg}",
                attempt_seed(i as u32)
            )
        })
    }

    /// Runs every grid cell and returns the summaries in cell order.
    ///
    /// Cells are the unit of parallelism. Within a cell the attempts run
    /// sequentially with the standard seed assignment, so each summary is
    /// identical to what [`run_experiment`](Self::run_experiment) — or the
    /// sequential free function — produces for that cell alone.
    ///
    /// A panicking cell does not stop the others; the panic with the
    /// lowest cell index is resurfaced with the cell's identity. Callers
    /// that must *survive* a panicking cell instead of re-panicking want
    /// the checkpointing [`Campaign`](crate::campaign::Campaign) runner,
    /// which quarantines it.
    pub fn run_grid(&self, cells: &[GridCell]) -> Vec<ExperimentSummary> {
        par_map(cells.len(), self.jobs, |i| {
            let c = &cells[i];
            run_experiment(&c.detector, &c.workload, c.attempts)
        })
        .unwrap_or_else(|(i, msg)| {
            let cell = &cells[i];
            panic!(
                "grid cell {i} ({} / {}) panicked: {msg}",
                cell.workload.name,
                cell.detector.tool().name()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorConfig, Tool};
    use waffle_sim::{SimTime, WorkloadBuilder};

    fn racy(name: &str) -> Workload {
        let mut b = WorkloadBuilder::new(name);
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
    fn engine_matches_sequential_summary() {
        let det = Detector::new(Tool::waffle());
        let w = racy("engine.racy");
        let sequential = crate::experiment::run_experiment(&det, &w, 8);
        for jobs in [1, 2, 4] {
            let parallel = ExperimentEngine::new(jobs).run_experiment(&det, &w, 8);
            assert_eq!(parallel, sequential, "jobs = {jobs}");
        }
    }

    #[test]
    fn grid_preserves_cell_order() {
        let cells: Vec<GridCell> = (0..6)
            .map(|i| GridCell {
                workload: racy(&format!("engine.grid{i}")),
                detector: Detector::with_config(
                    Tool::waffle(),
                    DetectorConfig {
                        max_detection_runs: 6,
                        ..DetectorConfig::default()
                    },
                ),
                attempts: 3,
            })
            .collect();
        let summaries = ExperimentEngine::new(4).run_grid(&cells);
        assert_eq!(summaries.len(), cells.len());
        for (i, s) in summaries.iter().enumerate() {
            assert_eq!(s.workload, format!("engine.grid{i}"));
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
        let w = racy("engine.panic");
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ExperimentEngine::new(4).run_attempts(&det, &w, 6)
        }))
        .expect_err("the panic must propagate");
        let msg = panic_message(caught.as_ref());
        assert!(msg.contains("attempt 2"), "index surfaced: {msg}");
        assert!(msg.contains("fault injection"), "payload surfaced: {msg}");
    }

    /// A panicking grid cell resurfaces with its index and identity.
    #[test]
    fn grid_cell_panic_resurfaces_with_cell_identity() {
        let mut cells: Vec<GridCell> = (0..4)
            .map(|i| GridCell {
                workload: racy(&format!("engine.gridpanic{i}")),
                detector: Detector::with_config(
                    Tool::waffle(),
                    DetectorConfig {
                        max_detection_runs: 4,
                        ..DetectorConfig::default()
                    },
                ),
                attempts: 2,
            })
            .collect();
        cells[1].detector = Detector::with_config(
            Tool::waffle(),
            DetectorConfig {
                max_detection_runs: 4,
                panic_on_seed: Some(attempt_seed(0)),
                ..DetectorConfig::default()
            },
        );
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ExperimentEngine::new(4).run_grid(&cells)
        }))
        .expect_err("the panic must propagate");
        let msg = panic_message(caught.as_ref());
        assert!(msg.contains("grid cell 1"), "cell index surfaced: {msg}");
        assert!(msg.contains("engine.gridpanic1"), "cell identity surfaced: {msg}");
        assert!(msg.contains("fault injection"), "payload surfaced: {msg}");
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

    #[test]
    fn zero_attempts_and_empty_grids_are_fine() {
        let det = Detector::new(Tool::waffle());
        let w = racy("engine.empty");
        let summary = ExperimentEngine::new(4).run_experiment(&det, &w, 0);
        assert_eq!(summary.attempts, 0);
        assert!(ExperimentEngine::new(4).run_grid(&[]).is_empty());
    }
}
