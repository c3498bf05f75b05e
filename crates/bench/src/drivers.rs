//! Measurement drivers shared by the bench targets.
//!
//! The table harnesses fan their experiment grids over
//! [`ExperimentEngine`], whose [`par_map`](waffle_core::engine::par_map)
//! returns cells in input order; the engine keys every attempt by seed,
//! so the printed numbers are identical at any worker count and
//! `WAFFLE_JOBS` only changes wall-clock time.

use waffle_apps::{all_apps, App, BugSpec};
use waffle_core::{Detector, DetectorConfig, ExperimentEngine, ExperimentSummary, GridCell, Tool};
use waffle_sim::{NullMonitor, SimConfig, SimTime, Simulator, Workload};

/// Engine shared by the bench harnesses: `WAFFLE_JOBS` workers when the
/// variable is set, the machine's available parallelism otherwise.
pub fn engine_from_env() -> ExperimentEngine {
    match std::env::var("WAFFLE_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(jobs) => ExperimentEngine::new(jobs),
        None => ExperimentEngine::default(),
    }
}

/// The bug-triggering workload for a spec.
fn bug_workload(spec: &BugSpec) -> Workload {
    all_apps()
        .into_iter()
        .find(|a| a.name == spec.app)
        .expect("bug app exists")
        .bug_workload(spec.id)
        .expect("bug workload exists")
        .clone()
}

/// One Table 4 row: both tools on one bug-triggering input.
#[derive(Debug, Clone)]
pub struct BugRow {
    /// The bug description.
    pub spec: BugSpec,
    /// Measured base execution time.
    pub base: SimTime,
    /// WaffleBasic's experiment summary.
    pub basic: ExperimentSummary,
    /// Waffle's experiment summary.
    pub waffle: ExperimentSummary,
}

/// Runs both tools on every bug with the paper's repetition count,
/// fanning the whole `(bug × tool)` grid over the engine's workers.
pub fn bug_rows(
    specs: &[BugSpec],
    attempts: u32,
    max_basic_runs: u32,
    engine: &ExperimentEngine,
) -> Vec<BugRow> {
    let workloads: Vec<Workload> = specs.iter().map(bug_workload).collect();
    let mut cells = Vec::with_capacity(workloads.len() * 2);
    for w in &workloads {
        cells.push(GridCell {
            workload: w.clone(),
            detector: Detector::new(Tool::waffle()),
            attempts,
        });
        cells.push(GridCell {
            workload: w.clone(),
            detector: Detector::with_config(
                Tool::waffle_basic(),
                DetectorConfig {
                    max_detection_runs: max_basic_runs,
                    ..DetectorConfig::default()
                },
            ),
            attempts,
        });
    }
    let mut summaries = engine.run_grid(&cells).into_iter();
    specs
        .iter()
        .zip(&workloads)
        .map(|(spec, w)| {
            let waffle = summaries.next().expect("waffle summary");
            let basic = summaries.next().expect("basic summary");
            BugRow {
                spec: spec.clone(),
                base: base_time(w),
                basic,
                waffle,
            }
        })
        .collect()
}

/// Runs both tools on one bug with the paper's repetition count.
pub fn bug_row(spec: &BugSpec, attempts: u32, max_basic_runs: u32) -> BugRow {
    bug_rows(
        std::slice::from_ref(spec),
        attempts,
        max_basic_runs,
        &ExperimentEngine::new(1),
    )
    .pop()
    .expect("one spec in, one row out")
}

/// Measures the uninstrumented end-to-end time of a workload.
pub fn base_time(w: &Workload) -> SimTime {
    Simulator::run(w, SimConfig::with_seed(0), &mut NullMonitor).end_time
}

/// One Table 5 row: average overhead across all of an app's test inputs.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Application name.
    pub app: &'static str,
    /// Average base time (ms).
    pub base_ms: f64,
    /// WaffleBasic run #1 / #2 overhead (%); `None` = most tests timed out.
    pub basic: Option<(f64, f64)>,
    /// Waffle run #1 (preparation) / #2 (first detection) overhead (%).
    pub waffle: (f64, f64),
    /// Whether a majority of WaffleBasic runs timed out.
    pub basic_timeout: bool,
}

/// Per-run-index overhead percentages for one tool over one app.
pub fn overhead_for_app(app: &App, attempts: u32) -> OverheadRow {
    overhead_for_app_on(app, attempts, &ExperimentEngine::new(1))
}

/// [`overhead_for_app`] with the attempts of each test input fanned over
/// `engine` (same seeds as the sequential path, so the averages match).
pub fn overhead_for_app_on(app: &App, attempts: u32, engine: &ExperimentEngine) -> OverheadRow {
    let mut base_total = 0.0f64;
    let mut w_r1 = Vec::new();
    let mut w_r2 = Vec::new();
    let mut b_r1 = Vec::new();
    let mut b_r2 = Vec::new();
    let mut b_timeouts = 0u32;
    let mut b_runs = 0u32;
    let mut n = 0u32;
    let cfg = DetectorConfig {
        // Overhead measurement: exactly two runs per tool per input.
        max_detection_runs: 2,
        ..DetectorConfig::default()
    };
    let waffle_det = Detector::with_config(Tool::waffle(), cfg.clone());
    let basic_det = Detector::with_config(Tool::waffle_basic(), cfg);
    for t in app.tests.iter() {
        let w = &t.workload;
        let wf_outcomes = engine.run_attempts(&waffle_det, w, attempts);
        let bs_outcomes = engine.run_attempts(&basic_det, w, attempts);
        for (wf, bs) in wf_outcomes.iter().zip(&bs_outcomes) {
            let base = wf.base_time.as_us() as f64;
            if base == 0.0 {
                continue;
            }
            base_total += base / 1_000.0;
            n += 1;
            if let Some(prep) = &wf.prep {
                w_r1.push((prep.time.as_us() as f64 / base - 1.0) * 100.0);
            }
            if let Some(r) = wf.detection_runs.first() {
                w_r2.push((r.time.as_us() as f64 / base - 1.0) * 100.0);
            }
            for (i, r) in bs.detection_runs.iter().take(2).enumerate() {
                b_runs += 1;
                if r.timed_out {
                    b_timeouts += 1;
                }
                let pct = (r.time.as_us() as f64 / base - 1.0) * 100.0;
                if i == 0 {
                    b_r1.push(pct);
                } else {
                    b_r2.push(pct);
                }
            }
        }
    }
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let basic_timeout = b_timeouts * 2 > b_runs;
    OverheadRow {
        app: app.name,
        base_ms: if n == 0 { 0.0 } else { base_total / n as f64 },
        basic: if basic_timeout {
            None
        } else {
            Some((avg(&b_r1), avg(&b_r2)))
        },
        waffle: (avg(&w_r1), avg(&w_r2)),
        basic_timeout,
    }
}
