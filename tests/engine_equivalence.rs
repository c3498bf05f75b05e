//! The parallel experiment engine's contract: results are bit-identical
//! to the sequential path at every worker count, and `run_grid` returns
//! summaries in input order regardless of which worker finishes first.

use waffle_repro::apps::{all_apps, test_workload};
use waffle_repro::core::{
    run_experiment, Campaign, CampaignConfig, CellSpec, Detector, DetectorConfig,
    ExperimentEngine, GridCell, RunOptions, Tool,
};
use waffle_repro::sim::Workload;

const ATTEMPTS: u32 = 4;
const JOB_COUNTS: [usize; 3] = [1, 2, 8];

fn bug_workload(id: u32) -> Workload {
    waffle_repro::apps::bug_workload(id).expect("bug workload exists")
}

/// Three differently-shaped inputs: a single-instance race (Bug-1), a
/// Fig. 4a interference race (Bug-10), and a clean input that never
/// exposes anything.
fn workloads() -> Vec<Workload> {
    let clean = all_apps()
        .into_iter()
        .flat_map(|a| a.tests)
        .find(|t| t.seeded_bug.is_none())
        .expect("a clean test input exists")
        .workload;
    vec![bug_workload(1), bug_workload(10), clean]
}

fn detector() -> Detector {
    Detector::with_config(
        Tool::waffle(),
        DetectorConfig {
            max_detection_runs: 6,
            ..DetectorConfig::default()
        },
    )
}

#[test]
fn engine_summary_matches_sequential_on_every_workload() {
    let det = detector();
    for w in workloads() {
        let sequential = run_experiment(&det, &w, ATTEMPTS);
        for jobs in JOB_COUNTS {
            let parallel = ExperimentEngine::new(jobs).run_experiment(&det, &w, ATTEMPTS);
            assert_eq!(
                parallel, sequential,
                "{}: summary must not depend on jobs = {jobs}",
                w.name
            );
        }
    }
}

/// The tentpole guarantee for telemetry: per-attempt journals and the
/// aggregated summary are bit-identical at `--jobs 1` and `--jobs 4`,
/// with per-decision event recording on.
#[test]
fn aggregated_telemetry_is_identical_at_jobs_1_and_4() {
    let det = Detector::with_config(
        Tool::waffle(),
        DetectorConfig {
            max_detection_runs: 6,
            telemetry_events: true,
            ..DetectorConfig::default()
        },
    );
    for w in workloads() {
        let seq = ExperimentEngine::new(1).run_attempts(&det, &w, ATTEMPTS);
        let par = ExperimentEngine::new(4).run_attempts(&det, &w, ATTEMPTS);
        for (a, (s, p)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(
                s.telemetry, p.telemetry,
                "{}: attempt {a} journals must match",
                w.name
            );
            assert!(
                !s.telemetry.is_empty(),
                "{}: attempt {a} recorded no journals",
                w.name
            );
        }
        let summarize_all = |outcomes: &[waffle_repro::core::DetectionOutcome]| {
            let mut t = waffle_repro::telemetry::TelemetrySummary::default();
            for o in outcomes {
                for j in &o.telemetry {
                    t.absorb_run(j);
                }
            }
            t
        };
        assert_eq!(
            summarize_all(&seq),
            summarize_all(&par),
            "{}: aggregated telemetry must not depend on the worker count",
            w.name
        );
    }
}

#[test]
fn grid_order_and_content_are_stable_across_job_counts() {
    let cells: Vec<GridCell> = workloads()
        .into_iter()
        .flat_map(|w| {
            [Tool::waffle(), Tool::waffle_basic()].map(|tool| GridCell {
                workload: w.clone(),
                detector: Detector::with_config(
                    tool,
                    DetectorConfig {
                        max_detection_runs: 6,
                        ..DetectorConfig::default()
                    },
                ),
                attempts: ATTEMPTS,
            })
        })
        .collect();
    let reference = ExperimentEngine::new(1).run_grid(&cells);
    assert_eq!(reference.len(), cells.len());
    for (cell, summary) in cells.iter().zip(&reference) {
        assert_eq!(summary.workload, cell.workload.name, "input order preserved");
        assert_eq!(summary.tool, cell.detector.tool().name());
    }
    for jobs in JOB_COUNTS {
        let summaries = ExperimentEngine::new(jobs).run_grid(&cells);
        assert_eq!(summaries, reference, "grid must not depend on jobs = {jobs}");
    }
}

/// The campaign runner is an `ExperimentEngine::run_grid` that survives
/// crashes: a cell that never panics must produce the *same*
/// `ExperimentSummary` as the engine, and an interrupted-then-resumed
/// campaign must match an uninterrupted one bit-for-bit at any `--jobs`.
#[test]
fn campaign_cells_match_run_grid_even_across_interrupt_and_resume() {
    let named: Vec<Workload> = workloads()
        .into_iter()
        .filter(|w| resolvable(&w.name))
        .collect();
    assert!(named.len() >= 2, "suite workloads resolve by name");
    let cells: Vec<GridCell> = named
        .iter()
        .flat_map(|w| {
            [Tool::waffle(), Tool::waffle_basic()].map(|tool| GridCell {
                workload: w.clone(),
                detector: Detector::with_config(
                    tool,
                    DetectorConfig {
                        max_detection_runs: 6,
                        ..DetectorConfig::default()
                    },
                ),
                attempts: ATTEMPTS,
            })
        })
        .collect();
    let engine_reference = ExperimentEngine::new(2).run_grid(&cells);

    let specs: Vec<CellSpec> = cells
        .iter()
        .map(|c| CellSpec::new(&c.workload.name, c.detector.tool().name(), c.attempts))
        .collect();
    let config = CampaignConfig {
        max_detection_runs: 6,
        ..CampaignConfig::default()
    };

    let mut report_files = Vec::new();
    for jobs in JOB_COUNTS {
        let dir = std::env::temp_dir().join(format!(
            "waffle-engine-equiv-campaign-j{jobs}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::create(&dir, config.clone(), specs.clone()).unwrap();
        // Interrupt after one checkpoint, then resume at this job count.
        campaign
            .run(
                &RunOptions {
                    jobs,
                    max_cells: Some(1),
                    ..RunOptions::default()
                },
                test_workload,
            )
            .unwrap();
        let report = campaign
            .run(
                &RunOptions {
                    jobs,
                    resume: true,
                    ..RunOptions::default()
                },
                test_workload,
            )
            .unwrap()
            .report
            .expect("resume completes the campaign");
        for (cell, engine_summary) in report.cells.iter().zip(&engine_reference) {
            assert_eq!(
                cell.summary.as_ref(),
                Some(engine_summary),
                "campaign cell must match run_grid at jobs = {jobs}"
            );
        }
        report_files.push(std::fs::read_to_string(dir.join("report.json")).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
    for bytes in &report_files[1..] {
        assert_eq!(bytes, &report_files[0], "report must not depend on the job count");
    }
}

fn resolvable(name: &str) -> bool {
    test_workload(name).is_some()
}

