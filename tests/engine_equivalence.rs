//! The attempt runner's contract: `run_experiment` and `run_attempts`
//! give bit-identical results at every worker count, a grid of cells run
//! through `par_map` comes back in input order regardless of which worker
//! finishes first, and a campaign cell equals `run_experiment` on it.

use waffle_repro::apps::{all_apps, test_workload};
use waffle_repro::core::{
    par_map, run_attempts, run_experiment, Campaign, CampaignConfig, CellSpec, Detector,
    DetectorConfig, ExperimentSummary, RunOptions, Tool,
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

fn detector(tool: Tool) -> Detector {
    Detector::with_config(
        tool,
        DetectorConfig {
            max_detection_runs: 6,
            ..DetectorConfig::default()
        },
    )
}

/// Every workload under Waffle and WaffleBasic, workload-major.
fn cells(workloads: &[Workload]) -> Vec<(&Workload, Detector)> {
    workloads
        .iter()
        .flat_map(|w| [Tool::waffle(), Tool::waffle_basic()].map(|tool| (w, detector(tool))))
        .collect()
}

/// One summary per cell, cells fanned out over `jobs` workers.
fn run_cells(cells: &[(&Workload, Detector)], jobs: usize) -> Vec<ExperimentSummary> {
    par_map(cells.len(), jobs, |i| {
        run_experiment(&cells[i].1, cells[i].0, ATTEMPTS, 1)
    })
    .expect("no cell panics")
}

#[test]
fn engine_summary_matches_sequential_on_every_workload() {
    let det = detector(Tool::waffle());
    for w in workloads() {
        let sequential = run_experiment(&det, &w, ATTEMPTS, 1);
        for jobs in JOB_COUNTS {
            let parallel = run_experiment(&det, &w, ATTEMPTS, jobs);
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
        let seq = run_attempts(&det, &w, ATTEMPTS, 1);
        let par = run_attempts(&det, &w, ATTEMPTS, 4);
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
    let workloads = workloads();
    let cells = cells(&workloads);
    let reference = run_cells(&cells, 1);
    assert_eq!(reference.len(), cells.len());
    for ((w, det), summary) in cells.iter().zip(&reference) {
        assert_eq!(summary.workload, w.name, "input order preserved");
        assert_eq!(summary.tool, det.tool().name());
    }
    for jobs in JOB_COUNTS {
        let summaries = run_cells(&cells, jobs);
        assert_eq!(
            summaries, reference,
            "grid must not depend on jobs = {jobs}"
        );
    }
}

/// The campaign runner is `run_experiment` over a grid that survives
/// crashes: a cell that never panics must produce the *same*
/// `ExperimentSummary` as `run_experiment`, and an interrupted-then-resumed
/// campaign must match an uninterrupted one bit-for-bit at any `--jobs`.
#[test]
fn campaign_cells_match_run_experiment_even_across_interrupt_and_resume() {
    let named: Vec<Workload> = workloads()
        .into_iter()
        .filter(|w| resolvable(&w.name))
        .collect();
    assert!(named.len() >= 2, "suite workloads resolve by name");
    let cells = cells(&named);
    let reference = run_cells(&cells, 2);

    let specs: Vec<CellSpec> = cells
        .iter()
        .map(|(w, det)| CellSpec::new(&w.name, det.tool().name(), ATTEMPTS))
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
        for (cell, summary) in report.cells.iter().zip(&reference) {
            assert_eq!(
                cell.summary.as_ref(),
                Some(summary),
                "campaign cell must match run_experiment at jobs = {jobs}"
            );
        }
        report_files.push(std::fs::read_to_string(dir.join("report.json")).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
    for bytes in &report_files[1..] {
        assert_eq!(
            bytes, &report_files[0],
            "report must not depend on the job count"
        );
    }
}

fn resolvable(name: &str) -> bool {
    test_workload(name).is_some()
}
