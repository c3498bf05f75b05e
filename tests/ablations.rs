//! Integration tests for the Table 7 ablations: each design point's
//! removal loses exactly the capability the paper attributes to it.

use waffle_repro::apps::{all_apps, bug_workload};
use waffle_repro::core::{run_experiment, Detector, DetectorConfig, Tool};

fn workload_for(id: u32) -> waffle_repro::sim::Workload {
    bug_workload(id).expect("bug workload exists")
}

fn budgeted(tool: Tool, runs: u32) -> Detector {
    Detector::with_config(
        tool,
        DetectorConfig {
            max_detection_runs: runs,
            ..DetectorConfig::default()
        },
    )
}

#[test]
fn no_interference_control_cancels_the_fig4a_bug() {
    // Without the interference set, both candidate delays fire in parallel
    // and cancel (Bug-10 is the paper's Fig. 4a example).
    let w = workload_for(10);
    // Budget matched to full Waffle's (prep + 2 detection runs): over an
    // unbounded budget, decay desynchronizes the parallel delays and even
    // this variant eventually gets a lucky sole delay.
    let summary = run_experiment(&budgeted(Tool::waffle_no_interference(), 2), &w, 3, 1);
    assert!(
        !summary.detected(),
        "exposed in {}/{} attempts",
        summary.exposed_attempts,
        summary.attempts
    );
    // Full Waffle gets it in two runs.
    let summary = run_experiment(&budgeted(Tool::waffle(), 3), &w, 3, 1);
    assert!(summary.detected());
    assert_eq!(summary.reported_runs(), Some(2));
}

#[test]
fn no_preparation_run_still_finds_recurring_bugs() {
    // The online variant identifies and injects in the same run, so the
    // recurring bug (Bug-3) is still found quickly...
    let w = workload_for(3);
    let summary = run_experiment(&budgeted(Tool::waffle_no_prep(), 5), &w, 3, 1);
    assert!(summary.detected());
}

#[test]
fn no_preparation_run_misses_the_interference_bugs() {
    // ...but without the preparation run there is no interference set, and
    // the Fig. 4a bug cancels.
    let w = workload_for(10);
    let summary = run_experiment(&budgeted(Tool::waffle_no_prep(), 2), &w, 3, 1);
    assert!(
        !summary.detected(),
        "exposed {}/{}",
        summary.exposed_attempts,
        summary.attempts
    );
}

#[test]
fn fixed_delay_lengths_inflate_detection_runs() {
    // The "no custom delay length" ablation still exposes simple bugs but
    // injects 100 ms where Waffle injects α·gap.
    let w = workload_for(1);
    let full = run_experiment(&budgeted(Tool::waffle(), 3), &w, 3, 1);
    let fixed = run_experiment(&budgeted(Tool::waffle_fixed_delay(), 3), &w, 3, 1);
    assert!(full.detected() && fixed.detected());
    let full_slow = full.median_slowdown.unwrap();
    let fixed_slow = fixed.median_slowdown.unwrap();
    assert!(
        fixed_slow >= full_slow,
        "fixed delays must not be cheaper: {fixed_slow} < {full_slow}"
    );
}

#[test]
fn no_parent_child_analysis_keeps_coverage_but_adds_delays() {
    // Pruning is a performance feature: the ablation still finds the bug.
    let w = workload_for(1);
    let summary = run_experiment(&budgeted(Tool::waffle_no_parent_child(), 3), &w, 3, 1);
    assert!(summary.detected());
    assert_eq!(summary.reported_runs(), Some(2));
}

#[test]
fn no_parent_child_analysis_delays_fork_ordered_sites() {
    // On a worker-pool background test, the ablation injects at the
    // fork-ordered allocation sites that full Waffle prunes.
    let app = all_apps()
        .into_iter()
        .find(|a| a.name == "SSH.Net")
        .unwrap();
    let w = app
        .tests
        .iter()
        .find(|t| t.workload.name == "SshNet.sftp_uploads")
        .unwrap()
        .workload
        .clone();
    let full = budgeted(Tool::waffle(), 1).detect(&w, 1);
    let ablated = budgeted(Tool::waffle_no_parent_child(), 1).detect(&w, 1);
    let full_delays = full.detection_runs[0].delays;
    let ablated_delays = ablated.detection_runs[0].delays;
    assert!(
        ablated_delays > full_delays,
        "ablation {ablated_delays} vs full {full_delays}"
    );
}
