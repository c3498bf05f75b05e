//! The headline result (Table 4), asserted as a shape:
//!
//! - Waffle exposes all 18 seeded bugs, most in two runs;
//! - WaffleBasic exposes the single-instance and recurring bugs but misses
//!   the interference-bound ones;
//! - run counts stay within a small tolerance of the paper's.
//!
//! A reduced repetition count keeps the test tractable; the full
//! 15-repetition experiment is the `table4` entry of `REPRO.json`
//! (`cargo bench -p waffle-bench --bench repro`), whose shape
//! `tests/repro_shape.rs` asserts.

use waffle_repro::apps::{all_bugs, bug_workload};
use waffle_repro::core::{run_experiment, Detector, DetectorConfig, Tool};

const ATTEMPTS: u32 = 3;

/// Allowed slack over the paper's run count.
///
/// Run-to-run variance scales with the amount of churn executed before the
/// racy window: for the churn-embedded MQTT.Net bugs (16, 17) timing noise
/// can shift the interference pattern enough to absorb a few extra
/// detection runs (observed spread 2–6 runs across seeds), while the other
/// bugs stay within two runs of the paper.
fn run_tolerance(id: u32) -> u32 {
    if matches!(id, 16 | 17) {
        4
    } else {
        2
    }
}

#[test]
fn waffle_exposes_every_bug_within_tolerance() {
    for spec in all_bugs() {
        let w = bug_workload(spec.id).expect("bug workload");
        let det = Detector::with_config(
            Tool::waffle(),
            DetectorConfig {
                max_detection_runs: 10,
                ..DetectorConfig::default()
            },
        );
        let summary = run_experiment(&det, &w, ATTEMPTS, 1);
        assert!(
            summary.detected(),
            "Bug-{}: Waffle must expose it ({}/{} attempts)",
            spec.id,
            summary.exposed_attempts,
            summary.attempts
        );
        let runs = summary.reported_runs().unwrap();
        let paper = spec.paper.waffle_runs;
        assert!(
            runs <= paper + run_tolerance(spec.id) && runs + 1 >= paper.min(2),
            "Bug-{}: Waffle took {} runs, paper reports {}",
            spec.id,
            runs,
            paper
        );
    }
}

#[test]
fn waffle_basic_exposes_the_known_easy_bugs() {
    // The single-instance bugs take 2 runs; the recurring ones 1.
    for (id, expect_runs) in [(1u32, 2u32), (3, 1), (6, 1), (9, 1), (14, 2), (18, 2)] {
        let w = bug_workload(id).expect("bug workload");
        let det = Detector::with_config(
            Tool::waffle_basic(),
            DetectorConfig {
                max_detection_runs: 10,
                ..DetectorConfig::default()
            },
        );
        let summary = run_experiment(&det, &w, ATTEMPTS, 1);
        assert!(summary.detected(), "Bug-{id}: WaffleBasic must expose it");
        let runs = summary.reported_runs().unwrap();
        assert!(
            runs <= expect_runs + 1,
            "Bug-{id}: WaffleBasic took {runs} runs, expected ~{expect_runs}"
        );
    }
}

#[test]
fn waffle_basic_misses_the_interfering_bugs() {
    // Fig. 4a-shaped interference (Bugs 8, 10, 13): the parallel fixed
    // delays cancel deterministically, run after run.
    for id in [8u32, 10, 13] {
        let w = bug_workload(id).expect("bug workload");
        let det = Detector::with_config(
            Tool::waffle_basic(),
            DetectorConfig {
                max_detection_runs: 12,
                ..DetectorConfig::default()
            },
        );
        let summary = run_experiment(&det, &w, 2, 1);
        assert_eq!(
            summary.exposed_attempts, 0,
            "Bug-{id}: WaffleBasic must keep cancelling its own delays"
        );
    }
}

#[test]
fn waffle_basic_times_out_on_heavy_churn() {
    // Bug-16's input floods WaffleBasic with fixed delays past the
    // run deadline (the MQTT.Net "TimeOut" behaviour of Tables 5 and 6).
    let w = bug_workload(16).expect("bug workload");
    let det = Detector::with_config(
        Tool::waffle_basic(),
        DetectorConfig {
            max_detection_runs: 4,
            ..DetectorConfig::default()
        },
    );
    let outcome = det.detect(&w, 1);
    assert!(outcome.exposed.is_none());
    assert!(
        outcome.detection_runs.iter().any(|r| r.delays > 50),
        "the fixed-delay flood must be visible"
    );
}

#[test]
fn bug_workloads_never_manifest_without_delays() {
    // §6.2: "none of these 18 bugs can manifest themselves without delay
    // injection, even when we execute the corresponding bug-triggering
    // inputs repeatedly".
    use waffle_repro::sim::{NullMonitor, SimConfig, Simulator};
    for spec in all_bugs() {
        let w = bug_workload(spec.id).expect("bug workload");
        for seed in 0..10 {
            let cfg = SimConfig {
                seed,
                timing_noise_pct: 3,
                ..SimConfig::default()
            };
            let r = Simulator::run(&w, cfg, &mut NullMonitor);
            assert!(
                !r.manifested(),
                "Bug-{} manifested spontaneously under seed {seed}",
                spec.id
            );
        }
    }
}
