//! The campaign runner's crash-safety contract, exercised on the real
//! benchmark suite: a campaign killed between cells (or mid-checkpoint)
//! and rerun with `--resume` produces a `report.json` byte-identical to
//! an uninterrupted run at `--jobs 1` and `--jobs 4`, and a panicking
//! cell is quarantined without disturbing its neighbours.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use waffle_repro::apps::test_workload;
use waffle_repro::core::{Campaign, CampaignConfig, CellFault, CellSpec, CellStatus, RunOptions};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("waffle-camp-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config() -> CampaignConfig {
    CampaignConfig {
        max_detection_runs: 6,
        ..CampaignConfig::default()
    }
}

/// A 2×2 grid over real suite inputs: one seeded bug, one cleanup-heavy
/// input, under Waffle and the WaffleBasic ablation.
fn grid() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for test in ["SshNet.channel_disconnect", "NetMQ.runtime_cleanup"] {
        for tool in ["waffle", "basic"] {
            cells.push(CellSpec::new(test, tool, 3));
        }
    }
    cells
}

fn report_bytes(dir: &std::path::Path) -> String {
    fs::read_to_string(dir.join("report.json")).expect("report.json written")
}

#[test]
fn interrupted_campaign_resumes_byte_identical_at_jobs_1_and_4() {
    // Reference: one uninterrupted run.
    let ref_dir = tmpdir("ref");
    let reference = Campaign::create(&ref_dir, config(), grid()).unwrap();
    let ref_report = reference
        .run(
            &RunOptions {
                jobs: 2,
                ..RunOptions::default()
            },
            test_workload,
        )
        .unwrap()
        .report
        .expect("uninterrupted run completes");
    let ref_bytes = report_bytes(&ref_dir);
    assert!(
        ref_report.telemetry.runs > 0,
        "telemetry folded into report"
    );

    for jobs in [1usize, 4] {
        let dir = tmpdir(&format!("resume-j{jobs}"));
        let c = Campaign::create(&dir, config(), grid()).unwrap();
        // "Kill" after the first checkpoint lands.
        let partial = c
            .run(
                &RunOptions {
                    jobs,
                    max_cells: Some(1),
                    ..RunOptions::default()
                },
                test_workload,
            )
            .unwrap();
        assert_eq!(partial.ran.len(), 1);
        assert_eq!(partial.outstanding, 3);
        assert!(partial.report.is_none());
        assert!(!dir.join("report.json").exists());
        // Resume runs only the outstanding cells …
        let resumed = c
            .run(
                &RunOptions {
                    jobs,
                    resume: true,
                    ..RunOptions::default()
                },
                test_workload,
            )
            .unwrap();
        assert_eq!(resumed.skipped, 1);
        assert_eq!(resumed.ran.len(), 3);
        // … and the report — folded telemetry counters included — is
        // byte-identical to the uninterrupted reference.
        let report = resumed.report.expect("resume completes the campaign");
        assert_eq!(report.telemetry, ref_report.telemetry, "jobs = {jobs}");
        assert_eq!(report_bytes(&dir), ref_bytes, "jobs = {jobs}");
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn checkpoint_truncated_by_a_crash_is_rerun_on_resume() {
    let ref_dir = tmpdir("trunc-ref");
    Campaign::create(&ref_dir, config(), grid())
        .unwrap()
        .run(&RunOptions::default(), test_workload)
        .unwrap();
    let ref_bytes = report_bytes(&ref_dir);

    let dir = tmpdir("trunc");
    let c = Campaign::create(&dir, config(), grid()).unwrap();
    c.run(
        &RunOptions {
            max_cells: Some(2),
            ..RunOptions::default()
        },
        test_workload,
    )
    .unwrap();
    // A crash mid-write would leave a partial checkpoint only if the write
    // were not atomic; simulate the worst case anyway by truncating one.
    let ckpt = dir.join("cell-0001.json");
    let full = fs::read_to_string(&ckpt).unwrap();
    fs::write(&ckpt, &full[..full.len() / 2]).unwrap();
    let resumed = c
        .run(
            &RunOptions {
                resume: true,
                jobs: 4,
                ..RunOptions::default()
            },
            test_workload,
        )
        .unwrap();
    // The truncated cell is treated as outstanding and recomputed.
    assert_eq!(resumed.skipped, 1);
    assert_eq!(resumed.ran.len(), 3);
    assert_eq!(
        fs::read_to_string(&ckpt).unwrap(),
        full,
        "recomputed bit-identically"
    );
    assert_eq!(report_bytes(&dir), ref_bytes);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&ref_dir);
}

/// The same interrupt/resume cycle driven through the CLI in separate OS
/// processes — the shape a real crash takes.
#[test]
fn cli_resume_across_processes_matches_uninterrupted_report() {
    let waffle = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_waffle"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "waffle {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let init = |dir: &str| {
        waffle(&[
            "campaign",
            "init",
            dir,
            "--tests",
            "SshNet.channel_disconnect,NetMQ.runtime_cleanup",
            "--tools",
            "waffle,basic",
            "--attempts",
            "3",
            "--max-runs",
            "6",
        ]);
    };
    let ref_dir = tmpdir("cli-ref");
    let dir = tmpdir("cli-resume");
    let ref_s = ref_dir.to_string_lossy().to_string();
    let dir_s = dir.to_string_lossy().to_string();

    init(&ref_s);
    waffle(&["campaign", "run", &ref_s, "--jobs", "2"]);

    init(&dir_s);
    // Process 1 checkpoints one cell and exits (simulated kill).
    waffle(&["campaign", "run", &dir_s, "--max-cells", "1"]);
    let status = waffle(&["campaign", "status", &dir_s]);
    assert!(
        status.contains("1/4 cells checkpointed"),
        "status: {status}"
    );
    // Process 2 refuses to clobber the checkpoints without a decision …
    let out = Command::new(env!("CARGO_BIN_EXE_waffle"))
        .args(["campaign", "run", &dir_s])
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "bare rerun must refuse existing checkpoints"
    );
    // … and a third process resumes to the byte-identical report.
    waffle(&["campaign", "run", &dir_s, "--resume", "--jobs", "4"]);
    assert_eq!(report_bytes(&dir), report_bytes(&ref_dir));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn panicking_cell_on_real_suite_is_quarantined_and_neighbours_stand() {
    let ref_dir = tmpdir("quar-ref");
    let ref_report = Campaign::create(&ref_dir, config(), grid())
        .unwrap()
        .run(&RunOptions::default(), test_workload)
        .unwrap()
        .report
        .unwrap();

    let dir = tmpdir("quar");
    let mut cells = grid();
    cells[2].fault = Some(CellFault {
        attempt: 0,
        panics: u32::MAX,
    });
    let c = Campaign::create(&dir, config(), cells).unwrap();
    let report = c
        .run(
            &RunOptions {
                jobs: 4,
                ..RunOptions::default()
            },
            test_workload,
        )
        .unwrap()
        .report
        .expect("campaign completes despite the panicking cell");
    assert_eq!(report.quarantined, vec![2]);
    assert_eq!(report.cells[2].status, CellStatus::Failed);
    assert!(report.cells[2].summary.is_none());
    for i in [0usize, 1, 3] {
        assert_eq!(
            report.cells[i].summary, ref_report.cells[i].summary,
            "cell {i} must be untouched by its neighbour's panic"
        );
    }
    let rendered = report.render();
    assert!(rendered.contains("quarantine:"));
    assert!(rendered.contains("1 quarantined"));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&ref_dir);
}

/// A `manifest.json` as earlier builds wrote it, with the timing noise and
/// deadline factor they carried in `config`. Those two values are now the
/// detector defaults and no longer settable; the fingerprint still hashes
/// them in the same positions.
const OLD_MANIFEST: &str = r#"{
  "version": 1,
  "fingerprint": 14200765709661238732,
  "config": {
    "max_detection_runs": 6,
    "timing_noise_pct": 3,
    "deadline_factor": 40,
    "max_retries": 2
  },
  "cells": [
    {
      "workload": "SshNet.channel_disconnect",
      "tool": "waffle",
      "attempts": 2,
      "fault": null
    },
    {
      "workload": "NetMQ.runtime_cleanup",
      "tool": "basic",
      "attempts": 1,
      "fault": null
    }
  ]
}"#;

#[test]
fn manifest_with_the_retired_timing_fields_opens_and_resumes() {
    let cells = vec![
        CellSpec::new("SshNet.channel_disconnect", "waffle", 2),
        CellSpec::new("NetMQ.runtime_cleanup", "basic", 1),
    ];
    let ref_dir = tmpdir("old-manifest-ref");
    let reference = Campaign::create(&ref_dir, config(), cells).unwrap();
    assert_eq!(reference.manifest().fingerprint, 14200765709661238732);
    reference
        .run(&RunOptions::default(), test_workload)
        .unwrap()
        .report
        .expect("uninterrupted run completes");

    let dir = tmpdir("old-manifest");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("manifest.json"), OLD_MANIFEST).unwrap();
    let old = Campaign::open(&dir).expect("an old manifest opens");
    assert_eq!(old.manifest(), reference.manifest());
    let partial = old
        .run(
            &RunOptions {
                max_cells: Some(1),
                ..RunOptions::default()
            },
            test_workload,
        )
        .unwrap();
    assert_eq!((partial.ran.len(), partial.outstanding), (1, 1));
    let resumed = Campaign::open(&dir)
        .unwrap()
        .run(
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
            test_workload,
        )
        .unwrap();
    assert_eq!(resumed.ran.len(), 1, "only the outstanding cell reruns");
    assert!(resumed.report.is_some());
    assert_eq!(report_bytes(&dir), report_bytes(&ref_dir));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&ref_dir);
}
