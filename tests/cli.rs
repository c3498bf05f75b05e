//! Smoke tests for the `waffle` command-line front end.

use std::process::Command;

fn waffle(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_waffle"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_names_all_apps_and_bug_tags() {
    let out = waffle(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for app in ["ApplicationInsights", "NetMQ", "NpgSQL", "SSH.Net"] {
        assert!(text.contains(app), "missing {app}");
    }
    assert!(text.contains("[Bug-11]"));
}

#[test]
fn bugs_lists_all_eighteen() {
    let out = waffle(&["bugs"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 18);
    assert!(text.contains("Bug-18"));
}

#[test]
fn detect_exposes_a_seeded_bug_with_json_output() {
    let out = waffle(&[
        "detect",
        "SshNet.channel_disconnect",
        "--tool",
        "waffle",
        "--json",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
    assert_eq!(v["exposed"]["site"], "Channel.OnData:94");
    assert_eq!(v["exposed"]["total_runs"], 2);
}

#[test]
fn step_workflow_persists_and_resumes() {
    let dir = std::env::temp_dir().join(format!("waffle-cli-step-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();
    // Step 1: preparation.
    let out = waffle(&["step", "SshNet.channel_disconnect", "--session", &dir_s]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("preparation run complete"));
    assert!(dir.join("plan.json").exists());
    // Step 2: detection (a new "process") exposes the bug and writes the
    // report file.
    let out = waffle(&[
        "step",
        "SshNet.channel_disconnect",
        "--session",
        &dir_s,
        "--seed",
        "2",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("use-after-free"));
    assert!(dir.join("bug-001.txt").exists());
    assert!(dir.join("decay.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `detect --telemetry` writes a per-attempt journal whose counters
/// reconcile exactly with the outcome's run summaries, and `stats`
/// aggregates the directory.
#[test]
fn telemetry_journal_reconciles_with_outcome_and_stats_reads_it() {
    let dir = std::env::temp_dir().join(format!("waffle-cli-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();
    let out = waffle(&[
        "detect",
        "SshNet.channel_disconnect",
        "--telemetry",
        &dir_s,
        "--json",
    ]);
    assert!(out.status.success());
    let outcome: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid json");

    let journal_path = dir.join("SshNet.channel_disconnect-waffle-attempt-1.json");
    let journal: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&journal_path).unwrap()).unwrap();
    let runs = journal["runs"].as_seq().expect("runs array");
    let detection_runs = outcome["detection_runs"].as_seq().unwrap();
    assert_eq!(runs.len(), detection_runs.len(), "one journal per run");
    let sum = |field: &str| -> u64 {
        runs.iter()
            .map(|r| r["counters"][field].as_u64().unwrap())
            .sum()
    };
    let outcome_sum = |field: &str| -> u64 {
        detection_runs
            .iter()
            .map(|r| r[field].as_u64().unwrap())
            .sum()
    };
    assert_eq!(sum("injected"), outcome_sum("delays"));
    assert_eq!(sum("instrumented_ops"), outcome_sum("instrumented_ops"));
    assert!(
        runs.iter()
            .any(|r| !r["events"].as_seq().unwrap().is_empty()),
        "--telemetry records per-decision events"
    );

    let out = waffle(&["stats", &dir_s]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total/injected"));
    assert!(text.contains("SshNet.channel_disconnect/waffle/injected"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_inputs_fail_cleanly() {
    let out = waffle(&["detect", "No.such_test"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown test"));
    let out = waffle(&["frobnicate"]);
    assert!(!out.status.success());
    // The rate benches write their own ledgers; the CLI has no `bench`.
    let out = waffle(&["bench", "--all"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // `step` is one run: it takes no run budget, attempts, workers or
    // journals. `stats` and `campaign status` take only `--json`. Repeated
    // attempts run at the fixed seeds 1..=N and save no session, so
    // `detect`, `scan` and `report` refuse `--seed` and `--session` with
    // `--attempts` above 1.
    let session = std::env::temp_dir().join(format!("waffle-cli-unknown-{}", std::process::id()));
    let session = session.to_string_lossy().to_string();
    let unknown = |flag: &str| format!("unknown option {flag}");
    let with_attempts = |flag: &str| format!("{flag} cannot be combined with --attempts above 1");
    for (args, expected) in [
        (
            &[
                "step",
                "SshNet.channel_disconnect",
                "--session",
                &session,
                "--max-runs",
                "3",
            ][..],
            unknown("--max-runs"),
        ),
        (
            &[
                "step",
                "SshNet.channel_disconnect",
                "--session",
                &session,
                "--attempts",
                "2",
            ][..],
            unknown("--attempts"),
        ),
        (
            &[
                "step",
                "SshNet.channel_disconnect",
                "--session",
                &session,
                "--jobs",
                "2",
            ][..],
            unknown("--jobs"),
        ),
        (
            &[
                "step",
                "SshNet.channel_disconnect",
                "--session",
                &session,
                "--telemetry",
                "tj",
            ][..],
            unknown("--telemetry"),
        ),
        (
            &["stats", &session, "--frobnicate"][..],
            unknown("--frobnicate"),
        ),
        (
            &["campaign", "status", &session, "--frobnicate"][..],
            unknown("--frobnicate"),
        ),
        (
            &[
                "detect",
                "SshNet.channel_disconnect",
                "--attempts",
                "3",
                "--session",
                &session,
            ][..],
            with_attempts("--session"),
        ),
        (
            &[
                "detect",
                "SshNet.channel_disconnect",
                "--attempts",
                "3",
                "--seed",
                "7",
            ][..],
            with_attempts("--seed"),
        ),
        (
            &["scan", "SSH.Net", "--attempts", "2", "--session", &session][..],
            with_attempts("--session"),
        ),
        (
            &["report", "1", "--attempts", "2", "--seed", "99"][..],
            with_attempts("--seed"),
        ),
    ] {
        let out = waffle(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&expected), "{args:?}: {err}");
    }
    assert!(
        !std::path::Path::new(&session).exists(),
        "a rejected command ran"
    );
}

#[test]
fn fix_accepts_the_largest_seed() {
    // Run seeds wrap like the detector's, so no attempt seed overflows.
    let out = waffle(&[
        "fix",
        "weak.tso_handoff",
        "--memory-model",
        "tso",
        "--seed",
        &u64::MAX.to_string(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("certified patch [fence]"), "{text}");
}

#[test]
fn analyze_rejects_unknown_test() {
    let out = waffle(&["analyze", "No.such_test"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown test"));
}

/// Bound 0 means no access can ever be reordered, so every verdict would
/// be vacuous — the CLI refuses it with an explanation instead of
/// silently reporting "no bugs".
#[test]
fn fuzz_rejects_a_meaningless_preemption_bound() {
    let out = waffle(&["fuzz", "--preemption-bound", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--preemption-bound must be at least 1"));
}

/// A seed block whose last seed would pass `u64::MAX` is refused before
/// any case runs; the block that ends exactly there is accepted.
#[test]
fn fuzz_rejects_a_seed_block_past_the_last_seed() {
    let max = u64::MAX.to_string();
    let out = waffle(&["fuzz", "--seed-base", &max, "--seeds", "2"]);
    assert!(!out.status.success());
    let expected = format!(
        "--seed-base must be at most {} with --seeds 2",
        u64::MAX - 1
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&expected),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = waffle(&["fuzz", "--seed-base", &max, "--seeds", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains(&format!("seeds {max}..={max}")));
}

/// `--jobs` is bounded, so no command can ask for an unbounded number of
/// worker threads; the error names the maximum.
#[test]
fn jobs_above_the_maximum_are_rejected() {
    let out = waffle(&["detect", "SshNet.channel_disconnect", "--jobs", "1025"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs must be at most 1024"));
}

/// A small fuzz sweep succeeds end-to-end and emits parseable JSON with
/// the aggregate counters.
#[test]
fn fuzz_smoke_emits_json_report() {
    let out = waffle(&["fuzz", "--seeds", "4", "--jobs", "2", "--json"]);
    assert!(
        out.status.success(),
        "fuzz failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid json");
    assert_eq!(v["seeds"], 4);
    assert_eq!(v["disagreements"].as_seq().map(|d| d.len()), Some(0));
    assert_eq!(v["metrics"]["counters"]["fuzz/workloads"], 4);
}

/// `analyze --spill` streams the analysis out-of-core from the on-disk
/// segment file it writes, and the `--json` output (index shape + plans)
/// is byte-identical to the in-memory path even at a 1 MiB budget.
#[test]
fn analyze_spill_matches_the_in_memory_json() {
    let dir = std::env::temp_dir().join(format!("waffle-cli-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();
    let mem = waffle(&["analyze", "SshNet.channel_disconnect", "--json"]);
    assert!(mem.status.success());
    let ooc = waffle(&[
        "analyze",
        "SshNet.channel_disconnect",
        "--json",
        "--spill",
        &dir_s,
        "--budget-mb",
        "1",
    ]);
    assert!(
        ooc.status.success(),
        "spill analyze failed:\n{}",
        String::from_utf8_lossy(&ooc.stderr)
    );
    assert_eq!(
        mem.stdout, ooc.stdout,
        "out-of-core plans must match in-memory"
    );
    assert!(dir.join("SshNet.channel_disconnect.seg").exists());
    // --budget-mb without --spill is meaningless and refused.
    let out = waffle(&["analyze", "SshNet.channel_disconnect", "--budget-mb", "1"]);
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `campaign work` drains cells through the coordinator-free claim
/// protocol, and `campaign status --json` surfaces per-cell state, live
/// claims and quarantine machine-readably at every stage.
#[test]
fn campaign_work_and_status_json_track_the_claim_protocol() {
    let dir = std::env::temp_dir().join(format!("waffle-cli-work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();
    let out = waffle(&[
        "campaign",
        "init",
        &dir_s,
        "--tests",
        "SshNet.channel_disconnect,ApplicationInsights.telemetry_pool",
        "--attempts",
        "1",
        "--max-runs",
        "4",
    ]);
    assert!(out.status.success());

    let status_json = || -> serde_json::Value {
        let out = waffle(&["campaign", "status", &dir_s, "--json"]);
        assert!(out.status.success());
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid status json")
    };
    let v = status_json();
    assert_eq!(v["total"], 2);
    assert_eq!(v["outstanding"], 2);
    assert_eq!(v["report_written"], false);
    assert_eq!(v["cells"].as_seq().unwrap().len(), 2);
    assert_eq!(v["cells"][0]["state"], "outstanding");

    // Worker 1 takes exactly one cell and stops.
    let out = waffle(&[
        "campaign",
        "work",
        &dir_s,
        "--worker",
        "w1",
        "--max-cells",
        "1",
    ]);
    assert!(
        out.status.success(),
        "work failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("cell [0000]"));
    let v = status_json();
    assert_eq!(v["done"], 1);
    assert_eq!(v["cells"][0]["state"], "completed");
    assert_eq!(
        v["claims"].as_seq().map(|c| c.len()),
        Some(0),
        "claim released"
    );
    assert_eq!(v["quarantined"].as_seq().map(|q| q.len()), Some(0));

    // Worker 2 finishes the grid and assembles the report.
    let out = waffle(&["campaign", "work", &dir_s, "--worker", "w2", "--json"]);
    assert!(out.status.success());
    let report: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid report json");
    assert_eq!(report["cells"].as_seq().map(|c| c.len()), Some(2));
    let v = status_json();
    assert_eq!(v["done"], 2);
    assert_eq!(v["outstanding"], 0);
    assert_eq!(v["report_written"], true);
    assert!(dir.join("report.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-running a campaign over existing checkpoints without an explicit
/// `--resume`/`--fresh` decision refuses rather than clobbering them.
#[test]
fn campaign_bare_rerun_refuses_existing_checkpoints() {
    let dir = std::env::temp_dir().join(format!("waffle-cli-rerun-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();
    let out = waffle(&[
        "campaign",
        "init",
        &dir_s,
        "--tests",
        "SshNet.channel_disconnect",
        "--attempts",
        "1",
        "--max-runs",
        "4",
    ]);
    assert!(out.status.success());
    let out = waffle(&["campaign", "run", &dir_s, "--max-cells", "1"]);
    assert!(out.status.success());
    let out = waffle(&["campaign", "run", &dir_s]);
    assert!(!out.status.success(), "bare rerun must refuse");
    assert!(String::from_utf8_lossy(&out.stderr).contains("pass --resume"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `scan` prints the same bytes at any `--jobs`, as text and as `--json`:
/// each input's attempts fan out over the workers, but the seed ladder and
/// the output order are fixed.
#[test]
fn scan_output_is_identical_at_any_job_count() {
    for json in [false, true] {
        let run = |jobs: &str| {
            let mut args = vec!["scan", "LiteDB", "--attempts", "2", "--jobs", jobs];
            if json {
                args.push("--json");
            }
            let out = waffle(&args);
            assert!(
                out.status.success(),
                "{args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            out.stdout
        };
        let one = run("1");
        assert!(String::from_utf8_lossy(&one).contains("bug(s) exposed across 6 inputs"));
        assert_eq!(
            one,
            run("2"),
            "scan output differs across --jobs (json = {json})"
        );
    }
}

/// `waffle help` is generated from the command table, so it names every
/// subcommand `waffle` dispatches.
#[test]
fn help_names_every_subcommand() {
    let out = waffle(&["help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for name in [
        "help",
        "list",
        "bugs",
        "analyze",
        "serve",
        "ingest",
        "detect",
        "step",
        "scan",
        "report",
        "stats",
        "dot",
        "campaign init",
        "campaign run",
        "campaign work",
        "campaign status",
        "fuzz",
        "fix",
        "--repair",
    ] {
        assert!(
            help.lines()
                .any(|l| l.trim_start().starts_with(name) || l.contains(&format!(" [{name}]"))),
            "waffle help does not mention {name}:\n{help}"
        );
    }
}
