//! `waffle` — command-line front end for the detection workflow.
//!
//! Every subcommand, the positional argument it takes and the flags it
//! accepts are declared once, in [`COMMANDS`]. One parser checks a command
//! line against that table, and `waffle help` is generated from it, so the
//! listing cannot drift from what the parser accepts. Flags shared by
//! several subcommands (`--jobs`, `--json`, `--seed`, `--memory-model`,
//! `--max-runs`, …) are single constants referenced from each list.
//!
//! Repetition attempts use the fixed seed ladder 1..=N (see
//! `waffle_core::attempt_seed`), so `--jobs` changes wall-clock time only:
//! the summary is identical at any worker count.

use std::num::{IntErrorKind, ParseIntError};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use waffle_repro::apps::{all_apps, all_bugs, bug, bug_workload, test_workload};
use waffle_repro::core::{
    attempt_seed, run_attempts, summarize, write_atomic, Campaign, CampaignConfig,
    CampaignProgress, CellSpec, CellStatus, CheckpointState, DetectionOutcome, Detector,
    DetectorConfig, RunOptions, Session, Tool, WorkOptions,
};
use waffle_repro::sim::{MemoryConfig, MemoryModel, Workload};
use waffle_repro::telemetry::{AttemptJournal, MetricsRegistry};

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Takes one value, shown as the metavariable in `waffle help`.
    Text(&'static str),
    /// Takes an unsigned integer in `min..=max`; `why` is appended to the
    /// below-minimum error.
    Num {
        min: u64,
        max: u64,
        why: &'static str,
    },
}

/// One command-line flag.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    kind: Kind,
    help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        kind: Kind::Switch,
        help,
    }
}

const fn text(name: &'static str, meta: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        kind: Kind::Text(meta),
        help,
    }
}

const fn num(name: &'static str, min: u64, max: u64, help: &'static str) -> Flag {
    Flag {
        name,
        kind: Kind::Num { min, max, why: "" },
        help,
    }
}

// Upper bounds of the integer types the flags land in.
const U32: u64 = u32::MAX as u64;
const USIZE: u64 = usize::MAX as u64;

const JOBS: Flag = num(
    "--jobs",
    1,
    1024,
    "worker threads (default 1, at most 1024); output is identical at any count",
);
const JSON: Flag = switch("--json", "machine-readable output");
const SEED: Flag = num(
    "--seed",
    0,
    u64::MAX,
    "attempt / preparation-run seed (default 1)",
);
const MEMORY_MODEL: Flag = text(
    "--memory-model",
    "sc|tso|pso",
    "simulated consistency model (default sc); tso/pso add store buffers",
);
const MAX_RUNS: Flag = num(
    "--max-runs",
    0,
    U32,
    "detection-run budget per attempt (default 10; fuzz 16, campaign init 50)",
);
const ATTEMPTS: Flag = num(
    "--attempts",
    1,
    U32,
    "repetition attempts, summarized per §6.1 (default 1; campaign init 5)",
);
const TOOL: Flag = text(
    "--tool",
    "NAME",
    "waffle (default), basic, noprep, no-parent-child, fixed-delay, no-interference",
);
const SESSION: Flag = text(
    "--session",
    "DIR",
    "persist plan/decay/reports to a session directory",
);
const TELEMETRY: Flag = text(
    "--telemetry",
    "DIR",
    "write per-attempt telemetry journals (JSON)",
);
const MAX_CELLS: Flag = num("--max-cells", 0, USIZE, "stop after checkpointing N cells");
const SOCKET: Flag = text("--socket", "PATH", "Unix socket of the serve session");
const PREEMPTION_BOUND: Flag = Flag {
    name: "--preemption-bound",
    kind: Kind::Num {
        min: 1,
        max: U32,
        why:
            ": at bound 0 no access can be reordered, so every planted bug is vacuously unexposable",
    },
    help: "oracle preemption bound (default 2)",
};

/// The flags of `detect`, `scan` and `report`.
const DETECT_FLAGS: &[Flag] = &[
    TOOL,
    MAX_RUNS,
    SEED,
    ATTEMPTS,
    JOBS,
    SESSION,
    TELEMETRY,
    JSON,
    MEMORY_MODEL,
];

/// The positional argument a command requires: its metavariable, and the
/// noun the missing-argument error names.
type Positional = Option<(&'static str, &'static str)>;

const TEST: Positional = Some(("<test>", "test name"));
const CAMPAIGN_DIR: Positional = Some(("<dir>", "campaign directory"));

/// One subcommand: its name (`campaign <verb>` for the campaign verbs),
/// its positional argument, what it does, its handler, and its flags.
struct Command {
    name: &'static str,
    arg: Positional,
    about: &'static str,
    run: fn(&Args) -> Result<(), String>,
    flags: &'static [Flag],
}

const fn command(
    name: &'static str,
    arg: Positional,
    about: &'static str,
    run: fn(&Args) -> Result<(), String>,
    flags: &'static [Flag],
) -> Command {
    Command {
        name,
        arg,
        about,
        run,
        flags,
    }
}

/// Every subcommand `waffle` dispatches, in `waffle help` order.
static COMMANDS: &[Command] = &[
    command("help", None, "this listing", help_cmd, &[]),
    command("list", None, "applications and test inputs", list_cmd, &[]),
    command("bugs", None, "the 18 seeded Table 4 bugs", bugs_cmd, &[]),
    command(
        "analyze",
        TEST,
        "preparation run + trace analysis only",
        analyze_cmd,
        &[
            JOBS,
            SEED,
            JSON,
            MEMORY_MODEL,
            switch("--stats", "index/scan timings and telemetry counters"),
            switch("--plan-only", "print the serve-session report shape"),
            text(
                "--spill",
                "DIR",
                "analyze out-of-core from an on-disk segment file",
            ),
            num(
                "--budget-mb",
                1,
                u64::MAX,
                "resident budget for --spill (default 64)",
            ),
        ],
    ),
    command(
        "serve",
        None,
        "streaming ingestion server; reports match batch analyze",
        serve_cmd,
        &[
            SOCKET,
            JOBS,
            JSON,
            text("--dir", "DIR", "where serve writes segments and reports"),
            num("--seal-events", 1, USIZE, "events per sealed generation"),
            num("--queue-events", 1, USIZE, "per-session queue bound"),
            text(
                "--policy",
                "block|shed",
                "backpressure under a full queue (default block)",
            ),
            num("--max-sessions", 0, USIZE, "exit after N sessions"),
        ],
    ),
    command(
        "ingest",
        None,
        "stream one test's trace to a serve socket",
        ingest_cmd,
        &[
            SOCKET,
            SEED,
            text("--test", "NAME", "the test input whose trace is streamed"),
            num(
                "--batch",
                1,
                USIZE,
                "events per Events frame (default 4096)",
            ),
        ],
    ),
    command(
        "detect",
        TEST,
        "run a tool on one test input",
        detect_cmd,
        DETECT_FLAGS,
    ),
    command(
        "step",
        TEST,
        "one process-step of the workflow (needs --session)",
        step_cmd,
        &[TOOL, SEED, SESSION, JSON, MEMORY_MODEL],
    ),
    command(
        "scan",
        Some(("<app>", "app name")),
        "run a tool on an app's whole suite",
        scan_cmd,
        DETECT_FLAGS,
    ),
    command(
        "report",
        Some(("<bug-id>", "bug id")),
        "expose a seeded bug, full report",
        report_cmd,
        DETECT_FLAGS,
    ),
    command(
        "stats",
        Some(("<dir>", "journal directory")),
        "aggregate telemetry journals",
        stats_cmd,
        &[JSON],
    ),
    command("dot", TEST, "render a workload as Graphviz", dot_cmd, &[]),
    command(
        "campaign init",
        CAMPAIGN_DIR,
        "lay out a crash-safe campaign grid",
        campaign_init,
        &[
            ATTEMPTS,
            MAX_RUNS,
            text("--tests", "a,b,c", "comma-separated test inputs"),
            text("--app", "NAME", "every test input of an app"),
            text("--tools", "t1,t2", "comma-separated tools (default waffle)"),
            num(
                "--retries",
                0,
                U32,
                "retries of a panicking cell before quarantine",
            ),
        ],
    ),
    command(
        "campaign run",
        CAMPAIGN_DIR,
        "run or resume it on N in-process workers",
        campaign_run,
        &[
            JOBS,
            MAX_CELLS,
            JSON,
            switch("--resume", "keep existing checkpoints"),
            switch("--fresh", "discard existing checkpoints"),
        ],
    ),
    command(
        "campaign work",
        CAMPAIGN_DIR,
        "join as one coordinator-free worker process",
        campaign_work,
        &[
            MAX_CELLS,
            JSON,
            text("--worker", "NAME", "worker name recorded in claim files"),
            num(
                "--lease-secs",
                0,
                u64::MAX,
                "claim lease before takeover (default 60)",
            ),
            num("--poll-ms", 0, u64::MAX, "sleep between scans (default 50)"),
            switch(
                "--no-wait",
                "return instead of polling other workers' claims",
            ),
        ],
    ),
    command(
        "campaign status",
        CAMPAIGN_DIR,
        "per-cell state, live claims, quarantine",
        campaign_status,
        &[JSON],
    ),
    command(
        "fuzz",
        None,
        "differential fuzzing vs the schedule oracle",
        fuzz_cmd,
        &[
            JOBS,
            PREEMPTION_BOUND,
            MAX_RUNS,
            MEMORY_MODEL,
            JSON,
            num("--seeds", 0, u64::MAX, "generated workloads (default 100)"),
            num(
                "--seed-base",
                0,
                u64::MAX,
                "first generator seed (default 0)",
            ),
            text("--corpus", "DIR", "write minimized disagreeing cases"),
            switch(
                "--no-reduction",
                "disable the oracle's partial-order reduction and certificate",
            ),
            switch(
                "--repair",
                "synthesize a certified repair for every confirmed bug",
            ),
        ],
    ),
    command(
        "fix",
        TEST,
        "oracle-certified fix synthesis for one test input",
        fix_cmd,
        &[MEMORY_MODEL, PREEMPTION_BOUND, SEED, JSON],
    ),
];

/// A command line checked against one [`Command`]'s table.
struct Args {
    arg: Option<String>,
    set: Vec<(&'static str, String)>,
}

impl Args {
    /// The required positional argument.
    fn arg(&self) -> &str {
        self.arg.as_deref().unwrap_or_default()
    }

    /// The last value given for `name` (`""` for a switch).
    fn get(&self, name: &str) -> Option<&str> {
        self.set
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn on(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }

    /// A numeric flag; the parser has already range-checked it against
    /// the flag's declared type.
    fn num<T: FromStr>(&self, name: &str) -> Option<T> {
        self.get(name)
            .map(|v| v.parse().ok().expect("range-checked by parse_args"))
    }
}

/// Checks `args` against `cmd`'s flags. Every missing-value, bad-number,
/// below-minimum and unknown-option error comes from here.
fn parse_args(cmd: &Command, args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        arg: None,
        set: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(flag) = cmd.flags.iter().find(|f| f.name == a) else {
            if cmd.arg.is_some() && parsed.arg.is_none() && !a.starts_with("--") {
                parsed.arg = Some(a.clone());
                continue;
            }
            return Err(format!("{}: unknown option {a}", cmd.name));
        };
        let value = match flag.kind {
            Kind::Switch => String::new(),
            _ => it
                .next()
                .ok_or_else(|| format!("{a} needs a value"))?
                .clone(),
        };
        if let Kind::Num { min, max, why } = flag.kind {
            let too_large = || format!("{a} must be at most {max}");
            let n: u64 = value.parse().map_err(|e: ParseIntError| match e.kind() {
                IntErrorKind::PosOverflow => too_large(),
                _ => format!("{a}: {e}"),
            })?;
            if n < min {
                return Err(format!("{a} must be at least {min}{why}"));
            }
            if n > max {
                return Err(too_large());
            }
        }
        parsed.set.push((flag.name, value));
    }
    match cmd.arg {
        Some((_, what)) if parsed.arg.is_none() => Err(format!("{}: missing {what}", cmd.name)),
        _ => Ok(parsed),
    }
}

/// `waffle help`, generated from [`COMMANDS`].
fn help_cmd(_: &Args) -> Result<(), String> {
    println!("waffle — active delay injection for MemOrder bugs\n\ncommands:");
    let mut listed: Vec<&Flag> = Vec::new();
    for c in COMMANDS {
        let mut words = vec![c.name.to_owned()];
        words.extend(c.arg.map(|(meta, _)| meta.to_owned()));
        words.extend(c.flags.iter().map(|f| format!("[{}]", usage(f))));
        let mut line = String::from(" ");
        for w in words {
            if line.len() + w.len() >= 78 {
                println!("{line}");
                line = String::from("     ");
            }
            line = format!("{line} {w}");
        }
        println!("{line}\n        {}", c.about);
        for f in c.flags {
            if !listed.iter().any(|l| l.name == f.name) {
                listed.push(f);
            }
        }
    }
    println!("\noptions:");
    for f in listed {
        println!("  {:<28} {}", usage(f), f.help);
    }
    Ok(())
}

/// `--flag META` as `waffle help` shows it.
fn usage(f: &Flag) -> String {
    match f.kind {
        Kind::Switch => f.name.to_owned(),
        Kind::Text(meta) => format!("{} {meta}", f.name),
        Kind::Num { .. } => format!("{} N", f.name),
    }
}

/// Prints a JSON rendering, surfacing its error as a CLI error.
fn print_json<E: std::fmt::Display>(rendered: Result<String, E>) -> Result<(), String> {
    println!("{}", rendered.map_err(|e| e.to_string())?);
    Ok(())
}

fn memory_model(a: &Args) -> Result<MemoryModel, String> {
    match a.get("--memory-model") {
        None => Ok(MemoryModel::Sc),
        Some(v) => MemoryModel::parse(v)
            .ok_or_else(|| format!("--memory-model: unknown model {v} (sc|tso|pso)")),
    }
}

fn find_test(name: &str) -> Option<Workload> {
    test_workload(name).or_else(|| waffle_repro::apps::weak_scenario(name).map(|s| s.workload))
}

fn test_named(name: &str) -> Result<Workload, String> {
    find_test(name).ok_or_else(|| format!("unknown test {name}"))
}

/// The options of `detect`, `step`, `scan` and `report`.
struct Options {
    tool: Tool,
    tool_name: String,
    max_runs: u32,
    seed: u64,
    attempts: u32,
    jobs: usize,
    session: Option<String>,
    telemetry: Option<PathBuf>,
    json: bool,
    memory: MemoryModel,
}

fn options(a: &Args) -> Result<Options, String> {
    let tool_name = a.get("--tool").unwrap_or("waffle").to_owned();
    if a.num::<u32>("--attempts").is_some_and(|n| n > 1) {
        if let Some(flag) = ["--seed", "--session"].into_iter().find(|f| a.on(f)) {
            return Err(format!(
                "{flag} cannot be combined with --attempts above 1 \
                 (attempts run at seeds 1..=N and save no session)"
            ));
        }
    }
    Ok(Options {
        tool: Tool::by_name(&tool_name).ok_or_else(|| format!("unknown tool {tool_name}"))?,
        tool_name,
        max_runs: a.num("--max-runs").unwrap_or(10),
        seed: a.num("--seed").unwrap_or(1),
        attempts: a.num("--attempts").unwrap_or(1),
        jobs: a.num("--jobs").unwrap_or(1),
        session: a.get("--session").map(str::to_owned),
        telemetry: a.path("--telemetry"),
        json: a.on("--json"),
        memory: memory_model(a)?,
    })
}

fn detector(opts: &Options) -> Detector {
    Detector::with_config(
        opts.tool.clone(),
        DetectorConfig {
            max_detection_runs: opts.max_runs,
            // Per-decision event logs are worth recording only when the
            // journals are actually being written out.
            telemetry_events: opts.telemetry.is_some(),
            memory: MemoryConfig::from_model(opts.memory),
            ..DetectorConfig::default()
        },
    )
}

/// Writes one attempt's telemetry journal into `dir` as
/// `<workload>-<tool>-attempt-<seed>.json`; returns the file path.
fn write_attempt_journal(
    dir: &Path,
    w: &Workload,
    opts: &Options,
    seed: u64,
    outcome: &DetectionOutcome,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let journal = AttemptJournal {
        workload: w.name.clone(),
        tool: opts.tool_name.clone(),
        attempt_seed: seed,
        runs: outcome.telemetry.clone(),
    };
    let path = dir.join(format!("{}-{}-attempt-{seed}.json", w.name, opts.tool_name));
    write_atomic(&path, &journal.to_json().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    Ok(path)
}

/// `detect` with `--attempts N > 1`: the §6.1 repetition methodology,
/// fanned over `--jobs` workers.
fn detect_experiment(w: &Workload, opts: &Options) -> Result<bool, String> {
    let det = detector(opts);
    let outcomes = run_attempts(&det, w, opts.attempts, opts.jobs);
    let summary = summarize(&det, w, &outcomes);
    if let Some(dir) = &opts.telemetry {
        // One journal file per attempt, keyed by its fixed seed, so the
        // set of files is identical at any --jobs.
        for (i, outcome) in outcomes.iter().enumerate() {
            write_attempt_journal(dir, w, opts, attempt_seed(i as u32), outcome)?;
        }
        if !opts.json {
            println!(
                "{} telemetry journal(s) written to {}",
                outcomes.len(),
                dir.display()
            );
        }
    }
    if opts.json {
        print_json(serde_json::to_string_pretty(&summary))?;
    } else {
        println!(
            "{} [{}]: {}/{} attempts exposed the bug",
            w.name, opts.tool_name, summary.exposed_attempts, summary.attempts
        );
        match summary.reported_runs() {
            Some(runs) => println!(
                "typical exposure in {runs} runs, median slowdown {:.1}x",
                summary.median_slowdown.unwrap_or(1.0)
            ),
            None => println!("no attempt exposed a bug"),
        }
        if summary.tsv_attempts > 0 {
            println!(
                "{} attempts exposed a thread-safety violation",
                summary.tsv_attempts
            );
        }
    }
    Ok(summary.exposed_attempts > 0 || summary.tsv_attempts > 0)
}

fn detect_one(w: &Workload, opts: &Options) -> Result<bool, String> {
    if opts.attempts > 1 {
        return detect_experiment(w, opts);
    }
    let det = detector(opts);
    let outcome = det.detect(w, opts.seed);
    let session = opts
        .session
        .as_ref()
        .map(|d| Session::open(d).map_err(|e| e.to_string()))
        .transpose()?;
    if let Some(dir) = &opts.telemetry {
        let path = write_attempt_journal(dir, w, opts, opts.seed, &outcome)?;
        if !opts.json {
            println!("telemetry journal written to {}", path.display());
        }
    }
    if opts.json {
        print_json(serde_json::to_string_pretty(&outcome))?;
    } else {
        println!(
            "{} [{}]: base {}, {} runs",
            w.name,
            opts.tool_name,
            outcome.base_time,
            outcome.total_runs()
        );
        match (&outcome.exposed, &outcome.tsv_exposed) {
            (Some(r), _) => {
                print!("{}", r.render(&w.sites));
                println!("slowdown {:.1}x vs uninstrumented", outcome.slowdown());
            }
            (None, Some(v)) => println!(
                "thread-safety violation: {} overlaps {} on {} (run {})",
                v.first_site, v.second_site, v.obj, v.exposed_in_run
            ),
            (None, None) => println!(
                "no bug exposed ({} delays injected across the detection runs)",
                outcome.total_delays()
            ),
        }
    }
    if let (Some(session), Some(report)) = (&session, &outcome.exposed) {
        let path = session
            .save_report(report, &report.render(&w.sites))
            .map_err(|e| e.to_string())?;
        if !opts.json {
            println!("report written to {}", path.display());
        }
    }
    Ok(outcome.exposed.is_some() || outcome.tsv_exposed.is_some())
}

fn detect_cmd(a: &Args) -> Result<(), String> {
    let opts = options(a)?;
    detect_one(&test_named(a.arg())?, &opts)?;
    Ok(())
}

/// `waffle scan <app>`: `detect` on every test input of the app, in suite
/// order. Each input's attempts fan out over `--jobs`, so the output is
/// identical at any worker count.
fn scan_cmd(a: &Args) -> Result<(), String> {
    let opts = options(a)?;
    let name = a.arg();
    let app = all_apps()
        .into_iter()
        .find(|app| app.name == name)
        .ok_or_else(|| format!("unknown app {name}"))?;
    let mut found = 0;
    for t in &app.tests {
        if detect_one(&t.workload, &opts)? {
            found += 1;
        }
        println!();
    }
    println!("{found} bug(s) exposed across {} inputs", app.tests.len());
    Ok(())
}

fn report_cmd(a: &Args) -> Result<(), String> {
    let id: u32 = a.arg().parse().map_err(|e| format!("bug id: {e}"))?;
    let opts = options(a)?;
    let spec = bug(id).ok_or_else(|| format!("unknown bug id {id}"))?;
    let w = bug_workload(id).ok_or("bug workload missing")?;
    println!(
        "Bug-{id} ({} issue {}): {}\n",
        spec.app, spec.issue, spec.summary
    );
    detect_one(&w, &opts)?;
    Ok(())
}

/// `waffle step`: the real tool's process model, where each invocation
/// is one run. The first step (no plan in the session yet) is the
/// preparation run; later steps are detection runs resuming the persisted
/// probabilities.
fn step_cmd(a: &Args) -> Result<(), String> {
    let opts = options(a)?;
    let dir = opts.session.clone().ok_or("step requires --session DIR")?;
    let session = Session::open(dir).map_err(|e| e.to_string())?;
    let w = test_named(a.arg())?;
    let det = Detector::with_config(
        opts.tool.clone(),
        DetectorConfig {
            memory: MemoryConfig::from_model(opts.memory),
            ..DetectorConfig::default()
        },
    );
    let outcome = det
        .step_with_session(&w, opts.seed, &session)
        .map_err(|e| e.to_string())?;
    if opts.json {
        print_json(serde_json::to_string_pretty(&outcome))?;
    } else if outcome.prep.is_some() {
        println!(
            "preparation run complete; plan saved to {}",
            session.path().display()
        );
    } else {
        match &outcome.exposed {
            Some(r) => print!("{}", r.render(&w.sites)),
            None => println!("detection run complete; no bug this run"),
        }
    }
    Ok(())
}

fn list_cmd(_: &Args) -> Result<(), String> {
    for app in all_apps() {
        println!("{} ({} tests)", app.name, app.tests.len());
        for t in &app.tests {
            let tag = match t.seeded_bug {
                Some(id) => format!("  [Bug-{id}]"),
                None => String::new(),
            };
            println!("  {}{}", t.workload.name, tag);
        }
    }
    println!("weak-memory scenarios (run with --memory-model):");
    for s in waffle_repro::apps::weak_scenarios() {
        let tag = match s.expected {
            Some(k) => format!("  [{} under {}]", k.label(), s.model),
            None => "  [control]".into(),
        };
        println!("  {}{}", s.name, tag);
    }
    Ok(())
}

fn bugs_cmd(_: &Args) -> Result<(), String> {
    for b in all_bugs() {
        println!(
            "Bug-{:<3} {:<20} issue {:<6} {:<8} {}",
            b.id,
            b.app,
            b.issue,
            if b.known { "known" } else { "unknown" },
            b.summary
        );
    }
    Ok(())
}

fn dot_cmd(a: &Args) -> Result<(), String> {
    print!("{}", waffle_repro::sim::dot::to_dot(&test_named(a.arg())?));
    Ok(())
}

fn stats_cmd(a: &Args) -> Result<(), String> {
    let dir = a.arg();
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    if names.is_empty() {
        return Err(format!("{dir}: no .json telemetry journals found"));
    }
    // Sorted paths + commutative counters: the aggregate does not
    // depend on directory iteration order.
    names.sort();
    let mut registry = MetricsRegistry::new();
    for path in &names {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let attempt =
            AttemptJournal::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        registry.absorb_attempt(&attempt);
    }
    if a.on("--json") {
        return print_json(serde_json::to_string_pretty(&registry));
    }
    println!("{} journal(s) aggregated\n", names.len());
    for (name, value) in registry.counters() {
        println!("{name:<50} {value}");
    }
    if let Some(h) = registry.histogram("total/delay") {
        if !h.is_empty() {
            println!("\ninjected delay lengths (log2 µs buckets):");
            for (lo, hi, n) in h.nonzero_buckets() {
                println!("  [{lo:>9}µs, {hi:>9}µs)  {n}");
            }
            println!(
                "  count {}, mean {:.1}µs, max {}µs",
                h.count(),
                h.mean_us(),
                h.max_us()
            );
        }
    }
    Ok(())
}

/// `waffle analyze` — run the delay-free preparation run, build the
/// columnar trace index once, and run the fused analysis pipeline over it;
/// `--stats` adds index/scan timings, size statistics and the telemetry
/// counters they feed. With `--spill DIR` the index is written to an
/// on-disk segment file and analyzed out-of-core under a resident-bytes
/// budget (`--budget-mb`, default 64) — the plans are byte-identical to
/// the in-memory path at every budget.
fn analyze_cmd(a: &Args) -> Result<(), String> {
    use std::time::Instant;
    use waffle_repro::analysis::{
        analyze_indexed, analyze_segments, analyze_tsv_indexed, analyze_tsv_segments, ooc_stats,
        AnalyzerConfig, DEFAULT_RESIDENT_BYTES,
    };
    use waffle_repro::sim::{time::ms, SimConfig, Simulator};
    use waffle_repro::trace::{SegmentReader, TraceIndex, TraceRecorder};

    let jobs = a.num("--jobs").unwrap_or(1);
    let spill = a.path("--spill");
    let budget_mb: Option<u64> = a.num("--budget-mb");
    let memory = memory_model(a)?;
    if budget_mb.is_some() && spill.is_none() {
        return Err("analyze: --budget-mb only applies with --spill DIR".into());
    }
    let w = test_named(a.arg())?;

    let mut rec = TraceRecorder::new(&w);
    let sim_cfg = SimConfig::with_seed(a.num("--seed").unwrap_or(1))
        .with_memory(MemoryConfig::from_model(memory));
    let _ = Simulator::run(&w, sim_cfg, &mut rec);
    let trace = rec.into_trace();

    let t0 = Instant::now();
    let index = TraceIndex::build(&trace);
    let build_us = (t0.elapsed().as_micros() as u64).max(1);
    let istats = index.stats();

    let config = AnalyzerConfig::default().with_memory(memory);
    let t1 = Instant::now();
    let mut spill_note = None;
    let (plan, tsv) = match &spill {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("{}.seg", w.name));
            let wstats = index.write_segments(&path).map_err(|e| e.to_string())?;
            let budget = match budget_mb {
                None => DEFAULT_RESIDENT_BYTES,
                // `m << 20` would silently wrap for m > 2^44 and turn a
                // typo into a near-zero budget; reject instead.
                Some(m) => m
                    .checked_mul(1 << 20)
                    .ok_or_else(|| format!("--budget-mb {m} overflows (max {})", u64::MAX >> 20))?,
            };
            let mut reader = SegmentReader::open(&path).map_err(|e| e.to_string())?;
            let ostats = ooc_stats(&reader, budget);
            let plan =
                analyze_segments(&mut reader, &config, jobs, budget).map_err(|e| e.to_string())?;
            let tsv = analyze_tsv_segments(&mut reader, config.delta, ms(1), jobs, budget)
                .map_err(|e| e.to_string())?;
            spill_note = Some((path, wstats, ostats, budget));
            (plan, tsv)
        }
        None => (
            analyze_indexed(&index, &config, jobs),
            analyze_tsv_indexed(&index, config.delta, ms(1), jobs),
        ),
    };
    let scan_us = (t1.elapsed().as_micros() as u64).max(1);

    let mut registry = MetricsRegistry::new();
    registry.observe_us("analysis/index_build", build_us);
    registry.observe_us("analysis/scan", scan_us);

    if a.on("--plan-only") {
        // Exactly the serve-session report shape, for byte-diffing a
        // streamed session's report against the batch path in CI.
        return print_json(waffle_repro::core::session_report_json(&plan, &tsv));
    }
    if a.on("--json") {
        // Composite object: the deterministic plans plus the index shape.
        // Timings are intentionally excluded — they vary run to run.
        println!(
            "{{\n\"index\": {},\n\"plan\": {},\n\"tsv\": {}\n}}",
            serde_json::to_string(&istats).map_err(|e| e.to_string())?,
            plan.to_json().map_err(|e| e.to_string())?,
            tsv.to_json().map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "{}: {} events indexed ({} MemOrder over {} objects, {} TSV over {})",
        w.name,
        istats.events,
        istats.mem_events,
        istats.mem_objects,
        istats.tsv_events,
        istats.tsv_objects
    );
    println!(
        "plan: {} candidate pair(s), {} delay site(s), {} interference pair(s), {} TSV candidate(s)",
        plan.candidates.len(),
        plan.delay_len.len(),
        plan.interference.len(),
        tsv.candidates.len()
    );
    for c in &plan.candidates {
        println!(
            "  {} {} -> {} on {} (gap {}, {} obs) delay {}",
            c.kind.label(),
            w.sites.name(c.delay_site),
            w.sites.name(c.other_site),
            c.obj,
            c.max_gap,
            c.observations,
            plan.delay_for(c.delay_site)
        );
    }
    if let Some((path, wstats, ostats, budget)) = &spill_note {
        println!(
            "spill: {} ({} segment(s), {} bytes)",
            path.display(),
            wstats.segments,
            wstats.file_bytes
        );
        println!(
            "out-of-core scan: budget {} MiB -> {} batch(es), max {} resident bytes",
            budget >> 20,
            ostats.batches,
            ostats.max_batch_bytes
        );
    }
    if a.on("--stats") {
        let dedup = istats.events.max(1) as f64 / istats.distinct_clocks.max(1) as f64;
        println!(
            "\nindex: {} distinct clock snapshot(s), {dedup:.1} events/snapshot",
            istats.distinct_clocks
        );
        println!(
            "index build: {build_us} µs ({:.0} events/sec)",
            istats.events as f64 / (build_us as f64 / 1e6)
        );
        println!(
            "scan (--jobs {jobs}): {scan_us} µs, {} window pair(s) swept ({:.0} pairs/sec), {} examined, {} pruned",
            plan.stats.window_pairs,
            plan.stats.window_pairs as f64 / (scan_us as f64 / 1e6),
            plan.stats.examined,
            plan.stats.pruned_ordered
        );
        println!("\ntelemetry counters:");
        for (name, value) in registry.counters() {
            println!("  {name:<40} {value}");
        }
    }
    Ok(())
}

/// `waffle campaign init` — lay out the grid: every test input × every
/// tool, each cell `--attempts` repetitions.
fn campaign_init(a: &Args) -> Result<(), String> {
    let list = |name: &str| {
        a.get(name)
            .map(|v| v.split(',').map(str::to_owned).collect())
    };
    let mut tests: Vec<String> = list("--tests").unwrap_or_default();
    let tools: Vec<String> = list("--tools").unwrap_or_else(|| vec!["waffle".into()]);
    let attempts: u32 = a.num("--attempts").unwrap_or(5);
    let mut config = CampaignConfig::default();
    config.max_detection_runs = a.num("--max-runs").unwrap_or(config.max_detection_runs);
    config.max_retries = a.num("--retries").unwrap_or(config.max_retries);
    if let Some(app) = a.get("--app") {
        let app = all_apps()
            .into_iter()
            .find(|x| x.name == app)
            .ok_or_else(|| format!("unknown app {app}"))?;
        tests.extend(app.tests.iter().map(|t| t.workload.name.clone()));
    }
    if tests.is_empty() {
        return Err("campaign init: pass --tests a,b,c and/or --app NAME".into());
    }
    for t in &tests {
        test_named(t)?;
    }
    let cells: Vec<CellSpec> = tests
        .iter()
        .flat_map(|w| {
            tools
                .iter()
                .map(|t| CellSpec::new(w.clone(), t.clone(), attempts))
        })
        .collect();
    let dir = a.arg();
    let campaign = Campaign::create(dir, config, cells).map_err(|e| e.to_string())?;
    println!(
        "campaign initialized: {} cells ({} inputs × {} tools, {} attempts each)",
        campaign.manifest().cells.len(),
        tests.len(),
        tools.len(),
        attempts
    );
    println!(
        "manifest fingerprint {:016x}",
        campaign.manifest().fingerprint
    );
    println!("run it with: waffle campaign run {dir}");
    Ok(())
}

/// `waffle campaign run` — the crash-safe, resumable campaign workflow on
/// `--jobs` in-process workers of the claim protocol. `--resume` skips
/// checkpointed cells, and the final report is byte-identical to an
/// uninterrupted run at any `--jobs`.
fn campaign_run(a: &Args) -> Result<(), String> {
    let opts = RunOptions {
        jobs: a.num("--jobs").unwrap_or(1),
        resume: a.on("--resume"),
        max_cells: a.num("--max-cells"),
    };
    let fresh = a.on("--fresh");
    if opts.resume && fresh {
        return Err("campaign run: --resume and --fresh are mutually exclusive".into());
    }
    let campaign = Campaign::open(a.arg()).map_err(|e| e.to_string())?;
    let done = campaign.manifest().cells.len() - campaign.outstanding().len();
    if done > 0 && !opts.resume && !fresh {
        return Err(format!(
            "campaign run: {done} checkpointed cell(s) exist; pass --resume to \
             continue where the last run stopped or --fresh to discard them"
        ));
    }
    let progress = campaign.run(&opts, find_test).map_err(|e| e.to_string())?;
    print_progress(&campaign, &progress, a.on("--json"))
}

/// `waffle campaign work` — join the campaign as one coordinator-free
/// worker process.
fn campaign_work(a: &Args) -> Result<(), String> {
    let defaults = WorkOptions::default();
    let opts = WorkOptions {
        worker: a.get("--worker").map_or(defaults.worker, str::to_owned),
        lease_secs: a.num("--lease-secs").unwrap_or(defaults.lease_secs),
        max_cells: a.num("--max-cells"),
        poll_ms: a.num("--poll-ms").unwrap_or(defaults.poll_ms),
        wait: !a.on("--no-wait"),
    };
    let campaign = Campaign::open(a.arg()).map_err(|e| e.to_string())?;
    let progress = campaign.work(&opts, find_test).map_err(|e| e.to_string())?;
    print_progress(&campaign, &progress, a.on("--json"))
}

/// Prints what one `campaign run` or `campaign work` invocation did.
fn print_progress(campaign: &Campaign, p: &CampaignProgress, json: bool) -> Result<(), String> {
    let dir = campaign.dir().display();
    if !json {
        if p.skipped > 0 {
            println!("resume: skipped {} checkpointed cell(s)", p.skipped);
        }
        for (i, status) in &p.ran {
            let spec = &campaign.manifest().cells[*i];
            let status = match status {
                CellStatus::Completed => "completed",
                CellStatus::TimedOut => "completed (TimeOut)",
                CellStatus::Failed => "FAILED (quarantined)",
            };
            println!(
                "cell [{i:04}] {} / {} -> {status}",
                spec.workload, spec.tool
            );
        }
        if p.recovered > 0 {
            println!("recovered {} stale claim(s)", p.recovered);
        }
    }
    match &p.report {
        Some(report) if json => print_json(serde_json::to_string_pretty(report))?,
        Some(report) => {
            print!("{}", report.render());
            println!("report written to {dir}/report.json");
        }
        None if json => println!(
            "{{\"ran\": {}, \"recovered\": {}, \"outstanding\": {}}}",
            p.ran.len(),
            p.recovered,
            p.outstanding
        ),
        None => println!(
            "{} cell(s) still outstanding; continue with: waffle campaign run {dir} --resume \
             (or join another: waffle campaign work {dir})",
            p.outstanding
        ),
    }
    Ok(())
}

fn campaign_status(a: &Args) -> Result<(), String> {
    let campaign = Campaign::open(a.arg()).map_err(|e| e.to_string())?;
    let status = campaign.status().map_err(|e| e.to_string())?;
    if a.on("--json") {
        return print_json(serde_json::to_string_pretty(&status));
    }
    let mut registry = MetricsRegistry::new();
    for (i, spec) in campaign.manifest().cells.iter().enumerate() {
        let ckpt = campaign.checkpoint_state(i);
        if let CheckpointState::Ready(c) = &ckpt {
            if let Some(s) = &c.summary {
                registry.absorb_summary(&spec.workload, &spec.tool, &s.telemetry);
            }
        }
        let line = &status.cells[i];
        let state = match line.state.as_str() {
            "completed" => "completed".to_owned(),
            "timed_out" => "completed (TimeOut)".to_owned(),
            "failed" => format!(
                "FAILED (quarantined): {}",
                line.last_failure.as_deref().unwrap_or("no panic recorded")
            ),
            "claimed" => {
                let c = line.claim.as_ref().expect("claimed cells carry a claim");
                format!(
                    "claimed by {} (pid {}, {}s ago)",
                    c.worker, c.pid, c.age_secs
                )
            }
            _ if matches!(ckpt, CheckpointState::Invalid) => {
                "invalid checkpoint (will re-run)".to_owned()
            }
            _ => "outstanding".to_owned(),
        };
        println!(
            "[{i:04}] {} / {} ({} attempts): {state}",
            spec.workload, spec.tool, spec.attempts
        );
    }
    println!(
        "{}/{} cells checkpointed ({} completed, {} timed out, {} quarantined); \
         {} live claim(s){}",
        status.done,
        status.total,
        status.completed,
        status.timed_out,
        status.quarantined.len(),
        status.claims.len(),
        if status.report_written {
            "; report.json written"
        } else {
            ""
        }
    );
    println!(
        "telemetry so far: {} runs, {} delays injected",
        registry.counter("total/runs"),
        registry.counter("total/injected"),
    );
    Ok(())
}

/// `waffle fuzz` — run a block of generated workloads through the bounded
/// schedule oracle and all detector configurations, failing (non-zero
/// exit) on any ground-truth disagreement. With `--corpus DIR`, each
/// disagreeing workload is delta-debugged to a minimal op sequence and
/// persisted as a replayable corpus case. `--repair` also synthesizes a
/// certified repair for every oracle-confirmed bug.
fn fuzz_cmd(a: &Args) -> Result<(), String> {
    use waffle_repro::fuzz::{
        classify_case, run_fuzz, shrink_case, CorpusCase, FuzzCase, FuzzConfig,
    };

    let d = FuzzConfig::default();
    let cfg = FuzzConfig {
        seeds: a.num("--seeds").unwrap_or(d.seeds),
        seed_base: a.num("--seed-base").unwrap_or(d.seed_base),
        jobs: a.num("--jobs").unwrap_or(d.jobs),
        preemption_bound: a.num("--preemption-bound").unwrap_or(d.preemption_bound),
        max_detection_runs: a.num("--max-runs").unwrap_or(d.max_detection_runs),
        memory: memory_model(a)?,
        reduction: d.reduction && !a.on("--no-reduction"),
        repair: d.repair || a.on("--repair"),
        ..d
    };
    // The block's last seed, seed_base + seeds - 1, must be a u64.
    let max_base = u64::MAX - cfg.seeds.saturating_sub(1);
    if cfg.seed_base > max_base {
        return Err(format!(
            "--seed-base must be at most {max_base} with --seeds {}",
            cfg.seeds
        ));
    }
    let json = a.on("--json");

    let report = run_fuzz(&cfg);

    if let Some(dir) = a.path("--corpus") {
        if !report.disagreements.is_empty() {
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        // One minimized corpus case per disagreeing seed. Shrink while the
        // same disagreement kind reproduces under the sweep config AND the
        // case stays clean under the replay config (defaults at the same
        // bound) — without the second conjunct the shrinker can collapse a
        // run-budget miss into a degenerate workload that errors in the
        // preparation run itself and fails replay at any budget.
        let replay_cfg = FuzzConfig {
            preemption_bound: cfg.preemption_bound,
            memory: cfg.memory,
            ..FuzzConfig::default()
        };
        let mut seeds_done: Vec<u64> = Vec::new();
        for d in &report.disagreements {
            if seeds_done.contains(&d.seed) {
                continue;
            }
            seeds_done.push(d.seed);
            let case = waffle_repro::fuzz::generate_case_for_model(d.seed, cfg.memory);
            let kind = d.kind;
            let still_fails = |c: &FuzzCase| {
                classify_case(c, &cfg)
                    .disagreements
                    .iter()
                    .any(|x| x.kind == kind)
                    && classify_case(c, &replay_cfg).disagreements.is_empty()
            };
            let minimized = shrink_case(&case, &still_fails);
            let entry = CorpusCase {
                label: format!("seed {} [{}]: {}", d.seed, d.kind.label(), d.detail),
                preemption_bound: cfg.preemption_bound,
                memory: cfg.memory,
                case: minimized,
            };
            let path = dir.join(format!("s{}-{}.json", d.seed, d.kind.label()));
            write_atomic(&path, &entry.to_json().map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            if !json {
                println!("minimized corpus case written to {}", path.display());
            }
        }
    }

    if json {
        print_json(report.to_json())?;
    } else {
        print!("{}", report.render());
    }
    if report.disagreements.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "fuzz: {} oracle/detector disagreement(s)",
            report.disagreements.len()
        ))
    }
}

/// `waffle fix <test>` — oracle-certified fix synthesis for one test
/// input: confirm the bug with the bounded schedule oracle, enumerate
/// candidate patches (fence, event edge, lock scope) from the analysis
/// plan, and report the cheapest patch the oracle certifies unexposable
/// at the same preemption bound under the same memory model. A test with
/// no exposable bug within the bound needs no repair; a confirmed bug
/// whose fix lies outside the grammar is reported unrepairable rather
/// than patched with an uncertified guess.
fn fix_cmd(a: &Args) -> Result<(), String> {
    use waffle_repro::fuzz::{
        derive_plan, explore, synthesize_with_oracle, OracleConfig, OracleVerdict,
    };

    let d = OracleConfig::default();
    let cfg = OracleConfig {
        memory: memory_model(a)?,
        preemption_bound: a.num("--preemption-bound").unwrap_or(d.preemption_bound),
        ..d
    };
    let json = a.on("--json");
    let w = test_named(a.arg())?;

    let oracle = explore(&w, &cfg);
    let (kind, obj) = match oracle.verdict {
        OracleVerdict::Exposable { kind, obj, .. } => (kind, obj),
        OracleVerdict::CleanWithinBound => {
            if json {
                println!("{{\"workload\": {:?}, \"exposable\": false}}", w.name);
            } else {
                println!(
                    "{}: no exposable bug within preemption bound {} under {}; nothing to repair",
                    w.name, cfg.preemption_bound, cfg.memory
                );
            }
            return Ok(());
        }
        OracleVerdict::Truncated => {
            return Err(format!(
                "fix: oracle exploration truncated at {} states; raise the state budget \
                 before trusting any certificate",
                oracle.states_explored
            ));
        }
    };
    let plan = derive_plan(&w, a.num("--seed").unwrap_or(1), cfg.memory);
    let report = synthesize_with_oracle(&w, &plan, kind, obj, &cfg);
    if json {
        print_json(serde_json::to_string_pretty(&report))?;
    } else {
        print!("{}", report.render());
    }
    if report.certified() {
        Ok(())
    } else {
        Err(format!(
            "fix: no certified repair within the candidate grammar ({} candidate(s) tried)",
            report.candidates_tried
        ))
    }
}

/// `waffle serve --socket PATH --dir DIR` — the streaming ingestion
/// server: accepts concurrent client sessions over a Unix socket, builds
/// each session's columnar index incrementally (sealing generation
/// segment files every `--seal-events`), folds sealed generations into a
/// running analysis, and answers each session's Finish with the same
/// report a one-shot `waffle analyze --plan-only` would print for the
/// concatenated trace. Bounded per-session queues (`--queue-events`)
/// provide backpressure: `--policy block` (default) throttles the client
/// through socket flow control, `--policy shed` drops event batches under
/// overload and counts them.
fn serve_cmd(a: &Args) -> Result<(), String> {
    use waffle_repro::core::{serve, QueuePolicy, ServeOptions};
    let socket = a
        .path("--socket")
        .ok_or("serve: --socket PATH is required")?;
    let dir = a.path("--dir").ok_or("serve: --dir DIR is required")?;
    let mut opts = ServeOptions::new(socket, dir);
    opts.policy = match a.get("--policy").unwrap_or("block") {
        "block" => QueuePolicy::Block,
        "shed" => QueuePolicy::Shed,
        other => return Err(format!("--policy: unknown policy {other}")),
    };
    opts.seal_events = a.num("--seal-events").unwrap_or(opts.seal_events);
    opts.queue_events = a.num("--queue-events").unwrap_or(opts.queue_events);
    opts.jobs = a.num("--jobs").unwrap_or(opts.jobs);
    opts.max_sessions = a.num("--max-sessions");
    let json = a.on("--json");
    if !json {
        println!(
            "serve: listening on {} (reports under {})",
            opts.socket.display(),
            opts.dir.display()
        );
    }
    let report = serve(&opts).map_err(|e| e.to_string())?;
    if json {
        print_json(serde_json::to_string_pretty(&report.metrics))?;
    } else {
        println!("serve: {} session(s) handled", report.sessions);
        for (name, value) in report.metrics.counters() {
            println!("  {name:<32} {value}");
        }
    }
    Ok(())
}

/// `waffle ingest --socket PATH --test NAME` — the reference client:
/// records the test's preparation-run trace, streams it to a running
/// `waffle serve` as one session (Events frames of `--batch` events), and
/// prints the server's report JSON.
fn ingest_cmd(a: &Args) -> Result<(), String> {
    use waffle_repro::core::replay_trace;
    use waffle_repro::sim::{SimConfig, Simulator};
    use waffle_repro::trace::TraceRecorder;
    let socket = a
        .path("--socket")
        .ok_or("ingest: --socket PATH is required")?;
    let name = a.get("--test").ok_or("ingest: --test NAME is required")?;
    let w = test_named(name)?;
    let mut rec = TraceRecorder::new(&w);
    let _ = Simulator::run(
        &w,
        SimConfig::with_seed(a.num("--seed").unwrap_or(1)),
        &mut rec,
    );
    let trace = rec.into_trace();
    let json = replay_trace(&socket, &trace, a.num("--batch").unwrap_or(4096))
        .map_err(|e| e.to_string())?;
    println!("{json}");
    // A report carrying a "shed" member means the server (under
    // --policy shed) dropped some of this session's Events batches; the
    // plan above was computed over an incomplete trace.
    if json.contains("\n\"shed\": ") {
        eprintln!("ingest: note: server shed part of this session; the report is lossy");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        return Err("usage: waffle <command> [args]; `waffle help` lists the commands".into());
    };
    let (name, rest) = match first.as_str() {
        "--help" | "-h" => ("help".to_owned(), &args[1..]),
        "campaign" => {
            let verb = args
                .get(1)
                .ok_or("campaign: missing subcommand (init|run|work|status)")?;
            (format!("campaign {verb}"), &args[2..])
        }
        _ => (first.clone(), &args[1..]),
    };
    let cmd = COMMANDS.iter().find(|c| c.name == name).ok_or_else(|| {
        match name.strip_prefix("campaign ") {
            Some(verb) => format!("campaign: unknown subcommand {verb}"),
            None => format!("unknown command {name}"),
        }
    })?;
    (cmd.run)(&parse_args(cmd, rest)?)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("waffle: {e}");
            ExitCode::FAILURE
        }
    }
}
