//! The paper's evaluation (§6) as typed tables.
//!
//! Every table and figure of the evaluation, and every extension study,
//! is a function here that returns a [`Table`]. The `repro` bench target
//! (`cargo bench -p waffle-bench --bench repro`) runs [`all`], prints each
//! table with [`Table::render`] and writes them all to `REPRO.json` at the
//! workspace root. The simulation runs in virtual time from fixed seeds,
//! and every attempt is keyed by its seed (`attempt_seed`), so the file
//! is byte-identical at any worker count and CI diffs it against the
//! committed copy.
//!
//! In `REPRO.json` a cell is a number, a string, `"-"` (no value, e.g. a
//! bug the tool did not expose), `"TimeOut"`, or `{"measured", "paper"}`
//! where the suite carries the paper's figure. Times are virtual
//! milliseconds; real numbers are rounded to the digits the text shows.

use serde::{Serialize, Value};
use waffle_analysis::{analyze, analyze_tsv, AnalyzerConfig, Plan, PlanTables};
use waffle_apps::extensions::task_request_pipeline;
use waffle_apps::{all_apps, all_bugs, bug, bug_workload, BugSpec};
use waffle_core::{
    attempt_seed, par_map, run_attempts, run_experiment, Detector, DetectorConfig,
    ExperimentSummary, Tool,
};
use waffle_inject::{
    DecayState, OnlinePolicy, OnlineState, Pairing, RandomSleepPolicy, WafflePolicy,
};
use waffle_mem::{AccessKind, ObjectId};
use waffle_sim::time::{ms, us};
use waffle_sim::{
    AccessCtx, AccessRecord, Monitor, NullMonitor, PreAction, RunResult, SimConfig, SimTime,
    Simulator, Workload, WorkloadBuilder,
};
use waffle_trace::{ClockProtocol, TraceRecorder, TraceStats};

/// Repetitions per bug and tool in Table 4, as in the paper (§6.1).
const TABLE4_REPS: u32 = 15;
/// Repetitions per input in Tables 5 and 7.
const REPS: u32 = 5;

/// One cell of a [`Table`].
#[derive(Debug)]
enum Cell {
    /// A count.
    Int(u64),
    /// A real number shown with `digits` decimals and a unit suffix such
    /// as `x` or `%`; [`Cell::num`] rounds `value` to those digits.
    Num {
        value: f64,
        digits: usize,
        unit: &'static str,
    },
    /// A virtual-time duration.
    Time(SimTime),
    /// Names, labels and verdicts.
    Text(String),
    /// No value: `-`.
    Missing,
    /// Most of the tool's runs hit the deadline.
    TimeOut,
    /// A measured value next to the paper's.
    Paper(Box<Cell>, Box<Cell>),
}

impl Cell {
    /// A real number rounded to `digits` decimals.
    fn num(value: f64, digits: usize, unit: &'static str) -> Cell {
        let value = format!("{value:.digits$}")
            .parse()
            .expect("a formatted f64 parses back");
        Cell::Num {
            value,
            digits,
            unit,
        }
    }

    /// A text cell.
    fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// A measured value next to the paper's.
    fn paper(measured: Cell, paper: Cell) -> Cell {
        Cell::Paper(Box::new(measured), Box::new(paper))
    }

    /// `Int` for `Some`, `Missing` for `None`.
    fn runs(r: Option<u32>) -> Cell {
        r.map_or(Cell::Missing, |v| Cell::Int(v.into()))
    }

    /// A slowdown such as `2.2x`, or `Missing`.
    fn slowdown(s: Option<f64>) -> Cell {
        s.map_or(Cell::Missing, |v| Cell::num(v, 1, "x"))
    }

    fn render(&self) -> String {
        match self {
            Cell::Int(n) => n.to_string(),
            Cell::Num {
                value,
                digits,
                unit,
            } => format!("{value:.digits$}{unit}"),
            Cell::Time(t) => t.to_string(),
            Cell::Text(s) => s.clone(),
            Cell::Missing => "-".into(),
            Cell::TimeOut => "TimeOut".into(),
            Cell::Paper(m, p) => format!("{} ({})", m.render(), p.render()),
        }
    }
}

impl Serialize for Cell {
    fn to_value(&self) -> Value {
        match self {
            Cell::Int(n) => Value::U64(*n),
            Cell::Num { value, .. } => Value::F64(*value),
            Cell::Time(t) => Value::F64(t.as_us() as f64 / 1_000.0),
            Cell::Text(s) => Value::Str(s.clone()),
            Cell::Missing | Cell::TimeOut => Value::Str(self.render()),
            Cell::Paper(m, p) => Value::Map(vec![
                ("measured".into(), m.to_value()),
                ("paper".into(), p.to_value()),
            ]),
        }
    }
}

/// One table or figure of the evaluation.
#[derive(Debug, Serialize)]
pub struct Table {
    /// Stable key, e.g. `table4`.
    name: &'static str,
    /// The heading printed above the table.
    title: String,
    /// Column headings.
    columns: Vec<&'static str>,
    /// One entry per column in each row.
    rows: Vec<Vec<Cell>>,
    /// What the numbers show, and what the paper reports.
    note: &'static str,
}

impl Table {
    /// The table as aligned text, then the note. Columns of text (and
    /// `-`) are left-aligned, the rest right-aligned.
    pub fn render(&self) -> String {
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::render).collect())
            .collect();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| {
                cells
                    .iter()
                    .map(|r| r[i].chars().count())
                    .chain([self.columns[i].chars().count()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let left: Vec<bool> = (0..self.columns.len())
            .map(|i| {
                self.rows
                    .iter()
                    .all(|r| matches!(r[i], Cell::Text(_) | Cell::Missing))
            })
            .collect();
        let line = |row: &[String]| {
            let padded: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let w = widths[i];
                    if left[i] {
                        format!("{s:<w$}")
                    } else {
                        format!("{s:>w$}")
                    }
                })
                .collect();
            padded.join("  ").trim_end().to_string() + "\n"
        };
        let mut out = format!("{}\n", self.title);
        let header: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        out += &line(&header);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out += &line(&rule);
        for row in &cells {
            out += &line(row);
        }
        if !self.note.is_empty() {
            out += &format!("\n{}\n", self.note);
        }
        out
    }
}

/// Every table, in the order `REPRO.json` lists them.
pub fn all() -> Vec<Table> {
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let (table5, table6) = tables5_and_6(jobs);
    vec![
        table1(),
        table2(),
        table3(),
        table4(jobs),
        table5,
        table6,
        table7(jobs),
        fig2(),
        fig3(),
        fig4(),
        fig5(),
        overlap(),
        task_pruning(),
        delay_sweep(),
        delta_sweep(),
        baselines(),
        protocol(),
        waffle_tsv(),
        waffle_tsv_gaps(),
        join_aware(),
    ]
}

/// The bug-triggering workload of a Table 4 bug.
fn bug_input(id: u32) -> Workload {
    bug_workload(id).expect("every Table 4 bug has a workload")
}

/// The uninstrumented end-to-end time of a workload.
fn base_time(w: &Workload) -> SimTime {
    Simulator::run(w, SimConfig::with_seed(0), &mut NullMonitor).end_time
}

/// A delay-free preparation run at seed 1, analyzed with `cfg`.
fn plan_with(w: &Workload, mut rec: TraceRecorder, cfg: &AnalyzerConfig) -> Plan {
    let _ = Simulator::run(w, SimConfig::with_seed(1), &mut rec);
    analyze(&rec.into_trace(), cfg)
}

/// A detector for `tool` that stops after `runs` detection runs.
fn budgeted(tool: Tool, runs: u32) -> Detector {
    Detector::with_config(
        tool,
        DetectorConfig {
            max_detection_runs: runs,
            ..DetectorConfig::default()
        },
    )
}

/// Waffle's first detection run over `plan`, at seed 2.
fn detection_run(w: &Workload, plan: Plan) -> RunResult {
    let mut p = WafflePolicy::new(plan, DecayState::default(), 2);
    Simulator::run(w, SimConfig::with_seed(2), &mut p)
}

fn avg(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Table 1: the design-decision matrix, mapped to this crate's tools.
fn table1() -> Table {
    let rows = [
        ["synchronization analysis?", "y", "y", "y", "n", "n", "p"],
        ["synchronization inference?", "n", "n", "n", "n", "y", "y"],
        [
            "identify during injection runs?",
            "n",
            "n",
            "n",
            "n",
            "y",
            "n",
        ],
        ["fixed-length delay?", "y", "y", "n", "y", "y", "n"],
        ["avoids delay interference?", "-", "-", "-", "-", "n", "y"],
        ["sampled candidate locations?", "y", "y", "y", "y", "n", "n"],
        ["probabilistic injection?", "n", "n", "y", "y", "y", "y"],
    ];
    Table {
        name: "table1",
        title: "Table 1: design decisions of active delay injection tools \
                (y = yes, n = no, p = partial, - = not applicable)"
            .into(),
        columns: vec![
            "decision",
            "RaceFuzzer",
            "CTrigger",
            "RaceMob",
            "DataCollider",
            "Tsvd",
            "Waffle",
        ],
        rows: rows
            .iter()
            .map(|r| r.iter().map(|s| Cell::text(*s)).collect())
            .collect(),
        note: "Implemented in this repository:\n  \
               Tsvd              -> waffle_inject::OnlinePolicy, Pairing::Tsv (thread-safety violations)\n  \
               Waffle            -> waffle_core::Tool::waffle()\n  \
               WaffleBasic (§3)  -> waffle_core::Tool::waffle_basic() (OnlinePolicy, Pairing::MemOrder)\n  \
               sampled-location  -> waffle_inject::SingleDelayPolicy (RaceFuzzer/CTrigger-style)\n  \
               unguided          -> waffle_inject::RandomSleepPolicy (DataCollider-style)\n  \
               ablations (Tbl 7) -> Tool::waffle_no_parent_child / waffle_no_prep /\n                       \
               waffle_fixed_delay / waffle_no_interference\n  \
               extension (§8)    -> waffle_inject::WafflePolicy over PlanTables::compile_tsv (plan-guided TSV)",
    }
}

/// Table 2: average unique static instrumentation and delay-injection
/// sites per test input, for thread-safety violations (TSV) versus
/// MemOrder bugs (MO).
///
/// Instrumentation sites are the static sites of each class that
/// executed. Injection sites are the locations each tool decides to
/// delay: the Waffle plan's delay locations for MO, and TSVD's candidate
/// set after one identification run for TSV.
fn table2() -> Table {
    let rows = all_apps()
        .iter()
        .map(|app| {
            let mut instr_tsv = 0usize;
            let mut instr_mo = 0usize;
            let mut inj_tsv = 0usize;
            let mut inj_mo = 0usize;
            for t in &app.tests {
                let w = &t.workload;
                // MO side: preparation run + analysis.
                let mut rec = TraceRecorder::new(w);
                let _ = Simulator::run(w, SimConfig::with_seed(1), &mut rec);
                let trace = rec.into_trace();
                let stats = TraceStats::compute(&trace);
                instr_mo += stats.mem_order_sites;
                instr_tsv += stats.tsv_sites;
                inj_mo += analyze(&trace, &AnalyzerConfig::default()).delay_len.len();
                // TSV side: one TSVD identification run.
                let mut tsvd = OnlinePolicy::new(Pairing::Tsv, Default::default(), 1);
                let _ = Simulator::run(w, SimConfig::with_seed(1), &mut tsvd);
                inj_tsv += tsvd.into_state().delay_sites();
            }
            let n = app.tests.len().max(1) as f64;
            let per_input = |v: usize| Cell::num(v as f64 / n, 1, "");
            vec![
                Cell::text(app.name),
                per_input(instr_tsv),
                per_input(instr_mo),
                per_input(inj_tsv),
                per_input(inj_mo),
            ]
        })
        .collect();
    Table {
        name: "table2",
        title: "Table 2: unique static instrumentation and injection sites \
                (averages per test input)"
            .into(),
        columns: vec!["App", "Instr TSV", "Instr MO", "Inj TSV", "Inj MO"],
        rows,
        note: "Paper shape: MO instrumentation sites are ~10x or more the TSV sites for\n\
               most applications, and MO injection sites dominate TSV injection sites.",
    }
}

/// Table 3: the benchmark suite inventory. The seeded bugs are listed in
/// Table 4.
fn table3() -> Table {
    let rows = all_apps()
        .iter()
        .map(|app| {
            vec![
                Cell::text(app.name),
                Cell::num(app.meta.loc_k, 1, "K"),
                Cell::Int(app.meta.mt_tests_paper.into()),
                Cell::Int(app.tests.len() as u64),
                Cell::num(app.meta.stars_k, 1, "K"),
            ]
        })
        .collect();
    Table {
        name: "table3",
        title: "Table 3: details about the set of applications used to evaluate Waffle".into(),
        columns: vec![
            "Application",
            "LoC",
            "# MT tests (paper)",
            "# tests (here)",
            "# Stars",
        ],
        rows,
        note: "LoC, paper test counts and stars describe the original applications;\n\
               # tests (here) counts this suite's scaled-down inputs.",
    }
}

/// A Table 4 tool's runs and slowdown, or `-` for both when it did not
/// expose the bug in a majority of repetitions.
fn runs_and_slowdown(s: &ExperimentSummary) -> (Cell, Cell) {
    if s.detected() {
        (
            Cell::runs(s.reported_runs()),
            Cell::slowdown(s.median_slowdown),
        )
    } else {
        (Cell::Missing, Cell::Missing)
    }
}

/// Table 4: Waffle and WaffleBasic on the 18 bugs.
///
/// Per bug: the detection runs needed (majority over the repetitions, as
/// in §6.1) and the end-to-end detection slowdown against the
/// uninstrumented bug-triggering input. `-` means the tool did not expose
/// the bug in a majority of repetitions (WaffleBasic gets 50 runs).
fn table4(jobs: usize) -> Table {
    let specs = all_bugs();
    let workloads: Vec<Workload> = specs.iter().map(|s| bug_input(s.id)).collect();
    let basic = budgeted(Tool::waffle_basic(), 50);
    let cells: Vec<(&Workload, Detector)> = workloads
        .iter()
        .flat_map(|w| [Detector::new(Tool::waffle()), basic.clone()].map(|det| (w, det)))
        .collect();
    let mut summaries = run_cells(&cells, TABLE4_REPS, jobs).into_iter();
    let rows = specs
        .iter()
        .zip(&workloads)
        .map(|(spec, w)| {
            let waffle = summaries.next().expect("waffle summary");
            let basic = summaries.next().expect("basic summary");
            let (basic_runs, basic_slow) = runs_and_slowdown(&basic);
            let (waffle_runs, waffle_slow) = runs_and_slowdown(&waffle);
            let paper = &spec.paper;
            vec![
                Cell::text(format!("Bug-{}", spec.id)),
                Cell::text(spec.app),
                Cell::text(spec.issue),
                Cell::text(if spec.known { "yes" } else { "no" }),
                Cell::text(spec.test_name.clone()),
                Cell::paper(Cell::Int(base_time(w).as_ms()), Cell::Int(paper.base_ms)),
                Cell::paper(basic_runs, Cell::runs(paper.basic_runs)),
                Cell::paper(basic_slow, Cell::slowdown(paper.basic_slowdown)),
                Cell::paper(waffle_runs, Cell::runs(Some(paper.waffle_runs))),
                Cell::paper(waffle_slow, Cell::slowdown(Some(paper.waffle_slowdown))),
            ]
        })
        .collect();
    Table {
        name: "table4",
        title: format!(
            "Table 4: detection results ({TABLE4_REPS} repetitions, 50-run cap for WaffleBasic); \
             measured (paper)"
        ),
        columns: vec![
            "Bug",
            "App",
            "Issue",
            "Known",
            "Input",
            "Base(ms)",
            "Basic runs",
            "Basic slow",
            "Waffle runs",
            "Waffle slow",
        ],
        rows,
        note: "Paper shape: Waffle exposes all 18 bugs, 15 of them in two runs; WaffleBasic\n\
               misses the seven interference-bound bugs {8, 10, 12, 13, 15, 16, 17}.",
    }
}

/// Tables 5 and 6, from the same runs: each tool gets two runs on every
/// test input of each app, over `REPS` attempts.
///
/// Table 5 is the average overhead of run #1 and run #2 against the
/// uninstrumented base. Table 6 is the cumulative number and duration of
/// the delays injected in one detection run per input, from attempt 0.
/// WaffleBasic's delays only begin once candidates exist, so its measured
/// run there is the second (the paper's tools likewise carry state into
/// the measured run).
fn tables5_and_6(jobs: usize) -> (Table, Table) {
    let waffle_det = budgeted(Tool::waffle(), 2);
    let basic_det = budgeted(Tool::waffle_basic(), 2);
    let pct = |time: SimTime, base: f64| (time.as_us() as f64 / base - 1.0) * 100.0;
    let (mut rows5, mut rows6) = (Vec::new(), Vec::new());
    // LiteDB has too few multi-threaded tests, as in the paper.
    for app in all_apps().into_iter().filter(|a| a.name != "LiteDB") {
        let mut base_total = 0.0f64;
        let mut n = 0u32;
        let (mut w_r1, mut w_r2, mut b_r1, mut b_r2) = (vec![], vec![], vec![], vec![]);
        let (mut b_timeouts, mut b_runs) = (0u32, 0u32);
        let (mut basic_n, mut basic_d, mut waffle_n, mut waffle_d) =
            (0, SimTime::ZERO, 0, SimTime::ZERO);
        let (mut basic_timeouts, mut basic_runs) = (0u32, 0u32);
        for t in &app.tests {
            let w = &t.workload;
            let wf_outcomes = run_attempts(&waffle_det, w, REPS, jobs);
            let bs_outcomes = run_attempts(&basic_det, w, REPS, jobs);
            if let Some(last) = bs_outcomes[0].detection_runs.last() {
                basic_n += last.delays;
                basic_d += last.delay_total;
                basic_runs += 1;
                if last.timed_out {
                    basic_timeouts += 1;
                }
            }
            if let Some(first) = wf_outcomes[0].detection_runs.first() {
                waffle_n += first.delays;
                waffle_d += first.delay_total;
            }
            for (wf, bs) in wf_outcomes.iter().zip(&bs_outcomes) {
                let base = wf.base_time.as_us() as f64;
                if base == 0.0 {
                    continue;
                }
                base_total += base / 1_000.0;
                n += 1;
                if let Some(prep) = &wf.prep {
                    w_r1.push(pct(prep.time, base));
                }
                if let Some(r) = wf.detection_runs.first() {
                    w_r2.push(pct(r.time, base));
                }
                for (i, r) in bs.detection_runs.iter().take(2).enumerate() {
                    b_runs += 1;
                    if r.timed_out {
                        b_timeouts += 1;
                    }
                    if i == 0 {
                        b_r1.push(pct(r.time, base));
                    } else {
                        b_r2.push(pct(r.time, base));
                    }
                }
            }
        }
        let base_ms = if n == 0 { 0.0 } else { base_total / n as f64 };
        let overhead = |v: &[f64]| Cell::num(avg(v), 0, "%");
        let (b1, b2) = if b_timeouts * 2 > b_runs {
            (Cell::TimeOut, Cell::TimeOut)
        } else {
            (overhead(&b_r1), overhead(&b_r2))
        };
        rows5.push(vec![
            Cell::text(app.name),
            Cell::num(base_ms, 0, ""),
            b1,
            b2,
            overhead(&w_r1),
            overhead(&w_r2),
        ]);
        let (bn, bd) = if basic_timeouts * 2 > basic_runs {
            (Cell::TimeOut, Cell::TimeOut)
        } else {
            (Cell::Int(basic_n), Cell::Int(basic_d.as_ms()))
        };
        rows6.push(vec![
            Cell::text(app.name),
            bn,
            bd,
            Cell::Int(waffle_n),
            Cell::Int(waffle_d.as_ms()),
        ]);
    }
    let table5 = Table {
        name: "table5",
        title: format!("Table 5: average overhead on all test inputs ({REPS} repetitions)"),
        columns: vec![
            "App",
            "Base(ms)",
            "Basic R#1",
            "Basic R#2",
            "Waffle R#1",
            "Waffle R#2",
        ],
        rows: rows5,
        note: "LiteDB is excluded (too few multi-threaded tests), as in the paper. TimeOut:\n\
               most of WaffleBasic's runs on the app hit the deadline.",
    };
    let table6 = Table {
        name: "table6",
        title: "Table 6: cumulative delays across all test inputs (one detection run per input)"
            .into(),
        columns: vec![
            "App",
            "Basic #",
            "Basic dur(ms)",
            "Waffle #",
            "Waffle dur(ms)",
        ],
        rows: rows6,
        note: "",
    };
    (table5, table6)
}

/// The detection runs a Table 7 variant gets per bug: full Waffle needs
/// at most five on any of the 18 bugs. Over an unbounded budget,
/// probability decay desynchronizes the parallel delays and even the
/// crippled variants eventually get lucky, which is not the comparison
/// Table 7 draws.
const TABLE7_RUNS: u32 = 5;

/// Summarizes `attempts` attempts of each `(workload, detector)` cell, in
/// cell order. Cells fan out over `jobs` workers and each cell's attempts
/// run in order, so the summaries do not depend on `jobs`.
fn run_cells(
    cells: &[(&Workload, Detector)],
    attempts: u32,
    jobs: usize,
) -> Vec<ExperimentSummary> {
    par_map(cells.len(), jobs, |i| {
        let (w, det) = &cells[i];
        run_experiment(det, w, attempts, 1)
    })
    .unwrap_or_else(|(i, msg)| {
        let (w, det) = &cells[i];
        panic!("{} / {} panicked: {msg}", w.name, det.tool().name())
    })
}

/// How many of the 18 bugs `det` exposes in a majority of repetitions.
fn bugs_found(det: &Detector, jobs: usize) -> u64 {
    let workloads: Vec<Workload> = all_bugs().iter().map(|spec| bug_input(spec.id)).collect();
    let cells: Vec<(&Workload, Detector)> = workloads.iter().map(|w| (w, det.clone())).collect();
    run_cells(&cells, REPS, jobs)
        .iter()
        .filter(|s| s.detected())
        .count() as u64
}

/// Average first-detection-run time across every test input.
fn avg_detection_time(tool: Tool) -> f64 {
    let det = budgeted(tool, 1);
    let mut total = 0.0f64;
    let mut n = 0u64;
    for app in all_apps() {
        for t in &app.tests {
            let outcome = det.detect(&t.workload, attempt_seed(0));
            if let Some(r) = outcome.detection_runs.first() {
                total += r.time.as_us() as f64;
                n += 1;
            }
        }
    }
    total / n as f64
}

/// Table 7: each ablation disables one of Waffle's four design points.
/// Per variant: bugs found and missed (of 18) within the run budget, and
/// the average detection-run slowdown against full Waffle over all test
/// inputs.
fn table7(jobs: usize) -> Table {
    let base_bugs = bugs_found(&Detector::new(Tool::waffle()), jobs);
    let base_time = avg_detection_time(Tool::waffle());
    let mut rows = vec![vec![
        Cell::text("full Waffle"),
        Cell::Int(base_bugs),
        Cell::Missing,
        Cell::Missing,
    ]];
    for (name, tool, paper_missed, paper_slow) in [
        (
            "no parent-child analysis (s4.1)",
            Tool::waffle_no_parent_child(),
            0,
            1.17,
        ),
        ("no preparation run (s4.2)", Tool::waffle_no_prep(), 4, 1.84),
        (
            "no custom delay length (s4.3)",
            Tool::waffle_fixed_delay(),
            1,
            1.03,
        ),
        (
            "no interference control (s4.4)",
            Tool::waffle_no_interference(),
            6,
            1.41,
        ),
    ] {
        let found = bugs_found(&budgeted(tool.clone(), TABLE7_RUNS), jobs);
        let slow = avg_detection_time(tool) / base_time;
        rows.push(vec![
            Cell::text(name),
            Cell::Int(found),
            Cell::paper(
                Cell::Int(base_bugs.saturating_sub(found)),
                Cell::Int(paper_missed),
            ),
            Cell::paper(Cell::num(slow, 2, "x"), Cell::num(paper_slow, 2, "x")),
        ]);
    }
    Table {
        name: "table7",
        title: format!(
            "Table 7: ablations ({REPS} repetitions; {TABLE7_RUNS}-run budget per variant; \
             baseline = full Waffle); measured (paper)"
        ),
        columns: vec!["variant", "# found", "# missed", "slowdown vs Waffle"],
        rows,
        note: "Full Waffle gets the default 50 runs; # missed is its bug count minus the\n\
               variant's.",
    }
}

/// Figure 2's thread-safety violation: two unsafe calls on one object
/// with windows [10,15] ms and [40,45] ms, concurrent only if the first
/// call is delayed by 25–35 ms (T3-T2 = 25 ms, T4-T1 = 35 ms).
fn fig2_tsv() -> Workload {
    let mut b = WorkloadBuilder::new("fig2.tsv");
    let o = b.object("dict");
    let started = b.event("s");
    let worker = b.script("worker", move |s| {
        s.wait(started)
            .pad(ms(10))
            .unsafe_call(o, "A.call1:1", ms(5));
    });
    let main = b.script("main", move |s| {
        s.init(o, "M.init:0", us(10))
            .fork(worker)
            .signal(started)
            .pad(ms(40))
            .unsafe_call(o, "M.call2:9", ms(5))
            .join_children();
    });
    b.main(main);
    b.build()
}

/// Figure 2's MemOrder bug: the object is used at 10 ms and disposed at
/// 40 ms (T4-T1 = 30 ms), so any delay beyond 30 ms at the use triggers.
fn fig2_memorder() -> Workload {
    let mut b = WorkloadBuilder::new("fig2.mo");
    let o = b.object("obj");
    let started = b.event("s");
    let worker = b.script("worker", move |s| {
        s.wait(started).pad(ms(10)).use_(o, "A.use:1", us(50));
    });
    let main = b.script("main", move |s| {
        s.init(o, "M.init:0", us(10))
            .fork(worker)
            .signal(started)
            .pad(ms(40))
            .dispose(o, "M.dispose:9", us(50))
            .join_children();
    });
    b.main(main);
    b.build()
}

/// Injects one delay at the worker's first access and records every
/// unsafe-call execution window.
#[derive(Default)]
struct Probe {
    len: SimTime,
    fired: bool,
    calls: Vec<(SimTime, SimTime)>,
}

impl Monitor for Probe {
    fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
        if !self.fired
            && ctx.thread.0 != 0
            && matches!(ctx.kind, AccessKind::Use | AccessKind::UnsafeApiCall)
        {
            self.fired = true;
            return PreAction::Delay(self.len);
        }
        PreAction::Proceed
    }

    fn on_access_post(&mut self, rec: &AccessRecord) {
        if rec.kind == AccessKind::UnsafeApiCall {
            self.calls.push((rec.time, rec.time + ms(5)));
        }
    }
}

/// Figure 2: the two timing conditions. An atomicity-style thread-safety
/// violation needs the delay to fall in a window; a MemOrder order
/// violation triggers for any delay beyond the gap. The TSV column uses
/// pure execution-window overlap, the figure's definition of "executing
/// concurrently"; TSVD's trap semantics would extend the upper edge.
fn fig2() -> Table {
    let tsv = fig2_tsv();
    let mo = fig2_memorder();
    let rows = [
        0u64, 5, 10, 20, 25, 28, 29, 30, 31, 32, 35, 40, 60, 100, 200,
    ]
    .into_iter()
    .map(|delay_ms| {
        let mut probe = Probe {
            len: ms(delay_ms),
            ..Probe::default()
        };
        let _ = Simulator::run(&tsv, SimConfig::with_seed(0).deterministic(), &mut probe);
        let overlap = probe.calls.len() == 2 && {
            let (a, b) = (probe.calls[0], probe.calls[1]);
            a.0 < b.1 && b.0 < a.1
        };
        let mut probe = Probe {
            len: ms(delay_ms),
            ..Probe::default()
        };
        let rm = Simulator::run(&mo, SimConfig::with_seed(0).deterministic(), &mut probe);
        vec![
            Cell::Int(delay_ms),
            Cell::text(if overlap { "CONCURRENT" } else { "no overlap" }),
            Cell::text(if rm.manifested() {
                "NULL-REF EXCEPTION"
            } else {
                "clean"
            }),
        ]
    })
    .collect();
    Table {
        name: "fig2",
        title: "Figure 2: timing conditions (delay injected before the worker's access)".into(),
        columns: vec![
            "delay(ms)",
            "TSV (window 25-35ms)",
            "MemOrder (thresh 30ms)",
        ],
        rows,
        note: "Paper shape: the atomicity violation triggers only inside the delay window;\n\
               the order violation triggers for every delay beyond the gap.",
    }
}

/// Figure 3: Waffle's workflow, traced stage by stage on Bug-1's input:
/// preparation run (trace collection), trace analysis (candidate set S,
/// delay lengths, interference set I), detection runs, bug report.
fn fig3() -> Table {
    let w = bug_input(1);
    let row =
        |stage: &str, what: String, value: Cell| vec![Cell::text(stage), Cell::Text(what), value];
    let base = Simulator::run(&w, SimConfig::with_seed(0), &mut NullMonitor);
    let mut rec = TraceRecorder::new(&w);
    let prep = Simulator::run(&w, SimConfig::with_seed(1), &mut rec);
    let trace = rec.into_trace();
    let overhead = (prep.end_time.as_us() as f64 / base.end_time.as_us() as f64 - 1.0) * 100.0;
    let mut rows: Vec<Vec<Cell>> = [
        ("input", "base execution", Cell::Time(base.end_time)),
        ("input", "heap accesses", Cell::Int(base.instrumented_ops)),
        (
            "preparation",
            "delay-free instrumented run",
            Cell::Time(prep.end_time),
        ),
        ("preparation", "overhead", Cell::num(overhead, 0, "%")),
        (
            "preparation",
            "events recorded",
            Cell::Int(trace.events.len() as u64),
        ),
    ]
    .into_iter()
    .map(|(stage, what, value)| row(stage, what.into(), value))
    .collect();

    let plan = analyze(&trace, &AnalyzerConfig::default());
    for (what, n) in [
        ("near-misses examined", plan.stats.examined),
        ("pruned by parent-child clocks", plan.stats.pruned_ordered),
        ("candidate set S (pairs)", plan.candidates.len() as u64),
        ("delay locations", plan.delay_len.len() as u64),
        ("interference set I (pairs)", plan.interference.len() as u64),
    ] {
        rows.push(row("analysis", what.into(), Cell::Int(n)));
    }
    for c in &plan.candidates {
        let pair = format!(
            "{{{}, {}}} [{}]",
            w.sites.name(c.delay_site),
            w.sites.name(c.other_site),
            c.kind.label()
        );
        let planned = plan.delay_for(c.delay_site);
        rows.push(row(
            "candidate",
            format!("{pair} gap"),
            Cell::Time(c.max_gap),
        ));
        rows.push(row(
            "candidate",
            format!("{pair} planned delay"),
            Cell::Time(planned),
        ));
    }

    let mut decay = DecayState::default();
    for run in 1..=3u64 {
        let mut p = WafflePolicy::new(plan.clone(), decay, run);
        let r = Simulator::run(&w, SimConfig::with_seed(1 + run), &mut p);
        let stats = p.journal().counters;
        decay = p.into_decay();
        let stage = format!("detection {run}");
        for (what, n) in [
            ("injected", stats.injected),
            ("skipped (probability)", stats.skipped_probability),
            ("skipped (interference)", stats.skipped_interference),
        ] {
            rows.push(row(&stage, what.into(), Cell::Int(n)));
        }
        let verdict = if r.manifested() {
            "BUG EXPOSED"
        } else {
            "no manifestation"
        };
        rows.push(row(&stage, "outcome".into(), Cell::text(verdict)));
        if let Some(e) = r.exceptions.first() {
            let what = format!(
                "{} at {} in {}",
                e.error.kind.label(),
                w.sites.name(e.error.site),
                e.thread
            );
            rows.push(row("report", what, Cell::Time(e.time)));
            break;
        }
    }
    Table {
        name: "fig3",
        title: format!("Figure 3: the Waffle workflow on {}", w.name),
        columns: vec!["stage", "what", "value"],
        rows,
        note: "",
    }
}

/// Figure 4: the two delay-interference case studies, replayed with
/// WaffleBasic (10 runs) and Waffle (5 runs).
///
/// (a) ApplicationInsights issue #1106 (Bug-10): interfering *bugs*, a
/// use-before-init and a use-after-free candidate on the same object.
/// (b) NetMQ issue #814 (Bug-11): interfering *dynamic instances*, where
/// the check site executed by the disposing thread right before the
/// dispose cancels the delay on the racing thread's instance.
fn fig4() -> Table {
    let mut rows = Vec::new();
    for (bug_id, case) in [(10, "4a"), (11, "4b")] {
        let spec = bug(bug_id).expect("bug exists");
        let w = bug_input(bug_id);
        for (tool, name, cap) in [
            (Tool::waffle_basic(), "WaffleBasic", 10u32),
            (Tool::waffle(), "Waffle", 5),
        ] {
            let outcome = budgeted(tool, cap).detect(&w, 1);
            let (exposed, in_run, runs, delays) = match &outcome.exposed {
                Some(r) => (
                    Cell::text(format!("{} at {}", r.kind.label(), r.site)),
                    Cell::Int(r.exposed_in_run.into()),
                    Cell::Int(outcome.total_runs().into()),
                    Cell::Int(r.delays_in_run),
                ),
                None => (
                    Cell::Missing,
                    Cell::Missing,
                    Cell::Int(outcome.detection_runs.len() as u64),
                    Cell::Missing,
                ),
            };
            rows.push(vec![
                Cell::text(case),
                Cell::text(w.name.clone()),
                Cell::text(spec.issue),
                Cell::text(name),
                exposed,
                in_run,
                runs,
                delays,
            ]);
        }
    }
    Table {
        name: "fig4",
        title: "Figure 4: the two interference case studies".into(),
        columns: vec![
            "case",
            "input",
            "issue",
            "tool",
            "exposed",
            "in run",
            "runs",
            "delays in the exposing run",
        ],
        rows,
        note: "`-` under exposed: the tool missed the bug in all its runs (its delays kept\n\
               cancelling).",
    }
}

/// Figure 5's workload. The worker (Thd1) uses the victim at 40 ms. Main
/// (Thd2) touches a helper object at `lstar_ms`, idles until its 45 ms
/// timer tick, then disposes the victim at 55 ms. Delaying the victim's
/// use by 25 ms exposes the use-after-free; a concurrent 25 ms delay at
/// the helper access cancels it only if it extends past the timer tick.
fn fig5_workload(lstar_ms: u64) -> Workload {
    let mut b = WorkloadBuilder::new("fig5");
    let victim = b.object("victim");
    let helper = b.object("helper");
    let started = b.event("s");
    let tick = b.event("tick");
    let timer = b.script("timer", move |s| {
        s.wait(started).pad(ms(45)).signal(tick);
    });
    let worker = b.script("worker", move |s| {
        s.wait(started)
            .pad(ms(40))
            .use_(victim, "W.victim:2", us(50));
    });
    let main = b.script("main", move |s| {
        s.init(victim, "M.init:0", us(10))
            .init(helper, "M.init2:0", us(10))
            .fork(timer)
            .fork(worker)
            .signal(started)
            .pad(ms(lstar_ms))
            .use_(helper, "M.helper:5", us(50))
            .wait(tick)
            .pad(ms(10))
            .dispose(victim, "M.dispose:9", us(50))
            .join_children();
    });
    b.main(main);
    b.build()
}

/// Delays the victim's use by 25 ms (its gap is 15 ms) and, when `both`,
/// every other use (the interfering delay at ℓ*) by 25 ms too.
struct Fig5Delays {
    both: bool,
}

impl Monitor for Fig5Delays {
    fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
        if ctx.kind == AccessKind::Use && (ctx.obj == ObjectId(0) || self.both) {
            PreAction::Delay(ms(25))
        } else {
            PreAction::Proceed
        }
    }
}

/// Figure 5: the interference window. A delay before ℓ1 in Thread 1 is
/// cancelled by a concurrent delay at ℓ* in ℓ2's thread when ℓ* executes
/// close enough to the window that its delay pushes ℓ2; the sweep moves ℓ*.
fn fig5() -> Table {
    let rows = [0u64, 5, 10, 15, 20, 25, 30, 40, 44]
        .into_iter()
        .map(|lstar| {
            let w = fig5_workload(lstar);
            let run = |both| {
                let cfg = SimConfig::with_seed(0).deterministic();
                Simulator::run(&w, cfg, &mut Fig5Delays { both }).manifested()
            };
            vec![
                Cell::Int(lstar),
                Cell::text(if run(false) { "EXPOSED" } else { "clean" }),
                Cell::text(if run(true) { "EXPOSED" } else { "cancelled" }),
            ]
        })
        .collect();
    Table {
        name: "fig5",
        title: "Figure 5: interference window sweep (victim use at 40ms, dispose at 55ms, \
                victim delay 25ms; interfering delay 25ms at l* in the dispose thread)"
            .into(),
        columns: vec!["l*(ms)", "victim-delay only", "both delays"],
        rows,
        note: "Paper shape: an interfering delay executing shortly before or inside the\n\
               window cancels the injection; earlier ones are absorbed by idle time and\n\
               the bug is still exposed.",
    }
}

/// §3.3: the delay-overlap ratio (the complement of the ratio between
/// the time projection of all delays and the total delay injected) for
/// TSVD (TSV sites) against WaffleBasic (MemOrder sites), two runs per
/// input with run 2 measured; and the median number of dynamic instances
/// per object-initialization site.
fn overlap() -> Table {
    let rows = all_apps()
        .iter()
        .map(|app| {
            let mut tsvd_ratios = Vec::new();
            let mut basic_ratios = Vec::new();
            let mut medians = Vec::new();
            for t in &app.tests {
                let w = &t.workload;
                // TSVD, then WaffleBasic: identification run, then measured run.
                for (pairing, ratios) in [
                    (Pairing::Tsv, &mut tsvd_ratios),
                    (Pairing::MemOrder, &mut basic_ratios),
                ] {
                    let mut st = OnlineState::default();
                    for seed in [1u64, 2] {
                        let mut p = OnlinePolicy::new(pairing, st, seed);
                        let r = Simulator::run(w, SimConfig::with_seed(seed), &mut p);
                        st = p.into_state();
                        if seed == 2 && !r.delays.is_empty() {
                            ratios.push(r.delay_overlap_ratio());
                        }
                    }
                }
                // Dynamic instances of init sites (delay-free trace).
                let mut rec = TraceRecorder::new(w);
                let _ = Simulator::run(w, SimConfig::with_seed(1), &mut rec);
                let trace = rec.into_trace();
                let stats = TraceStats::compute(&trace);
                if let Some(m) = stats.median_dyn_instances(&trace, |k| k == AccessKind::Init) {
                    medians.push(m);
                }
            }
            medians.sort_unstable();
            let med = medians.get(medians.len() / 2).copied().unwrap_or(0);
            vec![
                Cell::text(app.name),
                Cell::num(avg(&tsvd_ratios) * 100.0, 1, "%"),
                Cell::num(avg(&basic_ratios) * 100.0, 1, "%"),
                Cell::Int(med),
            ]
        })
        .collect();
    Table {
        name: "overlap",
        title: "Section 3.3: delay overlap ratios (two runs per test input; run 2 measured)".into(),
        columns: vec!["App", "Tsvd overlap", "Basic overlap", "median init inst"],
        rows,
        note: "Paper shape: TSVD overlap <1%-15%; WaffleBasic overlap 2-28%; the median\n\
               number of dynamic instances for object initializations is 2.",
    }
}

/// Extension: async-local task clocks (§4.1's task note). On task-oriented
/// workloads the pool workers are forked long before the spawns, so
/// spawner→task causality is invisible to thread-level vector clocks;
/// tracking clocks through the async-local channel restores the pruning.
/// Compares candidate counts and detection-run delay cost with and
/// without it.
fn task_pruning() -> Table {
    let rows = [4u32, 8, 16, 32]
        .into_iter()
        .map(|requests| {
            let w = task_request_pipeline(&format!("bench.tasks{requests}"), requests, 3);
            let mut row = vec![Cell::Int(requests.into())];
            for async_local in [true, false] {
                let rec = TraceRecorder::new(&w);
                let rec = if async_local {
                    rec
                } else {
                    rec.without_async_local()
                };
                let plan = plan_with(&w, rec, &AnalyzerConfig::default());
                row.push(Cell::Int(plan.candidates.len() as u64));
                row.push(Cell::Time(detection_run(&w, plan).total_delay()));
            }
            row
        })
        .collect();
    Table {
        name: "task_pruning",
        title: "Extension: async-local task-clock pruning on task-oriented workloads".into(),
        columns: vec![
            "requests",
            "async-local candidates",
            "async-local delay cost",
            "thread-only candidates",
            "thread-only delay cost",
        ],
        rows,
        note: "Shape: async-local tracking prunes the spawn-ordered init→use pairs that\n\
               thread-level clocks cannot see, eliminating their detection-run delays —\n\
               the task analogue of the paper's parent-child thread analysis.",
    }
}

/// Up to `DELAY_SWEEP_RUNS` WaffleBasic runs of `w` with every delay
/// fixed at `delay`, carrying the decay state across runs and stopping at
/// the first delay-exposed manifestation. Returns the exposing run, if
/// any, and the average run slowdown over `base`.
fn fixed_delay_runs(w: &Workload, base: SimTime, delay: SimTime) -> (Option<u64>, f64) {
    let mut state = OnlineState::default();
    let mut total = SimTime::ZERO;
    let mut runs = 0u64;
    let mut exposed = None;
    for run in 1..=DELAY_SWEEP_RUNS {
        state.decay = Default::default();
        let mut p = OnlinePolicy::with_params(Pairing::MemOrder, state, run, delay);
        let r = Simulator::run(
            w,
            SimConfig {
                seed: run,
                deadline: Some(base * 40),
                ..SimConfig::default()
            },
            &mut p,
        );
        state = p.into_state();
        total += r.end_time;
        runs = run;
        if r.manifested() && !r.delays.is_empty() {
            exposed = Some(run);
            break;
        }
    }
    (
        exposed,
        total.as_us() as f64 / (runs as f64 * base.as_us() as f64),
    )
}

/// Run cap of the delay-length sweep.
const DELAY_SWEEP_RUNS: u64 = 25;

/// §4.3's delay-length sensitivity study: WaffleBasic's fixed delay
/// length swept on Bug-11's input (NetMQ), 25-run cap, and the average
/// run slowdown each length costs NetMQ's bug-free background inputs over
/// the full cap. The paper: "decreasing the delay length from 100 to 10
/// milliseconds would speed up ... NetMQ [by] about 4 times ...
/// Unfortunately, the known MemOrder bug [#814] which could be exposed
/// with delays of 100 milliseconds cannot be triggered with delays of
/// only 10 milliseconds even after many runs."
fn delay_sweep() -> Table {
    let w = bug_input(11);
    let base = base_time(&w);
    let background: Vec<(Workload, SimTime)> = all_apps()
        .into_iter()
        .find(|a| a.name == "NetMQ")
        .expect("NetMQ app exists")
        .background_tests()
        .map(|t| (t.workload.clone(), base_time(&t.workload)))
        .collect();
    let rows = [5u64, 10, 25, 50, 100, 200]
        .into_iter()
        .map(|delay_ms| {
            let (exposed, avg_slow) = fixed_delay_runs(&w, base, ms(delay_ms));
            let background_slow = background
                .iter()
                .map(|(bw, bbase)| {
                    let (exposed, slow) = fixed_delay_runs(bw, *bbase, ms(delay_ms));
                    assert!(exposed.is_none(), "bug-free {} exposed a bug", bw.name);
                    slow
                })
                .sum::<f64>()
                / background.len() as f64;
            vec![
                Cell::Int(delay_ms),
                Cell::text(if exposed.is_some() { "yes" } else { "NO" }),
                exposed.map_or(Cell::Missing, Cell::Int),
                Cell::num(avg_slow, 2, "x"),
                Cell::num(background_slow, 2, "x"),
            ]
        })
        .collect();
    Table {
        name: "delay_sweep",
        title: format!(
            "Delay-length sensitivity (WaffleBasic on NetMQ: Bug-11 input, and the mean over its \
             {} bug-free background inputs; 25-run cap)",
            background.len()
        ),
        columns: vec![
            "delay(ms)",
            "exposed?",
            "runs to expose",
            "avg run slowdown",
            "background slowdown",
        ],
        rows,
        note: "Shape: delays of 10 ms and less never flip Bug-11's ~10 ms gap in 25 runs;\n\
               25 ms and longer expose it in 2 runs. On Bug-11's 18 s input the fixed\n\
               length barely moves the run time. On NetMQ's short background inputs it\n\
               does: 4.92x per run at 10 ms against 6.48x at 100 ms, the direction of\n\
               §4.3's trade-off, but 1.3x apart where the paper reports about 4x.",
    }
}

/// Sensitivity of the near-miss window δ (fixed at 100 ms in the paper,
/// inherited from TSVD): candidates across all test inputs, and how many
/// of the 18 bug inputs still get any candidate at all.
fn delta_sweep() -> Table {
    let bug_inputs: Vec<Workload> = all_bugs().iter().map(|s| bug_input(s.id)).collect();
    let rows = [1u64, 5, 20, 50, 100, 500]
        .into_iter()
        .map(|delta_ms| {
            let cfg = AnalyzerConfig {
                delta: SimTime::from_ms(delta_ms),
                ..AnalyzerConfig::default()
            };
            let plan_cfg = |w: &Workload| plan_with(w, TraceRecorder::new(w), &cfg);
            let candidates: usize = all_apps()
                .iter()
                .flat_map(|app| &app.tests)
                .map(|t| plan_cfg(&t.workload).candidates.len())
                .sum();
            let covered = bug_inputs
                .iter()
                .filter(|w| !plan_cfg(w).candidates.is_empty())
                .count();
            vec![
                Cell::Int(delta_ms),
                Cell::Int(candidates as u64),
                Cell::Int(covered as u64),
            ]
        })
        .collect();
    Table {
        name: "delta_sweep",
        title: "Near-miss window sensitivity (candidates across all inputs; bug inputs that \
                keep at least one candidate, of 18)"
            .into(),
        columns: vec!["delta(ms)", "candidates", "bug inputs with a candidate"],
        rows,
        note: "Shape: windows shorter than a bug's racing gap leave its input without a\n\
               candidate; from 50 ms on every bug input keeps one, and wider windows only\n\
               add candidates. δ = 100 ms sits past the knee, which is why the paper\n\
               keeps TSVD's default. The coverage column counts inputs with any candidate,\n\
               not a candidate at the seeded racing site.",
    }
}

/// Pre-TSVD baselines (Table 1's left columns) against Waffle, as runs to
/// exposure (cap 50) on three bugs: one 100 ms delay per run at a sampled
/// candidate (RaceFuzzer/CTrigger-style) and unguided random sleeping
/// (DataCollider-style).
fn baselines() -> Table {
    const CAP: u32 = 50;
    let rows = [1u32, 10, 11]
        .into_iter()
        .map(|id| {
            let spec = bug(id).expect("bug exists");
            let w = bug_input(id);
            let plan = plan_with(&w, TraceRecorder::new(&w), &AnalyzerConfig::default());
            let waffle = Detector::new(Tool::waffle())
                .detect(&w, 1)
                .exposed
                .map(|r| r.total_runs);
            let single = budgeted(Tool::SingleDelay { delay: ms(100) }, CAP)
                .detect(&w, 1)
                .exposed
                .map(|r| r.total_runs);
            let random = (1..=u64::from(CAP)).find(|&run| {
                let mut p = RandomSleepPolicy::new(20, ms(100), run);
                let r = Simulator::run(&w, SimConfig::with_seed(run), &mut p);
                r.manifested() && !r.delays.is_empty()
            });
            vec![
                Cell::text(format!("Bug-{id}")),
                Cell::text(spec.test_name.clone()),
                Cell::runs(waffle),
                Cell::runs(single),
                random.map_or(Cell::Missing, Cell::Int),
                Cell::Int(plan.delay_len.len() as u64),
            ]
        })
        .collect();
    Table {
        name: "baselines",
        title: format!("Baselines: runs to exposure (cap {CAP})"),
        columns: vec![
            "bug",
            "input",
            "Waffle",
            "single-delay",
            "random-sleep",
            "delay locations",
        ],
        rows,
        note: "Sampling one delay location per run needs, in expectation, as many runs as\n\
               the plan has delay locations, which is the §4.4 argument against the naive\n\
               scheme.",
    }
}

/// Fidelity study: the paper's literal by-reference clock protocol
/// against the classical by-value protocol used for event stamping. Read
/// at event time, shared parent/descendant counters order *every*
/// ancestor event before all descendant events, including the disposals
/// that race child uses.
fn protocol() -> Table {
    let rows = all_apps()
        .iter()
        .map(|app| {
            let mut row = vec![Cell::text(app.name)];
            for protocol in [ClockProtocol::Classic, ClockProtocol::ByReference] {
                let candidates: usize = app
                    .tests
                    .iter()
                    .map(|t| protocol_plan(&t.workload, protocol).candidates.len())
                    .sum();
                row.push(Cell::Int(candidates as u64));
            }
            row
        })
        .collect();
    Table {
        name: "protocol",
        title: "Clock-protocol fidelity: candidates admitted per protocol".into(),
        columns: vec!["App", "classic (by-value)", "literal (by-ref)"],
        rows,
        note: "The by-reference protocol, read at event time, over-prunes: descendants'\n\
               clocks observe their ancestors' *current* counters, so racy parent-dispose/\n\
               child-use pairs — the very bugs Waffle targets — vanish from the plan.\n\
               The tool therefore stamps events with the classical protocol; see\n\
               DESIGN.md §9.",
    }
}

/// The plan of a preparation run stamped with `protocol`.
fn protocol_plan(w: &Workload, protocol: ClockProtocol) -> Plan {
    let rec = TraceRecorder::with_options(w, TraceRecorder::DEFAULT_OVERHEAD, protocol);
    plan_with(w, rec, &AnalyzerConfig::default())
}

/// Online TSVD (fixed 100 ms delays) until the first violation: the
/// exposing run and the delay injected up to it.
fn tsvd_runs(w: &Workload, cap: u64) -> (Option<u64>, SimTime) {
    let mut state = OnlineState::default();
    let mut total = SimTime::ZERO;
    for run in 1..=cap {
        let mut p = OnlinePolicy::new(Pairing::Tsv, state, run);
        let r = Simulator::run(w, SimConfig::with_seed(run), &mut p);
        state = p.into_state();
        total += r.total_delay();
        if !r.tsv_violations.is_empty() {
            return (Some(run), total);
        }
    }
    (None, total)
}

/// Plan-guided WaffleTSV (measured-gap delays) until the first violation;
/// the preparation run counts toward the runs.
fn waffle_tsv_runs(w: &Workload, cap: u64) -> (Option<u64>, SimTime) {
    let mut rec = TraceRecorder::new(w);
    let _ = Simulator::run(w, SimConfig::with_seed(0), &mut rec);
    let plan = analyze_tsv(&rec.into_trace(), ms(100), ms(1));
    let tables = PlanTables::compile_tsv(&plan, w.sites.len());
    let mut decay = DecayState::default();
    let mut total = SimTime::ZERO;
    for run in 1..=cap {
        let mut p = WafflePolicy::compiled(&tables, decay, run);
        let r = Simulator::run(w, SimConfig::with_seed(run), &mut p);
        decay = p.into_decay();
        total += r.total_delay();
        if !r.tsv_violations.is_empty() {
            return (Some(run + 1), total);
        }
    }
    (None, total)
}

/// One WaffleTSV table row: TSVD and WaffleTSV, 10 runs each, on `w`.
fn tsv_row(label: Cell, w: &Workload) -> Vec<Cell> {
    let (tr, td) = tsvd_runs(w, 10);
    let (wr, wd) = waffle_tsv_runs(w, 10);
    vec![
        label,
        tr.map_or(Cell::Missing, Cell::Int),
        Cell::Time(td),
        wr.map_or(Cell::Missing, Cell::Int),
        Cell::Time(wd),
    ]
}

const TSV_COLUMNS: [&str; 4] = [
    "TSVD runs",
    "TSVD delay cost",
    "WTSV runs",
    "WTSV delay cost",
];

/// Extension (§8): the preparation-run design applied back to
/// thread-safety violations. Online TSVD against plan-guided WaffleTSV on
/// the suite's thread-unsafe dictionary workloads: runs to exposure and
/// the delay injected.
fn waffle_tsv() -> Table {
    let rows = all_apps()
        .iter()
        .flat_map(|app| &app.tests)
        .filter(|t| t.workload.tsv_sites() > 0 && t.seeded_bug.is_none())
        .map(|t| tsv_row(Cell::text(t.workload.name.clone()), &t.workload))
        .collect();
    let mut columns = vec!["workload"];
    columns.extend(TSV_COLUMNS);
    Table {
        name: "waffle_tsv",
        title: "Extension: plan-guided TSV detection vs online TSVD (cap 10 runs)".into(),
        columns,
        rows,
        note: "Shape: on the suite's dictionary workloads the planned gaps add up to more\n\
               than TSVD's fixed delays, and WaffleTSV also pays a preparation run.",
    }
}

/// A two-call workload with a `gap_ms` start-to-start gap.
fn gap_workload(gap_ms: u64) -> Workload {
    let mut b = WorkloadBuilder::new(format!("wtsv.gap{gap_ms}"));
    let dict = b.object("dict");
    let started = b.event("s");
    let worker = b.script("worker", move |s| {
        s.wait(started)
            .pad(ms(1))
            .unsafe_call(dict, "Worker.Add:3", ms(1));
    });
    let main = b.script("main", move |s| {
        s.init(dict, "M.ctor:1", us(20))
            .fork(worker)
            .signal(started)
            .pad(ms(1) + ms(gap_ms))
            .unsafe_call(dict, "Main.Get:7", ms(1))
            .join_children();
    });
    b.main(main);
    b.build()
}

/// WaffleTSV's gap sweep: two racing calls, with the delay injected up
/// to exposure as the budget.
fn waffle_tsv_gaps() -> Table {
    let rows = [5u64, 20, 50, 98]
        .into_iter()
        .map(|gap| tsv_row(Cell::Int(gap), &gap_workload(gap)))
        .collect();
    let mut columns = vec!["gap(ms)"];
    columns.extend(TSV_COLUMNS);
    Table {
        name: "waffle_tsv_gaps",
        title: "Gap sweep (two racing calls; budget = total delay injected to exposure)".into(),
        columns,
        rows,
        note: "Shape: both expose the overlaps. The planned delay equals the measured gap,\n\
               so WaffleTSV's budget scales with the gap while TSVD pays its fixed 100ms\n\
               per injection regardless — the §4.3 trade-off, transported back to the\n\
               atomicity-violation timing condition.",
    }
}

/// Delays injected by one Waffle detection run over `protocol`'s plan.
fn detection_delays(w: &Workload, protocol: ClockProtocol) -> u64 {
    detection_run(w, protocol_plan(w, protocol)).delays.len() as u64
}

/// Whether Waffle over a join-aware plan exposes `spec` within 8 runs.
fn join_aware_exposes(spec: &BugSpec) -> bool {
    let w = bug_input(spec.id);
    let plan = protocol_plan(&w, ClockProtocol::ClassicWithJoins);
    let mut decay = DecayState::default();
    for run in 0..8u64 {
        let mut p = WafflePolicy::new(plan.clone(), decay, 100 + run);
        let r = Simulator::run(&w, SimConfig::with_seed(100 + run), &mut p);
        decay = p.into_decay();
        if r.manifested() && !r.delays.is_empty() {
            return true;
        }
    }
    false
}

/// Precision extension: join-edge-aware vector clocks. The paper's
/// analysis tracks fork edges only (§4.1), so teardown disposals ordered
/// behind a `join` stay in the candidate set and eat detection-run
/// delays; merging the joined thread's clock at each join prunes them.
/// Per app: candidates and detection-run delays under both protocols, and
/// the app's seeded bugs still exposed with join-aware plans.
fn join_aware() -> Table {
    let rows = all_apps()
        .iter()
        .map(|app| {
            let (fork, join) = (ClockProtocol::Classic, ClockProtocol::ClassicWithJoins);
            let sum = |f: &dyn Fn(&Workload) -> u64| -> u64 {
                app.tests.iter().map(|t| f(&t.workload)).sum()
            };
            vec![
                Cell::text(app.name),
                Cell::Int(sum(&|w| protocol_plan(w, fork).candidates.len() as u64)),
                Cell::Int(sum(&|w| protocol_plan(w, join).candidates.len() as u64)),
                Cell::Int(sum(&|w| detection_delays(w, fork))),
                Cell::Int(sum(&|w| detection_delays(w, join))),
                Cell::Int(app.bugs.len() as u64),
                Cell::Int(app.bugs.iter().filter(|b| join_aware_exposes(b)).count() as u64),
            ]
        })
        .collect();
    Table {
        name: "join_aware",
        title: "Precision extension: fork-only vs join-aware clocks".into(),
        columns: vec![
            "App",
            "cand(fork)",
            "cand(join)",
            "dly(fork)",
            "dly(join)",
            "bugs",
            "exposed(join)",
        ],
        rows,
        note: "Shape: join awareness removes the teardown candidates the paper's fork-only\n\
               analysis keeps paying for, at no cost in bug coverage.",
    }
}
