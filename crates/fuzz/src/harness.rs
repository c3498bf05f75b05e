//! Differential harness: detectors vs. the schedule oracle.
//!
//! For every generated case the harness runs the bounded oracle, a plan
//! sanity check on the preparation trace, and the four detector
//! configurations (`waffle`, `basic`, `tsvd`, `noprep`), then classifies
//! the results against the case's ground truth:
//!
//! | observation | classification |
//! |---|---|
//! | control + any tool reports a MemOrder bug | false positive |
//! | control + oracle finds a schedule | generator unsound |
//! | planted + oracle finds no schedule in bound | plant unexposable |
//! | planted + oracle exposable + `waffle` misses | false negative |
//! | exposed/oracle kind ≠ planted kind | kind mismatch |
//! | planted bug fires with no delays injected | spontaneous plant |
//! | delay plan names unknown sites or zero/absurd delays | plan insane |
//!
//! Baseline misses (`basic`/`tsvd`/`noprep` failing to expose a planted
//! bug) are *expected* — they are the paper's comparison story — and are
//! recorded as counters, not disagreements. A `waffle` exposure that needs
//! suspiciously many runs is flagged as a run-count anomaly (counter, not
//! a failure: the claim is "a handful of runs", not an exact bound).
//!
//! The fan-out over seeds is parallel but the report is deterministic:
//! [`par_map`] returns the cases in seed order, and the report carries no
//! wall-clock data, so serialized output is byte-identical at any `--jobs`.

use serde::{Deserialize, Serialize};
use waffle_analysis::{analyze_indexed, AnalyzerConfig, Plan, RepairReport};
use waffle_core::par_map;
use waffle_core::{run_seed, DetectionOutcome, Detector, DetectorConfig, Tool};
use waffle_mem::NullRefKind;
use waffle_sim::{MemoryConfig, MemoryModel, SimConfig, SimTime, Simulator, Workload};
use waffle_telemetry::MetricsRegistry;
use waffle_trace::{TraceIndex, TraceRecorder};

use crate::gen::{generate_case_for_model, FuzzCase, GroundTruth};
use crate::oracle::{explore, OracleConfig, OracleVerdict};
use crate::repair::synthesize_with_oracle;

/// Detector configurations the harness differentially tests.
pub const TOOLS: [&str; 4] = ["waffle", "basic", "tsvd", "noprep"];

/// Harness configuration (the `waffle fuzz` CLI surface).
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Number of consecutive generator seeds to run.
    pub seeds: u64,
    /// First generator seed.
    pub seed_base: u64,
    /// Worker threads for the fan-out (output-invariant).
    pub jobs: usize,
    /// Oracle preemption bound (must be ≥ 1 to mean anything).
    pub preemption_bound: u32,
    /// Detection-run cap handed to every detector.
    pub max_detection_runs: u32,
    /// Oracle state cap per workload.
    pub max_oracle_states: u64,
    /// Memory model every run (generator, oracle, detectors) simulates
    /// under. `Sc` is the historical harness, byte-for-byte.
    pub memory: MemoryModel,
    /// Sleep-set partial-order reduction and, under `Sc`, the
    /// must-happen-before certificate in the oracle (on by default;
    /// `--no-reduction` turns both off to cross-check against the naive
    /// explorer — verdicts are identical either way).
    pub reduction: bool,
    /// Synthesize an oracle-certified repair for every oracle-exposable
    /// planted case (`--repair`). Controls and unexposable plants never
    /// get one, structurally.
    pub repair: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seeds: 100,
            seed_base: 0,
            jobs: 1,
            preemption_bound: 2,
            // Busy generated shapes put several event-ordered candidate
            // pairs in the plan (only fork-ordered pairs are pruned, as in
            // the paper), so interference control + decay can need ~10
            // runs before the racy delay lands un-interfered; 8 was too
            // tight and charged budget exhaustion as a false negative
            // (see tests/corpus/s113-false-negative.json).
            max_detection_runs: 16,
            max_oracle_states: 2_000_000,
            memory: MemoryModel::Sc,
            reduction: true,
            repair: false,
        }
    }
}

/// How a case's observations contradicted its ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisagreementKind {
    /// A tool reported a MemOrder bug on a control workload.
    FalsePositive,
    /// `waffle` missed a planted bug the oracle proved exposable.
    FalseNegative,
    /// The oracle found a schedule that breaks a control (generator bug).
    ControlExposable,
    /// The oracle could not expose a planted bug within the bound.
    PlantUnexposable,
    /// An exposure (or the oracle witness) has the wrong bug class.
    KindMismatch,
    /// A planted bug manifested with no delays injected (timing margin
    /// violated — generator bug).
    SpontaneousPlant,
    /// The delay plan derived from the preparation trace is malformed.
    PlanInsane,
}

impl DisagreementKind {
    /// Stable human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            DisagreementKind::FalsePositive => "false-positive",
            DisagreementKind::FalseNegative => "false-negative",
            DisagreementKind::ControlExposable => "control-exposable",
            DisagreementKind::PlantUnexposable => "plant-unexposable",
            DisagreementKind::KindMismatch => "kind-mismatch",
            DisagreementKind::SpontaneousPlant => "spontaneous-plant",
            DisagreementKind::PlanInsane => "plan-insane",
        }
    }
}

/// One oracle/detector disagreement, attributable to a generator seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Disagreement {
    /// Generator seed of the offending workload.
    pub seed: u64,
    /// Classification.
    pub kind: DisagreementKind,
    /// Offending tool, when one is implicated.
    pub tool: Option<String>,
    /// Free-form evidence.
    pub detail: String,
}

/// Compact per-tool result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ToolOutcome {
    /// Tool name as passed to `Tool::by_name`.
    pub tool: String,
    /// Bug class exposed, when a MemOrder bug was reported.
    pub exposed_kind: Option<NullRefKind>,
    /// Detection run that exposed it.
    pub exposed_in_run: Option<u32>,
    /// Total runs used (preparation included).
    pub total_runs: u32,
    /// Whether a thread-safety violation was reported (TSVD baseline).
    pub tsv: bool,
    /// Whether a manifestation occurred with no delays injected.
    pub spontaneous: bool,
}

impl ToolOutcome {
    fn from_outcome(tool: &str, o: &DetectionOutcome) -> Self {
        Self {
            tool: tool.to_string(),
            exposed_kind: o.exposed.as_ref().map(|b| b.kind),
            exposed_in_run: o.exposed.as_ref().map(|b| b.exposed_in_run),
            total_runs: o.total_runs(),
            tsv: o.tsv_exposed.is_some(),
            spontaneous: o.spontaneous,
        }
    }
}

/// Compact oracle result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleSummary {
    /// Whether some schedule within the bound manifests a bug.
    pub exposable: bool,
    /// Bug class of the witness, when exposable.
    pub kind: Option<NullRefKind>,
    /// Whether the state cap fired before exhaustion (no clean claim).
    pub truncated: bool,
    /// Genuine frontier states visited (distinct state fingerprints; the
    /// only count charged against the state cap).
    pub states: u64,
    /// Transitions skipped by sleep-set partial-order reduction.
    pub sleep_prunes: u64,
    /// Revisits pruned by the budget-dominance memo.
    pub memo_hits: u64,
    /// The clean verdict came from the must-happen-before certificate,
    /// without a search (every count above is zero).
    #[serde(default)]
    pub static_certified: bool,
}

/// Everything the harness learned about one generated case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseReport {
    /// Generator seed.
    pub seed: u64,
    /// Workload name (`fuzz.s<seed>`).
    pub name: String,
    /// Planted ground truth.
    pub truth: GroundTruth,
    /// Oracle verdict.
    pub oracle: OracleSummary,
    /// Per-tool outcomes, in [`TOOLS`] order.
    pub tools: Vec<ToolOutcome>,
    /// `waffle` needed suspiciously many runs for a planted bug.
    pub run_count_anomaly: bool,
    /// Ground-truth contradictions found on this case.
    pub disagreements: Vec<Disagreement>,
    /// Certified-repair synthesis outcome (`--repair` on oracle-exposable
    /// planted cases only). Omitted when absent, so reports produced
    /// without `--repair` keep their historical bytes.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub repair: Option<RepairReport>,
}

/// The full differential report (deterministic; no wall-clock data).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzReport {
    /// First generator seed.
    pub seed_base: u64,
    /// Seeds run.
    pub seeds: u64,
    /// Oracle preemption bound.
    pub preemption_bound: u32,
    /// Detection-run cap.
    pub max_detection_runs: u32,
    /// Memory model the sweep ran under. Omitted under `Sc` (historical
    /// sc report bytes are pinned by the jobs-invariance tests) and read
    /// back as `Sc` when absent.
    #[serde(default, skip_serializing_if = "MemoryModel::is_sc")]
    pub memory: MemoryModel,
    /// Per-case results, in seed order.
    pub cases: Vec<CaseReport>,
    /// All disagreements, flattened in seed order.
    pub disagreements: Vec<Disagreement>,
    /// Aggregate counters (`fuzz/*`).
    pub metrics: MetricsRegistry,
}

impl FuzzReport {
    /// Serializes the report (the `--json` output).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let controls = self
            .cases
            .iter()
            .filter(|c| c.truth == GroundTruth::Control)
            .count();
        let planted = self.cases.len() - controls;
        // A report parsed from JSON may name any block: one that ends at
        // `u64::MAX` has no exclusive end, and one past it is flagged.
        let base = self.seed_base;
        let seeds = match base.checked_add(self.seeds) {
            Some(end) => format!("{base}..{end}"),
            None => match base.checked_add(self.seeds - 1) {
                Some(last) => format!("{base}..={last}"),
                None => format!("{base} + {} (past {})", self.seeds, u64::MAX),
            },
        };
        let _ = writeln!(
            out,
            "fuzz: {} workloads ({controls} control, {planted} planted) \
             at preemption bound {}, seeds {seeds}",
            self.cases.len(),
            self.preemption_bound,
        );
        // Memory-model provenance (the JSON always carried it via the
        // per-case plans; weak-model sweeps must be distinguishable in
        // text too). Sc stays silent: historical render bytes are pinned.
        if !self.memory.is_sc() {
            let _ = writeln!(out, "memory model: {}", self.memory.name());
        }
        let _ = writeln!(
            out,
            "oracle: {} exposable, {} truncated, {} states explored",
            self.metrics.counter("fuzz/oracle_exposable"),
            self.metrics.counter("fuzz/oracle_truncated"),
            self.metrics.counter("fuzz/oracle_states"),
        );
        let _ = writeln!(
            out,
            "oracle reduction: {} sleep-set prunes, {} memo hits, \
             {} certified by must-happen-before order",
            self.metrics.counter("oracle/sleep_prunes"),
            self.metrics.counter("oracle/memo_hits"),
            self.metrics.counter("oracle/static_certified"),
        );
        for tool in TOOLS {
            let _ = writeln!(
                out,
                "{tool}: exposed {}/{planted} planted bugs",
                self.metrics.counter(&format!("fuzz/exposed/{tool}")),
            );
        }
        let _ = writeln!(
            out,
            "run-count anomalies: {}",
            self.metrics.counter("fuzz/run_anomalies")
        );
        let attempted = self.metrics.counter("repair/attempted");
        if attempted > 0 {
            let _ = writeln!(
                out,
                "repairs: {}/{attempted} certified ({} fence, {} event-edge, {} lock), \
                 {} unrepairable, {} candidates tried",
                self.metrics.counter("repair/certified"),
                self.metrics.counter("repair/fence"),
                self.metrics.counter("repair/event_edge"),
                self.metrics.counter("repair/lock"),
                self.metrics.counter("repair/unrepairable"),
                self.metrics.counter("repair/candidates_tried"),
            );
        }
        let truncated_skips = self.metrics.counter("fuzz/truncated_skips");
        if truncated_skips > 0 {
            let _ = writeln!(
                out,
                "warning: {truncated_skips} planted case(s) hit the oracle state cap — \
                 unexposability unchecked there; raise --max-oracle-states for a clean claim"
            );
        }
        if self.disagreements.is_empty() {
            let _ = writeln!(out, "disagreements: none");
        } else {
            let _ = writeln!(out, "disagreements: {}", self.disagreements.len());
            for d in &self.disagreements {
                let _ = writeln!(
                    out,
                    "  seed {} [{}]{}: {}",
                    d.seed,
                    d.kind.label(),
                    d.tool
                        .as_deref()
                        .map(|t| format!(" {t}"))
                        .unwrap_or_default(),
                    d.detail
                );
            }
        }
        out
    }
}

/// A minimized disagreement persisted under `tests/corpus/` and replayed
/// by tier-1 forever. Unknown keys are an error, so a repair case
/// ([`RepairCorpusCase`](crate::RepairCorpusCase)) filed here fails to
/// parse instead of losing its `expected` outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CorpusCase {
    /// Where the case came from (e.g. the disagreement it reproduced).
    pub label: String,
    /// Oracle bound the case was classified under.
    pub preemption_bound: u32,
    /// Memory model the case was classified under (`Sc` for every corpus
    /// entry minted before weak-memory support). Omitted under `Sc` and
    /// read back as `Sc` when absent, so those files parse and re-save
    /// byte-identically.
    #[serde(default, skip_serializing_if = "MemoryModel::is_sc")]
    pub memory: MemoryModel,
    /// The (shrunken) workload plus ground truth.
    pub case: FuzzCase,
}

impl CorpusCase {
    /// Serializes the corpus entry.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a corpus entry.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Re-classifies the stored case; a regression reintroduces the
    /// disagreement and returns it here.
    pub fn replay(&self) -> Vec<Disagreement> {
        let cfg = FuzzConfig {
            preemption_bound: self.preemption_bound,
            memory: self.memory,
            ..FuzzConfig::default()
        };
        classify_case(&self.case, &cfg).disagreements
    }
}

/// Derives the delay plan from a delay-free recorded trace of `workload`
/// — the exact preparation-run recipe the detectors use (seed
/// `run_seed(attempt_seed, 1)`), so plan sanity and repair synthesis see
/// the same racing-pair evidence delay injection targets.
pub fn derive_plan(workload: &Workload, attempt_seed: u64, memory: MemoryModel) -> Plan {
    let mut rec = TraceRecorder::new(workload);
    let cfg = SimConfig::with_seed(run_seed(attempt_seed, 1))
        .with_memory(MemoryConfig::from_model(memory));
    let _ = Simulator::run(workload, cfg, &mut rec);
    let trace = rec.into_trace();
    let index = TraceIndex::build(&trace);
    let analyzer = AnalyzerConfig::default().with_memory(memory);
    analyze_indexed(&index, &analyzer, 1)
}

/// Checks the derived delay plan: every planned site must exist in the
/// workload's registry with a positive, sane delay length.
fn plan_sanity(workload: &Workload, plan: &Plan) -> Option<String> {
    // α ≈ 1.15 on a gap < δ keeps every delay under 2δ.
    let ceiling = SimTime::from_us(plan.delta.as_us() * 2);
    for site in plan.delay_sites() {
        if site.0 as usize >= workload.sites.len() {
            return Some(format!("plan names unregistered site id {}", site.0));
        }
        let d = plan.delay_for(site);
        if d == SimTime::ZERO {
            return Some(format!(
                "plan assigns zero delay at {}",
                workload.sites.name(site)
            ));
        }
        if d > ceiling {
            return Some(format!(
                "plan delay {d} at {} exceeds 2δ",
                workload.sites.name(site)
            ));
        }
    }
    None
}

/// Runs the oracle, plan sanity, and all detectors on one case and
/// classifies the observations against the ground truth.
pub fn classify_case(case: &FuzzCase, cfg: &FuzzConfig) -> CaseReport {
    let w = &case.workload;
    let attempt_seed = 1u64;
    let oracle_rep = explore(
        w,
        &OracleConfig {
            preemption_bound: cfg.preemption_bound,
            max_states: cfg.max_oracle_states,
            memory: cfg.memory,
            reduce: cfg.reduction,
        },
    );
    let (oracle_kind, oracle_obj, truncated) = match oracle_rep.verdict {
        OracleVerdict::Exposable { kind, obj, .. } => (Some(kind), Some(obj), false),
        OracleVerdict::CleanWithinBound => (None, None, false),
        OracleVerdict::Truncated => (None, None, true),
    };

    let detector_cfg = DetectorConfig {
        max_detection_runs: cfg.max_detection_runs,
        memory: MemoryConfig::from_model(cfg.memory),
        ..DetectorConfig::default()
    };
    // Waffle's preparation run is the one `derive_plan` describes, so its
    // plan is the case's plan: analyzed once, not twice.
    let mut plan = None;
    let outcomes: Vec<(&str, DetectionOutcome)> = TOOLS
        .iter()
        .map(|&name| {
            let tool = Tool::by_name(name).expect("known tool name");
            let detector = Detector::with_config(tool, detector_cfg.clone());
            let (outcome, prep_plan) = detector.detect_with_plan(w, attempt_seed);
            if name == "waffle" {
                plan = prep_plan;
            }
            (name, outcome)
        })
        .collect();
    let plan = plan.expect("waffle's preparation run yields a plan");
    let mut disagreements = Vec::new();
    if let Some(detail) = plan_sanity(w, &plan) {
        disagreements.push(Disagreement {
            seed: case.seed,
            kind: DisagreementKind::PlanInsane,
            tool: None,
            detail,
        });
    }
    let tools: Vec<ToolOutcome> = outcomes
        .iter()
        .map(|(name, o)| ToolOutcome::from_outcome(name, o))
        .collect();
    let waffle = &outcomes[0].1;

    let mut run_count_anomaly = false;
    match case.truth {
        GroundTruth::Control => {
            if let Some(kind) = oracle_kind {
                disagreements.push(Disagreement {
                    seed: case.seed,
                    kind: DisagreementKind::ControlExposable,
                    tool: None,
                    detail: format!("oracle exposed {} on a control workload", kind.label()),
                });
            }
            for (name, o) in &outcomes {
                if let Some(bug) = &o.exposed {
                    disagreements.push(Disagreement {
                        seed: case.seed,
                        kind: DisagreementKind::FalsePositive,
                        tool: Some(name.to_string()),
                        detail: format!(
                            "reported {} at {} on a control workload",
                            bug.kind.label(),
                            bug.site
                        ),
                    });
                }
                if o.spontaneous {
                    disagreements.push(Disagreement {
                        seed: case.seed,
                        kind: DisagreementKind::ControlExposable,
                        tool: Some(name.to_string()),
                        detail: "spontaneous manifestation on a control workload".into(),
                    });
                }
            }
        }
        GroundTruth::Planted { kind, .. } => {
            for (name, o) in &outcomes {
                if o.spontaneous {
                    disagreements.push(Disagreement {
                        seed: case.seed,
                        kind: DisagreementKind::SpontaneousPlant,
                        tool: Some(name.to_string()),
                        detail: "planted bug fired with no delays injected".into(),
                    });
                }
            }
            match oracle_kind {
                None if !truncated => disagreements.push(Disagreement {
                    seed: case.seed,
                    kind: DisagreementKind::PlantUnexposable,
                    tool: None,
                    detail: format!(
                        "oracle found no schedule for the planted {} within bound {}",
                        kind.label(),
                        cfg.preemption_bound
                    ),
                }),
                Some(k) if k != kind => disagreements.push(Disagreement {
                    seed: case.seed,
                    kind: DisagreementKind::KindMismatch,
                    tool: None,
                    detail: format!("oracle witness is {}, planted {}", k.label(), kind.label()),
                }),
                _ => {}
            }
            match &waffle.exposed {
                Some(bug) => {
                    if bug.kind != kind {
                        disagreements.push(Disagreement {
                            seed: case.seed,
                            kind: DisagreementKind::KindMismatch,
                            tool: Some("waffle".into()),
                            detail: format!(
                                "exposed {}, planted {}",
                                bug.kind.label(),
                                kind.label()
                            ),
                        });
                    }
                    // Paper claim: preparation + a handful of detection
                    // runs. Needing more than 4 detection runs on these
                    // small planted shapes is worth counting.
                    run_count_anomaly = bug.exposed_in_run > 4;
                }
                None => {
                    if oracle_kind.is_some() {
                        disagreements.push(Disagreement {
                            seed: case.seed,
                            kind: DisagreementKind::FalseNegative,
                            tool: Some("waffle".into()),
                            detail: format!(
                                "oracle-exposable {} missed in {} runs",
                                kind.label(),
                                waffle.total_runs()
                            ),
                        });
                    }
                }
            }
        }
    }

    // Repair synthesis: only for planted cases the oracle proved
    // exposable — a control (or an unexposable plant) structurally never
    // gets a repair report, which is exactly what the CI gate asserts.
    let repair = match (cfg.repair, case.truth, oracle_kind, oracle_obj) {
        (true, GroundTruth::Planted { .. }, Some(kind), Some(obj)) => Some(synthesize_with_oracle(
            w,
            &plan,
            kind,
            obj,
            &OracleConfig {
                preemption_bound: cfg.preemption_bound,
                max_states: cfg.max_oracle_states,
                memory: cfg.memory,
                reduce: cfg.reduction,
            },
        )),
        _ => None,
    };

    CaseReport {
        seed: case.seed,
        name: w.name.clone(),
        truth: case.truth,
        oracle: OracleSummary {
            exposable: oracle_kind.is_some(),
            kind: oracle_kind,
            truncated,
            states: oracle_rep.states_explored,
            sleep_prunes: oracle_rep.sleep_prunes,
            memo_hits: oracle_rep.memo_hits,
            static_certified: oracle_rep.static_certified,
        },
        tools,
        run_count_anomaly,
        disagreements,
        repair,
    }
}

/// Generates and classifies one seed.
pub fn run_case(seed: u64, cfg: &FuzzConfig) -> CaseReport {
    classify_case(&generate_case_for_model(seed, cfg.memory), cfg)
}

/// Runs the whole seed block, fanning out across `cfg.jobs` workers, and
/// aggregates the deterministic report.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let cases = map_seeds(cfg, |seed| run_case(seed, cfg));

    let mut metrics = MetricsRegistry::new();
    let mut disagreements = Vec::new();
    for case in &cases {
        metrics.inc("fuzz/workloads", 1);
        metrics.inc(
            if case.truth == GroundTruth::Control {
                "fuzz/controls"
            } else {
                "fuzz/planted"
            },
            1,
        );
        metrics.inc("fuzz/oracle_states", case.oracle.states);
        metrics.inc("fuzz/oracle_exposable", case.oracle.exposable as u64);
        metrics.inc("fuzz/oracle_truncated", case.oracle.truncated as u64);
        // Oracle exploration economics (`oracle/*`): frontier states vs
        // what the reducer and the memo pruned away.
        metrics.inc("oracle/states", case.oracle.states);
        metrics.inc("oracle/sleep_prunes", case.oracle.sleep_prunes);
        metrics.inc("oracle/memo_hits", case.oracle.memo_hits);
        metrics.inc(
            "oracle/static_certified",
            u64::from(case.oracle.static_certified),
        );
        // A truncated oracle on a planted case proved nothing either way:
        // the unexposability check was *skipped*, not passed. Count those
        // skips separately so a sweep can't quietly launder a too-small
        // state budget into "all plants confirmed". The key is only
        // created when it fires, keeping historical report bytes intact.
        if case.oracle.truncated && case.truth != GroundTruth::Control {
            metrics.inc("fuzz/truncated_skips", 1);
        }
        metrics.inc("fuzz/run_anomalies", case.run_count_anomaly as u64);
        metrics.inc("fuzz/disagreements", case.disagreements.len() as u64);
        for t in &case.tools {
            if t.exposed_kind.is_some() {
                metrics.inc(&format!("fuzz/exposed/{}", t.tool), 1);
            }
        }
        // Repair counters exist only when `--repair` produced reports, so
        // non-repair sweeps keep their historical metric bytes. An
        // uncertified-patch counter is deliberately absent: a report's
        // `patch` field is `Some` only after oracle certification, so the
        // split is exactly certified vs unrepairable.
        if let Some(r) = &case.repair {
            metrics.inc("repair/attempted", 1);
            metrics.inc("repair/candidates_tried", u64::from(r.candidates_tried));
            match r.repair_kind() {
                Some(kind) => {
                    metrics.inc("repair/certified", 1);
                    metrics.inc(
                        match kind {
                            waffle_sim::RepairKind::Fence => "repair/fence",
                            waffle_sim::RepairKind::EventEdge => "repair/event_edge",
                            waffle_sim::RepairKind::LockScope => "repair/lock",
                        },
                        1,
                    );
                }
                None => metrics.inc("repair/unrepairable", 1),
            }
        }
        disagreements.extend(case.disagreements.iter().cloned());
    }

    FuzzReport {
        seed_base: cfg.seed_base,
        seeds: cfg.seeds,
        preemption_bound: cfg.preemption_bound,
        max_detection_runs: cfg.max_detection_runs,
        memory: cfg.memory,
        cases,
        disagreements,
        metrics,
    }
}

/// Runs `case` on every seed of the block over `cfg.jobs` workers and
/// returns the results in seed order. A panicking case re-panics naming
/// its index and seed; a block whose last seed would pass `u64::MAX`
/// panics before any case runs.
fn map_seeds<R: Send>(cfg: &FuzzConfig, case: impl Fn(u64) -> R + Sync) -> Vec<R> {
    cfg.seed_base
        .checked_add(cfg.seeds.saturating_sub(1))
        .expect("the seed block ends at or before u64::MAX");
    let seed = |i: usize| cfg.seed_base + i as u64;
    let n = usize::try_from(cfg.seeds).expect("the seed count fits in memory");
    par_map(n, cfg.jobs, |i| case(seed(i)))
        .unwrap_or_else(|(i, msg)| panic!("fuzz case {i} (seed {}) panicked: {msg}", seed(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;

    #[test]
    fn small_block_has_no_disagreements_and_is_jobs_invariant() {
        let cfg = FuzzConfig {
            seeds: 6,
            jobs: 1,
            ..FuzzConfig::default()
        };
        let serial = run_fuzz(&cfg);
        assert!(serial.disagreements.is_empty(), "{}", serial.render());
        let parallel = run_fuzz(&FuzzConfig { jobs: 4, ..cfg });
        assert_eq!(
            serial.to_json().unwrap(),
            parallel.to_json().unwrap(),
            "report must be byte-identical at any job count"
        );
    }

    /// A panicking case surfaces with both its index in the block and its
    /// generator seed, at any job count.
    #[test]
    fn a_panicking_case_names_its_index_and_seed() {
        for jobs in [1, 4] {
            let cfg = FuzzConfig {
                seeds: 6,
                seed_base: 100,
                jobs,
                ..FuzzConfig::default()
            };
            let caught = std::panic::catch_unwind(|| {
                map_seeds(&cfg, |seed| assert_ne!(seed, 103, "generator fault"))
            })
            .expect_err("the panic must propagate");
            let msg = caught.downcast_ref::<String>().expect("formatted message");
            assert!(msg.starts_with("fuzz case 3 (seed 103) panicked:"), "{msg}");
            assert!(msg.contains("generator fault"), "{msg}");
        }
    }

    /// The seed range renders without overflow for any block a JSON
    /// report can name.
    #[test]
    fn render_names_seed_blocks_up_to_and_past_the_last_seed() {
        let report = |seed_base, seeds| FuzzReport {
            seed_base,
            seeds,
            preemption_bound: 3,
            max_detection_runs: 16,
            memory: MemoryModel::Sc,
            cases: Vec::new(),
            disagreements: Vec::new(),
            metrics: MetricsRegistry::new(),
        };
        let max = u64::MAX;
        for (base, seeds, range) in [
            (100, 6, "seeds 100..106\n".to_string()),
            (max, 0, format!("seeds {max}..{max}\n")),
            (max, 1, format!("seeds {max}..={max}\n")),
            (max - 1, 2, format!("seeds {}..={max}\n", max - 1)),
            (max, 2, format!("seeds {max} + 2 (past {max})\n")),
        ] {
            let text = report(base, seeds).render();
            assert!(text.contains(&range), "{base}+{seeds}: {text}");
        }
    }

    #[test]
    fn map_seeds_rejects_a_block_past_the_last_seed() {
        let cfg = FuzzConfig {
            seeds: 2,
            seed_base: u64::MAX,
            ..FuzzConfig::default()
        };
        let caught = std::panic::catch_unwind(|| map_seeds(&cfg, |seed| seed))
            .expect_err("the block must be refused");
        let msg = caught.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("u64::MAX"), "{msg}");
        let last = FuzzConfig { seeds: 1, ..cfg };
        assert_eq!(map_seeds(&last, |seed| seed), vec![u64::MAX]);
    }

    /// Top-level keys of a serialized report.
    fn keys(json: &str) -> Vec<String> {
        let v: serde_json::Value = serde_json::from_str(json).unwrap();
        v.as_map().unwrap().iter().map(|(k, _)| k.clone()).collect()
    }

    /// `memory` is left out of `Sc` sweep reports and read back as `Sc`
    /// when absent; any other model is written and round-trips.
    #[test]
    fn fuzz_report_omits_sc_memory_and_reads_its_absence_as_sc() {
        let cfg = FuzzConfig {
            seeds: 1,
            seed_base: 3,
            ..FuzzConfig::default()
        };
        let sc = run_fuzz(&cfg);
        let sc_json = sc.to_json().unwrap();
        assert!(!keys(&sc_json).contains(&"memory".to_string()), "{sc_json}");
        let legacy: FuzzReport = serde_json::from_str(&sc_json).unwrap();
        assert_eq!(legacy.memory, MemoryModel::Sc);
        assert_eq!(legacy.to_json().unwrap(), sc_json);

        let tso = FuzzReport {
            memory: MemoryModel::Tso,
            ..sc
        };
        let json = tso.to_json().unwrap();
        assert_eq!(
            keys(&json),
            [
                "seed_base",
                "seeds",
                "preemption_bound",
                "max_detection_runs",
                "memory",
                "cases",
                "disagreements",
                "metrics"
            ]
        );
        let back: FuzzReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.memory, MemoryModel::Tso);
        assert_eq!(back.to_json().unwrap(), json);
    }

    /// `repair` is left out of a case report that has none (every report
    /// made without `--repair`) and read back as `None` when absent.
    #[test]
    fn case_report_omits_absent_repair_and_reads_its_absence_as_none() {
        let case = run_case(3, &FuzzConfig::default());
        assert!(case.repair.is_none());
        let json = serde_json::to_string_pretty(&case).unwrap();
        assert!(!keys(&json).contains(&"repair".to_string()), "{json}");
        let legacy: CaseReport = serde_json::from_str(&json).unwrap();
        assert!(legacy.repair.is_none());
        assert_eq!(serde_json::to_string_pretty(&legacy).unwrap(), json);

        let repair = RepairReport {
            workload: case.name.clone(),
            kind: NullRefKind::UseAfterFree,
            obj: waffle_mem::ObjectId(1),
            memory_model: MemoryModel::Sc,
            preemption_bound: 2,
            candidates_tried: 4,
            patch: None,
            description: None,
            certified_states: 0,
        };
        let repaired = CaseReport {
            repair: Some(repair.clone()),
            ..case
        };
        let json = serde_json::to_string_pretty(&repaired).unwrap();
        assert_eq!(keys(&json).last().map(String::as_str), Some("repair"));
        let back: CaseReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.repair, Some(repair));
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }

    #[test]
    fn corpus_round_trip_preserves_replay_verdict() {
        let case = generate_case(3);
        let entry = CorpusCase {
            label: "unit-test".into(),
            preemption_bound: 2,
            memory: MemoryModel::Sc,
            case,
        };
        let json = entry.to_json().unwrap();
        assert!(
            !json.contains("\"memory\""),
            "Sc corpus entries must serialize without a memory field"
        );
        let back = CorpusCase::from_json(&json).unwrap();
        assert_eq!(back.memory, MemoryModel::Sc);
        assert_eq!(back.replay().len(), entry.replay().len());
    }

    /// End-to-end weak-memory differential: under `tso`/`pso` the whole
    /// machinery — generator, oracle drain choices, store-buffer engine,
    /// trace analysis, delay injection — agrees with the planted ground
    /// truth, and `waffle` exposes reordering bugs no SC run can see.
    #[test]
    fn weak_memory_sweep_has_no_disagreements() {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let cfg = FuzzConfig {
                seeds: 8,
                memory: model,
                ..FuzzConfig::default()
            };
            let report = run_fuzz(&cfg);
            assert!(
                report.disagreements.is_empty(),
                "{model}:\n{}",
                report.render()
            );
            assert!(
                report.metrics.counter("fuzz/exposed/waffle") > 0,
                "{model}: waffle must expose at least one planted reordering bug\n{}",
                report.render()
            );
        }
    }

    /// A truncated oracle proves nothing: planted cases whose
    /// unexposability check was cut short must surface as counted skips,
    /// never as `plant-unexposable` (or any other) disagreements.
    #[test]
    fn oracle_truncation_is_a_skip_not_a_disagreement() {
        let cfg = FuzzConfig {
            seeds: 12,            // seeds 0..12 hold 4 planted cases
            max_oracle_states: 1, // force Truncated on every case
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        let planted = report.metrics.counter("fuzz/planted");
        assert!(planted > 0, "seed block must contain planted cases");
        assert_eq!(
            report.metrics.counter("fuzz/truncated_skips"),
            planted,
            "every truncated planted case must be counted as a skip"
        );
        for d in &report.disagreements {
            assert_ne!(
                d.kind,
                DisagreementKind::PlantUnexposable,
                "truncation must never be read as confirmed unexposable: {}",
                d.detail
            );
            assert_ne!(
                d.kind,
                DisagreementKind::FalseNegative,
                "an unproven oracle claim must not indict the detector: {}",
                d.detail
            );
        }
        assert!(
            report.render().contains("warning:"),
            "render must warn about skipped unexposability checks"
        );
    }
}
