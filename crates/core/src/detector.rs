//! The detection loop for every tool in the comparison matrix.

use std::collections::BTreeSet;

use waffle_analysis::{analyze_indexed, AnalyzerConfig, Plan, PlanTables};
use waffle_inject::{
    DecayState, OnlinePolicy, OnlineState, Pairing, SingleDelayPolicy, WafflePolicy,
};
use waffle_mem::SiteId;
use waffle_sim::{MemoryConfig, NullMonitor, RunResult, SimConfig, SimTime, Simulator, Workload};
use waffle_trace::{Trace, TraceIndex, TraceRecorder};

use crate::report::{BugReport, DetectionOutcome, RunSummary, TsvReport};
use crate::storage::Session;

/// The seed of run `run` of attempt `attempt_seed`: run 0 is the base
/// run, and preparation and detection runs follow. Wraps rather than
/// overflows, so every `u64` attempt seed is valid.
pub fn run_seed(attempt_seed: u64, run: u64) -> u64 {
    attempt_seed.wrapping_mul(10_000).wrapping_add(run)
}

/// Which tool drives the detection runs.
#[derive(Debug, Clone)]
pub enum Tool {
    /// Waffle (§4): preparation run + plan-guided detection runs.
    Waffle {
        /// Trace-analysis configuration (ablations toggle its fields).
        analyzer: AnalyzerConfig,
    },
    /// WaffleBasic (§3): online identification, fixed 100 ms delays, no
    /// coordination.
    WaffleBasic,
    /// The "no preparation run" ablation (Table 7 row 2).
    NoPrep,
    /// One sampled delay per run (RaceFuzzer/CTrigger-style baseline). The
    /// sample set comes from a preparation-run plan.
    SingleDelay {
        /// Delay length per injection.
        delay: SimTime,
    },
    /// TSVD (§2): online thread-safety-violation detection. The outcome's
    /// `tsv_exposed` field reports the violation instead of a MemOrder
    /// report.
    Tsvd,
}

impl Tool {
    /// Full Waffle with the paper's defaults.
    pub fn waffle() -> Self {
        Tool::Waffle {
            analyzer: AnalyzerConfig::default(),
        }
    }

    /// WaffleBasic with the paper's 100 ms fixed delay.
    pub fn waffle_basic() -> Self {
        Tool::WaffleBasic
    }

    /// Table 7 row 1: Waffle without parent-child analysis.
    pub fn waffle_no_parent_child() -> Self {
        Tool::Waffle {
            analyzer: AnalyzerConfig::default().without_parent_child(),
        }
    }

    /// Table 7 row 2: Waffle without a preparation run.
    pub fn waffle_no_prep() -> Self {
        Tool::NoPrep
    }

    /// Table 7 row 3: Waffle without custom delay lengths (fixed 100 ms).
    pub fn waffle_fixed_delay() -> Self {
        Tool::Waffle {
            analyzer: AnalyzerConfig::default().without_variable_delay(),
        }
    }

    /// Table 7 row 4: Waffle without interference control. The analyzer
    /// leaves `I` empty, so no detection run skips a delay for it.
    pub fn waffle_no_interference() -> Self {
        Tool::Waffle {
            analyzer: AnalyzerConfig::default().without_interference_control(),
        }
    }

    /// Resolves a tool from its CLI / campaign-manifest spelling. This is
    /// the inverse the campaign manifest relies on: cells persist the tool
    /// as a string, and a resuming process reconstructs the detector from
    /// it.
    pub fn by_name(name: &str) -> Option<Tool> {
        Some(match name {
            "waffle" => Tool::waffle(),
            "basic" | "waffle-basic" => Tool::waffle_basic(),
            "tsvd" => Tool::Tsvd,
            "noprep" | "no-prep" | "waffle-noprep" => Tool::waffle_no_prep(),
            "no-parent-child" => Tool::waffle_no_parent_child(),
            "fixed-delay" => Tool::waffle_fixed_delay(),
            "no-interference" => Tool::waffle_no_interference(),
            _ => return None,
        })
    }

    /// Short display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Tool::Waffle { .. } => "waffle",
            Tool::WaffleBasic => "waffle-basic",
            Tool::NoPrep => "waffle-noprep",
            Tool::SingleDelay { .. } => "single-delay",
            Tool::Tsvd => "tsvd",
        }
    }
}

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Maximum detection runs before giving up (50 in §6.2).
    pub max_detection_runs: u32,
    /// Per-operation timing noise (percent), the run-to-run variation.
    pub timing_noise_pct: u32,
    /// A run is killed after `deadline_factor × base_time` (the Table 5/6
    /// "TimeOut" condition; 40× by default so that NpgSQL-density delay
    /// floods complete while MQTT.Net-density floods time out, as in the
    /// paper). Zero disables deadlines.
    pub deadline_factor: u64,
    /// Record per-decision telemetry events in each run's journal
    /// (counters are always on; the event log is opt-in because it
    /// allocates per decision).
    pub telemetry_events: bool,
    /// Fault injection for crash-safety tests: [`detect`](Detector::detect)
    /// panics when called with exactly this attempt seed. Stands in for a
    /// detection process crashing mid-run (the failure mode the paper's
    /// process-per-run model isolates, §5); `None` (the default) disables
    /// it.
    pub panic_on_seed: Option<u64>,
    /// Memory model every run (base, preparation, detection) simulates.
    /// The default is sequential consistency — byte-identical to the
    /// pre-weak-memory detector; `tso`/`pso` put a store buffer under each
    /// thread, which is where reordering bugs live.
    pub memory: MemoryConfig,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            max_detection_runs: 50,
            timing_noise_pct: 3,
            deadline_factor: 40,
            telemetry_events: false,
            panic_on_seed: None,
            memory: MemoryConfig::sc(),
        }
    }
}

/// One tool's state across the detection runs of an attempt: what each
/// run's policy is built from, and what the run hands on to the next.
enum RunState {
    /// The plan is compiled once per attempt; every run borrows it.
    Waffle {
        tables: PlanTables,
        decay: DecayState,
    },
    /// The state each run hands on, and how a run's policy is built from it.
    Online(OnlineState, fn(OnlineState, u64) -> OnlinePolicy),
    Single {
        targets: Vec<SiteId>,
        delay: SimTime,
    },
}

/// Runs a tool's full workflow on one workload.
#[derive(Debug, Clone)]
pub struct Detector {
    tool: Tool,
    config: DetectorConfig,
}

impl Detector {
    /// Creates a detector with default configuration.
    pub fn new(tool: Tool) -> Self {
        Self {
            tool,
            config: DetectorConfig::default(),
        }
    }

    /// Creates a detector with an explicit configuration.
    pub fn with_config(tool: Tool, config: DetectorConfig) -> Self {
        Self { tool, config }
    }

    /// The tool being driven.
    pub fn tool(&self) -> &Tool {
        &self.tool
    }

    fn sim_config(&self, seed: u64, base: SimTime) -> SimConfig {
        let deadline = if self.config.deadline_factor == 0 || base == SimTime::ZERO {
            None
        } else {
            Some(base * self.config.deadline_factor)
        };
        SimConfig {
            seed,
            timing_noise_pct: self.config.timing_noise_pct,
            deadline,
            memory: self.config.memory,
        }
    }

    /// Executes the full workflow: base measurement, optional preparation
    /// run, then detection runs until a bug manifests or the budget runs
    /// out. `attempt_seed` individualizes the attempt (the paper repeats
    /// each experiment 15 times).
    pub fn detect(&self, workload: &Workload, attempt_seed: u64) -> DetectionOutcome {
        self.run_attempt(workload, attempt_seed, false).0
    }

    /// [`Detector::detect`], also handing back the delay plan analyzed
    /// from the preparation run, for the tools that make one (`None` for
    /// the online tools).
    pub fn detect_with_plan(
        &self,
        workload: &Workload,
        attempt_seed: u64,
    ) -> (DetectionOutcome, Option<Plan>) {
        self.run_attempt(workload, attempt_seed, true)
    }

    /// One attempt; the plan is kept for the caller only on request, so
    /// a plain `detect` frees it before the detection runs.
    fn run_attempt(
        &self,
        workload: &Workload,
        attempt_seed: u64,
        keep_plan: bool,
    ) -> (DetectionOutcome, Option<Plan>) {
        if self.config.panic_on_seed == Some(attempt_seed) {
            panic!(
                "fault injection: detector panicked on attempt seed {attempt_seed} ({})",
                workload.name
            );
        }
        let mut outcome = self.base_run(workload, run_seed(attempt_seed, 0));
        let prep_seed = run_seed(attempt_seed, 1);
        let mut prep_plan = None;
        let mut state = match &self.tool {
            Tool::Waffle { analyzer } => {
                let (_, plan) = self.prepare(workload, prep_seed, &mut outcome, analyzer);
                let tables = PlanTables::compile(&plan, workload.sites.len());
                prep_plan = keep_plan.then_some(plan);
                RunState::Waffle {
                    tables,
                    decay: DecayState::default(),
                }
            }
            Tool::WaffleBasic => RunState::Online(OnlineState::default(), |mut state, seed| {
                // WaffleBasic keeps its candidate set `S` across runs but
                // restarts injection probabilities at 100% each run; TSVD
                // and NoPrep keep both. (Waffle is the design that saves
                // probabilities to disk between runs, §5.)
                state.decay = DecayState::default();
                OnlinePolicy::new(Pairing::MemOrder, state, seed)
            }),
            Tool::Tsvd => RunState::Online(OnlineState::default(), |state, seed| {
                OnlinePolicy::new(Pairing::Tsv, state, seed)
            }),
            Tool::NoPrep => RunState::Online(OnlineState::default(), OnlinePolicy::no_prep),
            Tool::SingleDelay { delay } => {
                let analyzer = AnalyzerConfig::default();
                let (_, plan) = self.prepare(workload, prep_seed, &mut outcome, &analyzer);
                let targets = plan.delay_sites().collect();
                prep_plan = keep_plan.then_some(plan);
                RunState::Single {
                    targets,
                    delay: *delay,
                }
            }
        };
        // Waffle's detection runs follow its preparation run. The other
        // tools start at seed index 1, so SingleDelay's first detection run
        // reuses its preparation seed.
        let first = if matches!(state, RunState::Waffle { .. }) {
            2
        } else {
            1
        };
        let events = self.config.telemetry_events;
        for run in 0..self.config.max_detection_runs {
            let seed = run_seed(attempt_seed, first + u64::from(run));
            let sim = self.sim_config(seed, outcome.base_time);
            let r = match &mut state {
                RunState::Waffle { tables, decay } => {
                    let decay_in = std::mem::take(decay);
                    let mut p = WafflePolicy::compiled(tables, decay_in, seed);
                    p.record_events(events);
                    let r = Simulator::run(workload, sim, &mut p);
                    outcome.telemetry.push(p.take_journal());
                    *decay = p.into_decay();
                    r
                }
                RunState::Online(state, policy) => {
                    let mut p = policy(std::mem::take(state), seed);
                    p.record_events(events);
                    let r = Simulator::run(workload, sim, &mut p);
                    outcome.telemetry.push(p.take_journal());
                    *state = p.into_state();
                    r
                }
                // The single-delay baseline keeps no journal.
                RunState::Single { targets, delay } => {
                    let mut p = SingleDelayPolicy::new(targets.clone(), *delay, seed);
                    Simulator::run(workload, sim, &mut p)
                }
            };
            if self.absorb(workload, &r, &mut outcome) {
                break;
            }
        }
        (outcome, prep_plan)
    }

    /// Performs *one step* of the Waffle workflow against a session
    /// directory, the way the real tool runs as separate processes (§5):
    ///
    /// - with no plan on disk yet, this is the preparation run — the trace
    ///   and the analyzed plan are saved;
    /// - otherwise it is one detection run — the persisted injection
    ///   probabilities are loaded, evolved, and saved back, and an exposed
    ///   bug is rendered into the session as a report file.
    ///
    /// Returns the step's outcome; `exposed` is set only when this step's
    /// detection run manifested a bug. Only meaningful for
    /// [`Tool::Waffle`]; other tools return an error.
    pub fn step_with_session(
        &self,
        workload: &Workload,
        seed: u64,
        session: &Session,
    ) -> std::io::Result<DetectionOutcome> {
        let Tool::Waffle { analyzer } = &self.tool else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "session-driven detection is the Waffle workflow",
            ));
        };
        let mut outcome = self.base_run(workload, seed);
        match session.load_plan()? {
            None => {
                let (trace, plan) = self.prepare(workload, seed, &mut outcome, analyzer);
                session.save_trace(&trace)?;
                session.save_plan(&plan)?;
            }
            Some(plan) => {
                let decay = session.load_decay()?;
                let tables = PlanTables::compile(&plan, workload.sites.len());
                let mut p = WafflePolicy::compiled(&tables, decay, seed);
                p.record_events(self.config.telemetry_events);
                let r = Simulator::run(workload, self.sim_config(seed, outcome.base_time), &mut p);
                outcome.telemetry.push(p.take_journal());
                session.save_decay(&p.into_decay())?;
                if self.absorb(workload, &r, &mut outcome) {
                    let report = outcome.exposed.as_ref().expect("absorb set it");
                    session.save_report(report, &report.render(&workload.sites))?;
                }
            }
        }
        Ok(outcome)
    }

    /// The uninstrumented base run, with no deadline; its end time scales
    /// every later run's deadline.
    fn base_run(&self, workload: &Workload, seed: u64) -> DetectionOutcome {
        let base = Simulator::run(
            workload,
            self.sim_config(seed, SimTime::ZERO),
            &mut NullMonitor,
        );
        DetectionOutcome {
            workload: workload.name.clone(),
            base_time: base.end_time,
            ..DetectionOutcome::default()
        }
    }

    /// Runs the preparation run, recording it into the outcome; returns its
    /// trace and the analyzed plan.
    fn prepare(
        &self,
        workload: &Workload,
        seed: u64,
        outcome: &mut DetectionOutcome,
        analyzer: &AnalyzerConfig,
    ) -> (Trace, Plan) {
        let mut rec = TraceRecorder::new(workload);
        let r = Simulator::run(workload, self.sim_config(seed, outcome.base_time), &mut rec);
        outcome.prep = Some(RunSummary::from_run(&r));
        if r.manifested() {
            // A spontaneous manifestation in the delay-free run: recorded,
            // but not credited as a tool exposure.
            outcome.spontaneous = true;
        }
        let trace = rec.into_trace();
        let index = TraceIndex::build(&trace);
        // Stamp the plan with the model the preparation run simulated.
        let analyzer = analyzer.with_memory(self.config.memory.model);
        let plan = analyze_indexed(&index, &analyzer, 1);
        (trace, plan)
    }

    /// Records one detection run; returns `true` when a bug was exposed.
    /// TSVD's verdict is a thread-safety violation, reported in the
    /// outcome's `tsv_exposed` instead of a MemOrder report.
    fn absorb(&self, workload: &Workload, r: &RunResult, outcome: &mut DetectionOutcome) -> bool {
        outcome.detection_runs.push(RunSummary::from_run(r));
        if matches!(self.tool, Tool::Tsvd) {
            let Some(v) = r.tsv_violations.first() else {
                return false;
            };
            outcome.tsv_exposed = Some(TsvReport {
                workload: workload.name.clone(),
                first_site: workload.sites.name(v.first_site).to_owned(),
                second_site: workload.sites.name(v.second_site).to_owned(),
                obj: v.obj,
                time: v.time,
                exposed_in_run: outcome.total_runs(),
            });
            return true;
        }
        if !r.manifested() {
            return false;
        }
        if r.delays.is_empty() {
            outcome.spontaneous = true;
            return false;
        }
        let e = &r.exceptions[0];
        let delayed_sites: BTreeSet<String> = r
            .delays
            .iter()
            .map(|d| workload.sites.name(d.site).to_owned())
            .collect();
        outcome.exposed = Some(BugReport {
            workload: workload.name.clone(),
            kind: e.error.kind,
            site: workload.sites.name(e.error.site).to_owned(),
            obj: e.error.obj,
            time: e.time,
            exposed_in_run: outcome.total_runs(),
            total_runs: outcome.total_runs(),
            delays_in_run: r.delays.len() as u64,
            delayed_sites: delayed_sites.into_iter().collect(),
            thread_contexts: r.thread_contexts.clone(),
            memory_model: self.config.memory.model,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_sim::WorkloadBuilder;

    /// Racy use-after-free with a single dynamic instance per run, at a
    /// realistic time scale (the paper's subjects run for hundreds of
    /// milliseconds, so a 100 ms fixed delay fits under the timeout).
    fn racy_uaf() -> Workload {
        let mut b = WorkloadBuilder::new("det.uaf");
        let o = b.object("conn");
        let started = b.event("started");
        let worker = b.script("worker", move |s| {
            s.wait(started).compute(SimTime::from_ms(10)).use_(
                o,
                "Worker.poll:11",
                SimTime::from_us(50),
            );
        });
        let main = b.script("main", move |s| {
            s.init(o, "Main.ctor:2", SimTime::from_us(200))
                .fork(worker)
                .signal(started)
                .compute(SimTime::from_ms(60))
                .dispose(o, "Main.cleanup:8", SimTime::from_us(50))
                .join_children();
        });
        b.main(main);
        b.build()
    }

    #[test]
    fn waffle_needs_exactly_two_runs_for_a_simple_race() {
        let outcome = Detector::new(Tool::waffle()).detect(&racy_uaf(), 1);
        let report = outcome.exposed.clone().expect("must expose");
        assert_eq!(report.total_runs, 2, "prep + 1 detection");
        assert_eq!(report.kind, waffle_mem::NullRefKind::UseAfterFree);
        assert_eq!(report.site, "Worker.poll:11");
        assert!(!outcome.spontaneous);
        // Slowdown is bounded: two runs ≈ 2× the base plus overhead.
        assert!(outcome.slowdown() < 4.0, "slowdown {}", outcome.slowdown());
    }

    #[test]
    fn waffle_basic_needs_more_runs_for_single_instance_bugs() {
        // The delay site has one dynamic instance per run, so WaffleBasic
        // can only identify in run k and inject in run k+1.
        let outcome = Detector::new(Tool::waffle_basic()).detect(&racy_uaf(), 1);
        let report = outcome.exposed.expect("basic exposes it eventually");
        assert!(report.total_runs >= 2);
    }

    #[test]
    fn detection_gives_up_after_budget() {
        // A clean workload: no bug to find; the detector exhausts its runs.
        let mut b = WorkloadBuilder::new("det.clean");
        let o = b.object("o");
        let main = b.script("main", move |s| {
            s.init(o, "M.i:1", SimTime::from_us(10))
                .use_(o, "M.u:2", SimTime::from_us(10))
                .dispose(o, "M.d:3", SimTime::from_us(10));
        });
        b.main(main);
        let w = b.build();
        let cfg = DetectorConfig {
            max_detection_runs: 5,
            ..DetectorConfig::default()
        };
        let outcome = Detector::with_config(Tool::waffle(), cfg).detect(&w, 0);
        assert!(outcome.exposed.is_none());
        assert_eq!(outcome.detection_runs.len(), 5);
        assert!(outcome.prep.is_some());
    }

    #[test]
    fn tsvd_tool_reports_violations_not_memorder_bugs() {
        let mut b = WorkloadBuilder::new("det.tsv");
        let dict = b.object("dict");
        let started = b.event("s");
        let worker = b.script("worker", move |s| {
            s.wait(started).pad(SimTime::from_ms(2)).unsafe_call(
                dict,
                "W.Add:3",
                SimTime::from_ms(1),
            );
        });
        let main = b.script("main", move |s| {
            s.init(dict, "M.ctor:1", SimTime::from_us(20))
                .fork(worker)
                .signal(started)
                .pad(SimTime::from_ms(40))
                .unsafe_call(dict, "M.Get:7", SimTime::from_ms(1))
                .join_children();
        });
        b.main(main);
        let w = b.build();
        let outcome = Detector::new(Tool::Tsvd).detect(&w, 1);
        let v = outcome.tsv_exposed.expect("TSVD must force the overlap");
        assert!(outcome.exposed.is_none());
        assert!(v.exposed_in_run >= 1);
        assert_ne!(v.first_site, v.second_site);
    }

    #[test]
    fn session_steps_mirror_the_real_process_model() {
        let dir = std::env::temp_dir().join(format!("waffle-det-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = crate::storage::Session::open(&dir).unwrap();
        let w = racy_uaf();
        let det = Detector::new(Tool::waffle());
        // Step 1: preparation — saves trace + plan, exposes nothing.
        let s1 = det.step_with_session(&w, 1, &session).unwrap();
        assert!(s1.prep.is_some());
        assert!(s1.exposed.is_none());
        assert!(session.load_plan().unwrap().is_some());
        assert!(session.load_trace().unwrap().is_some());
        // Step 2: first detection run — exposes the bug and writes the
        // report into the session.
        let s2 = det.step_with_session(&w, 2, &session).unwrap();
        let report = s2.exposed.expect("detection step exposes");
        assert_eq!(report.site, "Worker.poll:11");
        assert!(dir.join("bug-001.txt").exists());
        // The decay evolved on disk.
        let decay = session.load_decay().unwrap();
        assert!(decay.touched_sites() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_steps_reject_non_waffle_tools() {
        let dir = std::env::temp_dir().join(format!("waffle-det-sess2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = crate::storage::Session::open(&dir).unwrap();
        let det = Detector::new(Tool::waffle_basic());
        assert!(det.step_with_session(&racy_uaf(), 1, &session).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attempt_seeds_change_timing_but_not_verdict() {
        let w = racy_uaf();
        for seed in 0..5 {
            let outcome = Detector::new(Tool::waffle()).detect(&w, seed);
            assert!(outcome.exposed.is_some(), "seed {seed} failed");
        }
    }
}
