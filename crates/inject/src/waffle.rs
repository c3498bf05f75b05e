//! The Waffle detection-run policy (§4).

use std::borrow::Cow;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use waffle_analysis::{Plan, PlanTables};
use waffle_sim::{AccessCtx, AccessRecord, Monitor, PreAction, SimTime};
use waffle_telemetry::{RunJournal, RunTelemetry};

use crate::decay::{decay_permille, roll_permille, DecayState};

/// The argument type of [`WafflePolicy::with_config`]. It has no knobs:
/// the one no-interference switch is
/// `AnalyzerConfig::without_interference_control`, which empties the
/// plan's interference set `I`. The type stays only because perfbench's
/// table4 replica (`perfbench/src/table4.rs`) names it; it goes with that
/// replica.
#[derive(Debug, Clone, Copy, Default)]
pub struct WaffleConfig;

/// Plan-guided delay injection: variable-length delays at the candidate
/// locations of the plan, gated by probability decay and interference
/// avoidance.
///
/// The policy reads the plan through its dense [`PlanTables`], which it
/// either owns ([`WafflePolicy::new`] compiles them from a `Plan`)
/// or borrows ([`WafflePolicy::compiled`], which lets every detection run
/// of an attempt share one compilation).
///
/// Over tables compiled from a [`TsvPlan`](waffle_analysis::TsvPlan)
/// ([`PlanTables::compile_tsv`]) the same policy is WaffleTSV, the §8
/// extension: the preparation-run design applied to thread-safety
/// violations. Each delay is the measured gap, aiming the delayed call's
/// execution window at its partner's (the Fig. 2 atomicity window).
#[derive(Debug)]
pub struct WafflePolicy<'p> {
    tables: Cow<'p, PlanTables>,
    decay: DecayState,
    /// This run's injection probability per rank, and whether the run
    /// decayed it; written back to `decay` by [`WafflePolicy::into_decay`].
    permille: Vec<(u32, bool)>,
    rng: SmallRng,
    telemetry: RunTelemetry,
}

impl WafflePolicy<'static> {
    /// Creates a policy for one detection run. `decay` carries the
    /// persisted probabilities from earlier runs; `seed` drives the
    /// probability rolls.
    pub fn new(plan: Plan, decay: DecayState, seed: u64) -> Self {
        let tables = PlanTables::compile(&plan, usize::MAX);
        WafflePolicy::build(Cow::Owned(tables), decay, seed)
    }

    /// [`WafflePolicy::new`]; [`WaffleConfig`] carries nothing.
    pub fn with_config(plan: Plan, decay: DecayState, seed: u64, _: WaffleConfig) -> Self {
        Self::new(plan, decay, seed)
    }
}

impl<'p> WafflePolicy<'p> {
    /// Creates a policy for one detection run over a plan compiled once
    /// per attempt.
    pub fn compiled(tables: &'p PlanTables, decay: DecayState, seed: u64) -> Self {
        Self::build(Cow::Borrowed(tables), decay, seed)
    }

    fn build(tables: Cow<'p, PlanTables>, decay: DecayState, seed: u64) -> Self {
        let permille = (0..tables.len())
            .map(|r| (decay.permille(tables.site(r)), false))
            .collect();
        Self {
            tables,
            decay,
            permille,
            rng: SmallRng::seed_from_u64(seed),
            telemetry: RunTelemetry::counters_only(),
        }
    }

    /// Extracts the evolved decay state (persist it for the next run).
    pub fn into_decay(mut self) -> DecayState {
        for (r, &(p, decayed)) in self.permille.iter().enumerate() {
            if decayed {
                self.decay.set_permille(self.tables.site(r), p);
            }
        }
        self.decay
    }

    /// Turns per-decision event journaling on or off (counters stay on).
    pub fn record_events(&mut self, on: bool) {
        self.telemetry.set_events(on);
    }

    /// Takes this run's finished telemetry journal.
    pub fn take_journal(&mut self) -> RunJournal {
        self.telemetry.take_journal()
    }

    /// The telemetry journal recorded so far.
    pub fn journal(&self) -> &RunJournal {
        self.telemetry.journal()
    }
}

impl Monitor for WafflePolicy<'_> {
    fn instr_overhead(&self, kind: waffle_mem::AccessKind) -> SimTime {
        // The detection runtime performs a candidate-set lookup per
        // instrumented access; cheaper than the preparation run's trace
        // write.
        if self.tables.instruments(kind) {
            SimTime::from_us(1)
        } else {
            SimTime::ZERO
        }
    }

    fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
        let tables = &*self.tables;
        let Some(rank) = tables.rank(ctx.site) else {
            return PreAction::Proceed;
        };
        if !tables.instruments(ctx.kind) {
            return PreAction::Proceed;
        }
        let len = tables.delay(rank);
        if len == SimTime::ZERO {
            return PreAction::Proceed;
        }
        // Interference control: no delay at ℓ while a delay at an
        // interfering location is ongoing in another thread (§4.4). Checked
        // *before* the probability roll so a skip consumes neither a decay
        // step nor RNG state.
        let interferes = ctx.active_delays.iter().any(|d| {
            d.thread != ctx.thread
                && d.end > ctx.time
                && tables
                    .rank(d.site)
                    .is_some_and(|other| tables.interferes_rank(rank, other))
        });
        if interferes {
            self.telemetry
                .skipped_interference(ctx.site, ctx.thread, ctx.time);
            return PreAction::Proceed;
        }
        // Probability decay.
        let (permille, decayed) = &mut self.permille[rank];
        let before = *permille;
        if !roll_permille(before, &mut self.rng) {
            self.telemetry
                .skipped_probability(ctx.site, ctx.thread, ctx.time, before);
            return PreAction::Proceed;
        }
        *permille = decay_permille(before);
        *decayed = true;
        self.telemetry
            .injected(ctx.site, ctx.thread, ctx.time, len, before);
        self.telemetry
            .decay_step(ctx.site, ctx.thread, ctx.time, *permille);
        PreAction::Delay(len)
    }

    fn on_access_post(&mut self, rec: &AccessRecord) {
        let overhead = Monitor::instr_overhead(self, rec.kind);
        self.telemetry.instrumented(overhead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_analysis::{analyze, analyze_tsv, AnalyzerConfig, TsvPlan};
    use waffle_sim::time::{ms, us};
    use waffle_sim::{SimConfig, Simulator, Workload, WorkloadBuilder};
    use waffle_trace::TraceRecorder;

    /// A use-after-free race: worker uses the object shortly before main
    /// disposes it. Clean delay-free; delaying the use past the dispose
    /// manifests it.
    fn uaf_workload() -> Workload {
        let mut b = WorkloadBuilder::new("uaf");
        let o = b.object("conn");
        let started = b.event("started");
        let worker = b.script("worker", move |s| {
            s.wait(started).compute(SimTime::from_us(100)).use_(
                o,
                "Worker.poll:11",
                SimTime::from_us(10),
            );
        });
        let main = b.script("main", move |s| {
            s.init(o, "Main.ctor:2", SimTime::from_us(10))
                .fork(worker)
                .signal(started)
                .compute(SimTime::from_us(400))
                .dispose(o, "Main.cleanup:8", SimTime::from_us(10))
                .join_children();
        });
        b.main(main);
        b.build()
    }

    fn plan_for(w: &Workload) -> Plan {
        let mut rec = TraceRecorder::with_overhead(w, SimTime::ZERO);
        let _ = Simulator::run(w, SimConfig::with_seed(0).deterministic(), &mut rec);
        analyze(&rec.into_trace(), &AnalyzerConfig::default())
    }

    #[test]
    fn waffle_exposes_uaf_in_first_detection_run() {
        let w = uaf_workload();
        let plan = plan_for(&w);
        assert_eq!(plan.candidates.len(), 1);
        let mut policy = WafflePolicy::new(plan, DecayState::default(), 1);
        let r = Simulator::run(&w, SimConfig::with_seed(1), &mut policy);
        assert!(r.manifested(), "delays: {:?}", r.delays);
        assert_eq!(
            r.exceptions[0].error.kind,
            waffle_mem::NullRefKind::UseAfterFree
        );
        assert_eq!(policy.journal().counters.injected, 1);
    }

    #[test]
    fn injected_delay_length_is_alpha_times_gap() {
        let w = uaf_workload();
        let plan = plan_for(&w);
        let expected = plan.candidates[0].max_gap.scale(115, 100);
        let mut policy = WafflePolicy::new(plan, DecayState::default(), 1);
        let r = Simulator::run(&w, SimConfig::with_seed(1), &mut policy);
        assert_eq!(r.delays.len(), 1);
        assert_eq!(r.delays[0].dur, expected);
        // Far below the 100ms fixed delay of the basic tool.
        assert!(r.delays[0].dur < SimTime::from_ms(100));
    }

    #[test]
    fn exhausted_decay_stops_injection() {
        let w = uaf_workload();
        let plan = plan_for(&w);
        let site = plan.candidates[0].delay_site;
        let mut decay = DecayState::default();
        for _ in 0..10 {
            decay.record_injection(site);
        }
        let mut policy = WafflePolicy::new(plan, decay, 1);
        let r = Simulator::run(&w, SimConfig::with_seed(1), &mut policy);
        assert!(!r.manifested());
        assert_eq!(policy.journal().counters.injected, 0);
        assert_eq!(policy.journal().counters.skipped_probability, 1);
    }

    #[test]
    fn journal_counters_reconcile_with_run_result() {
        let w = uaf_workload();
        let plan = plan_for(&w);
        let mut policy = WafflePolicy::new(plan, DecayState::default(), 1);
        policy.record_events(true);
        let r = Simulator::run(&w, SimConfig::with_seed(1), &mut policy);
        let j = policy.take_journal();
        // Independent cross-checks against the engine's own ledger.
        assert_eq!(j.counters.injected, r.delays.len() as u64);
        assert_eq!(j.counters.instrumented_ops, r.instrumented_ops);
        assert_eq!(j.counters.decay_steps, j.counters.injected);
        assert_eq!(j.delay_hist.count(), j.counters.injected);
        assert_eq!(
            j.events.len() as u64,
            j.counters.decisions() + j.counters.decay_steps
        );
    }

    /// §4.4 ordering: the interference check runs *before* the probability
    /// roll, so a skip consumes neither a decay step nor RNG state — the
    /// subsequent roll outcomes are exactly those of a policy that never
    /// saw the interfering delay.
    #[test]
    fn interference_skip_consumes_no_roll_and_no_decay_state() {
        use std::collections::BTreeMap;
        use waffle_analysis::InterferenceSet;
        use waffle_mem::{AccessKind, ObjectId, SiteId};
        use waffle_sim::{ActiveDelay, ThreadId};

        let l = SiteId(0);
        let l_star = SiteId(7);
        let mut delay_len = BTreeMap::new();
        delay_len.insert(l, SimTime::from_us(115));
        let mut interference = InterferenceSet::new();
        interference.insert(l, l_star);
        let plan = Plan {
            workload: "ordering".into(),
            candidates: vec![],
            delay_len,
            interference,
            delta: SimTime::from_ms(100),
            stats: Default::default(),
            memory_model: Default::default(),
        };
        fn pre(p: &mut WafflePolicy, site: SiteId, t: u64, delays: &[ActiveDelay]) -> PreAction {
            p.on_access_pre(&waffle_sim::AccessCtx {
                time: SimTime::from_us(t),
                thread: ThreadId(0),
                site,
                obj: ObjectId(0),
                kind: AccessKind::Use,
                dyn_index: 0,
                task: None,
                active_delays: delays,
                last_block: None,
            })
        }
        // Intermediate probability so every roll consumes RNG state.
        let decay = || {
            let mut d = DecayState::default();
            d.set_permille(l, 500);
            d
        };
        let ongoing = [ActiveDelay {
            thread: ThreadId(1),
            site: l_star,
            end: SimTime::from_ms(50),
        }];

        // The skip alone leaves the decay state untouched.
        let mut skipped = WafflePolicy::new(plan.clone(), decay(), 42);
        assert_eq!(pre(&mut skipped, l, 10, &ongoing), PreAction::Proceed);
        assert_eq!(skipped.journal().counters.skipped_interference, 1);
        assert_eq!(skipped.journal().counters.decay_steps, 0);

        // And the rolls that follow replay bit-for-bit against a control
        // policy that never skipped.
        let mut control = WafflePolicy::new(plan, decay(), 42);
        let after_skip: Vec<PreAction> = (0..32)
            .map(|i| pre(&mut skipped, l, 100 + i, &[]))
            .collect();
        let reference: Vec<PreAction> = (0..32)
            .map(|i| pre(&mut control, l, 100 + i, &[]))
            .collect();
        assert_eq!(after_skip, reference);
        assert_eq!(
            skipped.into_decay().permille(l),
            control.into_decay().permille(l),
            "decay evolution must be identical after an interference skip"
        );
    }

    #[test]
    fn non_candidate_sites_are_never_delayed() {
        // The init precedes the fork (clock-pruned) and the dispose runs
        // more than δ after the use (not a near miss): the plan is empty
        // and the policy must stay inert.
        let mut b = WorkloadBuilder::new("sync");
        let o = b.object("o");
        let worker = b.script("worker", move |s| {
            s.use_(o, "W.use:1", SimTime::from_us(10));
        });
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", SimTime::from_us(10))
                .fork(worker)
                .join_children()
                .compute(SimTime::from_ms(150))
                .dispose(o, "M.dispose:9", SimTime::from_us(10));
        });
        b.main(main);
        let w = b.build();
        let plan = plan_for(&w);
        assert!(plan.candidates.is_empty());
        let mut policy = WafflePolicy::new(plan, DecayState::default(), 1);
        let r = Simulator::run(&w, SimConfig::with_seed(1), &mut policy);
        assert!(r.delays.is_empty());
        assert!(!r.manifested());
    }

    /// Two calls 30 ms apart with 1 ms windows: TSVD's fixed 100 ms delay
    /// relies on trap semantics; WaffleTSV's planned 30 ms delay lands the
    /// execution windows directly on each other.
    fn tsv_workload() -> Workload {
        let mut b = WorkloadBuilder::new("wtsv");
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
                .pad(ms(31))
                .unsafe_call(dict, "Main.Get:7", ms(1))
                .join_children();
        });
        b.main(main);
        b.build()
    }

    fn tsv_tables_for(w: &Workload) -> (TsvPlan, PlanTables) {
        let mut rec = TraceRecorder::with_overhead(w, SimTime::ZERO);
        let _ = Simulator::run(w, SimConfig::with_seed(0).deterministic(), &mut rec);
        let plan = analyze_tsv(&rec.into_trace(), ms(100), ms(1));
        let tables = PlanTables::compile_tsv(&plan, w.sites.len());
        (plan, tables)
    }

    #[test]
    fn planned_gap_delay_forces_the_overlap_in_one_detection_run() {
        let w = tsv_workload();
        let (plan, tables) = tsv_tables_for(&w);
        assert_eq!(plan.candidates.len(), 1);
        let mut policy = WafflePolicy::compiled(&tables, DecayState::default(), 1);
        let r = Simulator::run(&w, SimConfig::with_seed(1), &mut policy);
        assert!(
            !r.tsv_violations.is_empty(),
            "planned delay must collide the windows (injected {})",
            policy.journal().counters.injected
        );
        // The injected delay is the measured 30ms gap, not a fixed 100ms.
        assert_eq!(r.delays.len(), 1);
        assert!(r.delays[0].dur < ms(35) && r.delays[0].dur > ms(25));
    }

    #[test]
    fn tsv_tables_ignore_mem_order_sites() {
        let w = tsv_workload();
        let (_, tables) = tsv_tables_for(&w);
        let mut policy = WafflePolicy::compiled(&tables, DecayState::default(), 1);
        let r = Simulator::run(&w, SimConfig::with_seed(1), &mut policy);
        for d in &r.delays {
            assert_ne!(w.sites.name(d.site), "M.ctor:1");
        }
    }
}
