//! The online near-miss policy shared by WaffleBasic (§3), TSVD (§2) and
//! Waffle without a preparation run (Table 7 row 2).
//!
//! WaffleBasic and TSVD sit at the same point of the paper's Table 1: one
//! policy does everything in the same run — near-miss candidate
//! identification, happens-before inference (pair removal when an injected
//! delay propagates through synchronization to the partner location), and
//! injection of fixed 100 ms delays gated by probability decay — with no
//! coordination between parallel delays, which is exactly the interference
//! weakness §3.3/§4.4 analyzes. They differ only in which accesses they
//! instrument and how they pair them, the [`Pairing`]:
//!
//! - WaffleBasic, the straight adaptation of TSVD to MemOrder bugs,
//!   instruments init/use/dispose and pairs init → use and use → dispose;
//! - TSVD instruments only thread-unsafe API call sites. Two calls on the
//!   same object from different threads within δ form a candidate pair in
//!   *both* directions, since delaying either call can make the execution
//!   windows overlap.
//!
//! The no-preparation-run variant ([`OnlinePolicy::no_prep`]) is
//! WaffleBasic's pairing with two Table 1 columns changed: runtime
//! fork-edge vector clocks (§4.1, propagated through inheritable TLS)
//! prune ordered near-misses in place of happens-before inference, and
//! each delay is α·(the largest gap observed online) instead of 100 ms
//! (§4.3). It still lacks the interference set, which §4.4 derives from
//! the unperturbed trace, and the gaps it observes are perturbed by its
//! own delays (§4.2).

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use waffle_analysis::alpha_delay;
use waffle_mem::{AccessKind, SiteId};
use waffle_sim::tls::InheritableTls;
use waffle_sim::{AccessCtx, AccessRecord, Monitor, PreAction, SimTime, ThreadId};
use waffle_telemetry::{RunJournal, RunTelemetry};
use waffle_vclock::{ClassicClock, ClockSnapshot};

use crate::decay::DecayState;
use crate::recent::{RecentAccess, RecentWindow};

/// Which accesses an online policy instruments and pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// WaffleBasic: MemOrder accesses; init → use and use → dispose.
    MemOrder,
    /// TSVD: thread-unsafe API calls; any two calls, both directions.
    Tsv,
}

/// The cross-run state of an online policy: candidate pairs and decay
/// probabilities (both persist between detection runs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineState {
    /// Candidate pairs: delay location → partner locations.
    pub candidates: BTreeMap<SiteId, BTreeSet<SiteId>>,
    /// Pairs removed by happens-before inference. Tombstoned so the
    /// near-miss heuristic does not immediately re-admit them (removal
    /// from `S` is permanent, §2).
    pub removed: BTreeSet<(SiteId, SiteId)>,
    /// Baseline arrival time (µs) of each pair's ℓ2 first dynamic
    /// instance, observed in a run with no delay yet injected at ℓ1 —
    /// the reference the timestamp-shift inference compares against.
    pub tau2_baseline_us: BTreeMap<SiteId, BTreeMap<SiteId, u64>>,
    /// Largest near-miss gap (µs) observed online per delay location; the
    /// no-preparation-run variant's stand-in for the plan's delay lengths.
    pub max_gap_us: BTreeMap<SiteId, u64>,
    /// Probability decay state.
    pub decay: DecayState,
}

impl OnlineState {
    /// Serializes the state for the next run; errors propagate to the
    /// caller instead of aborting the campaign.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a persisted state.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Number of distinct delay locations currently in `S`.
    pub fn delay_sites(&self) -> usize {
        self.candidates.len()
    }
}

#[derive(Debug, Clone, Copy)]
struct OwnDelay {
    site: SiteId,
    thread: ThreadId,
    start: SimTime,
    end: SimTime,
}

/// The online policy (one run). Construct per run with the persisted
/// [`OnlineState`]; extract the evolved state with
/// [`into_state`](OnlinePolicy::into_state) afterwards.
#[derive(Debug)]
pub struct OnlinePolicy {
    pairing: Pairing,
    state: OnlineState,
    /// `None` delays by α·(largest gap observed at the site) instead.
    fixed_delay: Option<SimTime>,
    /// Runtime fork-edge vector clocks; when present they replace
    /// happens-before inference.
    clocks: Option<InheritableTls<ClassicClock<ThreadId>>>,
    rng: SmallRng,
    window: RecentWindow,
    own_delays: Vec<OwnDelay>,
    telemetry: RunTelemetry,
}

impl OnlinePolicy {
    /// The fixed delay length (100 ms, exactly as in TSVD, §3.2).
    pub const FIXED_DELAY: SimTime = SimTime::from_ms(100);
    /// The near-miss window δ (100 ms, §6.1).
    pub const DELTA: SimTime = SimTime::from_ms(100);

    /// Creates a policy for one run.
    pub fn new(pairing: Pairing, state: OnlineState, seed: u64) -> Self {
        Self::with_params(pairing, state, seed, Self::FIXED_DELAY)
    }

    /// Creates a policy with an explicit delay length (used by the
    /// delay-length sensitivity experiments of §4.3).
    pub fn with_params(
        pairing: Pairing,
        state: OnlineState,
        seed: u64,
        fixed_delay: SimTime,
    ) -> Self {
        Self {
            pairing,
            state,
            fixed_delay: Some(fixed_delay),
            clocks: None,
            rng: SmallRng::seed_from_u64(seed),
            window: RecentWindow::new(Self::DELTA),
            own_delays: Vec::new(),
            telemetry: RunTelemetry::counters_only(),
        }
    }

    /// Creates a no-preparation-run policy (Table 7 row 2): MemOrder
    /// pairing, runtime clock pruning and delays of α·(observed gap).
    pub fn no_prep(state: OnlineState, seed: u64) -> Self {
        let mut clocks = InheritableTls::new();
        clocks.init_root(ThreadId(0), ClassicClock::root(ThreadId(0)));
        Self {
            fixed_delay: None,
            clocks: Some(clocks),
            ..Self::new(Pairing::MemOrder, state, seed)
        }
    }

    /// Extracts the evolved cross-run state.
    pub fn into_state(self) -> OnlineState {
        self.state
    }

    /// Turns per-decision event journaling on or off (counters stay on).
    pub fn record_events(&mut self, on: bool) {
        self.telemetry.set_events(on);
    }

    /// Takes this run's finished telemetry journal.
    pub fn take_journal(&mut self) -> RunJournal {
        self.telemetry.take_journal()
    }

    /// `tid`'s current runtime clock (empty without clocks or for an
    /// unknown thread).
    fn clock(&self, tid: ThreadId) -> ClockSnapshot<ThreadId> {
        self.clocks
            .as_ref()
            .and_then(|c| c.get(tid))
            .map(|c| c.snapshot())
            .unwrap_or_default()
    }

    /// The length of a delay at `site`: the fixed delay, or α = 1.15 times
    /// the largest gap observed there, `None` when that is zero.
    fn delay_len(&self, site: SiteId) -> Option<SimTime> {
        if self.fixed_delay.is_some() {
            return self.fixed_delay;
        }
        let gap = self.state.max_gap_us.get(&site).copied().unwrap_or(0);
        Some(alpha_delay(SimTime::from_us(gap))).filter(|&len| len > SimTime::ZERO)
    }

    /// Whether the pairing instruments accesses of this kind.
    fn instruments(&self, kind: AccessKind) -> bool {
        match self.pairing {
            Pairing::MemOrder => kind.is_mem_order(),
            Pairing::Tsv => kind.is_tsv(),
        }
    }

    fn remove_pair(&mut self, l1: SiteId, l2: SiteId) {
        if let Some(partners) = self.state.candidates.get_mut(&l1) {
            if partners.remove(&l2) {
                self.state.removed.insert((l1, l2));
                if partners.is_empty() {
                    self.state.candidates.remove(&l1);
                }
            }
        }
    }

    /// Happens-before inference (§2, §3.1): a delay injected before ℓ1 that
    /// shows up as a proportional slowdown before ℓ2 in the other thread
    /// implies a likely ℓ1 → ℓ2 ordering; the pair is removed from `S`.
    ///
    /// Two propagation signals are checked, both used by the real tools:
    ///
    /// 1. the current thread was *blocked* on synchronization for an
    ///    interval substantially overlapping a delay at ℓ1;
    /// 2. ℓ2's arrival time shifted by at least half the delay relative to
    ///    its delay-free baseline (the timestamp signal — which, exactly as
    ///    §4.1 observes, cannot distinguish a real ordering from the effect
    ///    of an unrelated overlapping delay, so dense injection makes it
    ///    unreliable).
    fn infer_happens_before(&mut self, ctx: &AccessCtx<'_>) {
        // Signal 1: blocked-interval overlap. `last_block` is the accessing
        // thread's own most recent block.
        if let Some(block) = ctx.last_block.filter(|b| !b.is_empty()).copied() {
            let hits: Vec<SiteId> = self
                .own_delays
                .iter()
                .filter(|d| d.thread != ctx.thread)
                .filter(|d| {
                    let lo = d.start.max(block.start);
                    let hi = d.end.min(block.end);
                    hi > lo && (hi - lo) * 2 >= (d.end - d.start)
                })
                .map(|d| d.site)
                .collect();
            // §4.1: when several delays overlap the observed slowdown, the
            // inference "cannot reliably determine whether the slowdown in
            // Thread 2 is caused by a synchronization operation or is
            // solely the effect of the second delay" — so it only acts on
            // an unambiguous, single-delay explanation.
            if hits.len() == 1 {
                self.remove_pair(hits[0], ctx.site);
            }
        }
        // Signal 2: timestamp shift against the delay-free baseline (first
        // dynamic instance only, to keep the reference stable). The
        // expected arrival accounts for delays injected in ℓ2's *own*
        // thread — those shift ℓ2 trivially and are not propagation.
        if ctx.dyn_index == 0 {
            let own_shift_us: u64 = self
                .own_delays
                .iter()
                .filter(|d| d.thread == ctx.thread && d.start < ctx.time)
                .map(|d| (d.end - d.start).as_us())
                .sum();
            let l1s: Vec<(SiteId, SimTime)> = self
                .own_delays
                .iter()
                .filter(|d| d.thread != ctx.thread && d.start < ctx.time)
                .map(|d| (d.site, d.end - d.start))
                .collect();
            // Same ambiguity rule for the timestamp signal: with several
            // candidate delays the shift cannot be attributed.
            let l1s = if l1s.len() == 1 { l1s } else { Vec::new() };
            for (l1, dur) in l1s {
                let in_s = self
                    .state
                    .candidates
                    .get(&l1)
                    .is_some_and(|p| p.contains(&ctx.site));
                if !in_s {
                    continue;
                }
                let base = self
                    .state
                    .tau2_baseline_us
                    .get(&l1)
                    .and_then(|m| m.get(&ctx.site))
                    .copied();
                if let Some(base) = base {
                    // Floor at 500µs: shifts below measurement precision
                    // cannot be attributed to a delay.
                    let thresh = (dur.as_us() / 2).max(500);
                    if ctx.time.as_us() >= base + own_shift_us + thresh {
                        self.remove_pair(l1, ctx.site);
                    }
                }
            }
        }
    }

    /// Records the delay-free baseline arrival time of ℓ2 for each pair it
    /// participates in (only when no delay was injected at ℓ1 this run).
    fn update_baselines(&mut self, ctx: &AccessCtx<'_>) {
        if ctx.dyn_index != 0 {
            return;
        }
        let l1s: Vec<SiteId> = self
            .state
            .candidates
            .iter()
            .filter(|(_, partners)| partners.contains(&ctx.site))
            .map(|(l1, _)| *l1)
            .collect();
        for l1 in l1s {
            let delayed_this_run = self
                .own_delays
                .iter()
                .any(|d| d.site == l1 && d.start < ctx.time);
            if !delayed_this_run {
                self.state
                    .tau2_baseline_us
                    .entry(l1)
                    .or_default()
                    .entry(ctx.site)
                    .or_insert(ctx.time.as_us());
            }
        }
    }

    /// Near-miss identification (§3.1): executed when this access plays the
    /// role of ℓ2 (or, for TSV pairs, either role).
    fn identify(&mut self, ctx: &AccessCtx<'_>) {
        let (wanted, both_ways) = match (self.pairing, ctx.kind) {
            (Pairing::MemOrder, AccessKind::Use) => (AccessKind::Init, false),
            (Pairing::MemOrder, AccessKind::Dispose) => (AccessKind::Use, false),
            (Pairing::MemOrder, _) => return,
            (Pairing::Tsv, _) => (AccessKind::UnsafeApiCall, true),
        };
        let now = self.clocks.is_some().then(|| self.clock(ctx.thread));
        let others: Vec<(SiteId, SimTime)> = self
            .window
            .others(ctx.obj, ctx.thread, ctx.time)
            .filter(|a| a.kind == wanted)
            // Runtime pruning (§4.1): skip a near-miss whose recorded clock
            // is ordered against this thread's current one.
            .filter(|a| now.as_ref().is_none_or(|c| !a.clock.order(c).is_ordered()))
            .map(|a| (a.site, a.time))
            .collect();
        for (other, time) in others {
            self.add_pair(other, ctx.site);
            if both_ways {
                self.add_pair(ctx.site, other);
            }
            if self.fixed_delay.is_none() {
                let gap = ctx.time.saturating_sub(time).as_us();
                let max = self.state.max_gap_us.entry(other).or_insert(0);
                *max = (*max).max(gap);
            }
        }
    }

    fn add_pair(&mut self, l1: SiteId, l2: SiteId) {
        if !self.state.removed.contains(&(l1, l2)) {
            self.state.candidates.entry(l1).or_default().insert(l2);
        }
    }
}

impl Monitor for OnlinePolicy {
    fn instr_overhead(&self, kind: AccessKind) -> SimTime {
        match self.pairing {
            // Online identification does more per-access work than Waffle's
            // plan lookup (history scan + candidate update).
            Pairing::MemOrder => SimTime::from_us(5),
            // TSVD only instruments thread-unsafe API call sites.
            Pairing::Tsv if kind.is_tsv() => SimTime::from_us(2),
            Pairing::Tsv => SimTime::ZERO,
        }
    }

    fn on_access_pre(&mut self, ctx: &AccessCtx<'_>) -> PreAction {
        if !self.instruments(ctx.kind) {
            return PreAction::Proceed;
        }
        // Runtime clocks replace happens-before inference.
        let inferring = self.clocks.is_none();
        if inferring {
            self.infer_happens_before(ctx);
        }
        self.identify(ctx);
        if inferring {
            self.update_baselines(ctx);
        }
        // Injection: delay candidate locations with decaying probability;
        // parallel delays are allowed (no coordination).
        if self.state.candidates.contains_key(&ctx.site) {
            let permille = self.state.decay.permille(ctx.site);
            if self.state.decay.roll(ctx.site, &mut self.rng) {
                // A zero observed gap spends the roll and records nothing.
                let Some(len) = self.delay_len(ctx.site) else {
                    return PreAction::Proceed;
                };
                self.state.decay.record_injection(ctx.site);
                self.telemetry
                    .injected(ctx.site, ctx.thread, ctx.time, len, permille);
                self.telemetry.decay_step(
                    ctx.site,
                    ctx.thread,
                    ctx.time,
                    self.state.decay.permille(ctx.site),
                );
                self.own_delays.push(OwnDelay {
                    site: ctx.site,
                    thread: ctx.thread,
                    start: ctx.time,
                    end: ctx.time + len,
                });
                return PreAction::Delay(len);
            }
            self.telemetry
                .skipped_probability(ctx.site, ctx.thread, ctx.time, permille);
        }
        PreAction::Proceed
    }

    fn on_fork(&mut self, parent: ThreadId, child: ThreadId, _time: SimTime) {
        if let Some(clocks) = &mut self.clocks {
            clocks.inherit(parent, child, |pc| pc.fork(parent, child));
        }
    }

    fn on_access_post(&mut self, rec: &AccessRecord) {
        let overhead = Monitor::instr_overhead(self, rec.kind);
        self.telemetry.instrumented(overhead);
        if !self.instruments(rec.kind) {
            return;
        }
        let clock = self.clock(rec.thread);
        self.window.push(
            rec.obj,
            RecentAccess {
                time: rec.time,
                site: rec.site,
                kind: rec.kind,
                thread: rec.thread,
                clock,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_sim::{SimConfig, Simulator, Workload, WorkloadBuilder};

    /// A recurring use-after-free race: `rounds` iterations of worker-uses /
    /// main-disposes on fresh objects, so the candidate identified in round
    /// k can be delayed in round k+1 of the *same* run.
    fn recurring_uaf(rounds: u32) -> Workload {
        let mut b = WorkloadBuilder::new("uaf-recurring");
        let objs = b.objects("conn", rounds);
        let started = b.event("started");
        let objs_w = objs.clone();
        let worker = b.script("worker", move |s| {
            s.wait(started);
            for o in &objs_w {
                s.compute(SimTime::from_us(200))
                    .use_(*o, "Worker.poll:11", SimTime::from_us(10))
                    .compute(SimTime::from_us(790));
            }
        });
        let objs_m = objs.clone();
        let main = b.script("main", move |s| {
            for o in &objs_m {
                s.init(*o, "Main.ctor:2", SimTime::from_us(5));
            }
            s.fork(worker).signal(started);
            for o in &objs_m {
                s.compute(SimTime::from_us(1_000)).dispose(
                    *o,
                    "Main.cleanup:8",
                    SimTime::from_us(5),
                );
            }
            s.join_children();
        });
        b.main(main);
        b.build()
    }

    #[test]
    fn online_identification_then_injection_exposes_bug_in_one_run() {
        let w = recurring_uaf(4);
        // Delay-free: clean.
        let r = Simulator::run(
            &w,
            SimConfig::with_seed(0).deterministic(),
            &mut waffle_sim::NullMonitor,
        );
        assert!(!r.manifested());
        // WaffleBasic: round 1 identifies {Worker.poll, Main.cleanup}; a
        // later round's use gets the 100ms delay and lands after the
        // dispose.
        let mut policy = OnlinePolicy::new(Pairing::MemOrder, OnlineState::default(), 7);
        let r = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut policy);
        assert!(r.manifested(), "delays: {:?}", r.delays.len());
        assert!(policy.take_journal().counters.injected >= 1);
        assert!(policy.into_state().delay_sites() >= 1);
        assert_eq!(r.delays[0].dur, OnlinePolicy::FIXED_DELAY);
    }

    #[test]
    fn candidates_persist_across_runs() {
        let w = recurring_uaf(1);
        let mut policy = OnlinePolicy::new(Pairing::MemOrder, OnlineState::default(), 7);
        let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut policy);
        let state = policy.into_state();
        // Both the UBI pair (init → use) and the UAF pair (use → dispose)
        // were identified: two delay locations.
        assert_eq!(state.delay_sites(), 2);
        // Round-trip through the persistence format.
        let state = OnlineState::from_json(&state.to_json().unwrap()).unwrap();
        // Second run starts with the candidate already known: the single
        // use instance gets delayed and the bug manifests.
        let mut policy = OnlinePolicy::new(Pairing::MemOrder, state, 7);
        let r = Simulator::run(&w, SimConfig::with_seed(1).deterministic(), &mut policy);
        assert!(r.manifested());
    }

    #[test]
    fn happens_before_inference_removes_synchronized_pairs() {
        // Worker uses the object, signals, main waits for the event and
        // disposes right after: the pair is a near-miss but is ordered by
        // the event. A delay at the use propagates into main's wait, so the
        // inference must remove the pair.
        let mut b = WorkloadBuilder::new("hb");
        let o = b.object("o");
        let started = b.event("started");
        let done = b.event("done");
        let worker = b.script("worker", move |s| {
            s.wait(started)
                .use_(o, "W.use:1", SimTime::from_us(10))
                .signal(done);
        });
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", SimTime::from_us(5))
                .fork(worker)
                .signal(started)
                .wait(done)
                .dispose(o, "M.dispose:9", SimTime::from_us(5))
                .join_children();
        });
        b.main(main);
        let w = b.build();
        // Run 1: identify the pair. Run 2: inject at the use; the delay
        // propagates through the event into main's block before the
        // dispose; the inference removes the pair. Run 3: no candidates.
        let mut state = OnlineState::default();
        for run in 0..3u64 {
            let mut policy = OnlinePolicy::new(Pairing::MemOrder, state, run);
            let r = Simulator::run(&w, SimConfig::with_seed(run).deterministic(), &mut policy);
            assert!(!r.manifested(), "ordered pair must never manifest");
            let injected = policy.take_journal().counters.injected;
            state = policy.into_state();
            match run {
                0 => assert!(state.delay_sites() >= 1),
                1 => {
                    assert!(injected >= 1);
                    assert!(
                        !state.removed.is_empty(),
                        "delay propagation must trigger pair removal"
                    );
                    assert_eq!(
                        state.delay_sites(),
                        0,
                        "all pairs are ordered and must be inferred away: {:?}",
                        state.candidates
                    );
                }
                _ => assert_eq!(injected, 0),
            }
        }
    }

    #[test]
    fn decay_eventually_silences_fruitless_sites() {
        let w = recurring_uaf(1);
        // Make the bug un-exposable by using a tiny delay; the site decays
        // to zero across runs and injections stop.
        let mut state = OnlineState::default();
        let mut total_injected = 0;
        for run in 0..30u64 {
            let mut policy =
                OnlinePolicy::with_params(Pairing::MemOrder, state, run, SimTime::from_us(10));
            let r = Simulator::run(&w, SimConfig::with_seed(run).deterministic(), &mut policy);
            assert!(!r.manifested());
            total_injected += policy.take_journal().counters.injected;
            state = policy.into_state();
        }
        // Two delay sites (the UBI init and the UAF use), each with a decay
        // budget of 10 injections.
        assert!(
            total_injected <= 20,
            "injected {total_injected} > decay budget"
        );
        assert!(state
            .decay
            .exhausted(*state.candidates.keys().next().expect("candidate survives")));
    }

    /// Two threads each make `rounds` thread-unsafe calls on the same
    /// dictionary, offset so the windows never overlap without delays.
    fn tsv_workload(rounds: u32) -> Workload {
        let mut b = WorkloadBuilder::new("tsv");
        let dict = b.object("dict");
        let started = b.event("started");
        let worker = b.script("worker", move |s| {
            s.wait(started);
            s.repeat(rounds, |s, _| {
                s.compute(SimTime::from_us(500)).unsafe_call(
                    dict,
                    "Worker.Add:3",
                    SimTime::from_us(50),
                );
            });
        });
        let main = b.script("main", move |s| {
            s.init(dict, "Main.ctor:1", SimTime::from_us(5))
                .fork(worker)
                .signal(started);
            s.repeat(rounds, |s, _| {
                s.compute(SimTime::from_us(200))
                    .unsafe_call(dict, "Main.Add:7", SimTime::from_us(50))
                    .compute(SimTime::from_us(350));
            });
            s.join_children();
        });
        b.main(main);
        b.build()
    }

    #[test]
    fn delay_free_run_has_no_violation_but_near_misses() {
        let w = tsv_workload(3);
        let r = Simulator::run(
            &w,
            SimConfig::with_seed(0).deterministic(),
            &mut waffle_sim::NullMonitor,
        );
        assert!(r.tsv_violations.is_empty());
    }

    #[test]
    fn tsvd_exposes_overlap_within_one_run() {
        let w = tsv_workload(6);
        let mut policy = OnlinePolicy::new(Pairing::Tsv, OnlineState::default(), 3);
        let r = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut policy);
        let injected = policy.take_journal().counters.injected;
        let state = policy.into_state();
        assert!(
            !r.tsv_violations.is_empty(),
            "injected={injected} pairs={:?}",
            state.candidates
        );
        assert!(injected >= 1);
    }

    #[test]
    fn tsvd_ignores_mem_order_accesses() {
        let mut b = WorkloadBuilder::new("mo-only");
        let o = b.object("o");
        let started = b.event("s");
        let worker = b.script("worker", move |s| {
            s.wait(started).use_(o, "W.use:1", SimTime::from_us(10));
        });
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", SimTime::from_us(5))
                .fork(worker)
                .signal(started)
                .compute(SimTime::from_us(500))
                .dispose(o, "M.dispose:2", SimTime::from_us(5))
                .join_children();
        });
        b.main(main);
        let w = b.build();
        let mut policy = OnlinePolicy::new(Pairing::Tsv, OnlineState::default(), 0);
        let r = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut policy);
        assert!(r.delays.is_empty());
        assert_eq!(policy.into_state().delay_sites(), 0);
    }

    #[test]
    fn noprep_exposes_recurring_bug_with_variable_delay() {
        // Recurring use-after-free: identified in round 1, the use gets a
        // gap-proportional delay in a later round.
        let mut b = WorkloadBuilder::new("noprep");
        let objs = b.objects("conn", 4);
        let started = b.event("s");
        let objs_w = objs.clone();
        let worker = b.script("worker", move |s| {
            s.wait(started);
            for o in &objs_w {
                s.compute(SimTime::from_us(200))
                    .use_(*o, "W.poll:1", SimTime::from_us(10))
                    .compute(SimTime::from_us(790));
            }
        });
        let objs_m = objs.clone();
        let main = b.script("main", move |s| {
            for o in &objs_m {
                s.init(*o, "M.ctor:1", SimTime::from_us(5));
            }
            s.fork(worker).signal(started);
            for o in &objs_m {
                s.compute(SimTime::from_us(1_000))
                    .dispose(*o, "M.free:9", SimTime::from_us(5));
            }
            s.join_children();
        });
        b.main(main);
        let w = b.build();
        let mut state = OnlineState::default();
        let mut manifested = false;
        for run in 0..5u64 {
            let mut policy = OnlinePolicy::no_prep(state, run);
            let r = Simulator::run(&w, SimConfig::with_seed(run).deterministic(), &mut policy);
            state = policy.into_state();
            if r.manifested() {
                // The injected delay was gap-proportional, not 100 ms.
                assert!(r.delays.iter().all(|d| d.dur < SimTime::from_ms(100)));
                manifested = true;
                break;
            }
        }
        assert!(manifested, "no-prep variant must expose the recurring bug");
    }

    #[test]
    fn runtime_clock_pruning_skips_fork_ordered_pairs() {
        // Parent inits then forks the child that uses: the online clocks
        // are ordered, so no candidate is admitted.
        let mut b = WorkloadBuilder::new("ordered");
        let o = b.object("o");
        let child = b.script("child", move |s| {
            s.use_(o, "C.use:1", SimTime::from_us(10));
        });
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", SimTime::from_us(5))
                .fork(child)
                .join_children();
        });
        b.main(main);
        let w = b.build();
        let mut policy = OnlinePolicy::no_prep(OnlineState::default(), 0);
        let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut policy);
        assert!(policy.into_state().candidates.is_empty());
    }

    #[test]
    fn fork_chain_orders_ancestors() {
        let mut p = OnlinePolicy::no_prep(OnlineState::default(), 0);
        p.on_fork(ThreadId(0), ThreadId(1), SimTime::ZERO);
        p.on_fork(ThreadId(1), ThreadId(2), SimTime::ZERO);
        // Snapshots taken now: the leaf knows everything its ancestors did
        // at fork time, so sibling-free chains compare as ordered.
        assert!(!p.clock(ThreadId(0)).is_empty());
        assert!(!p.clock(ThreadId(2)).is_empty());
    }

    #[test]
    fn siblings_are_concurrent() {
        let mut p = OnlinePolicy::no_prep(OnlineState::default(), 0);
        p.on_fork(ThreadId(0), ThreadId(1), SimTime::ZERO);
        p.on_fork(ThreadId(0), ThreadId(2), SimTime::ZERO);
        assert!(!p
            .clock(ThreadId(1))
            .order(&p.clock(ThreadId(2)))
            .is_ordered());
    }

    #[test]
    fn unknown_threads_have_empty_clocks() {
        let p = OnlinePolicy::no_prep(OnlineState::default(), 0);
        assert!(p.clock(ThreadId(9)).is_empty());
        // Without runtime clocks every thread's clock is empty.
        let mut basic = OnlinePolicy::new(Pairing::MemOrder, OnlineState::default(), 0);
        basic.on_fork(ThreadId(0), ThreadId(1), SimTime::ZERO);
        assert!(basic.clock(ThreadId(0)).is_empty());
    }
}
