//! Property tests for the injection policies.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use waffle_analysis::{analyze, AnalyzerConfig};
use waffle_inject::decay::{INITIAL_PERMILLE, LAMBDA_PERMILLE};
use waffle_inject::{DecayState, OnlinePolicy, Pairing, WafflePolicy};
use waffle_mem::SiteId;
use waffle_sim::time::{ms, us};
use waffle_sim::{SimConfig, SimTime, Simulator, Workload, WorkloadBuilder};
use waffle_trace::TraceRecorder;

proptest! {
    /// Decay never rises, never goes below zero, and exhausts in exactly
    /// ⌈initial/λ⌉ injections.
    #[test]
    fn decay_is_monotone_and_bounded(injections in 0u32..40) {
        let mut d = DecayState::default();
        let site = SiteId(1);
        let mut prev = d.permille(site);
        prop_assert_eq!(prev, INITIAL_PERMILLE);
        for _ in 0..injections {
            d.record_injection(site);
            let cur = d.permille(site);
            prop_assert!(cur <= prev);
            prev = cur;
        }
        let exhausted_at = INITIAL_PERMILLE.div_ceil(LAMBDA_PERMILLE);
        prop_assert_eq!(d.exhausted(site), injections >= exhausted_at);
    }

    /// A roll at probability 0 never fires; at ≥1000 it always fires.
    #[test]
    fn roll_extremes_are_deterministic(seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut zero = DecayState::default();
        while !zero.exhausted(SiteId(0)) {
            zero.record_injection(SiteId(0));
        }
        prop_assert!(!zero.roll(SiteId(0), &mut rng));
        let full = DecayState::default();
        prop_assert!(full.roll(SiteId(9), &mut rng));
    }

    /// The Waffle policy only ever delays the plan's candidate locations,
    /// and never injects more than the decay budget per site.
    #[test]
    fn waffle_policy_respects_plan_and_budget(
        gap_ms in 2u64..40,
        seed in 0u64..200,
    ) {
        let w = racy(gap_ms);
        let plan = plan_for(&w);
        let delay_sites: std::collections::HashSet<SiteId> =
            plan.delay_sites().collect();
        let mut decay = DecayState::default();
        let mut total: std::collections::HashMap<SiteId, u32> = Default::default();
        for run in 0..12u64 {
            let mut p = WafflePolicy::new(plan.clone(), decay, seed + run);
            let r = Simulator::run(&w, SimConfig::with_seed(seed + run), &mut p);
            decay = p.into_decay();
            for d in &r.delays {
                prop_assert!(
                    delay_sites.contains(&d.site),
                    "delayed non-candidate {}",
                    d.site
                );
                *total.entry(d.site).or_default() += 1;
            }
            if r.manifested() {
                break;
            }
        }
        for (site, n) in total {
            prop_assert!(n <= 7, "site {site} injected {n} times past the budget");
        }
    }

    /// WaffleBasic's candidate set only contains sites that actually
    /// executed, and the delay ledger matches its own injection counter.
    #[test]
    fn basic_policy_bookkeeping_is_consistent(seed in 0u64..200) {
        let w = racy(10);
        let mut p = OnlinePolicy::new(Pairing::MemOrder, Default::default(), seed);
        let r = Simulator::run(&w, SimConfig::with_seed(seed), &mut p);
        let injected = p.take_journal().counters.injected;
        let state = p.into_state();
        prop_assert_eq!(injected as usize, r.delays.len());
        for (l1, partners) in &state.candidates {
            prop_assert!(r.dyn_count(*l1) > 0);
            for l2 in partners {
                prop_assert!(r.dyn_count(*l2) > 0);
            }
        }
    }
}

/// A small racy workload parameterized by its gap.
fn racy(gap_ms: u64) -> Workload {
    let mut b = WorkloadBuilder::new("prop.racy");
    let o = b.object("o");
    let started = b.event("s");
    let worker = b.script("worker", move |s| {
        s.wait(started).pad(ms(3)).use_(o, "W.use:1", us(30));
    });
    let main = b.script("main", move |s| {
        s.init(o, "M.init:1", us(30))
            .fork(worker)
            .signal(started)
            .pad(ms(3) + ms(gap_ms))
            .dispose(o, "M.dispose:9", us(30))
            .join_children();
    });
    b.main(main);
    b.build()
}

fn plan_for(w: &Workload) -> waffle_analysis::Plan {
    let mut rec = TraceRecorder::with_overhead(w, SimTime::ZERO);
    let _ = Simulator::run(w, SimConfig::with_seed(0), &mut rec);
    analyze(&rec.into_trace(), &AnalyzerConfig::default())
}
