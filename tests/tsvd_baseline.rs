//! The TSVD comparison tooling: thread-safety-violation detection over the
//! same simulator.

use waffle_repro::inject::{OnlinePolicy, OnlineState, Pairing};
use waffle_repro::sim::time::{ms, us};
use waffle_repro::sim::{NullMonitor, SimConfig, Simulator, Workload, WorkloadBuilder};

/// Two threads make staggered thread-unsafe calls on a dictionary — never
/// overlapping without delays, always near misses.
fn tsv_workload() -> Workload {
    let mut b = WorkloadBuilder::new("it.tsv");
    let dict = b.object("dict");
    let started = b.event("s");
    let worker = b.script("worker", move |s| {
        s.wait(started);
        s.repeat(4, |s, r| {
            s.unsafe_call(dict, &format!("Worker.Add:{r}"), us(500))
                .pad(ms(90));
        });
    });
    let main = b.script("main", move |s| {
        s.init(dict, "M.ctor:1", us(30))
            .fork(worker)
            .signal(started)
            .pad(ms(45));
        s.repeat(4, |s, r| {
            s.unsafe_call(dict, &format!("Main.Get:{r}"), us(500))
                .pad(ms(90));
        });
        s.join_children();
    });
    b.main(main);
    b.build()
}

#[test]
fn no_violation_without_delays() {
    let w = tsv_workload();
    let r = Simulator::run(&w, SimConfig::with_seed(0), &mut NullMonitor);
    assert!(r.tsv_violations.is_empty());
}

#[test]
fn tsvd_exposes_the_overlap_within_two_runs() {
    let w = tsv_workload();
    let mut state = OnlineState::default();
    let mut exposed_in = None;
    for run in 1..=3u64 {
        let mut p = OnlinePolicy::new(Pairing::Tsv, state, run);
        let r = Simulator::run(&w, SimConfig::with_seed(run), &mut p);
        state = p.into_state();
        if !r.tsv_violations.is_empty() {
            exposed_in = Some(run);
            break;
        }
    }
    assert!(
        matches!(exposed_in, Some(1) | Some(2)),
        "TSVD should expose within two runs, got {exposed_in:?}"
    );
}

#[test]
fn tsvd_candidates_are_bidirectional() {
    let w = tsv_workload();
    let mut p = OnlinePolicy::new(Pairing::Tsv, OnlineState::default(), 1);
    let _ = Simulator::run(&w, SimConfig::with_seed(1), &mut p);
    let st = p.into_state();
    // Near-missing calls produce delay candidates in both directions.
    let worker_site = w.sites.lookup("Worker.Add:0");
    let main_site = w.sites.lookup("Main.Get:0");
    assert!(worker_site.is_some() && main_site.is_some());
    assert!(st.delay_sites() >= 2, "sites: {:?}", st.candidates);
}

#[test]
fn tsvd_overlap_stays_low_on_staggered_schedules() {
    // The §3.3 claim: TSVD's sparse candidate sites keep delay overlap low.
    let w = tsv_workload();
    let mut state = OnlineState::default();
    let mut ratios = Vec::new();
    for run in 1..=4u64 {
        let mut p = OnlinePolicy::new(Pairing::Tsv, state, run);
        let r = Simulator::run(&w, SimConfig::with_seed(run * 17), &mut p);
        state = p.into_state();
        if !r.delays.is_empty() {
            ratios.push(r.delay_overlap_ratio());
        }
    }
    assert!(!ratios.is_empty());
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(avg < 0.2, "TSVD overlap too high: {avg:.2}");
}
