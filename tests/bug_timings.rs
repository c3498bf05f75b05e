//! Parameter pins: the seeded bugs' timing properties, measured from
//! preparation runs, must stay where the Table 4 tuning put them. These
//! tests guard the workload parameters against accidental regression —
//! the detection shapes (runs, misses) all derive from these gaps.

use waffle_repro::analysis::{analyze, AnalyzerConfig, BugKind, Plan};
use waffle_repro::apps::bug_workload;
use waffle_repro::sim::{SimConfig, SimTime, Simulator, Workload};
use waffle_repro::trace::TraceRecorder;

fn plan_for(id: u32) -> (Workload, Plan) {
    let w = bug_workload(id).unwrap();
    let mut rec = TraceRecorder::new(&w);
    let _ = Simulator::run(&w, SimConfig::with_seed(1), &mut rec);
    let plan = analyze(&rec.into_trace(), &AnalyzerConfig::default());
    (w, plan)
}

fn gap_of(w: &Workload, plan: &Plan, delay_site: &str) -> SimTime {
    let site = w.sites.lookup(delay_site).expect("site exists");
    plan.candidates
        .iter()
        .filter(|c| c.delay_site == site)
        .map(|c| c.max_gap)
        .max()
        .expect("candidate exists")
}

fn assert_ms_range(gap: SimTime, lo_ms: u64, hi_ms: u64, what: &str) {
    assert!(
        gap >= SimTime::from_ms(lo_ms) && gap <= SimTime::from_ms(hi_ms),
        "{what}: gap {gap} outside [{lo_ms}ms, {hi_ms}ms]"
    );
}

#[test]
fn single_instance_bug_gaps_are_pinned() {
    // (bug, delay site, expected gap band in ms)
    for (id, site, lo, hi) in [
        (1u32, "Channel.OnData:94", 35u64, 46u64), // 40ms gap
        (2, "Session.InitSemaphore:12", 22, 30),   // 25ms
        (5, "Generator.Emit:73", 26, 36),          // 30ms
        (7, "AssertionScope.FailWith:52", 54, 68), // 60ms
        (14, "TelemetryBuffer.ctor:14", 7, 10),    // 8ms
        (18, "Informer.GetCached:27", 13, 18),     // 15ms
    ] {
        let (w, plan) = plan_for(id);
        assert_ms_range(gap_of(&w, &plan, site), lo, hi, &format!("Bug-{id}"));
    }
}

#[test]
fn bug_4_has_the_tightest_gap_in_the_suite() {
    // NSubstitute #573: the ~2ms use-before-init.
    let (w, plan) = plan_for(4);
    let gap = gap_of(&w, &plan, "SubstituteBuilder.Build:11");
    assert!(
        gap >= SimTime::from_ms(1) && gap <= SimTime::from_ms(4),
        "Bug-4 gap {gap}"
    );
}

#[test]
fn fig4a_bugs_carry_both_candidate_kinds_and_interference() {
    for (id, init_site, use_site) in [
        (10u32, "DiagnosticsLstnr.ctor:2", "OnEventWritten:8"),
        (8, "TransactionMonitor.Create:21", "Checkpoint.ReadSlot:64"),
        (13, "HubConnection.OnConnected:22", "Hub.InvokeClient:57"),
    ] {
        let (w, plan) = plan_for(id);
        let kinds: Vec<BugKind> = plan.candidates.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&BugKind::UseBeforeInit), "Bug-{id}");
        assert!(kinds.contains(&BugKind::UseAfterFree), "Bug-{id}");
        let a = w.sites.lookup(init_site).unwrap();
        let b = w.sites.lookup(use_site).unwrap();
        assert!(
            plan.interference.interferes(a, b),
            "Bug-{id}: the two delay sites must interfere"
        );
    }
}

#[test]
fn fig4b_bugs_carry_the_self_interference_pair() {
    for (id, check_site) in [
        (11u32, "ChkDisposed:11"),
        (15, "Worker.Dequeue:48"),
        (12, "Command.CheckPrepared:41"),
        (16, "PacketDispatcher.Check:19"),
        (17, "PublishQueue.Peek:44"),
    ] {
        let (w, plan) = plan_for(id);
        let s = w.sites.lookup(check_site).unwrap();
        assert!(
            plan.interference.interferes(s, s),
            "Bug-{id}: missing (ℓ, ℓ) self-interference for {check_site}"
        );
    }
}

#[test]
fn heavy_bugs_have_dense_candidate_sets() {
    // The NpgSQL/MQTT inputs carry the hot churn sites that flood
    // WaffleBasic and interfere with Waffle's critical delay.
    for (id, min_delay_sites) in [(12u32, 20usize), (16, 30), (17, 30)] {
        let (_w, plan) = plan_for(id);
        assert!(
            plan.delay_len.len() >= min_delay_sites,
            "Bug-{id}: only {} delay sites",
            plan.delay_len.len()
        );
    }
    // The light single-instance bugs stay sparse.
    for id in [1u32, 5, 7] {
        let (_w, plan) = plan_for(id);
        assert!(
            plan.delay_len.len() <= 10,
            "Bug-{id}: {} delay sites is no longer sparse",
            plan.delay_len.len()
        );
    }
}

#[test]
fn recurring_bugs_expose_multiple_dynamic_instances() {
    for (id, site) in [
        (3u32, "CallRouter.Route:42"),
        (6, "Formatter.ToString:88"),
        (9, "Watcher.OnEvent:71"),
    ] {
        let w = bug_workload(id).unwrap();
        let r = Simulator::run(
            &w,
            SimConfig::with_seed(1),
            &mut waffle_repro::sim::NullMonitor,
        );
        let s = w.sites.lookup(site).unwrap();
        assert!(
            r.dyn_count(s) >= 4,
            "Bug-{id}: {site} must recur (got {})",
            r.dyn_count(s)
        );
    }
}
