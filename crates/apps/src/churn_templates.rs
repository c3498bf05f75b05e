//! Bug templates embedded in heavy connection churn.
//!
//! The NpgSQL and MQTT.Net bugs of Table 4 live in allocation-heavy
//! applications: the bug's delay location competes with many *hot*
//! candidate locations. For WaffleBasic, the hot locations mean a flood of
//! fixed 100 ms delays (the NpgSQL 25× overhead and the MQTT.Net timeouts
//! of Table 5). For Waffle, the hot locations interfere with the bug's
//! delay location (they execute on the partner location's thread within
//! the Fig. 5 window), so the first detection run(s) skip the critical
//! delay until the hot sites' probabilities decay — which is why these
//! bugs take 3–4 runs (§6.3).

use waffle_sim::time::us;
use waffle_sim::{SimTime, Workload, WorkloadBuilder};

use crate::templates::BugSites;

/// Knobs for the churn backbone.
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Scan cycles the cleanup thread performs before the bug window.
    pub scan_objects: u32,
    /// Re-scan cycles the cleanup thread performs *inside* the bug window
    /// (the interference source for Waffle's `I`: their delays are ongoing
    /// when the racing check executes, and their decay across detection
    /// runs is what spreads the exposure over 3–4 runs).
    pub rescan_objects: u32,
    /// Churn rounds driven by the main thread.
    pub rounds: u32,
    /// Connections per churn round.
    pub conns_per_round: u32,
    /// Gap between a connection's last use and its disposal (the hot
    /// near-miss gap; also the hot sites' planned delay length ÷ α).
    pub hot_gap: SimTime,
}

/// Fig. 4b interference embedded in churn (the MQTT.Net / NetMQ-heavy
/// shape).
///
/// Threads:
/// - `main`: churn producer — per round, initializes connections, signals
///   the worker, waits, disposes them `hot_gap` after the worker's last
///   use (hot near-miss pairs, event-ordered, never exposable);
/// - `worker`: uses every connection of the round; at `worker_at` it also
///   performs the racing check on the poller (`sites.use_`);
/// - `cleanup`: scans `scan_objects` sessions (hot candidate instances on
///   the *cleanup* thread — the interference source for the plan's `I`),
///   performs the same check (`sites.use_`, the Fig. 4b second instance),
///   then disposes the poller.
#[allow(clippy::too_many_arguments)]
pub fn instances_in_churn(
    name: &str,
    sites: BugSites,
    worker_at: SimTime,
    cleanup_at: SimTime,
    check_to_dispose: SimTime,
    checks: u32,
    pad: SimTime,
    churn: ChurnParams,
) -> Workload {
    let mut b = WorkloadBuilder::new(name);
    let poller = b.object("m_poller");
    let sessions = b.objects("session", churn.scan_objects);
    let late_sessions = b.objects("late_session", churn.rescan_objects);
    let conns = b.objects("conn", churn.rounds * churn.conns_per_round);
    let started = b.event("started");
    let scanned = b.event("scanned");
    let phase = b.event("phase");
    let round_ready: Vec<_> = (0..churn.rounds)
        .map(|i| b.event(&format!("r{i}")))
        .collect();
    let round_done: Vec<_> = (0..churn.rounds)
        .map(|i| b.event(&format!("d{i}")))
        .collect();

    let conns_w = conns.clone();
    let ready_w = round_ready.clone();
    let done_w = round_done.clone();
    let rounds = churn.rounds;
    let cpr = churn.conns_per_round;
    let worker = b.script("worker", move |s| {
        s.wait(started);
        for r in 0..rounds {
            s.wait(ready_w[r as usize]);
            for c in 0..cpr {
                let conn = conns_w[(r * cpr + c) as usize];
                s.compute(us(120))
                    .use_(conn, &format!("Conn.execute:{c}"), us(30))
                    .use_(conn, &format!("Conn.read:{c}"), us(20));
            }
            s.signal(done_w[r as usize]);
        }
        // The racing check: re-anchored on the phase event.
        s.wait(phase)
            .compute(worker_at)
            .use_(poller, sites.use_, us(30));
    });

    let sessions_c = sessions.clone();
    let late_c = late_sessions.clone();
    let cleanup = b.script("cleanup", move |s| {
        s.wait(started).pad(SimTime::from_ms(110));
        // Hot candidate instances on the cleanup thread: session scans,
        // disposed by main shortly after `scanned` (event-ordered).
        for o in &sessions_c {
            s.compute(us(150)).use_(*o, "Cleanup.scan", us(25));
        }
        s.signal(scanned).wait(phase).compute(cleanup_at);
        // Re-scans inside the bug window: the first one's planned delay
        // covers the racing check's moment (interference); the later ones
        // run past it. All of them shift the dispose when delayed, which
        // is what cancels WaffleBasic's fixed delays deterministically.
        for o in &late_c {
            s.use_(*o, "Cleanup.rescan", us(25))
                .compute(SimTime::from_ms(4));
        }
        for _ in 0..checks.max(1) {
            s.use_(poller, sites.use_, us(30)).compute(us(200));
        }
        s.compute(check_to_dispose)
            .dispose(poller, sites.dispose, us(40));
    });

    let conns_m = conns.clone();
    let sessions_m = sessions.clone();
    let late_m = late_sessions.clone();
    let hot_gap = churn.hot_gap;
    let main = b.script("main", move |s| {
        s.pad(pad).init(poller, sites.init, us(60));
        for (i, o) in sessions_m.iter().enumerate() {
            s.init(*o, &format!("Session.open:{i}"), us(30));
        }
        for (i, o) in late_m.iter().enumerate() {
            s.init(*o, &format!("LateSession.open:{i}"), us(30));
        }
        s.fork(worker).fork(cleanup).signal(started);
        for r in 0..rounds {
            for c in 0..cpr {
                let conn = conns_m[(r * cpr + c) as usize];
                s.init(conn, &format!("Pool.rent:{c}"), us(35));
            }
            s.signal(round_ready[r as usize]);
            s.wait(round_done[r as usize]);
            s.compute(hot_gap);
            for c in 0..cpr {
                let conn = conns_m[(r * cpr + c) as usize];
                s.dispose(conn, &format!("Pool.return:{c}"), us(25));
            }
        }
        s.wait(scanned).compute(hot_gap);
        for (i, o) in sessions_m.iter().enumerate() {
            s.dispose(*o, &format!("Session.close:{i}"), us(25));
        }
        s.signal(phase).join_children();
        // Late sessions are recycled after the bug window completes, a
        // near-miss away from the cleanup's re-scans.
        for (i, o) in late_m.iter().enumerate() {
            s.dispose(*o, &format!("LateSession.close:{i}"), us(25));
        }
        s.pad(pad);
    });
    b.main(main);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_sim::time::ms;
    use waffle_sim::{NullMonitor, SimConfig, Simulator};

    const SITES: BugSites = BugSites {
        init: "C.init:1",
        use_: "C.use:2",
        dispose: "C.dispose:3",
    };

    fn churn() -> ChurnParams {
        ChurnParams {
            scan_objects: 6,
            rescan_objects: 3,
            rounds: 4,
            conns_per_round: 5,
            hot_gap: ms(2),
        }
    }

    #[test]
    fn churn_templates_are_clean_without_delays() {
        for seed in 0..6 {
            let cfg = SimConfig {
                seed,
                timing_noise_pct: 5,
                ..SimConfig::default()
            };
            let w = instances_in_churn("c.inst", SITES, ms(3), ms(1), ms(8), 1, ms(20), churn());
            let r = Simulator::run(&w, cfg, &mut NullMonitor);
            assert!(!r.manifested(), "instances_in_churn manifested");
            assert_eq!(r.stranded_threads, 0);
        }
    }

    #[test]
    fn churn_produces_hot_candidate_sites() {
        // The hot sites (Conn.execute/Pool.return pairs etc.) must be
        // within the near-miss window so they become candidates.
        use waffle_analysis::{analyze, AnalyzerConfig};
        use waffle_trace::TraceRecorder;
        let w = instances_in_churn("c.hot", SITES, ms(3), ms(1), ms(8), 1, ms(20), churn());
        let mut rec = TraceRecorder::with_overhead(&w, SimTime::ZERO);
        let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut rec);
        let plan = analyze(&rec.into_trace(), &AnalyzerConfig::default());
        assert!(
            plan.delay_len.len() >= 3,
            "expected hot candidates, got {:?}",
            plan.candidates
        );
        // The racing check interferes with the cleanup thread's scans.
        let check = w.sites.lookup(SITES.use_).unwrap();
        let rescan = w.sites.lookup("Cleanup.rescan").unwrap();
        assert!(
            plan.interference.interferes(check, rescan),
            "interference {:?}",
            plan.interference
        );
    }
}
