use super::*;
use waffle_sim::time::{ms, us};
use waffle_sim::WorkloadBuilder;

fn bound(k: u32) -> OracleConfig {
    OracleConfig {
        preemption_bound: k,
        ..OracleConfig::default()
    }
}

fn unreduced(cfg: &OracleConfig) -> OracleConfig {
    OracleConfig {
        reduce: false,
        ..*cfg
    }
}

/// Init and use race with no ordering edge: one preemption at the
/// parent's init access postpones it past the child's use.
fn racy_init() -> waffle_sim::Workload {
    let mut b = WorkloadBuilder::new("oracle.racy_init");
    let o = b.object("conn");
    let child = b.script("child", move |s| {
        s.compute(us(10)).use_(o, "child.use", us(5));
    });
    let m = b.script("main", move |s| {
        s.fork(child).init(o, "main.init", us(5)).join_children();
    });
    b.main(m);
    b.build()
}

#[test]
fn racy_init_is_exposable_with_one_preemption() {
    let r = explore(&racy_init(), &bound(1));
    assert!(
        matches!(
            r.verdict,
            OracleVerdict::Exposable {
                kind: NullRefKind::UseBeforeInit,
                ..
            }
        ),
        "verdict {:?}",
        r.verdict
    );
}

#[test]
fn racy_init_is_clean_at_bound_zero() {
    // Main is scheduled first and runs to its first access (the init)
    // before the child can be picked; without a preemption the init
    // always commits before any switch.
    let r = explore(&racy_init(), &bound(0));
    assert_eq!(r.verdict, OracleVerdict::CleanWithinBound);
}

#[test]
fn event_ordered_init_is_clean_at_any_bound() {
    let mut b = WorkloadBuilder::new("oracle.ordered");
    let o = b.object("conn");
    let ev = b.event("ready");
    let child = b.script("child", move |s| {
        s.wait(ev).use_(o, "child.use", us(5));
    });
    let m = b.script("main", move |s| {
        s.fork(child)
            .init(o, "main.init", us(5))
            .signal(ev)
            .join_children();
    });
    b.main(m);
    let w = b.build();
    // The certificate answers without a search; the search must agree.
    let r = explore(&w, &bound(3));
    assert!(r.static_certified && r.states_explored == 0, "{r:?}");
    let r = search(&w, &bound(3));
    assert_eq!(r.verdict, OracleVerdict::CleanWithinBound);
    assert!(!r.static_certified && r.states_explored > 0, "{r:?}");
}

#[test]
fn use_after_dispose_race_needs_no_preemption() {
    // Dispose-before-join: the child's use races the parent's dispose
    // through a free blocking switch (parent runs to completion of its
    // dispose, then blocks at join; the child then uses a disposed
    // ref). Exposable at bound 0.
    let mut b = WorkloadBuilder::new("oracle.uaf");
    let o = b.object("conn");
    let ev = b.event("go");
    let child = b.script("child", move |s| {
        s.wait(ev).compute(ms(1)).use_(o, "child.use", us(5));
    });
    let m = b.script("main", move |s| {
        s.init(o, "main.init", us(5))
            .fork(child)
            .signal(ev)
            .dispose(o, "main.dispose", us(5))
            .join_children();
    });
    b.main(m);
    let r = explore(&b.build(), &bound(0));
    assert!(
        matches!(
            r.verdict,
            OracleVerdict::Exposable {
                kind: NullRefKind::UseAfterFree,
                ..
            }
        ),
        "verdict {:?}",
        r.verdict
    );
}

#[test]
fn double_locked_race_is_unexposable_by_access_preemption() {
    // Both accesses are wrapped in the same lock and main acquires it
    // before its first preemption point (the init access). A switch to
    // the child just blocks it on the queue, so the use can never jump
    // ahead of the init — which is exactly delay injection's power: a
    // delay at the init holds the lock with it. The oracle must NOT
    // call this exposable, or it would charge the detector with
    // unreachable false negatives.
    let mut b = WorkloadBuilder::new("oracle.lock2");
    let o = b.object("conn");
    let lk = b.lock("mu");
    let child = b.script("child", move |s| {
        s.acquire(lk).use_(o, "child.use", us(5)).release(lk);
    });
    let m = b.script("main", move |s| {
        s.fork(child)
            .acquire(lk)
            .init(o, "main.init", us(5))
            .release(lk)
            .join_children();
    });
    b.main(m);
    let r = explore(&b.build(), &bound(3));
    assert_eq!(r.verdict, OracleVerdict::CleanWithinBound);
}

#[test]
fn fifo_lock_handoff_is_exercised_on_an_exposing_path() {
    // The witness schedule must park the child in the lock's FIFO
    // queue (switch while main holds the lock), hand the lock off at
    // main's release, and then commit main's dispose before the
    // child's queued use: blocked-enqueue, wake-with-pc-advance, and
    // the error all on one path.
    let mut b = WorkloadBuilder::new("oracle.fifo");
    let o = b.object("conn");
    let lk = b.lock("mu");
    let child = b.script("child", move |s| {
        s.acquire(lk).use_(o, "child.use", us(5)).release(lk);
    });
    let m = b.script("main", move |s| {
        s.acquire(lk)
            .fork(child)
            .init(o, "main.init", us(5))
            .release(lk)
            .dispose(o, "main.dispose", us(5))
            .join_children();
    });
    b.main(m);
    let r = explore(&b.build(), &bound(1));
    assert!(
        matches!(
            r.verdict,
            OracleVerdict::Exposable {
                kind: NullRefKind::UseAfterFree,
                ..
            }
        ),
        "verdict {:?}",
        r.verdict
    );
}

#[test]
fn task_queue_frames_round_trip() {
    // A pool worker drains two tasks; one uses an object initialized
    // only by the second task — order in the FIFO queue protects it,
    // so the workload is clean.
    let mut b = WorkloadBuilder::new("oracle.tasks");
    let o = b.object("doc");
    let t_init = b.script("t_init", move |s| {
        s.init(o, "task.init", us(5));
    });
    let t_use = b.script("t_use", move |s| {
        s.use_(o, "task.use", us(5));
    });
    let m = b.script("main", move |s| {
        s.spawn_task(t_init).spawn_task(t_use).run_tasks();
    });
    b.main(m);
    let r = explore(&b.build(), &bound(2));
    assert_eq!(r.verdict, OracleVerdict::CleanWithinBound);
}

#[test]
fn state_cap_truncates() {
    let r = explore(
        &racy_init(),
        &OracleConfig {
            preemption_bound: 1,
            max_states: 1,
            ..OracleConfig::default()
        },
    );
    // Either the witness is found within one state or the cap fires;
    // with the reorderings-first visit order the cap fires.
    assert!(matches!(
        r.verdict,
        OracleVerdict::Truncated | OracleVerdict::Exposable { .. }
    ));
}

/// Many independent per-thread objects: every interleaving of the
/// accesses reaches the same states through different orders, so the
/// space is dense with memo revisits (and, with reduction on, sleep-set
/// prunes).
fn independent_grid(threads: u32) -> waffle_sim::Workload {
    let mut b = WorkloadBuilder::new("oracle.grid");
    let mut scripts = Vec::new();
    for i in 0..threads {
        let o = b.object(&format!("obj{i}"));
        scripts.push(b.script(format!("worker{i}"), move |s| {
            s.init(o, "w.init", us(5)).use_(o, "w.use", us(5));
        }));
    }
    let m = b.script("main", move |s| {
        for &sc in &scripts {
            s.fork(sc);
        }
        s.join_children();
    });
    b.main(m);
    b.build()
}

/// Satellite regression: revisits pruned by the memo (and budget
/// upgrades re-expanded) must not count toward `max_states`. Setting the
/// cap to exactly the frontier size of an unconstrained run must
/// therefore still produce a full (non-truncated) verdict.
#[test]
fn memo_revisits_do_not_inflate_the_state_cap() {
    let w = independent_grid(3);
    let full = explore(&w, &unreduced(&bound(2)));
    assert_eq!(full.verdict, OracleVerdict::CleanWithinBound);
    assert!(
        full.memo_hits > 0 && full.revisits > 0,
        "grid workload should be revisit-heavy: {full:?}"
    );
    let capped = explore(
        &w,
        &OracleConfig {
            preemption_bound: 2,
            max_states: full.states_explored,
            memory: MemoryModel::Sc,
            reduce: false,
        },
    );
    assert_eq!(
        capped.verdict,
        OracleVerdict::CleanWithinBound,
        "cap equal to the true frontier must not truncate (revisits charged?)"
    );
    assert_eq!(capped.states_explored, full.states_explored);
}

/// The reduction must actually reduce: on the independent grid the
/// reduced frontier is strictly smaller and sleep prunes fire, while the
/// verdict matches the naive explorer. The grid is certified without a
/// search, so the reduced side calls the search itself.
#[test]
fn sleep_sets_prune_independent_interleavings() {
    let w = independent_grid(4);
    assert!(explore(&w, &bound(2)).static_certified);
    let naive = explore(&w, &unreduced(&bound(2)));
    let reduced = search(&w, &bound(2));
    assert_eq!(naive.verdict, reduced.verdict);
    assert!(reduced.sleep_prunes > 0, "no sleep prunes: {reduced:?}");
    assert!(
        reduced.states_explored < naive.states_explored,
        "reduction did not shrink the frontier: {} vs {}",
        reduced.states_explored,
        naive.states_explored
    );
}

#[test]
fn witness_replays_to_the_same_manifestation() {
    for (w, model, k) in [
        (racy_init(), MemoryModel::Sc, 1),
        (racy_init(), MemoryModel::Tso, 1),
    ] {
        for reduce in [false, true] {
            let cfg = OracleConfig {
                preemption_bound: k,
                memory: model,
                reduce,
                ..OracleConfig::default()
            };
            let r = explore(&w, &cfg);
            let OracleVerdict::Exposable {
                kind,
                obj,
                preemptions,
            } = r.verdict
            else {
                panic!("expected exposable, got {:?}", r.verdict);
            };
            assert!(preemptions <= k, "witness overspent: {preemptions} > {k}");
            assert!(!r.witness.is_empty());
            let replay = replay_schedule(&w, model, &r.witness)
                .expect("witness schedule must replay to a manifestation");
            assert_eq!(replay.kind, kind);
            assert_eq!(replay.obj, obj);
            assert_eq!(replay.preemptions, preemptions);
        }
    }
}

#[test]
fn clean_reports_have_no_witness() {
    let r = explore(&racy_init(), &bound(0));
    assert!(r.witness.is_empty());
    assert!(replay_schedule(&racy_init(), MemoryModel::Sc, &[]).is_none());
}

/// A malformed schedule (switch to a blocked thread, out-of-range drain)
/// replays to `None`, never a panic.
#[test]
fn replay_rejects_malformed_schedules() {
    let w = racy_init();
    assert!(replay_schedule(&w, MemoryModel::Sc, &[ScheduleStep::Switch(99)]).is_none());
    assert!(replay_schedule(
        &w,
        MemoryModel::Tso,
        &[ScheduleStep::Drain { thread: 0, idx: 7 }]
    )
    .is_none());
}

/// Weak-model spot check in-module (the exhaustive reduced-vs-unreduced
/// sweep lives in `tests/oracle_equivalence.rs`): a TSO store left in
/// the buffer past an event signal is the canonical reordering bug, and
/// both explorers must agree it is exposable under TSO and clean under
/// SC.
#[test]
fn tso_buffered_publish_agrees_across_reduction() {
    let mut b = WorkloadBuilder::new("oracle.tso_pub");
    let o = b.object("data");
    let ev = b.event("ready");
    let reader = b.script("reader", move |s| {
        s.wait(ev).use_(o, "reader.use", us(5));
    });
    let m = b.script("main", move |s| {
        s.fork(reader)
            .init(o, "main.init", us(5))
            .signal(ev)
            .join_children();
    });
    b.main(m);
    let w = b.build();
    for model in [MemoryModel::Sc, MemoryModel::Tso] {
        let cfg = OracleConfig {
            preemption_bound: 2,
            memory: model,
            ..OracleConfig::default()
        };
        // Under `Sc` the certificate would answer; compare the searches.
        let reduced = search(&w, &cfg);
        let naive = explore(&w, &unreduced(&cfg));
        assert_eq!(reduced.verdict, naive.verdict, "model {model:?}");
        match model {
            MemoryModel::Sc => assert_eq!(reduced.verdict, OracleVerdict::CleanWithinBound),
            _ => assert!(reduced.exposable(), "verdict {:?}", reduced.verdict),
        }
    }
}

/// A wait with no matching signal deadlocks every schedule: the verdict
/// is clean (nothing manifests), but the deadlock counter must expose
/// the vacuity — repair certification refuses such "clean" reports.
#[test]
fn unmatched_wait_counts_as_a_deadlock_not_a_clean_pass() {
    let mut b = WorkloadBuilder::new("oracle.deadlock");
    let o = b.object("conn");
    let ev = b.event("never");
    let child = b.script("child", move |s| {
        s.wait(ev).use_(o, "child.use", us(5));
    });
    let m = b.script("main", move |s| {
        s.init(o, "main.init", us(5)).fork(child).join_children();
    });
    b.main(m);
    let w = b.build();
    for reduce in [true, false] {
        let cfg = OracleConfig { reduce, ..bound(2) };
        let r = explore(&w, &cfg);
        assert_eq!(
            r.verdict,
            OracleVerdict::CleanWithinBound,
            "reduce {reduce}"
        );
        assert!(r.deadlocks > 0, "deadlock not counted (reduce {reduce})");
    }
}

/// Deadlock-free workloads report zero deadlocks under both explorers.
#[test]
fn clean_and_exposable_workloads_report_zero_deadlocks() {
    for reduce in [true, false] {
        let cfg = OracleConfig { reduce, ..bound(2) };
        let r = explore(&racy_init(), &cfg);
        assert!(r.exposable());
        assert_eq!(r.deadlocks, 0, "reduce {reduce}");
    }
}

/// The certificate answers every sc control without a search, so no
/// ledger counter moves if the sc search regresses. This pins the search
/// itself over fuzz-repair's sc population: the certified controls of
/// generator seeds 0..64 at its sc bound, reduction on.
#[test]
fn sc_search_over_certified_controls_is_pinned() {
    let cfg = bound(3);
    let (mut controls, mut states, mut sleep_prunes, mut memo_hits) = (0, 0, 0, 0);
    for seed in 0..64 {
        let case = crate::gen::generate_case(seed);
        if case.truth.planted() || !order::certify(&case.workload) {
            continue;
        }
        let r = search(&case.workload, &cfg);
        assert_eq!(r.verdict, OracleVerdict::CleanWithinBound, "seed {seed}");
        assert_eq!(r.deadlocks, 0, "seed {seed}");
        controls += 1;
        states += r.states_explored;
        sleep_prunes += r.sleep_prunes;
        memo_hits += r.memo_hits;
    }
    assert_eq!(
        (controls, states, sleep_prunes, memo_hits),
        (25, 11_125, 4_728, 12_051)
    );
}
