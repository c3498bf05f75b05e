//! Soundness of the oracle's must-happen-before certificate.
//!
//! Under sequential consistency the reduced explorer answers a program
//! the certificate accepts without a search: `CleanWithinBound`, zero
//! deadlocks, zero states. Repair certification goes through the same
//! `explore`, so the certificate also picks which patches are emitted.
//! Here the naive explorer checks every accepted program at bound 3: it
//! must find it clean with zero deadlocks. The populations are the sc
//! generator, the suite inputs and weak scenarios run under sc, and the
//! emitted patch of every sc plant. The certificate must accept no
//! planted case, and a set of hand-built programs just outside its
//! fragment must be refused while the explorer's verdict on each stays
//! what it was.

use waffle_repro::apps::{all_apps, weak_scenarios};
use waffle_repro::fuzz::{
    derive_plan, explore, generate_case, synthesize_with_oracle, OracleConfig, OracleReport,
    OracleVerdict,
};
use waffle_repro::mem::NullRefKind;
use waffle_repro::sim::time::us;
use waffle_repro::sim::{MemoryModel, Workload, WorkloadBuilder};

/// Preemption bound of the naive confirmation (the fuzz-repair sc block's).
const BOUND: u32 = 3;

fn sc(reduce: bool) -> OracleConfig {
    OracleConfig {
        preemption_bound: BOUND,
        memory: MemoryModel::Sc,
        reduce,
        ..OracleConfig::default()
    }
}

/// Explores `w` as the product does; when the certificate answered,
/// checks it against the naive explorer. Returns whether it answered.
fn certified_and_confirmed(w: &Workload, what: &str) -> bool {
    let r = explore(w, &sc(true));
    if !r.static_certified {
        return false;
    }
    assert_eq!(
        (r.verdict, r.deadlocks, r.states_explored),
        (OracleVerdict::CleanWithinBound, 0, 0),
        "{what}: a certificate reports clean, deadlock-free and unexplored"
    );
    let naive = explore(w, &sc(false));
    assert_eq!(
        (naive.verdict, naive.deadlocks),
        (OracleVerdict::CleanWithinBound, 0),
        "{what}: certified, but the naive explorer disagrees"
    );
    true
}

#[test]
fn generated_sc_certificates_hold_on_every_schedule() {
    let mut certified = 0;
    for seed in 0..512 {
        let case = generate_case(seed);
        if certified_and_confirmed(&case.workload, &format!("sc seed {seed}")) {
            assert!(!case.truth.planted(), "sc seed {seed}: plant certified");
            certified += 1;
        }
    }
    assert!(certified > 0, "no generated control certified");
}

#[test]
fn suite_inputs_and_weak_scenarios_under_sc_hold() {
    let mut inputs = 0;
    let mut certified = 0;
    for app in all_apps() {
        for test in &app.tests {
            inputs += 1;
            certified += u32::from(certified_and_confirmed(&test.workload, &test.workload.name));
        }
    }
    assert_eq!(inputs, 113, "suite input count");
    assert!(certified > 0, "no suite input certified");
    for s in weak_scenarios() {
        certified_and_confirmed(&s.workload, s.name);
    }
}

/// Every emitted sc repair is re-checked: the certificate may have
/// chosen it, so the naive explorer must confirm it.
#[test]
fn patched_sc_plants_hold() {
    let (mut patched, mut certified) = (0, 0);
    for seed in 0..256 {
        let case = generate_case(seed);
        if !case.truth.planted() {
            continue;
        }
        let w = &case.workload;
        let OracleVerdict::Exposable { kind, obj, .. } = explore(w, &sc(true)).verdict else {
            panic!("sc seed {seed}: plant not exposable");
        };
        let plan = derive_plan(w, 1, MemoryModel::Sc);
        let rep = synthesize_with_oracle(w, &plan, kind, obj, &sc(true));
        let patch = rep.patch.expect("every sc plant repairs");
        let fixed = patch.apply(w).expect("emitted patch applies");
        patched += 1;
        let what = format!("sc seed {seed} patched");
        if certified_and_confirmed(&fixed, &what) {
            assert_eq!(rep.certified_states, 0, "{what}: states with a certificate");
            certified += 1;
        }
    }
    assert!(patched > 0 && certified > 0, "{certified} of {patched}");
}

/// The certificate needs no exploration, so the whole 4,096-seed sc
/// block of fuzz-repair is cheap to count: every control, no plant.
#[test]
fn certified_controls_in_the_fuzz_block_are_pinned() {
    let (mut controls, mut plants) = (0, 0);
    for seed in 0..4096 {
        let case = generate_case(seed);
        if explore(&case.workload, &sc(true)).static_certified {
            if case.truth.planted() {
                plants += 1;
            } else {
                controls += 1;
            }
        }
    }
    assert_eq!((controls, plants), (1688, 0));
}

/// Explores a hand-built program that the certificate must refuse.
fn refused(w: &Workload) -> OracleReport {
    let r = explore(w, &sc(true));
    assert!(!r.static_certified, "{}: certified", w.name);
    r
}

fn clean_with_deadlocks(r: &OracleReport) -> bool {
    r.verdict == OracleVerdict::CleanWithinBound && r.deadlocks > 0
}

fn exposes(r: &OracleReport, want: NullRefKind) -> bool {
    matches!(r.verdict, OracleVerdict::Exposable { kind, .. } if kind == want)
}

#[test]
fn a_use_ordered_only_by_a_lock_is_refused() {
    let mut b = WorkloadBuilder::new("refuse.lock_order");
    let (o, lk) = (b.object("o"), b.lock("mu"));
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
    let r = refused(&b.build());
    assert_eq!(
        (r.verdict, r.deadlocks),
        (OracleVerdict::CleanWithinBound, 0)
    );
}

#[test]
fn a_wait_signalled_only_after_joining_the_waiter_is_refused() {
    let mut b = WorkloadBuilder::new("refuse.join_cycle");
    let (o, ev) = (b.object("o"), b.event("late"));
    let child = b.script("child", move |s| {
        s.wait(ev).use_(o, "child.use", us(5));
    });
    let m = b.script("main", move |s| {
        s.init(o, "main.init", us(5))
            .fork(child)
            .join_children()
            .signal(ev);
    });
    b.main(m);
    assert!(clean_with_deadlocks(&refused(&b.build())));
}

#[test]
fn a_throw_before_the_signal_is_refused() {
    let mut b = WorkloadBuilder::new("refuse.throw");
    let (o, ev) = (b.object("o"), b.event("ready"));
    let child = b.script("child", move |s| {
        s.wait(ev).use_(o, "child.use", us(5));
    });
    let m = b.script("main", move |s| {
        s.init(o, "main.init", us(5))
            .fork(child)
            .throw("main.throw")
            .signal(ev);
    });
    b.main(m);
    assert!(clean_with_deadlocks(&refused(&b.build())));
}

#[test]
fn a_double_dispose_is_refused() {
    let mut b = WorkloadBuilder::new("refuse.double_dispose");
    let o = b.object("o");
    let m = b.script("main", move |s| {
        s.init(o, "main.init", us(5))
            .dispose(o, "main.dispose", us(5))
            .dispose(o, "main.dispose2", us(5));
    });
    b.main(m);
    assert!(exposes(&refused(&b.build()), NullRefKind::DisposeOnNull));
}

/// Exit releases the lock, so this one is clean; the fragment refuses
/// it anyway.
#[test]
fn an_acquire_held_at_exit_is_refused() {
    let mut b = WorkloadBuilder::new("refuse.held_at_exit");
    let (o, lk) = (b.object("o"), b.lock("mu"));
    let child = b.script("child", move |s| {
        s.acquire(lk).use_(o, "child.use", us(5));
    });
    let m = b.script("main", move |s| {
        s.init(o, "main.init", us(5))
            .fork(child)
            .join_children()
            .acquire(lk)
            .use_(o, "main.use", us(5))
            .release(lk);
    });
    b.main(m);
    let r = refused(&b.build());
    assert_eq!(
        (r.verdict, r.deadlocks),
        (OracleVerdict::CleanWithinBound, 0)
    );
}

#[test]
fn a_lock_order_inversion_is_refused() {
    let mut b = WorkloadBuilder::new("refuse.inversion");
    let (o, l1, l2) = (b.object("o"), b.lock("l1"), b.lock("l2"));
    let ab = b.script("ab", move |s| {
        s.acquire(l1)
            .use_(o, "ab.use", us(5))
            .acquire(l2)
            .release(l2)
            .release(l1);
    });
    let ba = b.script("ba", move |s| {
        s.acquire(l2)
            .use_(o, "ba.use", us(5))
            .acquire(l1)
            .release(l1)
            .release(l2);
    });
    let m = b.script("main", move |s| {
        s.init(o, "main.init", us(5))
            .fork(ab)
            .fork(ba)
            .join_children();
    });
    b.main(m);
    assert!(clean_with_deadlocks(&refused(&b.build())));
}

/// Every copy forks the next: the search runs into its state cap, and
/// the certificate refuses at the second fork of the script.
#[test]
fn a_self_forking_script_is_refused() {
    let mut b = WorkloadBuilder::new("refuse.self_fork");
    let o = b.object("o");
    let spawner = b.declare_script("spawner");
    b.define_script(spawner, move |s| {
        s.use_(o, "spawner.use", us(5)).fork(spawner);
    });
    let m = b.script("main", move |s| {
        s.init(o, "main.init", us(5)).fork(spawner).join_children();
    });
    b.main(m);
    let r = explore(
        &b.build(),
        &OracleConfig {
            max_states: 256,
            ..sc(true)
        },
    );
    assert!(!r.static_certified);
    assert_eq!(r.verdict, OracleVerdict::Truncated);
}

/// A signal before the init releases the reader early, whichever of
/// the event's two signals is laid out first.
#[test]
fn an_event_with_two_signals_is_refused() {
    for early_in_main in [false, true] {
        let mut b = WorkloadBuilder::new("refuse.two_signals");
        let (o, ev) = (b.object("o"), b.event("ready"));
        let other = b.script("other", move |s| {
            s.signal(ev);
        });
        let reader = b.script("reader", move |s| {
            s.wait(ev).use_(o, "reader.use", us(5));
        });
        let m = b.script("main", move |s| {
            s.fork(reader);
            if early_in_main {
                s.signal(ev).init(o, "main.init", us(5)).fork(other);
            } else {
                s.fork(other).init(o, "main.init", us(5)).signal(ev);
            }
            s.join_children();
        });
        b.main(m);
        let r = refused(&b.build());
        assert!(exposes(&r, NullRefKind::UseBeforeInit), "{r:?}");
    }
}
