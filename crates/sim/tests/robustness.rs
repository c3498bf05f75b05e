//! Robustness: degenerate workloads must not wedge the engine.

use waffle_sim::time::{ms, us};
use waffle_sim::{NullMonitor, SimConfig, SimTime, Simulator, WorkloadBuilder};

#[test]
fn empty_main_script_terminates_immediately() {
    let mut b = WorkloadBuilder::new("rob.empty");
    let m = b.script("main", |_s| {});
    b.main(m);
    let r = Simulator::run(&b.build(), SimConfig::with_seed(0), &mut NullMonitor);
    assert_eq!(r.end_time, SimTime::ZERO);
    assert_eq!(r.ops_executed, 0);
    assert_eq!(r.threads_spawned, 1);
}

#[test]
fn exit_op_skips_the_rest_of_the_script() {
    let mut b = WorkloadBuilder::new("rob.exit");
    let o = b.object("o");
    let m = b.script("main", move |s| {
        s.init(o, "i", us(1)).exit().use_(o, "never", us(1));
    });
    b.main(m);
    let r = Simulator::run(&b.build(), SimConfig::with_seed(0), &mut NullMonitor);
    assert_eq!(r.heap.inits, 1);
    assert_eq!(r.heap.uses, 0);
}

#[test]
fn double_signal_is_idempotent() {
    let mut b = WorkloadBuilder::new("rob.signal2");
    let ev = b.event("e");
    let w = b.script("w", move |s| {
        s.wait(ev).compute(us(1)).wait(ev).compute(us(1));
    });
    let m = b.script("main", move |s| {
        s.signal(ev).signal(ev).fork(w).join_children();
    });
    b.main(m);
    let r = Simulator::run(&b.build(), SimConfig::with_seed(0), &mut NullMonitor);
    assert_eq!(r.stranded_threads, 0);
}

#[test]
fn release_of_unheld_lock_is_ignored() {
    let mut b = WorkloadBuilder::new("rob.release");
    let lk = b.lock("mu");
    let m = b.script("main", move |s| {
        s.release(lk).acquire(lk).release(lk).compute(us(1));
    });
    b.main(m);
    let w = b.build();
    // Default noise on, across many seeds: the engine's noise floor keeps
    // a 1µs compute at exactly 1µs (3% of 1µs truncates to zero in either
    // direction), so the exact end-time check holds for every seed.
    for seed in 0..32 {
        let r = Simulator::run(&w, SimConfig::with_seed(seed), &mut NullMonitor);
        assert_eq!(r.stranded_threads, 0, "seed {seed}");
        assert_eq!(r.end_time, us(1), "seed {seed}");
    }
}

#[test]
fn timing_noise_never_zeroes_a_nonzero_compute() {
    // The noise floor: at any noise level, a nonzero service time stays
    // nonzero, so noisy runs cannot collapse distinct schedule points onto
    // one timestamp.
    for pct in [1u32, 3, 10, 50] {
        for seed in 0..64 {
            let mut b = WorkloadBuilder::new("rob.floor");
            let m = b.script("main", |s| {
                s.compute(us(1));
            });
            b.main(m);
            let cfg = SimConfig {
                timing_noise_pct: pct,
                ..SimConfig::with_seed(seed)
            };
            let r = Simulator::run(&b.build(), cfg, &mut NullMonitor);
            assert!(
                r.end_time >= us(1),
                "pct {pct} seed {seed}: 1µs compute floored to {}",
                r.end_time
            );
        }
    }
}

#[test]
fn enormous_delays_saturate_instead_of_wrapping() {
    struct HugeDelay;
    impl waffle_sim::Monitor for HugeDelay {
        fn on_access_pre(&mut self, _c: &waffle_sim::AccessCtx<'_>) -> waffle_sim::PreAction {
            waffle_sim::PreAction::Delay(SimTime::MAX)
        }
    }
    let mut b = WorkloadBuilder::new("rob.huge");
    let o = b.object("o");
    let m = b.script("main", move |s| {
        s.init(o, "i", us(1));
    });
    b.main(m);
    let cfg = SimConfig {
        deadline: Some(ms(10)),
        ..SimConfig::with_seed(0)
    };
    let r = Simulator::run(&b.build(), cfg, &mut HugeDelay);
    assert!(r.timed_out);
    assert_eq!(r.end_time, ms(10));
}

#[test]
fn workload_without_sync_objects_runs() {
    let mut b = WorkloadBuilder::new("rob.plain");
    let m = b.script("main", |s| {
        s.compute(ms(1));
    });
    b.main(m);
    let w = b.build();
    assert_eq!(w.n_objects, 0);
    assert_eq!(w.n_locks, 0);
    let r = Simulator::run(&w, SimConfig::with_seed(0), &mut NullMonitor);
    assert!(!r.manifested());
}
