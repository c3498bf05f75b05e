//! Edge-case integration tests for the simulation engine.

use waffle_mem::AccessKind;
use waffle_sim::time::{ms, us};
use waffle_sim::{
    AccessCtx, Monitor, NullMonitor, PreAction, SimConfig, SimTime, Simulator, Workload,
    WorkloadBuilder,
};

#[test]
fn deadline_cuts_through_a_pending_delay() {
    struct BigDelay;
    impl Monitor for BigDelay {
        fn on_access_pre(&mut self, _ctx: &AccessCtx<'_>) -> PreAction {
            PreAction::Delay(ms(500))
        }
    }
    let mut b = WorkloadBuilder::new("edge.deadline");
    let o = b.object("o");
    let main = b.script("main", move |s| {
        s.init(o, "M.init:1", us(10)).use_(o, "M.use:2", us(10));
    });
    b.main(main);
    let w = b.build();
    let cfg = SimConfig {
        deadline: Some(ms(100)),
        ..SimConfig::with_seed(0).deterministic()
    };
    let r = Simulator::run(&w, cfg, &mut BigDelay);
    assert!(r.timed_out);
    assert_eq!(r.end_time, ms(100));
    // The first delayed access never executed.
    assert_eq!(r.instrumented_ops, 0);
}

#[test]
fn throw_inside_a_task_unwinds_the_worker() {
    let mut b = WorkloadBuilder::new("edge.taskthrow");
    let o = b.object("o");
    let lk = b.lock("mu");
    let throwing = b.script("throwing-task", move |s| {
        s.acquire(lk).throw("Task.bail:7");
    });
    let healthy = b.script("healthy-task", move |s| {
        s.init(o, "Task.init:1", us(10));
    });
    let worker = b.script("worker", |s| {
        s.run_tasks();
    });
    let main = b.script("main", move |s| {
        s.spawn_task(throwing)
            .spawn_task(healthy)
            .fork(worker)
            .fork(worker)
            .join_children()
            .acquire(lk) // must not deadlock: the thrower released it
            .release(lk);
    });
    b.main(main);
    let w = b.build();
    let r = Simulator::run(
        &w,
        SimConfig::with_seed(0).deterministic(),
        &mut NullMonitor,
    );
    assert!(!r.manifested());
    assert_eq!(r.app_exceptions.len(), 1);
    assert_eq!(r.stranded_threads, 0);
    // The healthy task still ran (on the other worker).
    assert_eq!(r.heap.inits, 1);
}

#[test]
fn noise_respects_its_configured_bound() {
    let mut b = WorkloadBuilder::new("edge.noise");
    let main = b.script("main", |s| {
        s.compute(ms(100));
    });
    b.main(main);
    let w = b.build();
    for seed in 0..50 {
        let cfg = SimConfig {
            seed,
            timing_noise_pct: 10,
            ..SimConfig::default()
        };
        let r = Simulator::run(&w, cfg, &mut NullMonitor);
        assert!(
            r.end_time >= ms(90) && r.end_time <= ms(110),
            "seed {seed}: {} outside ±10%",
            r.end_time
        );
    }
}

#[test]
fn pads_are_noise_exempt() {
    let mut b = WorkloadBuilder::new("edge.pad");
    let main = b.script("main", |s| {
        s.pad(ms(100));
    });
    b.main(main);
    let w = b.build();
    for seed in 0..20 {
        let cfg = SimConfig {
            seed,
            timing_noise_pct: 30,
            ..SimConfig::default()
        };
        let r = Simulator::run(&w, cfg, &mut NullMonitor);
        assert_eq!(r.end_time, ms(100), "seed {seed}");
    }
}

#[test]
fn unsafe_call_on_disposed_object_is_a_mem_order_bug_too() {
    // The TSV instrumentation class still dereferences the object: calling
    // into a disposed dictionary raises the NULL-reference exception.
    let mut b = WorkloadBuilder::new("edge.tsvnull");
    let o = b.object("dict");
    let main = b.script("main", move |s| {
        s.init(o, "M.init:1", us(10))
            .dispose(o, "M.dispose:2", us(10))
            .unsafe_call(o, "M.Add:3", us(10));
    });
    b.main(main);
    let w = b.build();
    let r = Simulator::run(
        &w,
        SimConfig::with_seed(0).deterministic(),
        &mut NullMonitor,
    );
    assert!(r.manifested());
    assert_eq!(r.exceptions[0].error.access, AccessKind::UnsafeApiCall);
}

#[test]
fn thread_contexts_capture_the_moment_of_manifestation() {
    let mut b = WorkloadBuilder::new("edge.ctx");
    let o = b.object("o");
    let started = b.event("s");
    let worker = b.script("worker", move |s| {
        s.wait(started).pad(ms(2)).use_(o, "W.use:1", us(10));
    });
    let main = b.script("main", move |s| {
        s.init(o, "M.init:1", us(10))
            .fork(worker)
            .signal(started)
            .dispose(o, "M.dispose:9", us(10))
            .join_children();
    });
    b.main(main);
    let w = b.build();
    // Dispose precedes the worker's use here (no race needed): the use
    // faults and the contexts are snapshotted.
    let r = Simulator::run(
        &w,
        SimConfig::with_seed(0).deterministic(),
        &mut NullMonitor,
    );
    assert!(r.manifested());
    assert_eq!(r.thread_contexts.len(), 2);
    let faulting: Vec<_> = r.thread_contexts.iter().filter(|c| c.faulting).collect();
    assert_eq!(faulting.len(), 1);
    assert_eq!(faulting[0].script, "worker");
    // The faulting access is the last entry of the faulting context.
    let last = faulting[0].recent.last().unwrap();
    assert_eq!(last.kind, AccessKind::Use);
    // Contexts are only captured once (the first manifestation).
    let _ = SimTime::ZERO;
}

#[test]
fn site_dyn_counts_match_executed_accesses() {
    let mut b = WorkloadBuilder::new("edge.counts");
    let o = b.object("o");
    let main = b.script("main", move |s| {
        s.init(o, "a", us(1));
        for _ in 0..5 {
            s.use_(o, "b", us(1));
        }
    });
    b.main(main);
    let w = b.build();
    let r = Simulator::run(
        &w,
        SimConfig::with_seed(0).deterministic(),
        &mut NullMonitor,
    );
    let b_site = w.sites.lookup("b").unwrap();
    assert_eq!(r.dyn_count(b_site), 5);
    assert_eq!(r.instrumented_ops, 6);
}

fn workload_with_two_pools() -> Workload {
    let mut b = WorkloadBuilder::new("edge.twopools");
    let objs = b.objects("o", 4);
    let tasks: Vec<_> = (0..4)
        .map(|i| {
            let o = objs[i as usize];
            b.script(format!("t{i}"), move |s| {
                s.init(o, "T.init", us(10)).use_(o, "T.use", us(10));
            })
        })
        .collect();
    let worker = b.script("w", |s| {
        s.run_tasks();
    });
    let main = b.script("main", move |s| {
        for t in &tasks {
            s.spawn_task(*t);
        }
        s.fork(worker).join_children();
        for t in &tasks {
            s.spawn_task(*t);
        }
        s.fork(worker).join_children();
    });
    b.main(main);
    b.build()
}

#[test]
fn task_queue_supports_multiple_drain_phases() {
    let w = workload_with_two_pools();
    let r = Simulator::run(
        &w,
        SimConfig::with_seed(0).deterministic(),
        &mut NullMonitor,
    );
    assert!(!r.manifested());
    assert_eq!(r.tasks_spawned, 8);
    assert_eq!(r.heap.inits, 8);
}
