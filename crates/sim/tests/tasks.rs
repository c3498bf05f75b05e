//! Integration tests for task-pool execution and async-local hooks.

use waffle_mem::AccessKind;
use waffle_sim::time::{ms, us};
use waffle_sim::{
    AccessRecord, Monitor, NullMonitor, SimConfig, SimTime, Simulator, TaskId, TaskParent,
    ThreadId, Workload, WorkloadBuilder,
};

/// Monitor that records task spawns and per-access task contexts.
#[derive(Default)]
struct TaskTap {
    spawns: Vec<(TaskParent, TaskId)>,
    accesses: Vec<AccessRecord>,
}

impl Monitor for TaskTap {
    fn on_task_spawn(&mut self, parent: TaskParent, task: TaskId, _time: SimTime) {
        self.spawns.push((parent, task));
    }
    fn on_access_post(&mut self, rec: &AccessRecord) {
        self.accesses.push(rec.clone());
    }
}

/// Each task with the worker that ran it, in the order `accesses` first
/// reach the task.
fn first_per_task<'a>(accesses: impl Iterator<Item = &'a AccessRecord>) -> Vec<(TaskId, ThreadId)> {
    let mut runs: Vec<(TaskId, ThreadId)> = Vec::new();
    for a in accesses {
        if let Some(task) = a.task.filter(|t| runs.iter().all(|(r, _)| r != t)) {
            runs.push((task, a.thread));
        }
    }
    runs
}

impl TaskTap {
    /// Each task with the worker that started it: its first access.
    fn starts(&self) -> Vec<(TaskId, ThreadId)> {
        first_per_task(self.accesses.iter())
    }

    /// Each task with the worker that finished it: its last access,
    /// latest task first.
    fn ends(&self) -> Vec<(TaskId, ThreadId)> {
        first_per_task(self.accesses.iter().rev())
    }
}

/// Main spawns `n_tasks` tasks, each initializing and using its own
/// object, then forks `n_workers` pool workers to drain the queue.
fn pool_workload(n_tasks: u32, n_workers: u32) -> Workload {
    let mut b = WorkloadBuilder::new("tasks.pool");
    let objs = b.objects("item", n_tasks);
    let task_scripts: Vec<_> = (0..n_tasks)
        .map(|i| {
            let o = objs[i as usize];
            b.script(format!("task{i}"), move |s| {
                s.init(o, "Task.setup", us(20))
                    .compute(ms(1))
                    .use_(o, "Task.work", us(30));
            })
        })
        .collect();
    let worker = b.script("pool-worker", |s| {
        s.run_tasks();
    });
    let main = b.script("main", move |s| {
        for t in &task_scripts {
            s.spawn_task(*t);
        }
        s.fork_n(worker, n_workers).join_children();
    });
    b.main(main);
    b.build()
}

#[test]
fn all_tasks_run_exactly_once() {
    let w = pool_workload(6, 2);
    let mut tap = TaskTap::default();
    let r = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut tap);
    assert!(!r.manifested());
    assert_eq!(r.tasks_spawned, 6);
    assert_eq!(tap.spawns.len(), 6);
    assert_eq!(tap.starts().len(), 6);
    assert_eq!(tap.ends().len(), 6);
    // Each task started exactly once, in spawn order overall.
    let mut started: Vec<u32> = tap.starts().iter().map(|(t, _)| t.0).collect();
    started.sort_unstable();
    assert_eq!(started, (0..6).collect::<Vec<_>>());
    // Every object went through its full lifecycle.
    assert_eq!(r.heap.inits, 6);
    assert_eq!(r.heap.uses, 6);
}

#[test]
fn tasks_are_shared_across_pool_workers() {
    let w = pool_workload(6, 2);
    let mut tap = TaskTap::default();
    let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut tap);
    let workers: std::collections::HashSet<ThreadId> =
        tap.starts().iter().map(|&(_, w)| w).collect();
    assert_eq!(workers.len(), 2, "both pool workers must pull tasks");
}

#[test]
fn accesses_carry_their_task_context() {
    let w = pool_workload(3, 1);
    let mut tap = TaskTap::default();
    let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut tap);
    // Every instrumented access in this workload runs inside some task.
    assert!(!tap.accesses.is_empty());
    for a in &tap.accesses {
        assert!(
            a.task.is_some(),
            "access at {} lacks task context",
            a.site.0
        );
    }
    // The task context matches the object index (task i owns object i).
    for a in &tap.accesses {
        assert_eq!(a.task.unwrap().0, a.obj.0);
    }
}

#[test]
fn nested_spawns_record_task_parents() {
    let mut b = WorkloadBuilder::new("tasks.nested");
    let o = b.object("o");
    let inner = b.script("inner", move |s| {
        s.init(o, "Inner.init", us(10));
    });
    let outer = b.script("outer", move |s| {
        s.compute(us(50)).spawn_task(inner);
    });
    let worker = b.script("worker", |s| {
        // Drain twice: the outer task enqueues the inner one mid-drain.
        s.run_tasks().compute(us(10)).run_tasks();
    });
    let main = b.script("main", move |s| {
        s.spawn_task(outer).fork(worker).join_children();
    });
    b.main(main);
    let w = b.build();
    let mut tap = TaskTap::default();
    let r = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut tap);
    assert_eq!(r.tasks_spawned, 2);
    assert_eq!(tap.spawns[0].0, TaskParent::Thread(ThreadId(0)));
    assert_eq!(tap.spawns[1].0, TaskParent::Task(TaskId(0)));
    assert_eq!(r.heap.inits, 1);
}

#[test]
fn worker_survives_a_faulting_task() {
    // A task that hits a NULL reference kills the *worker thread* (the
    // exception unwinds the whole stack), matching thread semantics; other
    // workers keep draining.
    let mut b = WorkloadBuilder::new("tasks.fault");
    let good = b.object("good");
    let bad = b.object("bad");
    let faulty = b.script("faulty", move |s| {
        s.use_(bad, "Faulty.use", us(10));
    });
    let fine = b.script("fine", move |s| {
        s.init(good, "Fine.init", us(10))
            .use_(good, "Fine.use", us(10));
    });
    let worker = b.script("worker", |s| {
        s.run_tasks();
    });
    let main = b.script("main", move |s| {
        s.spawn_task(faulty)
            .spawn_task(fine)
            .fork(worker)
            .fork(worker)
            .join_children();
    });
    b.main(main);
    let w = b.build();
    let r = Simulator::run(
        &w,
        SimConfig::with_seed(0).deterministic(),
        &mut NullMonitor,
    );
    assert!(r.manifested());
    assert_eq!(r.exceptions[0].error.access, AccessKind::Use);
    // The second worker still ran the healthy task.
    assert_eq!(r.heap.uses, 1);
    assert_eq!(r.stranded_threads, 0);
}

#[test]
fn run_tasks_on_empty_queue_is_a_no_op() {
    let mut b = WorkloadBuilder::new("tasks.empty");
    let main = b.script("main", |s| {
        s.run_tasks().compute(us(5));
    });
    b.main(main);
    let w = b.build();
    let r = Simulator::run(
        &w,
        SimConfig::with_seed(0).deterministic(),
        &mut NullMonitor,
    );
    assert_eq!(r.tasks_spawned, 0);
    assert_eq!(r.end_time, us(5));
}
