//! `engine_rate`: wall-clock throughput of the simulator dispatch loop
//! and of parallel detection attempts (`run_experiment` at several worker
//! counts), written to `BENCH_core.json`.
//! Window per measurement: `WAFFLE_BENCH_MS`.
//!
//! Stages are [`Ledger::time`] means per iteration: `sim_dispatch` counts
//! simulated events, `engine_attempts_jobs<N>` counts detection attempts
//! (events/s and attempts/s are `count * 1e9 / wall_ns`; speedups over
//! `jobs1` mean nothing at jobs above `env.available_parallelism`). The
//! counters are the dispatch run's event count, the telemetry of one
//! sequential reference experiment (fixed seeds), where injection-behavior
//! drift shows even when throughput stays flat, and the allocation calls
//! of one Bug-16 base run, preparation run and detection attempt.
//!
//! Gates: each `alloc/*` count is at most its [`ALLOC_BUDGET`] entry.
//! The counts are exact on one toolchain (single-threaded, fixed seeds,
//! and independent of what the process ran before), so a change that adds
//! an allocation to a simulated run fails the bench.

use std::hint::black_box;

use waffle_bench::{alloc, Ledger};
use waffle_core::{attempt_seed, run_experiment, run_seed, Detector, DetectorConfig, Tool};
use waffle_sim::{NullMonitor, SimConfig, SimTime, Simulator, Workload, WorkloadBuilder};
use waffle_trace::TraceRecorder;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Attempts per engine measurement (kept small: each attempt is a full
/// prepare-and-detect cycle).
const ATTEMPTS: u32 = 8;
/// Detection runs per attempt.
const MAX_RUNS: u32 = 4;
/// Allocation calls allowed for one Bug-16 base run, one preparation run
/// (from `TraceRecorder::new` to dropping the trace) and one detection
/// attempt: the counts measured when the gates were set.
const ALLOC_BUDGET: [(&str, u64); 3] = [
    ("alloc/base_run", 40),
    ("alloc/prep_run", 61),
    ("alloc/attempt", 681),
];

/// Allocation calls made while `f` runs, its result dropped included.
fn allocs<R>(f: impl FnOnce() -> R) -> u64 {
    let before = alloc::calls();
    drop(f());
    alloc::calls() - before
}

/// A dispatch-heavy workload: two worker threads each touching the shared
/// object through hundreds of distinct sites, so the measurement is
/// dominated by the simulator's ready-queue and access bookkeeping.
fn dispatch_workload() -> Workload {
    let mut b = WorkloadBuilder::new("bench.engine_rate.dispatch");
    let o = b.object("o");
    let mut workers = Vec::new();
    for t in 0..2 {
        workers.push(b.script(format!("worker{t}"), move |s| {
            for i in 0..300 {
                s.use_(o, &format!("W{t}.use:{i}"), SimTime::from_us(1));
            }
        }));
    }
    let main = b.script("main", move |s| {
        s.init(o, "M.init:1", SimTime::from_us(1));
        for w in &workers {
            s.fork(*w);
        }
        s.join_children()
            .dispose(o, "M.dispose:9", SimTime::from_us(1));
    });
    b.main(main);
    b.build()
}

fn main() {
    let mut ledger = Ledger::new("core");
    ledger
        .param("attempts", u64::from(ATTEMPTS))
        .param("max_detection_runs", u64::from(MAX_RUNS));

    let dispatch = dispatch_workload();
    let events_per_run =
        Simulator::run(&dispatch, SimConfig::with_seed(0), &mut NullMonitor).ops_executed;
    ledger.time("sim_dispatch", events_per_run, || {
        Simulator::run(
            black_box(&dispatch),
            SimConfig::with_seed(0),
            &mut NullMonitor,
        )
    });

    // Bug-16's heavy-churn MQTT.Net input: each attempt costs enough
    // simulation that fan-out wins over the per-worker spawn cost, the
    // regime parallel attempts exist for.
    let racy = waffle_apps::bug_workload(16).expect("Bug-16 workload exists");
    let det = Detector::with_config(
        Tool::waffle(),
        DetectorConfig {
            max_detection_runs: MAX_RUNS,
            ..DetectorConfig::default()
        },
    );
    let telemetry = run_experiment(&det, &racy, ATTEMPTS, 1).telemetry.counters;
    // The detector's first attempt, run by run: base, then preparation
    // with its deadline, then the whole attempt.
    let seed = attempt_seed(0);
    let base_cfg = SimConfig::with_seed(run_seed(seed, 0));
    let base_time = Simulator::run(&racy, base_cfg.clone(), &mut NullMonitor).end_time;
    let prep_cfg = SimConfig {
        seed: run_seed(seed, 1),
        deadline: Some(base_time * DetectorConfig::default().deadline_factor),
        ..SimConfig::default()
    };
    let alloc_counts = [
        allocs(|| Simulator::run(&racy, base_cfg, &mut NullMonitor)),
        allocs(|| {
            let mut rec = TraceRecorder::new(&racy);
            Simulator::run(&racy, prep_cfg, &mut rec);
            rec.into_trace()
        }),
        allocs(|| det.detect(&racy, seed)),
    ];
    let mut job_counts = vec![1usize, 2];
    if ledger.env.available_parallelism > 2 {
        job_counts.push(ledger.env.available_parallelism as usize);
    }
    for jobs in job_counts {
        ledger.time(
            &format!("engine_attempts_jobs{jobs}"),
            u64::from(ATTEMPTS),
            || run_experiment(black_box(&det), black_box(&racy), ATTEMPTS, jobs),
        );
    }

    ledger
        .counter("sim_dispatch/events", events_per_run)
        .counter("telemetry/injected", telemetry.injected)
        .counter(
            "telemetry/skipped_probability",
            telemetry.skipped_probability,
        )
        .counter(
            "telemetry/skipped_interference",
            telemetry.skipped_interference,
        )
        .counter("telemetry/decay_steps", telemetry.decay_steps)
        .counter("telemetry/instrumented_ops", telemetry.instrumented_ops);
    for ((name, budget), count) in ALLOC_BUDGET.into_iter().zip(alloc_counts) {
        ledger
            .counter(name, count)
            .max(name, count as f64, budget as f64);
    }
    ledger.write();
}
