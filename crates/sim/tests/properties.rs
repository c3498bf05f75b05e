//! Property-based tests for simulator invariants.

use proptest::prelude::*;
use waffle_mem::AccessKind;
use waffle_sim::{
    AccessRecord, Monitor, NullMonitor, PreAction, SimConfig, SimTime, Simulator, Workload,
    WorkloadBuilder,
};

/// Records every access so properties can inspect per-thread order.
#[derive(Default)]
struct Recorder {
    accesses: Vec<AccessRecord>,
}

impl Monitor for Recorder {
    fn on_access_post(&mut self, rec: &AccessRecord) {
        self.accesses.push(rec.clone());
    }
}

/// Monitor that injects a fixed delay before every `Init`.
struct DelayInits(SimTime);

impl Monitor for DelayInits {
    fn on_access_pre(&mut self, ctx: &waffle_sim::AccessCtx<'_>) -> PreAction {
        if ctx.kind == AccessKind::Init {
            PreAction::Delay(self.0)
        } else {
            PreAction::Proceed
        }
    }
}

/// Builds a properly synchronized workload: main inits `n_objs` objects,
/// forks `n_workers` workers that use them (each worker waits on an event
/// signalled after all inits), joins, then disposes.
fn safe_workload(n_objs: u32, n_workers: u32, work_us: u64) -> Workload {
    let mut b = WorkloadBuilder::new("prop.safe");
    let objs = b.objects("o", n_objs);
    let ready = b.event("ready");
    let objs2 = objs.clone();
    let worker = b.script("worker", move |s| {
        s.wait(ready);
        for (i, o) in objs2.iter().enumerate() {
            s.compute(SimTime::from_us(work_us)).use_(
                *o,
                &format!("W.use:{i}"),
                SimTime::from_us(5),
            );
        }
    });
    let objs3 = objs.clone();
    let main = b.script("main", move |s| {
        for (i, o) in objs3.iter().enumerate() {
            s.init(*o, &format!("M.init:{i}"), SimTime::from_us(10));
        }
        s.fork_n(worker, n_workers).signal(ready).join_children();
        for (i, o) in objs3.iter().enumerate() {
            s.dispose(*o, &format!("M.dispose:{i}"), SimTime::from_us(5));
        }
    });
    b.main(main);
    b.build()
}

/// A racy use-before-init workload: the worker uses the object after
/// `gap_us`; main initializes it right away. Safe unless the init is
/// delayed past the use.
fn racy_workload(gap_us: u64) -> Workload {
    let mut b = WorkloadBuilder::new("prop.racy");
    let o = b.object("o");
    let worker = b.script("worker", move |s| {
        s.compute(SimTime::from_us(gap_us))
            .use_(o, "W.use:1", SimTime::from_us(5));
    });
    let main = b.script("main", move |s| {
        s.fork(worker)
            .init(o, "M.init:1", SimTime::from_us(5))
            .join_children();
    });
    b.main(main);
    b.build()
}

proptest! {
    /// Properly synchronized workloads never manifest, for any seed/noise.
    #[test]
    fn synchronized_workloads_never_manifest(
        n_objs in 1u32..6,
        n_workers in 1u32..5,
        work in 1u64..200,
        seed in 0u64..1000,
        noise in 0u32..20,
    ) {
        let w = safe_workload(n_objs, n_workers, work);
        let cfg = SimConfig { seed, timing_noise_pct: noise, ..SimConfig::default() };
        let r = Simulator::run(&w, cfg, &mut NullMonitor);
        prop_assert!(!r.manifested(), "exceptions: {:?}", r.exceptions);
        prop_assert_eq!(r.stranded_threads, 0);
        prop_assert_eq!(r.heap.null_ref_errors, 0);
    }

    /// Per-thread access timestamps are monotonically non-decreasing, and
    /// dynamic indices per site count up from zero.
    #[test]
    fn per_thread_time_is_monotone(
        n_objs in 1u32..4,
        n_workers in 1u32..4,
        seed in 0u64..500,
    ) {
        let w = safe_workload(n_objs, n_workers, 20);
        let mut rec = Recorder::default();
        let cfg = SimConfig { seed, timing_noise_pct: 10, ..SimConfig::default() };
        let _ = Simulator::run(&w, cfg, &mut rec);
        use std::collections::HashMap;
        let mut last_time = HashMap::new();
        let mut dyn_count: HashMap<_, u64> = HashMap::new();
        for a in &rec.accesses {
            let prev = last_time.insert(a.thread, a.time).unwrap_or(SimTime::ZERO);
            prop_assert!(a.time >= prev, "thread time went backwards");
            let c = dyn_count.entry(a.site).or_insert(0);
            prop_assert_eq!(a.dyn_index, *c, "dyn index out of order");
            *c += 1;
        }
    }

    /// Identical configurations reproduce identical results bit-for-bit.
    #[test]
    fn runs_are_reproducible(seed in 0u64..1000, noise in 0u32..25) {
        let w = safe_workload(3, 2, 50);
        let cfg = SimConfig { seed, timing_noise_pct: noise, ..SimConfig::default() };
        let r1 = Simulator::run(&w, cfg.clone(), &mut NullMonitor);
        let r2 = Simulator::run(&w, cfg, &mut NullMonitor);
        prop_assert_eq!(r1.end_time, r2.end_time);
        prop_assert_eq!(r1.ops_executed, r2.ops_executed);
        prop_assert_eq!(r1.blocked, r2.blocked);
    }

    /// The Fig. 2 order-violation condition: a delay longer than the gap
    /// between the threads' operations flips the order and manifests the
    /// bug; a much shorter delay does not. (Noise off for sharp bounds.)
    #[test]
    fn delay_threshold_controls_manifestation(gap in 20u64..5_000) {
        let w = racy_workload(gap);
        let cfg = SimConfig::with_seed(0).deterministic();
        // No delay: init (at ~20µs after fork cost) precedes the use
        // (the 20 µs fork cost + gap): clean as long as gap ≥ init completion.
        let r = Simulator::run(&w, cfg.clone(), &mut NullMonitor);
        prop_assert!(!r.manifested());
        // Delay > gap: the init lands after the use → manifestation.
        let mut long = DelayInits(SimTime::from_us(gap + 100));
        let r = Simulator::run(&w, cfg.clone(), &mut long);
        prop_assert!(r.manifested());
        // Delay ≪ gap: still clean.
        if gap > 40 {
            let mut short = DelayInits(SimTime::from_us(gap / 4));
            let r = Simulator::run(&w, cfg, &mut short);
            prop_assert!(!r.manifested());
        }
    }

    /// End-to-end time dominates every single thread's total service time
    /// (work is never lost), and equals it for single-threaded workloads.
    #[test]
    fn end_time_dominates_serial_work(durs in proptest::collection::vec(1u64..500, 1..20)) {
        let mut b = WorkloadBuilder::new("serial");
        let total: u64 = durs.iter().sum();
        let main = b.script("main", |s| {
            for d in &durs {
                s.compute(SimTime::from_us(*d));
            }
        });
        b.main(main);
        let w = b.build();
        let r = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut NullMonitor);
        prop_assert_eq!(r.end_time, SimTime::from_us(total));
    }

    /// Mutual exclusion: N contending 1ms critical sections serialize, so
    /// the run takes at least N ms.
    #[test]
    fn lock_critical_sections_serialize(n in 2u32..6, seed in 0u64..200) {
        let mut b = WorkloadBuilder::new("mutex");
        let lk = b.lock("mu");
        let worker = b.script("worker", |s| {
            s.acquire(lk).compute(SimTime::from_ms(1)).release(lk);
        });
        let main = b.script("main", |s| {
            s.fork_n(worker, n).join_children();
        });
        b.main(main);
        let w = b.build();
        let cfg = SimConfig { seed, timing_noise_pct: 0, ..SimConfig::default() };
        let r = Simulator::run(&w, cfg, &mut NullMonitor);
        prop_assert!(r.end_time >= SimTime::from_ms(n as u64));
        prop_assert_eq!(r.stranded_threads, 0);
    }
}
