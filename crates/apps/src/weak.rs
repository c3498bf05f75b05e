//! Curated weak-memory scenarios (ROADMAP item 3(a)).
//!
//! Each scenario is a small, fixed-timing workload whose seeded bug lives
//! *in the store buffers*: under sequential consistency every schedule is
//! clean (the signal/poll protocol orders the racing accesses), but under
//! the scenario's memory model a store lingering in a buffer lets another
//! thread read a stale reference. The fenced twins restore the ordering
//! with an explicit drain point at the publication and must stay clean
//! under every model — they are the experiment's negative controls.
//!
//! These are deliberately *not* part of [`crate::all_apps`]: the Table 3/4
//! suite is the paper's SC benchmark and its counts are pinned by tests.
//! Scenarios resolve by name through [`weak_scenarios`]/[`weak_scenario`]
//! and the CLI's `--memory-model` paths.

use waffle_mem::NullRefKind;
use waffle_sim::{Cond, MemoryModel, RepairKind, SimTime, Workload, WorkloadBuilder};

/// A curated weak-memory workload plus its ground truth.
#[derive(Debug, Clone)]
pub struct WeakScenario {
    /// Workload name (`weak.*`), resolvable from the CLI.
    pub name: &'static str,
    /// Weakest model the seeded bug needs (`Sc` never exposes it; the
    /// fenced controls are clean under every model).
    pub model: MemoryModel,
    /// Expected manifestation class, `None` for the fenced controls.
    pub expected: Option<NullRefKind>,
    /// The repair fix synthesis certifies for the seeded bug (`None` for
    /// the fenced controls, which expose nothing to repair). All three
    /// planted reorderings are fixed by the cheapest production — the
    /// fence the fenced twin already carries; pinned by
    /// `tests/repair_differential.rs` against actual synthesis.
    pub expected_repair: Option<RepairKind>,
    /// One-line description of the reordering at fault.
    pub summary: &'static str,
    /// The workload itself.
    pub workload: Workload,
}

fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

/// Reader polls this long past the publication before touching the racy
/// object: 100× the 50 µs drain latency (never stale naturally), well
/// under the analyzer's δ = 100 ms (always a delay-plan candidate).
const POLL_OFF: u64 = 5_000;
/// The publisher stays busy this long after publishing, so its next
/// forced drain point (the join) lands after the reader's access.
const BUSY: u64 = 12_000;

/// TSO handoff: main initializes the object, then signals the consumer.
/// The signal is not a drain point — the init can still be sitting in
/// main's store buffer when the woken consumer reads, and a delay
/// injected at the init stretches that window past the consumer's poll.
fn tso_handoff(fenced: bool) -> Workload {
    let name = if fenced {
        "weak.tso_handoff_fenced"
    } else {
        "weak.tso_handoff"
    };
    let mut b = WorkloadBuilder::new(name);
    let conn = b.object("conn");
    let ready = b.event("ready");
    let consumer = b.script("consumer", move |s| {
        s.wait(ready)
            .compute(us(POLL_OFF))
            .use_(conn, "Consumer.Run:12", us(40));
    });
    let m = b.script("main", move |s| {
        s.pad(us(300))
            .fork(consumer)
            .init(conn, "Server.Start:4", us(60));
        if fenced {
            s.fence();
        }
        s.signal(ready).compute(us(BUSY)).join_children();
        s.dispose(conn, "Server.Stop:9", us(30));
    });
    b.main(m);
    b.build()
}

/// TSO recycle: dispose and re-init of the same slot are both buffered;
/// FIFO drains the dispose first, so a stretched re-init leaves the
/// *disposed* value visible to the reader — a use-after-free with no
/// use-after-free in program order.
fn tso_recycle() -> Workload {
    let mut b = WorkloadBuilder::new("weak.tso_recycle");
    let slot = b.object("slot");
    let ready = b.event("ready");
    let reader = b.script("reader", move |s| {
        s.wait(ready)
            .compute(us(POLL_OFF))
            .use_(slot, "Pool.Borrow:21", us(40));
    });
    let m = b.script("main", move |s| {
        s.pad(us(300))
            .init(slot, "Pool.Seed:3", us(30))
            .fork(reader)
            .dispose(slot, "Pool.Evict:15", us(30))
            .init(slot, "Pool.Refill:16", us(60))
            .signal(ready)
            .compute(us(BUSY))
            .join_children();
        s.dispose(slot, "Pool.Drain:28", us(30));
    });
    b.main(m);
    b.build()
}

/// PSO data/flag publication: the flag store may drain before the data
/// store (per-object FIFO only), so the guarded reader sees the flag set
/// while the data reference is still null. TSO's total store order — and
/// the fenced twin under any model — protects this shape.
fn pso_flag(fenced: bool) -> Workload {
    let name = if fenced {
        "weak.pso_flag_fenced"
    } else {
        "weak.pso_flag"
    };
    let mut b = WorkloadBuilder::new(name);
    let data = b.object("data");
    let flag = b.object("flag");
    let reader = b.script("reader", move |s| {
        s.compute(us(POLL_OFF)).skip_if(flag, Cond::IsNull, 1).use_(
            data,
            "Cache.Lookup:31",
            us(40),
        );
    });
    let m = b.script("main", move |s| {
        s.pad(us(300))
            .fork(reader)
            .init(data, "Cache.Fill:7", us(60));
        if fenced {
            s.fence();
        }
        s.init(flag, "Cache.Publish:8", us(20))
            .compute(us(BUSY))
            .join_children();
        s.dispose(data, "Cache.Clear:40", us(30))
            .dispose(flag, "Cache.Retire:41", us(20));
    });
    b.main(m);
    b.build()
}

/// The five curated scenarios: three seeded reordering bugs plus the two
/// fenced negative controls.
pub fn weak_scenarios() -> Vec<WeakScenario> {
    vec![
        WeakScenario {
            name: "weak.tso_handoff",
            model: MemoryModel::Tso,
            expected: Some(NullRefKind::UseBeforeInit),
            expected_repair: Some(RepairKind::Fence),
            summary: "init buffered past the ready signal; consumer reads null",
            workload: tso_handoff(false),
        },
        WeakScenario {
            name: "weak.tso_handoff_fenced",
            model: MemoryModel::Tso,
            expected: None,
            expected_repair: None,
            summary: "handoff with a fence before the signal (control)",
            workload: tso_handoff(true),
        },
        WeakScenario {
            name: "weak.tso_recycle",
            model: MemoryModel::Tso,
            expected: Some(NullRefKind::UseAfterFree),
            expected_repair: Some(RepairKind::Fence),
            summary: "dispose drains first, re-init stretched; reader sees disposed slot",
            workload: tso_recycle(),
        },
        WeakScenario {
            name: "weak.pso_flag",
            model: MemoryModel::Pso,
            expected: Some(NullRefKind::UseBeforeInit),
            expected_repair: Some(RepairKind::Fence),
            summary: "flag outruns data to memory; guarded read sees null data",
            workload: pso_flag(false),
        },
        WeakScenario {
            name: "weak.pso_flag_fenced",
            model: MemoryModel::Pso,
            expected: None,
            expected_repair: None,
            summary: "data/flag publication with a fence between (control)",
            workload: pso_flag(true),
        },
    ]
}

/// Looks up one scenario by workload name.
pub fn weak_scenario(name: &str) -> Option<WeakScenario> {
    weak_scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_validate_and_names_are_unique() {
        let scenarios = weak_scenarios();
        assert_eq!(scenarios.len(), 5);
        let planted = scenarios.iter().filter(|s| s.expected.is_some()).count();
        assert_eq!(planted, 3, "three seeded reordering bugs");
        let mut names: Vec<_> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
        for s in &scenarios {
            assert_eq!(s.workload.name, s.name);
            s.workload
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(s.model.is_weak());
        }
    }

    #[test]
    fn lookup_by_name_works() {
        assert!(weak_scenario("weak.pso_flag").is_some());
        assert!(weak_scenario("weak.nonesuch").is_none());
    }
}
