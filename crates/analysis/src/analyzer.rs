//! The end-to-end trace analyzer.

use std::collections::BTreeMap;

use waffle_mem::SiteId;
use waffle_sim::{MemoryModel, SimTime};
use waffle_trace::Trace;

use crate::candidates::{near_miss_candidates, NearMissConfig};
use crate::interference::{build_interference, InterferenceSet};
use crate::plan::Plan;

/// Analyzer configuration; the defaults are the paper's settings.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzerConfig {
    /// Near-miss window δ (default 100 ms, §6.1).
    pub delta: SimTime,
    /// Prune candidates ordered by fork-edge happens-before (§4.1).
    /// Disabled by the "no parent-child analysis" ablation.
    pub prune_parent_child: bool,
    /// Compute per-location delay lengths (§4.3). When disabled (the "no
    /// custom delay length" ablation), every candidate gets
    /// [`AnalyzerConfig::FIXED_DELAY`].
    pub variable_delay: bool,
    /// Build the interference set (§4.4). When disabled (the "no
    /// interference control" ablation), `I` is empty, so the detection
    /// runs never skip a delay for interference.
    pub interference_control: bool,
    /// Memory model the preparation run was simulated under; stamped into
    /// the plan as provenance so reports can say which model surfaced each
    /// candidate pair. Analysis itself is model-agnostic — the trace
    /// already reflects what each thread observed.
    pub memory: MemoryModel,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self {
            delta: SimTime::from_ms(100),
            prune_parent_child: true,
            variable_delay: true,
            interference_control: true,
            memory: MemoryModel::Sc,
        }
    }
}

impl AnalyzerConfig {
    /// Delay length of every candidate under the "no custom delay length"
    /// ablation: 100 ms, the TSVD/WaffleBasic setting.
    pub const FIXED_DELAY: SimTime = SimTime::from_ms(100);

    /// The "no parent-child analysis" ablation (Table 7 row 1).
    pub fn without_parent_child(mut self) -> Self {
        self.prune_parent_child = false;
        self
    }

    /// The "no custom delay length" ablation (Table 7 row 3).
    pub fn without_variable_delay(mut self) -> Self {
        self.variable_delay = false;
        self
    }

    /// The "no interference control" ablation (Table 7 row 4).
    pub fn without_interference_control(mut self) -> Self {
        self.interference_control = false;
        self
    }

    /// Tags plans with the memory model the preparation run simulated.
    pub fn with_memory(mut self, memory: MemoryModel) -> Self {
        self.memory = memory;
        self
    }
}

/// The delay planned for a near-miss gap: α = 1.15 times the gap (§4.3).
pub fn alpha_delay(gap: SimTime) -> SimTime {
    gap.scale(115, 100)
}

/// Per-location delay lengths (§4.3): the largest gap across the pairs
/// involving each delay site, scaled by α; or the fixed length under the
/// "no custom delay length" ablation. Shared by the fused pipeline and the
/// reference scanner so both plans agree byte-for-byte.
pub(crate) fn delay_plan(
    candidates: &[crate::candidates::CandidatePair],
    config: &AnalyzerConfig,
) -> BTreeMap<SiteId, SimTime> {
    let mut delay_len: BTreeMap<SiteId, SimTime> = BTreeMap::new();
    for c in candidates {
        let planned = if config.variable_delay {
            alpha_delay(c.max_gap)
        } else {
            AnalyzerConfig::FIXED_DELAY
        };
        let cur = delay_len.entry(c.delay_site).or_insert(SimTime::ZERO);
        *cur = (*cur).max(planned);
    }
    delay_len
}

/// Analyzes a preparation trace into a detection [`Plan`].
///
/// Builds the columnar [`waffle_trace::TraceIndex`] and runs the fused
/// single-pass pipeline sequentially. Use [`analyze_jobs`] to shard the
/// sweep across threads, or [`crate::pipeline::analyze_indexed`] directly
/// when an index is already in hand.
pub fn analyze(trace: &Trace, config: &AnalyzerConfig) -> Plan {
    analyze_jobs(trace, config, 1)
}

/// [`analyze`] with the near-miss sweep sharded across up to `jobs` worker
/// threads (objects are partitioned into contiguous slot ranges). The plan
/// is bit-identical for every `jobs` value — shard outputs merge in shard
/// order with commutative per-key folds — which
/// `tests/analysis_equivalence.rs` pins against the reference scanners.
pub fn analyze_jobs(trace: &Trace, config: &AnalyzerConfig, jobs: usize) -> Plan {
    let index = waffle_trace::TraceIndex::build(trace);
    crate::pipeline::analyze_indexed(&index, config, jobs)
}

/// Reference composition of the per-pass scanners: the near-miss candidate
/// scan ([`near_miss_candidates`]) followed by a separate whole-trace
/// interference scan ([`build_interference`]). Kept as the semantic spec
/// the fused pipeline is equivalence-tested against; production paths go
/// through [`analyze`]/[`analyze_jobs`].
pub fn analyze_unindexed(trace: &Trace, config: &AnalyzerConfig) -> Plan {
    let (candidates, stats) = near_miss_candidates(
        trace,
        &NearMissConfig {
            delta: config.delta,
            prune_ordered: config.prune_parent_child,
        },
    );
    let delay_len = delay_plan(&candidates, config);
    let interference = if config.interference_control {
        build_interference(trace, &candidates, config.delta)
    } else {
        InterferenceSet::new()
    };
    Plan {
        workload: trace.workload.clone(),
        candidates,
        delay_len,
        interference,
        delta: config.delta,
        stats,
        memory_model: config.memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_sim::{SimConfig, Simulator, WorkloadBuilder};
    use waffle_trace::TraceRecorder;

    /// Trace the Fig. 4a shape: main inits then disposes; a sibling handler
    /// uses the object in between. Yields both a UBI and a UAF candidate on
    /// the same object, and the two delay sites interfere.
    fn fig4a_trace() -> Trace {
        let mut b = WorkloadBuilder::new("fig4a");
        let lstnr = b.object("lstnr");
        let started = b.event("started");
        let handler = b.script("handler", move |s| {
            s.wait(started).compute(SimTime::from_us(300)).use_(
                lstnr,
                "OnEventWritten:8",
                SimTime::from_us(10),
            );
        });
        let main = b.script("main", move |s| {
            s.fork(handler)
                .signal(started)
                .compute(SimTime::from_us(100))
                .init(lstnr, "DiagnosticsLstnr.ctor:2", SimTime::from_us(20))
                .compute(SimTime::from_us(400))
                .dispose(lstnr, "Dispose:5", SimTime::from_us(10))
                .join_children();
        });
        b.main(main);
        let w = b.build();
        let mut rec = TraceRecorder::with_overhead(&w, SimTime::ZERO);
        let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut rec);
        rec.into_trace()
    }

    #[test]
    fn analyzer_finds_both_fig4a_candidates() {
        let trace = fig4a_trace();
        let plan = analyze(&trace, &AnalyzerConfig::default());
        let kinds: Vec<_> = plan.candidates.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&crate::candidates::BugKind::UseBeforeInit));
        assert!(kinds.contains(&crate::candidates::BugKind::UseAfterFree));
        assert_eq!(plan.candidates.len(), 2);
    }

    #[test]
    fn fig4a_delay_sites_interfere() {
        let trace = fig4a_trace();
        let plan = analyze(&trace, &AnalyzerConfig::default());
        let init_site = trace.sites.lookup("DiagnosticsLstnr.ctor:2").unwrap();
        let use_site = trace.sites.lookup("OnEventWritten:8").unwrap();
        assert!(
            plan.interference.interferes(init_site, use_site),
            "the UBI delay site and the UAF delay site must interfere (Fig. 4a)"
        );
    }

    #[test]
    fn variable_delay_scales_gap_by_alpha() {
        let trace = fig4a_trace();
        let plan = analyze(&trace, &AnalyzerConfig::default());
        let init_site = trace.sites.lookup("DiagnosticsLstnr.ctor:2").unwrap();
        let c = plan
            .candidates
            .iter()
            .find(|c| c.delay_site == init_site)
            .unwrap();
        assert_eq!(plan.delay_for(init_site), c.max_gap.scale(115, 100));
        // The planned delay is far below the fixed 100ms the basic tool uses.
        assert!(plan.delay_for(init_site) < SimTime::from_ms(100));
    }

    #[test]
    fn fixed_delay_ablation_uses_100ms_everywhere() {
        let trace = fig4a_trace();
        let plan = analyze(&trace, &AnalyzerConfig::default().without_variable_delay());
        for site in plan.delay_sites().collect::<Vec<_>>() {
            assert_eq!(plan.delay_for(site), SimTime::from_ms(100));
        }
    }

    #[test]
    fn interference_ablation_empties_the_set() {
        let trace = fig4a_trace();
        let plan = analyze(
            &trace,
            &AnalyzerConfig::default().without_interference_control(),
        );
        assert!(plan.interference.is_empty());
    }

    #[test]
    fn parent_child_pruning_removes_fork_ordered_pairs() {
        // Parent inits, then forks a child that uses immediately: ordered.
        let mut b = WorkloadBuilder::new("ordered");
        let o = b.object("o");
        let child = b.script("child", move |s| {
            s.use_(o, "C.use:1", SimTime::from_us(10));
        });
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", SimTime::from_us(10))
                .fork(child)
                .join_children();
        });
        b.main(main);
        let w = b.build();
        let mut rec = TraceRecorder::with_overhead(&w, SimTime::ZERO);
        let _ = Simulator::run(&w, SimConfig::with_seed(0).deterministic(), &mut rec);
        let trace = rec.into_trace();
        let plan = analyze(&trace, &AnalyzerConfig::default());
        assert!(
            plan.candidates.is_empty(),
            "fork-ordered pair must be pruned"
        );
        assert_eq!(plan.stats.pruned_ordered, 1);
        // Without the pruning, the pair survives (the ablation's cost).
        let plan = analyze(&trace, &AnalyzerConfig::default().without_parent_child());
        assert_eq!(plan.candidates.len(), 1);
    }

    #[test]
    fn plan_is_reproducible_for_identical_traces() {
        let t1 = fig4a_trace();
        let t2 = fig4a_trace();
        let p1 = analyze(&t1, &AnalyzerConfig::default());
        let p2 = analyze(&t2, &AnalyzerConfig::default());
        assert_eq!(p1.to_json().unwrap(), p2.to_json().unwrap());
    }
}
