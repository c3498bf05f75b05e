//! Waffle's trace analyzer (§4.1–§4.4, component 2 of §5).
//!
//! Given the delay-free preparation-run trace, the analyzer produces the
//! [`Plan`] that bootstraps detection runs:
//!
//! 1. **Candidate set `S`** ([`candidates`]): the near-miss heuristic over
//!    MemOrder event pairs — an init (use) at ℓ1 followed within the
//!    near-miss window δ by a use (dispose) at ℓ2 on the same object from a
//!    different thread — minus pairs whose vector clocks are ordered
//!    (parent–child pruning, §4.1).
//! 2. **Per-location delay lengths** (§4.3): `len(ℓ1) = max gap` over the
//!    candidate pairs involving ℓ1; detection runs inject `α · len(ℓ1)`
//!    (α = 1.15).
//! 3. **Interference set `I`** ([`interference`], §4.4): pairs of candidate
//!    locations whose concurrent delays would cancel — for each candidate
//!    pair {ℓ1, ℓ2}, any candidate location ℓ* exercised by ℓ2's thread
//!    within the strict window `(τ1 − δ, τ2]` interferes with ℓ1.
//!
//! The resulting plan is serializable: the real tool writes it to disk
//! after the preparation run and loads it in every detection run.
//!
//! Production analysis reads columnar event batches from one of three
//! sources: the resident [`waffle_trace::TraceIndex`]
//! ([`analyze_indexed`], [`analyze_jobs`]), an on-disk segment file
//! streamed under a resident budget ([`analyze_segments`]), or a serve
//! session's sealed generations ([`IncrementalAnalysis`]). All three feed
//! the same fold ([`pipeline`]): a sharded candidate sweep with a
//! deterministic merge, then one interference pass over the replayed
//! batches. The per-pass scanners above survive as the reference
//! semantics every source is equivalence-tested against.
//!
//! # Examples
//!
//! ```
//! use waffle_analysis::{analyze, AnalyzerConfig};
//! use waffle_sim::time::{ms, us};
//! use waffle_sim::{SimConfig, Simulator, WorkloadBuilder};
//! use waffle_trace::TraceRecorder;
//!
//! // A use racing a disposal 10 ms later.
//! let mut b = WorkloadBuilder::new("doc.analysis");
//! let o = b.object("o");
//! let started = b.event("s");
//! let worker = b.script("worker", move |s| {
//!     s.wait(started).pad(ms(2)).use_(o, "W.use:1", us(30));
//! });
//! let main = b.script("main", move |s| {
//!     s.init(o, "M.init:1", us(30))
//!         .fork(worker)
//!         .signal(started)
//!         .pad(ms(12))
//!         .dispose(o, "M.dispose:9", us(30))
//!         .join_children();
//! });
//! b.main(main);
//! let w = b.build();
//!
//! let mut rec = TraceRecorder::new(&w);
//! let _ = Simulator::run(&w, SimConfig::with_seed(0), &mut rec);
//! let plan = analyze(&rec.into_trace(), &AnalyzerConfig::default());
//! // One use-after-free candidate, delayed by α·gap at the use.
//! assert_eq!(plan.candidates.len(), 1);
//! let c = &plan.candidates[0];
//! assert!(plan.delay_for(c.delay_site) > c.max_gap);
//! ```

pub mod analyzer;
pub mod candidates;
pub mod incremental;
pub mod interference;
pub mod ooc;
pub mod pipeline;
pub mod plan;
mod ranks;
pub mod repair;
pub mod tsv;

pub use analyzer::{alpha_delay, analyze, analyze_jobs, analyze_unindexed, AnalyzerConfig};
pub use candidates::{BugKind, CandidatePair};
pub use incremental::{IncrementalAnalysis, IncrementalStats};
pub use interference::InterferenceSet;
pub use ooc::{
    analyze_segments, analyze_tsv_segments, ooc_stats, OocStats, DEFAULT_RESIDENT_BYTES,
};
pub use pipeline::{analyze_indexed, analyze_tsv_indexed};
pub use plan::{Plan, PlanTables};
pub use repair::{enumerate_candidates, synthesize, Certification, RepairReport};
pub use tsv::{analyze_tsv, analyze_tsv_unindexed, TsvCandidate, TsvPlan};
