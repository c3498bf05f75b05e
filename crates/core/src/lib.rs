//! Waffle's orchestrator: the public, end-to-end API of the tool.
//!
//! The workflow (Fig. 3) is: run the instrumented program once without
//! delays (*preparation run*), analyze the trace into a [`Plan`]
//! (candidate set `S`, per-location delay lengths, interference set `I`),
//! then run *detection runs* that inject delays according to the plan —
//! persisting the probability-decay state between runs — until a bug
//! manifests as an unhandled NULL-reference exception or the run budget is
//! exhausted.
//!
//! [`Detector`] drives that loop for any of the tools in the comparison
//! matrix (Waffle, WaffleBasic, the Table 7 ablations, baselines), and
//! [`experiment`] adds the paper's 15-repetition methodology (§6.1).
//!
//! [`Plan`]: waffle_analysis::Plan
//!
//! # Examples
//!
//! ```
//! use waffle_core::{Detector, Tool};
//! use waffle_sim::{SimTime, WorkloadBuilder};
//!
//! // A racy use-after-free: the worker's use and main's dispose are only
//! // ordered by timing luck.
//! let mut b = WorkloadBuilder::new("demo.quickstart");
//! let conn = b.object("conn");
//! let started = b.event("started");
//! let worker = b.script("worker", move |s| {
//!     s.wait(started)
//!         .compute(SimTime::from_us(100))
//!         .use_(conn, "Worker.poll:11", SimTime::from_us(10));
//! });
//! let main = b.script("main", move |s| {
//!     s.init(conn, "Main.ctor:2", SimTime::from_us(10))
//!         .fork(worker)
//!         .signal(started)
//!         .compute(SimTime::from_us(500))
//!         .dispose(conn, "Main.cleanup:8", SimTime::from_us(10))
//!         .join_children();
//! });
//! b.main(main);
//! let workload = b.build();
//!
//! let outcome = Detector::new(Tool::waffle()).detect(&workload, 0);
//! let report = outcome.exposed.expect("Waffle exposes the race");
//! assert_eq!(report.total_runs, 2); // preparation + one detection run
//! ```

pub mod campaign;
pub mod detector;
pub mod experiment;
pub mod report;
pub mod serve;
pub mod storage;

pub use campaign::{
    retry_seed, Campaign, CampaignConfig, CampaignManifest, CampaignProgress, CampaignReport,
    CampaignStatus, CellCheckpoint, CellFailure, CellFault, CellSpec, CellStatus, CellStatusLine,
    CheckpointState, ClaimInfo, RunOptions, WorkOptions, WorkerClaim,
};
pub use detector::{run_seed, Detector, DetectorConfig, Tool};
pub use experiment::{
    attempt_seed, par_map, run_attempts, run_experiment, summarize, ExperimentSummary,
};
pub use report::{BugReport, DetectionOutcome, RunSummary, TsvReport};
pub use serve::{
    replay_trace, serve, session_report_json, QueuePolicy, ServeOptions, ServeReport, ServeSession,
};
pub use storage::{write_atomic, Session};
