//! The paper's evaluation, reproduced, plus the throughput benches.
//!
//! [`repro`] holds every table and figure of the paper's evaluation
//! section and the extension studies as typed tables; the `repro` bench
//! target (`cargo bench -p waffle-bench --bench repro`) prints them and
//! writes `REPRO.json`. The `engine_rate`, `analysis_rate`, `scale`,
//! `serve` and `oracle` targets write throughput figures to the
//! `BENCH_*.json` files via [`bench_report`].

pub mod bench_report;
pub mod repro;

pub use bench_report::{
    AnalysisBenchReport, AnalysisRate, BenchEntry, BenchReport, EngineRate, OracleBenchReport,
    OracleBenchRow, ScaleBenchReport, ScaleSweepPoint, ServeBenchReport, ServeSweepPoint,
    WorkerRate,
};
