//! The paper's evaluation, reproduced, plus the rate benches.
//!
//! [`repro`] holds every table and figure of the paper's evaluation
//! section and the extension studies as typed tables; the `repro` bench
//! target (`cargo bench -p waffle-bench --bench repro`) prints them and
//! writes `REPRO.json`. The `engine_rate`, `analysis_rate`, `scale`,
//! `serve` and `oracle` targets each write one [`Ledger`] to
//! `BENCH_<bench>.json` at the workspace root (`core`, `analysis`,
//! `scale`, `serve`, `oracle`); `cargo bench -p waffle-bench` refreshes
//! them all. They count heap bytes and allocation calls with [`alloc`],
//! and `scale` and `serve` analyze the same synthetic [`Stream`].

pub mod alloc;
pub mod ledger;
pub mod repro;
pub mod stream;

pub use ledger::Ledger;
pub use stream::Stream;
