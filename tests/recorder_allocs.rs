//! A preparation run's allocation count does not depend on what the
//! process recorded before: the trace recorder sizes its event buffer from
//! the workload, so the first recording of a workload allocates exactly as
//! often as every later one.
//!
//! The counting allocator sees every thread of the process, so this binary
//! holds this one test.

use waffle_bench::alloc;
use waffle_repro::apps::bug_workload;
use waffle_repro::sim::{SimConfig, Simulator, Workload};
use waffle_repro::trace::TraceRecorder;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Allocation calls of one preparation run, from `TraceRecorder::new` to
/// dropping the trace.
fn recording_allocs(w: &Workload) -> u64 {
    let before = alloc::calls();
    let mut rec = TraceRecorder::new(w);
    Simulator::run(w, SimConfig::with_seed(1), &mut rec);
    drop(rec.into_trace());
    alloc::calls() - before
}

#[test]
fn first_recording_allocates_like_the_second() {
    // Bug-16's MQTT.Net churn input records about a thousand events, so a
    // buffer that grew while recording would show as extra calls.
    let w = bug_workload(16).expect("Bug-16 workload exists");
    let first = recording_allocs(&w);
    let second = recording_allocs(&w);
    assert_eq!(first, second);
}
