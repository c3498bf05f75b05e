//! `analysis_rate`: throughput of the columnar trace index and the fused
//! analysis pipeline versus the reference pre-index scanner, written to
//! `BENCH_analysis.json`. Window per measurement: `WAFFLE_BENCH_MS`.
//!
//! The input is a ≥ 100k-event synthetic trace recorded from a real
//! simulator run: four worker threads cycling over a pool of shared
//! objects, so every object's timeline interleaves cross-thread accesses
//! and the near-miss sweep has genuine window pairs to visit. The indexed
//! stages *include* the index-build cost — the honest end-to-end
//! comparison, since the unindexed scanner starts from a raw trace too.
//! Every stage is a [`Ledger::time`] mean per iteration over the trace's
//! events.
//!
//! The counting allocator records the peak heap bytes one pass of each
//! flavor adds on top of what was live when the pass began, as a peak-RSS
//! proxy (`peak_alloc/*` counters). Counting only the section keeps the
//! counters still when unrelated process state changes.

use std::hint::black_box;

use waffle_analysis::{analyze_indexed, analyze_unindexed, AnalyzerConfig};
use waffle_bench::{alloc, Ledger};
use waffle_sim::{SimConfig, SimTime, Simulator, Workload, WorkloadBuilder};
use waffle_trace::{TraceIndex, TraceRecorder};

/// Worker threads in the synthetic workload.
const THREADS: usize = 4;
/// Shared objects the workers cycle over (the shardable dimension).
const OBJECTS: usize = 64;
/// Passes each worker makes over the whole object pool.
const ROUNDS: usize = 400;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Builds the synthetic workload: `main` inits every object, forks the
/// workers, joins them, and disposes everything; each worker cycles over
/// the object pool `ROUNDS` times through per-(worker, object) sites.
fn synthetic_workload() -> Workload {
    let mut b = WorkloadBuilder::new("bench.analysis_rate.synthetic");
    let objects = b.objects("o", OBJECTS as u32);
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let objects = objects.clone();
        workers.push(b.script(format!("worker{t}"), move |s| {
            for _ in 0..ROUNDS {
                for (k, o) in objects.iter().enumerate() {
                    s.use_(*o, &format!("W{t}.o{k}.use"), SimTime::from_us(100));
                }
            }
        }));
    }
    let objects_main = objects.clone();
    let main = b.script("main", move |s| {
        for (k, o) in objects_main.iter().enumerate() {
            s.init(*o, &format!("M.o{k}.init"), SimTime::from_us(10));
        }
        for w in &workers {
            s.fork(*w);
        }
        s.join_children();
        for (k, o) in objects_main.iter().enumerate() {
            s.dispose(*o, &format!("M.o{k}.dispose"), SimTime::from_us(10));
        }
    });
    b.main(main);
    b.build()
}

fn main() {
    let workload = synthetic_workload();
    let mut rec = TraceRecorder::new(&workload);
    Simulator::run(&workload, SimConfig::with_seed(0), &mut rec);
    let trace = rec.into_trace();
    assert!(
        trace.events.len() >= 100_000,
        "synthetic trace must hold >= 100k events, got {}",
        trace.events.len()
    );

    // δ tightened from the paper's 100 ms so each event's window holds a
    // handful of neighbors, matching the near-miss density of the seeded
    // application traces rather than quadratic all-pairs blowup.
    let config = AnalyzerConfig {
        delta: SimTime::from_ms(2),
        ..AnalyzerConfig::default()
    };

    // Equivalence spot-check before timing anything: both flavors must
    // produce byte-identical plans on this trace or the speedup is fiction.
    let reference = analyze_unindexed(&trace, &config);
    let index = TraceIndex::build(&trace);
    let stats = index.stats();
    for jobs in [1usize, 2] {
        let plan = analyze_indexed(&index, &config, jobs);
        assert_eq!(
            plan.to_json().expect("plan serializes"),
            reference.to_json().expect("plan serializes"),
            "indexed plan (jobs={jobs}) diverged from the reference scanner"
        );
    }
    let window_pairs = reference.stats.window_pairs;
    drop(index);

    let events = stats.events as u64;
    let mut ledger = Ledger::new("analysis");
    ledger
        .time("index_build", events, || {
            TraceIndex::build(black_box(&trace))
        })
        .time("analyze_unindexed", events, || {
            analyze_unindexed(black_box(&trace), black_box(&config))
        });
    for jobs in [1usize, 2] {
        ledger.time(&format!("analyze_indexed_jobs{jobs}"), events, || {
            let index = TraceIndex::build(black_box(&trace));
            analyze_indexed(&index, black_box(&config), jobs)
        });
    }

    // Peak-heap watermarks for one pass of each flavor, outside the timed
    // sections so the allocator bookkeeping cannot skew the means.
    let base = alloc::reset_peak();
    let plan = analyze_unindexed(&trace, &config);
    drop(plan);
    let peak_unindexed = alloc::peak() - base;
    let base = alloc::reset_peak();
    let index = TraceIndex::build(&trace);
    let plan = analyze_indexed(&index, &config, 1);
    drop(plan);
    drop(index);
    let peak_indexed = alloc::peak() - base;

    ledger
        .counter("events", events)
        .counter("mem_objects", stats.mem_objects as u64)
        .counter("distinct_clocks", stats.distinct_clocks as u64)
        .counter("window_pairs", window_pairs)
        .counter("peak_alloc/unindexed_bytes", peak_unindexed)
        .counter("peak_alloc/indexed_bytes", peak_indexed)
        .write();
}
