//! `scale`: out-of-core columnar scan throughput, flat-memory growth, and
//! coordinator-free campaign determinism, written to `BENCH_scale.json`.
//!
//! The input is the synthetic [`Stream`] (4096 objects, a bounded pool of
//! heavily reused chain clocks, a handful of genuinely concurrent
//! objects), built directly: at ≥10M events a simulator run would
//! dominate the bench. That shape is exactly where the seed-state scanner
//! hurts: it re-groups the raw event vector per pass and re-walks full
//! vector clocks per examined pair, while the columnar sweep reads packed
//! arrays and memo-hits the interned `(ClockId, ClockId)` pairs.
//!
//! Three claims. The first two are gates, the third an assert:
//! 1. `scan_speedup` ≥ 10: the indexed scan against the unindexed scanner,
//!    gated only at ≥10M events (smoke runs at smaller sizes skip it);
//! 2. `ooc_peak_ratio` ≤ 1.2: out-of-core peak heap stays flat (±20%) as
//!    the trace grows 10× under a fixed resident budget;
//! 3. 1, 2 and 4 workers draining a shared campaign directory of
//!    `campaign/cells` cells write byte-identical reports. The grid is too
//!    small for its wall clock to show worker scaling, so it is not timed.
//!
//! Stages hold the fastest of a few passes (`count` = events).
//! `WAFFLE_SCALE_EVENTS` sets the trace size (default 10_000_000; CI
//! smoke uses 1_000_000).

use std::path::Path;
use std::time::Instant;

use waffle_analysis::{analyze_indexed, analyze_segments, analyze_unindexed};
use waffle_apps::{all_apps, test_workload};
use waffle_bench::{alloc, Ledger, Stream};
use waffle_core::{Campaign, CampaignConfig, CellSpec, WorkOptions};
use waffle_trace::{SegmentReader, TraceIndex};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Minimum wall-clock nanoseconds of `f` over `passes` runs.
fn time_min<T>(passes: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..passes {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_nanos() as u64);
        drop(out);
    }
    best
}

/// Runs the shared campaign grid with `workers` concurrent in-process
/// workers; returns the report bytes.
fn run_workers(dir: &Path, cells: Vec<CellSpec>, workers: usize) -> Vec<u8> {
    let campaign = Campaign::create(
        dir,
        CampaignConfig {
            max_detection_runs: 4,
            ..CampaignConfig::default()
        },
        cells,
    )
    .expect("campaign dir");
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                let c = campaign.clone();
                s.spawn(move || {
                    c.work(
                        &WorkOptions {
                            worker: format!("w{k}"),
                            lease_secs: 3600,
                            poll_ms: 2,
                            ..WorkOptions::default()
                        },
                        test_workload,
                    )
                    .expect("worker pass")
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
    });
    std::fs::read(dir.join("report.json")).expect("report written")
}

/// Seconds in `ns` nanoseconds, for the progress lines.
fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn main() {
    let mut ledger = Ledger::new("scale");
    let n = ledger.env_param("events", "WAFFLE_SCALE_EVENTS", 10_000_000);
    assert!(n >= 100_000, "WAFFLE_SCALE_EVENTS must be at least 100000");
    // Relative to the working directory and the same on every machine:
    // the paths the run holds are part of its peak-heap counters.
    let scratch = Path::new("bench-scratch").join("scale");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let config = Stream::config();

    // ---- Headline: unindexed scanner vs indexed scan, full size. ----
    println!("generating {n}-event trace…");
    let trace = Stream::new().trace(n);
    let reference = analyze_unindexed(&trace, &config);
    let window_pairs = reference.stats.window_pairs;
    let reference_json = reference.to_json().expect("plan serializes");
    assert!(
        !reference.candidates.is_empty(),
        "the synthetic trace must produce candidates or the bench is vacuous"
    );
    drop(reference);
    let unindexed_ns = time_min(2, || analyze_unindexed(&trace, &config));
    println!(
        "unindexed: {:.2}s ({window_pairs} window pairs)",
        secs(unindexed_ns)
    );

    let index = TraceIndex::build(&trace);
    let mem_objects = index.stats().mem_objects as u64;
    let indexed_json = analyze_indexed(&index, &config, 1)
        .to_json()
        .expect("plan serializes");
    assert_eq!(
        indexed_json, reference_json,
        "indexed plan diverged from the reference scanner"
    );
    let indexed_ns = time_min(3, || analyze_indexed(&index, &config, 1));
    let scan_speedup = unindexed_ns as f64 / indexed_ns as f64;
    println!(
        "indexed scan: {:.2}s ({scan_speedup:.1}x)",
        secs(indexed_ns)
    );
    drop(index);
    drop(trace);
    ledger
        .stage("unindexed_scan", unindexed_ns, n)
        .stage("indexed_scan", indexed_ns, n)
        .counter("mem_objects", mem_objects)
        .counter("window_pairs", window_pairs);
    if n >= 10_000_000 {
        ledger.min("scan_speedup", scan_speedup, 10.0);
    }

    // ---- Growth sweep: 1× / ~3× / 10×, fixed resident budget. ----
    let mut budget = 0u64;
    let mut peaks = Vec::new();
    for (k, size) in [n / 10, n * 32 / 100, n].into_iter().enumerate() {
        // A fresh generator per size, dropped with its trace, so the
        // measured peak holds nothing but the out-of-core pass.
        let trace = Stream::new().trace(size);
        let path = scratch.join(format!("scale-{size}.wseg"));
        TraceIndex::build(&trace)
            .write_segments(&path)
            .expect("segments write");
        drop(trace);
        let file_bytes = std::fs::metadata(&path).expect("segment file").len();
        if k == 0 {
            // Half the smallest size's column payload: every size point
            // streams in multiple batches of (nearly) the same max size,
            // so the resident cost is genuinely budget-shaped, not
            // trace-shaped.
            let reader = SegmentReader::open(&path).expect("segments open");
            let mem_bytes: u64 = reader
                .catalog()
                .class(waffle_trace::SegmentClass::MemOrder)
                .iter()
                .map(|m| m.bytes)
                .sum();
            budget = (mem_bytes / 2).max(1);
            ledger.counter("resident_budget_bytes", budget);
        }
        let mut reader = SegmentReader::open(&path).expect("segments open");
        let batches = waffle_analysis::ooc_stats(&reader, budget).batches as u64;
        // An absolute peak, live bytes before the pass included: the
        // `ooc_peak_ratio` gate is defined on it.
        alloc::reset_peak();
        let t0 = Instant::now();
        let plan = analyze_segments(&mut reader, &config, 1, budget).expect("ooc analysis");
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let peak = alloc::peak();
        if size == n {
            assert_eq!(
                plan.to_json().expect("plan serializes"),
                reference_json,
                "out-of-core plan diverged from the reference scanner"
            );
        }
        drop(plan);
        drop(reader);
        println!(
            "ooc {size} events: {:.2}s, {batches} batches, peak {:.1} MiB",
            secs(wall_ns),
            peak as f64 / (1 << 20) as f64
        );
        ledger
            .stage(&format!("ooc_scan/{size}"), wall_ns, size)
            .counter(&format!("ooc/{size}/file_bytes"), file_bytes)
            .counter(&format!("ooc/{size}/batches"), batches)
            .counter(&format!("ooc/{size}/peak_alloc_bytes"), peak);
        peaks.push(peak);
        std::fs::remove_file(&path).ok();
    }
    let peak_min = peaks.iter().copied().min().unwrap();
    let peak_max = peaks.iter().copied().max().unwrap();
    assert!(peak_min > 0, "the counting allocator saw no heap");
    ledger.max("ooc_peak_ratio", peak_max as f64 / peak_min as f64, 1.2);

    // ---- Campaign workers: byte-identical reports at every count. ----
    let cells: Vec<CellSpec> = all_apps()
        .into_iter()
        .flat_map(|a| a.tests)
        .take(6)
        .map(|t| CellSpec::new(t.workload.name.clone(), "waffle", 2))
        .collect();
    ledger.counter("campaign/cells", cells.len() as u64);
    let mut single_report: Vec<u8> = Vec::new();
    for w in [1usize, 2, 4] {
        let dir = scratch.join(format!("campaign-w{w}"));
        let report = run_workers(&dir, cells.clone(), w);
        if w == 1 {
            single_report = report;
        } else {
            assert_eq!(
                report, single_report,
                "{w}-worker campaign report diverged from the single-worker report"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::remove_dir("bench-scratch").ok(); // only when no other bench uses it
    ledger.write();
}
