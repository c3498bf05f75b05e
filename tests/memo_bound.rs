//! Regression: analysis peak-heap must not scale with *window pairs* on a
//! clock-diverse trace.
//!
//! Every event here carries a distinct vector-clock snapshot and every
//! cross-thread (Init, Use) pair is concurrent, so the happens-before memo
//! sees a distinct `(ClockId, ClockId)` key per examined pair — quadratic
//! in events. The unbounded `HashMap` memo this suite was written against
//! made analysis allocate ~16× more when the trace grew 4× (window pairs
//! grow 16×); the direct-mapped table sized from the clock pool keeps the
//! growth linear. The test pins the ratio, with the reference scanner
//! confirming the bounded memo still yields byte-identical plans.

use std::sync::Mutex;

use waffle_bench::alloc;
use waffle_repro::analysis::{analyze_indexed, analyze_unindexed, AnalyzerConfig};
use waffle_repro::mem::{AccessKind, ObjectId, SiteRegistry};
use waffle_repro::sim::{SimTime, ThreadId};
use waffle_repro::trace::{ClockPool, Trace, TraceEvent, TraceIndex};
use waffle_repro::vclock::ClockSnapshot;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The counting allocator sees every thread of the process, so each test
/// here holds this lock: the exactness check must not allocate while the
/// peak is being measured.
static SERIAL: Mutex<()> = Mutex::new(());

/// `n` events on one object, 1 µs apart (all inside one δ window):
/// alternating `Init` on thread 0 / `Use` on thread 1, each event with a
/// fresh single-entry snapshot, so every examined pair is concurrent and
/// clock-distinct.
fn clock_diverse_trace(n: u64) -> Trace {
    let mut sites = SiteRegistry::new();
    let si = sites.register("div.init", AccessKind::Init);
    let su = sites.register("div.use", AccessKind::Use);
    let mut clocks = ClockPool::new();
    let events = (0..n)
        .map(|i| {
            let thread = ThreadId((i % 2) as u32);
            let (site, kind) = if i % 2 == 0 {
                (si, AccessKind::Init)
            } else {
                (su, AccessKind::Use)
            };
            TraceEvent {
                time: SimTime::from_us(i + 1),
                thread,
                site,
                obj: ObjectId(0),
                kind,
                dyn_index: i / 2,
                clock: clocks.intern(ClockSnapshot::from_entries([(thread, i + 1)])),
            }
        })
        .collect();
    Trace {
        workload: "memo.diverse".into(),
        sites,
        events,
        forks: vec![],
        clocks,
        end_time: SimTime::from_us(n + 2),
    }
}

/// Peak heap bytes of one `analyze_indexed` pass over a prebuilt index.
fn analysis_peak(trace: &Trace, config: &AnalyzerConfig) -> u64 {
    let index = TraceIndex::build(trace);
    alloc::reset_peak();
    let plan = analyze_indexed(&index, config, 1);
    let peak = alloc::peak();
    drop(plan);
    peak
}

#[test]
fn memo_peak_heap_scales_with_clocks_not_window_pairs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Interference obs are O(window pairs) by design (and post-filtered);
    // switch them off so the memo is the only quadratic suspect.
    let config = AnalyzerConfig::default().without_interference_control();

    let small = clock_diverse_trace(400);
    let large = clock_diverse_trace(1600);

    // The setup really is quadratic in window pairs: 4× events → ~16×
    // examined pairs, all clock-distinct, none pruned.
    let index = TraceIndex::build(&large);
    let plan_large = analyze_indexed(&index, &config, 1);
    assert!(
        plan_large.stats.examined >= 300_000,
        "expected ~320k examined pairs, got {}",
        plan_large.stats.examined
    );
    assert_eq!(plan_large.stats.pruned_ordered, 0, "all pairs concurrent");
    drop(plan_large);
    drop(index);

    let peak_small = analysis_peak(&small, &config).max(1);
    let peak_large = analysis_peak(&large, &config);

    // Unbounded memo: ~16× (one map entry per examined pair). Bounded
    // memo: ≤4× (table grows with the clock pool, linear in events).
    let ratio = peak_large as f64 / peak_small as f64;
    assert!(
        ratio < 8.0,
        "peak heap grew {ratio:.1}x for 4x events ({peak_small} -> {peak_large} bytes): \
         the HB memo is scaling with window pairs again"
    );
    // Absolute backstop: an unbounded memo on 640k pairs costs tens of MB.
    assert!(
        peak_large < 8 << 20,
        "peak heap {peak_large} bytes on a 1600-event trace: memo unbounded?"
    );
}

#[test]
fn bounded_memo_is_still_exact() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Collision overwrites may recompute, never corrupt: plans stay
    // byte-identical to the memo-free reference scanner even when the
    // distinct-pair count dwarfs the table.
    let config = AnalyzerConfig::default();
    let trace = clock_diverse_trace(600);
    let reference = analyze_unindexed(&trace, &config).to_json().unwrap();
    let index = TraceIndex::build(&trace);
    for jobs in [1, 2, 8] {
        let got = analyze_indexed(&index, &config, jobs).to_json().unwrap();
        assert_eq!(got, reference, "bounded memo diverged at jobs={jobs}");
    }
}
