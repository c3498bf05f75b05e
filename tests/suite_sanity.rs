//! Suite-wide sanity: every workload in the benchmark suite is clean when
//! run delay-free, and the static inventory matches the paper's.

use waffle_repro::apps::{all_apps, all_bugs, bug_workload};
use waffle_repro::sim::{NullMonitor, SimConfig, Simulator};
use waffle_repro::trace::TraceRecorder;

#[test]
fn every_test_input_is_clean_delay_free() {
    for app in all_apps() {
        for t in &app.tests {
            for seed in [0u64, 7, 99] {
                let cfg = SimConfig {
                    seed,
                    timing_noise_pct: 3,
                    ..SimConfig::default()
                };
                let r = Simulator::run(&t.workload, cfg, &mut NullMonitor);
                assert!(
                    !r.manifested(),
                    "{} manifested delay-free (seed {seed}): {:?}",
                    t.workload.name,
                    r.exceptions
                );
                assert_eq!(
                    r.stranded_threads, 0,
                    "{} stranded threads",
                    t.workload.name
                );
                assert!(!r.timed_out, "{} timed out", t.workload.name);
            }
        }
    }
}

/// The preparation run's trace buffer is sized from the workload alone:
/// on every test input it fills exactly the room the recorder reserved,
/// so recording never regrows it.
#[test]
fn every_preparation_trace_fills_its_reserved_buffer() {
    for app in all_apps() {
        for t in &app.tests {
            for seed in [0u64, 7] {
                let expected = t.workload.reachable_accesses();
                let mut rec = TraceRecorder::new(&t.workload);
                Simulator::run(&t.workload, SimConfig::with_seed(seed), &mut rec);
                let events = rec.into_trace().events;
                assert_eq!(events.len(), expected, "{}", t.workload.name);
                assert_eq!(events.capacity(), expected, "{}", t.workload.name);
            }
        }
    }
}

#[test]
fn base_times_follow_table4() {
    // Bug-input base times should be within ±25% of Table 4's numbers.
    for spec in all_bugs() {
        let w = bug_workload(spec.id).unwrap();
        let r = Simulator::run(&w, SimConfig::with_seed(0), &mut NullMonitor);
        let measured = r.end_time.as_ms() as f64;
        let paper = spec.paper.base_ms as f64;
        assert!(
            (measured - paper).abs() / paper < 0.25,
            "Bug-{}: base {measured}ms vs paper {paper}ms",
            spec.id
        );
    }
}

#[test]
fn mem_order_sites_dominate_tsv_sites() {
    // The Table 2 shape: MemOrder instrumentation sites far outnumber the
    // thread-unsafe API call sites.
    for app in all_apps() {
        let mo: usize = app.tests.iter().map(|t| t.workload.mem_order_sites()).sum();
        let tsv: usize = app.tests.iter().map(|t| t.workload.tsv_sites()).sum();
        assert!(
            mo >= tsv * 5,
            "{}: MO sites {mo} vs TSV sites {tsv}",
            app.name
        );
    }
}

#[test]
fn suite_accounting_matches_the_paper() {
    let bugs = all_bugs();
    assert_eq!(bugs.len(), 18);
    assert_eq!(bugs.iter().filter(|b| b.known).count(), 12);
    assert_eq!(all_apps().len(), 11);
    // The seven bugs the paper reports WaffleBasic missing.
    let missed: Vec<u32> = bugs
        .iter()
        .filter(|b| b.paper.basic_runs.is_none())
        .map(|b| b.id)
        .collect();
    assert_eq!(missed, vec![8, 10, 12, 13, 15, 16, 17]);
}
