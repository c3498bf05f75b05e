//! Report-content validation: for every seeded bug that Waffle exposes,
//! the report identifies the right site, object class, and context.

use waffle_repro::apps::{all_bugs, bug_workload};
use waffle_repro::core::{Detector, DetectorConfig, Tool};
use waffle_repro::mem::NullRefKind;

#[test]
fn every_exposed_report_names_a_real_site_with_context() {
    let det = Detector::with_config(
        Tool::waffle(),
        DetectorConfig {
            max_detection_runs: 10,
            ..DetectorConfig::default()
        },
    );
    for spec in all_bugs() {
        let w = bug_workload(spec.id).unwrap();
        // One attempt suffices here; the shape test covers reliability.
        let Some(report) = det.detect(&w, 1).exposed else {
            // A rare unlucky seed is acceptable for the heavy bugs; the
            // shape test (3 attempts) guards reliability.
            continue;
        };
        // The faulting site exists in the workload's registry.
        assert!(
            w.sites.lookup(&report.site).is_some(),
            "Bug-{}: unknown site {}",
            spec.id,
            report.site
        );
        // Delays were injected, and the report names the delayed sites.
        assert!(report.delays_in_run >= 1, "Bug-{}", spec.id);
        assert!(!report.delayed_sites.is_empty(), "Bug-{}", spec.id);
        for s in &report.delayed_sites {
            assert!(w.sites.lookup(s).is_some(), "Bug-{}: delayed {s}", spec.id);
        }
        // Thread contexts were captured, exactly one thread faulted, and
        // the faulting thread's last recent access is the faulting site.
        assert!(!report.thread_contexts.is_empty(), "Bug-{}", spec.id);
        let faulting: Vec<_> = report
            .thread_contexts
            .iter()
            .filter(|c| c.faulting)
            .collect();
        assert_eq!(faulting.len(), 1, "Bug-{}", spec.id);
        let last = faulting[0].recent.last().expect("faulting context has ops");
        assert_eq!(
            w.sites.name(last.site),
            report.site,
            "Bug-{}: context/site mismatch",
            spec.id
        );
        // The bug class is a MemOrder class (never DisposeOnNull, which
        // our workloads cannot produce under injection).
        assert!(
            matches!(
                report.kind,
                NullRefKind::UseBeforeInit | NullRefKind::UseAfterFree
            ),
            "Bug-{}",
            spec.id
        );
        // The render is non-trivial and mentions the site.
        let rendered = report.render(&w.sites);
        assert!(rendered.contains(&report.site), "Bug-{}", spec.id);
        assert!(rendered.lines().count() >= 4, "Bug-{}", spec.id);
    }
}

#[test]
fn fig4a_bugs_manifest_as_use_before_init_and_fig4b_as_use_after_free() {
    let det = Detector::new(Tool::waffle());
    for (id, expected) in [
        (10u32, NullRefKind::UseBeforeInit), // ApplicationInsights #1106
        (8, NullRefKind::UseBeforeInit),     // LiteDB #1028
        (13, NullRefKind::UseBeforeInit),    // SignalR
        (11, NullRefKind::UseAfterFree),     // NetMQ #814
        (15, NullRefKind::UseAfterFree),     // NetMQ #975
    ] {
        let w = bug_workload(id).unwrap();
        let report = det.detect(&w, 1).exposed.expect("exposed");
        assert_eq!(report.kind, expected, "Bug-{id}");
    }
}
