//! Workspace-level weak-memory invariant: the curated `weak.*` scenarios
//! run through the full Waffle detector expose their seeded reordering
//! bug under their memory model, while the same workloads — and the
//! fenced controls under every model — stay clean under `Sc`.

use waffle_repro::apps::weak_scenarios;
use waffle_repro::core::{Detector, DetectorConfig, Tool};
use waffle_repro::sim::MemoryConfig;

/// The full detector pipeline — preparation run, candidate analysis,
/// delay injection with decay and interference control — exposes each
/// curated scenario's seeded bug under its memory model, and exposes
/// nothing on any of the five workloads under `Sc`.
#[test]
fn curated_scenarios_expose_under_their_model_and_never_under_sc() {
    let detector = |memory: MemoryConfig| {
        Detector::with_config(
            Tool::waffle(),
            DetectorConfig {
                max_detection_runs: 12,
                memory,
                ..DetectorConfig::default()
            },
        )
    };
    for s in weak_scenarios() {
        let weak = detector(MemoryConfig::from_model(s.model)).detect(&s.workload, 1);
        match s.expected {
            Some(kind) => {
                let report = weak
                    .exposed
                    .unwrap_or_else(|| panic!("{} must expose under {}", s.name, s.model));
                assert_eq!(report.kind, kind, "{}: wrong manifestation class", s.name);
            }
            None => assert!(
                weak.exposed.is_none(),
                "{} is a fenced control and must stay clean under {}",
                s.name,
                s.model
            ),
        }
        let sc = detector(MemoryConfig::sc()).detect(&s.workload, 1);
        assert!(
            sc.exposed.is_none(),
            "{} must be unexposable under sequential consistency",
            s.name
        );
        assert!(
            !sc.spontaneous,
            "{} manifested without delays under sc",
            s.name
        );
    }
}
