//! Workspace-level weak-memory invariants.
//!
//! Two guarantees anchor the store-buffer subsystem to the rest of the
//! repo's baselines:
//!
//! 1. **Observational equivalence**: `Tso`/`Pso` with the buffer drained
//!    at every store is indistinguishable from `Sc` — same `RunResult`,
//!    same recorded trace bytes — across randomly generated workloads.
//!    Every pre-existing artifact (BENCH reports, fuzz sweeps, plan
//!    files) rests on this.
//! 2. **End-to-end exposure**: the curated `weak.*` scenarios run
//!    through the full Waffle detector expose their seeded reordering
//!    bug under their memory model, while the same workloads — and the
//!    fenced controls under every model — stay clean under `Sc`.

use proptest::prelude::*;
use waffle_repro::apps::weak_scenarios;
use waffle_repro::core::{Detector, DetectorConfig, Tool};
use waffle_repro::fuzz::{generate_case, generate_case_for_model};
use waffle_repro::sim::{DrainPolicy, MemoryConfig, MemoryModel, SimConfig, Simulator, Workload};
use waffle_repro::trace::TraceRecorder;

/// Runs `w` under `memory` and returns `(run result JSON, trace JSON)`.
fn observe(w: &Workload, sim_seed: u64, memory: MemoryConfig) -> (String, String) {
    let cfg = SimConfig::with_seed(sim_seed).with_memory(memory);
    let mut rec = TraceRecorder::new(w);
    let result = Simulator::run(w, cfg, &mut rec);
    (
        serde_json::to_string_pretty(&result).expect("result serializes"),
        rec.into_trace().to_json().expect("trace serializes"),
    )
}

proptest! {
    /// Drain-at-every-store is the identity: for both the SC-shaped and
    /// the weak-shaped generator populations, a `Tso`/`Pso` run whose
    /// buffer drains inline produces the same `RunResult` and the same
    /// trace bytes as plain `Sc` with the same simulation seed.
    #[test]
    fn drain_at_every_store_is_observationally_sc(
        gen_seed in 0u64..4_294_967_296u64,
        sim_seed in 0u64..1024u64,
        weak_shaped in 0u8..2u8,
        pso in 0u8..2u8,
    ) {
        let model = if pso == 1 { MemoryModel::Pso } else { MemoryModel::Tso };
        let case = if weak_shaped == 1 {
            generate_case_for_model(gen_seed, model)
        } else {
            generate_case(gen_seed)
        };
        let sc = observe(&case.workload, sim_seed, MemoryConfig::sc());
        let weak = observe(
            &case.workload,
            sim_seed,
            MemoryConfig { model, drain: DrainPolicy::EveryStore },
        );
        prop_assert_eq!(&sc.0, &weak.0, "RunResult diverged under {}", model);
        prop_assert_eq!(&sc.1, &weak.1, "trace bytes diverged under {}", model);
    }
}

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
