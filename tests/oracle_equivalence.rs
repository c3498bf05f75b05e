//! Differential soundness proof for the oracle's partial-order reduction:
//! the reduced explorer and the naive explorer must return *identical*
//! verdicts — same `Exposable { kind, obj, preemptions }`, same
//! `CleanWithinBound`, same `Truncated` — on every workload population the
//! repo owns, at bounds 2 and 3. State counts may differ (that is the
//! point of the reduction); verdicts may not. A second property pins
//! witness validity: every exposable witness spends no more than the
//! preemption bound and replays deterministically to the same
//! manifestation.

use waffle_repro::apps::{all_apps, weak_scenarios};
use waffle_repro::fuzz::{
    explore, generate_case, generate_case_for_model, replay_schedule, OracleConfig, OracleReport,
};
use waffle_repro::sim::{MemoryModel, Workload};

const BOUNDS: [u32; 2] = [2, 3];

/// Shared state cap: both explorers truncate at the same frontier size,
/// so `Truncated == Truncated` stays a meaningful equality while keeping
/// bound-3 unreduced sweeps affordable.
const CAP: u64 = 200_000;

fn run(w: &Workload, model: MemoryModel, bound: u32, reduce: bool) -> OracleReport {
    explore(
        w,
        &OracleConfig {
            preemption_bound: bound,
            max_states: CAP,
            memory: model,
            reduce,
        },
    )
}

/// Reduced and naive explorers on one workload; asserts verdict identity
/// and returns `(reduced, naive)` for aggregate assertions. Per-case
/// frontier counts are *not* compared: the reduced memo keys states
/// together with their sleep fingerprints (required for soundness when
/// sleep sets meet state caching), so a small workload can count the same
/// pure state under several sleep contexts. The payoff is asserted in
/// aggregate per population and in the oracle bench.
fn assert_equiv(
    w: &Workload,
    model: MemoryModel,
    bound: u32,
    what: &str,
) -> (OracleReport, OracleReport) {
    let reduced = run(w, model, bound, true);
    let naive = run(w, model, bound, false);
    assert_eq!(
        reduced.verdict, naive.verdict,
        "{what}: reduced vs naive verdict diverged (model {model:?}, bound {bound})"
    );
    (reduced, naive)
}

/// The SC generator population: every seed, both bounds, identical
/// verdicts — and across the population the reduction must actually fire.
#[test]
fn sc_population_is_reduction_invariant() {
    let (mut prunes, mut reduced_work, mut naive_work) = (0u64, 0u64, 0u64);
    for seed in 0..40 {
        let case = generate_case(seed);
        for bound in BOUNDS {
            let (r, n) = assert_equiv(
                &case.workload,
                MemoryModel::Sc,
                bound,
                &format!("sc seed {seed}"),
            );
            prunes += r.sleep_prunes;
            reduced_work += work(&r);
            naive_work += work(&n);
        }
    }
    assert!(prunes > 0, "no sleep prunes across the whole SC population");
    assert!(
        reduced_work < naive_work,
        "reduction did not shrink the aggregate SC work: {reduced_work} vs {naive_work}"
    );
}

/// Edges the explorer actually executed: every executed edge lands in
/// exactly one of these three buckets; sleep prunes skip the execution
/// entirely, so this is the quantity the reduction saves. (Frontier
/// *counts* are not comparable per-case — see [`assert_equiv`].)
fn work(r: &OracleReport) -> u64 {
    r.states_explored + r.memo_hits + r.revisits
}

/// The weak-model generator populations (store buffers add drain edges,
/// the reduction's richest prey): every seed, both models, both bounds.
#[test]
fn weak_populations_are_reduction_invariant() {
    let (mut prunes, mut reduced_work, mut naive_work) = (0u64, 0u64, 0u64);
    for model in [MemoryModel::Tso, MemoryModel::Pso] {
        for seed in 0..16 {
            let case = generate_case_for_model(seed, model);
            for bound in BOUNDS {
                let (r, n) = assert_equiv(
                    &case.workload,
                    model,
                    bound,
                    &format!("{model:?} seed {seed}"),
                );
                prunes += r.sleep_prunes;
                reduced_work += work(&r);
                naive_work += work(&n);
            }
        }
    }
    assert!(prunes > 0, "no sleep prunes across the weak populations");
    assert!(
        reduced_work < naive_work,
        "reduction did not shrink the aggregate weak work: {reduced_work} vs {naive_work}"
    );
}

/// All 18 curated Table 4 bug workloads.
#[test]
fn curated_bugs_are_reduction_invariant() {
    for app in all_apps() {
        for bug in &app.bugs {
            let w = app
                .bug_workload(bug.id)
                .unwrap_or_else(|| panic!("Bug-{} has a workload", bug.id));
            for bound in BOUNDS {
                let (r, _) = assert_equiv(w, MemoryModel::Sc, bound, &format!("Bug-{}", bug.id));
                assert!(r.exposable(), "Bug-{} lost under reduction", bug.id);
            }
        }
    }
}

/// Every curated weak-memory scenario, both under its own model and under
/// SC (where the buffered-publish bugs must stay invisible).
#[test]
fn weak_scenarios_are_reduction_invariant() {
    for sc in weak_scenarios() {
        for model in [sc.model, MemoryModel::Sc] {
            for bound in BOUNDS {
                assert_equiv(&sc.workload, model, bound, &format!("weak.{}", sc.name));
            }
        }
    }
}

/// Witness validity (satellite property): for every exposable verdict in
/// the generator populations, the witness spends at most the preemption
/// bound and replays — through the deterministic single-schedule replayer
/// — to the same kind, object, and preemption count.
#[test]
fn witnesses_stay_within_bound_and_replay() {
    let cases = (0..40)
        .map(|s| (generate_case(s), MemoryModel::Sc))
        .chain((0..10).map(|s| {
            (
                generate_case_for_model(s, MemoryModel::Tso),
                MemoryModel::Tso,
            )
        }))
        .chain((0..10).map(|s| {
            (
                generate_case_for_model(s, MemoryModel::Pso),
                MemoryModel::Pso,
            )
        }));
    let mut replayed = 0u32;
    for (case, model) in cases {
        for reduce in [true, false] {
            let r = run(&case.workload, model, 2, reduce);
            let waffle_repro::fuzz::OracleVerdict::Exposable {
                kind,
                obj,
                preemptions,
            } = r.verdict
            else {
                continue;
            };
            assert!(
                preemptions <= 2,
                "witness overspent the bound: {preemptions} (seed {})",
                case.seed
            );
            let replay = replay_schedule(&case.workload, model, &r.witness)
                .unwrap_or_else(|| panic!("witness failed to replay (seed {})", case.seed));
            assert_eq!(replay.kind, kind, "seed {}", case.seed);
            assert_eq!(replay.obj, obj, "seed {}", case.seed);
            assert_eq!(replay.preemptions, preemptions, "seed {}", case.seed);
            replayed += 1;
        }
    }
    assert!(replayed > 10, "population produced too few witnesses");
}
