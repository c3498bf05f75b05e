//! Plan equivalence: the fused indexed pipeline must reproduce the
//! reference scanners' plans *byte for byte* on every seeded bug workload,
//! at every worker count.
//!
//! This is the pipeline's end-to-end drift detector: the unit and property
//! tests in `waffle-analysis` pin the sweep semantics on synthetic traces,
//! while this suite replays the real application traces (all 18 bugs of
//! Table 4) and compares serialized plans, so any divergence — ordering,
//! representative choice, stats, interference membership — fails loudly.

use waffle_repro::analysis::{
    analyze_indexed, analyze_jobs, analyze_segments, analyze_tsv_indexed, analyze_tsv_segments,
    analyze_tsv_unindexed, analyze_unindexed, AnalyzerConfig,
};
use waffle_repro::apps::all_bugs;
use waffle_repro::core::DetectorConfig;
use waffle_repro::sim::{SimConfig, SimTime, Simulator, ThreadId, Workload};
use waffle_repro::trace::{ClockPool, SegmentReader, Trace, TraceIndex, TraceRecorder};
use waffle_repro::vclock::ClockSnapshot;

/// Worker counts exercised for every workload: sequential, the common CI
/// core count, and more shards than most traces have objects.
const JOB_COUNTS: [usize; 3] = [1, 2, 8];

fn workload_for(id: u32) -> Workload {
    waffle_repro::apps::bug_workload(id).expect("bug workload exists")
}

/// One delay-free prep run under a fixed seed, exactly as the detector's
/// prepare step records it.
fn recorded_trace(w: &Workload) -> Trace {
    let mut rec = TraceRecorder::new(w);
    Simulator::run(w, SimConfig::with_seed(0).deterministic(), &mut rec);
    rec.into_trace()
}

#[test]
fn indexed_plan_is_byte_identical_for_every_bug_at_every_job_count() {
    let config = AnalyzerConfig::default();
    for spec in all_bugs() {
        let w = workload_for(spec.id);
        let trace = recorded_trace(&w);
        let reference = analyze_unindexed(&trace, &config)
            .to_json()
            .expect("plan serializes");
        for jobs in JOB_COUNTS {
            let indexed = analyze_jobs(&trace, &config, jobs)
                .to_json()
                .expect("plan serializes");
            assert_eq!(
                indexed, reference,
                "Bug-{}: indexed plan diverged at jobs={jobs}",
                spec.id
            );
        }
    }
}

/// The preparation trace of one detection attempt, recorded as the
/// detector's prepare step records it: run seed `attempt·10000 + 1` under
/// the detector's default timing noise. (Its 40× base-time deadline
/// cannot fire on a delay-free run, so it is left out.)
fn noised_prep_trace(w: &Workload, attempt_seed: u64) -> Trace {
    let config = SimConfig {
        seed: attempt_seed * 10_000 + 1,
        timing_noise_pct: DetectorConfig::default().timing_noise_pct,
        ..SimConfig::default()
    };
    let mut rec = TraceRecorder::new(w);
    Simulator::run(w, config, &mut rec);
    rec.into_trace()
}

/// Table 4 analyzes noised preparation traces, not seed-0 deterministic
/// ones: every bug under every attempt seed of the table must analyze
/// byte-identically to the reference scanners, and the interference-heavy
/// Bug-12/16/17 traces must also stream identically out of core.
#[test]
fn noised_prep_traces_are_byte_identical_for_every_bug_and_attempt_seed() {
    let config = AnalyzerConfig::default();
    let dir = std::env::temp_dir().join(format!("waffle-noised-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for spec in all_bugs() {
        let w = workload_for(spec.id);
        for seed in 0..15 {
            let trace = noised_prep_trace(&w, seed);
            let reference = analyze_unindexed(&trace, &config)
                .to_json()
                .expect("plan serializes");
            for jobs in [1, 2] {
                let indexed = analyze_jobs(&trace, &config, jobs)
                    .to_json()
                    .expect("plan serializes");
                assert_eq!(
                    indexed, reference,
                    "Bug-{} attempt {seed}: indexed plan diverged at jobs={jobs}",
                    spec.id
                );
            }
            if [12, 16, 17].contains(&spec.id) {
                let path = dir.join(format!("bug-{}-s{seed}.wseg", spec.id));
                TraceIndex::build(&trace)
                    .write_segments(&path)
                    .expect("segments write");
                let mut reader = SegmentReader::open(&path).expect("segments open");
                let ooc = analyze_segments(&mut reader, &config, 1, 1)
                    .expect("out-of-core analysis")
                    .to_json()
                    .expect("plan serializes");
                assert_eq!(
                    ooc, reference,
                    "Bug-{} attempt {seed}: out-of-core plan diverged",
                    spec.id
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Thread ids are arbitrary `u32`s at every boundary — a serve client
/// picks them freely — so the analyzer keys threads through a compact
/// map, never a table indexed by the raw id. Moving every thread of the
/// interference-heavy Bug-16 trace to the top of the id space, up to
/// `ThreadId(u32::MAX - 1)`, must give the plan of the densely numbered
/// trace, in memory and out of core, without a thread-sized allocation.
#[test]
fn hostile_thread_ids_analyze_like_densely_numbered_ones() {
    let config = AnalyzerConfig::default();
    let dense = noised_prep_trace(&workload_for(16), 0);
    let mut threads: Vec<ThreadId> = dense.events.iter().map(|e| e.thread).collect();
    threads.extend(dense.forks.iter().flat_map(|f| [f.parent, f.child]));
    for snap in dense.clocks.snapshots() {
        threads.extend(snap.iter().map(|(&t, _)| t));
    }
    threads.sort_unstable();
    threads.dedup();
    // Order-preserving, so equal-time events keep their index order.
    let top = |t: ThreadId| {
        let below = threads.len() - 1 - threads.binary_search(&t).expect("known thread");
        ThreadId(u32::MAX - 1 - below as u32)
    };
    let mut hostile = dense.clone();
    for e in &mut hostile.events {
        e.thread = top(e.thread);
    }
    for f in &mut hostile.forks {
        f.parent = top(f.parent);
        f.child = top(f.child);
    }
    // Same snapshots at the same ids, keyed by the moved threads.
    assert!(dense.clocks.snapshots()[0].is_empty());
    let mut clocks = ClockPool::new();
    for snap in &dense.clocks.snapshots()[1..] {
        let moved = ClockSnapshot::from_entries(snap.iter().map(|(&t, &v)| (top(t), v)));
        clocks.try_push(moved).expect("clock ids fit");
    }
    hostile.clocks = clocks;
    assert!(hostile
        .events
        .iter()
        .any(|e| e.thread == ThreadId(u32::MAX - 1)));

    let reference = analyze_jobs(&dense, &config, 1);
    assert!(
        reference.interference.len() > 100,
        "the pass must do real work"
    );
    let reference = reference.to_json().expect("plan serializes");
    let index = TraceIndex::build(&hostile);
    for jobs in [1, 2] {
        let got = analyze_indexed(&index, &config, jobs)
            .to_json()
            .expect("plan serializes");
        assert_eq!(
            got, reference,
            "hostile thread ids changed the plan at jobs={jobs}"
        );
    }
    let path = std::env::temp_dir().join(format!("waffle-hostile-tid-{}.wseg", std::process::id()));
    index.write_segments(&path).expect("segments write");
    for budget in BUDGETS {
        let mut reader = SegmentReader::open(&path).expect("segments open");
        let ooc = analyze_segments(&mut reader, &config, 1, budget)
            .expect("out-of-core analysis")
            .to_json()
            .expect("plan serializes");
        assert_eq!(
            ooc, reference,
            "hostile thread ids changed the streamed plan at budget={budget}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn indexed_plan_is_byte_identical_under_every_ablation() {
    // The ablations flip the pipeline's internal switches (pruning,
    // interference collection, delay computation); each must stay
    // equivalent too, not just the default configuration.
    let configs = [
        AnalyzerConfig::default().without_parent_child(),
        AnalyzerConfig::default().without_variable_delay(),
        AnalyzerConfig::default().without_interference_control(),
    ];
    for spec in all_bugs() {
        let w = workload_for(spec.id);
        let trace = recorded_trace(&w);
        for (c, config) in configs.iter().enumerate() {
            let reference = analyze_unindexed(&trace, config)
                .to_json()
                .expect("plan serializes");
            for jobs in JOB_COUNTS {
                let indexed = analyze_jobs(&trace, config, jobs)
                    .to_json()
                    .expect("plan serializes");
                assert_eq!(
                    indexed, reference,
                    "Bug-{}: ablation #{c} diverged at jobs={jobs}",
                    spec.id
                );
            }
        }
    }
}

/// Resident budgets for the out-of-core sweep: effectively unbounded (one
/// batch) and pathologically tiny (one segment per batch for every seeded
/// trace) — the two extremes of batch-boundary placement.
const BUDGETS: [u64; 2] = [u64::MAX, 1];

#[test]
fn out_of_core_plan_is_byte_identical_at_every_budget_and_job_count() {
    let config = AnalyzerConfig::default();
    let dir = std::env::temp_dir().join(format!("waffle-ooc-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for spec in all_bugs() {
        let w = workload_for(spec.id);
        let trace = recorded_trace(&w);
        let reference = analyze_jobs(&trace, &config, 1)
            .to_json()
            .expect("plan serializes");
        let path = dir.join(format!("bug-{}.wseg", spec.id));
        TraceIndex::build(&trace)
            .write_segments(&path)
            .expect("segments write");
        for budget in BUDGETS {
            for jobs in JOB_COUNTS {
                let mut reader = SegmentReader::open(&path).expect("segments open");
                let ooc = analyze_segments(&mut reader, &config, jobs, budget)
                    .expect("out-of-core analysis")
                    .to_json()
                    .expect("plan serializes");
                assert_eq!(
                    ooc, reference,
                    "Bug-{}: out-of-core plan diverged at jobs={jobs} budget={budget}",
                    spec.id
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_core_tsv_plan_is_byte_identical_at_every_budget_and_job_count() {
    let delta = SimTime::from_ms(100);
    let window = SimTime::from_ms(1);
    let dir = std::env::temp_dir().join(format!("waffle-ooc-tsv-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for spec in all_bugs() {
        let w = workload_for(spec.id);
        let trace = recorded_trace(&w);
        let index = TraceIndex::build(&trace);
        let reference = analyze_tsv_indexed(&index, delta, window, 1)
            .to_json()
            .expect("plan serializes");
        let path = dir.join(format!("bug-{}.wseg", spec.id));
        index.write_segments(&path).expect("segments write");
        for budget in BUDGETS {
            for jobs in JOB_COUNTS {
                let mut reader = SegmentReader::open(&path).expect("segments open");
                let ooc = analyze_tsv_segments(&mut reader, delta, window, jobs, budget)
                    .expect("out-of-core TSV analysis")
                    .to_json()
                    .expect("plan serializes");
                assert_eq!(
                    ooc, reference,
                    "Bug-{}: out-of-core TSV plan diverged at jobs={jobs} budget={budget}",
                    spec.id
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The serve-side path: events streamed through a [`SessionIndexBuilder`]
/// in four chunks (three seal boundaries), each sealed generation folded
/// into an [`IncrementalAnalysis`], and the fold finished with the
/// interference pass replaying the generation files in seal order, at an
/// unbounded and a one-byte resident budget. Byte-identical to a one-shot
/// batch analysis of the whole trace — candidates, stats, interference,
/// TSV — at every job count. The generations compacted into one file must
/// also analyze identically through the batch out-of-core path.
#[test]
fn incremental_serve_side_analysis_is_byte_identical_across_seal_boundaries() {
    use waffle_repro::analysis::IncrementalAnalysis;
    use waffle_repro::trace::{compact_segments, SessionIndexBuilder};

    let config = AnalyzerConfig::default();
    let window = SimTime::from_ms(1);
    let dir = std::env::temp_dir().join(format!("waffle-inc-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for spec in all_bugs() {
        let w = workload_for(spec.id);
        let trace = recorded_trace(&w);
        let plan_ref = analyze_jobs(&trace, &config, 1)
            .to_json()
            .expect("plan serializes");
        let tsv_ref = analyze_tsv_indexed(&TraceIndex::build(&trace), config.delta, window, 1)
            .to_json()
            .expect("plan serializes");
        // Floor division yields at least four chunks (three seal
        // boundaries) on every trace with four or more events.
        let chunk = (trace.events.len() / 4).max(1);
        for jobs in JOB_COUNTS {
            let mut b = SessionIndexBuilder::new(trace.workload.clone());
            let sites: Vec<_> = trace
                .sites
                .iter()
                .map(|(_, info)| (info.name.clone(), info.kind))
                .collect();
            b.add_sites(&sites).expect("site table streams");
            let snaps = trace.clocks.snapshots();
            if snaps.len() > 1 {
                b.add_clocks(snaps[1..].to_vec())
                    .expect("clock pool streams");
            }
            b.declare_end_time(trace.end_time);
            // One fold per budget, fed the same generations.
            let mut folds =
                [u64::MAX, 1].map(|budget| (budget, IncrementalAnalysis::new(config, window)));
            let mut generations = Vec::new();
            for (g, events) in trace.events.chunks(chunk).enumerate() {
                b.push_batch(events.to_vec())
                    .expect("stream is time-ordered");
                let path = dir.join(format!("bug-{}-j{jobs}-gen{g}.wseg", spec.id));
                let out = b.seal(&path).expect("generation seals");
                for (_, inc) in &mut folds {
                    inc.absorb(&out.mem, &out.tsv, b.clocks(), b.last_time(), jobs);
                }
                generations.push(path);
            }
            assert!(
                generations.len() >= 4 || trace.events.len() < 4,
                "Bug-{}: wanted >=3 seal boundaries, got {} generations",
                spec.id,
                generations.len()
            );
            for (budget, inc) in folds {
                let readers = generations
                    .iter()
                    .map(|p| SegmentReader::open(p).expect("generation opens"));
                let (plan, tsv) = inc
                    .finish(&trace.workload, readers, budget)
                    .expect("incremental finish");
                assert_eq!(
                    plan.to_json().expect("plan serializes"),
                    plan_ref,
                    "Bug-{}: incremental plan diverged at jobs={jobs}, budget={budget}",
                    spec.id
                );
                assert_eq!(
                    tsv.to_json().expect("plan serializes"),
                    tsv_ref,
                    "Bug-{}: incremental TSV plan diverged at jobs={jobs}, budget={budget}",
                    spec.id
                );
            }
            // The compacted file is a full-fidelity segment stream: the
            // batch out-of-core path over it must agree too.
            let compacted = dir.join(format!("bug-{}-j{jobs}.wseg", spec.id));
            compact_segments(&generations, &compacted).expect("generations compact");
            let mut reader = SegmentReader::open(&compacted).expect("compacted opens");
            let ooc = analyze_segments(&mut reader, &config, jobs, u64::MAX)
                .expect("out-of-core analysis of compacted file")
                .to_json()
                .expect("plan serializes");
            assert_eq!(
                ooc, plan_ref,
                "Bug-{}: compacted-file batch plan diverged at jobs={jobs}",
                spec.id
            );
            for p in generations.iter().chain([&compacted]) {
                std::fs::remove_file(p).ok();
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn indexed_tsv_plan_is_byte_identical_for_every_bug_at_every_job_count() {
    let delta = SimTime::from_ms(100);
    let window = SimTime::from_ms(1);
    for spec in all_bugs() {
        let w = workload_for(spec.id);
        let trace = recorded_trace(&w);
        let reference = analyze_tsv_unindexed(&trace, delta, window)
            .to_json()
            .expect("plan serializes");
        let index = TraceIndex::build(&trace);
        for jobs in JOB_COUNTS {
            let indexed = analyze_tsv_indexed(&index, delta, window, jobs)
                .to_json()
                .expect("plan serializes");
            assert_eq!(
                indexed, reference,
                "Bug-{}: TSV plan diverged at jobs={jobs}",
                spec.id
            );
        }
    }
}
