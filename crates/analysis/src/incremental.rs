//! Incremental analysis: fold freshly sealed generations into a running
//! candidate set, byte-identical to a one-shot batch sweep.
//!
//! `waffle serve` seals a session's events into generation segment files
//! as they arrive. Re-running [`crate::analyze_jobs`] over everything
//! after every seal would make analysis cost quadratic in session length;
//! [`IncrementalAnalysis`] instead sweeps **fresh events only** per seal
//! and keeps three things between seals:
//!
//! - the shared MemOrder and TSV folds, whose per-pair folds
//!   are commutative (max gap, summed observations, **min** representative
//!   object);
//! - the sweep stats, inside the MemOrder fold;
//! - a per-object **δ-window tail**: the suffix of each object's events
//!   still within `δ` of the session's latest timestamp, all objects'
//!   suffixes held as one [`ClassColumns`] per class.
//!
//! At each [`absorb`](IncrementalAnalysis::absorb), the tail is prepended
//! to the generation's fresh columns and the folds' `fresh_from` sweep
//! counts only pairs whose *later* event is fresh.
//! Session streams are time-ordered, so any event that can still pair with
//! a future event is by definition within `δ` of the stream head — exactly
//! the tail that was kept. Each cross-seal pair is therefore examined
//! exactly once, in the absorb where its later event arrives, and the
//! accumulated candidates, gaps, observation counts, and window statistics
//! are byte-identical to a batch sweep over the concatenated trace (pinned
//! at jobs 1/2/8 across ≥3 seal boundaries by
//! `tests/analysis_equivalence.rs`).
//!
//! Interference windows also cross seal boundaries, but the interference
//! pass needs the final candidate set, so there is nothing to fold early:
//! [`finish`](IncrementalAnalysis::finish) replays the session's
//! **generation files** in seal order, one open at a time, into the
//! interference pass, and carries the same δ-window tail across their
//! boundaries. Only a fresh event records a delay-site execution, and only
//! a pair whose later event is fresh records an observation, so each is
//! recorded once. Nothing is merged first: within a session, site and
//! clock ids are already global (the registry and pool only grow), and an
//! object's rows across generations concatenate in time order.

use std::borrow::BorrowMut;
use std::io;

use waffle_sim::SimTime;
use waffle_trace::{ClassColumns, ClockPool, SegmentClass, SegmentReader};

use crate::analyzer::AnalyzerConfig;
use crate::ooc::for_each_batch;
use crate::pipeline::{InterferencePass, MemFold, TsvFold};
use crate::plan::Plan;
use crate::tsv::TsvPlan;

/// Size snapshot of the incremental state (telemetry; all bounded by the
/// δ window and distinct site pairs, never by session length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Distinct candidate site pairs accumulated so far.
    pub pairs: usize,
    /// Distinct TSV site pairs accumulated so far.
    pub tsv_pairs: usize,
    /// Events currently carried in MemOrder tails.
    pub mem_tail_events: usize,
    /// Events currently carried in TSV tails.
    pub tsv_tail_events: usize,
}

/// The running fold over a session's sealed generations.
#[derive(Debug)]
pub struct IncrementalAnalysis {
    config: AnalyzerConfig,
    mem: MemFold,
    tsv: TsvFold,
    mem_tails: ClassColumns,
    tsv_tails: ClassColumns,
}

/// The carried tails prepended to one generation's fresh columns, plus the
/// per-slot offsets where fresh events begin.
fn combine(tails: &ClassColumns, fresh: &ClassColumns) -> (ClassColumns, Vec<u32>) {
    let mut cols = ClassColumns::with_capacity(tails.len() + fresh.len(), fresh.object_count());
    let mut fresh_from = Vec::with_capacity(fresh.object_count());
    for k in 0..fresh.object_count() {
        let obj = fresh.objects[k];
        let tail = tails
            .objects
            .binary_search(&obj)
            .map_or(0..0, |t| tails.range(t));
        fresh_from.push(tail.len() as u32);
        cols.extend_rows(tails, tail);
        cols.extend_rows(fresh, fresh.range(k));
        cols.push_object(obj);
    }
    (cols, fresh_from)
}

/// The tails to carry on: every object's δ-window suffix against
/// `horizon`, taken from `combined` for its objects and from `tails` for
/// the rest. The rest are cut too only when `prune_rest`; an object left
/// with no event in the window drops out.
fn carry_tails(
    tails: &ClassColumns,
    combined: &ClassColumns,
    horizon: SimTime,
    delta: SimTime,
    prune_rest: bool,
) -> ClassColumns {
    let mut next = ClassColumns::default();
    let mut keep = |src: &ClassColumns, k: usize, cut: bool| {
        let r = src.range(k);
        let from = if cut {
            r.start + src.times[r.clone()].partition_point(|&t| expired(t, horizon, delta))
        } else {
            r.start
        };
        if from < r.end {
            next.extend_rows(src, from..r.end);
            next.push_object(src.objects[k]);
        }
    };
    // Both object lists ascend: merge them, `combined` winning ties.
    let mut t = 0;
    for k in 0..combined.object_count() {
        let obj = combined.objects[k];
        while tails.objects.get(t).is_some_and(|&o| o < obj) {
            keep(tails, t, prune_rest);
            t += 1;
        }
        t += usize::from(tails.objects.get(t) == Some(&obj));
        keep(combined, k, true);
    }
    for t in t..tails.object_count() {
        keep(tails, t, prune_rest);
    }
    next
}

/// An event at `t` can still pair with a later event (time ≥ `horizon`)
/// only while `horizon − t < δ`.
fn expired(t: SimTime, horizon: SimTime, delta: SimTime) -> bool {
    horizon.saturating_sub(t) >= delta
}

/// The interference replay: streams the MemOrder columns of `generations`,
/// in seal order and one generation at a time, into `pass`, carrying the
/// same per-object δ-window tail [`IncrementalAnalysis::absorb`] carries,
/// so every window that crosses a seal boundary is walked once, in the
/// generation where its later event lies.
///
/// Each generation streams in budget batches of disjoint object ranges.
/// A batch replaces only its own objects' tails; the other tails are
/// pruned once the whole generation has streamed, against the
/// generation's latest MemOrder time (no later event predates it). An
/// object in a later batch of the same generation may still pair with
/// its old tail, so pruning per batch would lose windows.
fn replay_generations<R: BorrowMut<SegmentReader>>(
    generations: impl IntoIterator<Item = R>,
    pass: &mut InterferencePass,
    delta: SimTime,
    resident_bytes: u64,
) -> io::Result<()> {
    let mut tails = ClassColumns::default();
    for mut reader in generations {
        let reader = reader.borrow_mut();
        let Some(horizon) = reader.catalog().mem.iter().map(|m| m.max_time).max() else {
            continue;
        };
        for_each_batch(reader, SegmentClass::MemOrder, resident_bytes, |cols, _| {
            let (combined, fresh_from) = combine(&tails, cols);
            pass.collect(&combined, Some(&fresh_from));
            tails = carry_tails(&tails, &combined, horizon, delta, false);
        })?;
        tails = carry_tails(&tails, &ClassColumns::default(), horizon, delta, true);
    }
    Ok(())
}

impl IncrementalAnalysis {
    /// Opens an empty fold under `config`, with the TSV default window the
    /// batch path would use.
    pub fn new(config: AnalyzerConfig, default_window: SimTime) -> Self {
        Self {
            config,
            mem: MemFold::default(),
            tsv: TsvFold::new(config.delta, default_window),
            mem_tails: ClassColumns::default(),
            tsv_tails: ClassColumns::default(),
        }
    }

    /// Folds one freshly sealed generation into the running state.
    ///
    /// `mem`/`tsv` are the generation's columns (from
    /// [`SessionIndexBuilder::seal`](waffle_trace::SessionIndexBuilder::seal)),
    /// `pool` the session's monotonically grown clock pool, and `horizon`
    /// the latest event time the session has accepted (the tail-pruning
    /// bound). Sharded across `jobs` threads with the same deterministic
    /// merge as the batch sweep.
    pub fn absorb(
        &mut self,
        mem: &ClassColumns,
        tsv: &ClassColumns,
        pool: &ClockPool,
        horizon: SimTime,
        jobs: usize,
    ) {
        let delta = self.config.delta;
        let (combined, fresh_from) = combine(&self.mem_tails, mem);
        self.mem
            .absorb(&combined, pool, &self.config, Some(&fresh_from), jobs);
        self.mem_tails = carry_tails(&self.mem_tails, &combined, horizon, delta, true);
        let (combined, fresh_from) = combine(&self.tsv_tails, tsv);
        self.tsv.absorb(&combined, Some(&fresh_from), jobs);
        self.tsv_tails = carry_tails(&self.tsv_tails, &combined, horizon, delta, true);
    }

    /// Sizes of the carried state (bounded by δ and site-pair diversity).
    pub fn state_stats(&self) -> IncrementalStats {
        IncrementalStats {
            pairs: self.mem.len(),
            tsv_pairs: self.tsv.len(),
            mem_tail_events: self.mem_tails.len(),
            tsv_tail_events: self.tsv_tails.len(),
        }
    }

    /// Finalizes the fold into a detection [`Plan`] and [`TsvPlan`].
    ///
    /// `generations` are the session's sealed generation files, in seal
    /// order; the interference pass replays them one at a time under
    /// `resident_bytes`, so a lazy iterator keeps only one reader open.
    /// A compacted file is a replay of one generation, and no generation
    /// (a session that never sealed an event) yields an empty interference
    /// set, matching the batch path on an empty trace.
    pub fn finish<R: BorrowMut<SegmentReader>>(
        self,
        workload: &str,
        generations: impl IntoIterator<Item = R>,
        resident_bytes: u64,
    ) -> io::Result<(Plan, TsvPlan)> {
        let Self {
            config,
            mem,
            tsv,
            mem_tails,
            tsv_tails,
        } = self;
        // The absorb tails are done with; free them before the replay
        // grows its own.
        drop((mem_tails, tsv_tails));
        let plan = mem.finish(workload.to_string(), &config, |pass| {
            replay_generations(generations, pass, config.delta, resident_bytes)
        })?;
        Ok((plan, tsv.finish(workload.to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_jobs, analyze_tsv_indexed};
    use waffle_mem::{AccessKind, ObjectId, SiteRegistry};
    use waffle_sim::ThreadId;
    use waffle_trace::{SessionIndexBuilder, Trace, TraceEvent, TraceIndex};
    use waffle_vclock::ClockSnapshot;

    /// A hand-built trace exercising cross-boundary windows: candidate
    /// pairs whose two events land in different thirds of the stream.
    fn stream_events() -> (SiteRegistry, ClockPool, Vec<TraceEvent>) {
        let mut sites = SiteRegistry::new();
        let si = sites.register("init", AccessKind::Init);
        let su = sites.register("use", AccessKind::Use);
        let sd = sites.register("dispose", AccessKind::Dispose);
        let sc = sites.register("call", AccessKind::UnsafeApiCall);
        let mut clocks = ClockPool::new();
        let mut events = Vec::new();
        let mut ev = |t: u64, thread: u32, site, obj: u32, kind, snap: &[(u32, u64)]| {
            let clock = clocks.intern(ClockSnapshot::from_entries(
                snap.iter().map(|&(t, v)| (ThreadId(t), v)),
            ));
            events.push(TraceEvent {
                time: SimTime::from_us(t),
                thread: ThreadId(thread),
                site,
                obj: ObjectId(obj),
                kind,
                dyn_index: 0,
                clock,
            });
        };
        // Pair within one chunk.
        ev(100, 0, si, 0, AccessKind::Init, &[(0, 1)]);
        ev(150, 1, su, 0, AccessKind::Use, &[(1, 1)]);
        // Pair spanning the first boundary (chunk size 4): i in chunk 0,
        // j in chunk 1, gap 80µs < δ.
        ev(400, 0, su, 1, AccessKind::Use, &[(0, 2)]);
        ev(420, 0, si, 2, AccessKind::Init, &[(0, 3)]);
        ev(480, 1, sd, 1, AccessKind::Dispose, &[(1, 2)]);
        ev(500, 1, su, 2, AccessKind::Use, &[(1, 3)]);
        // TSV pair spanning the second boundary.
        ev(700, 0, sc, 3, AccessKind::UnsafeApiCall, &[]);
        ev(760, 1, sc, 3, AccessKind::UnsafeApiCall, &[]);
        // A lower-numbered object for the (init, use) pair arriving late:
        // exercises the min-fold representative across generations.
        ev(90_000, 0, si, 5, AccessKind::Init, &[(0, 9)]);
        ev(90_010, 1, su, 5, AccessKind::Use, &[(1, 9)]);
        ev(95_000, 0, si, 4, AccessKind::Init, &[(0, 10)]);
        ev(95_020, 1, su, 4, AccessKind::Use, &[(1, 10)]);
        (sites, clocks, events)
    }

    /// Seals each of `parts` (consecutive slices of `trace.events`) as
    /// one generation file under `dir`, absorbing each as it seals;
    /// returns the fold and the generation paths in seal order.
    fn seal_parts(
        trace: &Trace,
        parts: &[&[TraceEvent]],
        dir: &std::path::Path,
        config: AnalyzerConfig,
        window: SimTime,
        jobs: usize,
    ) -> (IncrementalAnalysis, Vec<std::path::PathBuf>) {
        let mut b = SessionIndexBuilder::new(trace.workload.clone());
        b.add_sites(
            &trace
                .sites
                .iter()
                .map(|(_, info)| (info.name.clone(), info.kind))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        b.add_clocks(trace.clocks.snapshots()[1..].to_vec())
            .unwrap();
        let mut inc = IncrementalAnalysis::new(config, window);
        let mut paths = Vec::new();
        for (g, events) in parts.iter().enumerate() {
            b.push_batch(events.to_vec()).unwrap();
            let path = dir.join(format!("gen-{}-{jobs}-{g}.wseg", parts.len()));
            let out = b.seal(&path).unwrap();
            inc.absorb(&out.mem, &out.tsv, b.clocks(), b.last_time(), jobs);
            paths.push(path);
        }
        (inc, paths)
    }

    fn open_all(paths: &[std::path::PathBuf]) -> impl Iterator<Item = SegmentReader> + '_ {
        paths.iter().map(|p| SegmentReader::open(p).unwrap())
    }

    #[test]
    fn chunked_absorbs_match_the_batch_sweep() {
        let (sites, clocks, events) = stream_events();
        let trace = Trace {
            workload: "inc.test".into(),
            sites,
            events,
            forks: vec![],
            clocks,
            end_time: SimTime::from_us(100_000),
        };
        let w = SimTime::from_ms(1);
        let dir = std::env::temp_dir().join(format!("waffle-inc-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for config in [
            AnalyzerConfig::default(),
            AnalyzerConfig::default().without_interference_control(),
        ] {
            let reference = analyze_jobs(&trace, &config, 1).to_json().unwrap();
            let tsv_reference = analyze_tsv_indexed(&TraceIndex::build(&trace), config.delta, w, 1)
                .to_json()
                .unwrap();
            for chunk_size in [1, 3, 4, 12] {
                for jobs in [1, 2, 8] {
                    let parts: Vec<_> = trace.events.chunks(chunk_size).collect();
                    let (inc, paths) = seal_parts(&trace, &parts, &dir, config, w, jobs);
                    let (plan, tsv) = inc.finish("inc.test", open_all(&paths), 1).unwrap();
                    assert_eq!(
                        plan.to_json().unwrap(),
                        reference,
                        "plan drifted (chunk={chunk_size}, jobs={jobs})"
                    );
                    assert_eq!(
                        tsv.to_json().unwrap(),
                        tsv_reference,
                        "tsv drifted (chunk={chunk_size}, jobs={jobs})"
                    );
                    for p in &paths {
                        let _ = std::fs::remove_file(p);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// δ windows cut by every seal boundary of a stream whose events share
    /// one timestamp on both sides of each cut: replaying the generations
    /// records exactly the observations and delay-site executions of one
    /// pass over the whole trace — none lost, none recorded twice — at a
    /// one-byte budget (one object per batch) and an unbounded one.
    #[test]
    fn windows_cut_at_a_seal_boundary_replay_exactly_once() {
        let mut sites = SiteRegistry::new();
        let mut clocks = ClockPool::new();
        let mut events = Vec::new();
        let mut ev = |t: u64, thread: u32, site: &str, obj: u32, kind| {
            let site = sites.register(site, kind);
            let clock = clocks.intern(ClockSnapshot::from_entries([(ThreadId(thread), t)]));
            events.push(TraceEvent {
                time: SimTime::from_us(t),
                thread: ThreadId(thread),
                site,
                obj: ObjectId(obj),
                kind,
                dyn_index: 0,
                clock,
            });
        };
        // Three objects whose windows all open at t = 1000, interleaved so
        // a cut anywhere splits some window; `x.init` runs on both threads
        // on both sides, so it is an interferer of every observation.
        ev(1_000, 0, "a.init", 0, AccessKind::Init);
        ev(1_000, 1, "b.init", 1, AccessKind::Init);
        ev(1_000, 1, "x.init", 2, AccessKind::Init);
        ev(1_000, 1, "a.use", 0, AccessKind::Use);
        ev(1_000, 0, "b.use", 1, AccessKind::Use);
        ev(1_000, 0, "x.use", 2, AccessKind::Use);
        ev(1_000, 0, "x.init", 2, AccessKind::Init);
        ev(1_000, 1, "x.use", 2, AccessKind::Use);
        // Inside δ = 50µs of t = 1000, then on the window's edge (out).
        ev(1_049, 1, "a.use", 0, AccessKind::Use);
        ev(1_049, 0, "b.use", 1, AccessKind::Use);
        ev(1_050, 1, "a.use", 0, AccessKind::Use);
        ev(1_050, 1, "x.init", 2, AccessKind::Init);
        ev(1_060, 0, "x.use", 2, AccessKind::Use);
        let trace = Trace {
            workload: "inc.cut".into(),
            sites,
            events,
            forks: vec![],
            clocks,
            end_time: SimTime::from_us(2_000),
        };
        let config = AnalyzerConfig {
            delta: SimTime::from_us(50),
            ..AnalyzerConfig::default()
        }
        .without_parent_child();
        let w = SimTime::from_ms(1);
        let reference = analyze_jobs(&trace, &config, 1);
        assert!(
            !reference.interference.is_empty(),
            "the stream must produce interference or the test is vacuous"
        );
        let mut whole = InterferencePass::new(&reference.candidates, config.delta);
        whole.collect(&TraceIndex::build(&trace).mem, None);
        let recorded = whole.recorded();
        let candidates = reference.candidates.clone();
        let reference = reference.to_json().unwrap();

        let dir = std::env::temp_dir().join(format!("waffle-inc-cut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let n = trace.events.len();
        // Two generations cut after `cut` events, and `cut`-sized chunks.
        for cut in 1..n {
            let halves = [&trace.events[..cut], &trace.events[cut..]];
            let chunks: Vec<_> = trace.events.chunks(cut).collect();
            for parts in [&halves[..], &chunks[..]] {
                for budget in [u64::MAX, 1] {
                    let (inc, paths) = seal_parts(&trace, parts, &dir, config, w, 1);
                    let mut pass = InterferencePass::new(&candidates, config.delta);
                    replay_generations(open_all(&paths), &mut pass, config.delta, budget).unwrap();
                    let what = format!("cut={cut}, generations={}, budget={budget}", parts.len());
                    assert_eq!(pass.recorded(), recorded, "{what}");
                    let (plan, _) = inc.finish("inc.cut", open_all(&paths), budget).unwrap();
                    assert_eq!(plan.to_json().unwrap(), reference, "{what}");
                    for p in &paths {
                        let _ = std::fs::remove_file(p);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tails_stay_bounded_by_the_window() {
        let mut sites = SiteRegistry::new();
        let si = sites.register("init", AccessKind::Init);
        let mut b = SessionIndexBuilder::new("inc.tail");
        b.add_sites(&[("init".into(), AccessKind::Init)]).unwrap();
        let config = AnalyzerConfig::default();
        let mut inc = IncrementalAnalysis::new(config, SimTime::from_ms(1));
        let dir = std::env::temp_dir().join(format!("waffle-inc-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Events far apart in time: each generation's tail must evict the
        // previous generation entirely (gap >> δ).
        for g in 0u64..5 {
            for i in 0..100 {
                b.push(TraceEvent {
                    time: SimTime::from_us(g * 10_000_000 + i),
                    thread: ThreadId(0),
                    site: si,
                    obj: ObjectId(0),
                    kind: AccessKind::Init,
                    dyn_index: 0,
                    clock: waffle_trace::ClockId::EMPTY,
                })
                .unwrap();
            }
            let path = dir.join(format!("gen-{g}.wseg"));
            let out = b.seal(&path).unwrap();
            inc.absorb(&out.mem, &out.tsv, b.clocks(), b.last_time(), 1);
            let _ = std::fs::remove_file(&path);
            let s = inc.state_stats();
            assert!(
                s.mem_tail_events <= 100,
                "tail grew past one generation: {}",
                s.mem_tail_events
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
