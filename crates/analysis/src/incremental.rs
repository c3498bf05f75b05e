//! Incremental analysis: fold freshly sealed generations into a running
//! candidate set, byte-identical to a one-shot batch sweep.
//!
//! `waffle serve` seals a session's events into generation segment files
//! as they arrive. Re-running [`crate::analyze_jobs`] over everything
//! after every seal would make analysis cost quadratic in session length;
//! [`IncrementalAnalysis`] instead sweeps **fresh events only** per seal
//! and keeps three things between seals:
//!
//! - the shared folds ([`MemFold`] and [`TsvFold`]), whose per-pair folds
//!   are commutative (max gap, summed observations, **min** representative
//!   object);
//! - the sweep stats, inside the MemOrder fold;
//! - a per-object **δ-window tail**: the suffix of each object's events
//!   still within `δ` of the session's latest timestamp.
//!
//! At each [`absorb`](IncrementalAnalysis::absorb), the tail is prepended
//! to the generation's fresh columns and the folds' `fresh_from` sweep
//! ([`MemFold::absorb`]) counts only pairs whose *later* event is fresh.
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
//! **compacted** segment file through the same streaming pass
//! [`crate::analyze_segments`] uses.

use std::collections::BTreeMap;
use std::io;

use waffle_mem::{AccessKind, ObjectId, SiteId};
use waffle_sim::{SimTime, ThreadId};
use waffle_trace::{ClassColumns, ClockId, ClockPool, SegmentReader};

use crate::analyzer::AnalyzerConfig;
use crate::ooc::replay_interference;
use crate::pipeline::{MemFold, TsvFold};
use crate::plan::Plan;
use crate::tsv::TsvPlan;

/// One object's carried δ-window suffix between seals.
#[derive(Debug, Default, Clone)]
struct Tail {
    times: Vec<SimTime>,
    threads: Vec<ThreadId>,
    sites: Vec<SiteId>,
    kinds: Vec<AccessKind>,
    clocks: Vec<ClockId>,
}

impl Tail {
    fn len(&self) -> usize {
        self.times.len()
    }
}

type TailMap = BTreeMap<ObjectId, Tail>;

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
    mem_tails: TailMap,
    tsv_tails: TailMap,
}

/// The carried tails prepended to one generation's fresh columns, plus the
/// per-slot offsets where fresh events begin.
fn combine(tails: &TailMap, fresh: &ClassColumns) -> (ClassColumns, Vec<u32>) {
    let mut cols = ClassColumns::default();
    let mut fresh_from = Vec::with_capacity(fresh.object_count());
    cols.offsets.push(0);
    for k in 0..fresh.object_count() {
        let obj = fresh.objects[k];
        let tail_len = match tails.get(&obj) {
            Some(t) => {
                cols.times.extend_from_slice(&t.times);
                cols.threads.extend_from_slice(&t.threads);
                cols.sites.extend_from_slice(&t.sites);
                cols.kinds.extend_from_slice(&t.kinds);
                cols.clocks.extend_from_slice(&t.clocks);
                t.len()
            }
            None => 0,
        };
        let r = fresh.range(k);
        cols.times.extend_from_slice(&fresh.times[r.clone()]);
        cols.threads.extend_from_slice(&fresh.threads[r.clone()]);
        cols.sites.extend_from_slice(&fresh.sites[r.clone()]);
        cols.kinds.extend_from_slice(&fresh.kinds[r.clone()]);
        cols.clocks.extend_from_slice(&fresh.clocks[r.clone()]);
        cols.objs
            .extend(std::iter::repeat_n(obj, tail_len + r.len()));
        cols.objects.push(obj);
        cols.offsets.push(cols.times.len() as u32);
        fresh_from.push(tail_len as u32);
    }
    (cols, fresh_from)
}

/// Recomputes the tail map after a generation was absorbed: objects the
/// generation touched keep the δ-window suffix of their *combined*
/// segment; untouched tails are pruned against the new horizon.
fn update_tails(tails: &mut TailMap, combined: &ClassColumns, horizon: SimTime, delta: SimTime) {
    // An event can still pair with future (time ≥ horizon) events only
    // while `horizon − t < δ`.
    let expired = |t: SimTime| horizon.saturating_sub(t) >= delta;
    tails.retain(|obj, tail| {
        if combined.objects.binary_search(obj).is_ok() {
            // Replaced below from the combined columns.
            return true;
        }
        let keep_from = tail.times.partition_point(|&t| expired(t));
        if keep_from == tail.len() {
            return false;
        }
        tail.times.drain(..keep_from);
        tail.threads.drain(..keep_from);
        tail.sites.drain(..keep_from);
        tail.kinds.drain(..keep_from);
        tail.clocks.drain(..keep_from);
        true
    });
    for k in 0..combined.object_count() {
        let obj = combined.objects[k];
        let r = combined.range(k);
        let seg = &combined.times[r.clone()];
        let keep_from = r.start + seg.partition_point(|&t| expired(t));
        if keep_from == r.end {
            tails.remove(&obj);
            continue;
        }
        tails.insert(
            obj,
            Tail {
                times: combined.times[keep_from..r.end].to_vec(),
                threads: combined.threads[keep_from..r.end].to_vec(),
                sites: combined.sites[keep_from..r.end].to_vec(),
                kinds: combined.kinds[keep_from..r.end].to_vec(),
                clocks: combined.clocks[keep_from..r.end].to_vec(),
            },
        );
    }
}

impl IncrementalAnalysis {
    /// Opens an empty fold under `config`, with the TSV default window the
    /// batch path would use.
    pub fn new(config: AnalyzerConfig, default_window: SimTime) -> Self {
        Self {
            config,
            mem: MemFold::default(),
            tsv: TsvFold::new(config.delta, default_window),
            mem_tails: TailMap::new(),
            tsv_tails: TailMap::new(),
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
        update_tails(&mut self.mem_tails, &combined, horizon, delta);
        let (combined, fresh_from) = combine(&self.tsv_tails, tsv);
        self.tsv.absorb(&combined, Some(&fresh_from), jobs);
        update_tails(&mut self.tsv_tails, &combined, horizon, delta);
    }

    /// Sizes of the carried state (bounded by δ and site-pair diversity).
    pub fn state_stats(&self) -> IncrementalStats {
        IncrementalStats {
            pairs: self.mem.len(),
            tsv_pairs: self.tsv.len(),
            mem_tail_events: self.mem_tails.values().map(Tail::len).sum(),
            tsv_tail_events: self.tsv_tails.values().map(Tail::len).sum(),
        }
    }

    /// Finalizes the fold into a detection [`Plan`] and [`TsvPlan`].
    ///
    /// `compacted` is the session's compacted segment file (all
    /// generations merged), which the interference pass streams under
    /// `resident_bytes`; `None` (a session that never sealed an event)
    /// yields an empty interference set, matching the batch path on an
    /// empty trace.
    pub fn finish(
        self,
        workload: &str,
        compacted: Option<&mut SegmentReader>,
        resident_bytes: u64,
    ) -> io::Result<(Plan, TsvPlan)> {
        let plan = self
            .mem
            .finish(workload.to_string(), &self.config, |pass| match compacted {
                Some(reader) => replay_interference(reader, pass, resident_bytes),
                None => Ok(()),
            })?;
        Ok((plan, self.tsv.finish(workload.to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_jobs, analyze_tsv_indexed};
    use waffle_mem::SiteRegistry;
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

    #[test]
    fn chunked_absorbs_match_the_batch_sweep() {
        let (sites, clocks, events) = stream_events();
        let trace = Trace {
            workload: "inc.test".into(),
            sites: sites.clone(),
            events: events.clone(),
            forks: vec![],
            clocks: clocks.clone(),
            end_time: SimTime::from_us(100_000),
        };
        let config = AnalyzerConfig::default().without_interference_control();
        let w = SimTime::from_ms(1);
        let reference = analyze_jobs(&trace, &config, 1).to_json().unwrap();
        let tsv_reference = analyze_tsv_indexed(&TraceIndex::build(&trace), config.delta, w, 1)
            .to_json()
            .unwrap();

        let dir = std::env::temp_dir().join(format!("waffle-inc-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for chunk_size in [1, 3, 4, 12] {
            for jobs in [1, 2, 8] {
                let mut b = SessionIndexBuilder::new("inc.test");
                b.add_sites(
                    &sites
                        .iter()
                        .map(|(_, info)| (info.name.clone(), info.kind))
                        .collect::<Vec<_>>(),
                )
                .unwrap();
                b.add_clocks(clocks.snapshots()[1..].to_vec()).unwrap();
                let mut inc = IncrementalAnalysis::new(config, w);
                for (g, chunk) in events.chunks(chunk_size).enumerate() {
                    b.push_batch(chunk.to_vec()).unwrap();
                    let path = dir.join(format!("gen-{chunk_size}-{jobs}-{g}.wseg"));
                    let out = b.seal(&path).unwrap();
                    inc.absorb(&out.mem, &out.tsv, b.clocks(), b.last_time(), jobs);
                    let _ = std::fs::remove_file(&path);
                }
                let (plan, tsv) = inc.finish("inc.test", None, u64::MAX).unwrap();
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
