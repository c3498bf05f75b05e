//! The fused single-pass analysis pipeline over the columnar trace index.
//!
//! The reference scanners ([`crate::candidates::near_miss_candidates`],
//! [`crate::interference::build_interference`],
//! [`crate::tsv::analyze_tsv_unindexed`]) each re-walk the whole event
//! vector and regroup it per object on the heap. This module replaces them
//! with one sweep over the shared [`TraceIndex`]:
//!
//! - the near-miss window scan is a **two-pointer sweep** over each
//!   object's contiguous, time-sorted column segment (the window frontier
//!   `j_hi` only moves forward, so every timestamp is compared O(1) times
//!   amortized);
//! - candidate aggregation happens in the same pass; interference
//!   observations are then gathered by a short second walk restricted to
//!   the *candidate* site pairs, so the observation heap is bounded by
//!   candidate activity instead of by window pairs;
//! - interference windows are resolved per delay site, not per
//!   observation: the windows become index ranges over each thread's
//!   sorted delay-site executions, merged so every execution is visited
//!   at most once per (delay site, thread);
//! - happens-before checks go through interned [`ClockId`] handles with a
//!   symmetric memo table, so each distinct snapshot pair is compared once
//!   instead of once per event pair;
//! - objects are sharded across a scoped thread pool (`jobs` workers over
//!   contiguous object-slot ranges) and shard outputs merge **in shard
//!   order** with commutative per-key folds (max gap, summed counts,
//!   first-shard representative object), so the resulting [`Plan`] is
//!   bit-identical for every `jobs` value.
//!
//! Equivalence with the reference scanners is pinned by
//! `tests/analysis_equivalence.rs` across every seeded bug workload.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;

use waffle_mem::{AccessKind, ObjectId, SiteId};
use waffle_sim::{SimTime, ThreadId};
use waffle_trace::{ClassColumns, ClockId, ClockPool, TraceIndex};

use crate::analyzer::AnalyzerConfig;
use crate::candidates::{BugKind, CandidatePair, NearMissStats};
use crate::interference::InterferenceSet;
use crate::plan::Plan;
use crate::tsv::{TsvCandidate, TsvPlan};

/// Per-pair aggregate built during the sweep; becomes a [`CandidatePair`]
/// once shards are merged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandAgg {
    /// Representative object: the first admitted observation in ascending
    /// object order within the shard (globally resolved by keeping the
    /// first shard's value on merge).
    obj: ObjectId,
    max_gap: SimTime,
    observations: u32,
}

/// Near-miss observations of one site pair: `(τ1, τ2, thread-of-ℓ2)`.
pub(crate) type PairObservations = Vec<(SimTime, SimTime, ThreadId)>;

/// The candidate-pair accumulator the shard merge folds into.
pub(crate) type PairMap = HashMap<(SiteId, SiteId, BugKind), CandAgg>;

/// The interference-observation accumulator.
pub(crate) type ObsMap = HashMap<(SiteId, SiteId), PairObservations>;

/// Delay-site executions grouped by thread, time-sorted before use.
pub(crate) type DelayExecs = HashMap<ThreadId, Vec<(SimTime, SiteId)>>;

/// Everything one shard's sweep produces. Interference observations are
/// deliberately *not* collected here: they are only needed for candidate
/// site pairs, which are unknown until every shard has merged, and
/// recording one per examined pair made the sweep's heap (and time) scale
/// with window pairs. [`collect_candidate_obs`] re-walks the columns for
/// just the candidate keys afterwards.
#[derive(Debug, Default)]
pub(crate) struct ShardOut {
    pairs: PairMap,
    window_pairs: u64,
    examined: u64,
    pruned_ordered: u64,
}

/// Memoized symmetric happens-before check over pooled clock handles.
///
/// `is_ordered` is symmetric (`Before`/`After` both order, `Equal` orders,
/// `Concurrent` does not), so the memo key is the normalized `(min, max)`
/// id pair; equal ids are ordered by definition.
///
/// The memo is a **direct-mapped table sized from the clock pool**, not a
/// growable map: on a clock-diverse trace the number of distinct snapshot
/// pairs inside δ windows is quadratic in events, and an unbounded memo
/// made analysis peak-heap scale with window pairs. A colliding entry
/// simply overwrites its slot — deterministic (the slot is a pure function
/// of the key) and always correct, because a miss only costs recomputing
/// the pure `order()` comparison.
pub(crate) struct OrderMemo<'p> {
    pool: &'p ClockPool,
    mask: u64,
    /// `(lo, hi, ordered)` keyed slots; `u32::MAX` ids mark an empty slot
    /// (unreachable as a real pair: equal ids short-circuit before lookup).
    slots: Vec<(u32, u32, bool)>,
}

impl<'p> OrderMemo<'p> {
    const EMPTY_SLOT: (u32, u32, bool) = (u32::MAX, u32::MAX, false);

    pub(crate) fn new(pool: &'p ClockPool) -> Self {
        let cap = Self::capacity_for(pool.len());
        Self {
            pool,
            mask: cap as u64 - 1,
            slots: vec![Self::EMPTY_SLOT; cap],
        }
    }

    /// Table size for a pool of `n` snapshots: ~16 slots per snapshot,
    /// power of two, clamped to [2¹⁰, 2¹⁸] (the ceiling bounds the memo at
    /// a few MB no matter how clock-diverse the trace is). The generous
    /// multiplier exists because the memo is keyed by snapshot *pairs*,
    /// whose diversity grows faster than the pool: a direct-mapped table
    /// sized near the key count thrashes (every collision recomputes a
    /// full clock comparison), and slots are 12 bytes.
    pub(crate) fn capacity_for(n: usize) -> usize {
        n.saturating_mul(16).next_power_of_two().clamp(1 << 10, 1 << 18)
    }

    fn ordered(&mut self, a: ClockId, b: ClockId) -> bool {
        if a == b {
            return true;
        }
        let (lo, hi) = if a <= b { (a.0, b.0) } else { (b.0, a.0) };
        // Fibonacci-style mix of both halves of the key; fixed constants
        // keep the slot assignment identical across runs and shards.
        let h = u64::from(lo).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(hi).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let idx = ((h >> 16) & self.mask) as usize;
        let slot = &mut self.slots[idx];
        if slot.0 == lo && slot.1 == hi {
            return slot.2;
        }
        let v = self
            .pool
            .get(ClockId(lo))
            .order(self.pool.get(ClockId(hi)))
            .is_ordered();
        *slot = (lo, hi, v);
        v
    }
}

/// Splits `n` object slots into at most `jobs` contiguous, near-even
/// ranges. Deterministic in `(n, jobs)`.
pub(crate) fn shard_ranges(n: usize, jobs: usize) -> Vec<Range<usize>> {
    let jobs = jobs.max(1).min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let base = n / jobs;
    let extra = n % jobs;
    let mut ranges = Vec::with_capacity(jobs);
    let mut start = 0;
    for s in 0..jobs {
        let len = base + usize::from(s < extra);
        if len == 0 {
            continue;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Runs `f` over each shard, on a scoped thread pool when `jobs > 1`.
/// Results come back in shard order either way.
pub(crate) fn run_shards<T, F>(shards: Vec<Range<usize>>, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if jobs <= 1 || shards.len() <= 1 {
        return shards.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = shards
            .into_iter()
            .map(|s| scope.spawn(move || f(s)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analysis shard panicked"))
            .collect()
    })
}

/// Sweeps one shard (a contiguous range of object slots) of the MemOrder
/// columns: the fused candidate + interference-observation scan.
pub(crate) fn sweep_mem_shard(
    cols: &ClassColumns,
    pool: &ClockPool,
    slots: Range<usize>,
    delta: SimTime,
    prune_ordered: bool,
) -> ShardOut {
    sweep_mem_shard_from(cols, pool, slots, delta, prune_ordered, None)
}

/// [`sweep_mem_shard`] generalized for incremental absorption: when
/// `fresh_from` is given, `fresh_from[k]` is the offset *within slot `k`'s
/// segment* where this generation's fresh events begin (everything before
/// it is the carried δ-window tail of earlier generations), and only pairs
/// whose **later** event is fresh are counted. Each cross-generation pair
/// is therefore counted in exactly one absorb — the one where its later
/// event arrives — which is what makes the incremental fold byte-identical
/// to a batch sweep over the concatenated trace. `fresh_from = None` (or
/// all zeros) is the plain batch sweep.
pub(crate) fn sweep_mem_shard_from(
    cols: &ClassColumns,
    pool: &ClockPool,
    slots: Range<usize>,
    delta: SimTime,
    prune_ordered: bool,
    fresh_from: Option<&[u32]>,
) -> ShardOut {
    let mut out = ShardOut::default();
    let mut ord = OrderMemo::new(pool);
    for k in slots {
        let r = cols.range(k);
        let fresh = fresh_from.map_or(r.start, |f| r.start + f[k] as usize);
        // Two-pointer sweep: `j_hi` is the exclusive frontier of the δ
        // window for `i`. Timestamps ascend within the segment, so the
        // frontier never retreats as `i` advances.
        let mut j_hi = r.start;
        for i in r.clone() {
            if j_hi < i + 1 {
                j_hi = i + 1;
            }
            while j_hi < r.end && cols.times[j_hi].saturating_sub(cols.times[i]) < delta {
                j_hi += 1;
            }
            // Pairs whose later event predates the fresh region were
            // already counted by the absorb that brought that event in.
            let j_lo = (i + 1).max(fresh);
            out.window_pairs += j_hi.saturating_sub(j_lo) as u64;
            for j in j_lo..j_hi {
                if cols.threads[j] == cols.threads[i] {
                    continue;
                }
                let kind = match (cols.kinds[i], cols.kinds[j]) {
                    (AccessKind::Init, AccessKind::Use) => BugKind::UseBeforeInit,
                    (AccessKind::Use, AccessKind::Dispose) => BugKind::UseAfterFree,
                    _ => continue,
                };
                out.examined += 1;
                if prune_ordered && ord.ordered(cols.clocks[i], cols.clocks[j]) {
                    out.pruned_ordered += 1;
                    continue;
                }
                let gap = cols.times[j].saturating_sub(cols.times[i]);
                let entry = out
                    .pairs
                    .entry((cols.sites[i], cols.sites[j], kind))
                    .or_insert(CandAgg {
                        obj: cols.objects[k],
                        max_gap: SimTime::ZERO,
                        observations: 0,
                    });
                entry.max_gap = entry.max_gap.max(gap);
                entry.observations += 1;
            }
        }
    }
    out
}

/// Folds one shard's sweep output into the global accumulators. Every
/// per-key fold is commutative — max gap, summed observations, and a
/// **min** fold on the representative object. For the batch path (shards
/// merged in ascending object order) the min fold is identical to the
/// historical keep-first-seen rule, since the first shard to see a pair
/// holds its globally lowest object; making it an explicit min keeps the
/// fold order-robust for the incremental path, where a later generation
/// can introduce a lower-numbered object for an already-known pair.
pub(crate) fn merge_mem_out(out: ShardOut, stats: &mut NearMissStats, pairs: &mut PairMap) {
    stats.window_pairs += out.window_pairs;
    stats.examined += out.examined;
    stats.pruned_ordered += out.pruned_ordered;
    for (key, agg) in out.pairs {
        pairs
            .entry(key)
            .and_modify(|e| {
                e.obj = e.obj.min(agg.obj);
                e.max_gap = e.max_gap.max(agg.max_gap);
                e.observations += agg.observations;
            })
            .or_insert(agg);
    }
}

/// Converts the merged pair accumulator into the plan's sorted candidate
/// list.
pub(crate) fn candidates_from_pairs(pairs: PairMap) -> Vec<CandidatePair> {
    let mut candidates: Vec<CandidatePair> = pairs
        .into_iter()
        .map(|((delay_site, other_site, kind), agg)| CandidatePair {
            delay_site,
            other_site,
            kind,
            obj: agg.obj,
            max_gap: agg.max_gap,
            observations: agg.observations,
        })
        .collect();
    candidates.sort_by_key(|p| (p.delay_site, p.other_site, p.kind as u8));
    candidates
}

/// Re-walks the δ windows of `cols` recording interference observations
/// `(τ1, τ2, thread-of-ℓ2)` for the *candidate* site pairs only — the same
/// cross-thread, kind-matched pairs the sweep examined (including
/// clock-ordered ones: the reference interference scan does not prune by
/// clock), narrowed to the keys [`window_interference`] will actually
/// read. Keeping this out of the hot sweep bounds the observation heap by
/// candidate activity instead of by window pairs.
pub(crate) fn collect_candidate_obs(
    cols: &ClassColumns,
    delta: SimTime,
    cand_keys: &HashSet<(SiteId, SiteId)>,
    obs: &mut ObsMap,
) {
    // Only events at a candidate *delay* site can open an observation, so
    // everything else skips the pair walk — the frontier advance below
    // stays O(events) amortized either way.
    let first_sites: HashSet<SiteId> = cand_keys.iter().map(|&(l1, _)| l1).collect();
    for k in 0..cols.object_count() {
        let r = cols.range(k);
        let mut j_hi = r.start;
        for i in r.clone() {
            if j_hi < i + 1 {
                j_hi = i + 1;
            }
            while j_hi < r.end && cols.times[j_hi].saturating_sub(cols.times[i]) < delta {
                j_hi += 1;
            }
            if !first_sites.contains(&cols.sites[i]) {
                continue;
            }
            for j in (i + 1)..j_hi {
                if cols.threads[j] == cols.threads[i] {
                    continue;
                }
                match (cols.kinds[i], cols.kinds[j]) {
                    (AccessKind::Init, AccessKind::Use)
                    | (AccessKind::Use, AccessKind::Dispose) => {}
                    _ => continue,
                }
                if !cand_keys.contains(&(cols.sites[i], cols.sites[j])) {
                    continue;
                }
                obs.entry((cols.sites[i], cols.sites[j]))
                    .or_default()
                    .push((cols.times[i], cols.times[j], cols.threads[j]));
            }
        }
    }
}

/// The candidate pairs' site keys, the filter for observation collection.
pub(crate) fn candidate_keys(candidates: &[CandidatePair]) -> HashSet<(SiteId, SiteId)> {
    candidates
        .iter()
        .map(|c| (c.delay_site, c.other_site))
        .collect()
}

/// Collects delay-site executions (the interference pass's needle set)
/// from one stretch of column data into the per-thread accumulator.
pub(crate) fn collect_delay_execs(
    times: &[SimTime],
    threads: &[ThreadId],
    sites: &[SiteId],
    delay_sites: &HashSet<SiteId>,
    by_thread: &mut DelayExecs,
) {
    for i in 0..times.len() {
        if delay_sites.contains(&sites[i]) {
            by_thread
                .entry(threads[i])
                .or_default()
                .push((times[i], sites[i]));
        }
    }
}

/// Resolves the interference set from the candidate observations: for each
/// observation `(τ1, τ2, thread-of-ℓ2)`, every delay-site execution by ℓ2's
/// thread inside the strict window `(τ1 − δ, τ2]` interferes with ℓ1.
///
/// A delay site's windows overlap heavily (δ can span a whole trace), so
/// they are not walked one by one. Every observation of ℓ1, across all of
/// its partner sites ℓ2, becomes an index range over its thread's sorted
/// executions (two binary searches); the ranges are merged per thread and
/// only their union is walked, so each execution is visited at most once
/// per (ℓ1, thread). A dense per-site stamp dedupes ℓ\* per ℓ1 before the
/// set insert. Cost: O(obs · log E + Σ merged-range sizes) instead of
/// O(obs × E). Per-thread execution lists are sorted here, so collection
/// order never matters.
pub(crate) fn window_interference(
    obs: &ObsMap,
    by_thread: &mut DelayExecs,
    delta: SimTime,
) -> InterferenceSet {
    let mut set = InterferenceSet::new();
    let mut site_count = 0;
    for execs in by_thread.values_mut() {
        execs.sort_unstable();
        for &(_, l_star) in execs.iter() {
            site_count = site_count.max(l_star.0 as usize + 1);
        }
    }
    let mut keys: Vec<(SiteId, SiteId)> = obs.keys().copied().collect();
    keys.sort_unstable();
    // `stamp[ℓ*]` is the 1-based number of the last ℓ1 group that recorded
    // ℓ*; zero means never.
    let mut stamp = vec![0usize; site_count];
    // One scratch buffer of `(thread, start, end)` execution ranges, reused
    // for every ℓ1.
    let mut ranges: Vec<(ThreadId, usize, usize)> = Vec::new();
    let mut group = 0;
    let mut k = 0;
    while k < keys.len() {
        let l1 = keys[k].0;
        group += 1;
        ranges.clear();
        while k < keys.len() && keys[k].0 == l1 {
            for &(t1, t2, thd2) in &obs[&keys[k]] {
                let Some(execs) = by_thread.get(&thd2) else {
                    continue;
                };
                // First execution strictly inside the look-behind: the
                // strict `< δ` boundary matches the reference builder and
                // the near-miss window convention. The end is inclusive.
                let start = execs.partition_point(|&(t, _)| t1.saturating_sub(t) >= delta);
                let end = start + execs[start..].partition_point(|&(t, _)| t <= t2);
                if start < end {
                    ranges.push((thd2, start, end));
                }
            }
            k += 1;
        }
        ranges.sort_unstable();
        let mut r = 0;
        while r < ranges.len() {
            let (thd, start, mut end) = ranges[r];
            r += 1;
            while r < ranges.len() && ranges[r].0 == thd && ranges[r].1 <= end {
                end = end.max(ranges[r].2);
                r += 1;
            }
            for &(_, l_star) in &by_thread[&thd][start..end] {
                let seen = &mut stamp[l_star.0 as usize];
                if *seen != group {
                    *seen = group;
                    set.insert(l1, l_star);
                }
            }
        }
    }
    set
}

/// The in-memory interference finalizer: one extra pass over the resident
/// columns for candidate observations and delay-site executions, then the
/// shared window resolution.
fn finalize_interference(
    cols: &ClassColumns,
    candidates: &[CandidatePair],
    delta: SimTime,
) -> InterferenceSet {
    let delay_sites: HashSet<SiteId> = candidates.iter().map(|c| c.delay_site).collect();
    if delay_sites.is_empty() {
        return InterferenceSet::new();
    }
    let mut obs = ObsMap::new();
    collect_candidate_obs(cols, delta, &candidate_keys(candidates), &mut obs);
    let mut by_thread = DelayExecs::new();
    collect_delay_execs(&cols.times, &cols.threads, &cols.sites, &delay_sites, &mut by_thread);
    window_interference(&obs, &mut by_thread, delta)
}

/// Analyzes an indexed preparation trace into a detection [`Plan`] using
/// the fused single-pass sweep, sharded across up to `jobs` threads.
///
/// Produces byte-identical plans to the reference scanners
/// ([`crate::analyze_unindexed`]) at every `jobs` value.
pub fn analyze_indexed(index: &TraceIndex<'_>, config: &AnalyzerConfig, jobs: usize) -> Plan {
    let cols = &index.mem;
    let pool = &index.trace.clocks;
    let shards = shard_ranges(cols.object_count(), jobs);
    let outs = run_shards(shards, jobs, |slots| {
        sweep_mem_shard(cols, pool, slots, config.delta, config.prune_parent_child)
    });

    // Deterministic merge: shard order is object order; per-key folds are
    // commutative except the representative object, which keeps the first
    // shard's value — the globally lowest-numbered admitted object, the
    // same representative the reference scanner picks.
    let mut stats = NearMissStats::default();
    let mut pairs = PairMap::new();
    for out in outs {
        merge_mem_out(out, &mut stats, &mut pairs);
    }
    let candidates = candidates_from_pairs(pairs);
    stats.admitted = candidates.len();

    let delay_len = crate::analyzer::delay_plan(&candidates, config);
    let interference = if config.interference_control {
        finalize_interference(cols, &candidates, config.delta)
    } else {
        InterferenceSet::new()
    };
    Plan {
        workload: index.trace.workload.clone(),
        candidates,
        delay_len,
        interference,
        delta: config.delta,
        stats,
        memory_model: config.memory,
    }
}

/// Sweeps one shard of the TSV columns.
pub(crate) fn sweep_tsv_shard(
    cols: &ClassColumns,
    slots: Range<usize>,
    delta: SimTime,
    default_window: SimTime,
) -> BTreeMap<(SiteId, SiteId), TsvCandidate> {
    sweep_tsv_shard_from(cols, slots, delta, default_window, None)
}

/// [`sweep_tsv_shard`] generalized for incremental absorption, with the
/// same `fresh_from` contract as [`sweep_mem_shard_from`]: only pairs
/// whose later event is fresh are recorded.
pub(crate) fn sweep_tsv_shard_from(
    cols: &ClassColumns,
    slots: Range<usize>,
    delta: SimTime,
    default_window: SimTime,
    fresh_from: Option<&[u32]>,
) -> BTreeMap<(SiteId, SiteId), TsvCandidate> {
    let mut seen: BTreeMap<(SiteId, SiteId), TsvCandidate> = BTreeMap::new();
    for k in slots {
        let r = cols.range(k);
        let fresh = fresh_from.map_or(r.start, |f| r.start + f[k] as usize);
        for i in r.clone() {
            for j in (i + 1).max(fresh)..r.end {
                let gap = cols.times[j].saturating_sub(cols.times[i]);
                if gap >= delta {
                    break;
                }
                if cols.threads[i] == cols.threads[j] {
                    continue;
                }
                let entry = seen
                    .entry((cols.sites[i], cols.sites[j]))
                    .or_insert_with(|| TsvCandidate {
                        delay_site: cols.sites[i],
                        other_site: cols.sites[j],
                        obj: cols.objects[k],
                        gap: SimTime::ZERO,
                        window: default_window,
                    });
                entry.gap = entry.gap.max(gap);
            }
        }
    }
    seen
}

/// Analyzes the indexed trace's TSV events into a [`TsvPlan`] with the
/// sharded sweep; byte-identical to [`crate::tsv::analyze_tsv_unindexed`]
/// at every `jobs` value.
pub fn analyze_tsv_indexed(
    index: &TraceIndex<'_>,
    delta: SimTime,
    default_window: SimTime,
    jobs: usize,
) -> TsvPlan {
    let cols = &index.tsv;
    let shards = shard_ranges(cols.object_count(), jobs);
    let outs = run_shards(shards, jobs, |slots| {
        sweep_tsv_shard(cols, slots, delta, default_window)
    });
    let mut seen: BTreeMap<(SiteId, SiteId), TsvCandidate> = BTreeMap::new();
    for shard in outs {
        merge_tsv_out(shard, &mut seen);
    }
    tsv_plan_from(index.trace.workload.clone(), seen)
}

/// Folds one TSV shard into the accumulator: gap is a max and the
/// representative object an explicit min — equal to the historical
/// first-seen rule under ascending-object merge order, but order-robust
/// for incremental generation folds (see [`merge_mem_out`]).
pub(crate) fn merge_tsv_out(
    shard: BTreeMap<(SiteId, SiteId), TsvCandidate>,
    seen: &mut BTreeMap<(SiteId, SiteId), TsvCandidate>,
) {
    for (key, cand) in shard {
        seen.entry(key)
            .and_modify(|e| {
                e.gap = e.gap.max(cand.gap);
                e.obj = e.obj.min(cand.obj);
            })
            .or_insert(cand);
    }
}

/// Assembles the final [`TsvPlan`] from the merged candidate accumulator.
pub(crate) fn tsv_plan_from(
    workload: String,
    seen: BTreeMap<(SiteId, SiteId), TsvCandidate>,
) -> TsvPlan {
    let candidates: Vec<TsvCandidate> = seen.into_values().collect();
    let mut delay_len = BTreeMap::new();
    for c in &candidates {
        let cur = delay_len.entry(c.delay_site).or_insert(SimTime::ZERO);
        *cur = (*cur).max(c.gap);
    }
    TsvPlan {
        workload,
        candidates,
        delay_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze_unindexed;
    use waffle_mem::SiteRegistry;
    use waffle_trace::{Trace, TraceEvent};
    use waffle_vclock::ClockSnapshot;

    struct TB {
        sites: SiteRegistry,
        events: Vec<TraceEvent>,
        clocks: ClockPool,
    }

    impl TB {
        fn new() -> Self {
            Self {
                sites: SiteRegistry::new(),
                events: Vec::new(),
                clocks: ClockPool::new(),
            }
        }

        fn ev(
            &mut self,
            t_us: u64,
            thread: u32,
            site: &str,
            obj: u32,
            kind: AccessKind,
            clock: &[(u32, u64)],
        ) -> &mut Self {
            let site = self.sites.register(site, kind);
            let clock = self.clocks.intern(ClockSnapshot::from_entries(
                clock.iter().map(|&(t, v)| (ThreadId(t), v)),
            ));
            self.events.push(TraceEvent {
                time: SimTime::from_us(t_us),
                thread: ThreadId(thread),
                site,
                obj: ObjectId(obj),
                kind,
                dyn_index: 0,
                clock,
            });
            self
        }

        fn trace(mut self) -> Trace {
            self.events.sort_by_key(|e| e.time);
            Trace {
                workload: "pipeline-test".into(),
                sites: self.sites,
                events: self.events,
                forks: vec![],
                clocks: self.clocks,
                end_time: SimTime::from_ms(10),
            }
        }
    }

    fn assert_plans_identical(trace: &Trace, config: &AnalyzerConfig, jobs: &[usize]) {
        let reference = analyze_unindexed(trace, config).to_json().unwrap();
        let index = TraceIndex::build(trace);
        for &j in jobs {
            let got = analyze_indexed(&index, config, j).to_json().unwrap();
            assert_eq!(got, reference, "plan drifted at jobs={j}");
        }
    }

    #[test]
    fn fused_sweep_matches_reference_scanners() {
        let mut b = TB::new();
        // Two candidate pairs across three objects, a pruned pair, and a
        // same-thread pair: exercises every branch of the sweep.
        b.ev(100, 0, "init", 0, AccessKind::Init, &[(0, 1)]);
        b.ev(150, 1, "use", 0, AccessKind::Use, &[(1, 1)]);
        b.ev(300, 1, "use", 1, AccessKind::Use, &[(1, 2)]);
        b.ev(380, 0, "dispose", 1, AccessKind::Dispose, &[(0, 2)]);
        b.ev(500, 0, "init", 2, AccessKind::Init, &[(0, 3)]);
        b.ev(520, 1, "use", 2, AccessKind::Use, &[(0, 3), (1, 4)]); // ordered → pruned
        b.ev(600, 0, "init", 2, AccessKind::Init, &[(0, 4)]);
        b.ev(610, 0, "use", 2, AccessKind::Use, &[(0, 4)]); // same thread
        let trace = b.trace();
        for config in [
            AnalyzerConfig::default(),
            AnalyzerConfig::default().without_parent_child(),
            AnalyzerConfig::default().without_variable_delay(),
            AnalyzerConfig::default().without_interference_control(),
        ] {
            assert_plans_identical(&trace, &config, &[1, 2, 3, 8]);
        }
    }

    /// Satellite regression: the representative object of a candidate pair
    /// is the lowest-numbered object with an admitted observation — not
    /// the earliest in time, and not dependent on `jobs`.
    #[test]
    fn obj_representative_is_pinned() {
        let mut b = TB::new();
        // The same site pair near-misses on object 7 early and object 3
        // late. Ascending object order scans 3 first.
        b.ev(100, 0, "init", 7, AccessKind::Init, &[(0, 1)]);
        b.ev(150, 1, "use", 7, AccessKind::Use, &[(1, 1)]);
        b.ev(5_000, 0, "init", 3, AccessKind::Init, &[(0, 2)]);
        b.ev(5_060, 1, "use", 3, AccessKind::Use, &[(1, 2)]);
        let trace = b.trace();
        let config = AnalyzerConfig::default();
        let index = TraceIndex::build(&trace);
        for jobs in [1, 2] {
            let plan = analyze_indexed(&index, &config, jobs);
            assert_eq!(plan.candidates.len(), 1);
            assert_eq!(
                plan.candidates[0].obj,
                ObjectId(3),
                "representative must be the lowest-numbered object (jobs={jobs})"
            );
            assert_eq!(plan.candidates[0].observations, 2);
        }
        assert_eq!(
            analyze_unindexed(&trace, &config).candidates[0].obj,
            ObjectId(3)
        );
    }

    #[test]
    fn window_pairs_count_matches_reference() {
        let mut b = TB::new();
        b.ev(0, 0, "init", 0, AccessKind::Init, &[(0, 1)]);
        b.ev(10, 0, "use-a", 0, AccessKind::Use, &[(0, 1)]);
        b.ev(20, 1, "use-b", 0, AccessKind::Use, &[(1, 1)]);
        b.ev(200_000, 1, "use-c", 0, AccessKind::Use, &[(1, 2)]);
        let trace = b.trace();
        let reference = analyze_unindexed(&trace, &AnalyzerConfig::default());
        let indexed = analyze_indexed(
            &TraceIndex::build(&trace),
            &AnalyzerConfig::default(),
            1,
        );
        assert_eq!(reference.stats.window_pairs, 3);
        assert_eq!(indexed.stats.window_pairs, 3);
        assert_eq!(indexed.stats.examined, reference.stats.examined);
    }

    /// One delay site ℓ1 with three observations against two partner
    /// sites: on thread 1 the window `(920, 1040]` (partner `b`) lies
    /// inside `(900, 1080]` (partner `a`), and on thread 2 the window
    /// `(4900, 5050]` (partner `b`) is disjoint from both. Delay-site
    /// executions sit exactly on every window edge, so the range merge
    /// must keep the strict look-behind, the inclusive end, the outer
    /// window's end past the nested one, and the per-thread split.
    #[test]
    fn window_resolution_is_exact_at_every_edge() {
        let delta = SimTime::from_us(100);
        let mut b = TB::new();
        // The three observations, each on its own object.
        b.ev(1_000, 0, "l1", 0, AccessKind::Init, &[(0, 1)]);
        b.ev(1_080, 1, "a", 0, AccessKind::Use, &[(1, 1)]);
        b.ev(1_020, 0, "l1", 1, AccessKind::Init, &[(0, 2)]);
        b.ev(1_040, 1, "b", 1, AccessKind::Use, &[(1, 2)]);
        b.ev(5_000, 0, "l1", 2, AccessKind::Init, &[(0, 3)]);
        b.ev(5_050, 2, "b", 2, AccessKind::Use, &[(2, 1)]);
        // Delay-site executions `x<thread>_<time>`, each on an object of
        // its own so it forms no observation.
        let execs = [
            (1, 900),   // τ1 − δ of the first window: out
            (1, 901),   // τ1 − δ + 1: in
            (1, 1_040), // τ2 of the nested window: in
            (1, 1_041), // past the nested window, inside the outer: in
            (1, 1_080), // τ2 of the outer window: in
            (1, 1_081), // τ2 + 1: out
            (1, 5_000), // thread 1 inside thread 2's window: out
            (2, 1_000), // thread 2 inside thread 1's windows: out
            (2, 4_900), // τ1 − δ of the third window: out
            (2, 4_901), // τ1 − δ + 1: in
            (2, 5_050), // τ2: in
            (2, 5_051), // τ2 + 1: out
        ];
        for (k, &(thread, t)) in execs.iter().enumerate() {
            let name = format!("x{thread}_{t}");
            b.ev(t, thread, &name, 10 + k as u32, AccessKind::Use, &[(thread, 9)]);
        }
        let trace = b.trace();
        let site = |name: &str| trace.sites.lookup(name).unwrap();
        let pair = |delay_site, other_site| CandidatePair {
            delay_site,
            other_site,
            kind: BugKind::UseBeforeInit,
            obj: ObjectId(0),
            max_gap: SimTime::from_us(60),
            observations: 1,
        };
        // The execution sites become delay sites (eligible ℓ*) through
        // candidate pairs of their own that are never observed.
        let mut candidates = vec![pair(site("l1"), site("a")), pair(site("l1"), site("b"))];
        for &(thread, t) in &execs {
            candidates.push(pair(site(&format!("x{thread}_{t}")), site("a")));
        }
        let index = TraceIndex::build(&trace);
        let got = finalize_interference(&index.mem, &candidates, delta);

        let mut expected = InterferenceSet::new();
        for name in ["x1_901", "x1_1040", "x1_1041", "x1_1080", "x2_4901", "x2_5050"] {
            expected.insert(site("l1"), site(name));
        }
        assert_eq!(got, expected);
        assert_eq!(
            got,
            crate::interference::build_interference(&trace, &candidates, delta)
        );
    }

    #[test]
    fn tsv_sweep_matches_reference_at_any_jobs() {
        let mut b = TB::new();
        b.ev(1_000, 0, "A.call", 0, AccessKind::UnsafeApiCall, &[]);
        b.ev(31_000, 1, "B.call", 0, AccessKind::UnsafeApiCall, &[]);
        b.ev(40_000, 0, "A.call", 1, AccessKind::UnsafeApiCall, &[]);
        b.ev(41_000, 1, "B.call", 1, AccessKind::UnsafeApiCall, &[]);
        let trace = b.trace();
        let delta = SimTime::from_ms(100);
        let w = SimTime::from_us(500);
        let reference = crate::tsv::analyze_tsv_unindexed(&trace, delta, w)
            .to_json()
            .unwrap();
        let index = TraceIndex::build(&trace);
        for jobs in [1, 2, 8] {
            let got = analyze_tsv_indexed(&index, delta, w, jobs).to_json().unwrap();
            assert_eq!(got, reference, "TSV plan drifted at jobs={jobs}");
        }
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for n in 0..20 {
            for jobs in 1..6 {
                let ranges = shard_ranges(n, jobs);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }
}
