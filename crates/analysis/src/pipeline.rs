//! The analysis fold: one accumulator for every analysis source.
//!
//! The reference scanners ([`crate::candidates::near_miss_candidates`],
//! [`crate::interference::build_interference`],
//! [`crate::tsv::analyze_tsv_unindexed`]) each re-walk the whole event
//! vector and regroup it per object on the heap. Production analysis
//! instead feeds column batches ([`ClassColumns`]) into three types, and
//! every source — the resident [`TraceIndex`] ([`analyze_indexed`]), a
//! streamed segment file ([`crate::analyze_segments`]) and a serve
//! session's sealed generations ([`crate::IncrementalAnalysis`]) — only
//! decides which batches to feed:
//!
//! - `MemFold` sweeps each batch for near-miss candidates and folds the
//!   per-pair aggregates; `MemFold::finish` turns them into the [`Plan`];
//! - `TsvFold` does the same for thread-safety-violation pairs;
//! - `InterferencePass` replays the batches once the candidates are
//!   known and resolves the interference set.
//!
//! The sweep itself:
//!
//! - the near-miss window scan is a **two-pointer sweep** over each
//!   object's contiguous, time-sorted column segment (the window frontier
//!   `j_hi` only moves forward, so every timestamp is compared O(1) times
//!   amortized);
//! - interference observations are gathered by a second walk restricted to
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
//!   contiguous object-slot ranges) and shard outputs merge with
//!   commutative per-key folds (max gap, summed counts, **min**
//!   representative object), so the resulting [`Plan`] is bit-identical
//!   for every `jobs` value and every batching of the objects.
//!
//! Equivalence with the reference scanners is pinned by
//! `tests/analysis_equivalence.rs` across every seeded bug workload.

use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::ops::Range;

use waffle_mem::{AccessKind, ObjectId, SiteId};
use waffle_sim::{SimTime, ThreadId};
use waffle_trace::{ClassColumns, ClockId, ClockPool, TraceIndex};

use crate::analyzer::{delay_plan, AnalyzerConfig};
use crate::candidates::{BugKind, CandidatePair, NearMissStats};
use crate::interference::InterferenceSet;
use crate::plan::Plan;
use crate::ranks::{IdMap, SiteRanks};
use crate::tsv::{TsvCandidate, TsvPlan};

/// Per-pair aggregate built during the sweep; becomes a [`CandidatePair`]
/// at [`MemFold::finish`].
#[derive(Debug, Clone, Copy)]
struct CandAgg {
    /// Representative object: the lowest-numbered object with an admitted
    /// observation (a min fold, so shard and batch order never matter).
    obj: ObjectId,
    max_gap: SimTime,
    observations: u32,
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
struct OrderMemo<'p> {
    pool: &'p ClockPool,
    mask: u64,
    /// `(lo, hi, ordered)` keyed slots; `u32::MAX` ids mark an empty slot
    /// (unreachable as a real pair: equal ids short-circuit before lookup).
    slots: Vec<(u32, u32, bool)>,
}

impl<'p> OrderMemo<'p> {
    const EMPTY_SLOT: (u32, u32, bool) = (u32::MAX, u32::MAX, false);

    fn new(pool: &'p ClockPool) -> Self {
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
    fn capacity_for(n: usize) -> usize {
        n.saturating_mul(16)
            .next_power_of_two()
            .clamp(1 << 10, 1 << 18)
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
fn shard_ranges(n: usize, jobs: usize) -> Vec<Range<usize>> {
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

/// Runs `f` over the shards of `n` object slots, on a scoped thread pool
/// when `jobs > 1`. Results come back in shard order either way.
fn run_shards<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let shards = shard_ranges(n, jobs);
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

/// The MemOrder candidate accumulator: sweep stats plus one aggregate per
/// `(delay site, other site, kind)`, bounded by distinct site pairs.
#[derive(Debug, Default)]
pub(crate) struct MemFold {
    stats: NearMissStats,
    pairs: HashMap<(SiteId, SiteId, BugKind), CandAgg>,
}

impl MemFold {
    /// Distinct candidate site pairs accumulated so far.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Sweeps one column batch, sharded across up to `jobs` threads, and
    /// folds it in.
    ///
    /// `fresh_from[k]`, when given, is the offset *within slot `k`'s
    /// segment* where this generation's fresh events begin (everything
    /// before it is the carried δ-window tail of earlier generations), and
    /// only pairs whose **later** event is fresh are counted. Each
    /// cross-generation pair is therefore counted in exactly one absorb —
    /// the one where its later event arrives — which is what makes an
    /// incremental fold byte-identical to a batch sweep over the
    /// concatenated trace.
    pub(crate) fn absorb(
        &mut self,
        cols: &ClassColumns,
        pool: &ClockPool,
        config: &AnalyzerConfig,
        fresh_from: Option<&[u32]>,
        jobs: usize,
    ) {
        let shards = run_shards(cols.object_count(), jobs, |slots| {
            Self::sweep(cols, pool, slots, config, fresh_from)
        });
        for shard in shards {
            self.stats.window_pairs += shard.stats.window_pairs;
            self.stats.examined += shard.stats.examined;
            self.stats.pruned_ordered += shard.stats.pruned_ordered;
            for (key, agg) in shard.pairs {
                self.pairs
                    .entry(key)
                    .and_modify(|e| {
                        e.obj = e.obj.min(agg.obj);
                        e.max_gap = e.max_gap.max(agg.max_gap);
                        e.observations += agg.observations;
                    })
                    .or_insert(agg);
            }
        }
    }

    /// The candidate sweep over one shard (a contiguous range of object
    /// slots).
    fn sweep(
        cols: &ClassColumns,
        pool: &ClockPool,
        slots: Range<usize>,
        config: &AnalyzerConfig,
        fresh_from: Option<&[u32]>,
    ) -> MemFold {
        let mut out = MemFold::default();
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
                while j_hi < r.end && cols.times[j_hi].saturating_sub(cols.times[i]) < config.delta
                {
                    j_hi += 1;
                }
                // Pairs whose later event predates the fresh region were
                // already counted by the absorb that brought that event in.
                let j_lo = (i + 1).max(fresh);
                out.stats.window_pairs += j_hi.saturating_sub(j_lo) as u64;
                for j in j_lo..j_hi {
                    if cols.threads[j] == cols.threads[i] {
                        continue;
                    }
                    let kind = match (cols.kinds[i], cols.kinds[j]) {
                        (AccessKind::Init, AccessKind::Use) => BugKind::UseBeforeInit,
                        (AccessKind::Use, AccessKind::Dispose) => BugKind::UseAfterFree,
                        _ => continue,
                    };
                    out.stats.examined += 1;
                    if config.prune_parent_child && ord.ordered(cols.clocks[i], cols.clocks[j]) {
                        out.stats.pruned_ordered += 1;
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

    /// Finalizes the fold into a [`Plan`]: sorted candidates, `α · max gap`
    /// delay lengths, and — when interference control is on and a
    /// candidate exists — the interference set. The source supplies
    /// `replay`, which must feed the same column batches it absorbed to
    /// [`InterferencePass::collect`].
    pub(crate) fn finish<E>(
        self,
        workload: String,
        config: &AnalyzerConfig,
        replay: impl FnOnce(&mut InterferencePass) -> Result<(), E>,
    ) -> Result<Plan, E> {
        let MemFold { mut stats, pairs } = self;
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
        stats.admitted = candidates.len();
        let delay_len = delay_plan(&candidates, config);
        let mut interference = InterferenceSet::new();
        if config.interference_control && !candidates.is_empty() {
            let mut pass = InterferencePass::new(&candidates, config.delta);
            replay(&mut pass)?;
            interference = pass.resolve();
        }
        Ok(Plan {
            workload,
            candidates,
            delay_len,
            interference,
            delta: config.delta,
            stats,
            memory_model: config.memory,
        })
    }
}

/// Near-miss observations of one delay site ℓ1, across all of its
/// partner sites: `(τ1, τ2, thread-of-ℓ2)`.
type Observations = Vec<(SimTime, SimTime, ThreadId)>;

/// The interference pass (§4.4): collects the candidate pairs' near-miss
/// observations and the delay-site executions from replayed column
/// batches, then resolves the interference set.
///
/// Every per-site table is a `Vec` indexed by delay-site rank (rank order
/// is site order), and every per-thread table a `Vec` indexed by a slot
/// from a compact thread map — never by a raw `ThreadId`, which a serve
/// client chooses freely.
pub(crate) struct InterferencePass {
    delta: SimTime,
    /// Candidate delay sites: the only events that open an observation,
    /// and the eligible interferers ℓ\*.
    ranks: SiteRanks,
    /// The candidate `(ℓ1, ℓ2)` keys, the observation filter: the sorted
    /// partner sites ℓ2 of rank `r` are `partners[key_lo[r]..key_lo[r + 1]]`.
    partners: Vec<SiteId>,
    key_lo: Vec<usize>,
    /// Observations per ℓ1 rank.
    obs: Vec<Observations>,
    /// `ThreadId` → slot in `execs`.
    threads: IdMap,
    /// Delay-site executions `(time, rank)` per thread slot, sorted before
    /// resolution.
    execs: Vec<Vec<(SimTime, u32)>>,
}

impl InterferencePass {
    /// An empty pass for `candidates` under window `delta`.
    pub(crate) fn new(candidates: &[CandidatePair], delta: SimTime) -> Self {
        let ranks = SiteRanks::new(candidates.iter().map(|c| c.delay_site).collect());
        let mut keys: Vec<(usize, SiteId)> = candidates
            .iter()
            .map(|c| {
                let rank = ranks
                    .rank(c.delay_site)
                    .expect("every delay site is ranked");
                (rank, c.other_site)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut key_lo = vec![0; ranks.len() + 1];
        for &(r, _) in &keys {
            key_lo[r + 1] += 1;
        }
        for r in 0..ranks.len() {
            key_lo[r + 1] += key_lo[r];
        }
        Self {
            delta,
            obs: vec![Vec::new(); ranks.len()],
            ranks,
            partners: keys.into_iter().map(|(_, l2)| l2).collect(),
            key_lo,
            threads: IdMap::default(),
            execs: Vec::new(),
        }
    }

    /// Walks the δ windows of one column batch, recording every delay-site
    /// execution and, for the candidate site pairs only, the observations
    /// `(τ1, τ2, thread-of-ℓ2)` — the same cross-thread, kind-matched pairs
    /// the sweep examined, including clock-ordered ones (the reference
    /// interference scan does not prune by clock).
    ///
    /// `fresh_from` has the [`MemFold::absorb`] contract: only a fresh
    /// event records a delay-site execution, and only a pair whose later
    /// event is fresh records an observation, so a replay that carries a
    /// δ-window tail across batches records each execution and each
    /// observation exactly once.
    pub(crate) fn collect(&mut self, cols: &ClassColumns, fresh_from: Option<&[u32]>) {
        for k in 0..cols.object_count() {
            let r = cols.range(k);
            let fresh = fresh_from.map_or(r.start, |f| r.start + f[k] as usize);
            let mut j_hi = r.start;
            for i in r.clone() {
                if j_hi < i + 1 {
                    j_hi = i + 1;
                }
                while j_hi < r.end && cols.times[j_hi].saturating_sub(cols.times[i]) < self.delta {
                    j_hi += 1;
                }
                // Only events at a candidate delay site matter; everything
                // else skips the pair walk, and the frontier advance above
                // stays O(events) amortized either way.
                let Some(rank) = self.ranks.rank(cols.sites[i]) else {
                    continue;
                };
                if i >= fresh {
                    let slot = self
                        .threads
                        .get_or_insert(cols.threads[i].0, self.execs.len() as u32);
                    if slot as usize == self.execs.len() {
                        self.execs.push(Vec::new());
                    }
                    self.execs[slot as usize].push((cols.times[i], rank as u32));
                }
                let partners = &self.partners[self.key_lo[rank]..self.key_lo[rank + 1]];
                for j in (i + 1).max(fresh)..j_hi {
                    if cols.threads[j] == cols.threads[i] {
                        continue;
                    }
                    match (cols.kinds[i], cols.kinds[j]) {
                        (AccessKind::Init, AccessKind::Use)
                        | (AccessKind::Use, AccessKind::Dispose) => {}
                        _ => continue,
                    }
                    if partners.binary_search(&cols.sites[j]).is_err() {
                        continue;
                    }
                    self.obs[rank].push((cols.times[i], cols.times[j], cols.threads[j]));
                }
            }
        }
    }

    /// `(observations, delay-site executions)` collected so far.
    #[cfg(test)]
    pub(crate) fn recorded(&self) -> (usize, usize) {
        (
            self.obs.iter().map(Vec::len).sum(),
            self.execs.iter().map(Vec::len).sum(),
        )
    }

    /// Resolves the interference set from the collected observations: for
    /// each observation `(τ1, τ2, thread-of-ℓ2)`, every delay-site
    /// execution by ℓ2's thread inside the strict window `(τ1 − δ, τ2]`
    /// interferes with ℓ1.
    ///
    /// A delay site's windows overlap heavily (δ can span a whole trace),
    /// so they are not walked one by one. Every observation of ℓ1, across
    /// all of its partner sites ℓ2, becomes an index range over its
    /// thread's sorted executions (two binary searches); the ranges are
    /// merged per thread and only their union is walked, so each execution
    /// is visited at most once per (ℓ1, thread). A bit row over the ranks
    /// dedupes ℓ\* per ℓ1, and the normalized rank pairs are put in order
    /// by a counting sort over the ranks. Cost: O(obs · log E + Σ
    /// merged-range sizes + |I| + ranks) instead of O(obs × E). Per-thread
    /// execution lists are sorted here, so collection order never matters.
    ///
    /// The bit row is reused across ℓ1 rather than kept as a rank × rank
    /// matrix: the rank count is the candidate delay-site count, which a
    /// serve client controls, and a matrix would be quadratic in it.
    pub(crate) fn resolve(mut self) -> InterferenceSet {
        let delta = self.delta;
        for execs in &mut self.execs {
            execs.sort_unstable();
        }
        let mut row = vec![0u64; self.ranks.len().div_ceil(64)];
        let mut hits: Vec<u32> = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        // One scratch buffer of `(thread slot, start, end)` execution
        // ranges, reused for every ℓ1.
        let mut ranges: Vec<(usize, usize, usize)> = Vec::new();
        // Each ℓ1's observations are dropped once its row is resolved, so
        // the pair buffer grows into the memory they free.
        for (l1, obs) in std::mem::take(&mut self.obs).into_iter().enumerate() {
            ranges.clear();
            for (t1, t2, thd2) in obs {
                let Some(slot) = self.threads.get(thd2.0) else {
                    continue;
                };
                let execs = &self.execs[slot as usize];
                // First execution strictly inside the look-behind: the
                // strict `< δ` boundary matches the reference builder and
                // the near-miss window convention. The end is inclusive.
                let start = execs.partition_point(|&(t, _)| t1.saturating_sub(t) >= delta);
                let end = start + execs[start..].partition_point(|&(t, _)| t <= t2);
                if start < end {
                    ranges.push((slot as usize, start, end));
                }
            }
            ranges.sort_unstable();
            let mut r = 0;
            while r < ranges.len() {
                let (slot, start, mut end) = ranges[r];
                r += 1;
                while r < ranges.len() && ranges[r].0 == slot && ranges[r].1 <= end {
                    end = end.max(ranges[r].2);
                    r += 1;
                }
                for &(_, l_star) in &self.execs[slot][start..end] {
                    let (word, bit) = (l_star as usize / 64, 1u64 << (l_star % 64));
                    if row[word] & bit == 0 {
                        row[word] |= bit;
                        hits.push(l_star);
                    }
                }
            }
            // Every set bit is one of this row's hits, so zeroing their
            // words resets the row for the next ℓ1.
            let l1 = l1 as u32;
            for l_star in hits.drain(..) {
                row[l_star as usize / 64] = 0;
                pairs.push((l1.min(l_star), l1.max(l_star)));
            }
        }
        // Rank order is site order, so the sorted pairs stay sorted as site
        // pairs and `from_pairs` only has to drop the repeats.
        let pairs = sort_rank_pairs(pairs, self.ranks.len());
        InterferenceSet::from_pairs(
            pairs
                .into_iter()
                .map(|(a, b)| (self.ranks.site(a as usize), self.ranks.site(b as usize)))
                .collect(),
        )
    }
}

/// Sorts rank pairs below `ranks` in O(pairs + ranks): two stable
/// counting passes, by the second rank and then by the first.
fn sort_rank_pairs(mut pairs: Vec<(u32, u32)>, ranks: usize) -> Vec<(u32, u32)> {
    let mut out = vec![(0, 0); pairs.len()];
    let mut next = vec![0usize; ranks + 1];
    for by_first in [false, true] {
        let key = |p: &(u32, u32)| if by_first { p.0 } else { p.1 } as usize;
        next.fill(0);
        for p in &pairs {
            next[key(p) + 1] += 1;
        }
        for r in 0..ranks {
            next[r + 1] += next[r];
        }
        for p in &pairs {
            let at = &mut next[key(p)];
            out[*at] = *p;
            *at += 1;
        }
        std::mem::swap(&mut pairs, &mut out);
    }
    pairs
}

/// The TSV candidate accumulator: one [`TsvCandidate`] per
/// `(delay site, other site)`, in key order.
#[derive(Debug)]
pub(crate) struct TsvFold {
    delta: SimTime,
    default_window: SimTime,
    seen: BTreeMap<(SiteId, SiteId), TsvCandidate>,
}

impl TsvFold {
    /// An empty fold under near-miss window `delta`, stamping
    /// `default_window` on every candidate.
    pub(crate) fn new(delta: SimTime, default_window: SimTime) -> Self {
        Self {
            delta,
            default_window,
            seen: BTreeMap::new(),
        }
    }

    /// Distinct TSV site pairs accumulated so far.
    pub(crate) fn len(&self) -> usize {
        self.seen.len()
    }

    /// Sweeps one column batch, sharded across up to `jobs` threads, and
    /// folds it in: gap is a max and the representative object a min.
    /// `fresh_from` has the [`MemFold::absorb`] contract.
    pub(crate) fn absorb(&mut self, cols: &ClassColumns, fresh_from: Option<&[u32]>, jobs: usize) {
        let shards = run_shards(cols.object_count(), jobs, |slots| {
            self.sweep(cols, slots, fresh_from)
        });
        for shard in shards {
            for (key, cand) in shard {
                self.seen
                    .entry(key)
                    .and_modify(|e| {
                        e.gap = e.gap.max(cand.gap);
                        e.obj = e.obj.min(cand.obj);
                    })
                    .or_insert(cand);
            }
        }
    }

    /// The TSV sweep over one shard of object slots.
    fn sweep(
        &self,
        cols: &ClassColumns,
        slots: Range<usize>,
        fresh_from: Option<&[u32]>,
    ) -> BTreeMap<(SiteId, SiteId), TsvCandidate> {
        let mut seen = BTreeMap::new();
        for k in slots {
            let r = cols.range(k);
            let fresh = fresh_from.map_or(r.start, |f| r.start + f[k] as usize);
            for i in r.clone() {
                for j in (i + 1).max(fresh)..r.end {
                    let gap = cols.times[j].saturating_sub(cols.times[i]);
                    if gap >= self.delta {
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
                            window: self.default_window,
                        });
                    entry.gap = entry.gap.max(gap);
                }
            }
        }
        seen
    }

    /// Finalizes the fold into a [`TsvPlan`]: each delay site's planned
    /// delay is the largest gap among its pairs.
    pub(crate) fn finish(self, workload: String) -> TsvPlan {
        let candidates: Vec<TsvCandidate> = self.seen.into_values().collect();
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
}

/// Analyzes an indexed preparation trace into a detection [`Plan`] using
/// the fused sweep, sharded across up to `jobs` threads.
///
/// Produces byte-identical plans to the reference scanners
/// ([`crate::analyze_unindexed`]) at every `jobs` value.
pub fn analyze_indexed(index: &TraceIndex<'_>, config: &AnalyzerConfig, jobs: usize) -> Plan {
    let mut fold = MemFold::default();
    fold.absorb(&index.mem, &index.trace.clocks, config, None, jobs);
    let Ok(plan) = fold.finish(index.trace.workload.clone(), config, |pass| {
        pass.collect(&index.mem, None);
        Ok::<(), Infallible>(())
    });
    plan
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
    let mut fold = TsvFold::new(delta, default_window);
    fold.absorb(&index.tsv, None, jobs);
    fold.finish(index.trace.workload.clone())
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
        let indexed = analyze_indexed(&TraceIndex::build(&trace), &AnalyzerConfig::default(), 1);
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
            b.ev(
                t,
                thread,
                &name,
                10 + k as u32,
                AccessKind::Use,
                &[(thread, 9)],
            );
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
        let mut pass = InterferencePass::new(&candidates, delta);
        pass.collect(&index.mem, None);
        let got = pass.resolve();

        let mut expected = InterferenceSet::new();
        for name in [
            "x1_901", "x1_1040", "x1_1041", "x1_1080", "x2_4901", "x2_5050",
        ] {
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
            let got = analyze_tsv_indexed(&index, delta, w, jobs)
                .to_json()
                .unwrap();
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
