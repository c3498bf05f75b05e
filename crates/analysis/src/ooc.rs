//! Out-of-core analysis: the fused sweep over an on-disk segment stream.
//!
//! [`analyze_segments`] produces the same [`Plan`] as
//! [`crate::analyze_jobs`] — byte-identical at any `jobs` value — without
//! ever holding the full event columns. Only two things stay resident for
//! the whole run, mirroring the partial-order-BMC observation that the
//! *ordering structure*, not the event mass, is what analysis needs hot:
//!
//! - the interned [`ClockPool`](waffle_trace::ClockPool) (read once from
//!   the segment file's footer catalog), and
//! - the per-pair accumulators (candidates and stats), whose size is
//!   bounded by distinct site pairs, not events.
//!
//! Event columns stream through a **resident-bytes budget**: object
//! segments are loaded in ascending object order until the next segment
//! would overflow the budget, the batch is swept (sharded across `jobs`
//! exactly like the in-memory path), merged, and dropped. The shard merge
//! was built for determinism across arbitrary contiguous partitions — max
//! and sum folds plus a first-seen representative resolved by ascending
//! object order — so batch boundaries are as invisible to the output as
//! shard boundaries are.
//!
//! Interference resolution needs the candidate pairs' observations and
//! delay-site executions, and the candidates are only known once every
//! batch has merged. Rather than buffer either during the sweep, the
//! stream is replayed a second time after the candidate merge, collecting
//! just the candidate-pair observations and delay-site executions — both
//! bounded by how often candidate sites run, typically a sliver of the
//! trace.

use std::collections::HashSet;
use std::io;

use waffle_mem::SiteId;
use waffle_sim::SimTime;
use waffle_trace::{ClassColumns, SegmentClass, SegmentColumns, SegmentReader};

use crate::analyzer::AnalyzerConfig;
use crate::candidates::NearMissStats;
use crate::interference::InterferenceSet;
use crate::pipeline::{
    candidate_keys, candidates_from_pairs, collect_candidate_obs, collect_delay_execs,
    merge_mem_out, merge_tsv_out, run_shards, shard_ranges, sweep_mem_shard, sweep_tsv_shard,
    tsv_plan_from, window_interference, DelayExecs, ObsMap, PairMap,
};
use crate::plan::Plan;
use crate::tsv::TsvPlan;

/// Default resident budget for streamed columns: 64 MiB, far below what a
/// 10M-event trace's columns occupy but generous enough that small traces
/// still land in a single batch.
pub const DEFAULT_RESIDENT_BYTES: u64 = 64 << 20;

/// Yields `[start, end)` segment-index batches whose summed on-disk sizes
/// respect `budget` (every batch holds at least one segment, so a single
/// oversized segment still streams).
fn budget_batches(sizes: &[u64], budget: u64) -> Vec<std::ops::Range<usize>> {
    let mut batches = Vec::new();
    let mut k = 0;
    while k < sizes.len() {
        let mut end = k + 1;
        let mut total = sizes[k];
        while end < sizes.len() && total + sizes[end] <= budget {
            total += sizes[end];
            end += 1;
        }
        batches.push(k..end);
        k = end;
    }
    batches
}

/// Loads segments `[range)` of `class` into one batch-local
/// [`ClassColumns`] (CSR offsets are batch-relative; `objects` keeps the
/// global ascending order the merge relies on).
fn load_batch(
    reader: &mut SegmentReader,
    class: SegmentClass,
    range: std::ops::Range<usize>,
) -> io::Result<ClassColumns> {
    let metas: Vec<_> = reader.catalog().class(class)[range.clone()].to_vec();
    let total: usize = metas.iter().map(|m| m.events as usize).sum();
    let mut cols = ClassColumns {
        times: Vec::with_capacity(total),
        threads: Vec::with_capacity(total),
        sites: Vec::with_capacity(total),
        objs: Vec::with_capacity(total),
        kinds: Vec::with_capacity(total),
        clocks: Vec::with_capacity(total),
        objects: Vec::with_capacity(metas.len()),
        offsets: Vec::with_capacity(metas.len() + 1),
    };
    cols.offsets.push(0);
    for (meta, k) in metas.iter().zip(range) {
        let mut seg: SegmentColumns = reader.load(class, k)?;
        cols.objs.extend(std::iter::repeat_n(meta.object, seg.len()));
        cols.times.append(&mut seg.times);
        cols.threads.append(&mut seg.threads);
        cols.sites.append(&mut seg.sites);
        cols.kinds.append(&mut seg.kinds);
        cols.clocks.append(&mut seg.clocks);
        cols.objects.push(meta.object);
        cols.offsets.push(cols.times.len() as u32);
    }
    Ok(cols)
}

/// Analyzes a segment stream into a detection [`Plan`] under a resident
/// budget of `resident_bytes` for streamed event columns.
///
/// Byte-identical to [`crate::analyze_jobs`] on the same trace for every
/// `jobs` and every budget (equivalence pinned across all seeded bugs by
/// `tests/analysis_equivalence.rs`).
pub fn analyze_segments(
    reader: &mut SegmentReader,
    config: &AnalyzerConfig,
    jobs: usize,
    resident_bytes: u64,
) -> io::Result<Plan> {
    let pool = reader.clocks().clone();
    let workload = reader.catalog().workload.clone();
    let sizes: Vec<u64> = reader
        .catalog()
        .class(SegmentClass::MemOrder)
        .iter()
        .map(|m| m.bytes)
        .collect();
    let mut stats = NearMissStats::default();
    let mut pairs = PairMap::new();
    let batches = budget_batches(&sizes, resident_bytes);
    for batch in batches.iter().cloned() {
        let cols = load_batch(reader, SegmentClass::MemOrder, batch)?;
        let shards = shard_ranges(cols.object_count(), jobs);
        let outs = run_shards(shards, jobs, |slots| {
            sweep_mem_shard(&cols, &pool, slots, config.delta, config.prune_parent_child)
        });
        for out in outs {
            merge_mem_out(out, &mut stats, &mut pairs);
        }
    }
    let candidates = candidates_from_pairs(pairs);
    stats.admitted = candidates.len();
    let delay_len = crate::analyzer::delay_plan(&candidates, config);

    let interference = if config.interference_control {
        stream_interference(reader, &candidates, config.delta, resident_bytes)?
    } else {
        InterferenceSet::new()
    };

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

/// The streaming interference pass: re-walks the MemOrder segment stream
/// under the resident budget, collecting only candidate-pair observations
/// and delay-site executions, then resolves the windows. Shared by
/// [`analyze_segments`] and the incremental finish
/// ([`crate::incremental::IncrementalAnalysis::finish`]) — interference
/// windows cross seal boundaries, so the incremental path compacts its
/// generations first and streams the pass from the compacted file.
pub(crate) fn stream_interference(
    reader: &mut SegmentReader,
    candidates: &[crate::candidates::CandidatePair],
    delta: SimTime,
    resident_bytes: u64,
) -> io::Result<InterferenceSet> {
    let delay_sites: HashSet<SiteId> = candidates.iter().map(|c| c.delay_site).collect();
    let cand_keys = candidate_keys(candidates);
    let mut by_thread = DelayExecs::new();
    let mut obs = ObsMap::new();
    if !delay_sites.is_empty() {
        // Second streaming pass now that the needle set is known: only
        // candidate-pair observations and (time, thread, site) of
        // delay-site executions survive.
        let sizes: Vec<u64> = reader
            .catalog()
            .class(SegmentClass::MemOrder)
            .iter()
            .map(|m| m.bytes)
            .collect();
        for batch in budget_batches(&sizes, resident_bytes) {
            let cols = load_batch(reader, SegmentClass::MemOrder, batch)?;
            collect_candidate_obs(&cols, delta, &cand_keys, &mut obs);
            collect_delay_execs(
                &cols.times,
                &cols.threads,
                &cols.sites,
                &delay_sites,
                &mut by_thread,
            );
        }
    }
    Ok(window_interference(&obs, &mut by_thread, delta))
}

/// Analyzes a segment stream's TSV events into a [`TsvPlan`] under the
/// same resident budget; byte-identical to
/// [`crate::analyze_tsv_indexed`] at every `jobs` and budget.
pub fn analyze_tsv_segments(
    reader: &mut SegmentReader,
    delta: SimTime,
    default_window: SimTime,
    jobs: usize,
    resident_bytes: u64,
) -> io::Result<TsvPlan> {
    let workload = reader.catalog().workload.clone();
    let sizes: Vec<u64> = reader
        .catalog()
        .class(SegmentClass::Tsv)
        .iter()
        .map(|m| m.bytes)
        .collect();
    let mut seen = std::collections::BTreeMap::new();
    for batch in budget_batches(&sizes, resident_bytes) {
        let cols = load_batch(reader, SegmentClass::Tsv, batch)?;
        let shards = shard_ranges(cols.object_count(), jobs);
        let outs = run_shards(shards, jobs, |slots| {
            sweep_tsv_shard(&cols, slots, delta, default_window)
        });
        for out in outs {
            merge_tsv_out(out, &mut seen);
        }
    }
    Ok(tsv_plan_from(workload, seen))
}

/// Resident-footprint telemetry for one out-of-core run: how the stream
/// was batched under the budget (reported by `waffle analyze --spill`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocStats {
    /// Batches the MemOrder segment stream split into.
    pub batches: usize,
    /// Largest single batch, in on-disk column bytes.
    pub max_batch_bytes: u64,
    /// Total segments streamed.
    pub segments: usize,
}

/// Computes the batching telemetry for `reader`'s MemOrder stream at the
/// given budget, without loading anything.
pub fn ooc_stats(reader: &SegmentReader, resident_bytes: u64) -> OocStats {
    let sizes: Vec<u64> = reader
        .catalog()
        .class(SegmentClass::MemOrder)
        .iter()
        .map(|m| m.bytes)
        .collect();
    let batches = budget_batches(&sizes, resident_bytes);
    OocStats {
        batches: batches.len(),
        max_batch_bytes: batches
            .iter()
            .map(|b| sizes[b.clone()].iter().sum())
            .max()
            .unwrap_or(0),
        segments: sizes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_respect_the_budget_and_cover_everything() {
        let sizes = [10u64, 20, 30, 5, 100, 1];
        let batches = budget_batches(&sizes, 35);
        // [10,20] | [30,5] | [100] | [1]: oversized segments still stream.
        assert_eq!(batches, vec![0..2, 2..4, 4..5, 5..6]);
        for b in &batches {
            let total: u64 = sizes[b.clone()].iter().sum();
            assert!(b.len() == 1 || total <= 35);
        }
        assert_eq!(budget_batches(&[], 10), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(budget_batches(&sizes, u64::MAX), vec![0..6]);
    }
}
