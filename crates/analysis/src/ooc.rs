//! Out-of-core analysis: the fused sweep over an on-disk segment stream.
//!
//! [`analyze_segments`] produces the same [`Plan`] as
//! [`crate::analyze_jobs`] — byte-identical at any `jobs` value — without
//! ever holding the full event columns. Only two things stay resident for
//! the whole run, mirroring the partial-order-BMC observation that the
//! *ordering structure*, not the event mass, is what analysis needs hot:
//!
//! - the interned [`ClockPool`] (read once from
//!   the segment file's footer catalog), and
//! - the per-pair accumulators (candidates and stats), whose size is
//!   bounded by distinct site pairs, not events.
//!
//! Event columns stream through a **resident-bytes budget**: object
//! segments are loaded in ascending object order until the next segment
//! would overflow the budget, and each batch is absorbed by the same
//! MemOrder fold the in-memory path uses (sharded across `jobs`), then
//! dropped. The fold was built for determinism across arbitrary
//! contiguous partitions — max and sum folds plus a min representative
//! object — so batch boundaries are as invisible to the output as shard
//! boundaries are.
//!
//! Interference resolution needs the candidate pairs' observations and
//! delay-site executions, and the candidates are only known once every
//! batch has been absorbed. Rather than buffer either during the sweep,
//! the fold's finish has the stream replayed a second time into an
//! interference pass, which keeps just the candidate-pair observations
//! and delay-site executions — both bounded by how often candidate sites
//! run, typically a sliver of the trace.

use std::io;
use std::ops::Range;

use waffle_sim::SimTime;
use waffle_trace::{ClassColumns, ClockPool, SegmentClass, SegmentReader};

use crate::analyzer::AnalyzerConfig;
use crate::pipeline::{InterferencePass, MemFold, TsvFold};
use crate::plan::Plan;
use crate::tsv::TsvPlan;

/// Default resident budget for streamed columns: 64 MiB, far below what a
/// 10M-event trace's columns occupy but generous enough that small traces
/// still land in a single batch.
pub const DEFAULT_RESIDENT_BYTES: u64 = 64 << 20;

/// Yields `[start, end)` segment-index batches whose summed on-disk sizes
/// respect `budget` (every batch holds at least one segment, so a single
/// oversized segment still streams).
fn budget_batches(sizes: &[u64], budget: u64) -> Vec<Range<usize>> {
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

/// On-disk byte sizes of `class`'s segments, in catalog order.
fn segment_sizes(reader: &SegmentReader, class: SegmentClass) -> Vec<u64> {
    reader
        .catalog()
        .class(class)
        .iter()
        .map(|m| m.bytes)
        .collect()
}

/// Streams `class` through `f` one budget batch at a time, handing it the
/// batch's columns and the resident clock pool.
pub(crate) fn for_each_batch(
    reader: &mut SegmentReader,
    class: SegmentClass,
    resident_bytes: u64,
    mut f: impl FnMut(&ClassColumns, &ClockPool),
) -> io::Result<()> {
    for batch in budget_batches(&segment_sizes(reader, class), resident_bytes) {
        let cols = reader.read_segments(class, batch)?;
        f(&cols, reader.clocks());
    }
    Ok(())
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
    let mut fold = MemFold::default();
    for_each_batch(
        reader,
        SegmentClass::MemOrder,
        resident_bytes,
        |cols, pool| fold.absorb(cols, pool, config, None, jobs),
    )?;
    let workload = reader.catalog().workload.clone();
    fold.finish(workload, config, |pass| {
        replay_interference(reader, pass, resident_bytes)
    })
}

/// The streaming interference pass of [`analyze_segments`]: replays the
/// file's MemOrder segment stream under the resident budget into `pass`.
/// Each object has one segment in such a file, so every δ window lies
/// inside one batch. The incremental finish
/// ([`crate::IncrementalAnalysis::finish`]) instead replays a session's
/// generation files in seal order, where an object has a segment per
/// generation, and carries a δ-window tail across them.
fn replay_interference(
    reader: &mut SegmentReader,
    pass: &mut InterferencePass,
    resident_bytes: u64,
) -> io::Result<()> {
    for_each_batch(reader, SegmentClass::MemOrder, resident_bytes, |cols, _| {
        pass.collect(cols, None)
    })
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
    let mut fold = TsvFold::new(delta, default_window);
    for_each_batch(reader, SegmentClass::Tsv, resident_bytes, |cols, _| {
        fold.absorb(cols, None, jobs)
    })?;
    Ok(fold.finish(reader.catalog().workload.clone()))
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
    let sizes = segment_sizes(reader, SegmentClass::MemOrder);
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
        assert_eq!(budget_batches(&[], 10), Vec::<Range<usize>>::new());
        assert_eq!(budget_batches(&sizes, u64::MAX), vec![0..6]);
    }
}
