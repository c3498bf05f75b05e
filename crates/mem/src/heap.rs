//! The run-time heap of reference cells.

use serde::{Deserialize, Serialize};

use crate::error::{NullRefError, NullRefKind};
use crate::object::{AccessKind, ObjectId, RefState};
use crate::site::SiteId;

/// What an access did to the cell, on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// The cell transitioned from `from` to `to` (Init/Dispose).
    Transition {
        /// State before the access.
        from: RefState,
        /// State after the access.
        to: RefState,
    },
    /// The cell was read without a state change (Use / UnsafeApiCall).
    Read,
}

/// Aggregate heap statistics for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapStats {
    /// Total accesses applied (including faulting ones).
    pub accesses: u64,
    /// Successful initializations.
    pub inits: u64,
    /// Successful uses.
    pub uses: u64,
    /// Successful disposals.
    pub disposes: u64,
    /// Thread-unsafe API calls (TSV instrumentation class).
    pub unsafe_calls: u64,
    /// NULL-reference exceptions raised.
    pub null_ref_errors: u64,
}

/// A heap of reference cells, one per pre-declared workload object.
///
/// The heap is time- and thread-agnostic: it owns only the reference state
/// machine. The simulator drives it and attaches timing context to the
/// outcomes.
#[derive(Debug)]
pub struct Heap {
    cells: Vec<RefState>,
    stats: HeapStats,
}

// Hand-written so `clone_from` reuses the cell allocation: the schedule
// oracle clones a heap on every explored branch.
impl Clone for Heap {
    fn clone(&self) -> Self {
        Self {
            cells: self.cells.clone(),
            stats: self.stats,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.cells.clone_from(&src.cells);
        self.stats = src.stats;
    }
}

impl Heap {
    /// Creates a heap with `n` cells, all `Null` (never initialized).
    pub fn new(n: usize) -> Self {
        Self {
            cells: vec![RefState::Null; n],
            stats: HeapStats::default(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the heap has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Current state of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range — workloads pre-declare all objects,
    /// so an unknown id is a workload construction bug.
    #[inline]
    pub fn state(&self, obj: ObjectId) -> RefState {
        self.cells[obj.0 as usize]
    }

    /// Every cell's state, indexed by object id.
    pub fn cells(&self) -> &[RefState] {
        &self.cells
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Applies one access to the heap, returning the outcome or the
    /// NULL-reference exception it raises.
    ///
    /// Semantics (§3.1):
    /// - `Init`: NULL → non-NULL. Re-initializing a `Live` cell is a benign
    ///   reassignment (stays `Live`); initializing a `Disposed` cell
    ///   resurrects it to `Live`.
    /// - `Use`: requires `Live`; otherwise raises `UseBeforeInit`
    ///   (never-initialized) or `UseAfterFree` (disposed).
    /// - `Dispose`: non-NULL → NULL; disposing a NULL reference raises
    ///   `DisposeOnNull` (the `Dispose()` call itself dereferences NULL).
    /// - `UnsafeApiCall`: like `Use` for the state machine (the call
    ///   dereferences the object); TSV overlap detection is the simulator's
    ///   job.
    pub fn apply(
        &mut self,
        obj: ObjectId,
        site: SiteId,
        kind: AccessKind,
    ) -> Result<AccessOutcome, NullRefError> {
        let outcome = self.classify(obj, site, kind, self.state(obj));
        if let Ok(AccessOutcome::Transition { to, .. }) = outcome {
            self.cells[obj.0 as usize] = to;
        }
        outcome
    }

    /// Applies one access against an explicit `view` of the cell — the
    /// state the accessing thread *observes*, which under a weak memory
    /// model (store buffers) can differ from the shared cell. Statistics
    /// and the outcome are identical to [`apply`](Self::apply) on a cell
    /// in state `view`; the shared cell itself is **not** written — a
    /// buffered store becomes globally visible only when the simulator
    /// later [`commit`](Self::commit)s it.
    pub fn apply_buffered(
        &mut self,
        obj: ObjectId,
        site: SiteId,
        kind: AccessKind,
        view: RefState,
    ) -> Result<AccessOutcome, NullRefError> {
        self.classify(obj, site, kind, view)
    }

    /// Commits a drained store-buffer entry: blindly writes the shared
    /// cell. Validation and statistics happened at
    /// [`apply_buffered`](Self::apply_buffered) time.
    #[inline]
    pub fn commit(&mut self, obj: ObjectId, to: RefState) {
        self.cells[obj.0 as usize] = to;
    }

    /// The §3.1 state machine against an explicit observed state: updates
    /// statistics and returns the outcome, without touching the cell.
    fn classify(
        &mut self,
        obj: ObjectId,
        site: SiteId,
        kind: AccessKind,
        from: RefState,
    ) -> Result<AccessOutcome, NullRefError> {
        self.stats.accesses += 1;
        let fail = |this: &mut Self, k: NullRefKind| {
            this.stats.null_ref_errors += 1;
            Err(NullRefError {
                obj,
                site,
                access: kind,
                kind: k,
            })
        };
        match kind {
            AccessKind::Init => {
                self.stats.inits += 1;
                Ok(AccessOutcome::Transition {
                    from,
                    to: RefState::Live,
                })
            }
            AccessKind::Use | AccessKind::UnsafeApiCall => match from {
                RefState::Live => {
                    if kind == AccessKind::Use {
                        self.stats.uses += 1;
                    } else {
                        self.stats.unsafe_calls += 1;
                    }
                    Ok(AccessOutcome::Read)
                }
                RefState::Null => fail(self, NullRefKind::UseBeforeInit),
                RefState::Disposed => fail(self, NullRefKind::UseAfterFree),
            },
            AccessKind::Dispose => match from {
                RefState::Live => {
                    self.stats.disposes += 1;
                    Ok(AccessOutcome::Transition {
                        from,
                        to: RefState::Disposed,
                    })
                }
                RefState::Null | RefState::Disposed => fail(self, NullRefKind::DisposeOnNull),
            },
        }
    }

    /// Resets every cell to `Null` and clears statistics (fresh run).
    pub fn reset(&mut self) {
        self.cells.fill(RefState::Null);
        self.stats = HeapStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new(2)
    }

    const S: SiteId = SiteId(0);
    const O: ObjectId = ObjectId(0);

    #[test]
    fn lifecycle_init_use_dispose() {
        let mut h = heap();
        assert!(h.apply(O, S, AccessKind::Init).is_ok());
        assert_eq!(h.state(O), RefState::Live);
        assert!(h.apply(O, S, AccessKind::Use).is_ok());
        assert!(h.apply(O, S, AccessKind::Dispose).is_ok());
        assert_eq!(h.state(O), RefState::Disposed);
    }

    #[test]
    fn use_before_init_raises() {
        let mut h = heap();
        let e = h.apply(O, S, AccessKind::Use).unwrap_err();
        assert_eq!(e.kind, NullRefKind::UseBeforeInit);
    }

    #[test]
    fn use_after_free_raises() {
        let mut h = heap();
        h.apply(O, S, AccessKind::Init).unwrap();
        h.apply(O, S, AccessKind::Dispose).unwrap();
        let e = h.apply(O, S, AccessKind::Use).unwrap_err();
        assert_eq!(e.kind, NullRefKind::UseAfterFree);
    }

    #[test]
    fn dispose_on_null_raises() {
        let mut h = heap();
        let e = h.apply(O, S, AccessKind::Dispose).unwrap_err();
        assert_eq!(e.kind, NullRefKind::DisposeOnNull);
        // Double dispose also raises.
        h.apply(O, S, AccessKind::Init).unwrap();
        h.apply(O, S, AccessKind::Dispose).unwrap();
        let e = h.apply(O, S, AccessKind::Dispose).unwrap_err();
        assert_eq!(e.kind, NullRefKind::DisposeOnNull);
    }

    #[test]
    fn reinit_resurrects_disposed_cell() {
        let mut h = heap();
        h.apply(O, S, AccessKind::Init).unwrap();
        h.apply(O, S, AccessKind::Dispose).unwrap();
        h.apply(O, S, AccessKind::Init).unwrap();
        assert_eq!(h.state(O), RefState::Live);
        assert!(h.apply(O, S, AccessKind::Use).is_ok());
    }

    #[test]
    fn unsafe_call_requires_live_object() {
        let mut h = heap();
        assert!(h.apply(O, S, AccessKind::UnsafeApiCall).is_err());
        h.apply(O, S, AccessKind::Init).unwrap();
        assert!(h.apply(O, S, AccessKind::UnsafeApiCall).is_ok());
        assert_eq!(h.stats().unsafe_calls, 1);
    }

    #[test]
    fn stats_count_successes_and_failures() {
        let mut h = heap();
        h.apply(O, S, AccessKind::Use).unwrap_err();
        h.apply(O, S, AccessKind::Init).unwrap();
        h.apply(O, S, AccessKind::Use).unwrap();
        h.apply(O, S, AccessKind::Dispose).unwrap();
        let st = h.stats();
        assert_eq!(st.accesses, 4);
        assert_eq!(st.null_ref_errors, 1);
        assert_eq!((st.inits, st.uses, st.disposes), (1, 1, 1));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut h = heap();
        h.apply(O, S, AccessKind::Init).unwrap();
        h.reset();
        assert_eq!(h.state(O), RefState::Null);
        assert_eq!(h.stats(), HeapStats::default());
    }

    #[test]
    fn cells_are_independent() {
        let mut h = heap();
        h.apply(ObjectId(0), S, AccessKind::Init).unwrap();
        assert_eq!(h.state(ObjectId(0)), RefState::Live);
        assert_eq!(h.state(ObjectId(1)), RefState::Null);
    }

    #[test]
    fn apply_buffered_validates_the_view_without_writing_the_cell() {
        let mut h = heap();
        // A buffered init: the thread's own view transitions, the shared
        // cell stays NULL until the commit.
        let out = h
            .apply_buffered(O, S, AccessKind::Init, RefState::Null)
            .unwrap();
        assert_eq!(
            out,
            AccessOutcome::Transition {
                from: RefState::Null,
                to: RefState::Live
            }
        );
        assert_eq!(h.state(O), RefState::Null, "shared cell untouched");
        assert_eq!(h.stats().inits, 1, "stats counted at validation time");
        // Another thread reading shared memory meanwhile faults.
        let e = h.apply(O, S, AccessKind::Use).unwrap_err();
        assert_eq!(e.kind, NullRefKind::UseBeforeInit);
        // The drain makes the store globally visible.
        h.commit(O, RefState::Live);
        assert_eq!(h.state(O), RefState::Live);
        assert!(h.apply(O, S, AccessKind::Use).is_ok());
    }

    #[test]
    fn apply_buffered_reads_respect_the_observed_view() {
        let mut h = heap();
        // Shared cell is NULL, but the reader's own buffer holds Live.
        assert!(h
            .apply_buffered(O, S, AccessKind::Use, RefState::Live)
            .is_ok());
        // Shared cell is Live, but the view is stale (pre-init): faults.
        h.commit(O, RefState::Live);
        let e = h
            .apply_buffered(O, S, AccessKind::Use, RefState::Null)
            .unwrap_err();
        assert_eq!(e.kind, NullRefKind::UseBeforeInit);
    }

    #[test]
    fn apply_buffered_matches_apply_on_equal_views() {
        // Over every (kind, state) combination, `apply_buffered` with the
        // shared state as the view must agree with `apply` on outcome and
        // stats — the SC-equivalence of the buffered path.
        for kind in [
            AccessKind::Init,
            AccessKind::Use,
            AccessKind::Dispose,
            AccessKind::UnsafeApiCall,
        ] {
            for state in [RefState::Null, RefState::Live, RefState::Disposed] {
                let mut direct = heap();
                direct.cells[O.0 as usize] = state;
                let mut buffered = heap();
                buffered.cells[O.0 as usize] = state;
                let d = direct.apply(O, S, kind);
                let b = buffered.apply_buffered(O, S, kind, state);
                assert_eq!(d, b, "{kind:?} on {state:?}");
                assert_eq!(direct.stats(), buffered.stats(), "{kind:?} on {state:?}");
                if let Ok(AccessOutcome::Transition { to, .. }) = b {
                    buffered.commit(O, to);
                }
                assert_eq!(direct.state(O), buffered.state(O), "{kind:?} on {state:?}");
            }
        }
    }
}
