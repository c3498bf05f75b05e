//! Property-based tests for vector-clock invariants.

use proptest::prelude::*;
use waffle_vclock::{ClassicClock, ClockOrder, ClockSnapshot, LiveClock};

/// Strategy: an arbitrary snapshot over a small id space.
fn snapshot_strategy() -> impl Strategy<Value = ClockSnapshot<u32>> {
    proptest::collection::btree_map(0u32..8, 0u64..6, 0..8).prop_map(ClockSnapshot::from_entries)
}

/// Strategy: a random fork tree described as a list of parent indices.
/// Thread `i + 1` is forked from `parents[i] % (i + 1)`.
fn fork_tree_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..16, 1..12)
}

proptest! {
    #[test]
    fn leq_is_reflexive(a in snapshot_strategy()) {
        prop_assert!(a.leq(&a));
        prop_assert_eq!(a.order(&a), ClockOrder::Equal);
    }

    #[test]
    fn leq_is_antisymmetric(a in snapshot_strategy(), b in snapshot_strategy()) {
        if a.leq(&b) && b.leq(&a) {
            prop_assert_eq!(&a, &b);
        }
    }

    #[test]
    fn leq_is_transitive(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
        c in snapshot_strategy(),
    ) {
        if a.leq(&b) && b.leq(&c) {
            prop_assert!(a.leq(&c));
        }
    }

    #[test]
    fn order_is_consistent_with_flipped_order(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
    ) {
        let expected = match a.order(&b) {
            ClockOrder::Before => ClockOrder::After,
            ClockOrder::After => ClockOrder::Before,
            other => other,
        };
        prop_assert_eq!(b.order(&a), expected);
    }

    #[test]
    fn join_is_least_upper_bound(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
        c in snapshot_strategy(),
    ) {
        let j = a.join(&b);
        prop_assert!(a.leq(&j));
        prop_assert!(b.leq(&j));
        // Least: any other upper bound dominates the join.
        if a.leq(&c) && b.leq(&c) {
            prop_assert!(j.leq(&c));
        }
    }

    #[test]
    fn join_is_commutative_and_idempotent(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
    ) {
        prop_assert_eq!(a.join(&b), b.join(&a));
        prop_assert_eq!(a.join(&a), a.clone());
    }

    /// For any fork tree, the paper's by-reference protocol orders at least
    /// everything the classical protocol orders (it is a sound
    /// over-approximation of fork-edge happens-before when snapshots are
    /// taken at quiescence, i.e. after all forks).
    #[test]
    fn live_ordering_superset_of_classic_at_quiescence(parents in fork_tree_strategy()) {
        let n = parents.len() + 1;
        let mut live: Vec<LiveClock<u32>> = vec![LiveClock::root(0)];
        let mut classic: Vec<ClassicClock<u32>> = vec![ClassicClock::root(0)];
        for (i, p) in parents.iter().enumerate() {
            let child = (i + 1) as u32;
            let parent = p % (i + 1);
            let lc = live[parent].fork(parent as u32, child);
            live.push(lc);
            let cc = classic[parent].fork(parent as u32, child);
            classic.push(cc);
        }
        let live_snaps: Vec<_> = live.iter().map(|c| c.snapshot()).collect();
        let classic_snaps: Vec<_> = classic.iter().map(|c| c.snapshot()).collect();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                if classic_snaps[i].order(&classic_snaps[j]).is_ordered() {
                    prop_assert!(
                        live_snaps[i].order(&live_snaps[j]).is_ordered(),
                        "classic orders {}/{} but live does not",
                        i,
                        j
                    );
                }
            }
        }
    }

    /// Distinct leaves of a fork tree that are not in an ancestor
    /// relationship must be concurrent under both protocols.
    #[test]
    fn non_ancestor_threads_are_concurrent(parents in fork_tree_strategy()) {
        let n = parents.len() + 1;
        // Reconstruct ancestor sets.
        let mut parent_of = vec![usize::MAX; n];
        for (i, p) in parents.iter().enumerate() {
            parent_of[i + 1] = p % (i + 1);
        }
        let is_ancestor = |a: usize, b: usize| {
            let mut cur = b;
            while cur != usize::MAX {
                if cur == a {
                    return true;
                }
                cur = if cur == 0 { usize::MAX } else { parent_of[cur] };
            }
            false
        };
        let mut live: Vec<LiveClock<u32>> = vec![LiveClock::root(0)];
        for (i, p) in parents.iter().enumerate() {
            let child = (i + 1) as u32;
            let parent = p % (i + 1);
            let lc = live[parent].fork(parent as u32, child);
            live.push(lc);
        }
        let snaps: Vec<_> = live.iter().map(|c| c.snapshot()).collect();
        for i in 0..n {
            for j in 0..n {
                if i == j || is_ancestor(i, j) || is_ancestor(j, i) {
                    continue;
                }
                prop_assert!(
                    snaps[i].concurrent(&snaps[j]),
                    "non-related threads {}/{} must be concurrent",
                    i,
                    j
                );
            }
        }
    }
}
