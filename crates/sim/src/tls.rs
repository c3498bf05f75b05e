//! Inheritable thread-local storage.
//!
//! Waffle avoids instrumenting every thread-fork mechanism by leaning on a
//! language feature: a TLS region that is automatically copied from parent
//! to child at thread creation (C#'s `LogicalCallContext`, Java's
//! `InheritableThreadLocal`). The runtime stores its vector-clock object in
//! that region and lets the propagation drive fork-edge tracking (§4.1).
//!
//! [`InheritableTls`] reproduces that contract for simulated threads: a
//! typed slot per thread, with [`inherit`](InheritableTls::inherit) invoked
//! by the runtime at each fork to derive the child's value *from the
//! parent's slot* — the user hook plays the role of the TLS object's
//! "constructor" that runs when the region lands in the child.

use std::collections::HashMap;

use crate::ids::ThreadId;

/// A per-thread storage slot of `T`, propagated parent → child at fork.
#[derive(Debug, Clone, Default)]
pub struct InheritableTls<T> {
    slots: HashMap<ThreadId, T>,
}

impl<T> InheritableTls<T> {
    /// Creates empty storage.
    pub fn new() -> Self {
        Self {
            slots: HashMap::new(),
        }
    }

    /// Installs the root thread's value (no parent to inherit from).
    pub fn init_root(&mut self, root: ThreadId, value: T) {
        self.slots.insert(root, value);
    }

    /// Runs the fork protocol: derives the child's value from the parent's
    /// slot via `derive` (which may also mutate the parent's value, exactly
    /// like Waffle's vector-clock constructor increments the parent's
    /// counter through the shared reference).
    ///
    /// Threads without a slot (never initialized) propagate nothing.
    pub fn inherit(&mut self, parent: ThreadId, child: ThreadId, derive: impl FnOnce(&mut T) -> T) {
        if let Some(pv) = self.slots.get_mut(&parent) {
            let cv = derive(pv);
            self.slots.insert(child, cv);
        }
    }

    /// Runs a join-style protocol: lets `merge` read thread `from`'s slot
    /// while mutating thread `into`'s, without cloning either value. A
    /// no-op when either slot is missing or the two ids are equal.
    pub fn merge_pair(&mut self, into: ThreadId, from: ThreadId, merge: impl FnOnce(&mut T, &T)) {
        if into == from {
            return;
        }
        // Lift `from`'s value out for the duration of the merge (a shallow
        // move) so `into` can be borrowed mutably at the same time.
        let Some(fv) = self.slots.remove(&from) else {
            return;
        };
        if let Some(iv) = self.slots.get_mut(&into) {
            merge(iv, &fv);
        }
        self.slots.insert(from, fv);
    }

    /// Reads a thread's slot.
    pub fn get(&self, tid: ThreadId) -> Option<&T> {
        self.slots.get(&tid)
    }

    /// Mutably reads a thread's slot.
    pub fn get_mut(&mut self, tid: ThreadId) -> Option<&mut T> {
        self.slots.get_mut(&tid)
    }

    /// Drops a finished thread's slot (TLS teardown).
    pub fn remove(&mut self, tid: ThreadId) -> Option<T> {
        self.slots.remove(&tid)
    }

    /// Number of live slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slots are live.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inherit_derives_child_from_parent() {
        let mut tls: InheritableTls<Vec<u32>> = InheritableTls::new();
        tls.init_root(ThreadId(0), vec![0]);
        tls.inherit(ThreadId(0), ThreadId(1), |p| {
            let mut c = p.clone();
            c.push(1);
            c
        });
        assert_eq!(tls.get(ThreadId(1)).unwrap(), &vec![0, 1]);
    }

    #[test]
    fn derive_may_mutate_parent_slot() {
        // Models the vector-clock constructor bumping the parent's counter.
        let mut tls: InheritableTls<u64> = InheritableTls::new();
        tls.init_root(ThreadId(0), 1);
        tls.inherit(ThreadId(0), ThreadId(1), |p| {
            *p += 1;
            100
        });
        assert_eq!(*tls.get(ThreadId(0)).unwrap(), 2);
        assert_eq!(*tls.get(ThreadId(1)).unwrap(), 100);
    }

    #[test]
    fn inherit_from_uninitialized_parent_is_a_no_op() {
        let mut tls: InheritableTls<u64> = InheritableTls::new();
        tls.inherit(ThreadId(5), ThreadId(6), |p| *p);
        assert!(tls.get(ThreadId(6)).is_none());
        assert!(tls.is_empty());
    }

    #[test]
    fn merge_pair_borrows_without_cloning() {
        let mut tls: InheritableTls<Vec<u32>> = InheritableTls::new();
        tls.init_root(ThreadId(0), vec![1]);
        tls.init_root(ThreadId(1), vec![2, 3]);
        tls.merge_pair(ThreadId(0), ThreadId(1), |a, b| a.extend_from_slice(b));
        assert_eq!(tls.get(ThreadId(0)).unwrap(), &vec![1, 2, 3]);
        // The source slot survives the merge.
        assert_eq!(tls.get(ThreadId(1)).unwrap(), &vec![2, 3]);
        // Missing sources and self-merges are no-ops.
        tls.merge_pair(ThreadId(0), ThreadId(9), |a, _| a.clear());
        tls.merge_pair(ThreadId(0), ThreadId(0), |a, _| a.clear());
        assert_eq!(tls.get(ThreadId(0)).unwrap(), &vec![1, 2, 3]);
    }

    #[test]
    fn remove_tears_down_slot() {
        let mut tls: InheritableTls<u64> = InheritableTls::new();
        tls.init_root(ThreadId(0), 7);
        assert_eq!(tls.remove(ThreadId(0)), Some(7));
        assert!(tls.get(ThreadId(0)).is_none());
    }
}
