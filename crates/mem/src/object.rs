//! Object identities, reference-cell states, and access kinds.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identity of a dynamic heap object (one per allocated instance).
///
/// Workloads pre-declare their objects; ids index the run's
/// [`Heap`](crate::Heap). Distinct loop iterations touching "the same field" use
/// distinct `ObjectId`s when the program semantics allocate fresh
/// instances, which is what gives a static site multiple dynamic instances.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// The state of an object's reference cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RefState {
    /// The reference is NULL and the object was never initialized.
    #[default]
    Null,
    /// The reference points to a live object.
    Live,
    /// The reference was set back to NULL or the object was disposed.
    Disposed,
}

/// The three MemOrder-relevant operation types of §3.1, plus the
/// thread-unsafe API call used by the TSV comparison tooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// An operation that changes the object's reference from NULL to
    /// non-NULL (allocation / constructor completion).
    Init,
    /// A member-field access or member-method call on the object.
    Use,
    /// An operation that changes the reference from non-NULL to NULL or an
    /// explicit `Dispose()` call.
    Dispose,
    /// A call into a thread-unsafe API operating on the object — the
    /// instrumentation target of TSVD-style thread-safety-violation
    /// detection (§2), irrelevant to the MemOrder state machine.
    UnsafeApiCall,
}

impl AccessKind {
    /// Whether this kind is instrumented by the MemOrder tooling
    /// (Waffle/WaffleBasic).
    pub fn is_mem_order(self) -> bool {
        matches!(
            self,
            AccessKind::Init | AccessKind::Use | AccessKind::Dispose
        )
    }

    /// Whether this kind is instrumented by the TSV tooling (TSVD).
    pub fn is_tsv(self) -> bool {
        matches!(self, AccessKind::UnsafeApiCall)
    }

    /// Short label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Init => "init",
            AccessKind::Use => "use",
            AccessKind::Dispose => "dispose",
            AccessKind::UnsafeApiCall => "unsafe-api",
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_null() {
        assert_eq!(RefState::default(), RefState::Null);
    }

    #[test]
    fn kind_classification_is_disjoint() {
        for k in [
            AccessKind::Init,
            AccessKind::Use,
            AccessKind::Dispose,
            AccessKind::UnsafeApiCall,
        ] {
            assert!(k.is_mem_order() != k.is_tsv());
        }
    }

    #[test]
    fn display_labels_are_stable() {
        assert_eq!(AccessKind::Init.to_string(), "init");
        assert_eq!(AccessKind::UnsafeApiCall.to_string(), "unsafe-api");
        assert_eq!(ObjectId(3).to_string(), "obj#3");
    }
}
