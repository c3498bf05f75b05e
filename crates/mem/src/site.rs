//! Static program locations (instrumentation sites).
//!
//! A *site* is the static analogue of the paper's "program location" ℓ: a
//! stable identifier for one instrumented operation in the target program.
//! Waffle's candidate set `S` and interference set `I` are sets of site
//! pairs; the probability-decay state is keyed by site; plans persist
//! across runs, so sites must be stable across runs of the same workload
//! (the registry interns by name deterministically).

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::object::AccessKind;

/// Identity of a static instrumentation site.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SiteId(pub u32);

impl SiteId {
    /// Checked construction from a table index: a [`SiteIdOverflow`] once
    /// the index has outgrown the 32-bit id space, instead of the silent
    /// wrap a bare `as u32` cast would produce.
    pub fn try_new(index: usize) -> Result<Self, SiteIdOverflow> {
        u32::try_from(index)
            .map(SiteId)
            .map_err(|_| SiteIdOverflow { index })
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// A site-table index outgrew the 32-bit [`SiteId`] space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteIdOverflow {
    /// The offending table index.
    pub index: usize,
}

impl fmt::Display for SiteIdOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "site id overflow: index {} does not fit the 32-bit id space",
            self.index
        )
    }
}

impl std::error::Error for SiteIdOverflow {}

/// Metadata attached to a site.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteInfo {
    /// Source-like name, e.g. `"DiagnosticsListener.ctor:2"`.
    pub name: String,
    /// The operation class performed at this site.
    pub kind: AccessKind,
}

/// Interning table mapping site names to stable [`SiteId`]s.
///
/// Registration order defines ids, and workload builders register sites
/// deterministically, so the same workload produces the same ids in every
/// run — a requirement for cross-run plans and decay state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SiteRegistry {
    sites: Vec<SiteInfo>,
    by_name: HashMap<String, SiteId>,
}

impl SiteRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name` with operation class `kind`, returning its id.
    ///
    /// Re-registering an existing name returns the existing id; the kind
    /// must match (a static location performs one operation class).
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously registered with a different `kind` —
    /// that is a workload construction bug.
    pub fn register(&mut self, name: &str, kind: AccessKind) -> SiteId {
        if let Some(&id) = self.by_name.get(name) {
            let existing = &self.sites[id.0 as usize];
            assert_eq!(
                existing.kind, kind,
                "site {name:?} re-registered with a different access kind"
            );
            return id;
        }
        let id = SiteId(self.sites.len() as u32);
        self.sites.push(SiteInfo {
            name: name.to_owned(),
            kind,
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a site by name.
    pub fn lookup(&self, name: &str) -> Option<SiteId> {
        self.by_name.get(name).copied()
    }

    /// Returns the metadata for `id`, if registered.
    pub fn info(&self, id: SiteId) -> Option<&SiteInfo> {
        self.sites.get(id.0 as usize)
    }

    /// Returns the site name for `id`, or a placeholder for unknown ids.
    pub fn name(&self, id: SiteId) -> &str {
        self.info(id)
            .map(|i| i.name.as_str())
            .unwrap_or("<unknown>")
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no sites are registered.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates over `(id, info)` pairs in registration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (SiteId, &SiteInfo)> {
        self.sites
            .iter()
            .enumerate()
            .map(|(i, info)| (SiteId(i as u32), info))
    }

    /// Counts sites whose operation class satisfies `pred`.
    pub fn count_where(&self, pred: impl Fn(AccessKind) -> bool) -> usize {
        self.sites.iter().filter(|s| pred(s.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_ordered() {
        let mut r = SiteRegistry::new();
        let a = r.register("A.ctor:1", AccessKind::Init);
        let b = r.register("A.handler:8", AccessKind::Use);
        let a2 = r.register("A.ctor:1", AccessKind::Init);
        assert_eq!(a, a2);
        assert_eq!(a, SiteId(0));
        assert_eq!(b, SiteId(1));
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different access kind")]
    fn conflicting_kind_panics() {
        let mut r = SiteRegistry::new();
        r.register("X", AccessKind::Init);
        r.register("X", AccessKind::Use);
    }

    #[test]
    fn lookup_and_name_round_trip() {
        let mut r = SiteRegistry::new();
        let id = r.register("Poller.Dispose:8", AccessKind::Dispose);
        assert_eq!(r.lookup("Poller.Dispose:8"), Some(id));
        assert_eq!(r.name(id), "Poller.Dispose:8");
        assert_eq!(r.name(SiteId(99)), "<unknown>");
        assert!(r.lookup("missing").is_none());
    }

    #[test]
    fn count_where_filters_by_kind() {
        let mut r = SiteRegistry::new();
        r.register("a", AccessKind::Init);
        r.register("b", AccessKind::Use);
        r.register("c", AccessKind::UnsafeApiCall);
        assert_eq!(r.count_where(AccessKind::is_mem_order), 2);
        assert_eq!(r.count_where(AccessKind::is_tsv), 1);
    }

    #[test]
    fn iter_yields_registration_order() {
        let mut r = SiteRegistry::new();
        r.register("first", AccessKind::Init);
        r.register("second", AccessKind::Use);
        let names: Vec<_> = r.iter().map(|(_, i)| i.name.clone()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }
}
