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
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use crate::object::AccessKind;

/// Identity of a static instrumentation site.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

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
///
/// Clones share one table: cloning bumps a reference count, and
/// [`register`](Self::register) on a shared registry copies the table
/// first (copy-on-write), so every clone still sees only its own
/// registrations. A trace recorder takes its workload's table this way
/// once per preparation run.
#[derive(Debug, Clone, Default)]
pub struct SiteRegistry(Arc<Sites>);

/// The table behind a [`SiteRegistry`]; also its serialized form.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Sites {
    sites: Vec<SiteInfo>,
    by_name: HashMap<String, SiteId>,
}

impl Serialize for SiteRegistry {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for SiteRegistry {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Sites::from_value(v).map(|s| Self(Arc::new(s)))
    }
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
        if let Some(&id) = self.0.by_name.get(name) {
            let existing = &self.0.sites[id.0 as usize];
            assert_eq!(
                existing.kind, kind,
                "site {name:?} re-registered with a different access kind"
            );
            return id;
        }
        let table = Arc::make_mut(&mut self.0);
        let id = SiteId(table.sites.len() as u32);
        table.sites.push(SiteInfo {
            name: name.to_owned(),
            kind,
        });
        table.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a site by name.
    pub fn lookup(&self, name: &str) -> Option<SiteId> {
        self.0.by_name.get(name).copied()
    }

    /// Returns the metadata for `id`, if registered.
    pub fn info(&self, id: SiteId) -> Option<&SiteInfo> {
        self.0.sites.get(id.0 as usize)
    }

    /// Returns the site name for `id`, or a placeholder for unknown ids.
    pub fn name(&self, id: SiteId) -> &str {
        self.info(id)
            .map(|i| i.name.as_str())
            .unwrap_or("<unknown>")
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.0.sites.len()
    }

    /// Whether no sites are registered.
    pub fn is_empty(&self) -> bool {
        self.0.sites.is_empty()
    }

    /// Iterates over `(id, info)` pairs in registration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (SiteId, &SiteInfo)> {
        self.0
            .sites
            .iter()
            .enumerate()
            .map(|(i, info)| (SiteId(i as u32), info))
    }

    /// Counts sites whose operation class satisfies `pred`.
    pub fn count_where(&self, pred: impl Fn(AccessKind) -> bool) -> usize {
        self.0.sites.iter().filter(|s| pred(s.kind)).count()
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
    fn clones_share_one_table() {
        let mut r = SiteRegistry::new();
        r.register("a", AccessKind::Init);
        let c = r.clone();
        assert!(Arc::ptr_eq(&r.0, &c.0));
        assert_eq!(c.lookup("a"), Some(SiteId(0)));
    }

    #[test]
    fn register_on_a_clone_leaves_the_original_unchanged() {
        let mut r = SiteRegistry::new();
        r.register("a", AccessKind::Init);
        let mut c = r.clone();
        // Re-registering a known name reads the shared table and keeps it shared.
        assert_eq!(c.register("a", AccessKind::Init), SiteId(0));
        assert!(Arc::ptr_eq(&r.0, &c.0));
        assert_eq!(c.register("b", AccessKind::Use), SiteId(1));
        assert!(!Arc::ptr_eq(&r.0, &c.0));
        assert_eq!((r.len(), c.len()), (1, 2));
        assert!(r.lookup("b").is_none());
        assert_eq!(c.name(SiteId(1)), "b");
    }

    /// The serialized form is the plain table, so traces and segments
    /// written by earlier builds read back and re-save unchanged.
    #[test]
    fn serialized_json_matches_the_golden_bytes() {
        const GOLDEN: &str = concat!(
            r#"{"sites":[{"name":"Poller.ctor:3","kind":"Init"},"#,
            r#"{"name":"Poller.Run:12","kind":"Use"},"#,
            r#"{"name":"Poller.Dispose:8","kind":"Dispose"},"#,
            r#"{"name":"Queue.Enqueue:4","kind":"UnsafeApiCall"}],"#,
            r#""by_name":{"Poller.Dispose:8":2,"Poller.Run:12":1,"#,
            r#""Poller.ctor:3":0,"Queue.Enqueue:4":3}}"#
        );
        let mut r = SiteRegistry::new();
        r.register("Poller.ctor:3", AccessKind::Init);
        r.register("Poller.Run:12", AccessKind::Use);
        r.register("Poller.Dispose:8", AccessKind::Dispose);
        r.register("Queue.Enqueue:4", AccessKind::UnsafeApiCall);
        assert_eq!(serde_json::to_string(&r).unwrap(), GOLDEN);
        let back: SiteRegistry = serde_json::from_str(GOLDEN).unwrap();
        assert_eq!(back.lookup("Poller.Dispose:8"), Some(SiteId(2)));
        assert_eq!(serde_json::to_string(&back).unwrap(), GOLDEN);
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
