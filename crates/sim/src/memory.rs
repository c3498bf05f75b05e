//! Modeled memory subsystem: store-buffer semantics for weak models.
//!
//! The engine is sequentially consistent by default: an `Init`/`Dispose`
//! writes the shared reference cell the instant it executes, so no thread
//! can ever read a stale (pre-init / post-dispose) value. Real hardware is
//! weaker — a store lingers in the writing core's store buffer until it
//! drains, and only *drain points* (fences, lock operations) bound how
//! long. MemOrder bugs that only fire under that reordering are invisible
//! to an SC simulator; this module adds them as a modeled, opt-in
//! subsystem (following "Don't sit on the fence" and the
//! reorder-bounded-BMC line of related work).
//!
//! Semantics, by [`MemoryModel`]:
//!
//! - [`Sc`](MemoryModel::Sc) (default): stores apply immediately and
//!   nothing is ever buffered.
//! - [`Tso`](MemoryModel::Tso): each thread owns one FIFO store buffer.
//!   A store executes (validates against the thread's own view, counts in
//!   heap stats, appears in the trace) at its program-order time but the
//!   shared cell is only written when the entry *drains*. Reads hit the
//!   thread's own buffer first (a core always sees its own stores), then
//!   shared memory. Buffer order is preserved: an entry never drains
//!   before an earlier entry of the same buffer.
//! - [`Pso`](MemoryModel::Pso): like TSO, but FIFO only *per location* —
//!   stores to different objects may drain out of program order (the
//!   data/flag publication bug class TSO still protects).
//!
//! Under `Tso`/`Pso` a store drains [`DRAIN_LATENCY`] after it executes
//! (subject to timing noise), or earlier at a forced drain point: lock
//! acquire/release, fork, join, thread exit, or an explicit
//! [`Op::Fence`](crate::op::Op::Fence). Crucially, an injected delay at a
//! store does **not** pause the thread — it stretches the store's drain
//! time while the thread runs ahead. That is what turns WAFFLE's delay
//! injection into a weak-memory exposure tool: the thread publishes its
//! signal on time, but the delayed store is still sitting in the buffer
//! when the reader looks, so the reader observes the stale value. The
//! candidate/interference machinery upstream is unchanged; only what a
//! delay *means* at a store differs.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Which memory consistency model the simulated hardware provides.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum MemoryModel {
    /// Sequential consistency: stores are globally visible immediately.
    #[default]
    Sc,
    /// Total store order: one FIFO store buffer per thread.
    Tso,
    /// Partial store order: per-location FIFO — stores to different
    /// objects may drain out of program order.
    Pso,
}

impl MemoryModel {
    /// Parses a CLI spelling (`sc` / `tso` / `pso`, case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "sc" => Some(Self::Sc),
            "tso" => Some(Self::Tso),
            "pso" => Some(Self::Pso),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Sc => "sc",
            Self::Tso => "tso",
            Self::Pso => "pso",
        }
    }

    /// Whether stores go through a store buffer at all.
    pub fn is_weak(self) -> bool {
        !matches!(self, Self::Sc)
    }

    /// Whether this is the sequentially consistent default (serializers
    /// omit the field under `Sc` so default-model artifacts stay
    /// byte-identical to their pre-weak-memory serializations).
    pub fn is_sc(&self) -> bool {
        matches!(self, Self::Sc)
    }
}

impl std::fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Store-buffer residence time under a weak model: long enough
/// to be a real reordering window, far below the ≥2ms racing gaps the
/// fuzzer plants (so weak-memory bugs stay *latent* until a delay
/// stretches the drain past the reader).
pub const DRAIN_LATENCY: SimTime = SimTime::from_us(50);

/// The memory subsystem configuration carried by
/// [`SimConfig`](crate::engine::SimConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryConfig {
    /// The consistency model.
    pub model: MemoryModel,
}

impl MemoryConfig {
    /// Sequential consistency (the default).
    pub fn sc() -> Self {
        Self::default()
    }

    /// The configuration for `model`: the one-argument form CLI/harness
    /// layers use.
    pub fn from_model(model: MemoryModel) -> Self {
        Self { model }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_name_round_trip() {
        for m in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            assert_eq!(MemoryModel::parse(m.name()), Some(m));
        }
        assert_eq!(MemoryModel::parse("TSO"), Some(MemoryModel::Tso));
        assert_eq!(MemoryModel::parse("weak"), None);
    }

    #[test]
    fn default_is_sequentially_consistent() {
        let cfg = MemoryConfig::default();
        assert!(cfg.model.is_sc());
        assert!(!cfg.model.is_weak());
        assert_eq!(
            MemoryConfig::from_model(MemoryModel::Pso).model,
            MemoryModel::Pso
        );
    }
}
