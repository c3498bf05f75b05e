//! Probability decay (§2, "When to inject at run time?").
//!
//! Every delay location starts with injection probability 1. Each delay
//! that fails to expose a bug lowers the location's probability by a
//! constant λ; at probability 0 the location is effectively removed from
//! the candidate set. The state is saved after every detection run and
//! bootstraps the next one (§5), which is what makes repeated-miss
//! behaviour converge: once a location's probability hits zero it can never
//! be delayed again.

use std::collections::BTreeMap;

use rand::Rng;
use serde::{Deserialize, Serialize};
use waffle_mem::SiteId;

/// Initial injection probability of every site, in per-mille (1000 =
/// 100%).
pub const INITIAL_PERMILLE: u32 = 1000;

/// The decay constant λ = 0.15, in per-mille: subtracted from a site's
/// probability per failed injection.
pub const LAMBDA_PERMILLE: u32 = 150;

/// Per-site injection probabilities, persisted across runs.
///
/// Sites not yet decayed are at [`INITIAL_PERMILLE`]. Unknown fields are
/// ignored on load, so a `decay.json` written when the state still
/// carried its decay parameters loads unchanged.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DecayState {
    permille: BTreeMap<SiteId, u32>,
}

impl DecayState {
    /// Current injection probability for `site`, in per-mille.
    pub fn permille(&self, site: SiteId) -> u32 {
        self.permille
            .get(&site)
            .copied()
            .unwrap_or(INITIAL_PERMILLE)
    }

    /// Whether `site` has decayed to zero (removed from consideration).
    pub fn exhausted(&self, site: SiteId) -> bool {
        self.permille(site) == 0
    }

    /// Draws an injection decision for `site`.
    pub fn roll(&self, site: SiteId, rng: &mut impl Rng) -> bool {
        roll_permille(self.permille(site), rng)
    }

    /// Records a (presumed) failed injection at `site`: probability drops
    /// by λ, pinned at zero.
    pub fn record_injection(&mut self, site: SiteId) {
        let p = decay_permille(self.permille(site));
        self.permille.insert(site, p);
    }

    /// Stores `site`'s probability, as [`record_injection`] does.
    ///
    /// [`record_injection`]: DecayState::record_injection
    pub(crate) fn set_permille(&mut self, site: SiteId, permille: u32) {
        self.permille.insert(site, permille);
    }

    /// Serializes the state (saved to disk between detection runs, §5).
    /// Errors propagate to the caller so a failing save aborts the one
    /// persistence step, not the whole detection campaign.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a persisted state.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Number of sites that have been decayed at least once.
    pub fn touched_sites(&self) -> usize {
        self.permille.len()
    }
}

/// The probability one failed injection leaves behind at `permille`.
pub(crate) fn decay_permille(permille: u32) -> u32 {
    permille.saturating_sub(LAMBDA_PERMILLE)
}

/// Draws an injection decision at probability `permille`: never at zero,
/// always at 1000 or more, and one RNG draw in between.
pub(crate) fn roll_permille(permille: u32, rng: &mut impl Rng) -> bool {
    if permille == 0 {
        return false;
    }
    if permille >= 1000 {
        return true;
    }
    rng.gen_range(0..1000) < permille
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_sites_start_at_full_probability() {
        let d = DecayState::default();
        assert_eq!(d.permille(SiteId(0)), INITIAL_PERMILLE);
        assert!(!d.exhausted(SiteId(0)));
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(d.roll(SiteId(0), &mut rng));
    }

    #[test]
    fn repeated_failures_exhaust_a_site_at_lambda() {
        let mut d = DecayState::default();
        for _ in 0..7 {
            d.record_injection(SiteId(3));
        }
        assert!(d.exhausted(SiteId(3)));
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(!d.roll(SiteId(3), &mut rng));
        // Further failures stay pinned at zero.
        d.record_injection(SiteId(3));
        assert_eq!(d.permille(SiteId(3)), 0);
    }

    #[test]
    fn roll_respects_intermediate_probability() {
        let mut d = DecayState::default();
        for _ in 0..3 {
            d.record_injection(SiteId(1));
        }
        assert_eq!(d.permille(SiteId(1)), 550);
        let mut rng = SmallRng::seed_from_u64(7);
        let hits = (0..10_000).filter(|_| d.roll(SiteId(1), &mut rng)).count();
        assert!((4_500..6_500).contains(&hits), "hits={hits}");
    }

    #[test]
    fn state_round_trips_through_json() {
        let mut d = DecayState::default();
        d.record_injection(SiteId(2));
        let back = DecayState::from_json(&d.to_json().unwrap()).unwrap();
        assert_eq!(back.permille(SiteId(2)), 850);
        assert_eq!(back.permille(SiteId(9)), INITIAL_PERMILLE);
        assert_eq!(back.touched_sites(), 1);
    }
}
