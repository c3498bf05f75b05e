//! The detection-run plan produced by the analyzer.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use waffle_mem::{AccessKind, SiteId};
use waffle_sim::{MemoryModel, SimTime};

use crate::candidates::{CandidatePair, NearMissStats};
use crate::interference::InterferenceSet;
use crate::ranks::SiteRanks;
use crate::tsv::TsvPlan;

/// Everything a detection run needs from the preparation run.
///
/// The real tool saves this (plus evolving delay probabilities) to disk
/// after analyzing the preparation trace and loads it to bootstrap each
/// detection run (§4.4, §5); [`Plan::to_json`]/[`Plan::from_json`] mirror
/// that persistence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Plan {
    /// Workload the plan was derived from.
    pub workload: String,
    /// The candidate set `S`.
    pub candidates: Vec<CandidatePair>,
    /// Planned delay length per delay location: `α · max-gap(ℓ)` (§4.3).
    pub delay_len: BTreeMap<SiteId, SimTime>,
    /// The interference set `I` (§4.4).
    pub interference: InterferenceSet,
    /// Near-miss window used during analysis.
    pub delta: SimTime,
    /// Scan statistics (reporting).
    pub stats: NearMissStats,
    /// Memory model the preparation run simulated: provenance for which
    /// model surfaced the candidate pairs. Omitted from JSON under `Sc`
    /// so pre-weak-memory plans (and their byte layouts) stay unchanged,
    /// and read back as `Sc` when absent.
    #[serde(default, skip_serializing_if = "MemoryModel::is_sc")]
    pub memory_model: MemoryModel,
}

impl Plan {
    /// Sites at which detection runs inject delays.
    pub fn delay_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.delay_len.keys().copied()
    }

    /// Planned delay length for `site` (zero when not a candidate).
    pub fn delay_for(&self, site: SiteId) -> SimTime {
        self.delay_len.get(&site).copied().unwrap_or(SimTime::ZERO)
    }

    /// Serializes the plan (cross-run persistence format); errors propagate
    /// to the caller instead of aborting the campaign.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a plan from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// A [`Plan`] or [`TsvPlan`] compiled into dense per-site tables for
/// detection runs.
///
/// Every site the detection policy looks up — each delay site and each
/// site named by the interference set — gets a dense rank; the
/// planned delay length and the interference row of a site are then a
/// `Vec` index and a bit test. A detection attempt compiles its plan once
/// and every run borrows the tables, so a run neither clones the plan
/// nor walks a `BTreeMap` per access.
#[derive(Debug, Clone)]
pub struct PlanTables {
    ranks: SiteRanks,
    /// Planned delay length per rank (zero for interference-only sites).
    delay: Vec<SimTime>,
    /// `u64` words per interference row.
    words: usize,
    /// Interference rows, `words` per rank: bit `q` of row `r` is set when
    /// delays at ranks `r` and `q` interfere.
    rows: Vec<u64>,
    /// Compiled from a [`TsvPlan`]: only thread-unsafe API calls are
    /// instrumented.
    tsv: bool,
}

impl PlanTables {
    /// Compiles `plan` for a workload with `site_count` registered sites.
    ///
    /// Sites at or above `site_count` are dropped: no access of the
    /// workload can reach them. That bounds the tables by the workload's
    /// site registry rather than by whatever ids a plan file names; the
    /// rows are quadratic in the ranks they cover. Pass `usize::MAX` to
    /// keep every site.
    pub fn compile(plan: &Plan, site_count: usize) -> Self {
        Self::build(&plan.delay_len, &plan.interference, site_count, false)
    }

    /// Compiles a WaffleTSV plan (§8) as [`compile`](PlanTables::compile)
    /// does a [`Plan`]: each delay site delays by its measured gap, no two
    /// sites interfere, and detection runs instrument only thread-unsafe
    /// API calls.
    pub fn compile_tsv(plan: &TsvPlan, site_count: usize) -> Self {
        Self::build(&plan.delay_len, &InterferenceSet::new(), site_count, true)
    }

    fn build(
        delay_len: &BTreeMap<SiteId, SimTime>,
        interference: &InterferenceSet,
        site_count: usize,
        tsv: bool,
    ) -> Self {
        let known = |s: SiteId| (s.0 as usize) < site_count;
        let planned = || delay_len.keys().copied().filter(|&s| known(s));
        let mut ranks = SiteRanks::new(planned().collect());
        // Sites that only the interference set names (an analyzed plan
        // has none) join the ranks in a second, rare build.
        let unplanned: Vec<SiteId> = interference
            .iter()
            .flat_map(|(a, b)| [a, b])
            .filter(|&s| known(s) && ranks.rank(s).is_none())
            .collect();
        if !unplanned.is_empty() {
            ranks = SiteRanks::new(planned().chain(unplanned).collect());
        }
        let n = ranks.len();
        let mut delay = vec![SimTime::ZERO; n];
        for (&site, &len) in delay_len {
            if let Some(r) = ranks.rank(site) {
                delay[r] = len;
            }
        }
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        for (a, b) in interference.iter() {
            let (Some(ra), Some(rb)) = (ranks.rank(a), ranks.rank(b)) else {
                continue;
            };
            rows[ra * words + rb / 64] |= 1 << (rb % 64);
            rows[rb * words + ra / 64] |= 1 << (ra % 64);
        }
        Self {
            ranks,
            delay,
            words,
            rows,
            tsv,
        }
    }

    /// Whether detection runs over these tables instrument accesses of
    /// `kind`.
    #[inline]
    pub fn instruments(&self, kind: AccessKind) -> bool {
        !self.tsv || kind.is_tsv()
    }

    /// Number of ranked sites.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether no site is ranked.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The rank of `site`, or `None` when the plan neither delays it nor
    /// names it in the interference set.
    #[inline]
    pub fn rank(&self, site: SiteId) -> Option<usize> {
        self.ranks.rank(site)
    }

    /// The site of rank `rank`.
    #[inline]
    pub fn site(&self, rank: usize) -> SiteId {
        self.ranks.site(rank)
    }

    /// Planned delay length of rank `rank` (zero when it is not a delay
    /// site).
    #[inline]
    pub fn delay(&self, rank: usize) -> SimTime {
        self.delay[rank]
    }

    /// Whether delays at ranks `a` and `b` interfere: one bit test.
    #[inline]
    pub fn interferes_rank(&self, a: usize, b: usize) -> bool {
        self.rows[a * self.words + b / 64] & (1 << (b % 64)) != 0
    }

    /// Whether delays at `a` and `b` interfere; agrees with
    /// [`InterferenceSet::interferes`] on every compiled site.
    pub fn interferes(&self, a: SiteId, b: SiteId) -> bool {
        match (self.rank(a), self.rank(b)) {
            (Some(ra), Some(rb)) => self.interferes_rank(ra, rb),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::BugKind;
    use waffle_mem::ObjectId;

    fn plan() -> Plan {
        let mut delay_len = BTreeMap::new();
        delay_len.insert(SiteId(0), SimTime::from_us(115));
        let mut interference = InterferenceSet::new();
        interference.insert(SiteId(0), SiteId(2));
        Plan {
            workload: "demo".into(),
            candidates: vec![CandidatePair {
                delay_site: SiteId(0),
                other_site: SiteId(1),
                kind: BugKind::UseBeforeInit,
                obj: ObjectId(0),
                max_gap: SimTime::from_us(100),
                observations: 1,
            }],
            delay_len,
            interference,
            delta: SimTime::from_ms(100),
            stats: NearMissStats::default(),
            memory_model: MemoryModel::Sc,
        }
    }

    #[test]
    fn plan_lookups_work() {
        let p = plan();
        assert_eq!(p.delay_for(SiteId(0)), SimTime::from_us(115));
        assert_eq!(p.delay_for(SiteId(9)), SimTime::ZERO);
        assert_eq!(p.delay_sites().count(), 1);
    }

    /// A plan file's interference pairs are normalized on read: a
    /// reversed pair is found in both orientations, and a pair written
    /// both ways is one pair.
    #[test]
    fn plan_json_normalizes_interference_pairs() {
        let json = plan().to_json().unwrap();
        assert!(
            json.contains(r#""interference":{"pairs":[[0,2]]}"#),
            "{json}"
        );
        for (pairs, len) in [
            ("[[5,2]]", 1),
            ("[[2,5],[5,2]]", 1),
            ("[[9,9],[5,2],[2,0]]", 3),
        ] {
            let back = Plan::from_json(&json.replace("[[0,2]]", pairs)).unwrap();
            let set = &back.interference;
            assert_eq!(set.len(), len, "{pairs}");
            assert!(set.interferes(SiteId(2), SiteId(5)), "{pairs}");
            assert!(set.interferes(SiteId(5), SiteId(2)), "{pairs}");
        }
        let back = Plan::from_json(&json.replace("[[0,2]]", "[[5,2],[2,5]]")).unwrap();
        let mut expected = InterferenceSet::new();
        expected.insert(SiteId(2), SiteId(5));
        assert_eq!(back.interference, expected);
        assert!(back.to_json().unwrap().contains(r#""pairs":[[2,5]]"#));
    }

    #[test]
    fn plan_round_trips_through_json() {
        let p = plan();
        let back = Plan::from_json(&p.to_json().unwrap()).unwrap();
        assert_eq!(back.candidates, p.candidates);
        assert_eq!(back.delay_len, p.delay_len);
        assert_eq!(back.interference, p.interference);
        assert_eq!(back.delta, p.delta);
    }

    /// `memory_model` is left out of `Sc` plans and read back as `Sc`
    /// when absent, so plan files written before weak-memory support
    /// keep their bytes; any other model is written and round-trips.
    #[test]
    fn plan_omits_sc_memory_model_and_reads_its_absence_as_sc() {
        let sc = plan().to_json().unwrap();
        assert!(!sc.contains("memory_model"), "{sc}");
        let legacy = Plan::from_json(&sc).unwrap();
        assert_eq!(legacy.memory_model, MemoryModel::Sc);
        assert_eq!(legacy.to_json().unwrap(), sc);
        // A field without `default` is still required.
        let mut doc: serde_json::Value = serde_json::from_str(&sc).unwrap();
        if let serde_json::Value::Map(fields) = &mut doc {
            fields.retain(|(k, _)| k != "delta");
        }
        let err = Plan::from_json(&serde_json::to_string(&doc).unwrap()).unwrap_err();
        assert!(err.to_string().contains("missing field `delta`"), "{err}");

        let tso = Plan {
            memory_model: MemoryModel::Tso,
            ..plan()
        };
        let json = tso.to_json().unwrap();
        assert!(json.ends_with(r#","memory_model":"Tso"}"#), "{json}");
        let back = Plan::from_json(&json).unwrap();
        assert_eq!(back.memory_model, MemoryModel::Tso);
        assert_eq!(back.to_json().unwrap(), json);
    }
}
