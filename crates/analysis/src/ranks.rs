//! Dense ranks for sparse ids.
//!
//! The interference pass and the detection policy keep their per-site
//! data in `Vec`s indexed by a delay-site *rank*, and the pass keeps its
//! per-thread data in `Vec`s indexed by a thread *slot*. The ids
//! themselves are `u32`s read from traces, wire frames and plan files, so
//! no table here is ever indexed by a raw id: one hostile id such as
//! `ThreadId(u32::MAX)` would turn that into a multi-gigabyte allocation.
//! [`IdMap`] maps an id to its rank in space proportional to the number
//! of ids it holds.

use waffle_mem::SiteId;

/// An open-addressing `u32 → u32` map: Fibonacci hashing, linear probing,
/// load factor at most ½. Sized by the number of keys, never by their
/// values.
#[derive(Debug, Clone)]
pub(crate) struct IdMap {
    /// `(key, value)` slots; a `u32::MAX` value marks an empty slot.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl Default for IdMap {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl IdMap {
    const EMPTY: (u32, u32) = (0, u32::MAX);

    /// An empty map with room for `n` keys before it grows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            slots: vec![Self::EMPTY; (n.max(4) * 2).next_power_of_two()],
            len: 0,
        }
    }

    /// The value of `key`, or the empty slot where it would go.
    fn find(&self, key: u32) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            match self.slots[i] {
                (_, u32::MAX) => return Err(i),
                (k, v) if k == key => return Ok(v),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The value of `key`, if present.
    #[inline]
    pub(crate) fn get(&self, key: u32) -> Option<u32> {
        self.find(key).ok()
    }

    /// The value of `key`, inserting `value` first when `key` is absent.
    /// `value` must not be `u32::MAX`.
    pub(crate) fn get_or_insert(&mut self, key: u32, value: u32) -> u32 {
        debug_assert_ne!(value, u32::MAX, "u32::MAX marks empty slots");
        match self.find(key) {
            Ok(v) => v,
            Err(slot) => {
                self.slots[slot] = (key, value);
                self.len += 1;
                if self.len * 2 > self.slots.len() {
                    self.grow();
                }
                value
            }
        }
    }

    /// Doubles the table and re-places every entry.
    fn grow(&mut self) {
        let grown = vec![Self::EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, grown);
        for (k, v) in old.into_iter().filter(|&(_, v)| v != u32::MAX) {
            let Err(slot) = self.find(k) else {
                unreachable!("keys are unique")
            };
            self.slots[slot] = (k, v);
        }
    }
}

/// A sorted set of sites and each one's rank in it: rank `r` is the
/// `r`-th smallest site, so rank order is site order and a list sorted by
/// rank is sorted by site.
#[derive(Debug, Clone, Default)]
pub(crate) struct SiteRanks {
    sites: Vec<SiteId>,
    index: IdMap,
}

impl SiteRanks {
    /// Ranks `sites`, given in any order and with repeats.
    pub(crate) fn new(mut sites: Vec<SiteId>) -> Self {
        sites.sort_unstable();
        sites.dedup();
        let mut index = IdMap::with_capacity(sites.len());
        for (r, s) in sites.iter().enumerate() {
            index.get_or_insert(s.0, r as u32);
        }
        Self { sites, index }
    }

    /// The rank of `site`, or `None` when it is not in the set.
    #[inline]
    pub(crate) fn rank(&self, site: SiteId) -> Option<usize> {
        self.index.get(site.0).map(|r| r as usize)
    }

    /// The site of rank `rank`.
    #[inline]
    pub(crate) fn site(&self, rank: usize) -> SiteId {
        self.sites[rank]
    }

    /// Number of ranked sites.
    pub(crate) fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the set is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_map_grows_and_keeps_every_key() {
        let mut m = IdMap::default();
        let keys: Vec<u32> = (0..1000)
            .map(|k| (k * 7919) ^ 0xDEAD)
            .chain([u32::MAX, u32::MAX - 1])
            .collect();
        for (v, &k) in keys.iter().enumerate() {
            assert_eq!(m.get_or_insert(k, v as u32), v as u32);
        }
        for (v, &k) in keys.iter().enumerate() {
            assert_eq!(m.get(k), Some(v as u32));
            assert_eq!(
                m.get_or_insert(k, 0),
                v as u32,
                "present keys keep their value"
            );
        }
        assert_eq!(m.get(3), None);
        // Sized by the keys, not by their values.
        assert!(m.slots.len() <= 4 * keys.len());
    }

    #[test]
    fn ranks_follow_site_order() {
        let r = SiteRanks::new(vec![SiteId(9), SiteId(2), SiteId(u32::MAX), SiteId(2)]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.rank(SiteId(2)), Some(0));
        assert_eq!(r.rank(SiteId(9)), Some(1));
        assert_eq!(r.rank(SiteId(u32::MAX)), Some(2));
        assert_eq!(r.rank(SiteId(3)), None);
        assert_eq!(r.site(1), SiteId(9));
        assert!(SiteRanks::default().rank(SiteId(0)).is_none());
    }
}
