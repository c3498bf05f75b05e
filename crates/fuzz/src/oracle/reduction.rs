//! Sleep-set partial-order reduction and the allocation-free state memo.
//!
//! Two interleavings that differ only in the order of *independent*
//! transitions reach the same state, so exploring both wastes the budget
//! the oracle needs for weak-memory sweeps. The classic cure is a sleep
//! set (Godefroid): after a transition `c` is fully explored at a node,
//! `c` is put to sleep for the node's remaining siblings, and stays
//! asleep along any path whose transitions are all independent of `c` —
//! every schedule in which `c` fires later is a reordering of one already
//! explored. A dependent transition wakes it (removes it from the set).
//!
//! Independence here is a *conservative static* relation over the
//! footprints recorded while a transition executes:
//!
//! * accesses (and drains, and `SkipIf` guards) to **different objects**
//!   commute;
//! * two transitions touching the **same object**, the **same lock**, or
//!   the **same event** never commute;
//! * fork/join/exit/task-pool transitions are **global** — dependent
//!   with everything — because they change the thread table or the
//!   shared task queue;
//! * two transitions of the **same thread** never commute (program
//!   order).
//!
//! Bounded preemptions interact with POR (the known BPOR pitfall): a
//! sleeping transition is justified by a sibling subtree that replays
//! the same events in a different order, and that replay must not cost
//! *more* preemption budget than the pruned path would have. Each sleep
//! entry therefore carries a budget *penalty* — see [`SleepEntry`] — and
//! is only allowed to prune at nodes whose own switch cost covers it.
//! Everything else is explored in full; soundness is additionally proven
//! by the reduced-vs-unreduced differential suite
//! (`tests/oracle_equivalence.rs`).

use waffle_mem::ObjectId;
use waffle_sim::{EventId, LockId, Observer};

/// Conservative static footprint of one explored transition: which
/// objects, locks, and events it touched, and whether it is globally
/// dependent (thread-table or task-queue mutation). Sets are 64-bit
/// Bloom-style masks (`id & 63`); a false overlap only loses reduction,
/// never soundness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Footprint {
    objs: u64,
    locks: u64,
    events: u64,
    global: bool,
}

/// The footprint is what the oracle observes of the machine's ops.
impl Observer for Footprint {
    fn object(&mut self, o: ObjectId) {
        self.objs |= 1u64 << (o.0 & 63);
    }

    fn lock(&mut self, l: LockId) {
        self.locks |= 1u64 << (l.0 & 63);
    }

    fn event(&mut self, e: EventId) {
        self.events |= 1u64 << (e.0 & 63);
    }

    fn global(&mut self) {
        self.global = true;
    }
}

impl Footprint {
    /// Whether the transition is dependent with everything.
    pub(crate) fn is_global(&self) -> bool {
        self.global
    }

    fn overlaps(&self, other: &Footprint) -> bool {
        self.objs & other.objs != 0
            || self.locks & other.locks != 0
            || self.events & other.events != 0
    }
}

/// Identity of a schedule transition for sleep-set membership.
///
/// `Thread(u)` is "schedule thread `u`" (a `Switch` edge — `Continue`
/// edges are visited last at a node and never gain later siblings, so
/// they never enter a sleep set). `Drain(t, o)` is "commit thread `t`'s
/// oldest buffered store to object `o`"; under both TSO (head-only) and
/// PSO (first-per-object) at most one committable entry per `(t, o)`
/// exists, and any transition of `t` itself is dependent with it, so the
/// pair stays a stable identity for as long as the entry may sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum TransId {
    /// Schedule thread `u`.
    Thread(u32),
    /// Commit thread `.0`'s oldest buffered store to object `.1`.
    Drain(u32, u32),
}

/// One sleeping transition: its identity, the thread it belongs to, the
/// footprint recorded when it was explored, and the budget *penalty* that
/// gates pruning.
///
/// The penalty encodes the bounded-preemption/POR conservatism rule.
/// Pruning a slept edge at node `Y` is justified by a mirror schedule in
/// the already-explored sibling subtree that fires the edge first; the
/// mirror's cost differs from the pruned path's by at most
/// `max(switch_cost(origin), switch_cost(child)) - switch_cost(Y)` (the
/// edge pays its origin's cost up front, and the first reordered sibling
/// may newly pay the child's). The edge may therefore only be pruned
/// where `penalty <= switch_cost(Y)` — the mirror then fits the same
/// preemption budget the pruned path had. Drain edges never move a
/// thread's park point, so their penalty is zero and they prune anywhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SleepEntry {
    pub(crate) id: TransId,
    pub(crate) thread: u32,
    pub(crate) fp: Footprint,
    pub(crate) penalty: u32,
}

/// The sleeping entry for `id`, if any. `sleep` is kept sorted by id.
pub(crate) fn sleep_get(sleep: &[SleepEntry], id: TransId) -> Option<&SleepEntry> {
    sleep
        .binary_search_by(|e| e.id.cmp(&id))
        .ok()
        .map(|i| &sleep[i])
}

/// Puts `entry` to sleep (no-op if already present).
pub(crate) fn sleep_insert(sleep: &mut Vec<SleepEntry>, entry: SleepEntry) {
    if let Err(i) = sleep.binary_search_by(|e| e.id.cmp(&entry.id)) {
        sleep.insert(i, entry);
    }
}

/// Conservative dependence between a sleeping transition and an executed
/// edge: global on either side, same thread, or overlapping footprints.
pub(crate) fn dependent(entry: &SleepEntry, edge_thread: u32, edge_fp: &Footprint) -> bool {
    entry.fp.is_global()
        || edge_fp.is_global()
        || entry.thread == edge_thread
        || entry.fp.overlaps(edge_fp)
}

/// Child sleep set after taking an edge: the parent entries the edge is
/// independent of. Writes into `dst` (reused across the DFS).
pub(crate) fn filter_sleep(
    src: &[SleepEntry],
    edge_thread: u32,
    edge_fp: &Footprint,
    dst: &mut Vec<SleepEntry>,
) {
    dst.clear();
    dst.extend(
        src.iter()
            .filter(|e| !dependent(e, edge_thread, edge_fp))
            .copied(),
    );
}

/// Whether `a` prunes no more than `b` does: every entry of `a` is
/// matched in `b` by an entry with the same id and a penalty no larger
/// (lower penalty prunes in more contexts). Both are sorted by id.
pub(crate) fn sleep_subset(a: &[SleepEntry], b: &[SleepEntry]) -> bool {
    let mut bi = b.iter();
    'outer: for ea in a {
        for eb in bi.by_ref() {
            match eb.id.cmp(&ea.id) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => {
                    if eb.penalty <= ea.penalty {
                        continue 'outer;
                    }
                    return false;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Word-at-a-time 128-bit fingerprint: two independent 64-bit
/// multiply-fold lanes (the full 128-bit product of the lane and a word,
/// folded by XOR of its halves) absorb one 8-byte word per step, so a
/// state costs two multiplies per eight bytes of its encoding, and the
/// word count closes both lanes.
#[derive(Debug)]
pub(crate) struct Mixer {
    a: u64,
    b: u64,
    words: u64,
}

/// Lane seeds and multipliers: odd 64-bit constants with mixed bits.
const LANE_A: (u64, u64) = (0x243f_6a88_85a3_08d3, 0x9e37_79b9_7f4a_7c15);
const LANE_B: (u64, u64) = (0x1319_8a2e_0370_7344, 0xc2b2_ae3d_27d4_eb4f);

/// The multiply-fold step: both halves of `x * k`, XORed together.
fn fold(x: u64, k: u64) -> u64 {
    let m = u128::from(x) * u128::from(k);
    (m as u64) ^ ((m >> 64) as u64)
}

impl Mixer {
    pub(crate) fn new() -> Self {
        Self {
            a: LANE_A.0,
            b: LANE_B.0,
            words: 0,
        }
    }

    /// Absorbs one word into both lanes.
    pub(crate) fn word(&mut self, w: u64) {
        self.a = fold(self.a ^ w, LANE_A.1);
        self.b = fold(self.b ^ w.rotate_left(32), LANE_B.1);
        self.words += 1;
    }

    /// The 128-bit fingerprint: lane A in the high half, lane B in the low.
    pub(crate) fn finish(self) -> u128 {
        let a = fold(self.a ^ self.words, LANE_B.1);
        let b = fold(self.b ^ self.words, LANE_A.1);
        (u128::from(a) << 64) | u128::from(b)
    }
}

/// Packs the fields of a canonical encoding, each a fixed number of
/// bits, into 64-bit words for a [`Mixer`], so a state is fingerprinted
/// as it is encoded, without a byte buffer. Every variable-length part
/// of an encoding carries its length first, and [`Packer::finish`]
/// absorbs the total bit count, so distinct encodings stay distinct
/// words.
#[derive(Debug)]
pub(crate) struct Packer {
    mixer: Mixer,
    word: u64,
    /// Bits of `word` in use (always below 64).
    used: u32,
}

impl Packer {
    pub(crate) fn new() -> Self {
        Self {
            mixer: Mixer::new(),
            word: 0,
            used: 0,
        }
    }

    /// Appends the low `bits` bits of `v` (`1..=32` bits; `v` must fit).
    pub(crate) fn put(&mut self, v: u32, bits: u32) {
        debug_assert!((1..=32).contains(&bits) && u64::from(v) >> bits == 0);
        let v = u64::from(v);
        self.word |= v << self.used;
        self.used += bits;
        if self.used >= 64 {
            self.mixer.word(self.word);
            self.used -= 64;
            // The bits of `v` that did not fit (none when it ended the word).
            self.word = v >> (bits - self.used);
        }
    }

    /// The fingerprint of everything put so far.
    pub(crate) fn finish(mut self) -> u128 {
        let bits = self.mixer.words * 64 + u64::from(self.used);
        if self.used > 0 {
            self.mixer.word(self.word);
        }
        self.mixer.word(bits);
        self.mixer.finish()
    }
}

/// Order-sensitive fingerprint of a sleep set's identities and
/// penalties, two words per entry. XORed into the memo key so a state
/// revisited with a *different* sleep set is a distinct memo entry —
/// pruning a (state, bigger-sleep) visit against a (state,
/// smaller-sleep) record would be sound, but the converse is not, and
/// keying on the pair avoids the subset bookkeeping entirely.
pub(crate) fn sleep_fingerprint(sleep: &[SleepEntry]) -> u128 {
    let mut m = Mixer::new();
    for e in sleep {
        let (tag, a, b) = match e.id {
            TransId::Thread(u) => (1u64, u, 0),
            TransId::Drain(t, o) => (2, t, o),
        };
        m.word(tag | u64::from(e.penalty) << 8);
        m.word(u64::from(a) | u64::from(b) << 32);
    }
    m.finish()
}

/// Outcome of a memo probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// Seen before with at least as much budget: prune.
    Dominated,
    /// Seen before with less budget: re-expand (not a new frontier state).
    Updated,
    /// A key never recorded: a genuine frontier state.
    Inserted,
}

/// Exact memo of `(state key, best budget)` pairs: open addressing with
/// linear probing, never evicting. Each slot is one `u128`: the key's
/// high bits, with its low `budget_bits` replaced by `budget + 1`, so an
/// all-zero slot is empty. The budget field is 8 bits (a 120-bit key)
/// for every preemption bound below 255, and widens to fit a larger
/// bound at the key's expense.
///
/// The table starts at [`MEMO_INITIAL_SLOTS`] and doubles before its load
/// passes 3/4, up to a cap sized to hold `max_states + 1` keys. A probe's
/// answer therefore depends only on the keys probed before it, not on
/// the table size or the hash: `states_explored` counts distinct keys.
/// Past the cap, which the explorer's state cap normally keeps it from
/// reaching, a new key is answered `Inserted` without being stored — it
/// is re-explored if seen again, which costs time, never soundness — so
/// a quarter of the table always stays empty and every probe ends.
pub(crate) struct StateMemo {
    slots: Vec<u128>,
    /// Right shift taking a mixed 64-bit hash to a slot index.
    shift: u32,
    budget_bits: u32,
    occupied: usize,
    max_slots: usize,
}

/// Slots of a fresh memo: 4 KiB, which holds the 80–135 states a typical
/// fuzz-case exploration visits without regrowing.
const MEMO_INITIAL_SLOTS: usize = 256;
/// Upper bound on the slot cap (64 MiB of slots).
const MEMO_MAX_SLOTS: usize = 1 << 22;

impl StateMemo {
    /// A memo for an exploration capped at `max_states` frontier states,
    /// with budgets up to `preemption_bound`.
    pub(crate) fn new(max_states: u64, preemption_bound: u32) -> Self {
        let keys = usize::try_from(max_states.saturating_add(1)).unwrap_or(usize::MAX);
        let max_slots = keys
            .saturating_mul(4)
            .div_ceil(3)
            .clamp(MEMO_INITIAL_SLOTS, MEMO_MAX_SLOTS)
            .next_power_of_two();
        Self::with_slots(MEMO_INITIAL_SLOTS, max_slots, preemption_bound)
    }

    /// A memo of `initial` slots growing to at most `max_slots` (both
    /// powers of two), with budgets up to `max_budget`.
    pub(crate) fn with_slots(initial: usize, max_slots: usize, max_budget: u32) -> Self {
        debug_assert!(initial > 1 && initial.is_power_of_two() && max_slots.is_power_of_two());
        debug_assert!(initial <= max_slots);
        // Bits to hold `max_budget + 1`, at least one byte.
        let budget_bits = (u64::BITS - (u64::from(max_budget) + 1).leading_zeros()).max(8);
        Self {
            slots: vec![0; initial],
            shift: u64::BITS - initial.trailing_zeros(),
            budget_bits,
            occupied: 0,
            max_slots,
        }
    }

    fn budget_mask(&self) -> u128 {
        (1u128 << self.budget_bits) - 1
    }

    /// Home slot of a stored key, from its top 64 bits (which never hold
    /// budget bits).
    fn index(&self, key: u128) -> usize {
        (((key >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Whether the table is at its load limit of 3/4.
    fn full(&self) -> bool {
        self.occupied * 4 >= self.slots.len() * 3
    }

    /// Looks up `key`, recording `budget` as the best known if it wins.
    pub(crate) fn probe(&mut self, key: u128, budget: u32) -> Probe {
        if self.full() && self.slots.len() < self.max_slots {
            self.grow();
        }
        let mask = self.budget_mask();
        let key = key & !mask;
        let stored = key | (u128::from(budget) + 1);
        let last = self.slots.len() - 1;
        let mut i = self.index(key);
        loop {
            let s = self.slots[i];
            if s == 0 {
                if !self.full() {
                    self.slots[i] = stored;
                    self.occupied += 1;
                }
                return Probe::Inserted;
            }
            if s & !mask == key {
                if s >= stored {
                    return Probe::Dominated;
                }
                self.slots[i] = stored;
                return Probe::Updated;
            }
            i = (i + 1) & last;
        }
    }

    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![0; len]);
        self.shift -= 1;
        let last = self.slots.len() - 1;
        for s in old.into_iter().filter(|&s| s != 0) {
            let mut i = self.index(s);
            while self.slots[i] != 0 {
                i = (i + 1) & last;
            }
            self.slots[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: TransId) -> SleepEntry {
        SleepEntry {
            id,
            thread: match id {
                TransId::Thread(u) => u,
                TransId::Drain(t, _) => t,
            },
            fp: Footprint::default(),
            penalty: 0,
        }
    }

    #[test]
    fn sleep_set_is_sorted_and_deduplicated() {
        let mut s = Vec::new();
        sleep_insert(&mut s, entry(TransId::Thread(3)));
        sleep_insert(&mut s, entry(TransId::Thread(1)));
        sleep_insert(&mut s, entry(TransId::Drain(1, 0)));
        sleep_insert(&mut s, entry(TransId::Thread(1)));
        assert_eq!(s.len(), 3);
        assert!(sleep_get(&s, TransId::Thread(1)).is_some());
        assert!(sleep_get(&s, TransId::Drain(1, 0)).is_some());
        assert!(sleep_get(&s, TransId::Drain(3, 0)).is_none());
        assert!(s.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn dependence_is_conservative() {
        let mut fp_a = Footprint::default();
        fp_a.object(ObjectId(7));
        let e = SleepEntry {
            id: TransId::Thread(2),
            thread: 2,
            fp: fp_a,
            penalty: 0,
        };
        let mut same_obj = Footprint::default();
        same_obj.object(ObjectId(7));
        let mut other_obj = Footprint::default();
        other_obj.object(ObjectId(8));
        let mut global = Footprint::default();
        global.global();
        assert!(dependent(&e, 5, &same_obj), "same object");
        assert!(dependent(&e, 2, &other_obj), "same thread");
        assert!(dependent(&e, 5, &global), "global edge");
        assert!(!dependent(&e, 5, &other_obj), "disjoint commute");
    }

    #[test]
    fn subset_check_matches_set_semantics() {
        let a = vec![entry(TransId::Thread(1)), entry(TransId::Drain(2, 4))];
        let b = vec![
            entry(TransId::Thread(1)),
            entry(TransId::Thread(3)),
            entry(TransId::Drain(2, 4)),
        ];
        assert!(sleep_subset(&a, &b));
        assert!(!sleep_subset(&b, &a));
        assert!(sleep_subset(&[], &a));
        assert!(sleep_subset(&[], &[]));
    }

    /// The fingerprint of a sequence of `(value, bits)` fields.
    fn packed(fields: &[(u32, u32)]) -> u128 {
        let mut p = Packer::new();
        for &(v, bits) in fields {
            p.put(v, bits);
        }
        p.finish()
    }

    fn key(k: u64) -> u128 {
        packed(&[(k as u32, 32), ((k >> 32) as u32, 32)])
    }

    #[test]
    fn memo_budget_dominance() {
        let mut m = StateMemo::new(1000, 3);
        assert_eq!(m.probe(key(42), 2), Probe::Inserted);
        assert_eq!(m.probe(key(42), 1), Probe::Dominated);
        assert_eq!(m.probe(key(42), 2), Probe::Dominated);
        assert_eq!(m.probe(key(42), 3), Probe::Updated);
        assert_eq!(m.probe(key(42), 2), Probe::Dominated);
        assert_eq!(m.probe(key(99), 0), Probe::Inserted);
    }

    #[test]
    fn memo_grows_without_losing_a_key() {
        let mut m = StateMemo::new(1 << 20, 2);
        let n = 20_000u64;
        for k in 0..n {
            assert_eq!(m.probe(key(k), 1), Probe::Inserted, "key {k}");
        }
        assert!(m.slots.len() > MEMO_INITIAL_SLOTS, "the table never grew");
        // A key recorded with less budget is upgraded, never dominated.
        for k in 0..n {
            assert_eq!(m.probe(key(k), 2), Probe::Updated, "key {k}");
        }
        for k in n..n + 1000 {
            assert_eq!(m.probe(key(k), 0), Probe::Inserted, "fresh key {k}");
        }
        // Nothing was evicted: every key is still dominated.
        for k in 0..n {
            assert_eq!(m.probe(key(k), 2), Probe::Dominated, "key {k}");
        }
    }

    /// The probe answers depend on the keys alone: a memo that starts at
    /// 16 slots and regrows answers like one that starts at 4,096.
    #[test]
    fn memo_answers_do_not_depend_on_the_table_size() {
        let (mut small, mut large) = (
            StateMemo::with_slots(16, 1 << 16, 3),
            StateMemo::with_slots(1 << 12, 1 << 16, 3),
        );
        // Revisits at varying budgets over a key space of 3,000.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut answers = [0usize; 3];
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (k, budget) = (key(x % 3_000), (x >> 32) as u32 % 4);
            let a = small.probe(k, budget);
            assert_eq!(a, large.probe(k, budget));
            answers[a as usize] += 1;
        }
        assert!(answers.iter().all(|&n| n > 0), "{answers:?}");
        assert!(small.slots.len() > 16 && large.slots.len() == 1 << 12);
    }

    /// At the slot cap a full table stores nothing more, yet every probe
    /// returns and no key it could not store reads as dominated.
    #[test]
    fn memo_at_its_cap_answers_unseen_keys_as_new() {
        let mut m = StateMemo::with_slots(16, 16, 2);
        for k in 0..100 {
            assert_eq!(m.probe(key(k), 1), Probe::Inserted, "key {k}");
        }
        assert_eq!((m.slots.len(), m.occupied), (16, 12));
        // The twelve stored keys still prune; the other 88 never do.
        let dominated = (0..100)
            .filter(|&k| m.probe(key(k), 1) == Probe::Dominated)
            .count();
        assert_eq!(dominated, 12);
        for k in 100..1_000 {
            assert_eq!(m.probe(key(k), 0), Probe::Inserted, "unseen key {k}");
        }
    }

    /// A bound that does not fit the one-byte budget field widens the
    /// field: budgets of 256 and above stay distinct from small ones.
    #[test]
    fn memo_widens_its_budget_field_for_large_bounds() {
        assert_eq!(StateMemo::new(10, 254).budget_bits, 8);
        assert_eq!(StateMemo::new(10, 255).budget_bits, 9);
        assert_eq!(StateMemo::new(10, u32::MAX).budget_bits, 33);
        let mut m = StateMemo::new(1000, 1000);
        assert_eq!(m.probe(key(1), 256), Probe::Inserted);
        assert_eq!(m.probe(key(1), 0), Probe::Dominated);
        assert_eq!(m.probe(key(1), 255), Probe::Dominated);
        assert_eq!(m.probe(key(1), 257), Probe::Updated);
        assert_eq!(m.probe(key(1), 1000), Probe::Updated);
        assert_eq!(m.probe(key(1), 999), Probe::Dominated);
        let mut m = StateMemo::new(10, u32::MAX);
        assert_eq!(m.probe(key(2), u32::MAX - 1), Probe::Inserted);
        assert_eq!(m.probe(key(2), u32::MAX), Probe::Updated);
        assert_eq!(m.probe(key(2), u32::MAX), Probe::Dominated);
    }

    #[test]
    fn packed_fingerprints_separate_widths_orders_and_words() {
        assert_ne!(packed(&[]), packed(&[(0, 1)]));
        assert_ne!(packed(&[(1, 8)]), packed(&[(1, 16)]));
        assert_ne!(packed(&[(1, 8), (0, 8)]), packed(&[(0, 8), (1, 8)]));
        // Fields that straddle a word boundary land where a bit-by-bit
        // packing puts them.
        let wide: Vec<(u32, u32)> = (0..40).map(|i| ((i * 0x9e37) & 0x7fff, 15)).collect();
        let bitwise: Vec<(u32, u32)> = wide
            .iter()
            .flat_map(|&(v, bits)| (0..bits).map(move |b| ((v >> b) & 1, 1)))
            .collect();
        assert_eq!(packed(&wide), packed(&bitwise));
        let mut swapped = wide.clone();
        swapped.swap(3, 30);
        assert_ne!(packed(&wide), packed(&swapped));
    }

    #[test]
    fn sleep_fingerprint_distinguishes_sets() {
        let a = vec![entry(TransId::Thread(1))];
        let b = vec![entry(TransId::Thread(2))];
        let ab = vec![entry(TransId::Thread(1)), entry(TransId::Thread(2))];
        assert_ne!(sleep_fingerprint(&a), sleep_fingerprint(&b));
        assert_ne!(sleep_fingerprint(&a), sleep_fingerprint(&ab));
        assert_ne!(sleep_fingerprint(&[]), sleep_fingerprint(&a));
        assert_eq!(sleep_fingerprint(&a), sleep_fingerprint(&a.clone()));
        let mut slept = a.clone();
        slept[0].penalty = 1;
        assert_ne!(sleep_fingerprint(&a), sleep_fingerprint(&slept));
        let drain = vec![entry(TransId::Drain(1, 0))];
        assert_ne!(sleep_fingerprint(&a), sleep_fingerprint(&drain));
    }
}
