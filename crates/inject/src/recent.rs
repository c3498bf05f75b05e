//! Sliding window of recent accesses, shared by the online policies.

use std::collections::HashMap;

use waffle_mem::{AccessKind, ObjectId, SiteId};
use waffle_sim::{SimTime, ThreadId};
use waffle_vclock::ClockSnapshot;

/// One recent access, as remembered by an online policy.
#[derive(Debug, Clone)]
pub struct RecentAccess {
    /// Execution time of the access.
    pub time: SimTime,
    /// Static location.
    pub site: SiteId,
    /// Operation class.
    pub kind: AccessKind,
    /// Accessing thread.
    pub thread: ThreadId,
    /// The accessing thread's runtime vector clock at access time. Only
    /// [`OnlinePolicy::no_prep`](crate::OnlinePolicy::no_prep) tracks
    /// clocks; for every other online tool it is empty.
    pub clock: ClockSnapshot<ThreadId>,
}

/// Per-object sliding windows of the last δ of accesses.
#[derive(Debug, Default)]
pub struct RecentWindow {
    delta: SimTime,
    per_obj: HashMap<ObjectId, Vec<RecentAccess>>,
}

impl RecentWindow {
    /// Creates a window of width `delta`.
    pub fn new(delta: SimTime) -> Self {
        Self {
            delta,
            per_obj: HashMap::new(),
        }
    }

    /// Records an access and prunes entries older than δ.
    pub fn push(&mut self, obj: ObjectId, access: RecentAccess) {
        let v = self.per_obj.entry(obj).or_default();
        let cutoff = access.time.saturating_sub(self.delta);
        v.retain(|a| a.time >= cutoff);
        v.push(access);
    }

    /// Recent accesses to `obj` from threads other than `thread`, still
    /// within δ of `now`.
    pub fn others(
        &self,
        obj: ObjectId,
        thread: ThreadId,
        now: SimTime,
    ) -> impl Iterator<Item = &RecentAccess> {
        let cutoff = now.saturating_sub(self.delta);
        self.per_obj
            .get(&obj)
            .into_iter()
            .flatten()
            .filter(move |a| a.thread != thread && a.time >= cutoff && a.time <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(t: u64, site: u32, thread: u32, kind: AccessKind) -> RecentAccess {
        RecentAccess {
            time: SimTime::from_us(t),
            site: SiteId(site),
            kind,
            thread: ThreadId(thread),
            clock: ClockSnapshot::new(),
        }
    }

    #[test]
    fn window_prunes_stale_entries() {
        let mut w = RecentWindow::new(SimTime::from_us(100));
        let o = ObjectId(0);
        w.push(o, acc(0, 0, 0, AccessKind::Init));
        w.push(o, acc(300, 1, 0, AccessKind::Use));
        let found: Vec<_> = w
            .others(o, ThreadId(1), SimTime::from_us(300))
            .map(|a| a.site)
            .collect();
        assert_eq!(found, vec![SiteId(1)], "the old init must be pruned");
    }

    #[test]
    fn others_excludes_own_thread() {
        let mut w = RecentWindow::new(SimTime::from_us(100));
        let o = ObjectId(0);
        w.push(o, acc(10, 0, 0, AccessKind::Init));
        w.push(o, acc(20, 1, 1, AccessKind::Use));
        let sites: Vec<_> = w
            .others(o, ThreadId(1), SimTime::from_us(25))
            .map(|a| a.site)
            .collect();
        assert_eq!(sites, vec![SiteId(0)]);
    }

    #[test]
    fn objects_are_independent() {
        let mut w = RecentWindow::new(SimTime::from_us(100));
        w.push(ObjectId(0), acc(10, 0, 0, AccessKind::Init));
        assert_eq!(
            w.others(ObjectId(1), ThreadId(1), SimTime::from_us(20))
                .count(),
            0
        );
    }
}
