//! LiteDB: embedded-database model.
//!
//! Carries Bug-8 (issue #1028, Fig. 4a shape — the transaction monitor's
//! slot is initialized by one thread, read by the checkpoint thread, and
//! released shortly after; the two bug candidates interfere). LiteDB has
//! only a handful of multi-threaded tests (Table 3), so the suite here is
//! small and it is excluded from the Table 5 averages, as in the paper.

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::{self, BugSites};

const BUG8_SITES: BugSites = BugSites {
    init: "TransactionMonitor.Create:21",
    use_: "Checkpoint.ReadSlot:64",
    dispose: "TransactionMonitor.Release:30",
};

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-8: interfering candidates on the transaction slot (495 ms).
        TestCase {
            workload: templates::interfering_bugs(
                "LiteDB.transaction_monitor",
                BUG8_SITES,
                ms(8),
                ms(15),
                ms(30),
                ms(195),
                3,
            ),
            seeded_bug: Some(8),
        },
    ];
    for w in [
        patterns::worker_pool("LiteDB.concurrent_insert", 5, 3, us(150), ms(200)),
        patterns::producer_consumer("LiteDB.wal_flush", 3, 5, us(120), ms(210)),
        patterns::shared_dict("LiteDB.page_cache", 3, 2, us(70), ms(30)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::barrier_phases("LiteDB.checkpoint_phases", 3, 2, us(120), ms(200)),
        patterns::retry_loop("LiteDB.lock_retry", 4, us(150), ms(200)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "LiteDB",
        meta: AppMeta {
            loc_k: 18.3,
            mt_tests_paper: 7,
            stars_k: 6.2,
        },
        tests,
        bugs: vec![BugSpec {
            id: 8,
            app: "LiteDB",
            issue: "1028",
            known: true,
            test_name: "LiteDB.transaction_monitor".into(),
            summary: "transaction slot released while the checkpoint thread reads \
                      it; the use-before-init candidate on the same slot cancels \
                      WaffleBasic's delays",
            expected_repair: Some(RepairKind::EventEdge),
            paper: BugExpectation {
                basic_runs: None,
                waffle_runs: 2,
                base_ms: 495,
                basic_slowdown: None,
                waffle_slowdown: 4.9,
            },
        }],
    }
}
