//! NpgSQL: PostgreSQL-driver model.
//!
//! Carries Bug-12 (issue #3247, Fig. 4a shape embedded in connection-pool
//! churn): the prepared statement's initialization races a reader, the
//! disposal interferes, and the hot pool sites both flood WaffleBasic with
//! fixed delays (the 25× overhead of Table 5) and interfere with Waffle's
//! critical delay for the first detection runs (the 4-run entry of
//! Table 4).

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::churn_templates::{instances_in_churn, ChurnParams};
use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::BugSites;

const BUG12_SITES: BugSites = BugSites {
    init: "PreparedStmt.Prepare:23",
    use_: "Command.CheckPrepared:41",
    dispose: "PreparedStmt.Unprepare:31",
};

fn pool_churn() -> ChurnParams {
    ChurnParams {
        scan_objects: 10,
        rescan_objects: 2,
        rounds: 8,
        conns_per_round: 15,
        hot_gap: ms(25),
    }
}

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-12 (1097 ms base input): the prepared-statement check is
        // executed by the reader thread and, three times, by the
        // unprepare path right before the disposal — near-simultaneously,
        // inside heavy pool churn.
        TestCase {
            workload: instances_in_churn(
                "Npgsql.prepared_statements",
                BUG12_SITES,
                ms(3),
                ms(1),
                ms(8),
                1,
                ms(410),
                pool_churn(),
            ),
            seeded_bug: Some(12),
        },
    ];
    for w in [
        patterns::cache_churn("Npgsql.pool_churn", 7, 16, us(200), ms(450)),
        patterns::cache_churn("Npgsql.batch_commands", 7, 15, us(180), ms(460)),
        patterns::cache_churn("Npgsql.binary_import", 7, 14, us(220), ms(440)),
        patterns::producer_consumer("Npgsql.notification_stream", 4, 8, us(150), ms(400)),
        patterns::shared_dict("Npgsql.type_mapper", 3, 2, us(80), ms(30)),
        patterns::worker_pool("Npgsql.multiplexing", 8, 3, us(200), ms(420)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::cache_churn("Npgsql.replication_slots", 7, 15, us(200), ms(440)),
        patterns::cache_churn("Npgsql.copy_buffers", 6, 16, us(210), ms(430)),
        patterns::retry_loop("Npgsql.failover_retry", 5, us(250), ms(430)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "NpgSQL",
        meta: AppMeta {
            loc_k: 51.9,
            mt_tests_paper: 283,
            stars_k: 2.4,
        },
        tests,
        bugs: vec![BugSpec {
            id: 12,
            app: "NpgSQL",
            issue: "3247",
            known: true,
            test_name: "Npgsql.prepared_statements".into(),
            summary: "prepared statement unprepared while the reader's check still \
                      dereferences it; hot pool sites interfere with the critical \
                      delay and flood WaffleBasic",
            expected_repair: Some(RepairKind::EventEdge),
            paper: BugExpectation {
                basic_runs: None,
                waffle_runs: 4,
                basic_slowdown: None,
                waffle_slowdown: 6.9,
                base_ms: 1097,
            },
        }],
    }
}
