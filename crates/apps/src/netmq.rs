//! NetMQ: message-queue model.
//!
//! Carries Bug-11 (issue #814, the paper's Fig. 4b — `ChkDisposed` is
//! executed by both the worker and, right before the dispose, by the
//! cleanup thread; the shared site makes WaffleBasic's delays cancel most
//! runs) and Bug-15 (issue #975 — the message queue disposed while workers
//! still dequeue; the racing instances are near-simultaneous and the
//! cleanup path re-checks several times, so WaffleBasic virtually never
//! gets a lucky sole delay).

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::{self, BugSites};

const BUG11_SITES: BugSites = BugSites {
    init: "NetMQRuntime.ctor:2",
    use_: "ChkDisposed:11",
    dispose: "Cleanup.DisposePoller:8",
};

const BUG15_SITES: BugSites = BugSites {
    init: "MsgQueue.ctor:5",
    use_: "Worker.Dequeue:48",
    dispose: "MsgQueue.Dispose:61",
};

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-11: Fig. 4b — after the phase event, the worker checks at
        // 2 ms and the cleanup checks at 4 ms then disposes 8 ms later
        // (18.5 s base input). The worker's instance deterministically
        // precedes the cleanup's.
        TestCase {
            workload: templates::interfering_instances(
                "NetMQ.runtime_cleanup",
                BUG11_SITES,
                ms(2),
                ms(4),
                ms(8),
                1,
                ms(9_180),
                3,
            ),
            seeded_bug: Some(11),
        },
        // Bug-15: near-simultaneous check instances (both 3 ms after the
        // phase event, ordered by timing noise) and a triple re-check on
        // the cleanup path (593 ms base input).
        TestCase {
            workload: templates::interfering_instances(
                "NetMQ.queue_dispose",
                BUG15_SITES,
                ms(3),
                ms(3),
                ms(8),
                3,
                ms(235),
                3,
            ),
            seeded_bug: Some(15),
        },
    ];
    for w in [
        patterns::producer_consumer("NetMQ.push_pull", 3, 5, us(150), ms(760)),
        patterns::worker_pool("NetMQ.router_dealer", 5, 2, us(200), ms(740)),
        patterns::pipeline("NetMQ.proxy_chain", 3, 5, us(150)),
        patterns::shared_dict("NetMQ.socket_options", 3, 2, us(70), ms(30)),
        patterns::cache_churn("NetMQ.frame_buffers", 4, 4, us(200), ms(700)),
        patterns::producer_consumer("NetMQ.pub_sub", 3, 6, us(120), ms(720)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::timer_wheel("NetMQ.heartbeat_timer", 5, us(900), us(150), ms(730)),
        patterns::retry_loop("NetMQ.reconnect_loop", 5, us(220), ms(720)),
        patterns::barrier_phases("NetMQ.poller_rounds", 3, 2, us(130), ms(710)),
        crate::extensions::task_request_pipeline("NetMQ.async_sends", 6, 2),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "NetMQ",
        meta: AppMeta {
            loc_k: 20.7,
            mt_tests_paper: 101,
            stars_k: 2.3,
        },
        tests,
        bugs: vec![
            BugSpec {
                id: 11,
                app: "NetMQ",
                issue: "814",
                known: true,
                test_name: "NetMQ.runtime_cleanup".into(),
                summary: "ChkDisposed executed by the cleanup thread right before \
                          the dispose cancels the delay on the worker's instance \
                          (Fig. 4b)",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: Some(5),
                    waffle_runs: 2,
                    base_ms: 18_503,
                    basic_slowdown: Some(5.1),
                    waffle_slowdown: 2.2,
                },
            },
            BugSpec {
                id: 15,
                app: "NetMQ",
                issue: "975",
                known: false,
                test_name: "NetMQ.queue_dispose".into(),
                summary: "message queue disposed while a worker dequeues; triple \
                          re-check on the cleanup path cancels WaffleBasic's delays",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: None,
                    waffle_runs: 3,
                    base_ms: 593,
                    basic_slowdown: None,
                    waffle_slowdown: 12.2,
                },
            },
        ],
    }
}
