//! SignalR: real-time messaging model.
//!
//! Carries Bug-13 (unreported; no longer surfacing in the latest builds —
//! the hub connection's OnConnected initialization races the disconnect
//! path, with an interfering use-after-free candidate, Fig. 4a shape).

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::{self, BugSites};

const BUG13_SITES: BugSites = BugSites {
    init: "HubConnection.OnConnected:22",
    use_: "Hub.InvokeClient:57",
    dispose: "HubConnection.OnDisconnected:34",
};

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-13: interfering candidates on the hub connection (952 ms).
        TestCase {
            workload: templates::interfering_bugs(
                "SignalR.hub_connection",
                BUG13_SITES,
                ms(10),
                ms(10),
                ms(12),
                ms(425),
                4,
            ),
            seeded_bug: Some(13),
        },
    ];
    for w in [
        patterns::producer_consumer("SignalR.message_fanout", 2, 4, us(120), ms(420)),
        patterns::worker_pool("SignalR.group_broadcast", 4, 2, us(150), ms(410)),
        patterns::pipeline("SignalR.transport_chain", 3, 5, us(100)),
        patterns::shared_dict("SignalR.connection_registry", 3, 2, us(70), ms(30)),
        patterns::cache_churn("SignalR.backplane_buffers", 3, 3, us(150), ms(400)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::timer_wheel("SignalR.keepalive_timer", 5, us(900), us(140), ms(410)),
        patterns::retry_loop("SignalR.reconnect_retry", 5, us(200), ms(410)),
        patterns::barrier_phases("SignalR.broadcast_waves", 3, 3, us(130), ms(400)),
        crate::extensions::task_request_pipeline("SignalR.invoke_tasks", 8, 3),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "SignalR",
        meta: AppMeta {
            loc_k: 51.8,
            mt_tests_paper: 52,
            stars_k: 8.5,
        },
        tests,
        bugs: vec![BugSpec {
            id: 13,
            app: "SignalR",
            issue: "n/a",
            known: false,
            test_name: "SignalR.hub_connection".into(),
            summary: "OnConnected initialization races a client invoke, with the \
                      disconnect path's use-after-free candidate interfering",
            expected_repair: Some(RepairKind::EventEdge),
            paper: BugExpectation {
                basic_runs: None,
                waffle_runs: 2,
                base_ms: 952,
                basic_slowdown: None,
                waffle_slowdown: 1.3,
            },
        }],
    }
}
