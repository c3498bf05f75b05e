//! MQTT.Net: MQTT broker/client model.
//!
//! Carries Bug-16 (issue #1187) and Bug-17 (issue #1188): both are
//! Fig. 4b-shaped races embedded in heavy packet churn. The racing check
//! sits *after* the churn phase, so WaffleBasic's fixed-delay flood pushes
//! the run past its timeout before the racy window is even reached — the
//! "most tests timed out" behaviour of Tables 5 and 6.

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::churn_templates::{instances_in_churn, ChurnParams};
use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::BugSites;

const BUG16_SITES: BugSites = BugSites {
    init: "MqttClient.ctor:4",
    use_: "PacketDispatcher.Check:19",
    dispose: "MqttClient.Disconnect:52",
};

const BUG17_SITES: BugSites = BugSites {
    init: "ManagedClient.Start:8",
    use_: "PublishQueue.Peek:44",
    dispose: "ManagedClient.Stop:71",
};

fn heavy_churn() -> ChurnParams {
    ChurnParams {
        scan_objects: 8,
        rescan_objects: 3,
        rounds: 10,
        conns_per_round: 25,
        hot_gap: ms(4),
    }
}

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-16 (1207 ms base input).
        TestCase {
            workload: instances_in_churn(
                "Mqtt.packet_dispatcher",
                BUG16_SITES,
                ms(3),
                ms(1),
                ms(8),
                1,
                ms(535),
                heavy_churn(),
            ),
            seeded_bug: Some(16),
        },
        // Bug-17 (13.7 s base input).
        TestCase {
            workload: instances_in_churn(
                "Mqtt.managed_client_stop",
                BUG17_SITES,
                ms(3),
                ms(1),
                ms(8),
                1,
                ms(6_790),
                heavy_churn(),
            ),
            seeded_bug: Some(17),
        },
    ];
    for w in [
        patterns::cache_churn("Mqtt.session_churn", 8, 60, us(100), ms(500)),
        patterns::cache_churn("Mqtt.retained_messages", 8, 55, us(100), ms(520)),
        patterns::producer_consumer("Mqtt.publish_stream", 8, 30, us(120), ms(400)),
        patterns::cache_churn("Mqtt.topic_subscriptions", 8, 58, us(100), ms(480)),
        patterns::shared_dict("Mqtt.client_table", 3, 2, us(80), ms(30)),
        patterns::cache_churn("Mqtt.inflight_window", 8, 50, us(100), ms(450)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::cache_churn("Mqtt.pending_acks", 8, 55, us(100), ms(470)),
        patterns::cache_churn("Mqtt.will_messages", 8, 52, us(110), ms(490)),
        patterns::cache_churn("Mqtt.qos2_flows", 7, 58, us(100), ms(460)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "MQTT.Net",
        meta: AppMeta {
            loc_k: 27.1,
            mt_tests_paper: 126,
            stars_k: 2.2,
        },
        tests,
        bugs: vec![
            BugSpec {
                id: 16,
                app: "MQTT.Net",
                issue: "1187",
                known: false,
                test_name: "Mqtt.packet_dispatcher".into(),
                summary: "dispatcher check races the disconnect inside heavy packet \
                          churn; the fixed-delay flood times WaffleBasic out",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: None,
                    waffle_runs: 4,
                    base_ms: 1207,
                    basic_slowdown: None,
                    waffle_slowdown: 5.4,
                },
            },
            BugSpec {
                id: 17,
                app: "MQTT.Net",
                issue: "1188",
                known: false,
                test_name: "Mqtt.managed_client_stop".into(),
                summary: "publish queue peeked while the managed client stops; \
                          heavy churn, WaffleBasic times out",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: None,
                    waffle_runs: 3,
                    base_ms: 13_722,
                    basic_slowdown: None,
                    waffle_slowdown: 6.2,
                },
            },
        ],
    }
}
