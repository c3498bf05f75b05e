//! Kubernetes.Net: API-client model.
//!
//! Carries Bug-9 (issue #360 — the watch-reconnect loop disposes the
//! response stream while the callback still reads it; the loop recurs) and
//! Bug-18 (unreported — a single-shot race between an informer's cache use
//! and the client teardown).

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::{self, BugSites};

const BUG9_SITES: BugSites = BugSites {
    init: "Watcher.Reconnect:33",
    use_: "Watcher.OnEvent:71",
    dispose: "Watcher.DisposeStream:45",
};

const BUG18_SITES: BugSites = BugSites {
    init: "Informer.ctor:9",
    use_: "Informer.GetCached:27",
    dispose: "Client.Teardown:88",
};

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-9: recurring watch-reconnect race (1955 ms base input).
        TestCase {
            workload: templates::recurring_uaf(
                "Kubernetes.watch_reconnect",
                BUG9_SITES,
                5,
                ms(12),
                ms(30),
                ms(855),
            ),
            seeded_bug: Some(9),
        },
        // Bug-18: informer cache read races client teardown (1494 ms).
        TestCase {
            workload: templates::single_uaf(
                "Kubernetes.informer_teardown",
                BUG18_SITES,
                ms(20),
                ms(15),
                ms(695),
                4,
            ),
            seeded_bug: Some(18),
        },
    ];
    for w in [
        patterns::worker_pool("Kubernetes.list_pods", 4, 2, us(200), ms(950)),
        patterns::producer_consumer("Kubernetes.event_stream", 2, 4, us(150), ms(930)),
        patterns::pipeline("Kubernetes.reconcile_chain", 3, 5, us(180)),
        patterns::shared_dict("Kubernetes.resource_cache", 3, 2, us(80), ms(30)),
        patterns::cache_churn("Kubernetes.connection_pool", 3, 3, us(200), ms(900)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::timer_wheel("Kubernetes.resync_ticks", 5, us(1_000), us(200), ms(930)),
        patterns::retry_loop("Kubernetes.apiserver_retry", 5, us(250), ms(920)),
        patterns::barrier_phases("Kubernetes.rollout_waves", 3, 3, us(150), ms(900)),
        crate::extensions::task_request_pipeline("Kubernetes.admission_tasks", 8, 3),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "Kubernetes.Net",
        meta: AppMeta {
            loc_k: 173.2,
            mt_tests_paper: 21,
            stars_k: 0.7,
        },
        tests,
        bugs: vec![
            BugSpec {
                id: 9,
                app: "Kubernetes.Net",
                issue: "360",
                known: true,
                test_name: "Kubernetes.watch_reconnect".into(),
                summary: "watch reconnect disposes the response stream while the \
                          event callback still reads it; recurs per reconnect",
                expected_repair: None,
                paper: BugExpectation {
                    basic_runs: Some(1),
                    waffle_runs: 2,
                    base_ms: 1955,
                    basic_slowdown: Some(1.3),
                    waffle_slowdown: 2.0,
                },
            },
            BugSpec {
                id: 18,
                app: "Kubernetes.Net",
                issue: "n/a",
                known: false,
                test_name: "Kubernetes.informer_teardown".into(),
                summary: "informer cache read races the client teardown path",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: Some(2),
                    waffle_runs: 2,
                    base_ms: 1494,
                    basic_slowdown: Some(2.5),
                    waffle_slowdown: 2.0,
                },
            },
        ],
    }
}
