//! ApplicationInsights: telemetry SDK model.
//!
//! Carries Bug-10 (issue #1106, Fig. 4a — the DiagnosticsListener
//! constructor racing the EventWritten handler, with an interfering
//! disposal) and Bug-14 (issue #2261 — partial construction: the buffer
//! event fires before the constructor finished initializing all fields).

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::{self, BugSites};

const BUG10_SITES: BugSites = BugSites {
    init: "DiagnosticsLstnr.ctor:2",
    use_: "OnEventWritten:8",
    dispose: "DiagnosticsLstnr.Dispose:5",
};

const BUG14_SITES: BugSites = BugSites {
    init: "TelemetryBuffer.ctor:14",
    use_: "Buffer.OnFull:31",
    dispose: "TelemetryBuffer.Dispose:40",
};

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-10: interfering bugs on the diagnostics listener (143 ms
        // base input). The UBI gap is 20 ms, the UAF gap 25 ms; both
        // candidates target the same object from sibling threads.
        TestCase {
            workload: templates::interfering_bugs(
                "ApplicationInsights.diagnostics_listener",
                BUG10_SITES,
                ms(10),
                ms(20),
                ms(25),
                ms(20),
                3,
            ),
            seeded_bug: Some(10),
        },
        // Bug-14: the buffer-full handler fires 8 ms after the field
        // initialization it depends on (1349 ms base input).
        TestCase {
            workload: templates::single_ubi(
                "ApplicationInsights.buffer_onfull",
                BUG14_SITES,
                ms(12),
                ms(8),
                ms(560),
                4,
            ),
            seeded_bug: Some(14),
        },
    ];
    for (i, w) in [
        patterns::worker_pool("ApplicationInsights.telemetry_pool", 5, 2, us(150), ms(90)),
        patterns::producer_consumer("ApplicationInsights.channel_flush", 2, 5, us(100), ms(80)),
        patterns::pipeline("ApplicationInsights.enrichment_pipeline", 3, 6, us(120)),
        patterns::cache_churn("ApplicationInsights.metric_series", 3, 3, us(150), ms(70)),
        patterns::shared_dict("ApplicationInsights.context_tags", 3, 2, us(60), ms(30)),
        patterns::worker_pool(
            "ApplicationInsights.sampling_workers",
            4,
            2,
            us(200),
            ms(60),
        ),
        patterns::producer_consumer("ApplicationInsights.quickpulse_feed", 2, 4, us(90), ms(75)),
        patterns::pipeline("ApplicationInsights.processor_chain", 4, 4, us(100)),
    ]
    .into_iter()
    .enumerate()
    {
        let _ = i;
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::timer_wheel(
            "ApplicationInsights.heartbeat_timer",
            6,
            us(900),
            us(150),
            ms(75),
        ),
        patterns::retry_loop("ApplicationInsights.ingest_retry", 5, us(200), ms(80)),
        patterns::barrier_phases("ApplicationInsights.flush_barrier", 3, 2, us(120), ms(70)),
        crate::extensions::task_request_pipeline("ApplicationInsights.track_async", 6, 2),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "ApplicationInsights",
        meta: AppMeta {
            loc_k: 151.2,
            mt_tests_paper: 156,
            stars_k: 0.5,
        },
        tests,
        bugs: vec![
            BugSpec {
                id: 10,
                app: "ApplicationInsights",
                issue: "1106",
                known: true,
                test_name: "ApplicationInsights.diagnostics_listener".into(),
                summary: "constructor races the EventWritten handler; an interfering \
                          use-after-free candidate cancels WaffleBasic's delays (Fig. 4a)",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: None,
                    waffle_runs: 2,
                    base_ms: 143,
                    basic_slowdown: None,
                    waffle_slowdown: 4.9,
                },
            },
            BugSpec {
                id: 14,
                app: "ApplicationInsights",
                issue: "2261",
                known: false,
                test_name: "ApplicationInsights.buffer_onfull".into(),
                summary: "buffer-full event handler reads a field the constructor has \
                          not initialized yet",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: Some(2),
                    waffle_runs: 2,
                    base_ms: 1349,
                    basic_slowdown: Some(1.5),
                    waffle_slowdown: 1.3,
                },
            },
        ],
    }
}
