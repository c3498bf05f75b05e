//! NSwag: OpenAPI-toolchain model.
//!
//! Carries Bug-5 (issue #3015 — the generator's document registry entry is
//! disposed by the watch loop while a generation pass still reads it).

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::{self, BugSites};

const BUG5_SITES: BugSites = BugSites {
    init: "DocumentRegistry.Load:16",
    use_: "Generator.Emit:73",
    dispose: "WatchLoop.Invalidate:29",
};

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-5: single-shot use-after-free, 30 ms gap (887 ms base).
        TestCase {
            workload: templates::single_uaf(
                "NSwag.document_registry",
                BUG5_SITES,
                ms(12),
                ms(30),
                ms(390),
                3,
            ),
            seeded_bug: Some(5),
        },
    ];
    for w in [
        patterns::worker_pool("NSwag.parallel_generation", 3, 2, us(150), ms(400)),
        patterns::pipeline("NSwag.schema_pipeline", 4, 4, us(120)),
        patterns::producer_consumer("NSwag.operation_stream", 2, 3, us(100), ms(410)),
        patterns::shared_dict("NSwag.type_cache", 3, 2, us(60), ms(30)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::retry_loop("NSwag.fetch_retry", 4, us(180), ms(400)),
        patterns::timer_wheel("NSwag.watch_ticks", 4, us(900), us(140), ms(395)),
        crate::extensions::task_request_pipeline("NSwag.codegen_tasks", 6, 2),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "NSwag",
        meta: AppMeta {
            loc_k: 101.5,
            mt_tests_paper: 18,
            stars_k: 4.9,
        },
        tests,
        bugs: vec![BugSpec {
            id: 5,
            app: "NSwag",
            issue: "3015",
            known: true,
            test_name: "NSwag.document_registry".into(),
            summary: "watch loop invalidates a document registry entry while a \
                      generation pass reads it",
            expected_repair: Some(RepairKind::EventEdge),
            paper: BugExpectation {
                basic_runs: Some(2),
                waffle_runs: 2,
                base_ms: 887,
                basic_slowdown: Some(2.1),
                waffle_slowdown: 1.8,
            },
        }],
    }
}
