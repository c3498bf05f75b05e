//! NSubstitute: mocking-library model.
//!
//! Carries Bug-3 (issue #205 — the call router is swapped per configured
//! call and raced by a dispatching thread; recurs every configuration) and
//! Bug-4 (issue #573 — a substitute's call-spec store read before the
//! builder finished initializing it; a 2 ms gap, the tightest in the
//! suite).

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::{self, BugSites};

const BUG3_SITES: BugSites = BugSites {
    init: "CallRouter.Configure:18",
    use_: "CallRouter.Route:42",
    dispose: "CallRouter.Clear:25",
};

const BUG4_SITES: BugSites = BugSites {
    init: "SubstituteBuilder.Build:11",
    use_: "CallSpec.Match:36",
    dispose: "Substitute.Reset:58",
};

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-3: recurring router swap race (437 ms base input).
        TestCase {
            workload: templates::recurring_uaf(
                "NSubstitute.call_router",
                BUG3_SITES,
                6,
                ms(5),
                ms(8),
                ms(180),
            ),
            seeded_bug: Some(3),
        },
        // Bug-4: 2 ms use-before-init with a dense set of benign candidate
        // sites around it (316 ms base input) — the flood is what makes
        // WaffleBasic 9× slow here.
        TestCase {
            workload: templates::single_ubi(
                "NSubstitute.callspec_store",
                BUG4_SITES,
                ms(8),
                ms(2),
                ms(45),
                12,
            ),
            seeded_bug: Some(4),
        },
    ];
    for w in [
        patterns::worker_pool("NSubstitute.received_calls", 4, 2, us(100), ms(140)),
        patterns::pipeline("NSubstitute.arg_matchers", 3, 4, us(90)),
        patterns::shared_dict("NSubstitute.proxy_cache", 3, 2, us(60), ms(30)),
        patterns::producer_consumer("NSubstitute.raise_events", 2, 3, us(80), ms(135)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::retry_loop("NSubstitute.configure_retry", 4, us(130), ms(135)),
        patterns::timer_wheel("NSubstitute.auto_values", 4, us(700), us(110), ms(130)),
        patterns::barrier_phases("NSubstitute.parallel_mocks", 3, 2, us(90), ms(130)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "NSubstitute",
        meta: AppMeta {
            loc_k: 17.9,
            mt_tests_paper: 13,
            stars_k: 1.7,
        },
        tests,
        bugs: vec![
            BugSpec {
                id: 3,
                app: "NSubstitute",
                issue: "205",
                known: true,
                test_name: "NSubstitute.call_router".into(),
                summary: "call router cleared while a concurrent dispatch routes \
                          through it; recurs per configured call",
                expected_repair: None,
                paper: BugExpectation {
                    basic_runs: Some(1),
                    waffle_runs: 2,
                    base_ms: 437,
                    basic_slowdown: Some(3.3),
                    waffle_slowdown: 5.1,
                },
            },
            BugSpec {
                id: 4,
                app: "NSubstitute",
                issue: "573",
                known: true,
                test_name: "NSubstitute.callspec_store".into(),
                summary: "call-spec store matched 2 ms after the builder initializes \
                          it, with many benign candidates inflating the fixed-delay \
                          flood",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: Some(2),
                    waffle_runs: 2,
                    base_ms: 316,
                    basic_slowdown: Some(9.0),
                    waffle_slowdown: 4.4,
                },
            },
        ],
    }
}
