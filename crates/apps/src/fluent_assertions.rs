//! FluentAssertions: assertion-library model.
//!
//! Carries Bug-6 (issue #664 — the value-formatter registry is rebuilt per
//! assertion and raced by a reader; the pattern recurs, which is where
//! WaffleBasic's same-run injection shines) and Bug-7 (issue #862 — a
//! single-shot race between an assertion scope's use and its disposal).

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::{self, BugSites};

const BUG6_SITES: BugSites = BugSites {
    init: "Formatter.AddFormatter:12",
    use_: "Formatter.ToString:88",
    dispose: "Formatter.RemoveFormatter:19",
};

const BUG7_SITES: BugSites = BugSites {
    init: "AssertionScope.ctor:7",
    use_: "AssertionScope.FailWith:52",
    dispose: "AssertionScope.Dispose:15",
};

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-6: recurring formatter-registry race (782 ms base input).
        TestCase {
            workload: templates::recurring_uaf(
                "FluentAssertions.formatter_registry",
                BUG6_SITES,
                6,
                ms(3),
                ms(12),
                ms(340),
            ),
            seeded_bug: Some(6),
        },
        // Bug-7: assertion-scope disposal races a late FailWith (831 ms).
        TestCase {
            workload: templates::single_uaf(
                "FluentAssertions.assertion_scope",
                BUG7_SITES,
                ms(15),
                ms(60),
                ms(375),
                2,
            ),
            seeded_bug: Some(7),
        },
    ];
    for w in [
        patterns::worker_pool("FluentAssertions.equivalency_pool", 3, 2, us(120), ms(350)),
        patterns::pipeline("FluentAssertions.rule_chain", 3, 4, us(100)),
        patterns::producer_consumer("FluentAssertions.subject_stream", 2, 3, us(80), ms(330)),
        patterns::shared_dict("FluentAssertions.format_cache", 3, 2, us(50), ms(30)),
        patterns::worker_pool("FluentAssertions.collection_asserts", 3, 2, us(90), ms(320)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::retry_loop("FluentAssertions.approval_retry", 4, us(150), ms(330)),
        patterns::timer_wheel(
            "FluentAssertions.timeout_asserts",
            4,
            us(800),
            us(120),
            ms(320),
        ),
        patterns::barrier_phases("FluentAssertions.scoped_parallel", 3, 2, us(100), ms(330)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "FluentAssertions",
        meta: AppMeta {
            loc_k: 47.7,
            mt_tests_paper: 41,
            stars_k: 2.5,
        },
        tests,
        bugs: vec![
            BugSpec {
                id: 6,
                app: "FluentAssertions",
                issue: "664",
                known: true,
                test_name: "FluentAssertions.formatter_registry".into(),
                summary: "formatter registry entry removed while a concurrent \
                          assertion formats through it; recurs every assertion",
                expected_repair: None,
                paper: BugExpectation {
                    basic_runs: Some(1),
                    waffle_runs: 2,
                    base_ms: 782,
                    basic_slowdown: Some(1.4),
                    waffle_slowdown: 2.7,
                },
            },
            BugSpec {
                id: 7,
                app: "FluentAssertions",
                issue: "862",
                known: true,
                test_name: "FluentAssertions.assertion_scope".into(),
                summary: "assertion scope disposed while a late failure message is \
                          being appended",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: Some(2),
                    waffle_runs: 2,
                    base_ms: 831,
                    basic_slowdown: Some(1.2),
                    waffle_slowdown: 2.5,
                },
            },
        ],
    }
}
