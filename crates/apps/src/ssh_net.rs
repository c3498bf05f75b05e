//! SSH.NET: SSH-client model.
//!
//! Carries Bug-1 (issue #80 — the channel's message loop uses the session
//! socket while a disconnect disposes it) and Bug-2 (issue #453 — the
//! keep-alive timer fires before the session semaphore is initialized).

use waffle_sim::time::{ms, us};
use waffle_sim::RepairKind;

use crate::framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
use crate::patterns;
use crate::templates::{self, BugSites};

const BUG1_SITES: BugSites = BugSites {
    init: "Session.Connect:31",
    use_: "Channel.OnData:94",
    dispose: "Session.Disconnect:47",
};

const BUG2_SITES: BugSites = BugSites {
    init: "Session.InitSemaphore:12",
    use_: "KeepAlive.OnTimer:66",
    dispose: "Session.Dispose:80",
};

pub(crate) fn app() -> App {
    let mut tests = vec![
        // Bug-1: channel data handler races the disconnect (2464 ms base,
        // 40 ms gap).
        TestCase {
            workload: templates::single_uaf(
                "SshNet.channel_disconnect",
                BUG1_SITES,
                ms(30),
                ms(40),
                ms(1180),
                4,
            ),
            seeded_bug: Some(1),
        },
        // Bug-2: keep-alive timer fires 25 ms after the semaphore init
        // (1042 ms base).
        TestCase {
            workload: templates::single_ubi(
                "SshNet.keepalive_semaphore",
                BUG2_SITES,
                ms(15),
                ms(25),
                ms(400),
                3,
            ),
            seeded_bug: Some(2),
        },
    ];
    for w in [
        patterns::worker_pool("SshNet.sftp_uploads", 4, 2, us(200), ms(320)),
        patterns::producer_consumer("SshNet.packet_stream", 2, 4, us(150), ms(310)),
        patterns::pipeline("SshNet.cipher_chain", 3, 5, us(130)),
        patterns::shared_dict("SshNet.channel_table", 3, 2, us(70), ms(30)),
        patterns::cache_churn("SshNet.forwarded_ports", 3, 3, us(180), ms(300)),
        patterns::worker_pool("SshNet.shell_streams", 3, 2, us(160), ms(300)),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    for w in [
        patterns::timer_wheel("SshNet.keepalive_ticks", 5, us(900), us(150), ms(310)),
        patterns::retry_loop("SshNet.auth_retry", 4, us(200), ms(310)),
        patterns::barrier_phases("SshNet.parallel_exec", 3, 2, us(120), ms(300)),
        crate::extensions::task_request_pipeline("SshNet.async_commands", 6, 2),
    ] {
        tests.push(TestCase {
            workload: w,
            seeded_bug: None,
        });
    }
    App {
        name: "SSH.Net",
        meta: AppMeta {
            loc_k: 84.4,
            mt_tests_paper: 117,
            stars_k: 2.8,
        },
        tests,
        bugs: vec![
            BugSpec {
                id: 1,
                app: "SSH.Net",
                issue: "80",
                known: true,
                test_name: "SshNet.channel_disconnect".into(),
                summary: "channel data handler dereferences the session socket while \
                          a disconnect disposes it",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: Some(2),
                    waffle_runs: 2,
                    base_ms: 2464,
                    basic_slowdown: Some(1.4),
                    waffle_slowdown: 1.2,
                },
            },
            BugSpec {
                id: 2,
                app: "SSH.Net",
                issue: "453",
                known: true,
                test_name: "SshNet.keepalive_semaphore".into(),
                summary: "keep-alive timer fires before the session semaphore is \
                          initialized",
                expected_repair: Some(RepairKind::EventEdge),
                paper: BugExpectation {
                    basic_runs: Some(2),
                    waffle_runs: 2,
                    base_ms: 1042,
                    basic_slowdown: Some(1.7),
                    waffle_slowdown: 1.6,
                },
            },
        ],
    }
}
