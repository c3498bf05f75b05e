//! Every tool's detection outcome, pinned byte for byte.
//!
//! One FNV-1a-64 of the outcome's JSON (telemetry journal events on) per
//! (input, tool) at attempt seed 1. The inputs are the 18 Table 4 bug
//! inputs plus every suite input on which TSVD injects; the tools are the
//! seven `Tool::by_name` spellings plus `SingleDelay`. A refactor of the
//! policies or the detection loop must leave every hash unchanged; on a
//! mismatch the assertion prints the whole recomputed table.
//!
//! WaffleTSV (the §8 extension) is not a `Tool`, so a second table pins
//! its detection runs directly: one hash per workload over ten runs.

use waffle_repro::analysis::{analyze_tsv, PlanTables};
use waffle_repro::apps::{all_apps, all_bugs};
use waffle_repro::core::{Detector, DetectorConfig, Tool};
use waffle_repro::inject::{DecayState, WafflePolicy};
use waffle_repro::sim::time::{ms, us};
use waffle_repro::sim::{SimConfig, SimTime, Simulator, Workload, WorkloadBuilder};
use waffle_repro::trace::TraceRecorder;

/// Suite inputs (not Table 4 bugs) on which TSVD injects and exposes a
/// thread-safety violation.
const TSV_INPUTS: [&str; 11] = [
    "ApplicationInsights.context_tags",
    "FluentAssertions.format_cache",
    "Kubernetes.resource_cache",
    "LiteDB.page_cache",
    "Mqtt.client_table",
    "NetMQ.socket_options",
    "Npgsql.type_mapper",
    "NSubstitute.proxy_cache",
    "NSwag.type_cache",
    "SignalR.connection_registry",
    "SshNet.channel_table",
];

const TOOLS: [&str; 8] = [
    "waffle",
    "basic",
    "tsvd",
    "noprep",
    "no-parent-child",
    "fixed-delay",
    "no-interference",
    "single-delay",
];

/// `(input, tool, fnv1a64(serde_json::to_string(&outcome)))`.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str, u64)] = &[
    ("SshNet.channel_disconnect", "waffle", 0xfde9cd23dcb67863),
    ("SshNet.channel_disconnect", "basic", 0x479905ddafcccc1b),
    ("SshNet.channel_disconnect", "tsvd", 0x5b7d804770d6ea58),
    ("SshNet.channel_disconnect", "noprep", 0x98d244fcf0688f46),
    ("SshNet.channel_disconnect", "no-parent-child", 0x722705c389cdb142),
    ("SshNet.channel_disconnect", "fixed-delay", 0x89d3c5615649abe9),
    ("SshNet.channel_disconnect", "no-interference", 0xfde9cd23dcb67863),
    ("SshNet.channel_disconnect", "single-delay", 0x619a8efb6e88eaff),
    ("SshNet.keepalive_semaphore", "waffle", 0x8417984412c96c5b),
    ("SshNet.keepalive_semaphore", "basic", 0xd98923d755ee58b4),
    ("SshNet.keepalive_semaphore", "tsvd", 0x6996711e6e03d2c3),
    ("SshNet.keepalive_semaphore", "noprep", 0xc908b763e539770a),
    ("SshNet.keepalive_semaphore", "no-parent-child", 0x8417984412c96c5b),
    ("SshNet.keepalive_semaphore", "fixed-delay", 0x7ee5a51b37317451),
    ("SshNet.keepalive_semaphore", "no-interference", 0x8417984412c96c5b),
    ("SshNet.keepalive_semaphore", "single-delay", 0x85649f1329987de5),
    ("NSubstitute.call_router", "waffle", 0x2924cdc58425b396),
    ("NSubstitute.call_router", "basic", 0x0586abc87845d217),
    ("NSubstitute.call_router", "tsvd", 0xf7a3470261dfa99e),
    ("NSubstitute.call_router", "noprep", 0x4e2756cacf769543),
    ("NSubstitute.call_router", "no-parent-child", 0x2924cdc58425b396),
    ("NSubstitute.call_router", "fixed-delay", 0x1a577f2ee3b68dd7),
    ("NSubstitute.call_router", "no-interference", 0x2924cdc58425b396),
    ("NSubstitute.call_router", "single-delay", 0x889081ec82d131fd),
    ("NSubstitute.callspec_store", "waffle", 0x13a085472028988a),
    ("NSubstitute.callspec_store", "basic", 0x9b2a7757ba1e0800),
    ("NSubstitute.callspec_store", "tsvd", 0x1ffc8b398c6ac2a7),
    ("NSubstitute.callspec_store", "noprep", 0x7c8036f91b7fec7f),
    ("NSubstitute.callspec_store", "no-parent-child", 0x13a085472028988a),
    ("NSubstitute.callspec_store", "fixed-delay", 0x53e0f55eef5561d9),
    ("NSubstitute.callspec_store", "no-interference", 0x13a085472028988a),
    ("NSubstitute.callspec_store", "single-delay", 0x672d0ea1043bfdd2),
    ("NSwag.document_registry", "waffle", 0xde21e8fd889926ba),
    ("NSwag.document_registry", "basic", 0xf0fd359b804fd370),
    ("NSwag.document_registry", "tsvd", 0x731ad9d602dbf691),
    ("NSwag.document_registry", "noprep", 0xdb26ea427ea84480),
    ("NSwag.document_registry", "no-parent-child", 0x1da7c21ef388e2a7),
    ("NSwag.document_registry", "fixed-delay", 0x863321ef2ffd3724),
    ("NSwag.document_registry", "no-interference", 0xde21e8fd889926ba),
    ("NSwag.document_registry", "single-delay", 0x5eeeaf5407da44f0),
    ("FluentAssertions.formatter_registry", "waffle", 0x1da080414f5cf3ae),
    ("FluentAssertions.formatter_registry", "basic", 0x863bc29e999e7891),
    ("FluentAssertions.formatter_registry", "tsvd", 0x9840ea5f59915c30),
    ("FluentAssertions.formatter_registry", "noprep", 0xe0071602ca9a039e),
    ("FluentAssertions.formatter_registry", "no-parent-child", 0x1da080414f5cf3ae),
    ("FluentAssertions.formatter_registry", "fixed-delay", 0xa45a48eae5c97a8f),
    ("FluentAssertions.formatter_registry", "no-interference", 0x1da080414f5cf3ae),
    ("FluentAssertions.formatter_registry", "single-delay", 0x32fdd3e5ce4fa772),
    ("FluentAssertions.assertion_scope", "waffle", 0xbba1185b46f32a02),
    ("FluentAssertions.assertion_scope", "basic", 0xd74cbf010d5446df),
    ("FluentAssertions.assertion_scope", "tsvd", 0x471ed9d31cdb3c86),
    ("FluentAssertions.assertion_scope", "noprep", 0xa6c31ca6aca204ab),
    ("FluentAssertions.assertion_scope", "no-parent-child", 0x8d9fc9d54b96d2ae),
    ("FluentAssertions.assertion_scope", "fixed-delay", 0x1274797ccf0140cd),
    ("FluentAssertions.assertion_scope", "no-interference", 0xbba1185b46f32a02),
    ("FluentAssertions.assertion_scope", "single-delay", 0x7cce3ebda3ac7de1),
    ("LiteDB.transaction_monitor", "waffle", 0xa4556df2f644ee84),
    ("LiteDB.transaction_monitor", "basic", 0xa4dad847ca5da7b0),
    ("LiteDB.transaction_monitor", "tsvd", 0xde9c518ba1350220),
    ("LiteDB.transaction_monitor", "noprep", 0x7b3707fffaa78e64),
    ("LiteDB.transaction_monitor", "no-parent-child", 0xa4556df2f644ee84),
    ("LiteDB.transaction_monitor", "fixed-delay", 0xb3f799172f511cfe),
    ("LiteDB.transaction_monitor", "no-interference", 0x354bec0e1dce8071),
    ("LiteDB.transaction_monitor", "single-delay", 0xdfe8a52d6f94996c),
    ("Kubernetes.watch_reconnect", "waffle", 0x04c85213fac6e476),
    ("Kubernetes.watch_reconnect", "basic", 0x6d13ec245af7c196),
    ("Kubernetes.watch_reconnect", "tsvd", 0x91bf30cc24a5a939),
    ("Kubernetes.watch_reconnect", "noprep", 0xe9eb40f5858cf408),
    ("Kubernetes.watch_reconnect", "no-parent-child", 0x04c85213fac6e476),
    ("Kubernetes.watch_reconnect", "fixed-delay", 0xf6ed97a48c9eb8f7),
    ("Kubernetes.watch_reconnect", "no-interference", 0x04c85213fac6e476),
    ("Kubernetes.watch_reconnect", "single-delay", 0xb43d251aa67e195f),
    ("ApplicationInsights.diagnostics_listener", "waffle", 0xd9efcd5f29be72a6),
    ("ApplicationInsights.diagnostics_listener", "basic", 0xdee95dcc63b3b235),
    ("ApplicationInsights.diagnostics_listener", "tsvd", 0xe1c7db33fb2d9361),
    ("ApplicationInsights.diagnostics_listener", "noprep", 0xd0ffc11cb7a5b852),
    ("ApplicationInsights.diagnostics_listener", "no-parent-child", 0xd9efcd5f29be72a6),
    ("ApplicationInsights.diagnostics_listener", "fixed-delay", 0x2ab9cb83019bf49e),
    ("ApplicationInsights.diagnostics_listener", "no-interference", 0x5ecb3310612562d1),
    ("ApplicationInsights.diagnostics_listener", "single-delay", 0x37327ef26cad8c56),
    ("NetMQ.runtime_cleanup", "waffle", 0xf7b14b25d29344da),
    ("NetMQ.runtime_cleanup", "basic", 0x120589010174a3b3),
    ("NetMQ.runtime_cleanup", "tsvd", 0xbc1d47a64384fb16),
    ("NetMQ.runtime_cleanup", "noprep", 0xb4959873804a94f1),
    ("NetMQ.runtime_cleanup", "no-parent-child", 0xf7b14b25d29344da),
    ("NetMQ.runtime_cleanup", "fixed-delay", 0x692c809e94331e4b),
    ("NetMQ.runtime_cleanup", "no-interference", 0x9aeef0c1148ee755),
    ("NetMQ.runtime_cleanup", "single-delay", 0x13f322a551148348),
    ("Npgsql.prepared_statements", "waffle", 0x712fefa6fe379361),
    ("Npgsql.prepared_statements", "basic", 0xae7b738b3b6d1631),
    ("Npgsql.prepared_statements", "tsvd", 0x530e52bfbc2f7c73),
    ("Npgsql.prepared_statements", "noprep", 0x055bf4f196b4ad5b),
    ("Npgsql.prepared_statements", "no-parent-child", 0x712fefa6fe379361),
    ("Npgsql.prepared_statements", "fixed-delay", 0x0cb6b0879a1adaa2),
    ("Npgsql.prepared_statements", "no-interference", 0x1258bb1be843f23e),
    ("Npgsql.prepared_statements", "single-delay", 0x73afe18373126790),
    ("SignalR.hub_connection", "waffle", 0x4de34da16e00d5b6),
    ("SignalR.hub_connection", "basic", 0x9118b9a1ab2a8c2e),
    ("SignalR.hub_connection", "tsvd", 0xdb2a766fc98b799b),
    ("SignalR.hub_connection", "noprep", 0xbe7ea854131388aa),
    ("SignalR.hub_connection", "no-parent-child", 0x4de34da16e00d5b6),
    ("SignalR.hub_connection", "fixed-delay", 0x62ed7a1ecbfa2de0),
    ("SignalR.hub_connection", "no-interference", 0x61eb369aa2e6475c),
    ("SignalR.hub_connection", "single-delay", 0x2fafe7b410ab4830),
    ("ApplicationInsights.buffer_onfull", "waffle", 0xe813b9f038a7ea9b),
    ("ApplicationInsights.buffer_onfull", "basic", 0x73281bf6bee2ff3c),
    ("ApplicationInsights.buffer_onfull", "tsvd", 0x13c84ab078d75c77),
    ("ApplicationInsights.buffer_onfull", "noprep", 0xddd17e3dcfbedc3e),
    ("ApplicationInsights.buffer_onfull", "no-parent-child", 0xe813b9f038a7ea9b),
    ("ApplicationInsights.buffer_onfull", "fixed-delay", 0xb6be3b05f43e4110),
    ("ApplicationInsights.buffer_onfull", "no-interference", 0xe813b9f038a7ea9b),
    ("ApplicationInsights.buffer_onfull", "single-delay", 0xeb947bde1285c0f0),
    ("NetMQ.queue_dispose", "waffle", 0x770347bb103e565c),
    ("NetMQ.queue_dispose", "basic", 0x9dbf8735c1b7566c),
    ("NetMQ.queue_dispose", "tsvd", 0xb08a58ce17a56865),
    ("NetMQ.queue_dispose", "noprep", 0x54e55e06dd01bd16),
    ("NetMQ.queue_dispose", "no-parent-child", 0x770347bb103e565c),
    ("NetMQ.queue_dispose", "fixed-delay", 0xa6596772be85871b),
    ("NetMQ.queue_dispose", "no-interference", 0xd6d1c8c2bdf8c39c),
    ("NetMQ.queue_dispose", "single-delay", 0x790c3679b637a08e),
    ("Mqtt.packet_dispatcher", "waffle", 0xc94ee09683fc0fec),
    ("Mqtt.packet_dispatcher", "basic", 0x0acb2c30813ab980),
    ("Mqtt.packet_dispatcher", "tsvd", 0xca716689c23ddc7a),
    ("Mqtt.packet_dispatcher", "noprep", 0xef67b85834349b4b),
    ("Mqtt.packet_dispatcher", "no-parent-child", 0xc94ee09683fc0fec),
    ("Mqtt.packet_dispatcher", "fixed-delay", 0x88f760e9fc1e3901),
    ("Mqtt.packet_dispatcher", "no-interference", 0x4f108a9d3a53c6c2),
    ("Mqtt.packet_dispatcher", "single-delay", 0x4807e1e8e3228276),
    ("Mqtt.managed_client_stop", "waffle", 0x841081f7189eab4a),
    ("Mqtt.managed_client_stop", "basic", 0x517bed9ac5906dde),
    ("Mqtt.managed_client_stop", "tsvd", 0x6d854552cc877385),
    ("Mqtt.managed_client_stop", "noprep", 0x293b5a500c7e7759),
    ("Mqtt.managed_client_stop", "no-parent-child", 0x841081f7189eab4a),
    ("Mqtt.managed_client_stop", "fixed-delay", 0x86954a08709115b9),
    ("Mqtt.managed_client_stop", "no-interference", 0xa03dfae4c8b12f95),
    ("Mqtt.managed_client_stop", "single-delay", 0x9f2669dabe881ba6),
    ("Kubernetes.informer_teardown", "waffle", 0x7a825c3514e22c23),
    ("Kubernetes.informer_teardown", "basic", 0xe54fe467eaf6fc90),
    ("Kubernetes.informer_teardown", "tsvd", 0x7cb0b57b3a8fbc34),
    ("Kubernetes.informer_teardown", "noprep", 0x3e1ff21b760f3890),
    ("Kubernetes.informer_teardown", "no-parent-child", 0x7d7eb90e17854961),
    ("Kubernetes.informer_teardown", "fixed-delay", 0x2bae6b7fa8ee773d),
    ("Kubernetes.informer_teardown", "no-interference", 0x7a825c3514e22c23),
    ("Kubernetes.informer_teardown", "single-delay", 0xfdb1269f6f58cf5a),
    ("ApplicationInsights.context_tags", "waffle", 0xcdd2a8a02442af1e),
    ("ApplicationInsights.context_tags", "basic", 0x8f67a3975bf07ac2),
    ("ApplicationInsights.context_tags", "tsvd", 0x811326578b1f01a0),
    ("ApplicationInsights.context_tags", "noprep", 0x8f67a3975bf07ac2),
    ("ApplicationInsights.context_tags", "no-parent-child", 0xcdd2a8a02442af1e),
    ("ApplicationInsights.context_tags", "fixed-delay", 0xcdd2a8a02442af1e),
    ("ApplicationInsights.context_tags", "no-interference", 0xcdd2a8a02442af1e),
    ("ApplicationInsights.context_tags", "single-delay", 0xa37d06f165f672a6),
    ("FluentAssertions.format_cache", "waffle", 0x4fab205dd2425150),
    ("FluentAssertions.format_cache", "basic", 0x9cc1d396da8675a0),
    ("FluentAssertions.format_cache", "tsvd", 0x00a429e1be27786a),
    ("FluentAssertions.format_cache", "noprep", 0x9cc1d396da8675a0),
    ("FluentAssertions.format_cache", "no-parent-child", 0x4fab205dd2425150),
    ("FluentAssertions.format_cache", "fixed-delay", 0x4fab205dd2425150),
    ("FluentAssertions.format_cache", "no-interference", 0x4fab205dd2425150),
    ("FluentAssertions.format_cache", "single-delay", 0x53239dde19762be5),
    ("Kubernetes.resource_cache", "waffle", 0x09deb04ea79c1232),
    ("Kubernetes.resource_cache", "basic", 0xd0b63e4efa8e856f),
    ("Kubernetes.resource_cache", "tsvd", 0x76c4e62da6478bac),
    ("Kubernetes.resource_cache", "noprep", 0xd0b63e4efa8e856f),
    ("Kubernetes.resource_cache", "no-parent-child", 0x09deb04ea79c1232),
    ("Kubernetes.resource_cache", "fixed-delay", 0x09deb04ea79c1232),
    ("Kubernetes.resource_cache", "no-interference", 0x09deb04ea79c1232),
    ("Kubernetes.resource_cache", "single-delay", 0x03d6c7971d256550),
    ("LiteDB.page_cache", "waffle", 0xdbd0bb3f032aebbd),
    ("LiteDB.page_cache", "basic", 0x10757c1e14ce11b4),
    ("LiteDB.page_cache", "tsvd", 0x08286a363ca4d6da),
    ("LiteDB.page_cache", "noprep", 0x10757c1e14ce11b4),
    ("LiteDB.page_cache", "no-parent-child", 0xdbd0bb3f032aebbd),
    ("LiteDB.page_cache", "fixed-delay", 0xdbd0bb3f032aebbd),
    ("LiteDB.page_cache", "no-interference", 0xdbd0bb3f032aebbd),
    ("LiteDB.page_cache", "single-delay", 0xc48e2f30391f8e6d),
    ("Mqtt.client_table", "waffle", 0x07bbb255e394e08b),
    ("Mqtt.client_table", "basic", 0x6622af394d87b026),
    ("Mqtt.client_table", "tsvd", 0x96d134a963913fbe),
    ("Mqtt.client_table", "noprep", 0x6622af394d87b026),
    ("Mqtt.client_table", "no-parent-child", 0x07bbb255e394e08b),
    ("Mqtt.client_table", "fixed-delay", 0x07bbb255e394e08b),
    ("Mqtt.client_table", "no-interference", 0x07bbb255e394e08b),
    ("Mqtt.client_table", "single-delay", 0x9a215c43ccfbec97),
    ("NetMQ.socket_options", "waffle", 0xad055d2a43011c42),
    ("NetMQ.socket_options", "basic", 0x7a60e283a274077f),
    ("NetMQ.socket_options", "tsvd", 0xe73b1fe15161be0c),
    ("NetMQ.socket_options", "noprep", 0x7a60e283a274077f),
    ("NetMQ.socket_options", "no-parent-child", 0xad055d2a43011c42),
    ("NetMQ.socket_options", "fixed-delay", 0xad055d2a43011c42),
    ("NetMQ.socket_options", "no-interference", 0xad055d2a43011c42),
    ("NetMQ.socket_options", "single-delay", 0x8f632f2520df1ec0),
    ("Npgsql.type_mapper", "waffle", 0xff77455cec7a631c),
    ("Npgsql.type_mapper", "basic", 0x7d54d955df6a2bdd),
    ("Npgsql.type_mapper", "tsvd", 0x6dfa21f7fe360378),
    ("Npgsql.type_mapper", "noprep", 0x7d54d955df6a2bdd),
    ("Npgsql.type_mapper", "no-parent-child", 0xff77455cec7a631c),
    ("Npgsql.type_mapper", "fixed-delay", 0xff77455cec7a631c),
    ("Npgsql.type_mapper", "no-interference", 0xff77455cec7a631c),
    ("Npgsql.type_mapper", "single-delay", 0x73dbb091413d25a6),
    ("NSubstitute.proxy_cache", "waffle", 0xd3ea23a1bc0448fd),
    ("NSubstitute.proxy_cache", "basic", 0xacf0416e7b8d7ed1),
    ("NSubstitute.proxy_cache", "tsvd", 0xfaa71ac80d84a678),
    ("NSubstitute.proxy_cache", "noprep", 0xacf0416e7b8d7ed1),
    ("NSubstitute.proxy_cache", "no-parent-child", 0xd3ea23a1bc0448fd),
    ("NSubstitute.proxy_cache", "fixed-delay", 0xd3ea23a1bc0448fd),
    ("NSubstitute.proxy_cache", "no-interference", 0xd3ea23a1bc0448fd),
    ("NSubstitute.proxy_cache", "single-delay", 0x0be17ed16e718f9f),
    ("NSwag.type_cache", "waffle", 0xd8420cdb070e84bd),
    ("NSwag.type_cache", "basic", 0x4d75155e13b14e11),
    ("NSwag.type_cache", "tsvd", 0x7ee5a756807c94e8),
    ("NSwag.type_cache", "noprep", 0x4d75155e13b14e11),
    ("NSwag.type_cache", "no-parent-child", 0xd8420cdb070e84bd),
    ("NSwag.type_cache", "fixed-delay", 0xd8420cdb070e84bd),
    ("NSwag.type_cache", "no-interference", 0xd8420cdb070e84bd),
    ("NSwag.type_cache", "single-delay", 0xc795abf263c940df),
    ("SignalR.connection_registry", "waffle", 0xaa1abd442685a921),
    ("SignalR.connection_registry", "basic", 0x9cee2605e865bdb0),
    ("SignalR.connection_registry", "tsvd", 0x8f10ad86a550c176),
    ("SignalR.connection_registry", "noprep", 0x9cee2605e865bdb0),
    ("SignalR.connection_registry", "no-parent-child", 0xaa1abd442685a921),
    ("SignalR.connection_registry", "fixed-delay", 0xaa1abd442685a921),
    ("SignalR.connection_registry", "no-interference", 0xaa1abd442685a921),
    ("SignalR.connection_registry", "single-delay", 0x6e30e6755ce8eaa1),
    ("SshNet.channel_table", "waffle", 0x55d2158b148e66e4),
    ("SshNet.channel_table", "basic", 0x8dc01f3b9d9bc0e5),
    ("SshNet.channel_table", "tsvd", 0xca340653d04dffe8),
    ("SshNet.channel_table", "noprep", 0x8dc01f3b9d9bc0e5),
    ("SshNet.channel_table", "no-parent-child", 0x55d2158b148e66e4),
    ("SshNet.channel_table", "fixed-delay", 0x55d2158b148e66e4),
    ("SshNet.channel_table", "no-interference", 0x55d2158b148e66e4),
    ("SshNet.channel_table", "single-delay", 0xbec46aea3fe1717e),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn tool(name: &str) -> Tool {
    match name {
        "single-delay" => Tool::SingleDelay {
            delay: SimTime::from_ms(100),
        },
        _ => Tool::by_name(name).expect("known tool name"),
    }
}

fn inputs() -> Vec<Workload> {
    let tests: Vec<_> = all_apps().into_iter().flat_map(|a| a.tests).collect();
    let named = |name: &str| {
        tests
            .iter()
            .find(|t| t.workload.name == name)
            .map(|t| t.workload.clone())
            .unwrap_or_else(|| panic!("unknown input {name}"))
    };
    all_bugs()
        .iter()
        .map(|b| named(&b.test_name))
        .chain(TSV_INPUTS.iter().map(|n| named(n)))
        .collect()
}

#[test]
fn every_tool_outcome_matches_its_pinned_hash() {
    let config = DetectorConfig {
        telemetry_events: true,
        ..DetectorConfig::default()
    };
    let mut actual = Vec::new();
    for w in inputs() {
        for name in TOOLS {
            let outcome = Detector::with_config(tool(name), config.clone()).detect(&w, 1);
            let json = serde_json::to_string(&outcome).expect("outcome serializes");
            actual.push((w.name.clone(), name, fnv1a64(json.as_bytes())));
        }
    }
    let table: String = actual
        .iter()
        .map(|(w, t, h)| format!("    ({w:?}, {t:?}, {h:#018x}),\n"))
        .collect();
    let matches = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(EXPECTED)
            .all(|((w, t, h), (ew, et, eh))| w == ew && t == et && h == eh);
    assert!(
        matches,
        "outcome hashes changed; recomputed table:\n{table}"
    );
}

/// `(workload, fnv1a64 over its ten WaffleTSV detection runs)`.
#[rustfmt::skip]
const EXPECTED_WAFFLE_TSV: &[(&str, u64)] = &[
    ("ApplicationInsights.context_tags", 0xd619a721af0bd488),
    ("FluentAssertions.format_cache", 0x21ad91930672e739),
    ("Kubernetes.resource_cache", 0xa30a749770f32ada),
    ("LiteDB.page_cache", 0xa30a749770f32ada),
    ("Mqtt.client_table", 0xa30a749770f32ada),
    ("NetMQ.socket_options", 0xa30a749770f32ada),
    ("Npgsql.type_mapper", 0xa30a749770f32ada),
    ("NSubstitute.proxy_cache", 0xd619a721af0bd488),
    ("NSwag.type_cache", 0xd619a721af0bd488),
    ("SignalR.connection_registry", 0xa30a749770f32ada),
    ("SshNet.channel_table", 0xa30a749770f32ada),
    ("wtsv.gap5", 0xb65e7823e802410e),
    ("wtsv.gap20", 0x7c9cf3261e2f4c7a),
    ("wtsv.gap50", 0x1149fa63b11d5db0),
    ("wtsv.gap98", 0x2b87e58c23951f8a),
];

/// The `waffle_tsv` bench's two-call workload: the calls start `gap_ms`
/// apart and run 1 ms each.
fn gap_workload(gap_ms: u64) -> Workload {
    let mut b = WorkloadBuilder::new(format!("wtsv.gap{gap_ms}"));
    let dict = b.object("dict");
    let started = b.event("s");
    let worker = b.script("worker", move |s| {
        s.wait(started)
            .pad(ms(1))
            .unsafe_call(dict, "Worker.Add:3", ms(1));
    });
    let main = b.script("main", move |s| {
        s.init(dict, "M.ctor:1", us(20))
            .fork(worker)
            .signal(started)
            .pad(ms(1) + ms(gap_ms))
            .unsafe_call(dict, "Main.Get:7", ms(1))
            .join_children();
    });
    b.main(main);
    b.build()
}

/// The `waffle_tsv` bench's inputs: the TSV suite inputs, then the gap
/// sweep.
fn waffle_tsv_inputs() -> Vec<Workload> {
    let tests: Vec<_> = all_apps().into_iter().flat_map(|a| a.tests).collect();
    TSV_INPUTS
        .iter()
        .map(|&name| {
            tests
                .iter()
                .find(|t| t.workload.name == name)
                .map(|t| t.workload.clone())
                .unwrap_or_else(|| panic!("unknown input {name}"))
        })
        .chain([5, 20, 50, 98].map(gap_workload))
        .collect()
}

/// The preparation run at seed 0 plans the gaps; detection runs 1..=10
/// then all run (none stops at an exposure, so decay evolution is pinned
/// too). Each run contributes its delays, violations, end time,
/// instrumented-op count and event journal to the hash.
#[test]
fn every_waffle_tsv_outcome_matches_its_pinned_hash() {
    let mut actual = Vec::new();
    for w in waffle_tsv_inputs() {
        let mut rec = TraceRecorder::new(&w);
        let _ = Simulator::run(&w, SimConfig::with_seed(0), &mut rec);
        let plan = analyze_tsv(&rec.into_trace(), ms(100), ms(1));
        let tables = PlanTables::compile_tsv(&plan, w.sites.len());
        let mut decay = DecayState::default();
        let mut json = String::new();
        for run in 1..=10u64 {
            let mut p = WafflePolicy::compiled(&tables, decay, run);
            p.record_events(true);
            let r = Simulator::run(&w, SimConfig::with_seed(run), &mut p);
            let journal = p.take_journal();
            decay = p.into_decay();
            let pinned = (
                &r.delays,
                &r.tsv_violations,
                r.end_time,
                r.instrumented_ops,
                &journal,
            );
            json += &serde_json::to_string(&pinned).expect("run serializes");
        }
        actual.push((w.name.clone(), fnv1a64(json.as_bytes())));
    }
    let table: String = actual
        .iter()
        .map(|(w, h)| format!("    ({w:?}, {h:#018x}),\n"))
        .collect();
    let matches = actual.len() == EXPECTED_WAFFLE_TSV.len()
        && actual
            .iter()
            .zip(EXPECTED_WAFFLE_TSV)
            .all(|((w, h), (ew, eh))| w == ew && h == eh);
    assert!(
        matches,
        "WaffleTSV hashes changed; recomputed table:\n{table}"
    );
}
