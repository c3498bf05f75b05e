//! The committed `BENCH_*.json` rate ledgers: each parses as a
//! [`Ledger`], names its bench, records the parallelism it ran on, and
//! shows every gate holding. `cargo bench -p waffle-bench` rewrites them,
//! and `Ledger::write` refuses a failing gate, so a ledger that fails
//! here was edited by hand or written by older code.

use waffle_bench::Ledger;

/// Every rate bench's ledger name (`BENCH_<name>.json`).
const BENCHES: [&str; 5] = ["core", "analysis", "scale", "serve", "oracle"];

fn ledger(bench: &str) -> Ledger {
    let path = format!("{}/BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} is not a ledger: {e}"))
}

#[test]
fn every_committed_ledger_parses_and_names_its_bench() {
    for bench in BENCHES {
        let l = ledger(bench);
        assert_eq!(l.bench, bench);
        assert!(
            l.env.available_parallelism >= 1,
            "{bench}: no parallelism recorded"
        );
        assert!(
            !l.stages.is_empty() && !l.counters.is_empty(),
            "{bench}: empty ledger"
        );
    }
}

#[test]
fn every_committed_gate_holds() {
    for bench in BENCHES {
        for g in ledger(bench).gates {
            assert!(
                g.holds(),
                "BENCH_{bench}.json: gate {} = {} fails {:?}",
                g.name,
                g.value,
                g.bound
            );
        }
    }
}

/// The gates the committed sizes must carry: the simulator's allocation
/// budgets per run and per attempt, the oracle's reduction and allocation
/// claims, serve's floor and flat peak, and scale's flat peak and (at 10M
/// events) its scan speedup.
#[test]
fn committed_ledgers_carry_their_claims() {
    for (bench, gate) in [
        ("core", "alloc/base_run"),
        ("core", "alloc/prep_run"),
        ("core", "alloc/attempt"),
        ("oracle", "grid/tso/b3/state_ratio"),
        ("oracle", "alloc_probe/events"),
        ("serve", "ingest_events_per_sec"),
        ("serve", "ingest_peak_ratio"),
        ("scale", "ooc_peak_ratio"),
        ("scale", "scan_speedup"),
    ] {
        assert!(
            ledger(bench).gates.iter().any(|g| g.name == gate),
            "BENCH_{bench}.json lacks the {gate} gate"
        );
    }
}
