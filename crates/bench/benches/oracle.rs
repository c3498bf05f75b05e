//! `oracle`: sleep-set partial-order reduction vs the naive bounded
//! explorer, written to `BENCH_oracle.json`.
//!
//! Two populations, each explored reduced and naive at bounds 2/3/4 under
//! every memory model:
//!
//! * `generated` — fixed generator seeds, the same distribution the fuzz
//!   sweeps run; small per-case spaces, so this population mostly pins
//!   verdict identity across a broad shape mix;
//! * `grid` — independent per-thread objects, the drain-rich shape where
//!   interleaving explosion actually lives: under a weak model every
//!   thread's buffered stores commute with every other thread's, and the
//!   naive explorer enumerates all their orders.
//!
//! Every single case asserts reduced verdict == naive verdict before the
//! report is written — the ratios are measurements of a
//! verdict-preserving optimization, never of a lossy one.
//!
//! Each row's counters are `<population>/<model>/b<bound>/…`; its
//! `reduced` and `naive` stages time the explorations (`count` = frontier
//! states). Under sc the reduced explorer first tries the
//! must-happen-before certificate, which answers with zero states; sc
//! rows count the cases it answered in `static_certified`. Two gates:
//! 1. `grid/tso/b3/state_ratio` ≥ 5: grid under TSO at bound 3 explores
//!    at least 5× fewer frontier states reduced than naive;
//! 2. `alloc_probe/events` under half the probe's frontier states: the
//!    hot loop (clone-on-branch frames, a state encoding packed straight
//!    into the fingerprint, an exact open-addressing memo) allocates only
//!    on depth growth and table growth, not per state.
//!
//! `alloc_probe/peak_bytes` is the probe's exact peak heap on top of what
//! was live when it began; no gate holds it, but CI's counter diff shows
//! any change in how far the memo (16-byte slots, grown at 3/4 load)
//! regrows.

use std::time::Instant;

use waffle_bench::{alloc, Ledger};
use waffle_fuzz::{explore, generate_case_for_model, OracleConfig, OracleReport};
use waffle_sim::time::us;
use waffle_sim::{MemoryModel, Workload, WorkloadBuilder};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Generator seeds per model for the `generated` population.
const SEEDS: u64 = 10;
/// Worker threads in the `grid` workload.
const GRID_THREADS: u32 = 5;
/// Preemption bounds swept.
const BOUNDS: [u32; 3] = [2, 3, 4];
/// Shared state cap (never reached by these populations; identical on
/// both sides so a hypothetical truncation would still compare equal).
const CAP: u64 = 2_000_000;

fn model_name(m: MemoryModel) -> &'static str {
    match m {
        MemoryModel::Sc => "sc",
        MemoryModel::Tso => "tso",
        MemoryModel::Pso => "pso",
    }
}

/// Independent per-thread objects: `n` workers each init + use their own
/// object, main forks all and joins. Every cross-thread interleaving of
/// accesses (and, weakly, buffered-store drains) commutes.
fn grid(n: u32) -> Workload {
    let mut b = WorkloadBuilder::new("bench.oracle_grid");
    let mut scripts = Vec::new();
    for i in 0..n {
        let o = b.object(&format!("obj{i}"));
        scripts.push(b.script(format!("w{i}"), move |s| {
            s.init(o, "w.init", us(5)).use_(o, "w.use", us(5));
        }));
    }
    let m = b.script("main", move |s| {
        for &sc in &scripts {
            s.fork(sc);
        }
        s.join_children();
    });
    b.main(m);
    b.build()
}

fn run(w: &Workload, model: MemoryModel, bound: u32, reduce: bool) -> OracleReport {
    explore(
        w,
        &OracleConfig {
            preemption_bound: bound,
            max_states: CAP,
            memory: model,
            reduce,
        },
    )
}

fn edges(r: &OracleReport) -> u64 {
    r.states_explored + r.memo_hits + r.revisits
}

/// Explores every workload reduced and naive, asserts verdict identity
/// per case, and records one row; returns the row's naive-over-reduced
/// frontier state ratio.
fn row(
    ledger: &mut Ledger,
    population: &str,
    workloads: &[Workload],
    model: MemoryModel,
    bound: u32,
) -> f64 {
    let (mut r_states, mut n_states, mut r_edges, mut n_edges) = (0u64, 0u64, 0u64, 0u64);
    let (mut prunes, mut hits, mut r_wall, mut n_wall) = (0u64, 0u64, 0u64, 0u64);
    let mut certified = 0u64;
    for w in workloads {
        let t0 = Instant::now();
        let r = run(w, model, bound, true);
        r_wall += t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let n = run(w, model, bound, false);
        n_wall += t1.elapsed().as_nanos() as u64;
        assert_eq!(
            r.verdict,
            n.verdict,
            "verdict diverged on {} ({} bound {bound})",
            w.name,
            model_name(model)
        );
        r_states += r.states_explored;
        n_states += n.states_explored;
        r_edges += edges(&r);
        n_edges += edges(&n);
        prunes += r.sleep_prunes;
        hits += r.memo_hits;
        certified += u64::from(r.static_certified);
    }
    let key = format!("{population}/{}/b{bound}", model_name(model));
    let ratio = n_states as f64 / r_states as f64;
    println!(
        "{key:>18}: states {r_states} vs {n_states} ({ratio:.2}x), edges {r_edges} vs {n_edges}, \
         prunes {prunes}, wall {:.1}ms vs {:.1}ms",
        r_wall as f64 / 1e6,
        n_wall as f64 / 1e6,
    );
    ledger
        .stage(&format!("{key}/reduced"), r_wall, r_states)
        .stage(&format!("{key}/naive"), n_wall, n_states);
    for (name, value) in [
        ("cases", workloads.len() as u64),
        ("reduced_states", r_states),
        ("naive_states", n_states),
        ("reduced_edges", r_edges),
        ("naive_edges", n_edges),
        ("sleep_prunes", prunes),
        ("memo_hits", hits),
    ] {
        ledger.counter(&format!("{key}/{name}"), value);
    }
    if model == MemoryModel::Sc {
        ledger.counter(&format!("{key}/static_certified"), certified);
    }
    ratio
}

fn main() {
    let mut ledger = Ledger::new("oracle");
    ledger
        .param("seeds", SEEDS)
        .param("grid_threads", u64::from(GRID_THREADS));
    let models = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];
    let mut verdicts_checked = 0u64;

    let grid_w = [grid(GRID_THREADS)];
    for model in models {
        let generated: Vec<Workload> = (0..SEEDS)
            .map(|s| generate_case_for_model(s, model).workload)
            .collect();
        for bound in BOUNDS {
            row(&mut ledger, "generated", &generated, model, bound);
            let ratio = row(&mut ledger, "grid", &grid_w, model, bound);
            verdicts_checked += generated.len() as u64 + 1;
            if model == MemoryModel::Tso && bound == 3 {
                ledger.min("grid/tso/b3/state_ratio", ratio, 5.0);
            }
        }
    }
    ledger.counter("verdicts_checked", verdicts_checked);

    // Allocation probe: a full naive exploration of the grid under TSO at
    // bound 3 visits thousands of states; the explorer may allocate on
    // depth growth, memo growth, and witness assembly — never per state.
    // The gate keeps the events under half the states.
    let before = alloc::calls();
    let base = alloc::reset_peak();
    let probe = run(&grid_w[0], MemoryModel::Tso, 3, false);
    let peak_bytes = alloc::peak() - base;
    let alloc_events = alloc::calls() - before;
    let states = probe.states_explored;
    assert!(alloc_events > 0, "the counting allocator saw no allocation");
    println!(
        "alloc probe: {alloc_events} allocation events, peak {peak_bytes} bytes over {states} states"
    );
    ledger
        .counter("alloc_probe/events", alloc_events)
        .counter("alloc_probe/peak_bytes", peak_bytes)
        .counter("alloc_probe/states", states)
        .max(
            "alloc_probe/events",
            alloc_events as f64,
            (states / 2) as f64 - 1.0,
        )
        .write();
}
