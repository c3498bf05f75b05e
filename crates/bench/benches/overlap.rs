//! The §3.3 delay-overlap measurement: the complement of the ratio between
//! the time projection of all delays and the total delay injected, per
//! application, for TSVD (TSV sites) versus WaffleBasic (MemOrder sites).
//!
//! Also reports the §3.3 dynamic-instance observation: the median number
//! of dynamic instances per object-initialization site.

use waffle_apps::all_apps;
use waffle_inject::{OnlinePolicy, OnlineState, Pairing};
use waffle_mem::AccessKind;
use waffle_sim::{SimConfig, Simulator};
use waffle_trace::{TraceRecorder, TraceStats};

fn main() {
    println!("Section 3.3: delay overlap ratios (two runs per test input; run 2 measured)");
    println!(
        "{:<20} | {:>12} {:>14} | {:>16}",
        "App", "Tsvd overlap", "Basic overlap", "median init inst"
    );
    for app in all_apps() {
        let mut tsvd_ratios = Vec::new();
        let mut basic_ratios = Vec::new();
        let mut medians = Vec::new();
        for t in &app.tests {
            let w = &t.workload;
            // TSVD, then WaffleBasic: identification run, then measured run.
            for (pairing, ratios) in [
                (Pairing::Tsv, &mut tsvd_ratios),
                (Pairing::MemOrder, &mut basic_ratios),
            ] {
                let mut st = OnlineState::default();
                for seed in [1u64, 2] {
                    let mut p = OnlinePolicy::new(pairing, st, seed);
                    let r = Simulator::run(w, SimConfig::with_seed(seed), &mut p);
                    st = p.into_state();
                    if seed == 2 && !r.delays.is_empty() {
                        ratios.push(r.delay_overlap_ratio());
                    }
                }
            }
            // Dynamic instances of init sites (delay-free trace).
            let mut rec = TraceRecorder::new(w);
            let _ = Simulator::run(w, SimConfig::with_seed(1), &mut rec);
            let trace = rec.into_trace();
            let stats = TraceStats::compute(&trace);
            if let Some(m) = stats.median_dyn_instances(&trace, |k| k == AccessKind::Init) {
                medians.push(m);
            }
        }
        let avg = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64 * 100.0
            }
        };
        medians.sort_unstable();
        let med = medians.get(medians.len() / 2).copied().unwrap_or(0);
        println!(
            "{:<20} | {:>11.1}% {:>13.1}% | {:>16}",
            app.name,
            avg(&tsvd_ratios),
            avg(&basic_ratios),
            med
        );
    }
    println!();
    println!("(Paper shape: TSVD overlap <1%-15%; WaffleBasic overlap 2-28%; the median");
    println!(" number of dynamic instances for object initializations is 2.)");
}
