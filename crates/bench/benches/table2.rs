//! Table 2: average number of unique static instrumentation and delay-
//! injection sites for thread-safety violations (TSV) versus MemOrder
//! bugs (MO), across all test inputs per application.
//!
//! Instrumentation sites are static sites of each class that executed;
//! injection sites are the distinct locations the respective tool decides
//! to delay (the Waffle plan's delay locations for MO; TSVD's candidate
//! set after an identification run for TSV).

use waffle_analysis::{analyze, AnalyzerConfig};
use waffle_apps::all_apps;
use waffle_inject::{OnlinePolicy, Pairing};
use waffle_sim::{SimConfig, Simulator};
use waffle_trace::{TraceRecorder, TraceStats};

fn main() {
    println!("Table 2: unique static instrumentation and injection sites (averages per test input)");
    println!(
        "{:<20} | {:>9} {:>9} | {:>9} {:>9}",
        "App", "Instr TSV", "Instr MO", "Inj TSV", "Inj MO"
    );
    for app in all_apps() {
        let mut instr_tsv = 0usize;
        let mut instr_mo = 0usize;
        let mut inj_tsv = 0usize;
        let mut inj_mo = 0usize;
        let n = app.tests.len().max(1);
        for t in &app.tests {
            let w = &t.workload;
            // MO side: preparation run + analysis.
            let mut rec = TraceRecorder::new(w);
            let _ = Simulator::run(w, SimConfig::with_seed(1), &mut rec);
            let trace = rec.into_trace();
            let stats = TraceStats::compute(&trace);
            instr_mo += stats.mem_order_sites;
            instr_tsv += stats.tsv_sites;
            let plan = analyze(&trace, &AnalyzerConfig::default());
            inj_mo += plan.delay_len.len();
            // TSV side: one TSVD identification run.
            let mut tsvd = OnlinePolicy::new(Pairing::Tsv, Default::default(), 1);
            let _ = Simulator::run(w, SimConfig::with_seed(1), &mut tsvd);
            inj_tsv += tsvd.into_state().delay_sites();
        }
        println!(
            "{:<20} | {:>9.1} {:>9.1} | {:>9.1} {:>9.1}",
            app.name,
            instr_tsv as f64 / n as f64,
            instr_mo as f64 / n as f64,
            inj_tsv as f64 / n as f64,
            inj_mo as f64 / n as f64,
        );
    }
    println!();
    println!("(Paper shape: MO instrumentation sites are ~10x or more the TSV sites for");
    println!(" most applications, and MO injection sites dominate TSV injection sites.)");
}
