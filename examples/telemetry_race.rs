//! The paper's Fig. 4a case study (ApplicationInsights issue #1106):
//! interfering bugs, with a look inside the analysis.
//!
//! ```sh
//! cargo run --example telemetry_race
//! ```
//!
//! One object carries two bug candidates: a use-before-init (delay the
//! constructor past the handler's use) and a use-after-free (delay the use
//! past the disposal). Exposing either requires delaying one thread while
//! the other runs free; delaying both cancels. This example runs the
//! preparation run and prints the plan — candidates, per-location delay
//! lengths, and the interference set — before letting the detection run
//! expose the bug.

use waffle_repro::analysis::{analyze, AnalyzerConfig};
use waffle_repro::apps::{bug, bug_workload};
use waffle_repro::core::{Detector, Tool};
use waffle_repro::sim::{SimConfig, Simulator};
use waffle_repro::trace::TraceRecorder;

fn main() {
    let spec = bug(10).expect("Bug-10 is ApplicationInsights #1106");
    let workload = bug_workload(10).expect("bug workload exists");
    println!("== {} (issue #{}) ==\n", workload.name, spec.issue);

    // Preparation run: record the delay-free trace.
    let mut recorder = TraceRecorder::new(&workload);
    let prep = Simulator::run(&workload, SimConfig::with_seed(1), &mut recorder);
    let trace = recorder.into_trace();
    println!(
        "preparation run: {} in {} ({} accesses recorded)",
        if prep.manifested() {
            "MANIFESTED"
        } else {
            "clean"
        },
        prep.end_time,
        trace.events.len()
    );

    // Trace analysis: candidate set S, delay lengths, interference set I.
    let plan = analyze(&trace, &AnalyzerConfig::default());
    println!("\ncandidate set S ({} pairs):", plan.candidates.len());
    for c in &plan.candidates {
        println!(
            "  {{{}, {}}} [{}], gap {}, planned delay {}",
            workload.sites.name(c.delay_site),
            workload.sites.name(c.other_site),
            c.kind.label(),
            c.max_gap,
            plan.delay_for(c.delay_site)
        );
    }
    println!("\ninterference set I ({} pairs):", plan.interference.len());
    for (a, b) in plan.interference.iter() {
        println!(
            "  {} <-> {}",
            workload.sites.name(a),
            workload.sites.name(b)
        );
    }
    println!(
        "\npruned by parent-child analysis: {} of {} near-miss observations",
        plan.stats.pruned_ordered, plan.stats.examined
    );

    // Detection.
    let outcome = Detector::new(Tool::waffle()).detect(&workload, 1);
    match &outcome.exposed {
        Some(r) => println!(
            "\ndetection: exposed {} at {} in run {} of {}",
            r.kind.label(),
            r.site,
            r.exposed_in_run,
            r.total_runs
        ),
        None => println!("\ndetection: not exposed"),
    }
}
