//! The paper's Fig. 4b case study (NetMQ issue #814): interfering dynamic
//! instances.
//!
//! ```sh
//! cargo run --example netmq_cleanup
//! ```
//!
//! The `ChkDisposed` site is executed by both the worker (the racing
//! access) and the cleanup thread right before it disposes the poller.
//! WaffleBasic delays both dynamic instances with the same fixed length —
//! the cleanup's delay pushes the disposal along, cancelling the worker's
//! delay — so it only exposes the bug when the probability decay happens
//! to skip the cleanup's instance. Waffle's preparation run records the
//! self-interference pair `(ChkDisposed, ChkDisposed)` in `I`, suppresses
//! the cleanup's delay, and exposes the bug in its first detection run.

use waffle_repro::apps::{bug, bug_workload};
use waffle_repro::core::{Detector, DetectorConfig, Tool};

fn main() {
    let spec = bug(11).expect("Bug-11 is NetMQ #814");
    let workload = bug_workload(11).expect("bug workload exists");
    println!("== {} (issue #{}) ==", workload.name, spec.issue);
    println!("{}\n", spec.summary);

    for (tool, name, budget) in [
        (Tool::waffle_basic(), "WaffleBasic", 15u32),
        (Tool::waffle(), "Waffle", 5),
    ] {
        let det = Detector::with_config(
            tool,
            DetectorConfig {
                max_detection_runs: budget,
                ..DetectorConfig::default()
            },
        );
        let outcome = det.detect(&workload, 1);
        println!("{name}:");
        println!("  base time       : {}", outcome.base_time);
        println!("  runs used       : {}", outcome.total_runs());
        println!(
            "  delays injected : {} (cumulative {})",
            outcome.total_delays(),
            outcome.total_delay_duration()
        );
        match &outcome.exposed {
            Some(r) => println!(
                "  exposed         : {} at {} in run {} ({:.1}x slowdown)\n",
                r.kind.label(),
                r.site,
                r.exposed_in_run,
                outcome.slowdown()
            ),
            None => println!(
                "  exposed         : no — the parallel delays at the two \
                 ChkDisposed instances kept cancelling\n"
            ),
        }
    }
}
