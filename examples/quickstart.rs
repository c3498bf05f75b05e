//! Quickstart: model a racy teardown, let Waffle expose it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The workload models a connection that a worker thread polls while the
//! main thread tears it down — nothing orders the poll against the
//! disposal, but under normal timing the poll always wins. Waffle's
//! preparation run spots the near miss, plans a delay of α·gap at the
//! poll, and the first detection run flips the order.

use waffle_repro::core::{Detector, Tool};
use waffle_repro::sim::time::{ms, us};
use waffle_repro::sim::WorkloadBuilder;

fn main() {
    // 1. Describe the program under test as a workload: objects, threads
    //    (scripts), synchronization, and instrumented heap accesses.
    let mut b = WorkloadBuilder::new("quickstart.connection_teardown");
    let conn = b.object("connection");
    let started = b.event("started");
    let worker = b.script("poller", move |s| {
        s.wait(started)
            .compute(ms(10)) // process a packet batch
            .use_(conn, "Poller.read_socket:42", us(80));
    });
    let main = b.script("main", move |s| {
        s.init(conn, "Client.connect:17", us(200))
            .fork(worker)
            .signal(started)
            .compute(ms(35)) // unrelated shutdown work
            .dispose(conn, "Client.teardown:88", us(100))
            .join_children();
    });
    b.main(main);
    let workload = b.build();

    // 2. Run the full Waffle workflow: preparation run, trace analysis,
    //    then detection runs with plan-guided delay injection.
    let outcome = Detector::new(Tool::waffle()).detect(&workload, 1);

    // 3. Inspect the report.
    println!("workload : {}", outcome.workload);
    println!("base time: {}", outcome.base_time);
    match &outcome.exposed {
        Some(report) => {
            println!("\nMemOrder bug exposed!");
            println!("  class    : {}", report.kind.label());
            println!("  location : {}", report.site);
            println!("  object   : {}", report.obj);
            println!(
                "  run      : {} of {} total runs",
                report.exposed_in_run, report.total_runs
            );
            println!(
                "  delays   : {} injected in the exposing run",
                report.delays_in_run
            );
            println!("  delayed  : {}", report.delayed_sites.join(", "));
            println!("  slowdown : {:.1}x vs uninstrumented", outcome.slowdown());
        }
        None => println!("\nno bug exposed (try more detection runs)"),
    }
}
