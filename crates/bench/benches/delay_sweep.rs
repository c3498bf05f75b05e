//! §4.3's delay-length sensitivity study, reproduced as a sweep.
//!
//! The paper: "decreasing the delay length from 100 to 10 milliseconds
//! would speed up ... NetMQ [by] about 4 times ... Unfortunately, the
//! known MemOrder bug [#814] which could be exposed with delays of 100
//! milliseconds cannot be triggered with delays of only 10 milliseconds
//! even after many runs." This harness sweeps WaffleBasic's fixed delay
//! length on Bug-11 and on NetMQ's background inputs.

use waffle_apps::all_apps;
use waffle_inject::{OnlinePolicy, OnlineState, Pairing};
use waffle_sim::time::ms;
use waffle_sim::{NullMonitor, SimConfig, Simulator};

fn main() {
    let app = all_apps().into_iter().find(|a| a.name == "NetMQ").unwrap();
    let bug = app.bug_workload(11).unwrap().clone();
    let base = Simulator::run(&bug, SimConfig::with_seed(0), &mut NullMonitor).end_time;
    println!("Delay-length sensitivity (WaffleBasic on NetMQ, Bug-11 input, 25-run cap)");
    println!(
        "{:>10} | {:>12} | {:>16} | {:>20}",
        "delay(ms)", "exposed?", "runs to expose", "avg run slowdown"
    );
    for delay_ms in [5u64, 10, 25, 50, 100, 200] {
        let mut state = OnlineState::default();
        let mut exposed = None;
        let mut total = waffle_sim::SimTime::ZERO;
        let mut runs = 0u32;
        for run in 1..=25u64 {
            state.decay = Default::default();
            let mut p = OnlinePolicy::with_params(
                Pairing::MemOrder,
                state,
                run,
                ms(delay_ms),
                OnlinePolicy::DELTA,
            );
            let r = Simulator::run(
                &bug,
                SimConfig {
                    seed: run,
                    deadline: Some(base * 40),
                    ..SimConfig::default()
                },
                &mut p,
            );
            state = p.into_state();
            total += r.end_time;
            runs += 1;
            if r.manifested() && !r.delays.is_empty() {
                exposed = Some(run);
                break;
            }
        }
        let avg_slow = total.as_us() as f64 / (runs as f64 * base.as_us() as f64);
        println!(
            "{:>10} | {:>12} | {:>16} | {:>19.2}x",
            delay_ms,
            if exposed.is_some() { "yes" } else { "NO" },
            exposed.map(|r| r.to_string()).unwrap_or("-".into()),
            avg_slow
        );
    }
    println!();
    println!("(Paper shape: short delays are cheap but cannot flip the ~10ms gap; the");
    println!(" 100ms default exposes the bug at a multiple of the cost — the trade-off");
    println!(" Waffle's per-location variable lengths dissolve.)");
}
