//! Graphviz export of workloads.
//!
//! Renders a [`crate::workload::Workload`] as a `dot` digraph:
//! one cluster per script with its operations in program order, edges for
//! forks, task spawns, and event signal/wait pairs. Useful for inspecting
//! the benchmark suite's structure and for documenting new workloads.

use std::fmt::Write as _;

use crate::op::Op;
use crate::workload::Workload;

/// Renders the workload as a Graphviz digraph.
pub fn to_dot(w: &Workload) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {:?} {{", w.name);
    let _ = writeln!(out, "  rankdir=TB; node [shape=box, fontsize=9];");
    // Per-script clusters.
    let mut signalers: Vec<(usize, usize, u32)> = Vec::new(); // (script, op, event)
    let mut waiters: Vec<(usize, usize, u32)> = Vec::new();
    let mut forks: Vec<(usize, usize, u32)> = Vec::new(); // target script id
    let mut spawns: Vec<(usize, usize, u32)> = Vec::new();
    for (si, script) in w.scripts.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{si} {{");
        let _ = writeln!(out, "    label={:?};", script.name);
        let mut prev: Option<usize> = None;
        for (oi, op) in script.ops.iter().enumerate() {
            let label = match op {
                Op::Compute { dur } => format!("compute {dur}"),
                Op::Pad { dur } => format!("pad {dur}"),
                Op::Access {
                    obj, kind, site, ..
                } => format!("{kind} {} {obj}", w.sites.name(*site)),
                Op::Fork { script } => {
                    forks.push((si, oi, script.0));
                    format!("fork {}", w.scripts[script.0 as usize].name)
                }
                Op::JoinChildren => "join children".into(),
                Op::Acquire { lock } => format!("acquire {lock}"),
                Op::Release { lock } => format!("release {lock}"),
                Op::SignalEvent { ev } => {
                    signalers.push((si, oi, ev.0));
                    format!("signal {ev}")
                }
                Op::WaitEvent { ev } => {
                    waiters.push((si, oi, ev.0));
                    format!("wait {ev}")
                }
                Op::Throw { site } => format!("throw {}", w.sites.name(*site)),
                Op::SkipIf { obj, cond, skip } => {
                    format!("skip {skip} if {obj} {cond:?}")
                }
                Op::SpawnTask { script } => {
                    spawns.push((si, oi, script.0));
                    format!("spawn task {}", w.scripts[script.0 as usize].name)
                }
                Op::RunTasks => "run tasks".into(),
                Op::Exit => "exit".into(),
                Op::Fence => "fence".into(),
            };
            let _ = writeln!(out, "    n{si}_{oi} [label={label:?}];");
            if let Some(p) = prev {
                let _ = writeln!(out, "    n{si}_{p} -> n{si}_{oi};");
            }
            prev = Some(oi);
        }
        if script.ops.is_empty() {
            let _ = writeln!(out, "    n{si}_0 [label=\"(empty)\"];");
        }
        let _ = writeln!(out, "  }}");
    }
    // Fork and spawn edges to the target script's first op.
    for (si, oi, target) in forks {
        let _ = writeln!(
            out,
            "  n{si}_{oi} -> n{target}_0 [style=bold, color=blue, label=\"fork\"];"
        );
    }
    for (si, oi, target) in spawns {
        let _ = writeln!(
            out,
            "  n{si}_{oi} -> n{target}_0 [style=dashed, color=purple, label=\"spawn\"];"
        );
    }
    // Signal → wait edges per event.
    for (ssi, soi, ev) in &signalers {
        for (wsi, woi, wev) in &waiters {
            if ev == wev {
                let _ = writeln!(
                    out,
                    "  n{ssi}_{soi} -> n{wsi}_{woi} [style=dotted, color=darkgreen];"
                );
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use crate::workload::WorkloadBuilder;

    fn sample() -> Workload {
        let mut b = WorkloadBuilder::new("dot.sample");
        let o = b.object("o");
        let ev = b.event("go");
        let task = b.script("task", move |s| {
            s.use_(o, "T.use:1", us(5));
        });
        let worker = b.script("worker", move |s| {
            s.wait(ev).run_tasks();
        });
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", us(5))
                .fork(worker)
                .spawn_task(task)
                .signal(ev)
                .join_children()
                .dispose(o, "M.dispose:9", us(5));
        });
        b.main(main);
        b.build()
    }

    #[test]
    fn dot_contains_every_script_and_edge_kind() {
        let dot = to_dot(&sample());
        assert!(dot.starts_with("digraph"));
        for needle in [
            "cluster_0",
            "cluster_1",
            "cluster_2",
            "label=\"fork\"",
            "label=\"spawn\"",
            "style=dotted",
            "M.init:1",
            "M.dispose:9",
        ] {
            assert!(dot.contains(needle), "missing {needle} in:\n{dot}");
        }
    }

    #[test]
    fn dot_is_balanced() {
        let dot = to_dot(&sample());
        let open = dot.matches('{').count();
        let close = dot.matches('}').count();
        assert_eq!(open, close);
    }
}
