//! A conservative must-happen-before certifier: proves a program clean
//! under sequential consistency from its text, without exploring one
//! schedule.
//!
//! The generator builds each control so that every init, use and
//! dispose is ordered by fork, event or join edges, and an event-edge
//! repair adds exactly such an edge. That is a property of the program,
//! not of its schedules, and this module checks it directly — the static
//! form of the parent → child ordering the paper's analyzer tracks with
//! vector clocks (§4.2).
//!
//! **The fragment.** Every op of every script the main script reaches is
//! `Compute`, `Pad`, `Access`, `Fork`, `JoinChildren`, `Acquire`,
//! `Release`, `SignalEvent` or `WaitEvent`. Each reachable script runs
//! once: main is never forked, and every other script is forked by at
//! most one op. Each event that is signalled or awaited has exactly one
//! `SignalEvent` op. A lock region (`Acquire` to the matching `Release`
//! in one script) holds one lock, contains no op that can block (no
//! `WaitEvent`, `JoinChildren` or nested `Acquire`), and is closed before
//! the script ends. Anything else answers "unknown".
//!
//! **The rule.** One node per op and one end node per thread; edges for
//! program order, fork → child's first node, child's end → each later
//! `JoinChildren` of its parent, and the one signal → each wait. The
//! program is certified when this graph is acyclic and every object
//! whose reference is read or disposed has exactly one `Init` and at
//! most one `Dispose`, with the `Init` ordered before every `Use`,
//! `UnsafeApiCall` and the `Dispose`, and every `Use` and
//! `UnsafeApiCall` ordered before the `Dispose`.
//!
//! **Why it implies the bounded verdict.** Every edge is enforced by the
//! machine in every schedule: a child starts after its fork, a join
//! completes after the children it names exit, and a wait completes
//! after its event's only signal. So every read finds its object live
//! (the one init has run, the one dispose has not) and the dispose
//! finds it live: no schedule faults. No schedule deadlocks either: in a
//! state where some thread is not done, take an unexecuted node whose
//! graph predecessors all ran (the graph is acyclic). Its thread exists
//! and is parked on it. A wait there has seen its signal, and a join its
//! children's exits. An `Acquire` there waits on a holder whose
//! remaining region cannot block. So some thread is ready, and the state
//! is not terminal. The bounded explorer visits a subset of these
//! schedules, and its terminal states are genuine ones, so it would find
//! `CleanWithinBound` with zero deadlocks. The certificate covers every
//! schedule, so it also holds where the search would hit its state cap.

use waffle_mem::AccessKind;
use waffle_sim::{Op, Workload};

/// Work units (ops laid out, edges walked) the certifier spends before
/// it answers "unknown", like `Workload::reachable_accesses`' walk.
const FUEL: usize = 1 << 16;

/// Whether every schedule of `w` under sequential consistency completes
/// without a NULL-reference exception and without a deadlock, proven
/// from the program's must-happen-before graph. `false` means unknown.
pub(crate) fn certify(w: &Workload) -> bool {
    let mut fuel = FUEL;
    certify_within(w, &mut fuel).is_some()
}

/// [`certify`] with an explicit budget; `None` is "unknown".
fn certify_within(w: &Workload, fuel: &mut usize) -> Option<()> {
    let g = Graph::build(w, fuel)?;
    let fwd = Adjacency::new(g.nodes, g.edges.iter().copied());
    let back = Adjacency::new(g.nodes, g.edges.iter().map(|&(a, b)| (b, a)));
    acyclic(&fwd, &back, fuel)?;

    // Stamped marks: node `v` is reached by walk `k` iff `marks[v] == k`.
    let mut marks = vec![0u32; g.nodes as usize];
    let mut stack = Vec::new();
    let mut stamp = 0u32;
    let mut accesses = g.accesses;
    accesses.sort_unstable_by_key(|a| a.0);
    let mut rest = &accesses[..];
    while let Some(&(obj, ..)) = rest.first() {
        let (group, tail) = rest.split_at(rest.iter().take_while(|a| a.0 == obj).count());
        rest = tail;
        let init = only(group, AccessKind::Init)?;
        let dispose = only(group, AccessKind::Dispose)?;
        let mut reads = group
            .iter()
            .filter(|a| matches!(a.1, AccessKind::Use | AccessKind::UnsafeApiCall))
            .map(|a| a.2);
        let Some(init) = init else {
            // Reading or disposing a never-initialized object faults.
            if reads.next().is_some() || dispose.is_some() {
                return None;
            }
            continue;
        };
        stamp += 1;
        mark(&fwd, init, stamp, &mut marks, &mut stack, fuel)?;
        let after_init = |v: u32| marks[v as usize] == stamp;
        if !reads.clone().all(after_init) || !dispose.is_none_or(after_init) {
            return None;
        }
        if let Some(d) = dispose {
            stamp += 1;
            mark(&back, d, stamp, &mut marks, &mut stack, fuel)?;
            if !reads.all(|v| marks[v as usize] == stamp) {
                return None;
            }
        }
    }
    Some(())
}

/// The node of the one access of kind `k` in `group`: `Some(None)` when
/// there is none, `None` when there are two or more.
fn only(group: &[(u32, AccessKind, u32)], k: AccessKind) -> Option<Option<u32>> {
    let mut nodes = group.iter().filter(|a| a.1 == k).map(|a| a.2);
    let first = nodes.next();
    nodes.next().is_none().then_some(first)
}

/// The must-happen-before graph of a program in the fragment.
struct Graph {
    nodes: u32,
    /// `(from, to)`: program order, fork → child start, child end →
    /// join, and signal → wait.
    edges: Vec<(u32, u32)>,
    /// `(object, kind, node)` of every access.
    accesses: Vec<(u32, AccessKind, u32)>,
}

impl Graph {
    /// Lays out each thread's ops from main, in fork order; `None` when
    /// the program leaves the fragment or the fuel runs out.
    fn build(w: &Workload, fuel: &mut usize) -> Option<Self> {
        let mut started = vec![false; w.scripts.len()];
        *started.get_mut(w.main.0 as usize)? = true;
        // Threads in discovery order: script and the node that forked it.
        let mut threads = vec![(w.main, None)];
        let mut ends = Vec::new();
        let mut joins = Vec::new();
        let mut signals = vec![None; w.n_events as usize];
        let mut waits = Vec::new();
        let mut g = Graph {
            nodes: 0,
            edges: Vec::new(),
            accesses: Vec::new(),
        };
        let mut t = 0;
        while let Some(&(script, fork)) = threads.get(t) {
            if let Some(f) = fork {
                g.edges.push((f, g.nodes));
            }
            // Children a thread forks are discovered while it is laid
            // out, so they are the threads from here on.
            let first_child = threads.len();
            let mut held = None;
            for op in &w.scripts.get(script.0 as usize)?.ops {
                *fuel = fuel.checked_sub(1)?;
                let v = g.nodes;
                match *op {
                    Op::Compute { .. } | Op::Pad { .. } => {}
                    Op::Access { obj, kind, .. } if obj.0 < w.n_objects => {
                        g.accesses.push((obj.0, kind, v));
                    }
                    Op::Fork { script } => {
                        if std::mem::replace(started.get_mut(script.0 as usize)?, true) {
                            return None;
                        }
                        threads.push((script, Some(v)));
                    }
                    Op::JoinChildren if held.is_none() => {
                        joins.extend((first_child..threads.len()).map(|c| (c, v)));
                    }
                    Op::Acquire { lock } if held.is_none() => held = Some(lock),
                    Op::Release { lock } if held == Some(lock) => held = None,
                    Op::SignalEvent { ev } => {
                        if signals.get_mut(ev.0 as usize)?.replace(v).is_some() {
                            return None;
                        }
                    }
                    Op::WaitEvent { ev } if held.is_none() => waits.push((ev.0 as usize, v)),
                    _ => return None,
                }
                // Program order; the last op's successor is the end node.
                g.edges.push((v, v + 1));
                g.nodes += 1;
            }
            if held.is_some() {
                return None;
            }
            ends.push(g.nodes);
            g.nodes = g.nodes.checked_add(1)?;
            t += 1;
        }
        for (child, join) in joins {
            g.edges.push((ends[child], join));
        }
        for (ev, wait) in waits {
            g.edges.push((signals[ev]?, wait));
        }
        Some(g)
    }
}

/// Compressed rows: node `v`'s successors are `to[at[v]..at[v + 1]]`.
struct Adjacency {
    at: Vec<u32>,
    to: Vec<u32>,
}

impl Adjacency {
    fn new(nodes: u32, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut at = vec![0u32; nodes as usize + 1];
        for (a, _) in edges.clone() {
            at[a as usize + 1] += 1;
        }
        for v in 0..nodes as usize {
            at[v + 1] += at[v];
        }
        let mut next = at.clone();
        let mut to = vec![0u32; at[nodes as usize] as usize];
        for (a, b) in edges {
            to[next[a as usize] as usize] = b;
            next[a as usize] += 1;
        }
        Self { at, to }
    }

    fn of(&self, v: u32) -> &[u32] {
        &self.to[self.at[v as usize] as usize..self.at[v as usize + 1] as usize]
    }
}

/// `Some` when the graph has no cycle (Kahn's algorithm).
fn acyclic(fwd: &Adjacency, back: &Adjacency, fuel: &mut usize) -> Option<()> {
    let n = fwd.at.len() - 1;
    let mut indegree: Vec<u32> = (0..n as u32).map(|v| back.of(v).len() as u32).collect();
    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    let mut done = 0;
    while let Some(v) = ready.pop() {
        done += 1;
        for &u in fwd.of(v) {
            *fuel = fuel.checked_sub(1)?;
            indegree[u as usize] -= 1;
            if indegree[u as usize] == 0 {
                ready.push(u);
            }
        }
    }
    (done == n).then_some(())
}

/// Stamps every node reachable from `from` (itself included).
fn mark(
    adj: &Adjacency,
    from: u32,
    stamp: u32,
    marks: &mut [u32],
    stack: &mut Vec<u32>,
    fuel: &mut usize,
) -> Option<()> {
    marks[from as usize] = stamp;
    stack.push(from);
    while let Some(v) = stack.pop() {
        for &u in adj.of(v) {
            *fuel = fuel.checked_sub(1)?;
            if marks[u as usize] != stamp {
                marks[u as usize] = stamp;
                stack.push(u);
            }
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_sim::time::us;
    use waffle_sim::WorkloadBuilder;

    /// Main forks `s`, and `s` forks itself: each laid-out fork would
    /// start another copy, so the walk must stop at the repeat.
    #[test]
    fn a_self_forking_script_is_unknown_within_the_fuel() {
        let mut b = WorkloadBuilder::new("order.self_fork");
        let o = b.object("o");
        let s = waffle_sim::ScriptId(0);
        let spawner = b.script("spawner", move |sc| {
            sc.use_(o, "spawner.use", us(1)).fork(s);
        });
        assert_eq!(spawner, s);
        let m = b.script("main", move |sc| {
            sc.init(o, "main.init", us(1)).fork(spawner).join_children();
        });
        b.main(m);
        let w = b.build();
        let mut fuel = 64;
        assert!(certify_within(&w, &mut fuel).is_none());
        assert!(fuel > 0, "refused by the fork rule, not by running dry");
        assert!(!certify(&w));
    }

    /// A program larger than the fuel is unknown, however well ordered.
    #[test]
    fn the_fuel_caps_the_work() {
        let mut b = WorkloadBuilder::new("order.long");
        let o = b.object("o");
        let m = b.script("main", move |sc| {
            sc.init(o, "main.init", us(1));
            for _ in 0..FUEL {
                sc.compute(us(1));
            }
            sc.use_(o, "main.use", us(1));
        });
        b.main(m);
        assert!(!certify(&b.build()));
    }

    /// One thread: init, use, dispose in program order.
    #[test]
    fn program_order_alone_certifies() {
        let mut b = WorkloadBuilder::new("order.seq");
        let o = b.object("o");
        let m = b.script("main", move |sc| {
            sc.init(o, "i", us(1))
                .use_(o, "u", us(1))
                .dispose(o, "d", us(1));
        });
        b.main(m);
        assert!(certify(&b.build()));
    }
}
