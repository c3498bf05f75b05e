//! Common concurrency patterns used to build background (bug-free) tests.
//!
//! Every pattern is carefully synchronized so that *no* delay schedule can
//! produce a NULL-reference exception — orderings that matter are enforced
//! by joins or events, which injected delays propagate through. They still
//! produce realistic analysis inputs: near-miss candidates (event/join
//! ordered uses and disposals), fork-ordered pairs for the parent–child
//! pruning to remove, thread-unsafe API call sites for the TSV tooling,
//! and heap-access densities ranging from light (FluentAssertions-like) to
//! heavy (NpgSQL-like).

use waffle_sim::time::{ms, us};
use waffle_sim::{SimTime, Workload, WorkloadBuilder};

/// A fork/join worker pool.
///
/// Main initializes `n_objects` objects (right before the forks — the
/// classic pattern §4.1 prunes), forks `n_workers` workers that each use
/// every object, joins, then disposes everything. The init→use pairs are
/// fork-ordered (pruned by parent–child analysis; candidates for the
/// ablation); the use→dispose pairs are join-ordered (kept as candidates,
/// never exposable).
pub fn worker_pool(
    name: &str,
    n_objects: u32,
    n_workers: u32,
    work_per_item: SimTime,
    padding: SimTime,
) -> Workload {
    let mut b = WorkloadBuilder::new(name);
    let objs = b.objects("item", n_objects);
    let started = b.event("started");
    let objs_w = objs.clone();
    let worker = b.script("worker", move |s| {
        // Worker start-up latency: the pooled objects are first touched
        // ~40 ms after their allocation — inside the near-miss window, so
        // the alloc→use pairs are exactly the fork-ordered candidates the
        // parent–child analysis prunes (Table 7 row 1 pays α·40 ms per
        // allocation site without it).
        s.wait(started).pad(ms(40));
        for (i, o) in objs_w.iter().enumerate() {
            s.compute(work_per_item)
                .use_(*o, &format!("Worker.process:{i}"), us(20));
        }
    });
    let objs_m = objs.clone();
    let main = b.script("main", move |s| {
        s.pad(padding);
        // Each allocation site executes twice per run — allocate, then
        // reconfigure — matching the §3.3 observation that object
        // initializations have a median of 2 dynamic instances.
        for (i, o) in objs_m.iter().enumerate() {
            s.init(*o, &format!("Main.alloc:{i}"), us(30));
        }
        for (i, o) in objs_m.iter().enumerate() {
            s.init(*o, &format!("Main.alloc:{i}"), us(30));
        }
        s.fork_n(worker, n_workers).signal(started).join_children();
        for (i, o) in objs_m.iter().enumerate() {
            s.dispose(*o, &format!("Main.release:{i}"), us(20));
        }
        s.pad(padding);
    });
    b.main(main);
    b.build()
}

/// A producer/consumer in batches.
///
/// The producer initializes each batch of messages then signals the batch
/// event; the consumer waits for the signal before using the messages.
/// Use→dispose pairs are event-ordered (safe candidates).
pub fn producer_consumer(
    name: &str,
    n_batches: u32,
    batch: u32,
    item_work: SimTime,
    padding: SimTime,
) -> Workload {
    let mut b = WorkloadBuilder::new(name);
    let msgs = b.objects("msg", n_batches * batch);
    let ready: Vec<_> = (0..n_batches)
        .map(|i| b.event(&format!("batch{i}")))
        .collect();
    let done: Vec<_> = (0..n_batches)
        .map(|i| b.event(&format!("done{i}")))
        .collect();
    let msgs_c = msgs.clone();
    let ready_c = ready.clone();
    let done_c = done.clone();
    let consumer = b.script("consumer", move |s| {
        for bi in 0..n_batches {
            s.wait(ready_c[bi as usize]);
            for j in 0..batch {
                let m = msgs_c[(bi * batch + j) as usize];
                s.compute(item_work)
                    .use_(m, &format!("Consumer.handle:{j}"), us(15));
            }
            s.signal(done_c[bi as usize]);
        }
    });
    let msgs_p = msgs.clone();
    let main = b.script("main", move |s| {
        s.pad(padding).fork(consumer);
        for bi in 0..n_batches {
            for j in 0..batch {
                let m = msgs_p[(bi * batch + j) as usize];
                s.init(m, &format!("Producer.make:{j}"), us(25));
            }
            s.signal(ready[bi as usize]);
            s.wait(done[bi as usize]);
            for j in 0..batch {
                let m = msgs_p[(bi * batch + j) as usize];
                s.dispose(m, &format!("Producer.recycle:{j}"), us(10));
            }
        }
        s.join_children();
    });
    b.main(main);
    b.build()
}

/// Connection-cache churn: repeated init/use/dispose cycles with heavy
/// heap traffic (the NpgSQL/MQTT.Net density profile). Disposal of each
/// round's connections is gated on the round-done event.
pub fn cache_churn(
    name: &str,
    rounds: u32,
    conns_per_round: u32,
    round_work: SimTime,
    padding: SimTime,
) -> Workload {
    let mut b = WorkloadBuilder::new(name);
    let conns = b.objects("conn", rounds * conns_per_round);
    let round_ready: Vec<_> = (0..rounds).map(|i| b.event(&format!("r{i}"))).collect();
    let round_done: Vec<_> = (0..rounds).map(|i| b.event(&format!("d{i}"))).collect();
    let conns_w = conns.clone();
    let ready_w = round_ready.clone();
    let done_w = round_done.clone();
    let worker = b.script("worker", move |s| {
        for r in 0..rounds {
            s.wait(ready_w[r as usize]);
            for c in 0..conns_per_round {
                let conn = conns_w[(r * conns_per_round + c) as usize];
                s.compute(round_work)
                    .use_(conn, &format!("Worker.query:{c}"), us(30))
                    .use_(conn, &format!("Worker.read:{c}"), us(20));
            }
            s.signal(done_w[r as usize]);
        }
    });
    let conns_m = conns.clone();
    let main = b.script("main", move |s| {
        s.pad(padding).fork(worker);
        for r in 0..rounds {
            for c in 0..conns_per_round {
                let conn = conns_m[(r * conns_per_round + c) as usize];
                s.init(conn, &format!("Pool.open:{c}"), us(40));
            }
            s.signal(round_ready[r as usize]);
            s.wait(round_done[r as usize]);
            for c in 0..conns_per_round {
                let conn = conns_m[(r * conns_per_round + c) as usize];
                s.dispose(conn, &format!("Pool.close:{c}"), us(25));
            }
        }
        s.join_children();
    });
    b.main(main);
    b.build()
}

/// Concurrent thread-unsafe dictionary traffic (no MemOrder candidates;
/// the TSV instrumentation class for Table 2). Calls are spaced 90 ms
/// apart — inside the 100 ms near-miss window, so TSVD identifies the
/// pairs, but far enough that a 100 ms delay overlaps a neighbouring
/// delay only marginally (the low TSVD overlap ratios of §3.3).
pub fn shared_dict(
    name: &str,
    rounds: u32,
    n_threads: u32,
    call_window: SimTime,
    padding: SimTime,
) -> Workload {
    let mut b = WorkloadBuilder::new(name);
    let dict = b.object("dict");
    let started = b.event("started");
    // Time-slot schedule: all threads re-anchor on the start event, thread
    // t owns slot `t·slot` within each `period`.
    let slot = ms(98);
    let period = slot * (n_threads as u64 + 1);
    let workers: Vec<_> = (0..n_threads)
        .map(|k| {
            b.script(format!("worker{k}"), move |s| {
                s.wait(started).pad(slot * k as u64);
                s.repeat(rounds, |s, r| {
                    s.unsafe_call(dict, &format!("Worker.Add:{r}"), call_window)
                        .pad(period - call_window);
                });
            })
        })
        .collect();
    let main = b.script("main", move |s| {
        s.pad(padding).init(dict, "Main.ctor:1", us(30));
        for w in &workers {
            s.fork(*w);
        }
        s.signal(started).pad(slot * n_threads as u64);
        s.repeat(rounds, |s, r| {
            s.unsafe_call(dict, &format!("Main.Get:{r}"), call_window)
                .pad(period - call_window);
        });
        s.join_children().dispose(dict, "Main.drop:9", us(20));
    });
    b.main(main);
    b.build()
}

/// A staged pipeline: stage k's thread initializes items for stage k+1 and
/// signals; each handoff is event-ordered.
pub fn pipeline(name: &str, stages: u32, items: u32, stage_work: SimTime) -> Workload {
    let mut b = WorkloadBuilder::new(name);
    let cells: Vec<Vec<_>> = (0..stages)
        .map(|s| b.objects(&format!("stage{s}"), items))
        .collect();
    let handoff: Vec<_> = (0..stages).map(|i| b.event(&format!("h{i}"))).collect();
    let mut stage_scripts = Vec::new();
    for st in 0..stages as usize {
        let mine = cells[st].clone();
        let next = if st + 1 < stages as usize {
            Some(cells[st + 1].clone())
        } else {
            None
        };
        let wait_ev = handoff[st];
        let sig_ev = handoff.get(st + 1).copied();
        let script = b.script(format!("stage{st}"), move |s| {
            s.wait(wait_ev);
            for (i, o) in mine.iter().enumerate() {
                s.compute(stage_work)
                    .use_(*o, &format!("Stage{st}.work:{i}"), us(20));
            }
            if let Some(next_cells) = next {
                for (i, o) in next_cells.iter().enumerate() {
                    s.init(*o, &format!("Stage{st}.emit:{i}"), us(20));
                }
            }
            if let Some(ev) = sig_ev {
                s.signal(ev);
            }
        });
        stage_scripts.push(script);
    }
    let first_cells = cells[0].clone();
    let ev0 = handoff[0];
    let main = b.script("main", move |s| {
        for (i, o) in first_cells.iter().enumerate() {
            s.init(*o, &format!("Main.seed:{i}"), us(20));
        }
        for sc in &stage_scripts {
            s.fork(*sc);
        }
        s.signal(ev0).join_children();
    });
    b.main(main);
    b.build()
}

/// Barrier-phased computation: `n_workers` workers process shared state in
/// lockstep phases, each phase gated by a pair of events ("arrive" /
/// "release") driven by a coordinator — the classic barrier shape. Objects
/// live for exactly one phase; hand-offs are fully event-ordered.
pub fn barrier_phases(
    name: &str,
    phases: u32,
    n_workers: u32,
    phase_work: SimTime,
    padding: SimTime,
) -> Workload {
    let mut b = WorkloadBuilder::new(name);
    let state = b.objects("phase_state", phases);
    let release: Vec<_> = (0..phases).map(|i| b.event(&format!("rel{i}"))).collect();
    let arrived: Vec<_> = (0..phases * n_workers)
        .map(|i| b.event(&format!("arr{i}")))
        .collect();
    // One arrive event per (phase, worker): the coordinator collects a
    // phase's state only after *every* worker arrived — a true barrier.
    let workers: Vec<_> = (0..n_workers)
        .map(|k| {
            let state = state.clone();
            let release = release.clone();
            let arrived = arrived.clone();
            b.script(format!("worker{k}"), move |s| {
                for p in 0..state.len() {
                    s.wait(release[p])
                        .compute(phase_work)
                        .use_(state[p], &format!("Worker.phase:{p}"), us(25))
                        .signal(arrived[p * n_workers as usize + k as usize]);
                }
            })
        })
        .collect();
    let state_m = state.clone();
    let main = b.script("coordinator", move |s| {
        s.pad(padding);
        for w in &workers {
            s.fork(*w);
        }
        for p in 0..state_m.len() {
            s.init(state_m[p], &format!("Coord.prepare:{p}"), us(40))
                .signal(release[p]);
            for k in 0..n_workers as usize {
                s.wait(arrived[p * n_workers as usize + k]);
            }
            s.compute(phase_work)
                .dispose(state_m[p], &format!("Coord.collect:{p}"), us(25));
        }
        s.join_children().pad(padding);
    });
    b.main(main);
    b.build()
}

/// A retry loop: the client opens a connection, uses it, tears it down and
/// *re-initializes the same object* on the next attempt — exercising the
/// heap model's Disposed → Live resurrection on one static site per
/// operation, `attempts` dynamic instances each.
pub fn retry_loop(name: &str, attempts: u32, attempt_work: SimTime, padding: SimTime) -> Workload {
    let mut b = WorkloadBuilder::new(name);
    let conn = b.object("conn");
    let try_done: Vec<_> = (0..attempts).map(|i| b.event(&format!("try{i}"))).collect();
    let acked: Vec<_> = (0..attempts).map(|i| b.event(&format!("ack{i}"))).collect();
    let try_done_w = try_done.clone();
    let acked_w = acked.clone();
    let worker = b.script("prober", move |s| {
        for (ev, ack) in try_done_w.iter().zip(&acked_w) {
            s.wait(*ev)
                .compute(attempt_work)
                .use_(conn, "Prober.ping", us(30))
                .signal(*ack);
        }
    });
    let main = b.script("client", move |s| {
        s.pad(padding).fork(worker);
        for (ev, ack) in try_done.iter().zip(&acked) {
            s.init(conn, "Client.connect", us(50))
                .signal(*ev)
                // The attempt only ends once the probe acknowledged: the
                // drop is ordered after the ping.
                .wait(*ack)
                .compute(attempt_work)
                .dispose(conn, "Client.drop", us(30));
        }
        s.join_children().pad(padding);
    });
    b.main(main);
    b.build()
}

/// A timer wheel: a ticker thread signals periodic tick events; handler
/// threads run their callbacks against per-tick context objects prepared
/// by main — the event-handler shape behind ApplicationInsights-style
/// bugs, here fully ordered.
pub fn timer_wheel(
    name: &str,
    ticks: u32,
    period: SimTime,
    handler_work: SimTime,
    padding: SimTime,
) -> Workload {
    let mut b = WorkloadBuilder::new(name);
    let ctxs = b.objects("tick_ctx", ticks);
    let tick_ev: Vec<_> = (0..ticks).map(|i| b.event(&format!("tick{i}"))).collect();
    let handled: Vec<_> = (0..ticks).map(|i| b.event(&format!("hd{i}"))).collect();
    let tick_ev_t = tick_ev.clone();
    let ticker = b.script("ticker", move |s| {
        for ev in &tick_ev_t {
            s.compute(period).signal(*ev);
        }
    });
    let ctxs_h = ctxs.clone();
    let tick_ev_h = tick_ev.clone();
    let handled_h = handled.clone();
    let handler = b.script("handler", move |s| {
        for i in 0..ctxs_h.len() {
            s.wait(tick_ev_h[i])
                .compute(handler_work)
                .use_(ctxs_h[i], "Handler.on_tick", us(30))
                .signal(handled_h[i]);
        }
    });
    let ctxs_m = ctxs.clone();
    let main = b.script("main", move |s| {
        s.pad(padding);
        for (i, c) in ctxs_m.iter().enumerate() {
            let _ = i;
            s.init(*c, "Main.prepare_ctx", us(40));
        }
        s.fork(ticker).fork(handler);
        for ev in &handled {
            s.wait(*ev);
        }
        s.join_children();
        for c in ctxs_m.iter() {
            s.dispose(*c, "Main.drop_ctx", us(25));
        }
        s.pad(padding);
    });
    b.main(main);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_sim::{NullMonitor, SimConfig, Simulator};

    fn clean_under_any_seed(w: &Workload) {
        for seed in 0..5 {
            let cfg = SimConfig {
                seed,
                timing_noise_pct: 10,
                ..SimConfig::default()
            };
            let r = Simulator::run(w, cfg, &mut NullMonitor);
            assert!(!r.manifested(), "{} manifested delay-free", w.name);
            assert_eq!(r.stranded_threads, 0, "{} stranded threads", w.name);
        }
    }

    #[test]
    fn worker_pool_is_clean() {
        clean_under_any_seed(&worker_pool("p.pool", 6, 3, us(100), ms(1)));
    }

    #[test]
    fn producer_consumer_is_clean() {
        clean_under_any_seed(&producer_consumer("p.pc", 4, 5, us(50), ms(1)));
    }

    #[test]
    fn cache_churn_is_clean() {
        clean_under_any_seed(&cache_churn("p.cc", 5, 4, us(80), ms(1)));
    }

    #[test]
    fn shared_dict_is_clean_and_tsv_only() {
        let w = shared_dict("p.dict", 6, 2, us(50), ms(1));
        clean_under_any_seed(&w);
        assert!(w.tsv_sites() > 0);
        let r = Simulator::run(
            &w,
            SimConfig::with_seed(0).deterministic(),
            &mut NullMonitor,
        );
        assert!(r.tsv_violations.is_empty(), "no overlap without delays");
    }

    #[test]
    fn pipeline_is_clean() {
        clean_under_any_seed(&pipeline("p.pipe", 3, 4, us(60)));
    }

    #[test]
    fn barrier_phases_is_clean() {
        clean_under_any_seed(&barrier_phases("p.barrier", 3, 2, us(80), ms(1)));
    }

    #[test]
    fn retry_loop_is_clean_and_resurrects() {
        let w = retry_loop("p.retry", 4, us(120), ms(1));
        clean_under_any_seed(&w);
        let r = Simulator::run(
            &w,
            SimConfig::with_seed(0).deterministic(),
            &mut NullMonitor,
        );
        // Four inits on the SAME object through one static site.
        assert_eq!(r.heap.inits, 4);
        assert_eq!(r.heap.disposes, 4);
        let site = w.sites.lookup("Client.connect").unwrap();
        assert_eq!(r.dyn_count(site), 4);
    }

    #[test]
    fn timer_wheel_is_clean() {
        clean_under_any_seed(&timer_wheel("p.timer", 4, us(500), us(100), ms(1)));
    }

    #[test]
    fn new_patterns_survive_full_waffle_detection() {
        // Stronger than fixed-delay injection: run the actual detector
        // (plan-guided sole delays are exactly what breaks weak ordering).
        use waffle_core::{Detector, DetectorConfig, Tool};
        let det = Detector::with_config(
            Tool::waffle(),
            DetectorConfig {
                max_detection_runs: 4,
                ..DetectorConfig::default()
            },
        );
        for w in [
            barrier_phases("d.barrier", 3, 2, us(80), ms(1)),
            retry_loop("d.retry", 3, us(120), ms(1)),
            timer_wheel("d.timer", 3, us(500), us(100), ms(1)),
        ] {
            for attempt in 1..=3 {
                let o = det.detect(&w, attempt);
                assert!(
                    o.exposed.is_none(),
                    "{} exposed {:?} (attempt {attempt})",
                    w.name,
                    o.exposed.map(|r| r.site)
                );
            }
        }
    }

    #[test]
    fn patterns_survive_aggressive_delay_injection() {
        // Even delaying *every* access by 2ms, the synchronization keeps
        // the patterns free of NULL-reference exceptions.
        struct DelayAll;
        impl waffle_sim::Monitor for DelayAll {
            fn on_access_pre(&mut self, _ctx: &waffle_sim::AccessCtx<'_>) -> waffle_sim::PreAction {
                waffle_sim::PreAction::Delay(ms(2))
            }
        }
        for w in [
            worker_pool("q.pool", 4, 2, us(100), ms(1)),
            producer_consumer("q.pc", 3, 3, us(50), ms(1)),
            cache_churn("q.cc", 3, 3, us(80), ms(1)),
            pipeline("q.pipe", 3, 3, us(60)),
            barrier_phases("q.barrier", 3, 2, us(80), ms(1)),
            retry_loop("q.retry", 3, us(120), ms(1)),
            timer_wheel("q.timer", 3, us(500), us(100), ms(1)),
        ] {
            let r = Simulator::run(&w, SimConfig::with_seed(1).deterministic(), &mut DelayAll);
            assert!(!r.manifested(), "{} manifested under delays", w.name);
        }
    }
}
