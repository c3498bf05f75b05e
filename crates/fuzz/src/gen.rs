//! Seeded synthetic-workload generator with planted, labelled bugs.
//!
//! Every generated workload carries its own ground truth: either it is a
//! *control* — all init/use/dispose sequences are ordered by fork, event,
//! or join edges, so no schedule can raise a NULL-reference — or it has
//! exactly one *planted* MemOrder bug (use-before-init or
//! use-after-dispose) whose class and object travel with the case.
//!
//! Planted and control populations are deliberately shaped alike (same
//! spawn trees, lock regions, pool tasks, thread-unsafe dictionary calls):
//! a control is a planted case with the one missing ordering edge
//! restored. Planted timing windows are chosen so the bug never fires
//! *spontaneously* under the simulator's default 3% timing noise (the
//! racing accesses are separated by at least 4× the earlier access's
//! offset plus 2 ms) yet the gap always stays under the analyzer's
//! near-miss window δ = 100 ms, so the pair is a delay-plan candidate.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use waffle_mem::{NullRefKind, ObjectId};
use waffle_sim::{Cond, MemoryModel, SimTime, Workload, WorkloadBuilder};

/// The label that travels with a generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroundTruth {
    /// Fully ordered: no schedule raises a NULL-reference exception.
    Control,
    /// Exactly one schedule-dependent MemOrder bug was planted.
    Planted {
        /// Expected manifestation class.
        kind: NullRefKind,
        /// The racy object.
        obj: ObjectId,
    },
}

impl GroundTruth {
    /// Whether this is a planted-bug case.
    pub fn planted(&self) -> bool {
        matches!(self, GroundTruth::Planted { .. })
    }
}

/// A generated workload plus its provenance and ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzCase {
    /// Generator seed that produced the case.
    pub seed: u64,
    /// The workload itself.
    pub workload: Workload,
    /// The planted label.
    pub truth: GroundTruth,
}

impl FuzzCase {
    /// Serializes the case (corpus persistence format).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a case from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Workload shape drawn for one seed.
#[derive(Clone, Copy, PartialEq)]
enum Cat {
    /// Ordered twin of [`Cat::Ubi`] (init signalled before the racy use).
    ControlUbi,
    /// Ordered twin of [`Cat::Uaf`] (dispose moved after the join).
    ControlUaf,
    /// Planted use-before-init: main's init races a worker's use.
    Ubi,
    /// Planted use-after-dispose: main disposes before joining the user.
    Uaf,
}

impl Cat {
    fn uaf_shaped(self) -> bool {
        matches!(self, Cat::Uaf | Cat::ControlUaf)
    }
}

fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

/// Generates the workload and ground truth for `seed`.
///
/// The same seed always yields a byte-identical workload; distinct seeds
/// draw independent shapes (worker count, lock regions, pool subtrees,
/// thread-unsafe dictionary traffic) and timing windows.
pub fn generate_case(seed: u64) -> FuzzCase {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CAFE_F00D_0001);

    let cat = match rng.gen_range(0..10u32) {
        0..=1 => Cat::ControlUbi,
        2..=3 => Cat::ControlUaf,
        4..=6 => Cat::Ubi,
        _ => Cat::Uaf,
    };
    let n_workers = rng.gen_range(1..=3usize);
    let n_safe = rng.gen_range(1..=3usize);
    let with_lock = rng.gen_range(0..100u32) < 40;
    let with_dict = rng.gen_range(0..100u32) < 30;
    let with_subtree = rng.gen_range(0..100u32) < 25;

    // Racing-window offsets (µs). The later access trails the earlier one
    // by ≥ 4× + 2 ms (no spontaneous manifestation at 3% noise) and by
    // ≤ 80 ms total (always inside the analyzer's δ = 100 ms window).
    let (early_off, late_off) = if cat.uaf_shaped() {
        let use_small = rng.gen_range(200..=2_000u64);
        let dispose_delay = rng.gen_range(4 * use_small + 2_000..=50_000);
        (use_small, dispose_delay)
    } else {
        let init_delay = rng.gen_range(100..=2_000u64);
        let use_delay = rng.gen_range(4 * init_delay + 2_000..=80_000);
        (init_delay, use_delay)
    };
    let lock_racy = with_lock && !cat.uaf_shaped() && rng.gen_range(0..100u32) < 50;

    let pad_start = rng.gen_range(200..=1_000u64);
    let pad_end = rng.gen_range(200..=1_000u64);

    // Safe-object plan: pre-fork objects are initialized before any fork;
    // post-fork objects are initialized by main after the forks and
    // published through a dedicated sticky event.
    let mut safe_pre = Vec::with_capacity(n_safe);
    let mut safe_worker_users: Vec<Vec<usize>> = Vec::with_capacity(n_safe);
    let mut safe_main_user = Vec::with_capacity(n_safe);
    let mut safe_post_delay = Vec::with_capacity(n_safe);
    for i in 0..n_safe {
        let forced_pre = with_subtree && i == 0;
        safe_pre.push(forced_pre || rng.gen_range(0..100u32) < 60);
        let mut users: Vec<usize> = (0..n_workers)
            .filter(|_| rng.gen_range(0..100u32) < 50)
            .collect();
        let main_uses = rng.gen_range(0..100u32) < 30;
        if users.is_empty() && !main_uses {
            users.push(rng.gen_range(0..n_workers));
        }
        safe_worker_users.push(users);
        safe_main_user.push(main_uses);
        safe_post_delay.push(rng.gen_range(50..=500u64));
    }
    let dict_worker = n_workers - 1;
    let dict_off_worker = rng.gen_range(500..=1_500u64);
    let dict_off_main = rng.gen_range(10_000..=18_000u64);
    let dict_window = rng.gen_range(100..=300u64);
    let sub_parent = n_workers - 1;

    let mut b = WorkloadBuilder::new(format!("fuzz.s{seed}"));
    let racy = b.object("racy");
    let safe: Vec<ObjectId> = (0..n_safe).map(|i| b.object(&format!("safe{i}"))).collect();
    let dict = with_dict.then(|| b.object("dict"));
    let started = b.event("started");
    let racy_ev = (cat == Cat::ControlUbi).then(|| b.event("racy_ready"));
    let safe_ev: Vec<_> = (0..n_safe)
        .map(|i| (!safe_pre[i]).then(|| b.event(&format!("safe{i}_ready"))))
        .collect();
    let lk = with_lock.then(|| b.lock("mu"));

    let sub = with_subtree.then(|| {
        let o = safe[0];
        let j1 = us(rng.gen_range(100..=3_000u64));
        let d = us(rng.gen_range(20..=100u64));
        b.script("sub", move |s| {
            s.compute(j1).use_(o, "sub.safe0.use", d);
        })
    });

    let mut workers = Vec::with_capacity(n_workers);
    for w in 0..n_workers {
        // Pre-draw this worker's safe-object visits so the builder closure
        // captures plain data.
        let visits: Vec<(usize, ObjectId, u64, u64, bool)> = (0..n_safe)
            .filter(|&i| safe_worker_users[i].contains(&w))
            .map(|i| {
                (
                    i,
                    safe[i],
                    rng.gen_range(100..=3_000u64),
                    rng.gen_range(20..=100u64),
                    with_lock && rng.gen_range(0..100u32) < 50,
                )
            })
            .collect();
        let racy_use_dur = us(rng.gen_range(20..=100u64));
        let safe_ev = safe_ev.clone();
        let wid = b.script(format!("worker{w}"), move |s| {
            s.wait(started);
            if with_subtree && w == sub_parent {
                s.fork(sub.unwrap());
            }
            if with_dict && w == dict_worker && w != 0 {
                s.compute(us(dict_off_worker)).unsafe_call(
                    dict.unwrap(),
                    "dict.add.worker",
                    us(dict_window),
                );
            }
            if w == 0 {
                match cat {
                    Cat::Ubi => {
                        s.compute(us(late_off));
                        if lock_racy {
                            s.acquire(lk.unwrap());
                        }
                        s.use_(racy, "racy.use", racy_use_dur);
                        if lock_racy {
                            s.release(lk.unwrap());
                        }
                    }
                    Cat::ControlUbi => {
                        s.wait(racy_ev.unwrap()).compute(us(late_off));
                        if lock_racy {
                            s.acquire(lk.unwrap());
                        }
                        s.use_(racy, "racy.use", racy_use_dur);
                        if lock_racy {
                            s.release(lk.unwrap());
                        }
                    }
                    Cat::Uaf | Cat::ControlUaf => {
                        s.compute(us(early_off))
                            .use_(racy, "racy.use", racy_use_dur);
                    }
                }
                if with_dict && dict_worker == 0 {
                    s.compute(us(dict_off_worker)).unsafe_call(
                        dict.unwrap(),
                        "dict.add.worker",
                        us(dict_window),
                    );
                }
            }
            for (i, obj, jitter, dur, wrap) in visits {
                if let Some(ev) = safe_ev[i] {
                    s.wait(ev);
                }
                s.compute(us(jitter));
                if wrap {
                    s.acquire(lk.unwrap());
                }
                s.use_(obj, &format!("safe{i}.use.w{w}"), us(dur));
                if wrap {
                    s.release(lk.unwrap());
                }
            }
            if with_subtree && w == sub_parent {
                s.join_children();
            }
        });
        workers.push(wid);
    }

    let main_visits: Vec<(usize, ObjectId, u64, u64)> = (0..n_safe)
        .filter(|&i| safe_main_user[i])
        .map(|i| {
            (
                i,
                safe[i],
                rng.gen_range(100..=3_000u64),
                rng.gen_range(20..=100u64),
            )
        })
        .collect();
    let mut main_durs = Vec::new();
    for _ in 0..8 {
        main_durs.push(us(rng.gen_range(20..=100u64)));
    }
    let safe_clone = safe.clone();
    let safe_pre_clone = safe_pre.clone();
    let safe_post = safe_post_delay.clone();
    let safe_ev_main = safe_ev.clone();
    let workers_clone = workers.clone();
    let m = b.script("main", move |s| {
        s.pad(us(pad_start));
        if cat.uaf_shaped() {
            s.init(racy, "racy.init", main_durs[0]);
        }
        for (i, &obj) in safe_clone.iter().enumerate() {
            if safe_pre_clone[i] {
                s.init(obj, &format!("safe{i}.init"), main_durs[1]);
            }
        }
        if let Some(d) = dict {
            s.init(d, "dict.init", main_durs[2]);
        }
        for &wid in &workers_clone {
            s.fork(wid);
        }
        s.signal(started);
        if !cat.uaf_shaped() {
            s.compute(us(early_off))
                .init(racy, "racy.init", main_durs[3]);
            if let Some(ev) = racy_ev {
                s.signal(ev);
            }
        }
        for (i, &obj) in safe_clone.iter().enumerate() {
            if let Some(ev) = safe_ev_main[i] {
                s.compute(us(safe_post[i]))
                    .init(obj, &format!("safe{i}.init"), main_durs[4]);
                s.signal(ev);
            }
        }
        for (i, obj, jitter, dur) in main_visits {
            s.compute(us(jitter))
                .use_(obj, &format!("safe{i}.use.main"), us(dur));
        }
        if let Some(d) = dict {
            s.compute(us(dict_off_main))
                .unsafe_call(d, "dict.add.main", us(dict_window));
        }
        if cat == Cat::Uaf {
            s.compute(us(late_off))
                .dispose(racy, "racy.dispose", main_durs[5]);
        }
        s.join_children();
        if cat != Cat::Uaf {
            s.dispose(racy, "racy.dispose", main_durs[5]);
        }
        for (i, &obj) in safe_clone.iter().enumerate() {
            s.dispose(obj, &format!("safe{i}.dispose"), main_durs[6]);
        }
        if let Some(d) = dict {
            s.dispose(d, "dict.dispose", main_durs[7]);
        }
        s.pad(us(pad_end));
    });
    b.main(m);
    let workload = b.build();
    debug_assert!(workload.validate().is_ok());

    let truth = match cat {
        Cat::ControlUbi | Cat::ControlUaf => GroundTruth::Control,
        Cat::Ubi => GroundTruth::Planted {
            kind: NullRefKind::UseBeforeInit,
            obj: racy,
        },
        Cat::Uaf => GroundTruth::Planted {
            kind: NullRefKind::UseAfterFree,
            obj: racy,
        },
    };
    FuzzCase {
        seed,
        workload,
        truth,
    }
}

/// Weak-memory workload shape drawn for one seed.
///
/// Every planted shape is *sequentially consistent-clean*: the racy
/// accesses are ordered by the signal/poll protocol, so no interleaving of
/// committed stores manifests a bug — only a store lingering in a buffer
/// does. Each has an ordered twin with a fence at the publication point.
#[derive(Clone, Copy, PartialEq)]
enum WeakCat {
    /// TSO handoff: main inits then signals; the consumer's use races the
    /// init's *drain*, not its execution (use-before-init).
    Handoff,
    /// [`Handoff`](WeakCat::Handoff) with a fence between init and signal.
    HandoffControl,
    /// TSO recycle: dispose + re-init both buffered; the dispose drains
    /// first (FIFO), so a stretched re-init leaves the disposed value
    /// visible (use-after-free).
    Recycle,
    /// [`Recycle`](WeakCat::Recycle) with a fence before the signal.
    RecycleControl,
    /// PSO data/flag publication: flag may drain before data (per-object
    /// FIFO only), so the guarded read sees null data (use-before-init).
    /// TSO's total store order protects this shape.
    Flag,
    /// [`Flag`](WeakCat::Flag) with a fence between the two inits.
    FlagControl,
}

impl WeakCat {
    fn control(self) -> bool {
        matches!(
            self,
            WeakCat::HandoffControl | WeakCat::RecycleControl | WeakCat::FlagControl
        )
    }
}

/// Generates the workload and ground truth for `seed` under `model`.
///
/// `Sc` delegates to [`generate_case`] — byte-identical to the historical
/// generator, which the 200-seed sweep pins. `Tso`/`Pso` draw from a
/// separate population of store-buffer reordering shapes (plus fenced
/// control twins) sized so the racing window is far above the drain
/// latency (no spontaneous manifestation) yet inside the analyzer's
/// δ = 100 ms near-miss window (the pair is always a delay candidate).
pub fn generate_case_for_model(seed: u64, model: MemoryModel) -> FuzzCase {
    if !model.is_weak() {
        return generate_case(seed);
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CAFE_F00D_0002);

    let cat = match (model, rng.gen_range(0..10u32)) {
        // TSO: handoff-heavy with the recycle (UAF) shape mixed in.
        (MemoryModel::Tso, 0..=1) => WeakCat::HandoffControl,
        (MemoryModel::Tso, 2..=3) => WeakCat::RecycleControl,
        (MemoryModel::Tso, 4..=6) => WeakCat::Handoff,
        (MemoryModel::Tso, _) => WeakCat::Recycle,
        // PSO: flag-heavy; the TSO shapes remain exposable (PSO is weaker).
        (_, 0..=1) => WeakCat::FlagControl,
        (_, 2..=3) => WeakCat::HandoffControl,
        (_, 4..=6) => WeakCat::Flag,
        (_, _) => WeakCat::Handoff,
    };

    // The reader trails the publication by poll_off µs: ≥ 2 ms (40× the
    // 50 µs drain latency — the stale window never reaches it naturally)
    // and ≤ 20 ms (well under δ, so delay = 1.15·gap is planned and a
    // stretched drain covers the read). The storer stays busy past the
    // read: a join is a forced drain point, so reaching it early would
    // close the window that injection opened.
    let poll_off = rng.gen_range(2_000..=20_000u64);
    let busy = poll_off + rng.gen_range(2_000..=10_000u64);
    let pad_start = rng.gen_range(200..=1_000u64);
    let pad_end = rng.gen_range(200..=1_000u64);
    let d_init = us(rng.gen_range(20..=100u64));
    let d_use = us(rng.gen_range(20..=100u64));
    let d_aux = us(rng.gen_range(20..=100u64));

    let mut b = WorkloadBuilder::new(format!("fuzz.{}.s{seed}", model.name()));
    let racy = b.object("racy");
    let flag = matches!(cat, WeakCat::Flag | WeakCat::FlagControl).then(|| b.object("flag"));
    let ready = b.event("ready");
    let fenced = cat.control();

    let reader = b.script("reader", move |s| {
        match cat {
            WeakCat::Flag | WeakCat::FlagControl => {
                // No event handshake: the guard itself is the protocol.
                // A null flag skips the use (reader arrived early); a
                // set flag promises the data is visible — unless the
                // data store is still sitting in the buffer (PSO).
                s.compute(us(poll_off))
                    .skip_if(flag.unwrap(), Cond::IsNull, 1)
                    .use_(racy, "racy.use", d_use);
            }
            _ => {
                s.wait(ready)
                    .compute(us(poll_off))
                    .use_(racy, "racy.use", d_use);
            }
        }
    });

    let m = b.script("main", move |s| {
        s.pad(us(pad_start));
        if matches!(cat, WeakCat::Recycle | WeakCat::RecycleControl) {
            // The recycle victim exists before the reader does.
            s.init(racy, "racy.init", d_aux);
        }
        s.fork(reader);
        match cat {
            WeakCat::Handoff | WeakCat::HandoffControl => {
                s.init(racy, "racy.init", d_init);
                if fenced {
                    s.fence();
                }
                s.signal(ready);
            }
            WeakCat::Recycle | WeakCat::RecycleControl => {
                s.dispose(racy, "racy.dispose", d_aux)
                    .init(racy, "racy.reinit", d_init);
                if fenced {
                    s.fence();
                }
                s.signal(ready);
            }
            WeakCat::Flag | WeakCat::FlagControl => {
                s.init(racy, "racy.init", d_init);
                if fenced {
                    s.fence();
                }
                s.init(flag.unwrap(), "flag.init", d_aux);
            }
        }
        s.compute(us(busy)).join_children();
        s.dispose(racy, "racy.dispose.end", d_aux);
        if let Some(f) = flag {
            s.dispose(f, "flag.dispose", d_aux);
        }
        s.pad(us(pad_end));
    });
    b.main(m);
    let workload = b.build();
    debug_assert!(workload.validate().is_ok());

    let truth = if cat.control() {
        GroundTruth::Control
    } else {
        GroundTruth::Planted {
            kind: if cat == WeakCat::Recycle {
                NullRefKind::UseAfterFree
            } else {
                NullRefKind::UseBeforeInit
            },
            obj: racy,
        }
    };
    FuzzCase {
        seed,
        workload,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{explore, OracleConfig, OracleVerdict};

    #[test]
    fn generation_is_deterministic() {
        let a = generate_case(7).to_json().unwrap();
        let b = generate_case(7).to_json().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn generated_workloads_validate_and_cover_all_categories() {
        let mut controls = 0;
        let mut ubi = 0;
        let mut uaf = 0;
        for seed in 0..200 {
            let case = generate_case(seed);
            case.workload
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            match case.truth {
                GroundTruth::Control => controls += 1,
                GroundTruth::Planted {
                    kind: NullRefKind::UseBeforeInit,
                    ..
                } => ubi += 1,
                GroundTruth::Planted { .. } => uaf += 1,
            }
        }
        assert!(controls > 20, "controls {controls}");
        assert!(ubi > 10, "ubi {ubi}");
        assert!(uaf > 10, "uaf {uaf}");
    }

    #[test]
    fn weak_generation_is_deterministic_and_sc_delegates() {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let a = generate_case_for_model(7, model).to_json().unwrap();
            let b = generate_case_for_model(7, model).to_json().unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(
            generate_case_for_model(7, MemoryModel::Sc)
                .to_json()
                .unwrap(),
            generate_case(7).to_json().unwrap(),
            "Sc must delegate to the historical generator byte-for-byte"
        );
    }

    /// The weak-memory ground truth, both directions: every planted
    /// reordering bug is exposable by some drain schedule under its
    /// model, and *no* generated shape (planted or control) is exposable
    /// under sequential consistency — the bugs exist only in the buffers.
    #[test]
    fn weak_plants_are_sc_clean_and_weak_exposable() {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            for seed in 0..20 {
                let case = generate_case_for_model(seed, model);
                case.workload
                    .validate()
                    .unwrap_or_else(|e| panic!("{model} seed {seed}: {e}"));
                let sc = explore(&case.workload, &OracleConfig::default());
                assert_eq!(
                    sc.verdict,
                    OracleVerdict::CleanWithinBound,
                    "{model} seed {seed}: weak-memory shapes must be SC-clean"
                );
                let weak = explore(
                    &case.workload,
                    &OracleConfig {
                        memory: model,
                        ..OracleConfig::default()
                    },
                );
                match case.truth {
                    GroundTruth::Control => assert_eq!(
                        weak.verdict,
                        OracleVerdict::CleanWithinBound,
                        "{model} seed {seed}: fenced control must stay clean"
                    ),
                    GroundTruth::Planted { kind, obj } => match weak.verdict {
                        OracleVerdict::Exposable {
                            kind: k, obj: o, ..
                        } => assert_eq!((k, o), (kind, obj), "{model} seed {seed}"),
                        v => panic!("{model} seed {seed}: plant not exposable ({v:?})"),
                    },
                }
            }
        }
    }

    #[test]
    fn oracle_agrees_with_planted_ground_truth() {
        let cfg = OracleConfig::default();
        for seed in 0..40 {
            let case = generate_case(seed);
            let report = explore(&case.workload, &cfg);
            match case.truth {
                GroundTruth::Control => assert_eq!(
                    report.verdict,
                    OracleVerdict::CleanWithinBound,
                    "seed {seed}: control must be unexposable"
                ),
                GroundTruth::Planted { kind, obj } => match report.verdict {
                    OracleVerdict::Exposable {
                        kind: k, obj: o, ..
                    } => {
                        assert_eq!((k, o), (kind, obj), "seed {seed}");
                    }
                    v => panic!("seed {seed}: planted bug not exposable ({v:?})"),
                },
            }
        }
    }
}
