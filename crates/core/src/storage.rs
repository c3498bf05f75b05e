//! On-disk session state: what the real tool persists between processes.
//!
//! Waffle's runs are separate processes: the preparation run writes the
//! trace; the analyzer writes the plan (`S`, `I`, delay lengths); each
//! detection run loads the plan and the current injection probabilities
//! and writes the updated probabilities back (§5). A [`Session`] wraps a
//! directory with those artifacts plus rendered bug reports.

use std::fs;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use waffle_analysis::Plan;
use waffle_inject::DecayState;
use waffle_trace::Trace;

use crate::report::BugReport;

/// Writes `contents` to `path` atomically: the bytes land in a uniquely
/// named sibling temp file first and are renamed into place, so a crash
/// mid-write leaves either the previous artifact or none — never a
/// truncated JSON file that poisons every later load.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Wraps a JSON parse failure as a *corrupt artifact* error, distinct from
/// the absent-artifact case (`Ok(None)` from the loaders): the file exists
/// but does not parse, typically a partial write by a crashed process.
pub(crate) fn corrupt(name: &str, e: serde_json::Error) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{name}: corrupt artifact (partial write or wrong format): {e}"),
    )
}

/// A session directory holding one workload's cross-run state.
#[derive(Debug, Clone)]
pub struct Session {
    dir: PathBuf,
}

impl Session {
    /// Opens (creating if needed) a session directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The session's directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Persists the preparation-run trace (atomically; see [`write_atomic`]).
    pub fn save_trace(&self, trace: &Trace) -> io::Result<()> {
        write_atomic(&self.file("trace.json"), &trace.to_json().map_err(to_io)?)
    }

    /// Loads the preparation-run trace: `Ok(None)` when never saved, a
    /// distinct [`io::ErrorKind::InvalidData`] error when the file exists
    /// but is corrupt.
    pub fn load_trace(&self) -> io::Result<Option<Trace>> {
        read_opt(&self.file("trace.json"))?
            .map(|s| Trace::from_json(&s).map_err(|e| corrupt("trace.json", e)))
            .transpose()
    }

    /// Persists the analysis plan (atomically; see [`write_atomic`]).
    pub fn save_plan(&self, plan: &Plan) -> io::Result<()> {
        write_atomic(&self.file("plan.json"), &plan.to_json().map_err(to_io)?)
    }

    /// Loads the analysis plan: `Ok(None)` when never saved, a distinct
    /// corrupt-artifact error when the file exists but does not parse. The
    /// session stays recoverable: re-saving the plan (re-preparation)
    /// replaces the corrupt file.
    pub fn load_plan(&self) -> io::Result<Option<Plan>> {
        read_opt(&self.file("plan.json"))?
            .map(|s| Plan::from_json(&s).map_err(|e| corrupt("plan.json", e)))
            .transpose()
    }

    /// Persists the injection probabilities after a detection run (§5:
    /// "saved on disk and used to bootstrap the next detection run").
    /// Atomic, so a killed detection run never truncates the decay state.
    pub fn save_decay(&self, decay: &DecayState) -> io::Result<()> {
        write_atomic(&self.file("decay.json"), &decay.to_json().map_err(to_io)?)
    }

    /// Loads the injection probabilities, defaulting to a fresh state when
    /// never saved; a corrupt file is a distinct error, not a silent reset.
    pub fn load_decay(&self) -> io::Result<DecayState> {
        Ok(match read_opt(&self.file("decay.json"))? {
            Some(s) => DecayState::from_json(&s).map_err(|e| corrupt("decay.json", e))?,
            None => DecayState::default(),
        })
    }

    /// Appends a rendered bug report (one file per bug, numbered).
    ///
    /// Safe across *processes* sharing the session directory, not just
    /// threads: the number is claimed with `O_CREAT|O_EXCL`
    /// ([`fs::OpenOptions::create_new`]) in a retry loop, so two writers
    /// can never pick the same report number and silently overwrite each
    /// other the way a count-then-`fs::write` scheme could.
    pub fn save_report(&self, report: &BugReport, rendered: &str) -> io::Result<PathBuf> {
        let mut body = String::new();
        body.push_str(rendered);
        body.push_str("\n--- json ---\n");
        body.push_str(&serde_json::to_string_pretty(report).map_err(to_io)?);
        // Start probing at count + 1; holes never form because numbers are
        // only ever claimed contiguously upward.
        let mut n = fs::read_dir(&self.dir)?
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("bug-"))
            .count()
            + 1;
        loop {
            let path = self.file(&format!("bug-{n:03}.txt"));
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    f.write_all(body.as_bytes())?;
                    return Ok(path);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => n += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Removes all persisted state (fresh session).
    pub fn clear(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }
}

fn read_opt(path: &Path) -> io::Result<Option<String>> {
    match fs::read_to_string(path) {
        Ok(s) => Ok(Some(s)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

fn to_io(e: serde_json::Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use waffle_analysis::{analyze, AnalyzerConfig};
    use waffle_sim::time::{ms, us};
    use waffle_sim::{SimConfig, Simulator, WorkloadBuilder};
    use waffle_trace::TraceRecorder;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("waffle-session-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (waffle_sim::Workload, Trace, Plan) {
        let mut b = WorkloadBuilder::new("st.sample");
        let o = b.object("o");
        let started = b.event("s");
        let worker = b.script("worker", move |s| {
            s.wait(started).pad(ms(2)).use_(o, "W.use:1", us(20));
        });
        let main = b.script("main", move |s| {
            s.init(o, "M.init:1", us(20))
                .fork(worker)
                .signal(started)
                .pad(ms(10))
                .dispose(o, "M.dispose:9", us(20))
                .join_children();
        });
        b.main(main);
        let w = b.build();
        let mut rec = TraceRecorder::new(&w);
        let _ = Simulator::run(&w, SimConfig::with_seed(1), &mut rec);
        let trace = rec.into_trace();
        let plan = analyze(&trace, &AnalyzerConfig::default());
        (w, trace, plan)
    }

    #[test]
    fn session_round_trips_all_artifacts() {
        let dir = tmpdir("roundtrip");
        let session = Session::open(&dir).unwrap();
        let (_w, trace, plan) = sample();
        session.save_trace(&trace).unwrap();
        session.save_plan(&plan).unwrap();
        let mut decay = DecayState::default();
        decay.record_injection(waffle_mem::SiteId(0));
        session.save_decay(&decay).unwrap();

        let t2 = session.load_trace().unwrap().expect("trace saved");
        assert_eq!(t2.events, trace.events);
        let p2 = session.load_plan().unwrap().expect("plan saved");
        assert_eq!(p2.candidates, plan.candidates);
        let d2 = session.load_decay().unwrap();
        assert_eq!(d2.permille(waffle_mem::SiteId(0)), 850);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_artifacts_load_as_none_or_default() {
        let dir = tmpdir("fresh");
        let session = Session::open(&dir).unwrap();
        assert!(session.load_trace().unwrap().is_none());
        assert!(session.load_plan().unwrap().is_none());
        assert_eq!(
            session
                .load_decay()
                .unwrap()
                .permille(waffle_mem::SiteId(7)),
            1000
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_are_numbered_and_clear_removes_them() {
        let dir = tmpdir("reports");
        let session = Session::open(&dir).unwrap();
        let report = BugReport {
            workload: "w".into(),
            kind: waffle_mem::NullRefKind::UseAfterFree,
            site: "X".into(),
            obj: waffle_mem::ObjectId(0),
            time: us(1),
            exposed_in_run: 2,
            total_runs: 2,
            delays_in_run: 1,
            delayed_sites: vec!["X".into()],
            thread_contexts: vec![],
            memory_model: waffle_sim::MemoryModel::Sc,
        };
        let p1 = session.save_report(&report, "report one").unwrap();
        let p2 = session.save_report(&report, "report two").unwrap();
        assert!(p1.ends_with("bug-001.txt"));
        assert!(p2.ends_with("bug-002.txt"));
        session.clear().unwrap();
        assert!(session.load_plan().unwrap().is_none());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Satellite regression: a truncated `plan.json` (what a crash
    /// mid-`fs::write` used to leave behind) must load as a *corrupt*
    /// error, distinct from the absent case, and re-preparation (saving a
    /// fresh plan) must recover the session.
    #[test]
    fn truncated_plan_is_a_corrupt_error_and_recoverable() {
        let dir = tmpdir("truncated");
        let session = Session::open(&dir).unwrap();
        let (_w, trace, plan) = sample();
        session.save_plan(&plan).unwrap();
        let full = fs::read_to_string(dir.join("plan.json")).unwrap();
        fs::write(dir.join("plan.json"), &full[..full.len() / 2]).unwrap();
        let err = session.load_plan().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("plan.json") && err.to_string().contains("corrupt"),
            "error names the artifact and the corruption: {err}"
        );
        // Absent is still Ok(None), not an error.
        assert!(session.load_trace().unwrap().is_none());
        // Re-preparation replaces the corrupt artifact.
        session.save_trace(&trace).unwrap();
        session.save_plan(&plan).unwrap();
        assert_eq!(
            session.load_plan().unwrap().expect("recovered").candidates,
            plan.candidates
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `decay.json` written when the state still repeated its decay
    /// parameters loads with the same probabilities and saves without them.
    #[test]
    fn a_decay_json_that_still_carries_its_config_loads_unchanged() {
        let dir = tmpdir("decay-config");
        let session = Session::open(&dir).unwrap();
        fs::write(
            dir.join("decay.json"),
            r#"{"config":{"initial_permille":1000,"lambda_permille":150},"permille":{"0":850,"12":700}}"#,
        )
        .unwrap();
        let decay = session.load_decay().unwrap();
        assert_eq!(decay.permille(waffle_mem::SiteId(0)), 850);
        assert_eq!(decay.permille(waffle_mem::SiteId(12)), 700);
        assert_eq!(decay.permille(waffle_mem::SiteId(7)), 1000);
        assert_eq!(decay.touched_sites(), 2);
        session.save_decay(&decay).unwrap();
        assert_eq!(
            fs::read_to_string(dir.join("decay.json")).unwrap(),
            r#"{"permille":{"0":850,"12":700}}"#
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Atomic saves leave no temp droppings behind, and a corrupt decay
    /// file is an error rather than a silent reset to 100%.
    #[test]
    fn atomic_saves_leave_no_temp_files_and_corrupt_decay_errors() {
        let dir = tmpdir("atomic");
        let session = Session::open(&dir).unwrap();
        let (_w, trace, plan) = sample();
        session.save_trace(&trace).unwrap();
        session.save_plan(&plan).unwrap();
        session.save_decay(&DecayState::default()).unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.contains(".tmp.")),
            "no temp files survive a save: {names:?}"
        );
        fs::write(dir.join("decay.json"), "{\"not\": \"a decay state\"").unwrap();
        let err = session.load_decay().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("decay.json"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Satellite regression for cross-process numbering: another process
    /// may have claimed report numbers this process never counted. The
    /// `create_new` retry loop must skip over any existing number instead
    /// of overwriting it.
    #[test]
    fn save_report_skips_numbers_claimed_by_other_processes() {
        let dir = tmpdir("crossproc");
        let session = Session::open(&dir).unwrap();
        // Simulate another process that claimed bug-002 (count says 1, so
        // a count-based scheme would pick bug-002 and clobber it).
        fs::write(dir.join("bug-002.txt"), "claimed by another process").unwrap();
        let report = BugReport {
            workload: "w".into(),
            kind: waffle_mem::NullRefKind::UseAfterFree,
            site: "X".into(),
            obj: waffle_mem::ObjectId(0),
            time: us(1),
            exposed_in_run: 2,
            total_runs: 2,
            delays_in_run: 1,
            delayed_sites: vec!["X".into()],
            thread_contexts: vec![],
            memory_model: waffle_sim::MemoryModel::Sc,
        };
        let p = session.save_report(&report, "ours").unwrap();
        assert!(
            p.ends_with("bug-003.txt"),
            "skipped the claimed number: {p:?}"
        );
        assert_eq!(
            fs::read_to_string(dir.join("bug-002.txt")).unwrap(),
            "claimed by another process",
            "the other process's report survives"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_report_saves_never_collide() {
        let dir = tmpdir("concurrent");
        let session = Session::open(&dir).unwrap();
        let report = BugReport {
            workload: "w".into(),
            kind: waffle_mem::NullRefKind::UseAfterFree,
            site: "X".into(),
            obj: waffle_mem::ObjectId(0),
            time: us(1),
            exposed_in_run: 2,
            total_runs: 2,
            delays_in_run: 1,
            delayed_sites: vec!["X".into()],
            thread_contexts: vec![],
            memory_model: waffle_sim::MemoryModel::Sc,
        };
        let mut paths: Vec<PathBuf> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| session.save_report(&report, "r").unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), 8, "every save got its own report number");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 8);
        let _ = fs::remove_dir_all(&dir);
    }
}
