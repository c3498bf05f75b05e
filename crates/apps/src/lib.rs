//! The benchmark suite: eleven synthetic multi-threaded applications
//! shaped after the paper's subjects (Table 3), carrying the 18 seeded
//! MemOrder bugs of Table 4.
//!
//! Each application is a library of *workloads* ("multi-threaded test
//! cases"): most are bug-free background tests built from common
//! concurrency patterns ([`patterns`]), and a few are faithful models of
//! the reported issues — with the location/timing properties the paper
//! documents (interfering bugs as in Fig. 4a, interfering dynamic
//! instances as in Fig. 4b, dense heap traffic, 1–100 ms gaps).
//!
//! The suite is *scaled*: test counts are 10–30 per app instead of up to
//! 283, and base execution times follow Table 4's per-input times. The
//! scaling is recorded in `EXPERIMENTS.md`.

pub mod churn_templates;
pub mod extensions;
pub mod framework;
pub mod patterns;
pub mod templates;
pub mod weak;

mod app_insights;
mod fluent_assertions;
mod kubernetes;
mod litedb;
mod mqtt;
mod netmq;
mod npgsql;
mod nsubstitute;
mod nswag;
mod signalr;
mod ssh_net;

pub use framework::{App, AppMeta, BugExpectation, BugSpec, TestCase};
pub use weak::{weak_scenario, weak_scenarios, WeakScenario};

use waffle_sim::Workload;

/// All eleven applications, in Table 3 order.
pub fn all_apps() -> Vec<App> {
    vec![
        app_insights::app(),
        fluent_assertions::app(),
        kubernetes::app(),
        litedb::app(),
        mqtt::app(),
        netmq::app(),
        npgsql::app(),
        nsubstitute::app(),
        nswag::app(),
        signalr::app(),
        ssh_net::app(),
    ]
}

/// All eighteen seeded bugs, in Table 4 order (Bug-1 … Bug-18).
pub fn all_bugs() -> Vec<BugSpec> {
    let mut bugs: Vec<BugSpec> = all_apps().into_iter().flat_map(|a| a.bugs).collect();
    bugs.sort_by_key(|b| b.id);
    bugs
}

/// Looks up one bug by its Table 4 number (1–18).
pub fn bug(id: u32) -> Option<BugSpec> {
    all_bugs().into_iter().find(|b| b.id == id)
}

/// The bug-triggering workload of one bug, by its Table 4 number (1–18).
pub fn bug_workload(id: u32) -> Option<Workload> {
    all_apps()
        .into_iter()
        .find_map(|a| a.bug_workload(id).cloned())
}

/// The workload of one test input, by its name (e.g.
/// `NetMQ.runtime_cleanup`).
pub fn test_workload(name: &str) -> Option<Workload> {
    all_apps()
        .into_iter()
        .flat_map(|a| a.tests)
        .find(|t| t.workload.name == name)
        .map(|t| t.workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_apps_and_eighteen_bugs() {
        assert_eq!(all_apps().len(), 11);
        let bugs = all_bugs();
        assert_eq!(bugs.len(), 18);
        let ids: Vec<u32> = bugs.iter().map(|b| b.id).collect();
        assert_eq!(ids, (1..=18).collect::<Vec<_>>());
    }

    #[test]
    fn every_app_has_tests_and_metadata() {
        for app in all_apps() {
            assert!(!app.tests.is_empty(), "{} has no tests", app.name);
            assert!(app.meta.loc_k > 0.0);
            assert!(app.meta.mt_tests_paper > 0);
        }
    }

    #[test]
    fn bug_workloads_are_registered_as_tests() {
        for b in all_bugs() {
            let app = all_apps()
                .into_iter()
                .find(|a| a.name == b.app)
                .expect("bug references an app");
            assert!(
                app.tests.iter().any(|t| t.workload.name == b.test_name),
                "bug {} test {} not in {}",
                b.id,
                b.test_name,
                b.app
            );
            assert_eq!(bug_workload(b.id).expect("bug workload").name, b.test_name);
        }
        assert!(bug_workload(19).is_none());
    }

    #[test]
    fn twelve_known_and_six_unknown_bugs() {
        let bugs = all_bugs();
        assert_eq!(bugs.iter().filter(|b| b.known).count(), 12);
        assert_eq!(bugs.iter().filter(|b| !b.known).count(), 6);
    }
}
