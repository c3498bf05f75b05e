//! One schema for every rate bench's `BENCH_<bench>.json`.
//!
//! A [`Ledger`] records what one bench run measured, in four kinds of
//! row: `params` (the sizes and knobs the run used), `stages` (timed
//! sections, each with the work it covered), `counters` (exact counts
//! that every run of one build reproduces) and `gates` (the measured
//! ratios and floors the bench claims, each with its bound). Counter
//! names follow the `MetricsRegistry` `/` style, e.g.
//! `grid/tso/b3/reduced_states`.
//!
//! [`Ledger::time`] is the one wall-clock timer the rate benches share.
//! [`Ledger::write`] refuses to write a ledger whose gates do not all
//! hold, so a committed `BENCH_*.json` always shows a passing run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::{Deserialize, Error, Serialize, Value};

/// What one rate bench measured, serialized to `BENCH_<bench>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ledger {
    /// The bench name; also the file name's suffix.
    pub bench: String,
    /// The machine the run measured on.
    pub env: Env,
    /// Sizes and knobs the run used.
    pub params: BTreeMap<String, u64>,
    /// Timed sections, in run order.
    pub stages: Vec<Stage>,
    /// Exact work counts.
    pub counters: BTreeMap<String, u64>,
    /// Measured ratios and floors with their bounds.
    pub gates: Vec<Gate>,
}

/// The machine a ledger was measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Env {
    /// Hardware threads available to the bench process; a row run at
    /// more jobs than this timeslices and cannot speed up.
    pub available_parallelism: u64,
}

/// One timed section: `wall_ns` spent on `count` units of work (events,
/// attempts, states or cells, as the stage name says).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Stage name.
    pub name: String,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Units of work done in that time.
    pub count: u64,
}

/// One measured value and the bound it must keep.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Gate name.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The bound `value` must keep.
    pub bound: Bound,
}

/// A gate's bound; serialized as the gate's `min` or `max` key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `value >= bound`.
    Min(f64),
    /// `value <= bound`.
    Max(f64),
}

impl Gate {
    /// Whether the measured value keeps its bound.
    pub fn holds(&self) -> bool {
        match self.bound {
            Bound::Min(b) => self.value >= b,
            Bound::Max(b) => self.value <= b,
        }
    }
}

impl Serialize for Gate {
    fn to_value(&self) -> Value {
        let (key, bound) = match self.bound {
            Bound::Min(b) => ("min", b),
            Bound::Max(b) => ("max", b),
        };
        Value::Map(vec![
            ("name".into(), self.name.to_value()),
            ("value".into(), self.value.to_value()),
            (key.into(), bound.to_value()),
        ])
    }
}

impl Deserialize for Gate {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |key: &str| v.get(key).map(f64::from_value).transpose();
        let bound = match (field("min")?, field("max")?) {
            (Some(b), None) => Bound::Min(b),
            (None, Some(b)) => Bound::Max(b),
            _ => return Err(Error::new("a gate has exactly one of `min` and `max`")),
        };
        let get = |key: &str| {
            v.get(key)
                .ok_or_else(|| Error::new(format!("gate without `{key}`")))
        };
        Ok(Gate {
            name: String::from_value(get("name")?)?,
            value: f64::from_value(get("value")?)?,
            bound,
        })
    }
}

impl Ledger {
    /// An empty ledger for `bench`, recording this machine's parallelism.
    pub fn new(bench: &str) -> Self {
        Ledger {
            bench: bench.to_owned(),
            env: Env {
                available_parallelism: std::thread::available_parallelism()
                    .map_or(1, std::num::NonZeroUsize::get)
                    as u64,
            },
            params: BTreeMap::new(),
            stages: Vec::new(),
            counters: BTreeMap::new(),
            gates: Vec::new(),
        }
    }

    /// Records a parameter.
    pub fn param(&mut self, name: &str, value: u64) -> &mut Self {
        self.params.insert(name.to_owned(), value);
        self
    }

    /// Records the parameter read from the environment variable `var`
    /// (`default` when unset or not an integer) and returns it.
    pub fn env_param(&mut self, name: &str, var: &str, default: u64) -> u64 {
        let value = std::env::var(var)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default);
        self.param(name, value);
        value
    }

    /// Records a timed section.
    pub fn stage(&mut self, name: &str, wall_ns: u64, count: u64) -> &mut Self {
        self.stages.push(Stage {
            name: name.to_owned(),
            wall_ns,
            count,
        });
        self
    }

    /// Times `f` and records it as the stage `name` covering `count`
    /// units of work. One untimed call warms up; then `f` runs until both
    /// the `bench_ms` window has passed and 10 calls ran, and `wall_ns` is
    /// the mean per call. The first call reads the window from
    /// `WAFFLE_BENCH_MS` (default 300) into the `bench_ms` param.
    pub fn time<O>(&mut self, name: &str, count: u64, mut f: impl FnMut() -> O) -> &mut Self {
        let window_ms = match self.params.get("bench_ms") {
            Some(&ms) => ms,
            None => self.env_param("bench_ms", "WAFFLE_BENCH_MS", 300),
        };
        let window = Duration::from_millis(window_ms);
        black_box(f());
        let start = Instant::now();
        let mut calls = 0u64;
        loop {
            black_box(f());
            calls += 1;
            if start.elapsed() >= window && calls >= 10 {
                break;
            }
        }
        let mean_ns = (start.elapsed().as_nanos() / u128::from(calls)) as u64;
        println!("{name:<50} {mean_ns:>14} ns/iter");
        self.stage(name, mean_ns, count)
    }

    /// Records an exact work count.
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        self.counters.insert(name.to_owned(), value);
        self
    }

    /// Records a gate: `value` must be at least `bound`.
    pub fn min(&mut self, name: &str, value: f64, bound: f64) -> &mut Self {
        self.gate(name, value, Bound::Min(bound))
    }

    /// Records a gate: `value` must be at most `bound`.
    pub fn max(&mut self, name: &str, value: f64, bound: f64) -> &mut Self {
        self.gate(name, value, Bound::Max(bound))
    }

    fn gate(&mut self, name: &str, value: f64, bound: Bound) -> &mut Self {
        self.gates.push(Gate {
            name: name.to_owned(),
            value,
            bound,
        });
        self
    }

    /// Writes the ledger to `BENCH_<bench>.json` at the workspace root.
    ///
    /// # Panics
    ///
    /// When any gate fails (naming each failing gate, its value and its
    /// bound; nothing is written), or when the file cannot be written.
    pub fn write(&self) {
        let failing: Vec<String> = self
            .gates
            .iter()
            .filter(|g| !g.holds())
            .map(|g| match g.bound {
                Bound::Min(b) => format!("{} = {} is under its min {b}", g.name, g.value),
                Bound::Max(b) => format!("{} = {} is over its max {b}", g.name, g.value),
            })
            .collect();
        assert!(
            failing.is_empty(),
            "BENCH_{}.json not written; failing gates:\n  {}",
            self.bench,
            failing.join("\n  ")
        );
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("BENCH_{}.json", self.bench));
        let json = serde_json::to_string_pretty(self).expect("ledger serializes");
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_round_trips_with_one_bound_key_per_gate() {
        let mut l = Ledger::new("unit");
        l.param("events", 100)
            .stage("scan", 1_000, 100)
            .counter("window_pairs", 7)
            .min("speedup", 12.5, 10.0)
            .max("peak_ratio", 1.0, 1.2);
        let json = serde_json::to_string_pretty(&l).unwrap();
        assert!(json.contains("\"min\": 10.0") && json.contains("\"max\": 1.2"));
        assert!(!json.contains("null"));
        let back: Ledger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
        assert!(back.env.available_parallelism >= 1);
        assert!(back.gates.iter().all(Gate::holds));
    }

    #[test]
    fn time_warms_up_once_then_runs_ten_calls_in_an_empty_window() {
        let mut l = Ledger::new("unit");
        l.param("bench_ms", 0);
        let mut calls = 0;
        l.time("noop", 7, || calls += 1);
        assert_eq!(calls, 11);
        assert_eq!(l.params["bench_ms"], 0);
        assert_eq!(l.stages.len(), 1);
        assert_eq!((l.stages[0].name.as_str(), l.stages[0].count), ("noop", 7));
    }

    #[test]
    fn a_gate_needs_exactly_one_bound() {
        for bad in [
            r#"{"name":"g","value":1.0}"#,
            r#"{"name":"g","value":1.0,"min":0.0,"max":2.0}"#,
        ] {
            assert!(serde_json::from_str::<Gate>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "speedup = 9.5 is under its min 10")]
    fn write_refuses_a_failing_gate() {
        let mut l = Ledger::new("unit_failing");
        l.min("speedup", 9.5, 10.0).max("peak_ratio", 1.0, 1.2);
        l.write();
    }
}
