//! The shape claims of the paper's evaluation, asserted over the
//! committed `REPRO.json`, and EXPERIMENTS.md checked against it. The
//! file is written by `cargo bench -p waffle-bench --bench repro`, and CI
//! reruns that driver and fails when the output differs from the
//! committed copy, so these checks hold for what the code measures today.

use serde_json::Value;

/// Every table the driver writes, in its order.
const TABLES: [&str; 20] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "overlap",
    "task_pruning",
    "delay_sweep",
    "delta_sweep",
    "baselines",
    "protocol",
    "waffle_tsv",
    "waffle_tsv_gaps",
    "join_aware",
];

fn repro() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/REPRO.json");
    let text = std::fs::read_to_string(path).expect("REPRO.json is committed");
    serde_json::from_str(&text).expect("REPRO.json parses")
}

/// One table of `REPRO.json`: its column names and rows of cells.
struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    fn named(name: &str) -> Table {
        let all = repro();
        let t = all
            .as_seq()
            .expect("REPRO.json is a list of tables")
            .iter()
            .find(|t| t["name"] == name)
            .unwrap_or_else(|| panic!("REPRO.json has no {name}"))
            .clone();
        Table {
            columns: t["columns"]
                .as_seq()
                .expect("columns")
                .iter()
                .map(|c| c.as_str().expect("column name").to_string())
                .collect(),
            rows: t["rows"]
                .as_seq()
                .expect("rows")
                .iter()
                .map(|r| r.as_seq().expect("row").to_vec())
                .collect(),
        }
    }

    /// The measured value in `column` of `row`, without the paper's.
    fn get<'a>(&self, row: &'a [Value], column: &str) -> &'a Value {
        let i = self
            .columns
            .iter()
            .position(|c| c == column)
            .unwrap_or_else(|| panic!("no column {column}"));
        match row[i].get("measured") {
            Some(m) => m,
            None => &row[i],
        }
    }
}

#[test]
fn every_table_is_present_and_well_formed() {
    let all = repro();
    let names: Vec<&str> = all
        .as_seq()
        .expect("REPRO.json is a list of tables")
        .iter()
        .map(|t| t["name"].as_str().expect("table name"))
        .collect();
    assert_eq!(names, TABLES);
    for name in TABLES {
        let t = Table::named(name);
        assert!(!t.rows.is_empty(), "{name} has no rows");
        for r in &t.rows {
            assert_eq!(r.len(), t.columns.len(), "{name}: ragged row {:?}", r[0]);
        }
    }
}

#[test]
fn waffle_exposes_all_18_bugs() {
    let t = Table::named("table4");
    assert_eq!(t.rows.len(), 18);
    for r in &t.rows {
        assert!(
            t.get(r, "Waffle runs").as_u64().is_some(),
            "{:?}: Waffle must expose it",
            r[0]
        );
    }
}

#[test]
fn waffle_basic_misses_exactly_the_interference_bound_bugs() {
    let t = Table::named("table4");
    let missed: Vec<&str> = t
        .rows
        .iter()
        .filter(|r| *t.get(r, "Basic runs") == "-")
        .map(|r| r[0].as_str().expect("bug label"))
        .collect();
    assert_eq!(
        missed,
        ["Bug-8", "Bug-10", "Bug-12", "Bug-13", "Bug-15", "Bug-16", "Bug-17"]
    );
}

#[test]
fn only_mqtt_net_times_out_under_waffle_basic() {
    for (name, basic, waffle) in [
        (
            "table5",
            ["Basic R#1", "Basic R#2"],
            ["Waffle R#1", "Waffle R#2"],
        ),
        (
            "table6",
            ["Basic #", "Basic dur(ms)"],
            ["Waffle #", "Waffle dur(ms)"],
        ),
    ] {
        let t = Table::named(name);
        for r in &t.rows {
            let mqtt = r[0] == "MQTT.Net";
            for c in basic {
                assert_eq!(*t.get(r, c) == "TimeOut", mqtt, "{name} {:?} {c}", r[0]);
            }
            for c in waffle {
                assert!(t.get(r, c).as_f64().is_some(), "{name} {:?} {c}", r[0]);
            }
        }
    }
}

#[test]
fn waffle_run2_overhead_is_below_basic_on_every_app() {
    let t = Table::named("table5");
    let mut compared = 0;
    for r in &t.rows {
        let Some(basic) = t.get(r, "Basic R#2").as_f64() else {
            continue;
        };
        let waffle = t.get(r, "Waffle R#2").as_f64().expect("Waffle R#2");
        assert!(
            waffle < basic,
            "{:?}: Waffle {waffle}% vs Basic {basic}%",
            r[0]
        );
        compared += 1;
    }
    assert_eq!(compared, t.rows.len() - 1, "only MQTT.Net times out");
}

/// The rows of the first markdown table after `heading` in
/// EXPERIMENTS.md, header first, as trimmed cells.
fn markdown_table(heading: &str) -> Vec<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let md = std::fs::read_to_string(path).expect("EXPERIMENTS.md exists");
    let start = md.find(heading).unwrap_or_else(|| panic!("no {heading}"));
    md[start..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter(|l| !l.starts_with("|-"))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

/// Whether a markdown cell shows `value` as its measured part: the text
/// before the paper's value in parentheses, without bold, `×` or `%`.
fn shows(cell: &str, value: &Value) -> bool {
    let measured = cell.split(" (").next().unwrap_or("").replace("**", "");
    let measured = measured.trim_end_matches(['×', '%']).replace('–', "-");
    match value.as_f64() {
        Some(v) => measured.parse::<f64>() == Ok(v),
        None => value == &measured,
    }
}

#[test]
fn experiments_md_copies_the_measured_cells() {
    for (name, heading, row_prefix, columns) in [
        (
            "table4",
            "## Table 4",
            "Bug-",
            &[
                "App",
                "Base(ms)",
                "Basic runs",
                "Waffle runs",
                "Basic slow",
                "Waffle slow",
            ][..],
        ),
        (
            "table5",
            "## Table 5",
            "",
            &[
                "Base(ms)",
                "Basic R#1",
                "Basic R#2",
                "Waffle R#1",
                "Waffle R#2",
            ][..],
        ),
        (
            "table6",
            "## Table 6",
            "",
            &["Basic #", "Basic dur(ms)", "Waffle #", "Waffle dur(ms)"][..],
        ),
        (
            "table7",
            "## Table 7",
            "",
            &["# missed", "slowdown vs Waffle"][..],
        ),
    ] {
        let t = Table::named(name);
        let md = markdown_table(heading);
        // Full Waffle is Table 7's baseline row, stated in the prose.
        let rows: Vec<&Vec<Value>> = t.rows.iter().filter(|r| r[0] != "full Waffle").collect();
        assert_eq!(md.len() - 1, rows.len(), "{name}: row count");
        for (md_row, row) in md[1..].iter().zip(rows) {
            let label = format!("{row_prefix}{}", md_row[0]).replace('§', "s");
            assert_eq!(row[0], label, "{name}: row order");
            for (i, column) in columns.iter().enumerate() {
                let cell = &md_row[i + 1];
                let value = t.get(row, column);
                assert!(
                    shows(cell, value),
                    "{name} {label} {column}: {cell} vs {value:?}"
                );
            }
        }
    }
}
