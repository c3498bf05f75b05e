//! Reproduces the paper's evaluation: prints every table of
//! [`waffle_bench::repro`] and writes them all to `REPRO.json` at the
//! workspace root.

use std::path::Path;

fn main() {
    let tables = waffle_bench::repro::all();
    for t in &tables {
        println!("{}", t.render());
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../REPRO.json");
    let json = serde_json::to_string_pretty(&tables).expect("tables serialize");
    std::fs::write(&path, json + "\n").expect("write REPRO.json");
}
