//! Table 1: the design-decision matrix, mapped to this crate's tools.

fn main() {
    println!("Table 1: design decisions of active delay injection tools");
    println!("(y = yes, n = no, p = partial, - = not applicable)\n");
    let rows = [
        ("", "RaceFuzzer", "CTrigger", "RaceMob", "DataCollider", "Tsvd", "Waffle"),
        ("synchronization analysis?", "y", "y", "y", "n", "n", "p"),
        ("synchronization inference?", "n", "n", "n", "n", "y", "y"),
        ("identify during injection runs?", "n", "n", "n", "n", "y", "n"),
        ("fixed-length delay?", "y", "y", "n", "y", "y", "n"),
        ("avoids delay interference?", "-", "-", "-", "-", "n", "y"),
        ("sampled candidate locations?", "y", "y", "y", "y", "n", "n"),
        ("probabilistic injection?", "n", "n", "y", "y", "y", "y"),
    ];
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:<34} {:>10} {:>9} {:>8} {:>13} {:>5} {:>7}",
            r.0, r.1, r.2, r.3, r.4, r.5, r.6
        );
        if i == 0 {
            println!("{}", "-".repeat(94));
        }
    }
    println!("\nImplemented in this repository:");
    println!("  Tsvd              -> waffle_inject::OnlinePolicy, Pairing::Tsv (thread-safety violations)");
    println!("  Waffle            -> waffle_core::Tool::waffle()");
    println!("  WaffleBasic (§3)  -> waffle_core::Tool::waffle_basic() (OnlinePolicy, Pairing::MemOrder)");
    println!("  sampled-location  -> waffle_inject::SingleDelayPolicy (RaceFuzzer/CTrigger-style)");
    println!("  unguided          -> waffle_inject::RandomSleepPolicy (DataCollider-style)");
    println!("  ablations (Tbl 7) -> Tool::waffle_no_parent_child / waffle_no_prep /");
    println!("                       waffle_fixed_delay / waffle_no_interference");
    println!("  extension (§8)    -> waffle_inject::WafflePolicy over PlanTables::compile_tsv (plan-guided TSV)");
}
