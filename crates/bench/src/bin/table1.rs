//! Regenerates the paper's Table 1: per-design runtimes of the three
//! SpecMatcher phases, printed next to the published 2006 numbers.
//!
//! Run with: `cargo run --release -p dic-bench --bin table1 [-- --backend auto|explicit|symbolic] [--bmc off|auto] [--json]`
//!
//! With `--json`, also writes `BENCH_table1.json`: the measured per-phase
//! wall times plus the pre/post-reduction automaton sizes of every spec
//! conjunct (CI's nightly benchmark-trajectory artifact).

use dic_bench::{
    bench_table1_json, design_reductions, measure_design, paper_reference, BENCH_TABLE1_PATH,
};
use dic_core::{Backend, BmcMode};
use dic_designs::table1_designs;

fn main() {
    // Fail-closed env audit, mirroring the specmatcher binary: a typoed
    // SPECMATCHER_* override is a usage error (exit 2), never a silently
    // defaulted measurement.
    if let Err(msg) = dic_core::validate_env() {
        eprintln!("table1: {msg}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mut json_rows = Vec::new();
    let backend = args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .map(|s| Backend::parse(s).expect("--backend explicit|symbolic|auto"))
        .unwrap_or(Backend::Explicit);
    let bmc = args
        .iter()
        .position(|a| a == "--bmc")
        .and_then(|i| args.get(i + 1))
        .map(|s| BmcMode::parse(s).expect("--bmc off|auto"))
        .unwrap_or_default();
    println!(
        "Table 1 — SpecMatcher runtimes (measured on this machine vs DATE 2006, 2 GHz P4; requested backend: {backend}, bmc: {bmc})"
    );
    println!();
    println!(
        "{:<18} {:>5} {:>9} {:>9}  {:>12} {:>12} {:>12}   {:>8} {:>8} {:>8}",
        "Circuit", "props", "primary", "gap", "Primary (s)", "TM (s)", "Gap (s)", "P4 Prim", "P4 TM", "P4 Gap"
    );
    let reference = paper_reference();
    for (design, paper) in table1_designs().iter().zip(reference) {
        let row = measure_design(design, backend, bmc);
        println!(
            "{:<18} {:>5} {:>9} {:>9}  {:>12.4} {:>12.4} {:>12.4}   {:>8.2} {:>8.2} {:>8.2}",
            row.circuit,
            row.num_rtl,
            row.backend.to_string(),
            row.gap_backend.to_string(),
            row.primary.as_secs_f64(),
            row.tm_build.as_secs_f64(),
            row.gap_find.as_secs_f64(),
            paper.2,
            paper.3,
            paper.4,
        );
        // The three real designs carry exactly the published property
        // counts. The toy example is published with its 2 illustrative
        // properties; our suite adds the 4 well-posedness properties
        // (completions, reset, cache fairness) that EXPERIMENTS.md
        // documents, so its count is compared against 2 + 4.
        let expected = if row.circuit == "mal-ex2" {
            paper.1 + 4
        } else {
            paper.1
        };
        assert_eq!(
            row.num_rtl, expected,
            "property count must match the documented accounting"
        );
        if json {
            json_rows.push((row, design_reductions(design)));
        }
    }
    if json {
        std::fs::write(BENCH_TABLE1_PATH, bench_table1_json(backend, &json_rows))
            .expect("write BENCH_table1.json");
        println!();
        println!("wrote {BENCH_TABLE1_PATH}");
    }
    println!();
    println!("shape check: gap finding dominates the other phases, as in the paper;");
    println!("absolute values differ (explicit-state checker on a modern CPU vs 2006 tool on a P4).");
    println!("the toy example row carries 2 published + 4 well-posedness properties (see EXPERIMENTS.md).");
    println!("rerun with `-- --backend symbolic` (or `auto`) for the BDD engine's primary-phase numbers.");
}
