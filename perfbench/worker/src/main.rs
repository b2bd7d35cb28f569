//! Benchmark worker: runs exactly one measured pass of a packaged design
//! and prints one JSON line describing it. `perfbench/run.py` starts one
//! process per pass, so every pass starts cold (empty translation cache,
//! fresh allocator, zeroed trace counters) like a user's `specmatcher
//! check`. Whole checks are timed on the `specmatcher` binary itself; the
//! worker times only what the CLI does not expose on its own.
//!
//! ```text
//! perfbench-worker setup  <design> <backend>         time CoverageModel::build_with_symbolic_options
//! perfbench-worker primary <design> <backend>        time primary_coverage on a fresh model
//! perfbench-worker traced <design> <backend> <bmc>   the check pipeline call by call, tracing on
//! ```
//!
//! Every pass runs with one closure-verification worker (`--jobs 1`). The
//! worker exits 0 after a pass and 2 when the pass could not run.

use dic_core::{
    find_gap_outcome, primary_coverage, uncovered_terms_with_runs, Backend, BmcMode, CoverageModel,
    GapConfig, ReorderMode, SymbolicOptions,
};
use dic_designs::{table1_designs, Design};
use dic_trace::{Counter, Gauge, Stopwatch};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench-worker: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    // Fail closed: a stray override would silently change what is measured.
    if let Some((key, _)) = std::env::vars().find(|(k, _)| k.starts_with("SPECMATCHER_")) {
        return Err(format!("refusing to measure with {key} set"));
    }
    dic_core::validate_env()?;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, what: &str| {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}; see the module docs for usage"))
    };
    let mode = arg(0, "mode")?;
    let design = find_design(arg(1, "design")?)?;
    let backend = Backend::parse(arg(2, "backend")?).ok_or("unknown backend")?;
    match mode {
        "setup" => {
            let sw = Stopwatch::start();
            let model = build_model(&design, backend).map_err(|e| e.to_string())?;
            let setup_s = sw.elapsed().as_secs_f64();
            drop(model);
            println!("{{\"setup_s\":{setup_s}}}");
            Ok(())
        }
        "primary" => primary(&design, backend),
        "traced" => {
            let bmc = BmcMode::parse(arg(3, "bmc mode")?).ok_or("unknown bmc mode")?;
            traced(&design, backend, bmc)
        }
        other => Err(format!("unknown mode {other:?}")),
    }
}

fn find_design(name: &str) -> Result<Design, String> {
    table1_designs()
        .into_iter()
        .find(|d| d.name == name)
        .ok_or_else(|| format!("unknown design {name:?}"))
}

/// Model construction exactly as `SpecMatcher::check` performs it.
fn build_model(design: &Design, backend: Backend) -> Result<CoverageModel, dic_core::CoreError> {
    let options = SymbolicOptions::from_env()
        .map_err(dic_core::CoreError::Symbolic)?
        .with_reorder(ReorderMode::Auto);
    CoverageModel::build_with_symbolic_options(
        &design.arch,
        &design.rtl,
        &design.table,
        backend,
        options,
    )
}

/// The primary phase alone, timed as the pipeline times it: the sum over
/// the architectural properties of `primary_coverage` on a fresh model.
fn primary(design: &Design, backend: Backend) -> Result<(), String> {
    let model = build_model(design, backend).map_err(|e| e.to_string())?;
    let mut primary_s = 0.0;
    let mut covered = true;
    for prop in design.arch.properties() {
        let sw = Stopwatch::start();
        let witness =
            primary_coverage(prop.formula(), &design.rtl, &model).map_err(|e| e.to_string())?;
        primary_s += sw.elapsed().as_secs_f64();
        covered &= witness.is_none();
    }
    println!("{{\"primary_s\":{primary_s},\"covered\":{covered}}}");
    Ok(())
}

/// The `check` pipeline taken apart at its public calls, each wrapped in a
/// `bench.*` span, with tracing on. The root span `bench.check` covers the
/// whole pass; its self time is the time no other span covers. `T_M` and
/// Theorem 2's exact hole (microseconds) are not rebuilt here.
fn traced(design: &Design, backend: Backend, bmc: BmcMode) -> Result<(), String> {
    dic_trace::set_enabled(true);
    dic_trace::reset();
    // As `SpecMatcher::with_backend(backend).with_jobs(1)` configures it.
    let config = GapConfig {
        backend,
        jobs: 1,
        ..GapConfig::default()
    };
    let err = |e: dic_core::CoreError| e.to_string();

    let mut fingerprint = Vec::new();
    // Any engine error aborts the pass, so every uncovered verdict is settled.
    let (mut incomplete, mut all_covered, mut unknown) = (false, true, 0usize);
    let root = dic_trace::span("bench.check");
    let sw = Stopwatch::start();
    let mut model = {
        let _s = dic_trace::span("bench.setup");
        build_model(design, backend).map_err(err)?
    };
    model.set_bmc_mode(bmc);
    let (resolved, gap_backend) = (model.primary_backend(), model.gap_backend_choice(backend));
    for prop in design.arch.properties() {
        let fa = prop.formula();
        let witness = {
            let _s = dic_trace::span("bench.primary");
            primary_coverage(fa, &design.rtl, &model).map_err(err)?
        };
        if witness.is_none() {
            continue;
        }
        all_covered = false;
        let (terms, runs) = {
            let _s = dic_trace::span("bench.uncovered_terms");
            uncovered_terms_with_runs(fa, &design.rtl, &model, &config).map_err(err)?
        };
        let outcome = {
            let _s = dic_trace::span("bench.find_gap");
            find_gap_outcome(fa, &terms, &runs, &design.rtl, &model, &config).map_err(err)?
        };
        incomplete |= outcome.incomplete.is_some();
        unknown += outcome.unknown.len();
        // Rendered as `dic_bench::gap_fingerprint` renders a full run.
        fingerprint.extend(
            outcome
                .properties
                .iter()
                .map(|g| format!("{}: {}", prop.name(), g.formula.display(&design.table))),
        );
    }
    drop(model);
    let check_s = sw.elapsed().as_secs_f64();
    drop(root);
    dic_trace::set_enabled(false);

    let data = dic_trace::capture();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in &data.spans {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    // name -> (calls, total ns, self ns), summed over every span of that name.
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in &data.spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    let spans: Vec<String> = by_name
        .iter()
        .map(|(name, (calls, total, own))| {
            format!(
                "{}:{{\"calls\":{calls},\"total_s\":{},\"self_s\":{}}}",
                json_str(name),
                *total as f64 / 1e9,
                *own as f64 / 1e9
            )
        })
        .collect();
    let counters: Vec<String> = Counter::ALL
        .iter()
        .map(|&c| format!("{}:{}", json_str(c.name()), dic_trace::counter_value(c)))
        .chain(
            Gauge::ALL
                .iter()
                .map(|&g| format!("{}:{}", json_str(g.name()), dic_trace::gauge_value(g))),
        )
        .collect();
    println!(
        "{{\"check_s\":{check_s},\"covered\":{all_covered},\"complete\":{},\"unknown\":{unknown},\
         \"backend\":{},\"gap_backend\":{},\"fingerprint\":{},\"spans\":{{{}}},\"counters\":{{{}}}}}",
        !incomplete,
        json_str(&resolved.to_string()),
        json_str(&gap_backend.to_string()),
        json_list(&fingerprint),
        spans.join(","),
        counters.join(","),
    );
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", parts.join(","))
}
