//! Generates the solver-introspection report: runs introspected
//! SymbFuzz campaigns on the solver-hostile factoring lock and the
//! processor control, writes the joined report JSON and a
//! self-contained HTML page under `results/`, and prints the Markdown
//! summary. All artifacts are byte-identical at any `--jobs` count.
//!
//! Usage:
//!
//! * `solverscope [max_vectors] [solver_budget] [--jobs N] [--log-level
//!   LEVEL] [--trace-out PATH] [--solver-budget N] [--solve-wall-ms MS]
//!   [--snapshot-budget BYTES] [--introspect] [--sample-every N
//!   [--flight-out PATH] [--status-out PATH]] [--incremental]
//!   [--solver-cache-budget BYTES] [--affinity]` — generate
//!   `results/solverscope.json` and `results/solverscope.html`
//!   (defaults 1000, 500). Introspection is always on and the
//!   positional `solver_budget` overrides `--solver-budget`; the shared
//!   flags are described in `symbfuzz_bench::args`.
//! * `solverscope --check FILE...` — validate existing scope-report
//!   JSON artifacts against the schema; exits non-zero on the first
//!   violation.
//! * `solverscope --check-bench DIR` — schema-check every
//!   `BENCH_*.json` under `DIR` (throughput rows, finite ratios);
//!   exits non-zero on the first violation.

use std::process::ExitCode;
use symbfuzz_bench::args::{check_files, parse_bench_args};
use symbfuzz_bench::render::save_json;
use symbfuzz_bench::solverscope::{
    build_scope_report, render_scope_html, render_scope_markdown, validate_bench_artifact,
    validate_scope_report,
};
use symbfuzz_telemetry::info;

fn check_bench_dir(dir: &str) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("solverscope: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        eprintln!("solverscope: no BENCH_*.json under {dir}");
        return ExitCode::FAILURE;
    }
    let paths: Vec<String> = names.iter().map(|n| format!("{dir}/{n}")).collect();
    check_files("solverscope", &paths, |path, text| {
        let stem = path
            .rsplit('/')
            .next()
            .unwrap_or(path)
            .trim_end_matches(".json");
        validate_bench_artifact(stem, text).map(|()| "schema OK".into())
    })
}

fn main() -> ExitCode {
    let mut args = parse_bench_args(
        "solverscope [--check FILE... | --check-bench DIR] [max_vectors] [solver_budget]",
    );
    if let Some(dir) = args.take_value("--check-bench") {
        return check_bench_dir(&dir);
    }
    if args.take_flag("--check") {
        return check_files("solverscope", &args.rest, |_, text| {
            let r = validate_scope_report(text)?;
            Ok(format!(
                "scope report schema OK ({} designs)",
                r.designs.len()
            ))
        });
    }
    let max_vectors: u64 = args.pos(0, 1_000);
    let solver_budget: u64 = args.pos(1, 500);
    let report = build_scope_report(max_vectors, solver_budget, &args.run);
    save_json("solverscope", &report).expect("write results/solverscope.json");
    std::fs::write("results/solverscope.html", render_scope_html(&report))
        .expect("write results/solverscope.html");
    println!("{}", render_scope_markdown(&report));
    info!("wrote results/solverscope.json and results/solverscope.html");
    args.run.flush();
    ExitCode::SUCCESS
}
