//! Renders a `--trace-out` JSONL campaign trace: parses every record
//! against the telemetry trace schema, then prints a per-phase time
//! table, the compiled-settle fast-path hit rate and the runtime
//! witness-oracle misses (when the trace has `Metrics` records), the
//! per-goal solver cost table with p50/p90/p99 per-call conflict
//! quantiles (when the trace has `GoalSolveCost` records from an
//! introspected campaign), the bitblast-cache hit rate (when the trace
//! has `SolverCache` records from an incremental campaign) and the
//! coverage/stagnation/bug timeline.
//!
//! Usage: `tracedump <trace.jsonl> [--check] [--json]`
//!
//! With `--check` every line is parsed and re-emitted, and the check
//! fails, naming the line, unless the re-emitted line equals the input
//! byte for byte (no rendering). With `--json` the parsed records are
//! re-emitted as canonical JSONL, which is exactly what the telemetry
//! layer writes. A schema or syntax violation, an empty trace or an
//! unknown flag exits non-zero in every mode.

use std::process::ExitCode;
use symbfuzz_bench::trace::{
    goal_cost_table, phase_table, settle_mix_table, solver_cache_table, timeline, witness_summary,
};
use symbfuzz_telemetry::{parse_trace, TraceLine};

const USAGE: &str = "usage: tracedump <trace.jsonl> [--check] [--json]";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    path: String,
    check: bool,
    json: bool,
}

/// Parses the arguments after the program name: exactly one path plus
/// the `--check` / `--json` flags, in any order.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut path, mut check, mut json) = (None, false, false);
    for a in args {
        match a.as_str() {
            "--check" => check = true,
            "--json" => json = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            p if path.is_none() => path = Some(p.to_string()),
            p => return Err(format!("unexpected argument `{p}`")),
        }
    }
    let path = path.ok_or("missing trace path")?;
    Ok(Args { path, check, json })
}

/// Like [`parse_trace`], but also re-emits every non-blank line and
/// fails on the first one whose re-emission differs from the input.
fn check_round_trip(text: &str) -> Result<Vec<TraceLine>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = TraceLine::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let canonical = record.to_json();
        if canonical != line {
            return Err(format!(
                "line {}: does not re-emit byte-identically (canonical: {canonical})",
                i + 1
            ));
        }
        records.push(record);
    }
    Ok(records)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { path, check, json } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tracedump: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracedump: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = if check {
        check_round_trip(&text)
    } else {
        parse_trace(&text)
    };
    let records = match parsed {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tracedump: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if records.is_empty() {
        // An empty (or whitespace-only) trace is evidence of a broken
        // producer — a campaign that wrote nothing, or a truncated
        // copy — never a healthy run, so `--check` must not bless it.
        eprintln!("tracedump: {path}: no records (empty or truncated trace)");
        return ExitCode::FAILURE;
    }
    if check {
        println!("{path}: {} records, schema OK", records.len());
        return ExitCode::SUCCESS;
    }
    if json {
        let out: String = records.iter().map(|r| r.to_json() + "\n").collect();
        print!("{out}");
        return ExitCode::SUCCESS;
    }
    let tasks = records.iter().map(|r| r.task).max().map_or(0, |m| m + 1);
    println!(
        "# Trace `{path}` — {} records from {tasks} task(s)\n",
        records.len()
    );
    println!("## Phase breakdown\n");
    println!("{}", phase_table(&records));
    let mix = settle_mix_table(&records);
    if !mix.is_empty() {
        println!("## Compiled-settle fast path\n");
        println!("{mix}");
    }
    let witness = witness_summary(&records);
    if !witness.is_empty() {
        println!("## Witness oracle\n");
        println!("{witness}");
    }
    let costs = goal_cost_table(&records);
    if !costs.is_empty() {
        println!("## Per-goal solver cost\n");
        println!("{costs}");
    }
    let cache = solver_cache_table(&records);
    if !cache.is_empty() {
        println!("## Solver cache\n");
        println!("{cache}");
    }
    println!("## Timeline\n");
    print!("{}", timeline(&records));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_take_one_path_and_two_flags() {
        assert_eq!(
            args(&["--json", "t.jsonl", "--check"]),
            Ok(Args {
                path: "t.jsonl".into(),
                check: true,
                json: true
            })
        );
        assert_eq!(
            args(&["t.jsonl"]),
            Ok(Args {
                path: "t.jsonl".into(),
                check: false,
                json: false
            })
        );
        // A misspelt flag is an error, not a silent render.
        assert!(args(&["t.jsonl", "--chekc"]).is_err());
        assert!(args(&["-j", "t.jsonl"]).is_err());
        assert!(args(&["a.jsonl", "b.jsonl"]).is_err());
        assert!(args(&["--check"]).is_err());
        assert!(args(&[]).is_err());
    }

    #[test]
    fn check_requires_byte_identical_re_emission() {
        let canonical = "{\"t\":0,\"task\":0,\"kind\":\"FullReset\"}\n\n\
                         {\"t\":1,\"task\":0,\"kind\":\"PartialReset\",\"prefix_len\":2}\n";
        assert_eq!(check_round_trip(canonical).unwrap().len(), 2);
        // Valid but not canonical: field order and whitespace differ.
        let reordered = "{\"t\":0,\"task\":0,\"kind\":\"FullReset\"}\n\
                         {\"task\":0,\"t\":1,\"kind\":\"PartialReset\",\"prefix_len\":2}\n";
        let err = check_round_trip(reordered).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let spaced = "{\"t\": 0,\"task\":0,\"kind\":\"FullReset\"}\n";
        assert!(check_round_trip(spaced).unwrap_err().starts_with("line 1:"));
        // Schema violations keep their line numbers.
        let bad = "{\"t\":0,\"task\":0,\"kind\":\"FullReset\"}\n{\"t\":0}\n";
        assert!(check_round_trip(bad).unwrap_err().starts_with("line 2:"));
        assert_eq!(check_round_trip(""), Ok(Vec::new()));
    }
}
