//! Shared command-line handling for the bench binaries.
//!
//! [`parse_bench_args`] reads the process arguments once into a
//! [`BenchArgs`]: the positional arguments, the log level and one
//! [`RunOptions`] value that every experiment takes by reference.
//! Every campaign binary accepts, besides its positional arguments and
//! the extra flags it names itself:
//!
//! * `--jobs N` / `-j N` / `-jN` — worker threads (default: all cores;
//!   reports are byte-identical at any count);
//! * `--log-level LEVEL` — stderr logging verbosity (`off`, `warn`,
//!   `info`, `debug`; default `info`);
//! * `--trace-out PATH` — stream a wall-clock JSONL campaign trace to
//!   `PATH` ([`RunOptions::trace`]);
//! * `--solver-budget N` — conflict ceiling per symbolic solve;
//!   exhausted solves degrade to random mutation;
//! * `--solve-wall-ms N` — wall-clock ceiling per symbolic solve in
//!   milliseconds (non-deterministic: reports may vary between runs and
//!   job counts);
//! * `--snapshot-budget N` — byte budget for the copy-on-write snapshot
//!   store; unique bytes beyond it trigger oldest-first eviction;
//! * `--introspect` — solver introspection: per-goal CDCL analytics,
//!   blame sets for failed goals and the cross-goal affinity matrix land
//!   in the report's `solver_scope` block;
//! * `--sample-every N` — flight-recorder sampling interval in vectors
//!   (0 counts as 1); enables the sampler and the per-cone/per-goal
//!   profilers;
//! * `--flight-out PATH` / `--status-out PATH` — live `flight.jsonl`
//!   stream and `status.json` heartbeat of pool task 0 (require
//!   `--sample-every`; see [`RunOptions::attach`]);
//! * `--incremental` — keep warm solver sessions across goals sharing
//!   an unrolled frame (assumption-based incremental solving plus the
//!   bitblast cache);
//! * `--solver-cache-budget N` — byte budget for the warm-session
//!   bitblast cache; least-recently-used sessions are evicted beyond it;
//! * `--affinity` — order each guidance round's goal batch by
//!   KMV-sketch affinity (implies `--introspect`).
//!
//! Every valued flag also takes the `--flag=VALUE` spelling. A binary's
//! usage line is also its parser's spec ([`split_bench_args`]): it names
//! the binary's own flags and its positional arguments, which must be
//! non-negative integers. A binary that lists shared flags in its usage
//! line accepts only those. An unknown or unaccepted flag, a missing or
//! malformed value, a malformed or surplus positional argument,
//! `--flight-out`/`--status-out` without `--sample-every`, an option set
//! the campaign config rejects, or a trace file that cannot be created
//! prints the usage line and exits with status 2.

use crate::pool::default_jobs;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use symbfuzz_core::{FuzzConfig, FuzzConfigBuilder, SymbFuzz};
use symbfuzz_telemetry::{set_log_level, Collector, Level, SharedSink};

/// The shared flags, as every binary's usage line lists them.
const RUN_FLAGS_USAGE: &str = "[--jobs N] [--log-level LEVEL] [--trace-out PATH] \
     [--solver-budget N] [--solve-wall-ms MS] [--snapshot-budget BYTES] [--introspect] \
     [--sample-every N [--flight-out PATH] [--status-out PATH]] [--incremental] \
     [--solver-cache-budget BYTES] [--affinity]";

/// One bench run's configuration besides its positional arguments:
/// built once by [`parse_bench_args`] and passed by reference to every
/// experiment. A field left at its default leaves the experiment's own
/// campaign config untouched.
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Worker threads for the campaign pool (0 runs serially, like 1).
    pub jobs: usize,
    /// The `--trace-out` file. Pool tasks fan into it through
    /// [`SharedSink`] (whole lines under a lock), attributable by each
    /// record's `task` field.
    pub trace: Option<Arc<Mutex<BufWriter<File>>>>,
    /// Per-solve conflict ceiling.
    pub solver_budget: Option<u64>,
    /// Per-solve wall-clock ceiling in milliseconds.
    pub solve_wall_ms: Option<u64>,
    /// Snapshot-store byte budget.
    pub snapshot_budget: Option<u64>,
    /// Solver introspection.
    pub introspect: bool,
    /// Flight-recorder interval in vectors.
    pub sample_every: Option<u64>,
    /// Live flight-stream file of pool task 0.
    pub flight_out: Option<PathBuf>,
    /// Live status-heartbeat file of pool task 0.
    pub status_out: Option<PathBuf>,
    /// Incremental solving.
    pub incremental: bool,
    /// Bitblast-cache byte budget.
    pub solver_cache_budget: Option<u64>,
    /// Affinity-ordered goal batching (implies introspection).
    pub affinity: bool,
}

impl RunOptions {
    /// Default options on `jobs` workers.
    pub fn with_jobs(jobs: usize) -> RunOptions {
        RunOptions {
            jobs,
            ..RunOptions::default()
        }
    }

    /// Sets every option that was given on the campaign builder `b`.
    /// An experiment that pins a field sets it after this call, so its
    /// own value wins.
    pub fn apply(&self, mut b: FuzzConfigBuilder) -> FuzzConfigBuilder {
        if let Some(conflicts) = self.solver_budget {
            b = b.solver_budget(conflicts);
        }
        if let Some(ms) = self.solve_wall_ms {
            b = b.solve_wall_ms(ms);
        }
        if let Some(bytes) = self.snapshot_budget {
            b = b.snapshot_mem_budget(bytes);
        }
        if let Some(every) = self.sample_every {
            b = b.sample_every(every);
        }
        if self.incremental {
            b = b.incremental_solving(true);
        }
        if let Some(bytes) = self.solver_cache_budget {
            b = b.solver_cache_budget(bytes);
        }
        // Affinity ordering keys on introspection sketches, and the
        // builder rejects one without the other.
        if self.introspect || self.affinity {
            b = b.solver_introspection(true);
        }
        if self.affinity {
            b = b.affinity_ordering(true);
        }
        b
    }

    /// Wires one campaign of pool task `task` to the run's outputs.
    /// With a trace file, swaps the fuzzer's deterministic collector
    /// for a wall-clock one streaming into it, labelled with `task`;
    /// without one, reports keep the deterministic vector-count clock.
    /// Task 0 also streams its live flight samples and status heartbeat
    /// to `flight_out` / `status_out`, so each live file has exactly one
    /// writer; the other tasks' samples ride back in their reports.
    /// Only `resources` overwrites both files with the merge of all
    /// tasks after the pool drains; the other binaries leave task 0's
    /// live stream.
    pub fn attach(&self, fuzzer: &mut SymbFuzz, task: usize) {
        if let Some(writer) = &self.trace {
            let collector = Arc::new(Collector::monotonic());
            collector.set_task(task as u64);
            collector.set_sink(Box::new(SharedSink::new(Arc::clone(writer))));
            fuzzer.install_telemetry(collector);
        }
        if task == 0 {
            let (flight, status) = (self.flight_out.as_deref(), self.status_out.as_deref());
            if let Err(e) = fuzzer.set_flight_outputs(flight, status) {
                symbfuzz_telemetry::warn!("cannot open flight outputs: {e}");
            }
        }
    }

    /// Flushes the trace file (no-op without one).
    pub fn flush(&self) {
        if let Some(w) = &self.trace {
            if let Ok(mut w) = w.lock() {
                let _ = w.flush();
            }
        }
    }
}

/// Parsed bench arguments.
#[derive(Debug)]
pub struct BenchArgs {
    /// Positional arguments and the binary's own flags (a valued one as
    /// `--flag=VALUE`), in order.
    pub rest: Vec<String>,
    /// Requested stderr log level.
    pub log_level: Level,
    /// The run configuration every experiment takes.
    pub run: RunOptions,
}

impl BenchArgs {
    /// The `n`-th positional argument parsed as `T`, else `default`.
    /// The parser has checked that it is a non-negative integer.
    pub fn pos<T: FromStr>(&self, n: usize, default: T) -> T {
        self.rest
            .get(n)
            .and_then(|a| a.parse().ok())
            .unwrap_or(default)
    }

    /// Removes every occurrence of the extra switch `flag` from
    /// [`rest`](Self::rest); true when there was one.
    pub fn take_flag(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() != before
    }

    /// Removes every occurrence of the valued extra flag `flag` (kept in
    /// [`rest`](Self::rest) as `flag=VALUE`) and returns its last value.
    pub fn take_value(&mut self, flag: &str) -> Option<String> {
        let prefix = format!("{flag}=");
        let value = self.rest.iter().rev().find_map(|a| a.strip_prefix(&prefix));
        let value = value.map(str::to_string);
        self.rest.retain(|a| !a.starts_with(&prefix));
        value
    }
}

/// The flags, each with the name of its value if it takes one, and the
/// positional-argument names a usage line lists ([`split_usage`]).
fn usage_spec(usage: &str) -> (Vec<(&str, Option<&str>)>, Vec<&str>) {
    let (mut flags, mut positionals) = (Vec::new(), Vec::new());
    let mut words = usage
        .split_whitespace()
        .skip(1)
        .map(|w| w.trim_matches(['[', ']']))
        .filter(|w| *w != "|")
        .peekable();
    while let Some(w) = words.next() {
        if !w.starts_with('-') {
            positionals.push(w);
            continue;
        }
        let value = words.next_if(|v| v.starts_with(|c: char| c.is_ascii_uppercase()));
        flags.push((w, value));
    }
    (flags, positionals)
}

/// Whether `flag` is one of the shared run flags.
fn is_shared(flag: &str) -> bool {
    RUN_FLAGS_USAGE
        .split_whitespace()
        .any(|w| w.trim_matches(['[', ']']) == flag)
}

/// A bench binary's whole usage line: its own part `usage`, then the
/// shared flags, unless `usage` lists the shared flags it accepts.
fn full_usage(usage: &str) -> String {
    if usage_spec(usage).0.iter().any(|(f, _)| is_shared(f)) {
        usage.to_string()
    } else {
        format!("{usage} {RUN_FLAGS_USAGE}")
    }
}

/// `value` parsed as `T`, or an error naming `flag`.
pub fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("malformed value `{value}` for `{flag}`"))
}

/// Checks `args` (program name excluded) against a binary's `usage`
/// line and returns them in order: each flag as `--flag` or
/// `--flag=VALUE` (`-j N` and `-jN` as `--jobs=N`), each positional
/// argument as given. After the binary's name, the usage line lists
/// flags, each with an upper-case name of its value if it takes one
/// (`[--trace PATH]`; a name ending in `...` means the flag takes the
/// positional arguments, as in `[--check FILE...]`), and lower-case
/// positional-argument names (repeated when ending in `...`).
///
/// # Errors
///
/// A message naming the offending flag or position: a flag `usage` does
/// not list, a missing value, a value given to a switch, or a malformed
/// or surplus positional argument. Positional arguments must be
/// non-negative integers, unless a flag taking them (`--check FILE...`)
/// was given.
pub fn split_usage<A: IntoIterator<Item = String>>(
    args: A,
    usage: &str,
) -> Result<Vec<String>, String> {
    let (flags, positionals) = usage_spec(usage);
    let (mut out, mut files) = (Vec::new(), false);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            out.push(arg);
            continue;
        }
        let (flag, inline) = match arg.strip_prefix("-j").filter(|n| !n.is_empty()) {
            Some(n) => ("-j", Some(n)),
            None => arg
                .split_once('=')
                .map_or((arg.as_str(), None), |(f, v)| (f, Some(v))),
        };
        let name = if flag == "-j" { "--jobs" } else { flag };
        match flags.iter().find(|(f, _)| *f == name) {
            Some((_, None)) if inline.is_none() => out.push(arg),
            Some((_, Some(v))) if v.ends_with("...") && inline.is_none() => {
                files = true;
                out.push(arg);
            }
            Some((_, Some(_))) => {
                let value = inline
                    .map(str::to_string)
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("`{flag}` needs a value"))?;
                out.push(format!("{name}={value}"));
            }
            None if is_shared(name) => {
                let bin = usage.split(' ').next().unwrap_or_default();
                return Err(format!("`{flag}` has no effect in {bin}"));
            }
            _ => return Err(format!("unknown flag `{arg}`")),
        }
    }
    if !files {
        let repeats = positionals.last().filter(|p| p.ends_with("..."));
        for (i, a) in out.iter().filter(|a| !a.starts_with('-')).enumerate() {
            let Some(name) = positionals.get(i).or(repeats) else {
                return Err(format!("surplus positional argument {} `{a}`", i + 1));
            };
            if a.parse::<u64>().is_err() {
                return Err(format!(
                    "positional argument {} ({}) must be a non-negative integer, got `{a}`",
                    i + 1,
                    name.trim_end_matches("...")
                ));
            }
        }
    }
    Ok(out)
}

/// Parses `args` (program name excluded) with [`split_usage`] against
/// the binary's own `usage` line followed by the shared flags, or
/// against `usage` alone when it lists the shared flags it accepts.
/// Positional arguments and the binary's own flags
/// pass through to [`BenchArgs::rest`] in order, a valued one as
/// `--flag=VALUE`. Opens the `--trace-out` file (truncating it).
///
/// # Errors
///
/// A message naming the offending flag or position: a [`split_usage`]
/// error, a malformed value, `--flight-out`/`--status-out` without
/// `--sample-every`, options the campaign config rejects, or a trace
/// file that cannot be created.
pub fn split_bench_args<A: IntoIterator<Item = String>>(
    args: A,
    usage: &str,
) -> Result<BenchArgs, String> {
    let mut rest = Vec::new();
    let mut log_level = Level::Info;
    let mut trace_out = None;
    let mut run = RunOptions::with_jobs(default_jobs());
    for arg in split_usage(args, &full_usage(usage))? {
        let (flag, value) = arg.split_once('=').unwrap_or((&arg, ""));
        match flag {
            "--introspect" => run.introspect = true,
            "--incremental" => run.incremental = true,
            "--affinity" => run.affinity = true,
            "--jobs" => run.jobs = parse_value::<usize>(flag, value)?.max(1),
            "--log-level" => log_level = parse_value(flag, value)?,
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--solver-budget" => run.solver_budget = Some(parse_value(flag, value)?),
            "--solve-wall-ms" => run.solve_wall_ms = Some(parse_value(flag, value)?),
            "--snapshot-budget" => run.snapshot_budget = Some(parse_value(flag, value)?),
            "--sample-every" => run.sample_every = Some(parse_value::<u64>(flag, value)?.max(1)),
            "--flight-out" => run.flight_out = Some(PathBuf::from(value)),
            "--status-out" => run.status_out = Some(PathBuf::from(value)),
            "--solver-cache-budget" => run.solver_cache_budget = Some(parse_value(flag, value)?),
            _ => rest.push(arg),
        }
    }
    if run.sample_every.is_none() && (run.flight_out.is_some() || run.status_out.is_some()) {
        return Err("`--flight-out` and `--status-out` need `--sample-every`".into());
    }
    run.apply(FuzzConfig::builder())
        .build()
        .map_err(|e| format!("invalid run options: {e}"))?;
    if let Some(path) = trace_out {
        let file = File::create(&path)
            .map_err(|e| format!("cannot create `--trace-out` file {}: {e}", path.display()))?;
        run.trace = Some(Arc::new(Mutex::new(BufWriter::new(file))));
    }
    Ok(BenchArgs {
        rest,
        log_level,
        run,
    })
}

/// Reads each file of `paths` and runs `check(path, text)` on it,
/// printing `PATH: <its note>` on success and `BIN: PATH: <error>` on
/// failure; the status fails if any file is unreadable or rejected.
pub fn check_files(
    bin: &str,
    paths: &[String],
    check: impl Fn(&str, &str) -> Result<String, String>,
) -> ExitCode {
    let mut ok = true;
    for p in paths {
        let res = std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|text| check(p, &text).map_err(|e| format!("{p}: {e}")));
        match res {
            Ok(note) => println!("{p}: {note}"),
            Err(e) => {
                eprintln!("{bin}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// [`split_bench_args`] over the process arguments; sets the global log
/// level. On an error prints it and the whole usage line (shared flags
/// included) and exits with status 2.
pub fn parse_bench_args(usage: &str) -> BenchArgs {
    match split_bench_args(std::env::args().skip(1), usage) {
        Ok(args) => {
            set_log_level(args.log_level);
            args
        }
        Err(e) => {
            let bin = usage.split_whitespace().next().unwrap_or("bench");
            eprintln!("{bin}: {e}\nusage: {}", full_usage(usage));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Any number of positional arguments, no flags of its own.
    const ANY: &str = "bench [n...]";

    fn split(s: &str) -> BenchArgs {
        split_with(s, ANY).unwrap()
    }

    fn split_with(s: &str, usage: &str) -> Result<BenchArgs, String> {
        split_bench_args(s.split_whitespace().map(String::from), usage)
    }

    /// A fresh scratch directory for one test; the test removes it.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-args-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn extracts_log_level_and_trace_out() {
        let dir = scratch_dir("trace_out");
        let path = dir.join("t.jsonl");
        let a = split(&format!(
            "5000 --log-level debug --trace-out {} 2 -j 4",
            path.display()
        ));
        assert_eq!(a.rest, vec!["5000".to_string(), "2".to_string()]);
        assert_eq!(a.run.jobs, 4);
        assert_eq!(a.log_level, Level::Debug);
        assert!(a.run.trace.is_some());
        assert!(path.exists(), "--trace-out creates its file");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn equals_spellings_and_defaults() {
        let dir = scratch_dir("equals");
        let a = split(&format!(
            "--log-level=warn --trace-out={}",
            dir.join("t.jsonl").display()
        ));
        assert_eq!(a.log_level, Level::Warn);
        assert!(a.run.trace.is_some());
        std::fs::remove_dir_all(dir).unwrap();
        let b = split("1000");
        assert_eq!(b.log_level, Level::Info);
        assert!(b.run.trace.is_none());
        assert_eq!(b.pos(0, 0u64), 1000);
        assert_eq!(b.pos(1, 7u64), 7);
    }

    #[test]
    fn extracts_solver_budget_flags() {
        let a = split("2000 --solver-budget 10000 --solve-wall-ms=250 -j 2");
        assert_eq!(a.rest, vec!["2000".to_string()]);
        assert_eq!(a.run.solver_budget, Some(10_000));
        assert_eq!(a.run.solve_wall_ms, Some(250));
        let b = split("--solver-budget=500");
        assert_eq!(b.run.solver_budget, Some(500));
        assert_eq!(b.run.solve_wall_ms, None);
    }

    #[test]
    fn extracts_snapshot_budget() {
        let a = split("2000 --snapshot-budget 65536 -j 2");
        assert_eq!(a.rest, vec!["2000".to_string()]);
        assert_eq!(a.run.snapshot_budget, Some(65_536));
        let b = split("--snapshot-budget=1048576");
        assert_eq!(b.run.snapshot_budget, Some(1_048_576));
        assert!(split("42").run.snapshot_budget.is_none());
    }

    #[test]
    fn extracts_introspect_flag() {
        let a = split("2000 --introspect -j 2");
        assert_eq!(a.rest, vec!["2000".to_string()]);
        assert!(a.run.introspect);
        assert!(!split("2000").run.introspect);
    }

    #[test]
    fn extracts_flight_recorder_flags() {
        let a = split("5000 --sample-every 250 --flight-out f.jsonl --status-out s.json -j 2");
        assert_eq!(a.rest, vec!["5000".to_string()]);
        assert_eq!(a.run.sample_every, Some(250));
        assert_eq!(a.run.flight_out.as_deref(), Some(Path::new("f.jsonl")));
        assert_eq!(a.run.status_out.as_deref(), Some(Path::new("s.json")));
        let b = split("--sample-every=1000 --flight-out=r/f.jsonl --status-out=r/s.json");
        assert_eq!(b.run.sample_every, Some(1000));
        assert_eq!(b.run.flight_out.as_deref(), Some(Path::new("r/f.jsonl")));
        assert_eq!(b.run.status_out.as_deref(), Some(Path::new("r/s.json")));
        // The recorder is off by default; an interval of 0 means 1.
        let c = split("100");
        assert_eq!(c.run.sample_every, None);
        assert!(c.run.flight_out.is_none() && c.run.status_out.is_none());
        assert_eq!(split("--sample-every 0").run.sample_every, Some(1));
    }

    #[test]
    fn extracts_incremental_solver_flags() {
        let a = split("2000 --incremental --solver-cache-budget 4096 --affinity");
        assert_eq!(a.rest, vec!["2000".to_string()]);
        assert!(a.run.incremental);
        assert_eq!(a.run.solver_cache_budget, Some(4096));
        assert!(a.run.affinity);
        let b = split("--solver-cache-budget=1048576");
        assert!(!b.run.incremental && !b.run.affinity);
        assert_eq!(b.run.solver_cache_budget, Some(1_048_576));
        let d = split("42");
        assert!(!d.run.incremental && !d.run.affinity);
        assert!(d.run.solver_cache_budget.is_none());
    }

    #[test]
    fn split_jobs_accepts_all_spellings() {
        let jobs = |s: &str| {
            let a = split(s);
            (a.rest, a.run.jobs)
        };
        assert_eq!(jobs("5000 --jobs 4"), (vec!["5000".into()], 4));
        assert_eq!(
            jobs("--jobs=2 5000 1"),
            (vec!["5000".into(), "1".into()], 2)
        );
        assert_eq!(jobs("-j 8"), (Vec::<String>::new(), 8));
        assert_eq!(jobs("-j3 42"), (vec!["42".into()], 3));
        assert_eq!(jobs("--jobs 0").1, 1);
        let (rest, n) = jobs("1000 2000");
        assert_eq!(rest, vec!["1000".to_string(), "2000".to_string()]);
        assert!(n >= 1);
    }

    #[test]
    fn extra_flags_pass_through_in_order() {
        let mut a = split_with("--smoke 500 -j 2", "snapbench [--smoke] [vectors]").unwrap();
        assert_eq!(a.rest, vec!["--smoke".to_string(), "500".to_string()]);
        assert!(a.take_flag("--smoke"));
        assert_eq!(a.pos(0, 0u64), 500);
        assert!(!a.take_flag("--smoke"));
        let covreport = "covreport [--check FILE...] [budget] [bench_index] [--trace PATH]";
        let mut b = split_with("--check a.json --trace=t.jsonl", covreport).unwrap();
        assert_eq!(b.rest, vec!["--check", "a.json", "--trace=t.jsonl"]);
        // A valued flag's value is read like a shared flag's, in either
        // spelling, and kept as `--flag=VALUE`.
        assert_eq!(b.take_value("--trace").as_deref(), Some("t.jsonl"));
        assert_eq!(b.rest, vec!["--check", "a.json"]);
        let mut c = split_with("200 --trace t.jsonl 1", covreport).unwrap();
        assert_eq!(c.rest, vec!["200", "--trace=t.jsonl", "1"]);
        assert_eq!(c.take_value("--trace").as_deref(), Some("t.jsonl"));
        assert_eq!((c.pos(0, 0u64), c.pos(1, 9usize)), (200, 1));
        assert_eq!(c.take_value("--trace"), None);
        let solverscope =
            "solverscope [--check FILE... | --check-bench DIR] [max_vectors] [solver_budget]";
        let mut d = split_with("--check-bench results", solverscope).unwrap();
        assert_eq!(d.take_value("--check-bench").as_deref(), Some("results"));
        assert!(d.rest.is_empty());
        // Another binary's extra flag is unknown here.
        assert!(split_with("--smoke", "covreport [--check FILE...]").is_err());
        // A binary that lists shared flags accepts exactly those.
        let simbench = "simbench [cycles] [--log-level LEVEL]";
        assert_eq!(
            split_with("10 --log-level warn", simbench)
                .unwrap()
                .log_level,
            Level::Warn
        );
        let snapbench =
            "snapbench [--smoke] [vectors] [--snapshot-budget BYTES] [--log-level LEVEL]";
        let e = split_with("--smoke --snapshot-budget=4096", snapbench).unwrap();
        assert_eq!(e.run.snapshot_budget, Some(4096));
    }

    /// Every malformed command line is rejected with a message naming
    /// the offending flag, instead of being dropped or misread.
    #[test]
    fn bad_flags_are_rejected_naming_the_flag() {
        let missing =
            std::env::temp_dir().join(format!("bench-args-{}-absent", std::process::id()));
        let unwritable = format!("--trace-out {}", missing.join("t.jsonl").display());
        let table2 = "table2 [budget]";
        let budgetbench = "budgetbench [--smoke] [max_vectors] [budget...]";
        let covreport = "covreport [--check FILE...] [budget] [bench_index] [--trace PATH]";
        let solverscope =
            "solverscope [--check FILE... | --check-bench DIR] [max_vectors] [solver_budget]";
        let simbench = "simbench [cycles] [--log-level LEVEL]";
        let snapbench =
            "snapbench [--smoke] [vectors] [--snapshot-budget BYTES] [--log-level LEVEL]";
        let cases: &[(&str, &str, &str)] = &[
            (ANY, "50 500 --portfolio 4", "--portfolio"),
            (ANY, "--incremntal 200", "--incremntal"),
            (ANY, "--solver-budget lots", "--solver-budget"),
            (ANY, "--snapshot-budget plenty", "--snapshot-budget"),
            (ANY, "--sample-every often", "--sample-every"),
            (ANY, "--solver-cache-budget big", "--solver-cache-budget"),
            (ANY, "--solve-wall-ms=-5", "--solve-wall-ms"),
            (ANY, "--log-level chatty 42", "--log-level"),
            (ANY, "--jobs many", "--jobs"),
            (ANY, "-jx", "-j"),
            (ANY, "--jobs", "--jobs"),
            (ANY, "--trace-out", "--trace-out"),
            (ANY, "--introspect=yes", "--introspect=yes"),
            (ANY, "-x", "-x"),
            (ANY, "--flight-out f.jsonl", "--flight-out"),
            (ANY, "--status-out=s.json", "--status-out"),
            (ANY, "--solver-budget 0", "solver budget"),
            (ANY, "--snapshot-budget 100", "snapshot_mem_budget"),
            (ANY, &unwritable, "--trace-out"),
            // Malformed and surplus positional arguments.
            (table2, "3k", "positional argument 1 (budget)"),
            (table2, "4 3000", "surplus positional argument 2"),
            (budgetbench, "50 500 x", "positional argument 3 (budget)"),
            (ANY, "-5", "-5"),
            // A valued flag of the binary's own without its value.
            (covreport, "200 0 --trace", "`--trace` needs a value"),
            (
                solverscope,
                "--check-bench",
                "`--check-bench` needs a value",
            ),
            (snapbench, "--smoke=1", "--smoke=1"),
            // Shared flags a binary would ignore.
            (
                simbench,
                "10 --trace-out f.jsonl",
                "`--trace-out` has no effect in simbench",
            ),
            (simbench, "-j2", "`-j` has no effect"),
            (
                snapbench,
                "--smoke --introspect",
                "`--introspect` has no effect in snapbench",
            ),
            (snapbench, "--jobs 2", "`--jobs` has no effect"),
        ];
        for (usage, args, named) in cases {
            let err = split_with(args, usage).unwrap_err();
            assert!(
                err.contains(named),
                "`{args}`: error `{err}` does not name `{named}`"
            );
        }
        // `simbench --trace-out` leaves the file alone.
        let kept = scratch_dir("kept").join("t.jsonl");
        std::fs::write(&kept, "keep").unwrap();
        split_with(&format!("--trace-out {}", kept.display()), simbench).unwrap_err();
        assert_eq!(std::fs::read_to_string(&kept).unwrap(), "keep");
        std::fs::remove_dir_all(kept.parent().unwrap()).unwrap();
        // The files of `--check` are not numbers.
        assert!(split_with("--check a.json b.json", covreport).is_ok());
    }

    #[test]
    fn apply_sets_each_given_option() {
        let base = || FuzzConfig::builder().seed(9);
        let built = |o: RunOptions| o.apply(base()).build().unwrap();
        let default = base().build().unwrap();
        // Default options leave the experiment's config untouched.
        let same = built(RunOptions::with_jobs(4));
        assert_eq!(format!("{same:?}"), format!("{default:?}"));
        let c = built(RunOptions {
            solver_budget: Some(10),
            ..RunOptions::default()
        });
        assert_eq!(c.solver_budget, Some(10));
        assert_eq!(c.solve_wall_ms, None);
        let c = built(RunOptions {
            solve_wall_ms: Some(20),
            ..RunOptions::default()
        });
        assert_eq!(c.solve_wall_ms, Some(20));
        assert_eq!(c.solver_budget, default.solver_budget);
        let c = built(RunOptions {
            snapshot_budget: Some(4096),
            ..RunOptions::default()
        });
        assert_eq!(c.snapshot_mem_budget, 4096);
        let c = built(RunOptions {
            sample_every: Some(100),
            ..RunOptions::default()
        });
        assert_eq!(c.sample_every, Some(100));
        let c = built(RunOptions {
            introspect: true,
            ..RunOptions::default()
        });
        assert!(c.solver_introspection && !c.affinity_ordering);
        let c = built(RunOptions {
            incremental: true,
            ..RunOptions::default()
        });
        assert!(c.incremental_solving);
        let c = built(RunOptions {
            solver_cache_budget: Some(8192),
            ..RunOptions::default()
        });
        assert_eq!(c.solver_cache_budget, 8192);
        assert!(!c.incremental_solving);
        // Affinity implies introspection.
        let c = built(RunOptions {
            affinity: true,
            ..RunOptions::default()
        });
        assert!(c.affinity_ordering && c.solver_introspection);
        // Output-only options leave the config alone.
        let c = built(RunOptions {
            flight_out: Some("f.jsonl".into()),
            status_out: Some("s.json".into()),
            ..RunOptions::default()
        });
        assert_eq!(format!("{c:?}"), format!("{default:?}"));
        // A field the experiment pins after `apply` wins.
        let pinned = RunOptions {
            solver_budget: Some(10),
            ..RunOptions::default()
        }
        .apply(base())
        .solver_budget(500)
        .build()
        .unwrap();
        assert_eq!(pinned.solver_budget, Some(500));
    }
}
