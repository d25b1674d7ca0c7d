//! Shared command-line handling for the bench binaries.
//!
//! [`parse_bench_args`] reads the process arguments once into a
//! [`BenchArgs`]: the positional arguments, the log level and one
//! [`RunOptions`] value that every experiment takes by reference.
//! Every binary accepts, besides its positional arguments and the
//! extra flags it names itself:
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
//! Every valued flag also takes the `--flag=VALUE` spelling. An unknown
//! flag, a missing or malformed value, `--flight-out`/`--status-out`
//! without `--sample-every`, an option set the campaign config rejects,
//! or a trace file that cannot be created prints the usage line and
//! exits with status 2.

use crate::pool::default_jobs;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
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
    /// Positional arguments and the binary's own extra flags, in order.
    pub rest: Vec<String>,
    /// Requested stderr log level.
    pub log_level: Level,
    /// The run configuration every experiment takes.
    pub run: RunOptions,
}

impl BenchArgs {
    /// The `n`-th positional argument parsed as `T`, else `default`.
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
}

/// `value` parsed as `T`, or an error naming `flag`.
fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("malformed value `{value}` for `{flag}`"))
}

/// Parses `args` (program name excluded). Arguments that do not start
/// with `-`, and the binary's `extra` flags (bare or as `--flag=VALUE`),
/// pass through to [`BenchArgs::rest`] in order; everything else must
/// be a shared flag. Opens the `--trace-out` file (truncating it).
///
/// # Errors
///
/// A message naming the offending flag: unknown flag, missing or
/// malformed value, `--flight-out`/`--status-out` without
/// `--sample-every`, options the campaign config rejects, or a trace
/// file that cannot be created.
pub fn split_bench_args<A: IntoIterator<Item = String>>(
    args: A,
    extra: &[&str],
) -> Result<BenchArgs, String> {
    let mut rest = Vec::new();
    let mut log_level = Level::Info;
    let mut trace_out = None;
    let mut run = RunOptions::with_jobs(default_jobs());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let is_extra =
            |f: &&str| arg == *f || arg.strip_prefix(*f).is_some_and(|v| v.starts_with('='));
        if !arg.starts_with('-') || extra.iter().any(is_extra) {
            rest.push(arg);
            continue;
        }
        let (flag, inline) = match arg.strip_prefix("-j").filter(|n| !n.is_empty()) {
            Some(n) => ("-j", Some(n)),
            None => arg
                .split_once('=')
                .map_or((arg.as_str(), None), |(f, v)| (f, Some(v))),
        };
        let mut value = || {
            inline
                .map(str::to_string)
                .or_else(|| args.next())
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag {
            "--introspect" if inline.is_none() => run.introspect = true,
            "--incremental" if inline.is_none() => run.incremental = true,
            "--affinity" if inline.is_none() => run.affinity = true,
            "--jobs" | "-j" => run.jobs = parse_value::<usize>(flag, &value()?)?.max(1),
            "--log-level" => log_level = parse_value(flag, &value()?)?,
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--solver-budget" => run.solver_budget = Some(parse_value(flag, &value()?)?),
            "--solve-wall-ms" => run.solve_wall_ms = Some(parse_value(flag, &value()?)?),
            "--snapshot-budget" => run.snapshot_budget = Some(parse_value(flag, &value()?)?),
            "--sample-every" => {
                run.sample_every = Some(parse_value::<u64>(flag, &value()?)?.max(1));
            }
            "--flight-out" => run.flight_out = Some(PathBuf::from(value()?)),
            "--status-out" => run.status_out = Some(PathBuf::from(value()?)),
            "--solver-cache-budget" => {
                run.solver_cache_budget = Some(parse_value(flag, &value()?)?);
            }
            _ => return Err(format!("unknown flag `{arg}`")),
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

/// [`split_bench_args`] over the process arguments; sets the global log
/// level. On an error prints it and the usage line — `usage` (the
/// binary's name, positional arguments and extra flags) followed by
/// the shared flags — and exits with status 2.
pub fn parse_bench_args(usage: &str, extra: &[&str]) -> BenchArgs {
    match split_bench_args(std::env::args().skip(1), extra) {
        Ok(args) => {
            set_log_level(args.log_level);
            args
        }
        Err(e) => {
            let bin = usage.split_whitespace().next().unwrap_or("bench");
            eprintln!("{bin}: {e}\nusage: {usage} {RUN_FLAGS_USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn split(s: &str) -> BenchArgs {
        split_with(s, &[]).unwrap()
    }

    fn split_with(s: &str, extra: &[&str]) -> Result<BenchArgs, String> {
        split_bench_args(s.split_whitespace().map(String::from), extra)
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
        let mut a = split_with("--smoke 500 -j 2", &["--smoke"]).unwrap();
        assert_eq!(a.rest, vec!["--smoke".to_string(), "500".to_string()]);
        assert!(a.take_flag("--smoke"));
        assert_eq!(a.pos(0, 0u64), 500);
        assert!(!a.take_flag("--smoke"));
        let b = split_with("--check a.json --trace=t.jsonl", &["--check", "--trace"]).unwrap();
        assert_eq!(b.rest, vec!["--check", "a.json", "--trace=t.jsonl"]);
        // Another binary's extra flag is unknown here.
        assert!(split_with("--smoke", &["--check"]).is_err());
    }

    /// Every malformed command line is rejected with a message naming
    /// the offending flag, instead of being dropped or misread.
    #[test]
    fn bad_flags_are_rejected_naming_the_flag() {
        let missing =
            std::env::temp_dir().join(format!("bench-args-{}-absent", std::process::id()));
        let unwritable = format!("--trace-out {}", missing.join("t.jsonl").display());
        let cases: &[(&str, &str)] = &[
            ("50 500 --portfolio 4", "--portfolio"),
            ("--incremntal 200", "--incremntal"),
            ("--solver-budget lots", "--solver-budget"),
            ("--snapshot-budget plenty", "--snapshot-budget"),
            ("--sample-every often", "--sample-every"),
            ("--solver-cache-budget big", "--solver-cache-budget"),
            ("--solve-wall-ms=-5", "--solve-wall-ms"),
            ("--log-level chatty 42", "--log-level"),
            ("--jobs many", "--jobs"),
            ("-jx", "-j"),
            ("--jobs", "--jobs"),
            ("--trace-out", "--trace-out"),
            ("--introspect=yes", "--introspect=yes"),
            ("-x", "-x"),
            ("--flight-out f.jsonl", "--flight-out"),
            ("--status-out=s.json", "--status-out"),
            ("--solver-budget 0", "solver budget"),
            ("--snapshot-budget 100", "snapshot_mem_budget"),
            (&unwritable, "--trace-out"),
        ];
        for (args, named) in cases {
            let err = split_with(args, &[]).unwrap_err();
            assert!(
                err.contains(named),
                "`{args}`: error `{err}` does not name `{named}`"
            );
        }
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
