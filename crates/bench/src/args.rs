//! Shared command-line handling for the bench binaries.
//!
//! Every binary accepts, besides its positional arguments:
//!
//! * `--jobs N` / `-j N` / `-jN` / `--jobs=N` — worker threads
//!   (see [`crate::pool::split_jobs`]);
//! * `--log-level LEVEL` / `--log-level=LEVEL` — stderr logging
//!   verbosity (`off`, `warn`, `info`, `debug`; default `info`);
//! * `--trace-out PATH` / `--trace-out=PATH` — stream a wall-clock
//!   JSONL campaign trace to `PATH` (see [`crate::experiments::enable_tracing`]);
//! * `--solver-budget N` / `--solver-budget=N` — conflict ceiling per
//!   symbolic solve; exhausted solves degrade to random mutation
//!   (see [`crate::experiments::set_solver_budget`]);
//! * `--solve-wall-ms N` / `--solve-wall-ms=N` — wall-clock ceiling per
//!   symbolic solve in milliseconds (non-deterministic: reports may
//!   vary between runs and job counts);
//! * `--snapshot-budget N` / `--snapshot-budget=N` — byte budget for
//!   the copy-on-write snapshot store; unique bytes beyond it trigger
//!   oldest-first eviction
//!   (see [`crate::experiments::set_snapshot_budget`]);
//! * `--introspect` — arm solver introspection for every campaign:
//!   per-goal CDCL analytics, blame sets for failed goals, and the
//!   cross-goal affinity matrix land in the report's `solver_scope`
//!   block (see [`crate::experiments::set_introspection`]);
//! * `--sample-every N` / `--sample-every=N` — flight-recorder
//!   sampling interval in vectors; enables the sampler and the
//!   per-cone/per-goal profilers
//!   (see [`crate::experiments::set_sampling`]);
//! * `--flight-out PATH` / `--flight-out=PATH` — canonical merged
//!   `flight.jsonl` destination (requires `--sample-every`);
//! * `--status-out PATH` / `--status-out=PATH` — `status.json`
//!   heartbeat destination, atomically rewritten and pollable mid-run
//!   (requires `--sample-every`);
//! * `--incremental` — keep warm solver sessions across goals sharing
//!   an unrolled frame (assumption-based incremental solving plus the
//!   bitblast cache) — see [`crate::experiments::set_incremental`];
//! * `--solver-cache-budget N` / `--solver-cache-budget=N` — byte
//!   budget for the warm-session bitblast cache; least-recently-used
//!   sessions are evicted beyond it
//!   (see [`crate::experiments::set_solver_cache_budget`]);
//! * `--affinity` — order each guidance round's goal batch by
//!   KMV-sketch affinity (implies `--introspect`) — see
//!   [`crate::experiments::set_affinity`].

use crate::pool::split_jobs;
use std::path::PathBuf;
use symbfuzz_telemetry::{set_log_level, Level};

/// Parsed common bench arguments.
#[derive(Debug)]
pub struct BenchArgs {
    /// Positional arguments, flags removed, in order.
    pub rest: Vec<String>,
    /// Worker thread count (≥ 1).
    pub jobs: usize,
    /// Requested stderr log level.
    pub log_level: Level,
    /// Trace file requested via `--trace-out`, if any.
    pub trace_out: Option<PathBuf>,
    /// Per-solve conflict ceiling from `--solver-budget`, if any.
    pub solver_budget: Option<u64>,
    /// Per-solve wall-clock ceiling (ms) from `--solve-wall-ms`, if any.
    pub solve_wall_ms: Option<u64>,
    /// Snapshot-store byte budget from `--snapshot-budget`, if any.
    pub snapshot_budget: Option<u64>,
    /// Solver introspection armed via `--introspect`.
    pub introspect: bool,
    /// Flight-recorder interval (vectors) from `--sample-every`, if any.
    pub sample_every: Option<u64>,
    /// Merged flight-stream file from `--flight-out`, if any.
    pub flight_out: Option<PathBuf>,
    /// Status heartbeat file from `--status-out`, if any.
    pub status_out: Option<PathBuf>,
    /// Incremental solving armed via `--incremental`.
    pub incremental: bool,
    /// Bitblast-cache byte budget from `--solver-cache-budget`, if any.
    pub solver_cache_budget: Option<u64>,
    /// Affinity-ordered goal batching armed via `--affinity`.
    pub affinity: bool,
}

impl BenchArgs {
    /// The `n`-th positional argument parsed as `T`, else `default`.
    pub fn pos<T: std::str::FromStr>(&self, n: usize, default: T) -> T {
        self.rest
            .get(n)
            .and_then(|a| a.parse().ok())
            .unwrap_or(default)
    }
}

/// Splits `--log-level` and `--trace-out` out of `args`, then delegates
/// the remainder to [`split_jobs`]. Unknown or malformed flag values
/// fall back to the defaults (`Level::Info`, no trace).
pub fn split_bench_args<A: Iterator<Item = String>>(args: A) -> BenchArgs {
    let mut log_level = Level::Info;
    let mut trace_out = None;
    let mut solver_budget = None;
    let mut solve_wall_ms = None;
    let mut snapshot_budget = None;
    let mut introspect = false;
    let mut sample_every = None;
    let mut flight_out = None;
    let mut status_out = None;
    let mut incremental = false;
    let mut solver_cache_budget = None;
    let mut affinity = false;
    let mut passthrough = Vec::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--log-level" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                log_level = v;
            }
        } else if let Some(v) = a.strip_prefix("--log-level=") {
            if let Ok(v) = v.parse() {
                log_level = v;
            }
        } else if a == "--trace-out" {
            if let Some(v) = args.next() {
                trace_out = Some(PathBuf::from(v));
            }
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            trace_out = Some(PathBuf::from(v));
        } else if a == "--solver-budget" {
            solver_budget = args.next().and_then(|v| v.parse().ok()).or(solver_budget);
        } else if let Some(v) = a.strip_prefix("--solver-budget=") {
            solver_budget = v.parse().ok().or(solver_budget);
        } else if a == "--solve-wall-ms" {
            solve_wall_ms = args.next().and_then(|v| v.parse().ok()).or(solve_wall_ms);
        } else if let Some(v) = a.strip_prefix("--solve-wall-ms=") {
            solve_wall_ms = v.parse().ok().or(solve_wall_ms);
        } else if a == "--snapshot-budget" {
            snapshot_budget = args.next().and_then(|v| v.parse().ok()).or(snapshot_budget);
        } else if let Some(v) = a.strip_prefix("--snapshot-budget=") {
            snapshot_budget = v.parse().ok().or(snapshot_budget);
        } else if a == "--introspect" {
            introspect = true;
        } else if a == "--sample-every" {
            sample_every = args.next().and_then(|v| v.parse().ok()).or(sample_every);
        } else if let Some(v) = a.strip_prefix("--sample-every=") {
            sample_every = v.parse().ok().or(sample_every);
        } else if a == "--flight-out" {
            if let Some(v) = args.next() {
                flight_out = Some(PathBuf::from(v));
            }
        } else if let Some(v) = a.strip_prefix("--flight-out=") {
            flight_out = Some(PathBuf::from(v));
        } else if a == "--status-out" {
            if let Some(v) = args.next() {
                status_out = Some(PathBuf::from(v));
            }
        } else if let Some(v) = a.strip_prefix("--status-out=") {
            status_out = Some(PathBuf::from(v));
        } else if a == "--incremental" {
            incremental = true;
        } else if a == "--solver-cache-budget" {
            solver_cache_budget = args
                .next()
                .and_then(|v| v.parse().ok())
                .or(solver_cache_budget);
        } else if let Some(v) = a.strip_prefix("--solver-cache-budget=") {
            solver_cache_budget = v.parse().ok().or(solver_cache_budget);
        } else if a == "--affinity" {
            affinity = true;
        } else {
            passthrough.push(a);
        }
    }
    let (rest, jobs) = split_jobs(passthrough.into_iter());
    BenchArgs {
        rest,
        jobs,
        log_level,
        trace_out,
        solver_budget,
        solve_wall_ms,
        snapshot_budget,
        introspect,
        sample_every,
        flight_out,
        status_out,
        incremental,
        solver_cache_budget,
        affinity,
    }
}

/// [`split_bench_args`] over the process arguments (program name
/// skipped), applying side effects: sets the global log level and, when
/// `--trace-out` was given, opens the trace file via
/// [`crate::experiments::enable_tracing`].
pub fn parse_bench_args() -> BenchArgs {
    let parsed = split_bench_args(std::env::args().skip(1));
    set_log_level(parsed.log_level);
    if let Some(path) = &parsed.trace_out {
        if let Err(e) = crate::experiments::enable_tracing(path) {
            symbfuzz_telemetry::warn!("cannot open trace file {}: {e}", path.display());
        }
    }
    if parsed.solver_budget.is_some() || parsed.solve_wall_ms.is_some() {
        crate::experiments::set_solver_budget(parsed.solver_budget, parsed.solve_wall_ms);
    }
    if let Some(budget) = parsed.snapshot_budget {
        crate::experiments::set_snapshot_budget(budget);
    }
    if parsed.introspect {
        crate::experiments::set_introspection(true);
    }
    if let Some(every) = parsed.sample_every {
        crate::experiments::set_sampling(every);
    }
    if parsed.flight_out.is_some() || parsed.status_out.is_some() {
        crate::experiments::set_flight_outputs(
            parsed.flight_out.as_deref(),
            parsed.status_out.as_deref(),
        );
    }
    if parsed.incremental {
        crate::experiments::set_incremental(true);
    }
    if let Some(bytes) = parsed.solver_cache_budget {
        crate::experiments::set_solver_cache_budget(bytes);
    }
    if parsed.affinity {
        // Affinity ordering keys on introspection sketches, so arm
        // both (the config builder rejects one without the other).
        crate::experiments::set_affinity(true);
        crate::experiments::set_introspection(true);
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(s: &str) -> BenchArgs {
        split_bench_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn extracts_log_level_and_trace_out() {
        let a = split("5000 --log-level debug --trace-out /tmp/t.jsonl 2 -j 4");
        assert_eq!(a.rest, vec!["5000".to_string(), "2".to_string()]);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.log_level, Level::Debug);
        assert_eq!(
            a.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
    }

    #[test]
    fn equals_spellings_and_defaults() {
        let a = split("--log-level=warn --trace-out=trace.jsonl");
        assert_eq!(a.log_level, Level::Warn);
        assert_eq!(
            a.trace_out.as_deref(),
            Some(std::path::Path::new("trace.jsonl"))
        );
        let b = split("1000");
        assert_eq!(b.log_level, Level::Info);
        assert!(b.trace_out.is_none());
        assert_eq!(b.pos(0, 0u64), 1000);
        assert_eq!(b.pos(1, 7u64), 7);
    }

    #[test]
    fn extracts_solver_budget_flags() {
        let a = split("2000 --solver-budget 10000 --solve-wall-ms=250 -j 2");
        assert_eq!(a.rest, vec!["2000".to_string()]);
        assert_eq!(a.solver_budget, Some(10_000));
        assert_eq!(a.solve_wall_ms, Some(250));
        let b = split("--solver-budget=500");
        assert_eq!(b.solver_budget, Some(500));
        assert_eq!(b.solve_wall_ms, None);
        // Malformed values fall back to unset.
        let c = split("--solver-budget lots");
        assert_eq!(c.solver_budget, None);
    }

    #[test]
    fn extracts_snapshot_budget() {
        let a = split("2000 --snapshot-budget 65536 -j 2");
        assert_eq!(a.rest, vec!["2000".to_string()]);
        assert_eq!(a.snapshot_budget, Some(65_536));
        let b = split("--snapshot-budget=1048576");
        assert_eq!(b.snapshot_budget, Some(1_048_576));
        // Malformed values fall back to unset.
        let c = split("--snapshot-budget plenty");
        assert_eq!(c.snapshot_budget, None);
        assert!(split("42").snapshot_budget.is_none());
    }

    #[test]
    fn extracts_introspect_flag() {
        let a = split("2000 --introspect -j 2");
        assert_eq!(a.rest, vec!["2000".to_string()]);
        assert!(a.introspect);
        assert!(!split("2000").introspect);
    }

    #[test]
    fn extracts_flight_recorder_flags() {
        let a = split("5000 --sample-every 250 --flight-out f.jsonl --status-out s.json -j 2");
        assert_eq!(a.rest, vec!["5000".to_string()]);
        assert_eq!(a.sample_every, Some(250));
        assert_eq!(
            a.flight_out.as_deref(),
            Some(std::path::Path::new("f.jsonl"))
        );
        assert_eq!(
            a.status_out.as_deref(),
            Some(std::path::Path::new("s.json"))
        );
        let b = split("--sample-every=1000 --flight-out=r/f.jsonl --status-out=r/s.json");
        assert_eq!(b.sample_every, Some(1000));
        assert_eq!(
            b.flight_out.as_deref(),
            Some(std::path::Path::new("r/f.jsonl"))
        );
        assert_eq!(
            b.status_out.as_deref(),
            Some(std::path::Path::new("r/s.json"))
        );
        // Defaults and malformed intervals stay off.
        let c = split("100");
        assert_eq!(c.sample_every, None);
        assert!(c.flight_out.is_none() && c.status_out.is_none());
        assert_eq!(split("--sample-every often").sample_every, None);
    }

    #[test]
    fn extracts_incremental_solver_flags() {
        let a = split("2000 --incremental --solver-cache-budget 4096 --affinity");
        assert_eq!(a.rest, vec!["2000".to_string()]);
        assert!(a.incremental);
        assert_eq!(a.solver_cache_budget, Some(4096));
        assert!(a.affinity);
        let b = split("--solver-cache-budget=1048576");
        assert!(!b.incremental && !b.affinity);
        assert_eq!(b.solver_cache_budget, Some(1_048_576));
        // Malformed values fall back to unset.
        let c = split("--solver-cache-budget big");
        assert_eq!(c.solver_cache_budget, None);
        let d = split("42");
        assert!(!d.incremental && !d.affinity);
        assert!(d.solver_cache_budget.is_none());
    }

    #[test]
    fn bad_level_falls_back() {
        let a = split("--log-level chatty 42");
        assert_eq!(a.log_level, Level::Info);
        assert_eq!(a.rest, vec!["42".to_string()]);
    }
}
