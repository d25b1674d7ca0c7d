//! Renderers for JSONL campaign traces: the views behind the
//! `tracedump` binary.
//!
//! The trace schema itself lives in `symbfuzz_telemetry`'s
//! [`TraceLine`], which both writes and parses every line; this module
//! only consumes the typed records: a per-phase time table, the
//! settle-engine and solver-cache summaries, the per-goal solver cost
//! table and a coverage/stagnation timeline.

use symbfuzz_smt::trace_hist_quantile;
use symbfuzz_telemetry::{
    bucket_of, hist_quantile, Event, Phase, Record, SolveStatus, TraceLine, HIST_BUCKETS,
};

// --- rendering -----------------------------------------------------------

fn fmt_micros(micros: u64) -> String {
    if micros >= 1_000_000 {
        format!("{:.2}s", micros as f64 / 1e6)
    } else if micros >= 1_000 {
        format!("{:.2}ms", micros as f64 / 1e3)
    } else {
        format!("{micros}µs")
    }
}

/// Renders the per-phase time table: span counts, self-time and share
/// of the total accounted time per [`Phase`], plus p50/p90/p99 span
/// durations estimated from the fixed log₄ histogram buckets each
/// span's `micros` falls into (see
/// [`symbfuzz_telemetry::hist_quantile`] — bucket-resolution estimates,
/// deterministic and merge-stable, not exact order statistics).
pub fn phase_table(records: &[TraceLine]) -> String {
    let mut count = [0u64; Phase::COUNT];
    let mut micros = [0u64; Phase::COUNT];
    let mut buckets = [[0u64; HIST_BUCKETS]; Phase::COUNT];
    for r in records {
        if let Record::Phase { phase, micros: m } = r.record {
            let i = Phase::ALL.iter().position(|q| *q == phase).unwrap();
            count[i] += 1;
            micros[i] += m;
            buckets[i][bucket_of(m)] += 1;
        }
    }
    let total: u64 = micros.iter().sum();
    let quantiles = |b: &[u64]| {
        format!(
            "{} | {} | {}",
            fmt_micros(hist_quantile(b, 0.50)),
            fmt_micros(hist_quantile(b, 0.90)),
            fmt_micros(hist_quantile(b, 0.99))
        )
    };
    let mut out = String::from(
        "| Phase | spans | self time | share | p50 | p90 | p99 |\n|---|---|---|---|---|---|---|\n",
    );
    for (i, p) in Phase::ALL.iter().enumerate() {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1}% | {} |\n",
            p.name(),
            count[i],
            fmt_micros(micros[i]),
            100.0 * micros[i] as f64 / total.max(1) as f64,
            quantiles(&buckets[i])
        ));
    }
    let mut all = [0u64; HIST_BUCKETS];
    for b in &buckets {
        for (dst, src) in all.iter_mut().zip(b) {
            *dst += src;
        }
    }
    out.push_str(&format!(
        "| **total** | {} | {} | 100.0% | {} |\n",
        count.iter().sum::<u64>(),
        fmt_micros(total),
        quantiles(&all)
    ));
    out
}

/// `hits` over `hits + misses` as a percentage, or `-` when both are 0.
fn hit_rate(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        "-".into()
    } else {
        format!("{:.1}%", 100.0 * hits as f64 / total as f64)
    }
}

/// Renders the compiled-settle engine mix: per-task fast-path vs
/// escaped process executions from the once-per-campaign `Metrics`
/// records, with the hit rate the fast path achieved, plus a totals
/// row. Empty when the trace predates the compiled kernel (no
/// `Metrics` records).
pub fn settle_mix_table(records: &[TraceLine]) -> String {
    let mut out = String::from(
        "| task | fast path | escapes | hit rate | max X-island | sweeps |\n\
         |---|---|---|---|---|---|\n",
    );
    let (mut rows, mut tf, mut te, mut ti, mut ts) = (0, 0u64, 0u64, 0u64, 0u64);
    for r in records {
        let Record::Metrics {
            settle_fast_path: fast,
            settle_escapes: escapes,
            x_island_cones,
            settle_sweeps,
            ..
        } = r.record
        else {
            continue;
        };
        out.push_str(&format!(
            "| {} | {fast} | {escapes} | {} | {x_island_cones} | {settle_sweeps} |\n",
            r.task,
            hit_rate(fast, escapes),
        ));
        rows += 1;
        tf += fast;
        te += escapes;
        ti = ti.max(x_island_cones);
        ts += settle_sweeps;
    }
    if rows == 0 {
        return String::new();
    }
    out.push_str(&format!(
        "| **all** | {tf} | {te} | {} | {ti} | {ts} |\n",
        hit_rate(tf, te)
    ));
    out
}

/// Renders the runtime witness oracle's verdict from the
/// once-per-campaign `Metrics` records: total solver-produced replays
/// that missed their target (expected zero) and the tasks that missed.
/// Empty when the trace has no `Metrics` records.
pub fn witness_summary(records: &[TraceLine]) -> String {
    let (mut campaigns, mut total, mut missed) = (0, 0u64, Vec::new());
    for r in records {
        if let Record::Metrics { witness_misses, .. } = r.record {
            campaigns += 1;
            total += witness_misses;
            if witness_misses > 0 {
                missed.push(format!("task {}: {witness_misses}", r.task));
            }
        }
    }
    if campaigns == 0 {
        return String::new();
    }
    let mut out = format!("{total} witness misses across {campaigns} campaign(s) (expected 0)\n");
    if !missed.is_empty() {
        out.push_str(&format!("missed in {}\n", missed.join(", ")));
    }
    out
}

/// Renders the incremental-solver summary from the once-per-campaign
/// `SolverCache` records: per-task bitblast-cache hits/misses with the
/// hit rate and the warm-session reuse ratio, plus a totals row.
/// Empty when the trace predates the incremental solver (no
/// `SolverCache` records).
pub fn solver_cache_table(records: &[TraceLine]) -> String {
    let mut out = String::from(
        "| task | cache hits | misses | hit rate | session reuse |\n|---|---|---|---|---|\n",
    );
    let (mut rows, mut th, mut tm) = (0, 0u64, 0u64);
    for r in records {
        let Record::SolverCache {
            bitblast_cache_hits: hits,
            bitblast_cache_misses: misses,
            session_reuse_milli,
        } = r.record
        else {
            continue;
        };
        out.push_str(&format!(
            "| {} | {hits} | {misses} | {} | {:.3} |\n",
            r.task,
            hit_rate(hits, misses),
            session_reuse_milli as f64 / 1000.0,
        ));
        rows += 1;
        th += hits;
        tm += misses;
    }
    if rows == 0 {
        return String::new();
    }
    out.push_str(&format!(
        "| **all** | {th} | {tm} | {} | — |\n",
        hit_rate(th, tm)
    ));
    out
}

/// Renders the per-goal solver cost table from `GoalSolveCost`
/// records: attempts, cumulative calls / conflicts / learned clauses /
/// restarts per `(register, value)` goal, plus p50/p90/p99 per-call
/// conflict quantiles read off the merged log₄ histograms (see
/// [`symbfuzz_smt::trace_hist_quantile`] — upper-bucket-edge
/// estimates, deterministic and merge-stable). Goals are ordered
/// hardest first (cumulative conflicts, then calls); empty when the
/// trace predates solver introspection.
pub fn goal_cost_table(records: &[TraceLine]) -> String {
    struct Row<'a> {
        register: &'a str,
        value: u64,
        attempts: u64,
        calls: u64,
        conflicts: u64,
        learned: u64,
        restarts: u64,
        hist: Vec<u64>,
        last_status: SolveStatus,
    }
    let mut rows: Vec<Row> = Vec::new();
    for r in records {
        let Record::Event(Event::GoalSolveCost {
            register,
            value,
            status,
            calls,
            conflicts,
            learned,
            restarts,
            hist,
            ..
        }) = &r.record
        else {
            continue;
        };
        let i = match rows
            .iter()
            .position(|g| g.register == register && g.value == *value)
        {
            Some(i) => i,
            None => {
                rows.push(Row {
                    register,
                    value: *value,
                    attempts: 0,
                    calls: 0,
                    conflicts: 0,
                    learned: 0,
                    restarts: 0,
                    hist: Vec::new(),
                    last_status: *status,
                });
                rows.len() - 1
            }
        };
        let row = &mut rows[i];
        row.attempts += 1;
        row.calls += calls;
        row.conflicts += conflicts;
        row.learned += learned;
        row.restarts += restarts;
        if row.hist.len() < hist.len() {
            row.hist.resize(hist.len(), 0);
        }
        for (dst, src) in row.hist.iter_mut().zip(hist) {
            *dst += src;
        }
        row.last_status = *status;
    }
    if rows.is_empty() {
        return String::new();
    }
    rows.sort_by(|a, b| {
        (b.conflicts, b.calls, a.register, a.value).cmp(&(
            a.conflicts,
            a.calls,
            b.register,
            b.value,
        ))
    });
    let mut out = String::from(
        "| goal | attempts | calls | conflicts | learned | restarts \
         | p50 | p90 | p99 | last status |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for g in &rows {
        out.push_str(&format!(
            "| `{}` = {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            g.register,
            g.value,
            g.attempts,
            g.calls,
            g.conflicts,
            g.learned,
            g.restarts,
            trace_hist_quantile(&g.hist, 0.50),
            trace_hist_quantile(&g.hist, 0.90),
            trace_hist_quantile(&g.hist, 0.99),
            g.last_status
        ));
    }
    out
}

/// Renders the campaign timeline: coverage growth, stagnation entries,
/// symbolic episodes, resets and bug detections, in record order.
pub fn timeline(records: &[TraceLine]) -> String {
    let mut out = String::new();
    for r in records {
        // SmtSolve and GoalSolveCost events and the synthetic summary
        // records stay in the table views.
        let Record::Event(e) = &r.record else {
            continue;
        };
        let line = match e {
            Event::CoverageDelta {
                vectors,
                coverage,
                delta,
            } => format!("coverage {coverage} (+{delta}) at {vectors} vectors"),
            Event::StagnationEnter { vectors, intervals } => {
                format!("stagnation after {intervals} flat intervals at {vectors} vectors")
            }
            Event::SymbolicEpisode {
                checkpoint,
                eqns,
                solve_result,
            } => {
                let cp = match checkpoint {
                    Some(n) => format!("checkpoint {n}"),
                    None => "reset state".into(),
                };
                format!("symbolic episode from {cp}: {solve_result} ({eqns} eqns)")
            }
            Event::BudgetExhausted {
                reason,
                level,
                conflicts,
                decisions,
                ..
            } => format!(
                "solver budget exhausted ({reason}) at escalation level {level} \
                 after {conflicts} conflicts / {decisions} decisions"
            ),
            Event::PartialReset { prefix_len } => {
                format!("partial reset (replayed {prefix_len} cycles)")
            }
            Event::FullReset => "full reset".into(),
            Event::BugFired { property, vector } => {
                format!("BUG `{property}` fired at vector {vector}")
            }
            Event::NodeCovered {
                node,
                vector,
                mechanism,
                goal,
                ..
            } => {
                let goal = match goal {
                    Some(g) => format!(" (goal {g})"),
                    None => String::new(),
                };
                format!("node {node} covered via {mechanism}{goal} at vector {vector}")
            }
            Event::EdgeCovered {
                src,
                dst,
                vector,
                mechanism,
                ..
            } => format!("edge {src} -> {dst} covered via {mechanism} at vector {vector}"),
            Event::CoreExtracted {
                register,
                value,
                core,
                blamed,
            } => format!(
                "assumption core for `{register}` = {value}: {blamed} registers blamed ({})",
                if *core == 0 {
                    "hot-signal fallback".to_string()
                } else {
                    format!("core of {core}")
                }
            ),
            Event::SmtSolve { .. } | Event::GoalSolveCost { .. } => continue,
        };
        out.push_str(&format!("t={:<10} task={} {}\n", r.t, r.task, line));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbfuzz_telemetry::{parse_trace, UnknownReason};

    /// Re-emits parsed lines as newline-terminated JSONL.
    fn jsonl(records: &[TraceLine]) -> String {
        records.iter().map(|r| r.to_json() + "\n").collect()
    }

    #[test]
    fn phase_table_shares_sum_to_total() {
        let text = "\
{\"t\":10,\"task\":0,\"kind\":\"Phase\",\"phase\":\"mutate\",\"micros\":30}
{\"t\":20,\"task\":0,\"kind\":\"Phase\",\"phase\":\"settle\",\"micros\":60}
{\"t\":30,\"task\":0,\"kind\":\"Phase\",\"phase\":\"solve\",\"micros\":10}
";
        let recs = parse_trace(text).unwrap();
        let table = phase_table(&recs);
        // A single span lands in one log₄ bucket, so every quantile
        // reads the same bucket-resolution estimate (16–64µs → 63µs).
        assert!(
            table.contains("| mutate | 1 | 30µs | 30.0% | 63µs | 63µs | 63µs |"),
            "{table}"
        );
        assert!(
            table.contains("| settle | 1 | 60µs | 60.0% | 63µs | 63µs | 63µs |"),
            "{table}"
        );
        // The totals row interpolates across the merged histogram:
        // one span in [4,16), two in [16,64).
        assert!(
            table.contains("| **total** | 3 | 100µs | 100.0% | 28µs | 57µs | 63µs |"),
            "{table}"
        );
    }

    #[test]
    fn flight_records_validate_and_round_trip() {
        // The exact shape `Sampler::maybe_sample` mirrors into the
        // trace stream.
        let text = "\
{\"t\":100,\"task\":2,\"kind\":\"Flight\",\"interval\":1,\"vectors\":1000,\"coverage\":42,\
\"stagnant\":0,\"d_vectors\":1000,\"d_solver_calls\":3,\"d_settle_fast_path\":900,\
\"d_settle_escapes\":100}
";
        let recs = parse_trace(text).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(matches!(
            recs[0].record,
            Record::Flight {
                interval: 1,
                d_vectors: 1000,
                ..
            }
        ));
        // Canonical re-serialization is byte-identical.
        assert_eq!(jsonl(&recs), text);
        // Flight records are heartbeat summaries, not timeline events.
        assert_eq!(timeline(&recs), "");
    }

    #[test]
    fn metrics_records_validate_and_render_hit_rate() {
        // The exact shape `Collector::emit_settle_metrics` writes.
        let text = "\
{\"t\":1,\"task\":0,\"kind\":\"Metrics\",\"settle_fast_path\":75,\"settle_escapes\":25,\
\"x_island_cones\":3,\"settle_sweeps\":100,\"witness_misses\":0}
{\"t\":2,\"task\":1,\"kind\":\"Metrics\",\"settle_fast_path\":0,\"settle_escapes\":0,\
\"x_island_cones\":0,\"settle_sweeps\":0,\"witness_misses\":2}
";
        let recs = parse_trace(text).unwrap();
        let table = settle_mix_table(&recs);
        assert!(
            table.contains("| 0 | 75 | 25 | 75.0% | 3 | 100 |"),
            "{table}"
        );
        assert!(table.contains("| 1 | 0 | 0 | - | 0 | 0 |"), "{table}");
        assert!(
            table.contains("| **all** | 75 | 25 | 75.0% | 3 | 100 |"),
            "{table}"
        );
        // Canonical re-serialization round-trips.
        assert_eq!(jsonl(&recs), text);
        // The witness oracle's misses are totalled and attributed.
        assert_eq!(
            witness_summary(&recs),
            "2 witness misses across 2 campaign(s) (expected 0)\nmissed in task 1: 2\n"
        );
        // Traces without Metrics records render nothing.
        assert_eq!(settle_mix_table(&[]), "");
        assert_eq!(witness_summary(&[]), "");
    }

    #[test]
    fn solver_cache_records_validate_and_tabulate() {
        // The exact shape `Collector::emit_solver_cache_metrics` writes.
        let text = "\
{\"t\":1,\"task\":0,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":30,\
\"bitblast_cache_misses\":10,\"session_reuse_milli\":800}
{\"t\":2,\"task\":1,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":0,\
\"bitblast_cache_misses\":0,\"session_reuse_milli\":0}
";
        let recs = parse_trace(text).unwrap();
        let table = solver_cache_table(&recs);
        assert!(
            table.contains("| 0 | 30 | 10 | 75.0% | 0.800 |\n"),
            "{table}"
        );
        // An idle cache reports no hit rate.
        assert!(table.contains("| 1 | 0 | 0 | - | 0.000 |\n"), "{table}");
        // Totals sum the counters across tasks.
        assert!(
            table.contains("| **all** | 30 | 10 | 75.0% | — |\n"),
            "{table}"
        );
        // Canonical re-serialization round-trips.
        assert_eq!(jsonl(&recs), text);
        // Traces without SolverCache records render nothing.
        assert_eq!(solver_cache_table(&[]), "");
    }

    #[test]
    fn solver_cost_records_round_trip_and_tabulate() {
        use symbfuzz_smt::TRACE_HIST_BUCKETS;
        let mut hist = vec![0u64; TRACE_HIST_BUCKETS];
        hist[1] = 8; // eight calls with ≤3 conflicts
        hist[3] = 2; // two calls with ≤63 conflicts
        let events = [
            Event::GoalSolveCost {
                register: "st".into(),
                value: 3,
                status: SolveStatus::Unknown(UnknownReason::Conflicts),
                depth: 4,
                calls: 10,
                conflicts: 40,
                learned: 30,
                restarts: 2,
                hist: hist.clone(),
            },
            Event::GoalSolveCost {
                register: "st".into(),
                value: 3,
                status: SolveStatus::Unknown(UnknownReason::Conflicts),
                depth: 5,
                calls: 10,
                conflicts: 60,
                learned: 45,
                restarts: 3,
                hist,
            },
            Event::GoalSolveCost {
                register: "mode".into(),
                value: 1,
                status: SolveStatus::Sat,
                depth: 2,
                calls: 2,
                conflicts: 0,
                learned: 0,
                restarts: 0,
                hist: vec![0; TRACE_HIST_BUCKETS],
            },
            Event::CoreExtracted {
                register: "st".into(),
                value: 3,
                core: 2,
                blamed: 2,
            },
            Event::CoreExtracted {
                register: "st".into(),
                value: 7,
                core: 0,
                blamed: 1,
            },
        ];
        let text: String = events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let record = Record::Event(e.clone());
                TraceLine {
                    t: i as u64,
                    task: 0,
                    record,
                }
                .to_json()
                    + "\n"
            })
            .collect();
        let records = parse_trace(&text).unwrap();
        // Canonical re-serialization (array field included) is
        // byte-identical and re-validates.
        assert_eq!(jsonl(&records), text);
        assert!(matches!(
            &records[0].record,
            Record::Event(Event::GoalSolveCost { hist, .. }) if hist.len() == TRACE_HIST_BUCKETS
        ));

        // Both attempts of the `st`=3 goal fold into one hardest-first
        // row; the merged 20-call histogram keeps its quantile edges.
        let table = goal_cost_table(&records);
        assert!(
            table
                .contains("| `st` = 3 | 2 | 20 | 100 | 75 | 5 | 3 | 63 | 63 | unknown:conflicts |"),
            "{table}"
        );
        assert!(
            table.contains("| `mode` = 1 | 1 | 2 | 0 | 0 | 0 | 0 | 0 | 0 | sat |"),
            "{table}"
        );
        let st = table.find("`st` = 3").unwrap();
        let mode = table.find("`mode` = 1").unwrap();
        assert!(st < mode, "hardest goal first:\n{table}");

        // Core extractions narrate in the timeline; costs stay tabular.
        let tl = timeline(&records);
        assert!(
            tl.contains("assumption core for `st` = 3: 2 registers blamed (core of 2)"),
            "{tl}"
        );
        assert!(
            tl.contains("assumption core for `st` = 7: 1 registers blamed (hot-signal fallback)"),
            "{tl}"
        );
        assert!(!tl.contains("GoalSolveCost"));

        // Traces without solver-cost records render nothing.
        assert_eq!(goal_cost_table(&[]), "");
    }

    #[test]
    fn timeline_narrates_coverage_and_bugs() {
        let text = "\
{\"t\":5,\"task\":1,\"kind\":\"CoverageDelta\",\"vectors\":100,\"coverage\":8,\"delta\":8}
{\"t\":6,\"task\":1,\"kind\":\"StagnationEnter\",\"vectors\":300,\"intervals\":2}
{\"t\":7,\"task\":1,\"kind\":\"BudgetExhausted\",\"reason\":\"conflicts\",\"level\":1,\
\"conflicts\":500,\"decisions\":1200,\"propagations\":9000}
{\"t\":8,\"task\":1,\"kind\":\"BugFired\",\"property\":\"leak\",\"vector\":321}
";
        let recs = parse_trace(text).unwrap();
        let tl = timeline(&recs);
        assert!(tl.contains("coverage 8 (+8) at 100 vectors"));
        assert!(tl.contains("stagnation after 2 flat intervals"));
        assert!(
            tl.contains("solver budget exhausted (conflicts) at escalation level 1"),
            "{tl}"
        );
        assert!(tl.contains("BUG `leak` fired at vector 321"));
    }
}
