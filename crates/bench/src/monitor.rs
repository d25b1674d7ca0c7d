//! Flight-recorder artifact checks and rendering for the `monitor`
//! binary.
//!
//! The fuzzer's [`symbfuzz_telemetry::Sampler`] leaves two artifacts
//! behind: an append-only `flight.jsonl` stream (one delta-compressed
//! sample per interval) and an atomically-rewritten `status.json`
//! heartbeat that is safe to poll mid-run. Their schema has one
//! definition, the telemetry crate's record module: [`FlightSample`]
//! and [`Status`] each write and parse their format. The checks here
//! are byte round trips on top of it, like `tracedump --check`: parse,
//! re-emit, and require the input bytes back. The heartbeat's profiler
//! sections are decoded with the serde types that wrote them and must
//! re-serialize to their exact text. Rendering covers a terminal
//! dashboard and a Prometheus-style text exposition for scraping.
//! Everything here is pure text-in/text-out so the binary stays a thin
//! shell.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use symbfuzz_core::{SolverProfileBlock, SolverScopeBlock, VmProfileBlock};
use symbfuzz_telemetry::{FlightSample, Status};

/// A checked `status.json` heartbeat with its profiler sections
/// decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct Heartbeat {
    /// The heartbeat as parsed.
    pub status: Status,
    /// The `vm_profile` section, when present.
    pub vm_profile: Option<VmProfileBlock>,
    /// The `solver_profile` section, when present.
    pub solver_profile: Option<SolverProfileBlock>,
    /// The `solver_scope` section, when present.
    pub solver_scope: Option<SolverScopeBlock>,
}

/// Decodes one profiler section with the serde type that wrote it.
fn decode<T: Serialize + Deserialize>(name: &str, json: &str) -> Result<T, String> {
    let block: T = serde_json::from_str(json).map_err(|e| format!("`{name}`: {e}"))?;
    if serde_json::to_string(&block).map_err(|e| e.to_string())? != json {
        return Err(format!("`{name}` does not re-serialize to its own text"));
    }
    Ok(block)
}

/// Checks a `status.json` heartbeat: [`Status::parse`], byte-identical
/// re-emission, and each profiler section decoded by its serde type
/// and re-serialized to its exact text. An unknown section is an error.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check_status(text: &str) -> Result<Heartbeat, String> {
    let status = Status::parse(text)?;
    if status.to_json() != text {
        return Err("does not re-emit byte-identically".into());
    }
    let mut hb = Heartbeat {
        status,
        vm_profile: None,
        solver_profile: None,
        solver_scope: None,
    };
    for (name, json) in &hb.status.sections {
        match name.as_str() {
            "vm_profile" => hb.vm_profile = Some(decode(name, json)?),
            "solver_profile" => hb.solver_profile = Some(decode(name, json)?),
            "solver_scope" => hb.solver_scope = Some(decode(name, json)?),
            _ => {
                return Err(format!(
                    "unknown section `{name}` (expected vm_profile, solver_profile or solver_scope)"
                ))
            }
        }
    }
    Ok(hb)
}

/// Checks a whole `flight.jsonl` stream: at least one record, every
/// non-blank line parsed by [`FlightSample::parse`] and re-emitted
/// byte-identically, interval indexes strictly increasing.
///
/// # Errors
///
/// Returns `"line N: <why>"` for the first bad line, or a description
/// of an empty/truncated stream.
pub fn check_flight(text: &str) -> Result<Vec<FlightSample>, String> {
    let mut samples: Vec<FlightSample> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let s = FlightSample::parse(line).map_err(at)?;
        if s.to_json() != line {
            return Err(at("does not re-emit byte-identically".into()));
        }
        if let Some(prev) = samples.last() {
            if s.interval <= prev.interval {
                return Err(at(format!(
                    "interval {} not above previous {} (stream must be strictly increasing)",
                    s.interval, prev.interval
                )));
            }
        }
        samples.push(s);
    }
    if samples.is_empty() {
        return Err("no samples (empty or truncated flight stream)".into());
    }
    Ok(samples)
}

/// The `--json` summary: the heartbeat plus the flight stream's sample
/// count and last sample, as one JSON object.
pub fn render_json(hb: &Heartbeat, flight: &[FlightSample]) -> String {
    format!(
        "{{\"status\":{},\"flight\":{{\"samples\":{},\"last\":{}}}}}",
        hb.status.to_json(),
        flight.len(),
        flight.last().map_or("null".into(), FlightSample::to_json)
    )
}

/// Renders the terminal dashboard from a checked heartbeat and flight
/// stream: the headline campaign state, non-zero counters, phase
/// self-times, the hottest `top` cones with their fast-path hit rates,
/// and the `top` hardest solver goals with their escalation histories.
pub fn render_dashboard(hb: &Heartbeat, flight: &[FlightSample], top: usize) -> String {
    let s = &hb.status;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SymbFuzz campaign monitor — interval {} (t={})",
        s.interval, s.t
    );
    let _ = writeln!(
        out,
        "  vectors {}  coverage {} ({} nodes, {} edges)  stagnant intervals {}",
        s.vectors, s.coverage, s.nodes, s.edges, s.stagnant
    );
    let _ = writeln!(out, "  flight samples on disk: {}", flight.len());
    let counters: Vec<_> = s.counters.iter().filter(|(_, v)| *v > 0).collect();
    if !counters.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (name, v) in counters {
            let _ = writeln!(out, "  {name:<24} {v}");
        }
    }
    let phases = &s.phase_self_micros;
    if phases.iter().any(|(_, v)| *v > 0) {
        let total: u64 = phases.iter().map(|(_, v)| v).sum();
        let _ = writeln!(out, "\nphase self time:");
        for (name, v) in phases {
            let _ = writeln!(
                out,
                "  {name:<10} {v:>10}µs  {:>5.1}%",
                100.0 * *v as f64 / total.max(1) as f64
            );
        }
    }
    if let Some(p) = &hb.vm_profile {
        let _ = writeln!(out, "\nhot cones (by op units):");
        for row in p.rows.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:<20} {:>12} op units  {:>10} execs  {:>5.1}% fast path",
                row.label,
                row.op_units,
                row.execs,
                100.0 * row.fast as f64 / row.execs.max(1) as f64
            );
        }
        let _ = writeln!(
            out,
            "  design-wide fast-path hit rate: {:.1}% of {} dispatches",
            100.0 * p.total_fast as f64 / p.total_execs.max(1) as f64,
            p.total_execs
        );
    }
    if let Some(p) = &hb.solver_profile {
        if !p.goals.is_empty() {
            let _ = writeln!(out, "\nhardest solver goals (by cumulative conflicts):");
            for g in p.goals.iter().take(top) {
                let escalations: Vec<String> = g.escalations.iter().map(u32::to_string).collect();
                let _ = writeln!(
                    out,
                    "  {}=={:<6} {:>8} conflicts  {:>4} attempts \
                     ({} sat / {} unsat / {} exhausted)  escalations [{}]",
                    g.register,
                    g.value,
                    g.conflicts,
                    g.attempts,
                    g.sat,
                    g.unsat,
                    g.exhausted,
                    escalations.join(",")
                );
            }
        }
        let _ = writeln!(
            out,
            "  solver attempts {}  negative-cache hits {}",
            p.total_attempts, p.total_neg_cache_hits
        );
    }
    out
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders the heartbeat as Prometheus text exposition: campaign
/// scalars as gauges, cumulative counters as `_total` counters,
/// per-phase self-times and — when present — per-cone and per-goal
/// profiler series with `label`/`register` label pairs.
pub fn render_prometheus(hb: &Heartbeat) -> String {
    let s = &hb.status;
    let mut out = String::new();
    for (name, v) in s.scalars() {
        let _ = writeln!(out, "# TYPE symbfuzz_{name} gauge");
        let _ = writeln!(out, "symbfuzz_{name} {v}");
    }
    for (name, v) in &s.counters {
        let _ = writeln!(out, "symbfuzz_{}_total {v}", prom_name(name));
    }
    for (name, v) in &s.gauges {
        let _ = writeln!(out, "symbfuzz_gauge_{} {v}", prom_name(name));
    }
    for (name, v) in &s.events {
        let _ = writeln!(out, "symbfuzz_event_total{{kind=\"{name}\"}} {v}");
    }
    for (name, v) in &s.phase_self_micros {
        let _ = writeln!(
            out,
            "symbfuzz_phase_self_micros{{phase=\"{}\"}} {v}",
            prom_name(name)
        );
    }
    if let Some(p) = &hb.vm_profile {
        for (total, v) in [
            ("total_execs", p.total_execs),
            ("total_fast", p.total_fast),
            ("total_escaped", p.total_escaped),
        ] {
            let _ = writeln!(out, "symbfuzz_vm_{total} {v}");
        }
        for row in &p.rows {
            let cone = prom_name(&row.label);
            let _ = writeln!(
                out,
                "symbfuzz_cone_op_units{{cone=\"{cone}\"}} {}",
                row.op_units
            );
            let _ = writeln!(
                out,
                "symbfuzz_cone_fast_total{{cone=\"{cone}\"}} {}",
                row.fast
            );
        }
    }
    if let Some(p) = &hb.solver_profile {
        let _ = writeln!(out, "symbfuzz_solver_total_attempts {}", p.total_attempts);
        let _ = writeln!(
            out,
            "symbfuzz_solver_total_neg_cache_hits {}",
            p.total_neg_cache_hits
        );
        for g in &p.goals {
            let (register, value) = (prom_name(&g.register), g.value);
            for (f, v) in [
                ("attempts", g.attempts),
                ("conflicts", g.conflicts),
                ("exhausted", g.exhausted),
            ] {
                let _ = writeln!(
                    out,
                    "symbfuzz_goal_{f}{{register=\"{register}\",value=\"{value}\"}} {v}"
                );
            }
        }
    }
    out
}

/// Parses a Prometheus text exposition back into `(series, value)`
/// pairs, where `series` is the metric name plus its literal label
/// block (e.g. `symbfuzz_event_total{kind="FullReset"}`). `# TYPE`
/// comments are skipped; the round-trip partner of
/// [`render_prometheus`].
///
/// # Errors
///
/// Returns `"line N: <why>"` for the first malformed line or
/// duplicated series.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut series = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = |e: &str| format!("line {}: {e}", i + 1);
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| at("expected `series value`"))?;
        let bare = name.split('{').next().unwrap_or("");
        if bare.is_empty()
            || !bare
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(at(&format!("bad metric name `{bare}`")));
        }
        if name.contains('{') && !name.ends_with('}') {
            return Err(at("unterminated label block"));
        }
        let value: u64 = value
            .parse()
            .map_err(|_| at(&format!("bad sample value `{value}`")))?;
        if series.iter().any(|(n, _): &(String, u64)| n == name) {
            return Err(at(&format!("duplicate series `{name}`")));
        }
        series.push((name.to_string(), value));
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use symbfuzz_core::{FuzzConfig, Strategy, SymbFuzz};
    use symbfuzz_telemetry::{Counter, Event, Gauge, Phase};

    /// Drives a real traced campaign so the artifacts under test are
    /// exactly what the fuzzer writes, not hand-rolled fixtures.
    fn campaign_artifacts() -> (String, String) {
        // One directory per call: tests run in parallel threads.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "symbfuzz-monitor-{}-{}",
            std::process::id(),
            CALLS.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let d = Arc::new(
            // A two-step 16-bit lock: random inputs stall on it, so
            // the solver runs and introspection has goals to record.
            symbfuzz_netlist::elaborate_src(
                "module m(input clk, input rst_n, input [15:0] k, output logic [1:0] st);
                   always_ff @(posedge clk or negedge rst_n)
                     if (!rst_n) st <= 2'd0;
                     else case (st)
                       2'd0: if (k == 16'hBEEF) st <= 2'd1;
                       2'd1: if (k == 16'hCAFE) st <= 2'd2; else st <= 2'd0;
                       default: st <= 2'd2;
                     endcase
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let cfg = FuzzConfig::builder()
            .interval(100)
            .threshold(2)
            .max_vectors(5_000)
            .seed(7)
            .sample_every(500)
            .solver_introspection(true)
            .incremental_solving(true)
            .build()
            .unwrap();
        let mut fuzzer = SymbFuzz::new(d, Strategy::SymbFuzz, cfg, &[]).unwrap();
        let flight = dir.join("flight.jsonl");
        let status = dir.join("status.json");
        fuzzer
            .set_flight_outputs(Some(&flight), Some(&status))
            .unwrap();
        fuzzer.run();
        let out = (
            std::fs::read_to_string(&status).unwrap(),
            std::fs::read_to_string(&flight).unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn real_campaign_artifacts_pass_the_checks_and_render() {
        let (status_text, flight_text) = campaign_artifacts();
        let hb = check_status(&status_text).expect("status.json checks");
        let flight = check_flight(&flight_text).expect("flight.jsonl checks");
        assert_eq!(flight.len(), 10, "5000 vectors / sample_every 500");
        // Both artifacts re-emit byte-identically, every profiler
        // section included (the campaign runs with introspection, so
        // the heartbeat carries `solver_scope`).
        assert_eq!(hb.status.to_json(), status_text);
        let lines: String = flight.iter().map(|s| s.to_json() + "\n").collect();
        assert_eq!(lines, flight_text);
        let names: Vec<&str> = hb.status.sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["vm_profile", "solver_profile", "solver_scope"]);
        assert!(hb.vm_profile.is_some() && hb.solver_profile.is_some());
        let scope = hb.solver_scope.as_ref().expect("solver_scope decodes");
        assert!(!scope.goals.is_empty());
        let dash = render_dashboard(&hb, &flight, 10);
        assert!(dash.contains("vectors 5000"), "{dash}");
        assert!(dash.contains("hot cones"), "{dash}");
        assert!(dash.contains("fast path"), "{dash}");
        let prom = render_prometheus(&hb);
        assert!(prom.contains("symbfuzz_vectors 5000"), "{prom}");
        assert!(prom.contains("symbfuzz_vectors_total 5000"), "{prom}");
        assert!(prom.contains("symbfuzz_vm_total_execs"), "{prom}");
        let json = render_json(&hb, &flight);
        assert!(json.starts_with(&format!("{{\"status\":{status_text},")));
        assert!(json.ends_with(&format!(
            "\"flight\":{{\"samples\":10,\"last\":{}}}}}",
            flight_text.lines().last().unwrap()
        )));
    }

    #[test]
    fn prometheus_exposition_round_trips_through_its_parser() {
        let (status_text, _) = campaign_artifacts();
        let hb = check_status(&status_text).unwrap();
        let prom = render_prometheus(&hb);
        let series = parse_prometheus(&prom).expect("exposition parses back");
        let value = |name: &str| {
            series
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("series `{name}` missing from:\n{prom}"))
        };
        // The introspection taxonomy's counters and gauge are exported
        // under the standard naming scheme.
        value("symbfuzz_learned_clauses_total");
        value("symbfuzz_core_extractions_total");
        value("symbfuzz_gauge_mean_affinity_milli");
        // So are the incremental-solver taxonomy additions (the
        // campaign above runs with `incremental_solving` on).
        value("symbfuzz_bitblast_cache_hits_total");
        value("symbfuzz_bitblast_cache_misses_total");
        value("symbfuzz_gauge_solver_session_reuse_milli");
        // The runtime witness oracle is exported too, and a correct
        // solver never misses.
        assert_eq!(value("symbfuzz_witness_misses_total"), 0);
        // Every cumulative counter in the heartbeat survives the
        // render → parse round trip with its value intact.
        for (name, v) in &hb.status.counters {
            assert_eq!(value(&format!("symbfuzz_{}_total", prom_name(name))), *v);
        }
        for (name, v) in &hb.status.gauges {
            assert_eq!(value(&format!("symbfuzz_gauge_{}", prom_name(name))), *v);
        }
        for (name, v) in &hb.status.events {
            assert_eq!(
                value(&format!("symbfuzz_event_total{{kind=\"{name}\"}}")),
                *v
            );
        }
        assert_eq!(value("symbfuzz_vectors"), 5_000);
    }

    #[test]
    fn prometheus_parser_rejects_malformed_lines() {
        assert!(parse_prometheus("symbfuzz_x 1\n# TYPE symbfuzz_x gauge\n").is_ok());
        let err = parse_prometheus("symbfuzz_x\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(parse_prometheus("bad name 1.5x\n").is_err());
        assert!(parse_prometheus("symbfuzz_x{kind=\"a\" 1\n")
            .unwrap_err()
            .contains("unterminated"));
        assert!(parse_prometheus("symbfuzz_x 1\nsymbfuzz_x 2\n")
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn status_violations_are_named() {
        assert!(check_status("").unwrap_err().contains("expected `{`"));
        assert!(check_status("{\"v\":2}").unwrap_err().contains("v2"));
        let err = check_status("{\"v\":1,\"interval\":0}").unwrap_err();
        assert!(err.contains("missing `t`"), "{err}");
        // A scalar of the wrong type is rejected.
        let err = check_status(
            "{\"v\":1,\"interval\":0,\"t\":0,\"vectors\":\"many\",\"coverage\":0,\
             \"nodes\":0,\"edges\":0,\"stagnant\":0}",
        )
        .unwrap_err();
        assert!(err.contains("`vectors`"), "{err}");
        // A schema-valid heartbeat must still re-emit byte-identically:
        // whitespace or a trailing newline is not the writer's output.
        let (text, _) = campaign_artifacts();
        check_status(&text).unwrap();
        for spaced in [text.replacen(",", ", ", 1), format!("{text}\n")] {
            let err = check_status(&spaced).unwrap_err();
            assert!(err.contains("re-emit byte-identically"), "{err}");
        }
        // Every profiler section is decoded by the type that wrote it
        // and must re-serialize to its own text; an unknown section is
        // an error.
        let bad = [
            (
                text.replacen("\"vm_profile\":{", "\"vm_profile\":{\"x\":1,", 1),
                "`vm_profile` does not re-serialize",
            ),
            (
                text.replacen(
                    "\"solver_profile\":{",
                    "\"solver_profile\":{\"goals\":7,",
                    1,
                ),
                "solver_profile",
            ),
            (
                text.replacen("\"solver_scope\":{", "\"solver_scope\":{\"x\":[],", 1),
                "`solver_scope` does not re-serialize",
            ),
            (
                text.replacen("\"vm_profile\"", "\"vm_profiles\"", 1),
                "unknown section `vm_profiles`",
            ),
        ];
        for (corrupt, why) in bad {
            assert_ne!(corrupt, text);
            let err = check_status(&corrupt).unwrap_err();
            assert!(err.contains(why), "`{err}` does not say `{why}`");
        }
    }

    #[test]
    fn flight_violations_carry_line_numbers() {
        let sample = |interval: u64| FlightSample {
            interval,
            t: 5,
            task: 0,
            vectors: 100,
            coverage: 3,
            nodes: 2,
            edges: 1,
            stagnant: 0,
            d_counters: vec![1; Counter::COUNT],
            gauges: vec![1; Gauge::COUNT],
            d_events: vec![0; Event::KIND_COUNT],
            d_phase_micros: vec![9; Phase::COUNT],
        };
        let good = sample(1).to_json();
        assert_eq!(check_flight(&format!("{good}\n")).unwrap().len(), 1);
        let two = format!("{good}\n\n{}\n", sample(2).to_json());
        assert_eq!(
            check_flight(&two).unwrap().len(),
            2,
            "blank lines are skipped"
        );
        // Empty streams hard-error instead of passing vacuously.
        let err = check_flight("").unwrap_err();
        assert!(err.contains("empty or truncated"), "{err}");
        // Truncated tail line.
        let err = check_flight(&format!("{good}\n{{\"v\":1,\"interval\":2")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // Interval regression (e.g. two raw task streams concatenated
        // instead of merged): a repeated interval index is rejected.
        let err = check_flight(&format!("{good}\n{good}\n")).unwrap_err();
        assert!(err.contains("not above previous"), "{err}");
        // A short vector, an extra key and a reordered line, each on
        // line 2.
        for bad in [
            good.replacen("\"d_counters\":[1,", "\"d_counters\":[", 1),
            good.replacen('}', ",\"x\":1}", 1),
            good.replacen("\"v\":1,\"interval\":1,", "\"interval\":1,\"v\":1,", 1),
        ] {
            let err = check_flight(&format!("{}\n{bad}\n", sample(0).to_json())).unwrap_err();
            assert!(err.starts_with("line 2:"), "{err}");
        }
    }
}
