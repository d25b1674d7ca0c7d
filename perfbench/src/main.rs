//! Whole-campaign benchmark for the SymbFuzz reproduction.
//!
//! Usage: `symbfuzz-perfbench --workload NAME --seed N --seconds S
//! --trace 0|1 [--out DIR]`
//!
//! Campaigns of the named workload run one after another in this
//! process (a closed loop with one client) for `S` seconds. The last
//! line of standard output is one JSON object: with `--trace 0` it
//! carries the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced run. Earlier lines are a readable report with
//! the per-campaign determinism digests. `--out DIR` receives the
//! traced run's spans as `spans-<workload>.tsv`.

mod campaign;
mod drive;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use campaign::{closed_loop, prepare, setup_seconds, LoopStats, Prepared};
use drive::{drive, Name, Trace};
use stats::{median, tail_percentile, Tally};
use symbfuzz_core::CampaignResult;
use symbfuzz_telemetry::Phase;
use workload::Workload;

/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Largest gap, in share points, allowed between the layer drive's
/// phase shares and the campaign collector's before the cross-check
/// flags it. The drive times each call from outside, so its shares
/// sit a few points off the collector's; a gap this wide means it
/// misattributes time.
const SHARE_BOUND: f64 = 0.2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), v, unit));
    }

    /// `<name>.p50` and `<name>.tail` for one timing; the sample count
    /// and the tail's percentile go to the text report.
    fn timing(&mut self, name: &str, samples: &[f64], scale: f64, unit: &'static str) {
        let s = tail_percentile(samples);
        self.put(format!("{name}.p50"), s.p50 / scale, unit);
        self.put(format!("{name}.tail"), s.tail / scale, unit);
        println!(
            "  {name:28} p50 {:>12.3} {unit}  p{} {:>12.3} {unit}  n={}",
            s.p50 / scale,
            s.tail_per_10k as f64 / 100.0,
            s.tail / scale,
            s.n
        );
    }

    fn json(&self, correct: bool, tally: &Tally) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.attempted, tally.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s + "}}"
    }
}

/// `vectors_per_s` of a loop: its fastest pass. Other tenants of the
/// host slow whole stretches of a run by up to 40 %, and never speed
/// a pass up, so the fastest pass tracks the program's own speed far
/// more steadily than the median pass does.
fn pass_rate(stats: &LoopStats) -> f64 {
    stats
        .passes
        .iter()
        .map(|p| p.vectors_per_s())
        .fold(0.0, f64::max)
}

fn firsts(stats: &LoopStats) -> impl Iterator<Item = &CampaignResult> {
    stats.first.iter().flatten()
}

/// Prints the per-campaign digests and the workload digest.
fn print_digests(name: &str, prepared: &[Prepared], stats: &LoopStats, tally: &Tally) {
    let mut all = stats::FNV_BASIS;
    for (i, r) in stats.first.iter().enumerate() {
        let d = tally.digest(i).unwrap_or(0);
        all = stats::fnv1a(all, &d.to_le_bytes());
        if let Some(r) = r {
            println!(
                "  campaign {i:2} {:10} {:12} seed {:016x} digest {d:016x} cov {} bugs {}",
                r.fuzzer,
                r.design,
                prepared[i].campaign.config.seed,
                r.coverage_points,
                r.bugs.len()
            );
        }
    }
    println!("  digest {name} {all:016x}");
}

fn untraced(args: &Args, campaigns: &[workload::Campaign]) -> (bool, Tally, Metrics) {
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| setup_seconds(campaigns))
        .collect();
    let prepared = prepare(campaigns);
    let mut tally = Tally::default();
    let stats = closed_loop(
        &prepared,
        Duration::from_secs(args.seconds),
        2,
        false,
        &mut tally,
    );
    let rates: Vec<f64> = stats.passes.iter().map(|p| p.vectors_per_s()).collect();
    let coverage: u64 = firsts(&stats).map(|r| r.coverage_points).sum();
    let bugs: usize = firsts(&stats).map(|r| r.bugs.len()).sum();
    print_digests(args.workload.name(), &prepared, &stats, &tally);
    let rate = pass_rate(&stats);
    let summary = tail_percentile(&rates);
    println!(
        "  passes {} (vectors_per_s: fastest {rate:.0}, median {:.0}, slowest {:.0})",
        rates.len(),
        summary.p50,
        rates.iter().copied().fold(f64::INFINITY, f64::min)
    );
    let rounded: Vec<u64> = rates.iter().map(|r| r.round() as u64).collect();
    println!("  pass vectors_per_s: {rounded:?}");
    let mut m = Metrics::default();
    m.put("vectors_per_s", rate, "1/s");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("coverage_points", coverage as f64, "count");
    m.put("ok_frac", 1.0 - tally.failed_frac(), "frac");
    for (name, value, unit) in &m.0 {
        println!("  {name:16} {value:>14.6} {unit}");
    }
    println!("  {:16} {:>14} count", "bugs_found", bugs);
    println!("  {:16} {:>14.6} frac", "failed_frac", tally.failed_frac());
    (tally.failed == 0 && tally.attempted > 0, tally, m)
}

/// Set-up split by layer: elaboration, simulator compile and property
/// parsing, each summed over a pass and taken as a median over
/// [`SETUP_REPEATS`] passes.
fn setup_layers(campaigns: &[workload::Campaign]) -> (f64, f64, f64) {
    let mut elab = Vec::new();
    let mut compile = Vec::new();
    let mut parse = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (mut e, mut c, mut p) = (0.0, 0.0, 0.0);
        for camp in campaigns {
            let t = Instant::now();
            let (design, props) = camp.source.build();
            e += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let sim = symbfuzz_sim::Simulator::new(std::sync::Arc::clone(&design));
            c += t.elapsed().as_secs_f64();
            drop(std::hint::black_box(sim));
            let t = Instant::now();
            for s in &props {
                let parsed = symbfuzz_props::Property::parse(&s.name, &s.text, &design);
                drop(std::hint::black_box(parsed));
            }
            p += t.elapsed().as_secs_f64();
        }
        elab.push(e);
        compile.push(c);
        parse.push(p);
    }
    (median(&elab), median(&compile), median(&parse))
}

fn share(parts: &[(&'static str, u64)], key: &str, total: u64) -> f64 {
    let v = parts.iter().find(|(k, _)| *k == key).map_or(0, |(_, v)| *v);
    if total == 0 {
        0.0
    } else {
        v as f64 / total as f64
    }
}

fn traced(args: &Args, campaigns: &[workload::Campaign]) -> (bool, Tally, Metrics) {
    let start = Instant::now();
    let mut m = Metrics::default();
    let (elab_s, compile_s, parse_s) = setup_layers(campaigns);
    let prepared = prepare(campaigns);

    // Layer drive: one pass, every call spanned.
    let trace: Trace = drive(&prepared);
    if let Some(dir) = &args.out {
        let path = dir.join(format!("spans-{}.tsv", args.workload.name()));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| trace.write_tsv(&path)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }

    // Phase split: untraced passes alternate with passes under a
    // wall-clock collector, so both see the same host conditions.
    let mut tally = Tally::default();
    let mut plain = LoopStats::default();
    let mut clocked = LoopStats::default();
    let budget = Duration::from_secs(args.seconds).saturating_sub(start.elapsed());
    let loop_start = Instant::now();
    while plain.passes.is_empty() || loop_start.elapsed() < budget {
        plain.absorb(closed_loop(&prepared, Duration::ZERO, 1, false, &mut tally));
        clocked.absorb(closed_loop(&prepared, Duration::ZERO, 1, true, &mut tally));
    }
    print_digests(args.workload.name(), &prepared, &plain, &tally);
    let drive_matches = trace.counts.coverage
        == firsts(&plain)
            .map(|r| r.coverage_points)
            .collect::<Vec<_>>();
    println!(
        "  layer drive: {} spans over {} vectors in {:.3} s; coverage {:?} ({} the campaigns)",
        trace.spans.len(),
        trace.counts.vectors,
        trace.wall_s,
        trace.counts.coverage,
        if drive_matches {
            "matches"
        } else {
            "differs from"
        }
    );

    println!("  timings:");
    m.timing(
        "props.on_cycle_ns",
        &trace.durations(Name::OnCycle),
        1.0,
        "ns",
    );
    m.timing(
        "symexec.solve_reach_ms",
        &trace.durations(Name::Solve),
        1e6,
        "ms",
    );
    m.timing(
        "cfgx.observe_ns",
        &trace.durations(Name::Observe),
        1.0,
        "ns",
    );
    m.timing(
        "cfgx.ancestor_us",
        &trace.durations(Name::Ancestor),
        1e3,
        "us",
    );
    m.timing("sim.drive_ns", &trace.durations(Name::Drive), 1.0, "ns");
    m.timing("sim.fork_us", &trace.durations(Name::Fork), 1e3, "us");
    m.timing("sim.reenter_us", &trace.durations(Name::Reenter), 1e3, "us");
    m.timing(
        "ruvm.next_item_ns",
        &trace.durations(Name::NextItem),
        1.0,
        "ns",
    );

    let c = &trace.counts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let solve_ns: f64 = trace.durations(Name::Solve).iter().sum();
    m.put("symexec.calls", c.solves as f64, "count");
    m.put("symexec.sat_ratio", ratio(c.sat, c.solves), "ratio");
    m.put(
        "symexec.exhausted_ratio",
        ratio(c.exhausted, c.solves),
        "ratio",
    );
    m.put("smt.conflicts", c.conflicts as f64, "count");
    m.put("smt.decisions", c.decisions as f64, "count");
    m.put(
        "smt.ns_per_conflict",
        if c.conflicts == 0 {
            0.0
        } else {
            solve_ns / c.conflicts as f64
        },
        "ns",
    );
    m.put("cfgx.path_words", c.path_words as f64, "words");

    let reports: Vec<&CampaignResult> = firsts(&plain).collect();
    let sum = |f: fn(&CampaignResult) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let fast = plain.settle_fast + clocked.settle_fast;
    let escapes = plain.settle_escapes + clocked.settle_escapes;
    m.put(
        "sim.settle_fast_ratio",
        ratio(fast, fast + escapes),
        "ratio",
    );
    let shared = sum(|r| r.resources.snapshot_pages_shared);
    let copied = sum(|r| r.resources.snapshot_pages_copied);
    m.put(
        "sim.snap_share_ratio",
        ratio(shared, shared + copied),
        "ratio",
    );
    let peak_snap = reports
        .iter()
        .map(|r| r.resources.peak_snapshot_bytes)
        .max();
    m.put(
        "sim.peak_snapshot_bytes",
        peak_snap.unwrap_or(0) as f64,
        "bytes",
    );
    m.put(
        "sim.full_resets",
        sum(|r| r.resources.full_resets) as f64,
        "count",
    );
    m.put(
        "sim.rollbacks",
        sum(|r| r.resources.rollbacks) as f64,
        "count",
    );
    m.put(
        "fuzz.bugs_found",
        sum(|r| r.bugs.len() as u64) as f64,
        "count",
    );
    // Campaign phase split from the wall-clock collector.
    let phase_micros = |p: Phase| {
        let i = Phase::ALL
            .iter()
            .position(|q| *q == p)
            .expect("phase listed");
        clocked.phase_micros[i]
    };
    let phase_total: u64 = clocked.phase_micros.iter().sum();
    let phase_share = |p: Phase| ratio(phase_micros(p), phase_total);
    m.put(
        "fuzz.mutate_ns.mean",
        ratio(phase_micros(Phase::Mutate), clocked.mutate_spans) * 1e3,
        "ns",
    );
    m.put("netlist.elaborate_ms", elab_s * 1e3, "ms");
    m.put("sim.compile_ms", compile_s * 1e3, "ms");
    m.put("props.parse_us", parse_s * 1e6, "us");
    for p in Phase::ALL {
        m.put(format!("phase.{}.share", p.name()), phase_share(p), "ratio");
    }

    // Layer drive self time, by crate and by campaign phase.
    let (layers, phases, total) = trace.self_time_split();
    println!("  layer drive self time by crate:");
    for layer in ["sim", "cfgx", "props", "symexec", "ruvm", "bench"] {
        let s = share(&layers, layer, total);
        println!("    {layer:8} {:6.1} %", s * 100.0);
        m.put(format!("layer.{layer}.share"), s, "ratio");
    }
    println!("  cross-check, drive share vs campaign phase share (bound {SHARE_BOUND}):");
    let mut flags = 0u32;
    let mut max_gap = 0.0f64;
    for p in [Phase::Props, Phase::Solve, Phase::Settle] {
        let d = share(&phases, p.name(), total);
        let c = phase_share(p);
        let gap = (d - c).abs();
        let flag = gap > SHARE_BOUND;
        flags += u32::from(flag);
        max_gap = max_gap.max(gap);
        println!(
            "    {:8} drive {:6.1} %  campaign {:6.1} %{}",
            p.name(),
            d * 100.0,
            c * 100.0,
            if flag {
                "  FLAG: differs by more than the bound"
            } else {
                ""
            }
        );
        m.put(format!("drive.{}.share", p.name()), d, "ratio");
    }
    m.put("xcheck.max_gap", max_gap, "ratio");
    m.put("xcheck.flags", flags as f64, "count");

    // Tracing overhead: collector-traced over untraced throughput, and
    // the layer drive over untraced throughput.
    let base = pass_rate(&plain);
    let with_collector = pass_rate(&clocked);
    let drive_rate = c.vectors as f64 / trace.wall_s;
    println!(
        "  tracing overhead (base: untraced vectors_per_s {base:.0}, fastest of {} passes):",
        plain.passes.len()
    );
    println!(
        "    wall-clock collector {with_collector:.0} vec/s = {:.3} x base",
        with_collector / base
    );
    println!(
        "    layer drive          {drive_rate:.0} vec/s = {:.3} x base",
        drive_rate / base
    );
    m.put("trace.untraced_vectors_per_s", base, "1/s");
    m.put("trace.collector_ratio", with_collector / base, "x");
    m.put("trace.drive_ratio", drive_rate / base, "x");
    (tally.failed == 0 && tally.attempted > 0, tally, m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let campaigns = args.workload.campaigns(args.seed);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (correct, tally, metrics) = if args.trace {
        traced(&args, &campaigns)
    } else {
        untraced(&args, &campaigns)
    };
    println!("{}", metrics.json(correct, &tally));
    ExitCode::SUCCESS
}
