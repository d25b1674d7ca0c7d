//! Whole campaigns through `SymbFuzz::new` / `run`, timed from
//! outside, with the determinism and output checks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use symbfuzz_core::{CampaignResult, PropertySpec, SymbFuzz};
use symbfuzz_netlist::Design;
use symbfuzz_telemetry::{Collector, Counter, Phase};

use crate::stats::{fnv1a, Tally, FNV_BASIS};
use crate::workload::{Campaign, Source};

/// A campaign with its design elaborated once.
pub struct Prepared {
    /// The campaign.
    pub campaign: Campaign,
    /// Its elaborated design.
    pub design: Arc<Design>,
    /// Its property specs.
    pub props: Vec<PropertySpec>,
}

/// Elaborates every campaign's design once.
pub fn prepare(campaigns: &[Campaign]) -> Vec<Prepared> {
    campaigns
        .iter()
        .map(|c| {
            let (design, props) = c.source.build();
            Prepared {
                campaign: c.clone(),
                design,
                props,
            }
        })
        .collect()
}

/// Set-up time of one pass: `elaborate_src` (through the design
/// constructors) plus `SymbFuzz::new`, summed over the campaigns.
pub fn setup_seconds(campaigns: &[Campaign]) -> f64 {
    campaigns
        .iter()
        .map(|c| {
            let t = Instant::now();
            let (design, props) = c.source.build();
            let f = SymbFuzz::new(design, c.strategy, c.config.clone(), &props);
            let s = t.elapsed().as_secs_f64();
            drop(std::hint::black_box(f));
            s
        })
        .sum()
}

/// The deterministic fields of a report, hashed: coverage points,
/// nodes, edges, the bug list with detection vectors, the solve
/// outcome tally and the resource counters. Timing-dependent fields
/// (the telemetry block) are left out.
pub fn digest(r: &CampaignResult) -> u64 {
    let mut s = format!(
        "{}|{}|{}|{}|{}|{}|",
        r.fuzzer, r.design, r.vectors, r.coverage_points, r.nodes, r.edges
    );
    for b in &r.bugs {
        s += &format!("{}@{}/{}/{};", b.property, b.vectors, b.cycle, b.mechanism);
    }
    for (k, v) in &r.solve_outcomes {
        s += &format!("{k}={v};");
    }
    let res = &r.resources;
    s += &format!(
        "{}|{}|{}|{}|{}|{}|{}",
        res.cycles,
        res.solver_calls,
        res.rollbacks,
        res.full_resets,
        res.peak_snapshots,
        res.peak_snapshot_bytes,
        res.snapshot_pages_shared
    );
    fnv1a(FNV_BASIS, s.as_bytes())
}

/// Checks a report against what the campaign must produce whatever
/// the seed: the full vector budget, consistent coverage arithmetic,
/// and the expected verdicts (every planted SoC bug found, no holding
/// processor property ever reported violated).
pub fn check(c: &Campaign, r: &CampaignResult) -> Result<(), String> {
    if r.vectors != c.config.max_vectors {
        return Err(format!(
            "ran {} of {} vectors",
            r.vectors, c.config.max_vectors
        ));
    }
    if r.coverage_points != r.nodes + r.edges || r.nodes == 0 {
        return Err(format!(
            "coverage {} != nodes {} + edges {}",
            r.coverage_points, r.nodes, r.edges
        ));
    }
    match c.source {
        Source::Soc if r.bugs.len() != 4 => {
            Err(format!("found {} of the 4 planted SoC bugs", r.bugs.len()))
        }
        Source::Processor(_) if !r.bugs.is_empty() => Err(format!(
            "holding property reported violated: {:?}",
            r.bugs[0].property
        )),
        _ => Ok(()),
    }
}

/// One finished campaign run.
pub struct Run {
    /// Input vectors consumed.
    pub vectors: u64,
    /// Wall seconds inside `run()`.
    pub run_s: f64,
    /// The report.
    pub result: CampaignResult,
    /// The campaign's collector, after the run.
    pub telemetry: Arc<Collector>,
}

/// Builds and runs one campaign, optionally with a wall-clock
/// collector installed. Returns `Err` if construction failed, the run
/// panicked, or the report fails [`check`].
pub fn run_one(p: &Prepared, monotonic: bool) -> Result<Run, String> {
    let c = &p.campaign;
    let out = catch_unwind(AssertUnwindSafe(|| {
        let mut f = SymbFuzz::new(
            Arc::clone(&p.design),
            c.strategy,
            c.config.clone(),
            &p.props,
        )
        .map_err(|e| format!("SymbFuzz::new: {e}"))?;
        if monotonic {
            f.install_telemetry(Arc::new(Collector::monotonic()));
        }
        let t = Instant::now();
        let result = f.run();
        let run_s = t.elapsed().as_secs_f64();
        Ok::<_, String>(Run {
            vectors: result.vectors,
            run_s,
            result,
            telemetry: Arc::clone(f.telemetry()),
        })
    }));
    let run = out.map_err(|_| "campaign panicked".to_string())??;
    check(c, &run.result)?;
    Ok(run)
}

/// Totals of one pass over a workload's campaigns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Vectors over the pass.
    pub vectors: u64,
    /// Wall seconds inside `run()` over the pass.
    pub run_s: f64,
}

impl Pass {
    /// Input vectors per wall second of `run()`.
    pub fn vectors_per_s(&self) -> f64 {
        self.vectors as f64 / self.run_s
    }
}

/// What a closed loop of passes measured.
#[derive(Default)]
pub struct LoopStats {
    /// Complete passes.
    pub passes: Vec<Pass>,
    /// First report of each campaign.
    pub first: Vec<Option<CampaignResult>>,
    /// Self microseconds per phase (wall-clock collector runs only).
    pub phase_micros: [u64; Phase::COUNT],
    /// Settle sweeps on the two-state fast path / escaped to 4-state.
    pub settle_fast: u64,
    /// See `settle_fast`.
    pub settle_escapes: u64,
    /// Mutate-phase spans (one per generated word).
    pub mutate_spans: u64,
}

impl LoopStats {
    /// Folds a later loop over the same campaigns into this one.
    pub fn absorb(&mut self, later: LoopStats) {
        self.passes.extend(later.passes);
        if self.first.is_empty() {
            self.first = later.first;
        }
        for (a, b) in self.phase_micros.iter_mut().zip(later.phase_micros) {
            *a += b;
        }
        self.settle_fast += later.settle_fast;
        self.settle_escapes += later.settle_escapes;
        self.mutate_spans += later.mutate_spans;
    }
}

/// Runs passes over `prepared` one campaign after another until
/// `budget` has elapsed and at least `min_passes` passes completed.
/// Every run is counted in `tally`; a run whose deterministic digest
/// differs from the campaign's first run is a failure. Failures are
/// reported on standard error.
pub fn closed_loop(
    prepared: &[Prepared],
    budget: Duration,
    min_passes: usize,
    monotonic: bool,
    tally: &mut Tally,
) -> LoopStats {
    let start = Instant::now();
    let mut stats = LoopStats {
        first: prepared.iter().map(|_| None).collect(),
        ..LoopStats::default()
    };
    while stats.passes.len() < min_passes || start.elapsed() < budget {
        let mut pass = Pass::default();
        for (i, p) in prepared.iter().enumerate() {
            match run_one(p, monotonic) {
                Ok(run) => {
                    pass.vectors += run.vectors;
                    pass.run_s += run.run_s;
                    if !tally.note(i, Some(digest(&run.result))) {
                        eprintln!("campaign {i}: report differs from its first run");
                    }
                    if monotonic {
                        for (k, ph) in Phase::ALL.iter().enumerate() {
                            stats.phase_micros[k] += run.telemetry.phase_self_micros(*ph);
                        }
                        stats.mutate_spans += run.telemetry.phase_count(Phase::Mutate);
                    }
                    stats.settle_fast += run.telemetry.get(Counter::SettleFastPath);
                    stats.settle_escapes += run.telemetry.get(Counter::SettleEscapes);
                    if stats.first[i].is_none() {
                        stats.first[i] = Some(run.result);
                    }
                }
                Err(e) => {
                    tally.note(i, None);
                    eprintln!("campaign {i}: {e}");
                }
            }
        }
        stats.passes.push(pass);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbfuzz_core::{FuzzConfig, Strategy};

    fn small(source: Source, strategy: Strategy) -> Vec<Prepared> {
        prepare(&[Campaign {
            source,
            strategy,
            config: FuzzConfig {
                interval: 100,
                threshold: 1,
                max_vectors: 600,
                ..FuzzConfig::default()
            },
        }])
    }

    #[test]
    fn a_changed_report_field_counts_as_a_failed_run() {
        let p = small(Source::Processor(0), Strategy::SymbFuzz);
        let mut tally = Tally::default();
        let plain = run_one(&p[0], false).expect("campaign runs");
        // The wall-clock collector must not change the report.
        let clocked = run_one(&p[0], true).expect("campaign runs");
        assert!(tally.note(0, Some(digest(&plain.result))));
        assert!(tally.note(0, Some(digest(&clocked.result))));
        let mut forced = clocked.result;
        forced.edges += 1;
        assert!(!tally.note(0, Some(digest(&forced))));
        assert_eq!((tally.attempted, tally.failed), (3, 1));
    }

    #[test]
    fn check_rejects_a_short_run() {
        let p = small(Source::Processor(2), Strategy::RFuzz);
        let mut r = run_one(&p[0], false).expect("campaign runs").result;
        r.vectors -= 1;
        assert!(check(&p[0].campaign, &r).is_err());
    }
}
