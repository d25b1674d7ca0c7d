//! The four workloads: which design, strategy and configuration each
//! campaign runs, derived from the workload seed alone.

use std::sync::Arc;
use symbfuzz_core::{FuzzConfig, PropertySpec, Strategy};
use symbfuzz_designs::{buggy_soc, goal_fabric, processor_benchmarks, GOAL_FABRIC_PROPERTY};
use symbfuzz_netlist::Design;

use crate::stats::splitmix64;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The buggy SoC under SymbFuzz: bugs fire early, then coverage
    /// saturates and the run is the stagnation → rollback → solve loop
    /// with many cheap reachability queries.
    SocHunt,
    /// `cva6_like` under SymbFuzz: coverage keeps growing, so every
    /// vector pays for CFG bookkeeping and snapshot forks while the
    /// solver barely runs. Not in `BENCHMARK.json`'s workload list:
    /// its throughput moves with each seed's node count (path clones
    /// and ancestor scans grow faster than linearly) and with the
    /// host's memory load, by more than any usable regression bound.
    /// Run it by name to study the CFG layer.
    Cva6Deep,
    /// The goal fabric under a tight conflict budget: few, expensive
    /// CDCL searches dominate. Not in `BENCHMARK.json`'s workload list:
    /// the fastest pass of this one solver-bound campaign varied 7–11 %
    /// between sets of runs, and the run length that would steady it
    /// does not fit the time budget of three workloads. Run it by name
    /// to study the solver layer.
    FabricSolve,
    /// The four baselines on the four processor designs: per-testcase
    /// full resets and corpus mutation, no solver and no snapshots.
    BaselineMatrix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SocHunt,
        Workload::Cva6Deep,
        Workload::FabricSolve,
        Workload::BaselineMatrix,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SocHunt => "soc_hunt",
            Workload::Cva6Deep => "cva6_deep",
            Workload::FabricSolve => "fabric_solve",
            Workload::BaselineMatrix => "baseline_matrix",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The campaigns of one pass, derived from `seed`. The list is
    /// fixed for a seed, so repeats of a pass must reproduce every
    /// deterministic report field. Vector budgets keep a pass under
    /// about a second on a 2.1 GHz Xeon, so a run of tens of seconds
    /// holds dozens of passes. The goal fabric's campaign does not
    /// depend on its seed: random words never advance its lanes, and
    /// the solver is deterministic.
    pub fn campaigns(self, seed: u64) -> Vec<Campaign> {
        let salt = splitmix64(seed ^ splitmix64(self as u64 + 1));
        let seed_of = |i: u64| splitmix64(salt.wrapping_add(i));
        let symbfuzz = |source: Source, n: u64, config: FuzzConfig| -> Vec<Campaign> {
            (0..n)
                .map(|i| Campaign {
                    source,
                    strategy: Strategy::SymbFuzz,
                    config: FuzzConfig {
                        seed: seed_of(i),
                        ..config.clone()
                    },
                })
                .collect()
        };
        match self {
            Workload::SocHunt => symbfuzz(
                Source::Soc,
                2,
                FuzzConfig {
                    max_vectors: 15_000,
                    ..FuzzConfig::default()
                },
            ),
            Workload::Cva6Deep => symbfuzz(
                Source::Processor(CVA6),
                3,
                FuzzConfig {
                    max_vectors: 30_000,
                    ..FuzzConfig::default()
                },
            ),
            // The budget-profile configuration of the solver
            // experiments: short intervals, immediate stagnation
            // response, a 10 000-conflict ceiling escalated once.
            Workload::FabricSolve => symbfuzz(
                Source::Fabric,
                1,
                FuzzConfig {
                    interval: 100,
                    threshold: 1,
                    max_vectors: 4_000,
                    solver_budget: Some(10_000),
                    escalation_cap: 1,
                    ..FuzzConfig::default()
                },
            ),
            Workload::BaselineMatrix => {
                let strategies = [
                    Strategy::RFuzz,
                    Strategy::DifuzzRtl,
                    Strategy::Hwfp,
                    Strategy::UvmRandom,
                ];
                let mut out = Vec::new();
                for p in 0..processor_benchmarks().len() {
                    for s in strategies {
                        out.push(Campaign {
                            source: Source::Processor(p),
                            strategy: s,
                            config: FuzzConfig {
                                max_vectors: 10_000,
                                seed: seed_of(out.len() as u64),
                                ..FuzzConfig::default()
                            },
                        });
                    }
                }
                out
            }
        }
    }
}

/// Index of `cva6_like` in `processor_benchmarks()`.
const CVA6: usize = 1;

/// Where a campaign's design and properties come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `buggy_soc()` with its four detection properties.
    Soc,
    /// `processor_benchmarks()[i]` with its holding properties.
    Processor(usize),
    /// `goal_fabric()` with `GOAL_FABRIC_PROPERTY`.
    Fabric,
}

impl Source {
    /// Elaborates the design and returns it with its property specs.
    pub fn build(self) -> (Arc<Design>, Vec<PropertySpec>) {
        match self {
            Source::Soc => buggy_soc().expect("the buggy SoC elaborates"),
            Source::Processor(i) => {
                let b = &processor_benchmarks()[i];
                (
                    b.design().expect("processor benchmark elaborates"),
                    b.property_specs(),
                )
            }
            Source::Fabric => {
                let (name, text) = GOAL_FABRIC_PROPERTY;
                (
                    goal_fabric(),
                    vec![PropertySpec::assertion_only(name, text)],
                )
            }
        }
    }
}

/// One campaign: a design, a strategy and a full configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Design and properties.
    pub source: Source,
    /// Fuzzing strategy.
    pub strategy: Strategy,
    /// Configuration, seed included.
    pub config: FuzzConfig,
}
