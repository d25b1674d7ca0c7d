//! SymbFuzz: symbolic-execution-guided hardware fuzzing.
//!
//! This is the paper's primary contribution (Algorithm 1, §4): a
//! UVM-based coverage-guided fuzzer whose mutation engine falls back to
//! an SMT solver when coverage stagnates. The crate also implements the
//! comparison baselines of the evaluation (§5): RFuzz-style
//! mux-coverage fuzzing, DifuzzRTL-style control-register-coverage
//! fuzzing, HWFP-style two-state byte-mutation fuzzing, and plain UVM
//! constrained-random testing.
//!
//! # Architecture (Fig. 1 of the paper)
//!
//! * simulation setup — [`symbfuzz_ruvm`] environment over
//!   [`symbfuzz_sim`]: sequencer → driver → DUV → monitor;
//! * coverage measurement — [`symbfuzz_cfgx`]: control-register node
//!   and edge coverage, checkpoints, replay sequences;
//! * seed mutation — constrained randomization plus, on stagnation,
//!   dependency equations from [`symbfuzz_symexec`] solved by
//!   [`symbfuzz_smt`], installed back into the sequencer.
//!
//! # Examples
//!
//! Fuzz the toy ALU-like FSM until the planted property violation is
//! found:
//!
//! ```
//! use std::sync::Arc;
//! use symbfuzz_core::{FuzzConfig, PropertySpec, Strategy, SymbFuzz};
//!
//! let d = Arc::new(symbfuzz_netlist::elaborate_src(
//!     "module m(input clk, input rst_n, input [7:0] k, output logic unlocked);
//!        always_ff @(posedge clk or negedge rst_n)
//!          if (!rst_n) unlocked <= 1'b0;
//!          else begin if (k == 8'hA5) unlocked <= 1'b1; end
//!      endmodule", "m")?);
//! let props = vec![PropertySpec::assertion_only("never_unlocked", "unlocked == 1'b0")];
//! let cfg = FuzzConfig { interval: 16, max_vectors: 40_000, ..FuzzConfig::default() };
//! let mut fuzzer = SymbFuzz::new(Arc::clone(&d), Strategy::SymbFuzz, cfg, &props)?;
//! let result = fuzzer.run();
//! assert_eq!(result.bugs.len(), 1);
//! assert_eq!(result.bugs[0].property, "never_unlocked");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod config;
mod fuzzer;
mod mutate;
mod report;

pub use config::{ConfigError, FuzzConfig, FuzzConfigBuilder, Strategy};
pub use fuzzer::SymbFuzz;
pub use mutate::Mutator;
pub use report::{
    BugRecord, CampaignResult, ConeRow, CovMap, CoverageSample, EdgeCov, FlightRow, FrontierRow,
    GoalCov, GoalRow, NodeCov, PhaseBlock, PropertySpec, ProvenanceRecord, ResourceStats,
    ScopeCollector, ScopeGoalRow, SolverCacheBlock, SolverProfileBlock, SolverScopeBlock,
    TelemetryBlock, VmProfileBlock, AFFINITY_MAX_GOALS, COVMAP_VERSION, SOLVERSCOPE_VERSION,
};
