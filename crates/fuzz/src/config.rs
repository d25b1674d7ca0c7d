//! Fuzzing configuration and strategy selection.

use serde::{Deserialize, Serialize};

/// Which fuzzing algorithm drives the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// The paper's contribution: coverage-guided fuzzing with
    /// checkpoint rollback and SMT-solved constraints on stagnation.
    SymbFuzz,
    /// Plain UVM constrained-random testing (no feedback).
    UvmRandom,
    /// RFuzz-style: mux-toggle-coverage-guided bit-flip mutation
    /// (Laeufer et al., ICCAD 2018).
    RFuzz,
    /// DifuzzRTL-style: control-register-value coverage with word-level
    /// mutation (Hur et al., S&P 2021).
    DifuzzRtl,
    /// HWFP-style ("Fuzzing Hardware Like Software", Trippel et al.,
    /// USENIX Sec 2022): byte-granular mutation, two-state coverage
    /// view (X collapses to 0).
    Hwfp,
}

impl Strategy {
    /// Human-readable name used in reports and tables.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::SymbFuzz => "SymbFuzz",
            Strategy::UvmRandom => "UVM-random",
            Strategy::RFuzz => "RFuzz",
            Strategy::DifuzzRtl => "DifuzzRTL",
            Strategy::Hwfp => "HWFP",
        }
    }

    /// All strategies, SymbFuzz first (the order used in tables).
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::SymbFuzz,
            Strategy::RFuzz,
            Strategy::DifuzzRtl,
            Strategy::Hwfp,
            Strategy::UvmRandom,
        ]
    }
}

/// Campaign parameters (paper defaults in §5 "Parameter Setup": 300
/// cycles per interval, dumps every 3 intervals, stagnation threshold
/// of a few intervals).
///
/// `Deserialize` is hand-written so configs serialized before the
/// snapshot-tree release (no `snapshot_mem_budget` /
/// `use_ancestor_reentry` keys) still load, taking the defaults.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FuzzConfig {
    /// Clock cycles per interval `I` (one VCD dump / coverage scan).
    pub interval: u32,
    /// Stagnation threshold `Th`: intervals without new coverage before
    /// symbolic guidance kicks in.
    pub threshold: u32,
    /// Checkpoint fanout threshold (§4.5; the paper uses 3).
    pub checkpoint_fanout: usize,
    /// Total input-vector budget for the campaign.
    pub max_vectors: u64,
    /// RNG seed (campaigns are deterministic given a seed).
    pub seed: u64,
    /// Cycles to hold reset at campaign start and on full resets.
    pub reset_cycles: u32,
    /// Maximum cycles the symbolic engine may unroll when solving for
    /// a target state (§4.7 search depth limit).
    pub solve_depth: u32,
    /// Maximum distinct targets tried per guidance round.
    pub targets_per_round: usize,
    /// Byte budget for the copy-on-write snapshot store: unique page
    /// bytes beyond this trigger oldest-first eviction. Replaces the
    /// count-based `snapshot_cap` as the memory bound.
    pub snapshot_mem_budget: u64,
    /// Whether re-entry may fork the nearest snapshotted CFG ancestor
    /// and replay only the residual suffix. Off = the pre-snapshot-tree
    /// behaviour (exact-hit restore, else full reset + full replay) —
    /// the A/B control for the re-entry savings experiments.
    pub use_ancestor_reentry: bool,
    /// Testcase length (cycles per reset-to-reset test) for the
    /// baseline fuzzers and UVM random testing. SymbFuzz itself runs
    /// continuously, using checkpoints instead of per-test resets
    /// (§4.5).
    pub testcase_len: usize,
    /// Ablation: disable checkpoint rollback (guidance restarts from a
    /// full reset instead, §4.5's alternative).
    pub use_checkpoints: bool,
    /// Ablation: disable the SMT-guided mutation entirely (stagnation
    /// is ignored; exploration stays purely random).
    pub use_solver: bool,
    /// Conflict budget per symbolic solve (`None` = unlimited). When
    /// set, exhausted solves degrade to random mutation instead of
    /// stalling the campaign.
    pub solver_budget: Option<u64>,
    /// Wall-clock budget per symbolic solve in milliseconds (`None` =
    /// unlimited). The only non-deterministic knob: campaigns using it
    /// are no longer byte-identical run to run. Operator-facing only.
    pub solve_wall_ms: Option<u64>,
    /// Maximum budget-escalation level: after an exhausted solve the
    /// next attempt doubles the counter ceilings, up to `2^cap`×.
    pub escalation_cap: u32,
    /// Flight-recorder sampling interval in input vectors (`None` =
    /// recorder off). When set, the campaign captures one delta-
    /// compressed metrics sample every `N` vectors (deterministic under
    /// the manual clock) and enables the per-cone / per-goal profilers.
    pub sample_every: Option<u64>,
    /// Solver introspection: every symbolic solve additionally records
    /// CDCL analytics (learned-clause/LBD histograms, restart timeline,
    /// hot signals), a structural sketch for cross-goal affinity, and a
    /// blame set on `Unreachable`/`Exhausted` outcomes. Off by default;
    /// when off the solver's trace hooks cost one pointer test per
    /// conflict and nothing is allocated.
    pub solver_introspection: bool,
    /// Incremental solving: keep one warm SAT solver per unrolled
    /// frame alive across goals (assumption-based `check_assuming`),
    /// memoizing the transition-relation CNF so the geometric depth
    /// schedule only blasts the new frame. Verdict-equivalent to fresh
    /// solving; off by default (the A/B control for the solver-cache
    /// experiments).
    pub incremental_solving: bool,
    /// Byte budget for the bitblast/session cache used by
    /// `incremental_solving`: when the cached sessions' estimated
    /// footprint exceeds this, least-recently-used frames are evicted.
    pub solver_cache_budget: u64,
    /// Affinity-ordered goal batching: reorder each guidance round's
    /// targets by structural-sketch similarity (greedy nearest-neighbor
    /// chaining over the KMV sketches) so goals sharing logic hit a
    /// warm solver session back to back. Requires
    /// `solver_introspection` for the sketches; off by default.
    pub affinity_ordering: bool,
}

fn default_snapshot_mem_budget() -> u64 {
    64 * 1024 * 1024
}

fn default_solver_cache_budget() -> u64 {
    16 * 1024 * 1024
}

impl Deserialize for FuzzConfig {
    fn from_value(v: &serde::Value) -> Result<FuzzConfig, serde::DeError> {
        let defaults = FuzzConfig::default();
        Ok(FuzzConfig {
            interval: Deserialize::from_value(v.field("interval")?)?,
            threshold: Deserialize::from_value(v.field("threshold")?)?,
            checkpoint_fanout: Deserialize::from_value(v.field("checkpoint_fanout")?)?,
            max_vectors: Deserialize::from_value(v.field("max_vectors")?)?,
            seed: Deserialize::from_value(v.field("seed")?)?,
            reset_cycles: Deserialize::from_value(v.field("reset_cycles")?)?,
            solve_depth: Deserialize::from_value(v.field("solve_depth")?)?,
            targets_per_round: Deserialize::from_value(v.field("targets_per_round")?)?,
            snapshot_mem_budget: match v.field("snapshot_mem_budget") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => defaults.snapshot_mem_budget,
            },
            use_ancestor_reentry: match v.field("use_ancestor_reentry") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => defaults.use_ancestor_reentry,
            },
            testcase_len: Deserialize::from_value(v.field("testcase_len")?)?,
            use_checkpoints: Deserialize::from_value(v.field("use_checkpoints")?)?,
            use_solver: Deserialize::from_value(v.field("use_solver")?)?,
            solver_budget: Deserialize::from_value(v.field("solver_budget")?)?,
            solve_wall_ms: Deserialize::from_value(v.field("solve_wall_ms")?)?,
            escalation_cap: Deserialize::from_value(v.field("escalation_cap")?)?,
            sample_every: Deserialize::from_value(v.field("sample_every")?)?,
            solver_introspection: match v.field("solver_introspection") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => defaults.solver_introspection,
            },
            incremental_solving: match v.field("incremental_solving") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => defaults.incremental_solving,
            },
            solver_cache_budget: match v.field("solver_cache_budget") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => defaults.solver_cache_budget,
            },
            affinity_ordering: match v.field("affinity_ordering") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => defaults.affinity_ordering,
            },
        })
    }
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            interval: 300,
            threshold: 3,
            checkpoint_fanout: 3,
            max_vectors: 100_000,
            seed: 0xC0FFEE,
            reset_cycles: 2,
            solve_depth: 8,
            targets_per_round: 8,
            snapshot_mem_budget: default_snapshot_mem_budget(),
            use_ancestor_reentry: true,
            testcase_len: 32,
            use_checkpoints: true,
            use_solver: true,
            solver_budget: None,
            solve_wall_ms: None,
            escalation_cap: 3,
            sample_every: None,
            solver_introspection: false,
            incremental_solving: false,
            solver_cache_budget: default_solver_cache_budget(),
            affinity_ordering: false,
        }
    }
}

impl FuzzConfig {
    /// Starts a validating builder seeded with the paper defaults.
    pub fn builder() -> FuzzConfigBuilder {
        FuzzConfigBuilder {
            config: FuzzConfig::default(),
        }
    }

    /// Checks the configuration for internal consistency — the same
    /// checks [`FuzzConfigBuilder::build`] runs, usable on configs
    /// assembled by hand (e.g. deserialized from disk).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.interval == 0 {
            return Err(ConfigError::ZeroInterval);
        }
        if self.max_vectors == 0 {
            return Err(ConfigError::ZeroMaxVectors);
        }
        if !self.use_solver && (self.solver_budget.is_some() || self.solve_wall_ms.is_some()) {
            return Err(ConfigError::SolverBudgetWithoutSolver);
        }
        if self.use_solver && self.solve_depth == 0 {
            return Err(ConfigError::ZeroSolveDepth);
        }
        if self.solver_budget == Some(0) || self.solve_wall_ms == Some(0) {
            return Err(ConfigError::ZeroSolverBudget);
        }
        if self.sample_every == Some(0) {
            return Err(ConfigError::ZeroSampleEvery);
        }
        if self.snapshot_mem_budget < 1024 {
            return Err(ConfigError::TinySnapshotBudget);
        }
        if self.solver_cache_budget < 1024 {
            return Err(ConfigError::TinySolverCacheBudget);
        }
        if self.affinity_ordering && !self.solver_introspection {
            return Err(ConfigError::AffinityWithoutIntrospection);
        }
        Ok(())
    }
}

/// An inconsistent [`FuzzConfig`], rejected by
/// [`FuzzConfig::validate`] / [`FuzzConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `interval` is zero — the campaign would never scan coverage.
    ZeroInterval,
    /// `max_vectors` is zero — the campaign would do nothing.
    ZeroMaxVectors,
    /// A solver budget was set while `use_solver` is off: the budget
    /// could never apply, so the intent is contradictory.
    SolverBudgetWithoutSolver,
    /// `use_solver` is on but `solve_depth` is zero — every query
    /// would be vacuously unreachable.
    ZeroSolveDepth,
    /// A solver budget of zero: every solve would exhaust immediately;
    /// use `use_solver: false` to disable guidance instead.
    ZeroSolverBudget,
    /// `sample_every` set to zero: the recorder would sample every
    /// vector boundary ambiguously; leave it `None` to disable.
    ZeroSampleEvery,
    /// `snapshot_mem_budget` below 1 KiB (including zero): too small
    /// to hold even one page, so every fork would immediately evict.
    TinySnapshotBudget,
    /// `solver_cache_budget` below 1 KiB (including zero): too small
    /// to hold even one warm frame, so every solve would immediately
    /// evict; set `incremental_solving: false` to disable reuse.
    TinySolverCacheBudget,
    /// `affinity_ordering` without `solver_introspection`: the
    /// structural sketches the ordering keys on are only collected
    /// when introspection is enabled.
    AffinityWithoutIntrospection,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroInterval => write!(f, "interval must be at least 1 cycle"),
            ConfigError::ZeroMaxVectors => write!(f, "max_vectors must be at least 1"),
            ConfigError::SolverBudgetWithoutSolver => write!(
                f,
                "solver budget set while use_solver is false; drop the budget or enable the solver"
            ),
            ConfigError::ZeroSolveDepth => {
                write!(f, "solve_depth must be at least 1 when use_solver is true")
            }
            ConfigError::ZeroSolverBudget => write!(
                f,
                "solver budget must be nonzero; set use_solver: false to disable guidance"
            ),
            ConfigError::ZeroSampleEvery => write!(
                f,
                "sample_every must be at least 1 vector; leave it unset to disable the recorder"
            ),
            ConfigError::TinySnapshotBudget => write!(
                f,
                "snapshot_mem_budget must be at least 1024 bytes (room for one small snapshot)"
            ),
            ConfigError::TinySolverCacheBudget => write!(
                f,
                "solver_cache_budget must be at least 1024 bytes (room for one warm frame); \
                 set incremental_solving: false to disable reuse"
            ),
            ConfigError::AffinityWithoutIntrospection => write!(
                f,
                "affinity_ordering requires solver_introspection (the ordering keys on the \
                 structural sketches introspection collects)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`FuzzConfig`]:
/// `FuzzConfig::builder().threshold(2).solver_budget(10_000).build()?`.
///
/// Every setter mirrors the field of the same name;
/// [`build`](Self::build) rejects inconsistent combinations with a
/// [`ConfigError`] instead of letting them reach the campaign loop.
#[derive(Debug, Clone)]
pub struct FuzzConfigBuilder {
    config: FuzzConfig,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        #[must_use]
        pub fn $name(mut self, v: $ty) -> Self {
            self.config.$name = v;
            self
        }
    };
}

impl FuzzConfigBuilder {
    setter!(
        /// Clock cycles per interval (coverage scan period).
        interval: u32
    );
    setter!(
        /// Stagnation threshold before symbolic guidance kicks in.
        threshold: u32
    );
    setter!(
        /// Checkpoint fanout threshold (§4.5).
        checkpoint_fanout: usize
    );
    setter!(
        /// Total input-vector budget.
        max_vectors: u64
    );
    setter!(
        /// RNG seed.
        seed: u64
    );
    setter!(
        /// Reset hold cycles.
        reset_cycles: u32
    );
    setter!(
        /// Maximum symbolic unroll depth.
        solve_depth: u32
    );
    setter!(
        /// Distinct targets tried per guidance round.
        targets_per_round: usize
    );
    setter!(
        /// Byte budget for the copy-on-write snapshot store.
        snapshot_mem_budget: u64
    );
    setter!(
        /// Enable nearest-ancestor snapshot re-entry (A/B control).
        use_ancestor_reentry: bool
    );
    setter!(
        /// Baseline testcase length in cycles.
        testcase_len: usize
    );
    setter!(
        /// Enable checkpoint rollback.
        use_checkpoints: bool
    );
    setter!(
        /// Enable SMT-guided mutation.
        use_solver: bool
    );
    setter!(
        /// Budget-escalation cap (levels of doubling).
        escalation_cap: u32
    );

    /// Caps each symbolic solve at `conflicts` CDCL conflicts.
    #[must_use]
    pub fn solver_budget(mut self, conflicts: u64) -> Self {
        self.config.solver_budget = Some(conflicts);
        self
    }

    /// Caps each symbolic solve at `ms` wall-clock milliseconds
    /// (non-deterministic; operator-facing runs only).
    #[must_use]
    pub fn solve_wall_ms(mut self, ms: u64) -> Self {
        self.config.solve_wall_ms = Some(ms);
        self
    }

    /// Turns on the flight recorder: one metrics sample every `n`
    /// input vectors, plus the per-cone and per-goal profilers.
    #[must_use]
    pub fn sample_every(mut self, n: u64) -> Self {
        self.config.sample_every = Some(n);
        self
    }

    setter!(
        /// Enable per-goal solver introspection (CDCL analytics, blame
        /// sets, affinity sketches).
        solver_introspection: bool
    );
    setter!(
        /// Keep warm solver sessions across goals sharing an unrolled
        /// frame (assumption-based incremental solving + bitblast
        /// cache).
        incremental_solving: bool
    );
    setter!(
        /// Byte budget for the warm-session bitblast cache (LRU
        /// eviction above it).
        solver_cache_budget: u64
    );
    setter!(
        /// Reorder guidance targets by structural-sketch affinity
        /// (requires `solver_introspection`).
        affinity_ordering: bool
    );

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<FuzzConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = FuzzConfig::default();
        assert_eq!(c.interval, 300);
        assert_eq!(c.threshold, 3);
        assert_eq!(c.checkpoint_fanout, 3);
        assert_eq!(c.snapshot_mem_budget, 64 * 1024 * 1024);
        assert!(c.use_ancestor_reentry);
    }

    #[test]
    fn old_configs_without_budget_fields_still_deserialize() {
        // A config serialized before the snapshot-tree release has no
        // snapshot_mem_budget / use_ancestor_reentry keys; the manual
        // Deserialize must fill in the defaults.
        let v = Serialize::to_value(&FuzzConfig::default());
        let serde::Value::Object(fields) = v else {
            panic!("config serializes to an object")
        };
        let stripped: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(k, _)| {
                k != "snapshot_mem_budget"
                    && k != "use_ancestor_reentry"
                    && k != "solver_introspection"
                    && k != "incremental_solving"
                    && k != "solver_cache_budget"
                    && k != "affinity_ordering"
            })
            .collect();
        let back = FuzzConfig::from_value(&serde::Value::Object(stripped)).unwrap();
        assert_eq!(back.snapshot_mem_budget, 64 * 1024 * 1024);
        assert!(back.use_ancestor_reentry);
        assert!(!back.solver_introspection);
        assert!(!back.incremental_solving);
        assert_eq!(back.solver_cache_budget, 16 * 1024 * 1024);
        assert!(!back.affinity_ordering);
    }

    #[test]
    fn configs_with_retired_keys_still_load() {
        // snapshot_cap was removed with the deprecated count-bound
        // shims, portfolio with budget-ladder racing, settle_policy
        // with the runtime-selectable settle engines; configs
        // serialized while they existed carry the keys and must still
        // deserialize (the fields are simply ignored).
        for (key, value) in [
            ("snapshot_cap", serde::Value::Num(256.0)),
            ("portfolio", serde::Value::Num(2.0)),
            ("settle_policy", serde::Value::Str("Compiled".to_string())),
        ] {
            let v = Serialize::to_value(&FuzzConfig::default());
            let serde::Value::Object(mut fields) = v else {
                panic!("config serializes to an object")
            };
            fields.push((key.to_string(), value));
            let back = FuzzConfig::from_value(&serde::Value::Object(fields)).unwrap();
            assert_eq!(back, FuzzConfig::default(), "legacy key {key}");
        }
    }

    #[test]
    fn strategy_names_unique() {
        let names: std::collections::HashSet<&str> =
            Strategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn config_serializes() {
        let c = FuzzConfig::default();
        let j = serde_json::to_string(&c).unwrap();
        let back: FuzzConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn builder_produces_valid_configs() {
        let c = FuzzConfig::builder()
            .threshold(2)
            .solver_budget(10_000)
            .escalation_cap(2)
            .build()
            .unwrap();
        assert_eq!(c.threshold, 2);
        assert_eq!(c.solver_budget, Some(10_000));
        assert_eq!(c.escalation_cap, 2);
        // Defaults pass validation as-is.
        assert_eq!(
            FuzzConfig::builder().build().unwrap(),
            FuzzConfig::default()
        );
    }

    #[test]
    fn builder_rejects_inconsistent_settings() {
        let err = FuzzConfig::builder()
            .use_solver(false)
            .solver_budget(100)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::SolverBudgetWithoutSolver);
        assert_eq!(
            FuzzConfig::builder()
                .use_solver(false)
                .solve_wall_ms(5)
                .build()
                .unwrap_err(),
            ConfigError::SolverBudgetWithoutSolver
        );
        assert_eq!(
            FuzzConfig::builder().interval(0).build().unwrap_err(),
            ConfigError::ZeroInterval
        );
        assert_eq!(
            FuzzConfig::builder().max_vectors(0).build().unwrap_err(),
            ConfigError::ZeroMaxVectors
        );
        assert_eq!(
            FuzzConfig::builder().solve_depth(0).build().unwrap_err(),
            ConfigError::ZeroSolveDepth
        );
        assert_eq!(
            FuzzConfig::builder().solver_budget(0).build().unwrap_err(),
            ConfigError::ZeroSolverBudget
        );
        assert_eq!(
            FuzzConfig::builder().sample_every(0).build().unwrap_err(),
            ConfigError::ZeroSampleEvery
        );
        assert_eq!(
            FuzzConfig::builder()
                .snapshot_mem_budget(0)
                .build()
                .unwrap_err(),
            ConfigError::TinySnapshotBudget
        );
        assert_eq!(
            FuzzConfig::builder()
                .snapshot_mem_budget(1023)
                .build()
                .unwrap_err(),
            ConfigError::TinySnapshotBudget
        );
        assert!(FuzzConfig::builder()
            .snapshot_mem_budget(1024)
            .build()
            .is_ok());
        assert_eq!(
            FuzzConfig::builder()
                .solver_cache_budget(1023)
                .build()
                .unwrap_err(),
            ConfigError::TinySolverCacheBudget
        );
        assert!(FuzzConfig::builder()
            .solver_cache_budget(1024)
            .build()
            .is_ok());
        assert_eq!(
            FuzzConfig::builder()
                .affinity_ordering(true)
                .build()
                .unwrap_err(),
            ConfigError::AffinityWithoutIntrospection
        );
        assert!(FuzzConfig::builder()
            .affinity_ordering(true)
            .solver_introspection(true)
            .build()
            .is_ok());
        // Every arm renders an informative message.
        for e in [
            ConfigError::ZeroInterval,
            ConfigError::ZeroMaxVectors,
            ConfigError::SolverBudgetWithoutSolver,
            ConfigError::ZeroSolveDepth,
            ConfigError::ZeroSolverBudget,
            ConfigError::ZeroSampleEvery,
            ConfigError::TinySnapshotBudget,
            ConfigError::TinySolverCacheBudget,
            ConfigError::AffinityWithoutIntrospection,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
