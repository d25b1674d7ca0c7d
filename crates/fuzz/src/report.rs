//! Campaign results, bug records and property specifications.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use symbfuzz_sim::VmProfile;
use symbfuzz_symexec::{sketch_jaccard_milli, GoalScope, SolveProfiler, SolverCacheStats};
use symbfuzz_telemetry::{FlightSample, MetricsSnapshot, PhaseStat};

/// A security property plus its *oracle visibility*: which detection
/// models can observe a violation of it.
///
/// SymbFuzz binds SVA assertions directly into the RTL, so it sees
/// every class. The baselines use golden-reference-model (GRM)
/// differential testing (§5.2, "Observation"): a violation is only
/// visible to them when it perturbs architecturally visible state, and
/// HWFP's Verilator-based two-state simulation additionally cannot see
/// X-state violations (§3). These flags encode, per property, the
/// paper's per-bug reasoning for Table 2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropertySpec {
    /// Property name (doubles as the bug identifier).
    pub name: String,
    /// Property source text (the crate `symbfuzz-props` language).
    pub text: String,
    /// Visible to a mux-coverage + differential oracle (RFuzz).
    pub rfuzz_visible: bool,
    /// Visible to a register-coverage + differential oracle (DifuzzRTL).
    pub difuzz_visible: bool,
    /// Visible to a two-state software-fuzzer oracle (HWFP).
    pub hwfp_visible: bool,
}

impl PropertySpec {
    /// A property only an in-RTL assertion can see (all baselines
    /// blind) — e.g. key-share leakage that matches the golden model.
    pub fn assertion_only(name: &str, text: &str) -> PropertySpec {
        PropertySpec {
            name: name.into(),
            text: text.into(),
            rfuzz_visible: false,
            difuzz_visible: false,
            hwfp_visible: false,
        }
    }

    /// A property whose violation perturbs architectural state, visible
    /// to every differential oracle.
    pub fn arch_visible(name: &str, text: &str) -> PropertySpec {
        PropertySpec {
            name: name.into(),
            text: text.into(),
            rfuzz_visible: true,
            difuzz_visible: true,
            hwfp_visible: true,
        }
    }

    /// Sets per-oracle visibility explicitly.
    pub fn with_visibility(
        name: &str,
        text: &str,
        rfuzz: bool,
        difuzz: bool,
        hwfp: bool,
    ) -> PropertySpec {
        PropertySpec {
            name: name.into(),
            text: text.into(),
            rfuzz_visible: rfuzz,
            difuzz_visible: difuzz,
            hwfp_visible: hwfp,
        }
    }
}

/// One detected bug (Algorithm 1 lines 23–25: property, timestamp, and
/// the input-vector count at detection — Table 1's last column), plus
/// the provenance of the detecting input word so a report can explain
/// which mechanism earned the bug.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BugRecord {
    /// Violated property name.
    pub property: String,
    /// Simulation cycle of the first violation.
    pub cycle: u64,
    /// Input vectors generated before detection.
    pub vectors: u64,
    /// CFG node occupied at detection (dense id), if known.
    pub node: Option<u64>,
    /// Mechanism that generated the detecting input word
    /// ([`symbfuzz_telemetry::Mechanism::name`]).
    pub mechanism: String,
    /// Goal id of the solve attempt (solver-guided detection only);
    /// indexes [`CovMap::goals`].
    pub goal: Option<u64>,
    /// Checkpoint node active at detection, if any.
    pub checkpoint: Option<u64>,
}

/// Version stamp of the [`CovMap`] artifact schema.
pub const COVMAP_VERSION: u32 = 1;

/// Serialized [`symbfuzz_cfgx::Provenance`]: the attribution of one
/// covered node or edge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Input vectors consumed when the point was covered.
    pub vector: u64,
    /// Mechanism name ([`symbfuzz_telemetry::Mechanism::name`]):
    /// `random`, `solver` or `replay`.
    pub mechanism: String,
    /// Goal id of the solve attempt (solver-guided only); indexes
    /// [`CovMap::goals`].
    pub goal: Option<u64>,
    /// Checkpoint node active at the time, if any.
    pub checkpoint: Option<u64>,
}

/// One covered CFG node in the [`CovMap`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCov {
    /// Dense node id (discovery order).
    pub id: u64,
    /// Cycle at which the node was first reached.
    pub first_cycle: u64,
    /// Attribution of the first visit.
    pub provenance: ProvenanceRecord,
}

/// One covered CFG edge in the [`CovMap`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeCov {
    /// Dense edge id (discovery order).
    pub id: u64,
    /// Source node id.
    pub src: u64,
    /// Destination node id.
    pub dst: u64,
    /// Cycle at which the edge was first taken.
    pub cycle: u64,
    /// Attribution of the first crossing.
    pub provenance: ProvenanceRecord,
}

/// One symbolic solve attempt, in attempt order — the goal ids in
/// [`ProvenanceRecord`] and [`BugRecord`] index this list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoalCov {
    /// Goal id (position in the attempt order).
    pub id: u64,
    /// Target control-register name.
    pub register: String,
    /// Target register value.
    pub value: u64,
    /// Rollback node the solve ran from (`None` = reset state).
    pub checkpoint: Option<u64>,
    /// Outcome, as a [`symbfuzz_telemetry::SolveStatus`] serial.
    pub status: String,
    /// Input vectors consumed when the attempt ran.
    pub vector: u64,
}

/// One uncovered-frontier row: a control-register value never
/// observed — an uncovered node adjacent to the covered region, i.e.
/// the edge into it is uncovered — with the last blocking solve
/// status.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontierRow {
    /// Control-register name.
    pub register: String,
    /// The unobserved value.
    pub value: u64,
    /// Solve attempts that targeted this value.
    pub attempts: u64,
    /// Status of the last attempt ([`symbfuzz_telemetry::SolveStatus`]
    /// serial), or `"unattempted"`.
    pub last_status: String,
}

/// The per-campaign coverage-provenance artifact (versioned JSON):
/// every covered node and edge with its attribution, the symbolic goal
/// log, and the uncovered frontier. Embedded in [`CampaignResult`] and
/// persisted standalone by the `covreport` bench bin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CovMap {
    /// Schema version ([`COVMAP_VERSION`]).
    pub version: u32,
    /// Strategy name.
    pub fuzzer: String,
    /// Design name.
    pub design: String,
    /// Covered nodes, in discovery order.
    pub nodes: Vec<NodeCov>,
    /// Covered edges, in discovery order.
    pub edges: Vec<EdgeCov>,
    /// Symbolic solve attempts, in attempt order.
    pub goals: Vec<GoalCov>,
    /// Uncovered frontier, in control-register tuple order.
    pub frontier: Vec<FrontierRow>,
}

impl CovMap {
    /// An empty covmap for the given campaign identity.
    pub fn empty(fuzzer: &str, design: &str) -> CovMap {
        CovMap {
            version: COVMAP_VERSION,
            fuzzer: fuzzer.into(),
            design: design.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            goals: Vec::new(),
            frontier: Vec::new(),
        }
    }

    /// Coverage-point count per mechanism name, in
    /// [`symbfuzz_telemetry::Mechanism::ALL`] order: `(name, nodes,
    /// edges)`.
    pub fn mechanism_counts(&self) -> Vec<(String, u64, u64)> {
        symbfuzz_telemetry::Mechanism::ALL
            .iter()
            .map(|m| {
                let name = m.name();
                let n = self
                    .nodes
                    .iter()
                    .filter(|x| x.provenance.mechanism == name)
                    .count() as u64;
                let e = self
                    .edges
                    .iter()
                    .filter(|x| x.provenance.mechanism == name)
                    .count() as u64;
                (name.to_string(), n, e)
            })
            .collect()
    }

    /// Walks the provenance chain backwards from a node: the node's
    /// own record, then the record of the checkpoint it was earned
    /// from, and so on until a record without a checkpoint. Cycles are
    /// guarded; the chain is capped at the node count.
    pub fn provenance_chain(&self, node: u64) -> Vec<&NodeCov> {
        let mut chain = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            if !seen.insert(id) || chain.len() > self.nodes.len() {
                break;
            }
            let Some(rec) = self.nodes.iter().find(|n| n.id == id) else {
                break;
            };
            chain.push(rec);
            cur = rec.provenance.checkpoint;
        }
        chain
    }
}

/// One point of the coverage-vs-vectors curve (Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageSample {
    /// Input vectors generated so far.
    pub vectors: u64,
    /// Coverage points (nodes + edges) at that time.
    pub coverage: u64,
}

/// Work and memory accounting for the §5.2 resource comparison.
///
/// `Deserialize` is hand-written so reports serialized before the
/// snapshot-tree release (no page/eviction fields) still load, taking
/// zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ResourceStats {
    /// Clock cycles simulated.
    pub cycles: u64,
    /// SMT solver invocations.
    pub solver_calls: u64,
    /// Snapshots held at peak.
    pub peak_snapshots: usize,
    /// Peak state memory in bytes: the live simulator state plus the
    /// snapshot store's *unique* page bytes at its high-water mark
    /// (copy-on-write sharing counted once), plus the corpus.
    pub peak_state_bytes: u64,
    /// Checkpoint rollbacks performed.
    pub rollbacks: u64,
    /// Full resets performed.
    pub full_resets: u64,
    /// Pages physically copied into the snapshot store at fork time.
    pub snapshot_pages_copied: u64,
    /// Pages shared with a tree parent instead of copied.
    pub snapshot_pages_shared: u64,
    /// Snapshots evicted to stay inside `snapshot_mem_budget`.
    pub snapshot_evictions: u64,
    /// Unique snapshot-store bytes at the high-water mark.
    pub peak_snapshot_bytes: u64,
}

impl Deserialize for ResourceStats {
    fn from_value(v: &serde::Value) -> Result<ResourceStats, serde::DeError> {
        let opt = |name: &str| -> Result<u64, serde::DeError> {
            match v.field(name) {
                Ok(f) => Deserialize::from_value(f),
                Err(_) => Ok(0),
            }
        };
        Ok(ResourceStats {
            cycles: Deserialize::from_value(v.field("cycles")?)?,
            solver_calls: Deserialize::from_value(v.field("solver_calls")?)?,
            peak_snapshots: Deserialize::from_value(v.field("peak_snapshots")?)?,
            peak_state_bytes: Deserialize::from_value(v.field("peak_state_bytes")?)?,
            rollbacks: Deserialize::from_value(v.field("rollbacks")?)?,
            full_resets: Deserialize::from_value(v.field("full_resets")?)?,
            snapshot_pages_copied: opt("snapshot_pages_copied")?,
            snapshot_pages_shared: opt("snapshot_pages_shared")?,
            snapshot_evictions: opt("snapshot_evictions")?,
            peak_snapshot_bytes: opt("peak_snapshot_bytes")?,
        })
    }
}

/// One phase's timing row inside a [`TelemetryBlock`] (serialisable
/// mirror of [`symbfuzz_telemetry::PhaseStat`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBlock {
    /// Phase name ([`symbfuzz_telemetry::Phase::name`]).
    pub phase: String,
    /// Completed spans.
    pub count: u64,
    /// Accumulated self-time (children excluded), clock units.
    pub self_micros: u64,
    /// log₄ inclusive-duration histogram.
    pub buckets: Vec<u64>,
}

/// The campaign's telemetry metrics (serialisable mirror of
/// [`symbfuzz_telemetry::MetricsSnapshot`]). With the default
/// deterministic clock this block is a pure function of the campaign
/// seed, so merged reports stay byte-identical at any `--jobs N`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TelemetryBlock {
    /// Monotone work counters, in schema order.
    pub counters: Vec<(String, u64)>,
    /// High-water-mark gauges, in schema order.
    pub gauges: Vec<(String, u64)>,
    /// Event counts per kind, in schema order.
    pub events: Vec<(String, u64)>,
    /// Per-phase timing rows, in schema order.
    pub phases: Vec<PhaseBlock>,
}

impl From<MetricsSnapshot> for TelemetryBlock {
    fn from(s: MetricsSnapshot) -> TelemetryBlock {
        TelemetryBlock {
            counters: s.counters,
            gauges: s.gauges,
            events: s.events,
            phases: s
                .phases
                .into_iter()
                .map(|p| PhaseBlock {
                    phase: p.phase,
                    count: p.count,
                    self_micros: p.self_micros,
                    buckets: p.buckets,
                })
                .collect(),
        }
    }
}

impl TelemetryBlock {
    /// Converts back to the telemetry-layer snapshot (for merging).
    pub fn to_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            events: self.events.clone(),
            phases: self
                .phases
                .iter()
                .map(|p| PhaseStat {
                    phase: p.phase.clone(),
                    count: p.count,
                    self_micros: p.self_micros,
                    buckets: p.buckets.clone(),
                })
                .collect(),
        }
    }
}

/// One flight-recorder sample (serialisable mirror of
/// [`symbfuzz_telemetry::FlightSample`]). Vector fields are positional
/// in the fixed telemetry schema orders; see the telemetry crate for
/// the delta-compression contract.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlightRow {
    /// Sample interval index (`vectors / sample_every`).
    pub interval: u64,
    /// Clock reading at sample time.
    pub t: u64,
    /// Task label of the sampled collector.
    pub task: u64,
    /// Input vectors consumed.
    pub vectors: u64,
    /// Coverage points reached.
    pub coverage: u64,
    /// CFG nodes covered.
    pub nodes: u64,
    /// CFG edges covered.
    pub edges: u64,
    /// Consecutive coverage-flat intervals.
    pub stagnant: u64,
    /// Counter deltas since the previous sample.
    pub d_counters: Vec<u64>,
    /// Absolute gauge levels.
    pub gauges: Vec<u64>,
    /// Event-count deltas since the previous sample.
    pub d_events: Vec<u64>,
    /// Phase self-time deltas since the previous sample.
    pub d_phase_micros: Vec<u64>,
}

impl From<&FlightSample> for FlightRow {
    fn from(s: &FlightSample) -> FlightRow {
        FlightRow {
            interval: s.interval,
            t: s.t,
            task: s.task,
            vectors: s.vectors,
            coverage: s.coverage,
            nodes: s.nodes,
            edges: s.edges,
            stagnant: s.stagnant,
            d_counters: s.d_counters.clone(),
            gauges: s.gauges.clone(),
            d_events: s.d_events.clone(),
            d_phase_micros: s.d_phase_micros.clone(),
        }
    }
}

impl FlightRow {
    /// Converts back to the telemetry-layer sample (for merging and
    /// canonical [`symbfuzz_telemetry::flight_line`] rendering).
    pub fn to_sample(&self) -> FlightSample {
        FlightSample {
            interval: self.interval,
            t: self.t,
            task: self.task,
            vectors: self.vectors,
            coverage: self.coverage,
            nodes: self.nodes,
            edges: self.edges,
            stagnant: self.stagnant,
            d_counters: self.d_counters.clone(),
            gauges: self.gauges.clone(),
            d_events: self.d_events.clone(),
            d_phase_micros: self.d_phase_micros.clone(),
        }
    }
}

/// One hot-cone row of a [`VmProfileBlock`] (serialisable mirror of
/// [`symbfuzz_sim::ConeProfile`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConeRow {
    /// Process index in the design.
    pub proc_index: u64,
    /// Netlist label (first written signal of the process).
    pub label: String,
    /// Total dispatches of this cone.
    pub execs: u64,
    /// Dispatches through the word-level bytecode fast path.
    pub fast: u64,
    /// Interpreter escapes due to live X/Z in the input cone.
    pub escaped_x: u64,
    /// Interpreter escapes because the lowering rejected the process.
    pub escaped_uncompiled: u64,
    /// Local-fixpoint executions (combinational cycle member).
    pub escaped_cyclic: u64,
    /// Deterministic work charged (bytecode ops / statement weight).
    pub op_units: u64,
}

impl ConeRow {
    /// Fast-path hit rate of this cone, `0.0 ..= 1.0`.
    pub fn hit_rate(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.fast as f64 / self.execs as f64
        }
    }
}

/// The VM profiler section of a campaign report (serialisable mirror
/// of [`symbfuzz_sim::VmProfile`]): top-K hot cones by deterministic
/// op units, plus design-wide totals and the dynamic bytecode
/// op-class histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VmProfileBlock {
    /// Hottest cones by op units, hottest first.
    pub rows: Vec<ConeRow>,
    /// `(class name, dynamic op count)` in schema order.
    pub op_classes: Vec<(String, u64)>,
    /// Total cone dispatches across the design.
    pub total_execs: u64,
    /// Dispatches settled on the fast path.
    pub total_fast: u64,
    /// Dispatches that escaped to the interpreter (any reason).
    pub total_escaped: u64,
}

impl From<VmProfile> for VmProfileBlock {
    fn from(p: VmProfile) -> VmProfileBlock {
        VmProfileBlock {
            rows: p
                .rows
                .into_iter()
                .map(|r| ConeRow {
                    proc_index: r.proc_index as u64,
                    label: r.label,
                    execs: r.execs,
                    fast: r.fast,
                    escaped_x: r.escaped_x,
                    escaped_uncompiled: r.escaped_uncompiled,
                    escaped_cyclic: r.escaped_cyclic,
                    op_units: r.op_units,
                })
                .collect(),
            op_classes: p.op_classes,
            total_execs: p.total_execs,
            total_fast: p.total_fast,
            total_escaped: p.total_escaped,
        }
    }
}

impl VmProfileBlock {
    /// Design-wide fast-path hit rate, `0.0 ..= 1.0`.
    pub fn hit_rate(&self) -> f64 {
        if self.total_execs == 0 {
            0.0
        } else {
            self.total_fast as f64 / self.total_execs as f64
        }
    }
}

/// One per-goal solver row (serialisable mirror of
/// [`symbfuzz_symexec::GoalProfile`]).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GoalRow {
    /// Target register name.
    pub register: String,
    /// Target value.
    pub value: u64,
    /// Reachability queries issued (cache hits excluded).
    pub attempts: u64,
    /// Queries that produced an input plan.
    pub sat: u64,
    /// Queries proven unreachable within their bound.
    pub unsat: u64,
    /// Queries that ran out of budget undecided.
    pub exhausted: u64,
    /// Times the negative cache short-circuited this goal.
    pub neg_cache_hits: u64,
    /// Cumulative CDCL conflicts across all attempts.
    pub conflicts: u64,
    /// Cumulative CDCL decisions across all attempts.
    pub decisions: u64,
    /// Cumulative unit propagations across all attempts.
    pub propagations: u64,
    /// Cumulative exact-depth solver calls.
    pub solver_calls: u64,
    /// Deepest unroll ever attempted for this goal.
    pub deepest_unroll: u32,
    /// Escalation level of each attempt, in attempt order.
    pub escalations: Vec<u32>,
}

/// The per-goal solver-profiler section of a campaign report: goals
/// sorted hardest-first by cumulative conflicts, plus campaign totals
/// quantifying negative-cache effectiveness.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SolverProfileBlock {
    /// Goal rows, hardest first (cumulative conflicts, then decisions).
    pub goals: Vec<GoalRow>,
    /// Total queries issued across all goals.
    pub total_attempts: u64,
    /// Total negative-cache short-circuits across all goals.
    pub total_neg_cache_hits: u64,
}

impl From<&SolveProfiler> for SolverProfileBlock {
    fn from(p: &SolveProfiler) -> SolverProfileBlock {
        SolverProfileBlock {
            goals: p
                .sorted_rows()
                .into_iter()
                .map(|r| GoalRow {
                    register: r.register.clone(),
                    value: r.value,
                    attempts: r.attempts,
                    sat: r.sat,
                    unsat: r.unsat,
                    exhausted: r.exhausted,
                    neg_cache_hits: r.neg_cache_hits,
                    conflicts: r.conflicts,
                    decisions: r.decisions,
                    propagations: r.propagations,
                    solver_calls: r.solver_calls,
                    deepest_unroll: r.deepest_unroll,
                    escalations: r.escalations.clone(),
                })
                .collect(),
            total_attempts: p.total_attempts(),
            total_neg_cache_hits: p.total_neg_cache_hits(),
        }
    }
}

/// Version stamp of the [`SolverScopeBlock`] artifact schema.
pub const SOLVERSCOPE_VERSION: u32 = 1;

/// Goal count included in the [`SolverScopeBlock::affinity`] matrix.
/// Rows beyond this still carry their sketches, so a merged block can
/// recompute the matrix over the merged goal order.
pub const AFFINITY_MAX_GOALS: usize = 32;

/// One goal's solver-introspection row: the merged CDCL analytics of
/// every reachability query that targeted this `(register, value)`
/// pair (serialisable mirror of [`symbfuzz_symexec::GoalScope`]).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScopeGoalRow {
    /// Target register name.
    pub register: String,
    /// Target value.
    pub value: u64,
    /// Introspected reachability queries folded into this row.
    pub attempts: u64,
    /// CDCL conflicts observed while tracing.
    pub conflicts: u64,
    /// Learned clauses recorded.
    pub learned: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Log₄ histogram of learned-clause sizes.
    pub learned_size_hist: Vec<u64>,
    /// Log₄ histogram of learned-clause LBD.
    pub lbd_hist: Vec<u64>,
    /// Log₄ histogram of per exact-depth-call conflict counts.
    pub call_conflict_hist: Vec<u64>,
    /// Conflict count at each restart (capped timeline).
    pub restart_timeline: Vec<u64>,
    /// Sum of decision levels at conflict sites.
    pub conflict_depth_sum: u64,
    /// Deepest decision level at a conflict site.
    pub conflict_depth_max: u64,
    /// Hottest netlist signals `(name, permille)`, hottest first.
    pub hot_signals: Vec<(String, u64)>,
    /// State registers blamed for `Unreachable`/`Exhausted` outcomes,
    /// in register-name order (empty for satisfiable goals).
    pub blame: Vec<String>,
    /// Bottom-K subterm digests of the deepest unrolled formula.
    pub sketch: Vec<u64>,
    /// Deepest unroll the sketch describes.
    pub depth: u64,
}

impl ScopeGoalRow {
    /// Mean decision level at conflict sites (0 when no conflicts).
    pub fn mean_conflict_depth(&self) -> u64 {
        self.conflict_depth_sum
            .checked_div(self.conflicts)
            .unwrap_or(0)
    }

    /// Folds another row for the same goal into this one: tallies and
    /// histograms sum, the restart timeline concatenates up to the
    /// trace cap, hot signals fold by max permille, sketches union
    /// (sorted, truncated back to the bottom-K), blame sets union in
    /// name order, and depth keeps the maximum. Mirrors
    /// [`GoalScope::merge`] so pool-merged blocks match what a single
    /// campaign would have collected.
    pub fn merge(&mut self, other: &ScopeGoalRow) {
        use symbfuzz_smt::RESTART_TIMELINE_CAP;
        use symbfuzz_symexec::{HOT_SIGNALS_K, SKETCH_K};
        self.attempts += other.attempts;
        self.conflicts += other.conflicts;
        self.learned += other.learned;
        self.restarts += other.restarts;
        for (a, b) in self
            .learned_size_hist
            .iter_mut()
            .zip(&other.learned_size_hist)
        {
            *a += b;
        }
        for (a, b) in self.lbd_hist.iter_mut().zip(&other.lbd_hist) {
            *a += b;
        }
        for (a, b) in self
            .call_conflict_hist
            .iter_mut()
            .zip(&other.call_conflict_hist)
        {
            *a += b;
        }
        for &t in &other.restart_timeline {
            if self.restart_timeline.len() >= RESTART_TIMELINE_CAP {
                break;
            }
            self.restart_timeline.push(t);
        }
        self.conflict_depth_sum += other.conflict_depth_sum;
        self.conflict_depth_max = self.conflict_depth_max.max(other.conflict_depth_max);
        for (name, permille) in &other.hot_signals {
            match self.hot_signals.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 = slot.1.max(*permille),
                None => self.hot_signals.push((name.clone(), *permille)),
            }
        }
        self.hot_signals
            .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.hot_signals.truncate(HOT_SIGNALS_K);
        for b in &other.blame {
            if !self.blame.contains(b) {
                self.blame.push(b.clone());
            }
        }
        self.blame.sort();
        self.sketch.extend_from_slice(&other.sketch);
        self.sketch.sort_unstable();
        self.sketch.dedup();
        self.sketch.truncate(SKETCH_K);
        self.depth = self.depth.max(other.depth);
    }

    fn from_scope(register: &str, value: u64, attempts: u64, s: &GoalScope) -> ScopeGoalRow {
        ScopeGoalRow {
            register: register.to_string(),
            value,
            attempts,
            conflicts: s.trace.conflicts,
            learned: s.trace.learned,
            restarts: s.trace.restarts,
            learned_size_hist: s.trace.learned_size_hist.to_vec(),
            lbd_hist: s.trace.lbd_hist.to_vec(),
            call_conflict_hist: s.call_conflict_hist.clone(),
            restart_timeline: s.trace.restart_timeline.clone(),
            conflict_depth_sum: s.trace.conflict_depth_sum,
            conflict_depth_max: s.trace.conflict_depth_max as u64,
            hot_signals: s.hot_signals.clone(),
            blame: s.blame.clone(),
            sketch: s.sketch.clone(),
            depth: s.depth as u64,
        }
    }
}

/// The solver-introspection section of a campaign report (versioned):
/// per-goal CDCL analytics rows in first-attempt order, plus the
/// cross-goal structural-affinity matrix their sketches induce.
///
/// Determinism contract: rows keep first-attempt order (the same order
/// at any `--jobs` count once pool-merged in task order), every field
/// is a pure function of the campaign seed, and the affinity matrix is
/// recomputed from the sketches after any merge — so merged blocks are
/// byte-identical across job counts.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SolverScopeBlock {
    /// Schema version ([`SOLVERSCOPE_VERSION`]).
    pub version: u32,
    /// Per-goal rows, first-attempt order.
    pub goals: Vec<ScopeGoalRow>,
    /// Pairwise sketch-Jaccard affinity in milli (0–1000) over the
    /// first [`AFFINITY_MAX_GOALS`] goals; `affinity[i][j]` compares
    /// `goals[i]` to `goals[j]`, diagonal pinned to 1000.
    pub affinity: Vec<Vec<u64>>,
    /// Mean affinity of consecutive equal-depth goal pairs, in milli
    /// (falls back to all consecutive pairs when no two neighbours
    /// share a depth).
    pub mean_adjacent_affinity_milli: u64,
}

impl SolverScopeBlock {
    /// Recomputes the affinity matrix and the adjacent-affinity mean
    /// from the rows' sketches. Call after any row merge so the matrix
    /// always describes the final goal order.
    pub fn recompute_affinity(&mut self) {
        let n = self.goals.len().min(AFFINITY_MAX_GOALS);
        self.affinity = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            1000
                        } else {
                            sketch_jaccard_milli(&self.goals[i].sketch, &self.goals[j].sketch)
                        }
                    })
                    .collect()
            })
            .collect();
        let pairs: Vec<u64> = self
            .goals
            .windows(2)
            .filter(|w| w[0].depth == w[1].depth)
            .map(|w| sketch_jaccard_milli(&w[0].sketch, &w[1].sketch))
            .collect();
        let pairs = if pairs.is_empty() {
            self.goals
                .windows(2)
                .map(|w| sketch_jaccard_milli(&w[0].sketch, &w[1].sketch))
                .collect()
        } else {
            pairs
        };
        self.mean_adjacent_affinity_milli = if pairs.is_empty() {
            0
        } else {
            pairs.iter().sum::<u64>() / pairs.len() as u64
        };
    }

    /// `(rows with a non-empty blame set, total rows)` — the raw
    /// counts behind the exhaustion-attribution rate. Blame sets are
    /// only extracted for failed (`Unreachable`/`Exhausted`) goals, so
    /// joining against the solver profile's status tallies gives the
    /// per-status rate.
    pub fn blame_counts(&self) -> (u64, u64) {
        let blamed = self.goals.iter().filter(|g| !g.blame.is_empty()).count() as u64;
        (blamed, self.goals.len() as u64)
    }
}

/// Accumulates per-goal [`GoalScope`] records during a campaign,
/// keyed by `(register, value)` in first-seen order — the same
/// ordering discipline as [`SolveProfiler`], which is what keeps
/// pool-merged reports byte-identical at any `--jobs` count.
#[derive(Debug, Default)]
pub struct ScopeCollector {
    rows: Vec<(String, u64, u64, GoalScope)>,
    index: HashMap<(String, u64), usize>,
}

impl ScopeCollector {
    /// An empty collector.
    pub fn new() -> ScopeCollector {
        ScopeCollector::default()
    }

    /// Folds one reachability query's scope into its goal row.
    pub fn note(&mut self, register: &str, value: u64, scope: &GoalScope) {
        let key = (register.to_string(), value);
        match self.index.get(&key) {
            Some(&i) => {
                self.rows[i].2 += 1;
                self.rows[i].3.merge(scope);
            }
            None => {
                self.index.insert(key, self.rows.len());
                self.rows
                    .push((register.to_string(), value, 1, scope.clone()));
            }
        }
    }

    /// Whether any query was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The merged structural sketch recorded for a goal, if the goal
    /// was ever solved with introspection on — the lookup behind
    /// affinity-ordered goal batching.
    pub fn sketch_of(&self, register: &str, value: u64) -> Option<&[u64]> {
        self.index
            .get(&(register.to_string(), value))
            .map(|&i| self.rows[i].3.sketch.as_slice())
    }
}

impl From<&ScopeCollector> for SolverScopeBlock {
    fn from(c: &ScopeCollector) -> SolverScopeBlock {
        let mut block = SolverScopeBlock {
            version: SOLVERSCOPE_VERSION,
            goals: c
                .rows
                .iter()
                .map(|(r, v, attempts, s)| ScopeGoalRow::from_scope(r, *v, *attempts, s))
                .collect(),
            affinity: Vec::new(),
            mean_adjacent_affinity_milli: 0,
        };
        block.recompute_affinity();
        block
    }
}

/// The incremental-solver cache section of a campaign report
/// (serialisable mirror of [`symbfuzz_symexec::SolverCacheStats`]):
/// frame-level bitblast reuse and warm-session goal reuse. Present
/// only when `incremental_solving` was on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SolverCacheBlock {
    /// Unrolled frames reused from a warm session.
    pub frame_hits: u64,
    /// Frames substituted and bitblasted fresh.
    pub frame_misses: u64,
    /// Sessions dropped by the byte-budget eviction sweep.
    pub evictions: u64,
    /// Exact-depth checks issued through the cache.
    pub goals: u64,
    /// Checks answered on a warm solver (learned clauses retained).
    pub reused_goals: u64,
    /// Session-reuse rate in permille (`reused_goals / goals`).
    pub reuse_milli: u64,
}

impl SolverCacheBlock {
    /// Frame-level cache hit rate in permille
    /// (`frame_hits / (frame_hits + frame_misses)`, 0 when idle).
    pub fn hit_rate_milli(&self) -> u64 {
        let total = self.frame_hits + self.frame_misses;
        (self.frame_hits * 1000).checked_div(total).unwrap_or(0)
    }
}

impl From<SolverCacheStats> for SolverCacheBlock {
    fn from(s: SolverCacheStats) -> SolverCacheBlock {
        SolverCacheBlock {
            frame_hits: s.frame_hits,
            frame_misses: s.frame_misses,
            evictions: s.evictions,
            goals: s.goals,
            reused_goals: s.reused_goals,
            reuse_milli: s.reuse_milli(),
        }
    }
}

/// The outcome of one fuzzing campaign.
///
/// `Deserialize` is hand-written so reports serialized before the
/// incremental-solver release (no `solver_cache` key) still load,
/// taking `None`, and reports from the budget-ladder racing era (a
/// `portfolio` key) load with the retired section ignored.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignResult {
    /// Strategy name.
    pub fuzzer: String,
    /// Design name.
    pub design: String,
    /// Input vectors consumed.
    pub vectors: u64,
    /// Final coverage points (nodes + edges).
    pub coverage_points: u64,
    /// Distinct CFG nodes covered.
    pub nodes: u64,
    /// Distinct CFG edges covered.
    pub edges: u64,
    /// Fraction of the Eqn.-3 node population covered.
    pub node_coverage_ratio: f64,
    /// Fraction of the ordered-pair edge population covered.
    pub edge_coverage_ratio: f64,
    /// Bugs detected, in detection order.
    pub bugs: Vec<BugRecord>,
    /// Coverage curve samples (one per interval).
    pub series: Vec<CoverageSample>,
    /// Resource accounting.
    pub resources: ResourceStats,
    /// Symbolic-episode outcomes tallied per
    /// [`SolveStatus`](symbfuzz_telemetry::SolveStatus) serial, in
    /// schema order (`sat`, `unsat`, `skipped`, `unknown:<reason>`…) —
    /// the same vocabulary JSONL traces use for `solve_result`.
    pub solve_outcomes: Vec<(String, u64)>,
    /// Telemetry metrics (counters, gauges, events, phase timings).
    pub telemetry: TelemetryBlock,
    /// The coverage-provenance artifact (versioned).
    pub covmap: CovMap,
    /// Flight-recorder samples (empty unless `sample_every` was set).
    pub flight: Vec<FlightRow>,
    /// Per-cone VM profile (present when the flight recorder enabled
    /// the profiler).
    pub vm_profile: Option<VmProfileBlock>,
    /// Per-goal solver profile (empty rows for solver-free campaigns).
    pub solver_profile: SolverProfileBlock,
    /// Solver-introspection section (present only when
    /// [`FuzzConfig::solver_introspection`](crate::FuzzConfig) was on
    /// and at least one reachability query ran).
    pub solver_scope: Option<SolverScopeBlock>,
    /// Incremental-solver cache section (present only when
    /// `incremental_solving` was on).
    pub solver_cache: Option<SolverCacheBlock>,
}

impl Deserialize for CampaignResult {
    fn from_value(v: &serde::Value) -> Result<CampaignResult, serde::DeError> {
        Ok(CampaignResult {
            fuzzer: Deserialize::from_value(v.field("fuzzer")?)?,
            design: Deserialize::from_value(v.field("design")?)?,
            vectors: Deserialize::from_value(v.field("vectors")?)?,
            coverage_points: Deserialize::from_value(v.field("coverage_points")?)?,
            nodes: Deserialize::from_value(v.field("nodes")?)?,
            edges: Deserialize::from_value(v.field("edges")?)?,
            node_coverage_ratio: Deserialize::from_value(v.field("node_coverage_ratio")?)?,
            edge_coverage_ratio: Deserialize::from_value(v.field("edge_coverage_ratio")?)?,
            bugs: Deserialize::from_value(v.field("bugs")?)?,
            series: Deserialize::from_value(v.field("series")?)?,
            resources: Deserialize::from_value(v.field("resources")?)?,
            solve_outcomes: Deserialize::from_value(v.field("solve_outcomes")?)?,
            telemetry: Deserialize::from_value(v.field("telemetry")?)?,
            covmap: Deserialize::from_value(v.field("covmap")?)?,
            flight: Deserialize::from_value(v.field("flight")?)?,
            vm_profile: Deserialize::from_value(v.field("vm_profile")?)?,
            solver_profile: Deserialize::from_value(v.field("solver_profile")?)?,
            solver_scope: Deserialize::from_value(v.field("solver_scope")?)?,
            solver_cache: match v.field("solver_cache") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => None,
            },
        })
    }
}

impl CampaignResult {
    /// Whether a bug with this property name was detected.
    pub fn detected(&self, property: &str) -> bool {
        self.bugs.iter().any(|b| b.property == property)
    }

    /// Input vectors needed to reach `coverage` points, if ever reached.
    pub fn vectors_to_reach(&self, coverage: u64) -> Option<u64> {
        self.series
            .iter()
            .find(|s| s.coverage >= coverage)
            .map(|s| s.vectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_constructors() {
        let a = PropertySpec::assertion_only("p", "x == 1'b0");
        assert!(!a.rfuzz_visible && !a.difuzz_visible && !a.hwfp_visible);
        let b = PropertySpec::arch_visible("p", "x == 1'b0");
        assert!(b.rfuzz_visible && b.difuzz_visible && b.hwfp_visible);
        let c = PropertySpec::with_visibility("p", "x", false, true, true);
        assert!(!c.rfuzz_visible && c.difuzz_visible && c.hwfp_visible);
    }

    #[test]
    fn vectors_to_reach_scans_series() {
        let r = CampaignResult {
            fuzzer: "x".into(),
            design: "d".into(),
            vectors: 100,
            coverage_points: 50,
            nodes: 20,
            edges: 30,
            node_coverage_ratio: 0.5,
            edge_coverage_ratio: 0.1,
            bugs: vec![],
            series: vec![
                CoverageSample {
                    vectors: 10,
                    coverage: 5,
                },
                CoverageSample {
                    vectors: 50,
                    coverage: 30,
                },
                CoverageSample {
                    vectors: 100,
                    coverage: 50,
                },
            ],
            resources: ResourceStats::default(),
            solve_outcomes: vec![],
            telemetry: TelemetryBlock::default(),
            covmap: CovMap::empty("x", "d"),
            flight: vec![],
            vm_profile: None,
            solver_profile: SolverProfileBlock::default(),
            solver_scope: None,
            solver_cache: None,
        };
        assert_eq!(r.vectors_to_reach(30), Some(50));
        assert_eq!(r.vectors_to_reach(51), None);
        assert!(!r.detected("p"));
        // Round-trips, and reports serialized before the
        // incremental-solver release (no solver_cache key) still load
        // with the section absent.
        let j = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<CampaignResult>(&j).unwrap(), r);
        let serde::Value::Object(fields) = Serialize::to_value(&r) else {
            panic!("report serializes to an object")
        };
        let stripped: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(k, _)| k != "solver_cache")
            .collect();
        let back = CampaignResult::from_value(&serde::Value::Object(stripped)).unwrap();
        assert_eq!(back, r);
        // Reports from the budget-ladder racing era carry a portfolio
        // block and an `unknown:aborted` tally: they still load, the
        // retired block ignored and the tally kept verbatim.
        let legacy = j
            .replace(
                "\"solve_outcomes\":[]",
                "\"solve_outcomes\":[[\"sat\",1],[\"unknown:aborted\",2]]",
            )
            .replace(
                "\"solver_cache\":null",
                "\"solver_cache\":null,\"portfolio\":{\"width\":2,\"races\":3,\"wins\":[1,2]}",
            );
        assert!(legacy.contains("\"portfolio\":{") && legacy.contains("unknown:aborted"));
        let back = serde_json::from_str::<CampaignResult>(&legacy).unwrap();
        assert_eq!(
            back.solve_outcomes,
            vec![("sat".to_string(), 1), ("unknown:aborted".to_string(), 2)]
        );
        assert_eq!(
            CampaignResult {
                solve_outcomes: vec![],
                ..back
            },
            r
        );
    }

    #[test]
    fn solver_cache_block_mirrors_stats_and_rates() {
        let stats = SolverCacheStats {
            frame_hits: 30,
            frame_misses: 10,
            evictions: 2,
            goals: 8,
            reused_goals: 6,
        };
        let block = SolverCacheBlock::from(stats);
        assert_eq!(block.frame_hits, 30);
        assert_eq!(block.reuse_milli, 750);
        assert_eq!(block.hit_rate_milli(), 750);
        assert_eq!(SolverCacheBlock::default().hit_rate_milli(), 0);
        let j = serde_json::to_string(&block).unwrap();
        assert_eq!(serde_json::from_str::<SolverCacheBlock>(&j).unwrap(), block);
    }

    #[test]
    fn scope_collector_exposes_goal_sketches() {
        let mut s = GoalScope::new();
        s.sketch = vec![1, 2, 3];
        let mut c = ScopeCollector::new();
        c.note("st", 7, &s);
        assert_eq!(c.sketch_of("st", 7), Some(&[1u64, 2, 3][..]));
        assert_eq!(c.sketch_of("st", 8), None);
        assert_eq!(c.sketch_of("other", 7), None);
    }

    #[test]
    fn flight_rows_mirror_telemetry_samples() {
        let s = FlightSample {
            interval: 3,
            t: 300,
            task: 1,
            vectors: 300,
            coverage: 12,
            nodes: 5,
            edges: 7,
            stagnant: 2,
            d_counters: vec![100, 4],
            gauges: vec![9],
            d_events: vec![2, 0],
            d_phase_micros: vec![60, 30],
        };
        let row = FlightRow::from(&s);
        assert_eq!(row.to_sample(), s);
        let j = serde_json::to_string(&row).unwrap();
        assert_eq!(serde_json::from_str::<FlightRow>(&j).unwrap(), row);
    }

    #[test]
    fn solver_profile_block_sorts_hardest_first() {
        use symbfuzz_symexec::{ReachOutcome, ReachStats};
        let mut p = SolveProfiler::new();
        let stats = |conflicts: u64| ReachStats {
            spent: symbfuzz_smt::BudgetSpent {
                conflicts,
                decisions: conflicts,
                propagations: conflicts,
            },
            solver_calls: 1,
            deepest_unroll: 2,
        };
        p.note_outcome("easy", 1, 0, &ReachOutcome::Unreachable, stats(1));
        p.note_outcome("hard", 2, 0, &ReachOutcome::Unreachable, stats(50));
        p.note_outcome("hard", 2, 1, &ReachOutcome::Reached(vec![]), stats(10));
        p.note_neg_cache_hit("easy", 1);
        let block = SolverProfileBlock::from(&p);
        assert_eq!(block.goals[0].register, "hard");
        assert_eq!(block.goals[0].escalations, vec![0, 1]);
        assert_eq!(block.goals[0].conflicts, 60);
        assert_eq!(block.total_attempts, 3);
        assert_eq!(block.total_neg_cache_hits, 1);
        let j = serde_json::to_string(&block).unwrap();
        assert_eq!(
            serde_json::from_str::<SolverProfileBlock>(&j).unwrap(),
            block
        );
    }

    #[test]
    fn scope_collector_folds_and_block_round_trips() {
        let mut a = GoalScope::new();
        a.sketch = (0..100).collect();
        a.depth = 2;
        a.blame = vec!["state".into()];
        a.hot_signals = vec![("k".into(), 1000)];
        let mut b = GoalScope::new();
        b.sketch = (50..150).collect();
        b.depth = 2;

        let mut c = ScopeCollector::new();
        assert!(c.is_empty());
        c.note("st", 7, &a);
        c.note("st", 9, &b);
        c.note("st", 7, &a); // re-attempt folds into the first row
        let block = SolverScopeBlock::from(&c);
        assert_eq!(block.version, SOLVERSCOPE_VERSION);
        assert_eq!(block.goals.len(), 2);
        assert_eq!(block.goals[0].register, "st");
        assert_eq!(block.goals[0].attempts, 2);
        assert_eq!(block.goals[0].blame, vec!["state".to_string()]);
        assert_eq!(block.affinity.len(), 2);
        assert_eq!(block.affinity[0][0], 1000);
        assert_eq!(block.affinity[0][1], block.affinity[1][0]);
        // Half-overlapping sketches at equal depth: mean adjacent
        // affinity reflects the shared structure.
        assert!(block.mean_adjacent_affinity_milli > 0);
        assert_eq!(block.blame_counts(), (1, 2));
        let j = serde_json::to_string(&block).unwrap();
        assert_eq!(serde_json::from_str::<SolverScopeBlock>(&j).unwrap(), block);
    }

    #[test]
    fn affinity_matrix_is_capped_and_recomputable() {
        let mut c = ScopeCollector::new();
        for i in 0..(AFFINITY_MAX_GOALS + 3) {
            let mut s = GoalScope::new();
            s.sketch = vec![i as u64];
            s.depth = 1;
            c.note("r", i as u64, &s);
        }
        let mut block = SolverScopeBlock::from(&c);
        assert_eq!(block.goals.len(), AFFINITY_MAX_GOALS + 3);
        assert_eq!(block.affinity.len(), AFFINITY_MAX_GOALS);
        // Reordering rows and recomputing keeps the matrix consistent
        // with the new order (the pool-merge contract).
        block.goals.reverse();
        block.recompute_affinity();
        assert_eq!(block.affinity.len(), AFFINITY_MAX_GOALS);
        assert_eq!(block.affinity[0][0], 1000);
    }

    #[test]
    fn report_round_trips_through_json() {
        let b = BugRecord {
            property: "leak".into(),
            cycle: 1234,
            vectors: 99,
            node: Some(7),
            mechanism: "solver".into(),
            goal: Some(2),
            checkpoint: Some(1),
        };
        let j = serde_json::to_string(&b).unwrap();
        assert_eq!(serde_json::from_str::<BugRecord>(&j).unwrap(), b);
    }

    fn prov(mechanism: &str, checkpoint: Option<u64>) -> ProvenanceRecord {
        ProvenanceRecord {
            vector: 1,
            mechanism: mechanism.into(),
            goal: None,
            checkpoint,
        }
    }

    #[test]
    fn covmap_round_trips_and_counts_mechanisms() {
        let mut m = CovMap::empty("SymbFuzz", "lock");
        m.nodes.push(NodeCov {
            id: 0,
            first_cycle: 2,
            provenance: prov("random", None),
        });
        m.nodes.push(NodeCov {
            id: 1,
            first_cycle: 9,
            provenance: prov("solver", Some(0)),
        });
        m.edges.push(EdgeCov {
            id: 0,
            src: 0,
            dst: 1,
            cycle: 9,
            provenance: prov("solver", Some(0)),
        });
        let j = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<CovMap>(&j).unwrap(), m);
        assert_eq!(m.version, COVMAP_VERSION);
        let counts = m.mechanism_counts();
        assert_eq!(counts[0], ("random".to_string(), 1, 0));
        assert_eq!(counts[1], ("solver".to_string(), 1, 1));
        assert_eq!(counts[2], ("replay".to_string(), 0, 0));
    }

    #[test]
    fn provenance_chain_walks_checkpoints_and_guards_cycles() {
        let mut m = CovMap::empty("SymbFuzz", "lock");
        m.nodes.push(NodeCov {
            id: 0,
            first_cycle: 0,
            provenance: prov("random", None),
        });
        m.nodes.push(NodeCov {
            id: 1,
            first_cycle: 5,
            provenance: prov("solver", Some(0)),
        });
        m.nodes.push(NodeCov {
            id: 2,
            first_cycle: 9,
            provenance: prov("solver", Some(1)),
        });
        let chain: Vec<u64> = m.provenance_chain(2).iter().map(|n| n.id).collect();
        assert_eq!(chain, vec![2, 1, 0]);
        // A malformed self-referential record terminates.
        m.nodes[0].provenance.checkpoint = Some(0);
        let chain: Vec<u64> = m.provenance_chain(2).iter().map(|n| n.id).collect();
        assert_eq!(chain, vec![2, 1, 0]);
        assert!(m.provenance_chain(42).is_empty());
    }
}
