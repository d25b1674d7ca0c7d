//! The experiment implementations.
//!
//! Every experiment takes a `jobs` argument and fans its independent
//! campaigns across a scoped-thread pool ([`crate::pool`]). Campaign
//! seeds are fixed per task and results are merged in item order, so
//! reports are byte-identical for any `jobs` value — the single
//! exception is Table 3's `latency_s` wall-clock column.

use crate::pool::run_pool;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use symbfuzz_core::{
    CampaignResult, CoverageSample, FuzzConfig, FuzzConfigBuilder, PropertySpec, SolverCacheBlock,
    SolverProfileBlock, SolverScopeBlock, Strategy, SymbFuzz,
};
use symbfuzz_designs::{bug_benchmarks, processor_benchmarks, Benchmark};
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::{classify_registers, Design, DesignStats, SignalId};
use symbfuzz_sim::{Reentry, Simulator};
use symbfuzz_smt::Budget;
use symbfuzz_symexec::SymbolicEngine;
use symbfuzz_telemetry::{Collector, SharedSink, SolveStatus};

/// The process-global trace writer, set once by `--trace-out`. All
/// pool tasks fan into it through [`SharedSink`] (whole lines under a
/// lock), attributable via each record's `task` field.
static TRACE: OnceLock<Arc<Mutex<BufWriter<File>>>> = OnceLock::new();

/// Opens (truncates) the JSONL trace file every subsequent campaign in
/// this process streams to. First call wins; later calls are no-ops.
///
/// # Errors
///
/// Propagates file-creation errors.
pub fn enable_tracing(path: &Path) -> io::Result<()> {
    let writer = Arc::new(Mutex::new(BufWriter::new(File::create(path)?)));
    let _ = TRACE.set(writer);
    Ok(())
}

/// Whether a `--trace-out` file is active.
pub fn tracing_enabled() -> bool {
    TRACE.get().is_some()
}

/// The process-global solver budget, set once by `--solver-budget` /
/// `--solve-wall-ms`. `(conflict ceiling, wall-clock ceiling in ms)`.
static SOLVER_BUDGET: OnceLock<(Option<u64>, Option<u64>)> = OnceLock::new();

/// Caps every symbolic solve of every subsequent campaign in this
/// process: `conflicts` CDCL conflicts and/or `wall_ms` milliseconds.
/// Exhausted solves degrade to random mutation instead of blocking the
/// campaign. First call wins; later calls are no-ops. Wall-clock
/// ceilings make reports non-deterministic — conflict ceilings do not.
pub fn set_solver_budget(conflicts: Option<u64>, wall_ms: Option<u64>) {
    let _ = SOLVER_BUDGET.set((conflicts, wall_ms));
}

/// The active global solver budget (both `None` when unset).
pub fn solver_budget() -> (Option<u64>, Option<u64>) {
    SOLVER_BUDGET.get().copied().unwrap_or((None, None))
}

/// The process-global snapshot-store byte budget, set once by
/// `--snapshot-budget`.
static SNAPSHOT_BUDGET: OnceLock<u64> = OnceLock::new();

/// Bounds the copy-on-write snapshot store of every subsequent
/// campaign in this process at `bytes` unique page bytes; beyond it
/// the oldest snapshots are evicted first. First call wins; later
/// calls are no-ops. Eviction order is a pure function of the campaign
/// seed, so reports stay byte-identical at any `--jobs`.
pub fn set_snapshot_budget(bytes: u64) {
    let _ = SNAPSHOT_BUDGET.set(bytes);
}

/// The active snapshot budget (`None` when unset — campaigns use the
/// [`FuzzConfig`] default).
pub fn snapshot_budget() -> Option<u64> {
    SNAPSHOT_BUDGET.get().copied()
}

/// The process-global solver-introspection switch, set once by
/// `--introspect`.
static INTROSPECTION: OnceLock<bool> = OnceLock::new();

/// Arms solver introspection for every subsequent campaign in this
/// process: each symbolic goal then carries CDCL analytics, a
/// structural sketch, and (for failed goals) a blame set, folded into
/// the report's `solver_scope` block. First call wins; later calls are
/// no-ops. Everything recorded is a pure function of the campaign
/// seed, so introspected reports stay byte-identical at any `--jobs`.
pub fn set_introspection(on: bool) {
    let _ = INTROSPECTION.set(on);
}

/// Whether solver introspection is armed (off when unset).
pub fn introspection() -> bool {
    INTROSPECTION.get().copied().unwrap_or(false)
}

/// The process-global incremental-solving switch, set once by
/// `--incremental`.
static INCREMENTAL: OnceLock<bool> = OnceLock::new();

/// Arms incremental solving for every subsequent campaign in this
/// process: goals sharing an unrolled frame reuse one warm solver via
/// assumption literals, and transition-relation bitblasts are cached
/// per frame. First call wins; later calls are no-ops. Session reuse
/// is a pure function of the campaign seed, so reports stay
/// byte-identical at any `--jobs`.
pub fn set_incremental(on: bool) {
    let _ = INCREMENTAL.set(on);
}

/// Whether incremental solving is armed (off when unset).
pub fn incremental() -> bool {
    INCREMENTAL.get().copied().unwrap_or(false)
}

/// The process-global affinity-ordering switch, set once by
/// `--affinity`.
static AFFINITY: OnceLock<bool> = OnceLock::new();

/// Orders each guidance round's goal batch by KMV-sketch affinity so
/// structurally similar goals hit a warm solver back to back. Implies
/// solver introspection (the ordering keys on the sketches it
/// collects). First call wins; later calls are no-ops.
pub fn set_affinity(on: bool) {
    let _ = AFFINITY.set(on);
}

/// Whether affinity-ordered goal batching is armed (off when unset).
pub fn affinity() -> bool {
    AFFINITY.get().copied().unwrap_or(false)
}

/// The process-global bitblast-cache byte budget, set once by
/// `--solver-cache-budget`.
static SOLVER_CACHE_BUDGET: OnceLock<u64> = OnceLock::new();

/// Bounds the warm-session bitblast cache of every subsequent
/// campaign at `bytes` estimated clause bytes; beyond it the
/// least-recently-used sessions are evicted. First call wins; later
/// calls are no-ops. Eviction order is a pure function of the
/// campaign seed, so reports stay byte-identical at any `--jobs`.
pub fn set_solver_cache_budget(bytes: u64) {
    let _ = SOLVER_CACHE_BUDGET.set(bytes);
}

/// The active bitblast-cache budget (`None` when unset — campaigns
/// use the [`FuzzConfig`] default).
pub fn solver_cache_budget() -> Option<u64> {
    SOLVER_CACHE_BUDGET.get().copied()
}

/// Applies the incremental/affinity/cache-budget globals to
/// a campaign builder — the shared tail of every experiment's config.
/// `--affinity` forces introspection on, which the builder requires.
fn apply_solver_knobs(mut b: FuzzConfigBuilder) -> FuzzConfigBuilder {
    if incremental() {
        b = b.incremental_solving(true);
    }
    if let Some(bytes) = solver_cache_budget() {
        b = b.solver_cache_budget(bytes);
    }
    if affinity() {
        b = b.affinity_ordering(true).solver_introspection(true);
    }
    b
}

/// The process-global flight-recorder interval, set once by
/// `--sample-every`.
static SAMPLING: OnceLock<u64> = OnceLock::new();

/// Arms the flight recorder for every subsequent campaign in this
/// process: one delta-compressed sample every `every` input vectors
/// (floored at 1), plus the per-cone VM profiler and the per-goal
/// solver profiler. First call wins; later calls are no-ops. Sample
/// streams are keyed to the deterministic vector-count clock, so
/// recordings are byte-identical at any `--jobs`.
pub fn set_sampling(every: u64) {
    let _ = SAMPLING.set(every.max(1));
}

/// The active flight-recorder interval (`None` when sampling is off).
pub fn sampling() -> Option<u64> {
    SAMPLING.get().copied()
}

/// The live flight/status destinations, set once by `--flight-out` /
/// `--status-out`. Only pool task 0 streams here mid-run (one writer
/// per file); the bench bins overwrite both with the canonical merged
/// artifacts after the pool drains.
static FLIGHT_OUT: OnceLock<PathBuf> = OnceLock::new();
static STATUS_OUT: OnceLock<PathBuf> = OnceLock::new();

/// Installs the live flight-stream and status-heartbeat paths. First
/// call wins; later calls are no-ops. No-op arguments leave the
/// corresponding output unset.
pub fn set_flight_outputs(flight: Option<&Path>, status: Option<&Path>) {
    if let Some(p) = flight {
        let _ = FLIGHT_OUT.set(p.to_path_buf());
    }
    if let Some(p) = status {
        let _ = STATUS_OUT.set(p.to_path_buf());
    }
}

/// The live flight-stream path, if configured.
pub fn flight_out() -> Option<&'static Path> {
    FLIGHT_OUT.get().map(PathBuf::as_path)
}

/// The live status-heartbeat path, if configured.
pub fn status_out() -> Option<&'static Path> {
    STATUS_OUT.get().map(PathBuf::as_path)
}

/// The shared campaign configuration: the experiments' historical
/// interval/threshold choices plus whatever global solver budget
/// [`set_solver_budget`] installed, validated by the builder.
fn campaign_config(budget: u64, seed: u64) -> FuzzConfig {
    let (conflicts, wall_ms) = solver_budget();
    let mut b = FuzzConfig::builder()
        .interval(100)
        .threshold(2)
        .max_vectors(budget)
        .seed(seed);
    if let Some(c) = conflicts {
        b = b.solver_budget(c);
    }
    if let Some(ms) = wall_ms {
        b = b.solve_wall_ms(ms);
    }
    if let Some(every) = sampling() {
        b = b.sample_every(every);
    }
    if let Some(bytes) = snapshot_budget() {
        b = b.snapshot_mem_budget(bytes);
    }
    if introspection() {
        b = b.solver_introspection(true);
    }
    b = apply_solver_knobs(b);
    b.build().expect("bench campaign config is consistent")
}

/// Flushes the shared trace file (no-op when tracing is off).
pub fn flush_trace() {
    if let Some(w) = TRACE.get() {
        if let Ok(mut w) = w.lock() {
            use std::io::Write as _;
            let _ = w.flush();
        }
    }
}

/// When tracing is on, swaps the fuzzer's deterministic collector for
/// a wall-clock one streaming into the shared trace file, labelled
/// with the pool `task` index. When tracing is off this is a no-op, so
/// campaign reports keep the deterministic vector-count clock.
pub fn attach_telemetry(fuzzer: &mut SymbFuzz, task: usize) {
    if let Some(writer) = TRACE.get() {
        let collector = Arc::new(Collector::monotonic());
        collector.set_task(task as u64);
        collector.set_sink(Box::new(SharedSink::new(Arc::clone(writer))));
        fuzzer.install_telemetry(collector);
    }
}

/// When this is pool task 0 and `--flight-out` / `--status-out` were
/// given, streams the campaign's live flight samples and status
/// heartbeat to those paths. Other tasks keep their samples in memory
/// only (they ride back in the campaign report and are merged by
/// interval index after the pool), so each live file has exactly one
/// writer. No-op when the recorder is off.
pub fn attach_flight_outputs(fuzzer: &mut SymbFuzz, task: usize) {
    if task != 0 {
        return;
    }
    if let Err(e) = fuzzer.set_flight_outputs(flight_out(), status_out()) {
        symbfuzz_telemetry::warn!("cannot open flight outputs: {e}");
    }
}

/// Builds and runs one campaign (`task` is the pool index, used only
/// to label trace records).
fn run(
    design: Arc<Design>,
    strategy: Strategy,
    props: &[PropertySpec],
    budget: u64,
    seed: u64,
    task: usize,
) -> CampaignResult {
    let config = campaign_config(budget, seed);
    let mut fuzzer =
        SymbFuzz::new(design, strategy, config, props).expect("properties must compile");
    attach_telemetry(&mut fuzzer, task);
    attach_flight_outputs(&mut fuzzer, task);
    let result = fuzzer.run();
    // One summary record per campaign with the settle-engine mix and
    // witness misses so `tracedump` can report the fast-path hit rate
    // and the witness oracle (no-op when the collector has no sink,
    // i.e. tracing is off), plus the solver cache summary when
    // incremental solving is armed.
    fuzzer.telemetry().emit_settle_metrics();
    fuzzer.emit_solver_metrics();
    fuzzer.telemetry().flush();
    result
}

/// One row of Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Bug number.
    pub id: u32,
    /// Benchmark name.
    pub name: String,
    /// Bug description.
    pub description: String,
    /// Sub-module (paper column 3).
    pub submodule: String,
    /// CWE id (paper column 5).
    pub cwe: String,
    /// Input vectors the paper reports (column 6).
    pub paper_vectors: f64,
    /// Vectors SymbFuzz needed here (`None` = not found in budget).
    pub measured_vectors: Option<u64>,
}

/// Table 1: run SymbFuzz on each buggy IP until its property fires.
/// Benchmarks run concurrently on up to `jobs` threads.
pub fn table1_rows(budget: u64, jobs: usize) -> Vec<Table1Row> {
    let benches = bug_benchmarks();
    run_pool(&benches, jobs, |task, b| {
        let design = b.design().expect("benchmark elaborates");
        let config = campaign_config(budget, 0x5EED + b.id as u64);
        let mut fuzzer = SymbFuzz::new(design, Strategy::SymbFuzz, config, &[b.property_spec()])
            .expect("property compiles");
        attach_telemetry(&mut fuzzer, task);
        attach_flight_outputs(&mut fuzzer, task);
        let measured = fuzzer.run_until_bug(b.name);
        fuzzer.telemetry().flush();
        Table1Row {
            id: b.id,
            name: b.name.to_string(),
            description: b.description.to_string(),
            submodule: b.submodule.to_string(),
            cwe: b.cwe.to_string(),
            paper_vectors: b.paper_vectors,
            measured_vectors: measured,
        }
    })
}

/// One row of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionRow {
    /// Bug number.
    pub id: u32,
    /// Benchmark name.
    pub name: String,
    /// Detected by SymbFuzz here.
    pub symbfuzz: bool,
    /// Detected by the RFuzz baseline here.
    pub rfuzz: bool,
    /// Detected by the DifuzzRTL baseline here.
    pub difuzz: bool,
    /// Detected by the HWFP baseline here.
    pub hwfp: bool,
    /// Paper's Table 2 row (RFuzz, DifuzzRTL, HWFP) — SymbFuzz is ✓
    /// everywhere in the paper.
    pub paper: (bool, bool, bool),
}

/// The full detection matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionMatrix {
    /// One row per bug.
    pub rows: Vec<DetectionRow>,
}

impl DetectionMatrix {
    /// Bugs missed by a column, mirroring the paper's counts
    /// (RFuzz 12, DifuzzRTL 6, HWFP 8 of 14).
    pub fn missed(&self) -> (usize, usize, usize, usize) {
        let m = |f: fn(&DetectionRow) -> bool| self.rows.iter().filter(|r| !f(r)).count();
        (
            m(|r| r.symbfuzz),
            m(|r| r.rfuzz),
            m(|r| r.difuzz),
            m(|r| r.hwfp),
        )
    }
}

/// Table 2: every fuzzer gets the same budget on each buggy IP; a ✓
/// requires both *reaching* the trigger state and having an oracle able
/// to observe the violation. Following §5 of the paper ("each fuzzer
/// was run four times"), a fuzzer scores a ✓ if any of four seeded
/// runs detects the bug.
///
/// The bug × fuzzer grid is flattened into independent pool tasks so
/// small `nbugs` still saturates `jobs` workers; seeds depend only on
/// the bug id and repeat index, so the matrix is identical at any
/// parallelism.
pub fn detection_matrix(nbugs: usize, budget: u64, jobs: usize) -> DetectionMatrix {
    const FUZZERS: [Strategy; 4] = [
        Strategy::SymbFuzz,
        Strategy::RFuzz,
        Strategy::DifuzzRtl,
        Strategy::Hwfp,
    ];
    let benches = bug_benchmarks();
    let prep: Vec<_> = benches
        .iter()
        .take(nbugs)
        .map(|b| (b, b.design().expect("benchmark elaborates")))
        .collect();
    let tasks: Vec<(usize, Strategy)> = (0..prep.len())
        .flat_map(|i| FUZZERS.iter().map(move |&s| (i, s)))
        .collect();
    let hits = run_pool(&tasks, jobs, |task, &(i, s)| {
        let (b, design) = &prep[i];
        let spec = [b.property_spec()];
        (0..4).any(|r| {
            run(
                Arc::clone(design),
                s,
                &spec,
                budget,
                0xD1CE + b.id as u64 + r * 7919,
                task,
            )
            .detected(b.name)
        })
    });
    let rows = prep
        .iter()
        .enumerate()
        .map(|(i, (b, _))| DetectionRow {
            id: b.id,
            name: b.name.to_string(),
            symbfuzz: hits[i * FUZZERS.len()],
            rfuzz: hits[i * FUZZERS.len() + 1],
            difuzz: hits[i * FUZZERS.len() + 2],
            hwfp: hits[i * FUZZERS.len() + 3],
            paper: b.table2,
        })
        .collect();
    DetectionMatrix { rows }
}

/// One row of Table 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Which paper benchmark it stands in for.
    pub paper_counterpart: String,
    /// Non-empty source lines.
    pub loc: u32,
    /// Flattened signals.
    pub signals: usize,
    /// Registers / control registers.
    pub registers: usize,
    /// Control registers steering branches.
    pub control_registers: usize,
    /// CFG nodes explored by a short SymbFuzz campaign.
    pub cfg_nodes: u64,
    /// CFG edges explored.
    pub cfg_edges: u64,
    /// Dependency equations generated by the symbolic engine.
    pub dependency_eqns: usize,
    /// SMT constraint sets generated (solver calls) during the campaign.
    pub constraints: u64,
    /// Wall-clock seconds for analysis + campaign (paper: minutes).
    pub latency_s: f64,
    /// Paper Table 3 reference: (nodes, edges, eq low, eq high, constraints).
    pub paper: (u32, u32, u32, u32, u32),
}

/// Table 3: static analysis plus a bounded campaign per processor
/// benchmark, fanned across `jobs` workers. `latency_s` is wall-clock
/// and therefore the one report column that varies with `jobs` (and
/// between runs); every other column is deterministic.
pub fn table3_rows(budget: u64, jobs: usize) -> Vec<Table3Row> {
    let benches = processor_benchmarks();
    run_pool(&benches, jobs, |task, b| table3_row(b, budget, task))
}

fn table3_row(b: &Benchmark, budget: u64, task: usize) -> Table3Row {
    let start = Instant::now();
    let design = b.design().expect("benchmark elaborates");
    let stats = DesignStats::of(&design);
    let rc = classify_registers(&design);
    let engine = SymbolicEngine::new(Arc::clone(&design));
    let result = run(
        Arc::clone(&design),
        Strategy::SymbFuzz,
        &b.property_specs(),
        budget,
        0xB3,
        task,
    );
    Table3Row {
        name: b.name.to_string(),
        paper_counterpart: b.paper_counterpart.to_string(),
        loc: stats.loc,
        signals: stats.signals,
        registers: stats.registers,
        control_registers: rc.control.len(),
        cfg_nodes: result.nodes,
        cfg_edges: result.edges,
        dependency_eqns: engine.num_equations(),
        constraints: result.resources.solver_calls,
        latency_s: start.elapsed().as_secs_f64(),
        paper: b.paper_table3,
    }
}

/// Figure 4a data: one coverage curve per strategy on one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaceResult {
    /// Benchmark name.
    pub design: String,
    /// `(strategy name, samples)` per strategy.
    pub curves: Vec<(String, Vec<CoverageSample>)>,
}

impl RaceResult {
    /// Final coverage for a strategy.
    pub fn final_coverage(&self, name: &str) -> Option<u64> {
        self.curves
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, s)| s.last().map(|p| p.coverage))
    }
}

/// Figure 4a: run all five strategies on a processor benchmark,
/// one pool task per strategy. `bench_index` selects from
/// [`processor_benchmarks`]; seeds vary per strategy to avoid
/// accidental correlation.
pub fn coverage_race(bench_index: usize, budget: u64, seed: u64, jobs: usize) -> RaceResult {
    let b = &processor_benchmarks()[bench_index];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let strategies = Strategy::all();
    let curves = run_pool(&strategies, jobs, |task, s| {
        let r = run(
            Arc::clone(&design),
            *s,
            &props,
            budget,
            seed ^ s.name().len() as u64,
            task,
        );
        (s.name().to_string(), r.series)
    });
    RaceResult {
        design: b.name.to_string(),
        curves,
    }
}

/// One Figure 4b point: coverage variance across runs at a vector count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariancePoint {
    /// Strategy name.
    pub strategy: String,
    /// Input vectors.
    pub vectors: u64,
    /// Mean coverage across runs.
    pub mean: f64,
    /// Coverage variance across runs.
    pub variance: f64,
}

/// Figure 4b: repeated unseeded runs per strategy; variance of coverage
/// within the mid-campaign window (the paper samples 4–8.5 M of ~10 M
/// vectors; we use the same 40 %–85 % fraction of the budget).
/// The strategy × run grid is flattened into pool tasks; each task's
/// seed depends only on its run index, so the profile is identical at
/// any parallelism.
pub fn variance_profile(
    bench_index: usize,
    budget: u64,
    runs: u64,
    jobs: usize,
) -> Vec<VariancePoint> {
    let b = &processor_benchmarks()[bench_index];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let lo = budget * 2 / 5;
    let hi = budget * 17 / 20;
    let tasks: Vec<(Strategy, u64)> = Strategy::all()
        .iter()
        .flat_map(|&s| (0..runs).map(move |r| (s, r)))
        .collect();
    let series: Vec<Vec<CoverageSample>> = run_pool(&tasks, jobs, |task, &(s, r)| {
        run(
            Arc::clone(&design),
            s,
            &props,
            budget,
            0xF00 + r * 7919,
            task,
        )
        .series
    });
    let mut out = Vec::new();
    for (si, s) in Strategy::all().iter().enumerate() {
        // Per-run curves for this strategy, in run order.
        let curves = &series[si * runs as usize..(si + 1) * runs as usize];
        let nsamples = curves.iter().map(|c| c.len()).min().unwrap_or(0);
        for i in 0..nsamples {
            let vectors = curves[0][i].vectors;
            if vectors < lo || vectors > hi {
                continue;
            }
            let vals: Vec<f64> = curves.iter().map(|c| c[i].coverage as f64).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let variance =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            out.push(VariancePoint {
                strategy: s.name().to_string(),
                vectors,
                mean,
                variance,
            });
        }
    }
    out
}

/// §5.3 speed-up: vectors each strategy needs to match UVM random's
/// saturation coverage. The paper reports SymbFuzz reaching it 6.8×
/// earlier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupResult {
    /// Benchmark name.
    pub design: String,
    /// Coverage UVM random saturates at within the budget.
    pub random_saturation: u64,
    /// `(strategy, vectors-to-reach, speedup-vs-random)`.
    pub rows: Vec<(String, Option<u64>, Option<f64>)>,
}

/// Computes the §5.3 convergence comparison, one pool task per
/// strategy.
pub fn speedup(bench_index: usize, budget: u64, jobs: usize) -> SpeedupResult {
    let b = &processor_benchmarks()[bench_index];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let strategies = Strategy::all();
    let results: Vec<(Strategy, CampaignResult)> = run_pool(&strategies, jobs, |task, s| {
        (
            *s,
            run(Arc::clone(&design), *s, &props, budget, 0xACE, task),
        )
    });
    let random = results
        .iter()
        .find(|(s, _)| *s == Strategy::UvmRandom)
        .map(|(_, r)| r.clone())
        .expect("random always present");
    let target = random.coverage_points;
    let random_vectors = random.vectors_to_reach(target).unwrap_or(budget).max(1);
    let rows = results
        .iter()
        .map(|(s, r)| {
            let v = r.vectors_to_reach(target);
            let ratio = v.map(|v| random_vectors as f64 / v.max(1) as f64);
            (s.name().to_string(), v, ratio)
        })
        .collect();
    SpeedupResult {
        design: b.name.to_string(),
        random_saturation: target,
        rows,
    }
}

/// One coverage-vs-budget row: a full campaign against the factoring
/// lock at one per-solve conflict ceiling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BudgetProfileRow {
    /// DUV name (`hard_factor`, `ibex_like` or `goalfabric`).
    pub design: String,
    /// Per-solve conflict ceiling.
    pub solver_budget: u64,
    /// Input vectors the campaign consumed (always the full budget —
    /// the lock is unfactorable, the point is that it terminates).
    pub vectors: u64,
    /// Coverage points reached by falling back to random mutation.
    pub coverage_points: u64,
    /// Symbolic solves that hit the ceiling.
    pub budget_exhaustions: u64,
    /// Goals skipped because a prior attempt already failed.
    pub neg_cache_hits: u64,
    /// Transition-relation frames reused from the bitblast cache
    /// (zero unless `--incremental`).
    pub bitblast_cache_hits: u64,
    /// Frames substituted and bitblasted fresh.
    pub bitblast_cache_misses: u64,
    /// Warm-session goal-reuse rate in permille.
    pub session_reuse_milli: u64,
    /// Non-zero `SolveStatus` tallies, in schema order.
    pub solve_outcomes: Vec<(String, u64)>,
}

/// The three budget-profile DUVs: the solver-hostile factoring lock,
/// the benign `ibex_like` control, and the goal-dense
/// [`symbfuzz_designs::goal_fabric`] (many shallow sibling goals off
/// one shared multiplier — the incremental-solver A/B fixture).
fn profile_duvs() -> [(&'static str, Arc<Design>, Vec<PropertySpec>); 3] {
    let hard_props = {
        let (prop, expr) = symbfuzz_designs::HARD_FACTOR_PROPERTY;
        vec![PropertySpec::assertion_only(prop, expr)]
    };
    let fabric_props = {
        let (prop, expr) = symbfuzz_designs::GOAL_FABRIC_PROPERTY;
        vec![PropertySpec::assertion_only(prop, expr)]
    };
    let ibex = &processor_benchmarks()[0];
    [
        ("hard_factor", symbfuzz_designs::hard_factor(), hard_props),
        (
            ibex.name,
            ibex.design().expect("benchmark elaborates"),
            ibex.property_specs(),
        ),
        ("goalfabric", symbfuzz_designs::goal_fabric(), fabric_props),
    ]
}

/// Coverage-vs-budget profile: runs SymbFuzz once per conflict
/// ceiling in `budgets` on three DUVs, one pool task per campaign.
/// The deliberately solver-hostile [`symbfuzz_designs::hard_factor`]
/// lock makes every symbolic goal a 40-bit semiprime factoring
/// instance, so each of its campaigns demonstrates graceful
/// degradation: the solver returns unknown, telemetry records
/// `BudgetExhausted`, and fuzzing continues on random mutation to the
/// full vector budget. `ibex_like` is the benign control: its
/// dependency equations solve well inside even the smallest ceiling,
/// showing budgets cost nothing when the solver succeeds. `goalfabric`
/// is the goal-dense fixture whose many sibling goals share one
/// unrolled frame — the design the incremental-solver knobs are
/// measured on. Seeds are fixed per campaign, so rows are
/// byte-identical at any `jobs` value.
pub fn budget_profile(budgets: &[u64], max_vectors: u64, jobs: usize) -> Vec<BudgetProfileRow> {
    let duvs = profile_duvs();
    let tasks: Vec<(usize, u64)> = (0..duvs.len())
        .flat_map(|i| budgets.iter().map(move |&b| (i, b)))
        .collect();
    run_pool(&tasks, jobs, |task, &(i, ceiling)| {
        let (name, design, props) = &duvs[i];
        let mut b = FuzzConfig::builder()
            .interval(100)
            .threshold(1)
            .max_vectors(max_vectors)
            .seed(0xB0D6E7)
            .solver_budget(ceiling)
            .escalation_cap(1);
        if let Some(every) = sampling() {
            b = b.sample_every(every);
        }
        if let Some(bytes) = snapshot_budget() {
            b = b.snapshot_mem_budget(bytes);
        }
        if introspection() {
            b = b.solver_introspection(true);
        }
        b = apply_solver_knobs(b);
        let config = b.build().expect("budget profile config is consistent");
        let mut fuzzer = SymbFuzz::new(Arc::clone(design), Strategy::SymbFuzz, config, props)
            .expect("property compiles");
        attach_telemetry(&mut fuzzer, task);
        attach_flight_outputs(&mut fuzzer, task);
        let r = fuzzer.run();
        fuzzer.telemetry().emit_settle_metrics();
        fuzzer.emit_solver_metrics();
        fuzzer.telemetry().flush();
        let counter = |name: &str| {
            r.telemetry
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let cache = r.solver_cache.unwrap_or_default();
        BudgetProfileRow {
            design: name.to_string(),
            solver_budget: ceiling,
            vectors: r.vectors,
            coverage_points: r.coverage_points,
            budget_exhaustions: counter("budget_exhaustions"),
            neg_cache_hits: counter("neg_cache_hits"),
            bitblast_cache_hits: cache.frame_hits,
            bitblast_cache_misses: cache.frame_misses,
            session_reuse_milli: cache.reuse_milli,
            solve_outcomes: r
                .solve_outcomes
                .iter()
                .filter(|(_, n)| *n > 0)
                .cloned()
                .collect(),
        }
    })
}

/// One design's merged solver-introspection profile: the scope block
/// (cost rows, blame sets, affinity matrix) joined against the solver
/// profile's per-status tallies for the attribution-rate headline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScopeProfileResult {
    /// DUV name (`hard_factor`, `ibex_like` or `goalfabric`).
    pub design: String,
    /// Per-solve conflict ceiling the campaigns ran under.
    pub solver_budget: u64,
    /// Introspected campaigns merged into this profile.
    pub campaigns: u64,
    /// Goals with at least one budget-exhausted attempt.
    pub exhausted_goals: u64,
    /// Exhausted goals whose scope row carries a non-empty blame set.
    pub exhausted_blamed: u64,
    /// Mean sketch affinity of adjacent equal-depth goals, in milli.
    pub mean_adjacent_affinity_milli: u64,
    /// The merged introspection block.
    pub scope: SolverScopeBlock,
    /// The merged per-goal solver profile (status tallies per goal).
    pub profile: SolverProfileBlock,
    /// The merged bitblast-cache block (`None` unless `--incremental`
    /// armed incremental solving for these campaigns).
    pub solver_cache: Option<SolverCacheBlock>,
}

/// Solver-introspection profile: runs introspected SymbFuzz campaigns
/// on the solver-hostile `hard_factor` lock (every goal a 40-bit
/// semiprime factoring instance — exhaustion attribution territory),
/// the benign `ibex_like` control (satisfiable goals — affinity
/// territory) and the goal-dense `goalfabric` fixture (sibling goals
/// sharing one frame — session-reuse territory), two seeded campaigns
/// per design fanned across the pool, then merges scope, profile and
/// cache blocks in task order. Seeds are fixed per campaign, so
/// results are byte-identical at any `jobs` value.
pub fn solverscope_profile(
    max_vectors: u64,
    solver_budget_ceiling: u64,
    jobs: usize,
) -> Vec<ScopeProfileResult> {
    const RUNS_PER_DESIGN: usize = 2;
    let duvs = profile_duvs();
    let tasks: Vec<(usize, u64)> = (0..duvs.len())
        .flat_map(|i| (0..RUNS_PER_DESIGN as u64).map(move |r| (i, r)))
        .collect();
    let results = run_pool(&tasks, jobs, |task, &(i, r)| {
        let (_, design, props) = &duvs[i];
        let mut b = FuzzConfig::builder()
            .interval(100)
            .threshold(1)
            .max_vectors(max_vectors)
            .seed(0xB0D6E7 + r * 7919)
            .solver_budget(solver_budget_ceiling)
            .escalation_cap(1)
            .solver_introspection(true);
        b = apply_solver_knobs(b);
        let config = b.build().expect("scope profile config is consistent");
        let mut fuzzer = SymbFuzz::new(Arc::clone(design), Strategy::SymbFuzz, config, props)
            .expect("property compiles");
        attach_telemetry(&mut fuzzer, task);
        let result = fuzzer.run();
        fuzzer.telemetry().emit_settle_metrics();
        fuzzer.emit_solver_metrics();
        fuzzer.telemetry().flush();
        result
    });
    duvs.iter()
        .enumerate()
        .map(|(i, (name, _, _))| {
            let slice = &results[i * RUNS_PER_DESIGN..(i + 1) * RUNS_PER_DESIGN];
            let scope =
                crate::pool::merge_solver_scopes(slice.iter().map(|r| r.solver_scope.as_ref()))
                    .unwrap_or_default();
            let profile =
                crate::pool::merge_solver_profiles(slice.iter().map(|r| &r.solver_profile));
            let solver_cache =
                crate::pool::merge_solver_caches(slice.iter().map(|r| r.solver_cache.as_ref()));
            // Join: a goal counts as exhausted when any attempt hit the
            // budget ceiling; it counts as attributed when its scope
            // row carries a non-empty blame set.
            let mut exhausted_goals = 0u64;
            let mut exhausted_blamed = 0u64;
            for g in profile.goals.iter().filter(|g| g.exhausted > 0) {
                exhausted_goals += 1;
                let blamed = scope
                    .goals
                    .iter()
                    .find(|s| s.register == g.register && s.value == g.value)
                    .is_some_and(|s| !s.blame.is_empty());
                if blamed {
                    exhausted_blamed += 1;
                }
            }
            ScopeProfileResult {
                design: name.to_string(),
                solver_budget: solver_budget_ceiling,
                campaigns: RUNS_PER_DESIGN as u64,
                exhausted_goals,
                exhausted_blamed,
                mean_adjacent_affinity_milli: scope.mean_adjacent_affinity_milli,
                scope,
                profile,
                solver_cache,
            }
        })
        .collect()
}

/// One per-goal A/B row of the incremental-solver experiment: the
/// CDCL conflicts a goal cost per verdict under a cold solver versus
/// the warm cached session, joined on `(register, value)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverCacheRow {
    /// Target register name.
    pub register: String,
    /// Target value.
    pub value: u64,
    /// Cumulative conflicts in the baseline (cold-solver) arm.
    pub cold_conflicts: u64,
    /// Cumulative conflicts in the incremental arm.
    pub warm_conflicts: u64,
    /// Verdicts (sat + unsat) the baseline arm reached.
    pub cold_verdicts: u64,
    /// Verdicts the incremental arm reached.
    pub warm_verdicts: u64,
    /// Smoothed cold/warm conflicts-per-verdict ratio in milli
    /// (`(cold_cpv + 1) / (warm_cpv + 1) × 1000`; > 1000 means the
    /// warm session was cheaper).
    pub ratio_milli: u64,
}

/// One design's incremental-solver A/B result: the same deterministic
/// goal sweep solved twice — cold solver per query versus warm
/// incremental sessions + bitblast cache — per-goal conflict ratios,
/// and the geomean headline the PR's acceptance bar keys on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverCacheResult {
    /// DUV name (`goalfabric` or `ibex_like`).
    pub design: String,
    /// Per-query conflict ceiling both arms ran under.
    pub solver_budget: u64,
    /// Per-goal A/B rows (goals with a verdict in both arms), in
    /// sweep order.
    pub goals: Vec<SolverCacheRow>,
    /// Baseline conflicts per verdict across all joined goals, milli.
    pub cold_conflicts_per_verdict_milli: u64,
    /// Incremental conflicts per verdict across all joined goals, milli.
    pub warm_conflicts_per_verdict_milli: u64,
    /// Geometric mean of the per-goal smoothed ratios, in milli
    /// (≥ 2000 = the ≥ 2× reduction the acceptance bar requires).
    pub geomean_conflict_ratio_milli: u64,
    /// The warm arm's bitblast-cache block.
    pub cache: SolverCacheBlock,
}

/// Runs one design's cold-vs-warm sweep: the identical query sequence
/// against a fresh-per-query engine and a cache-armed engine.
fn sweep_solver_ab(
    name: &str,
    design: &Arc<Design>,
    stimulus_cycles: u64,
    ceiling: u64,
) -> SolverCacheResult {
    /// Depth ceiling of every query's geometric unroll schedule.
    const SWEEP_DEPTH: u32 = 4;
    // Start states: post-reset, plus a snapshot after a burst of
    // deterministic pseudo-random stimulus — deduped on the *register
    // projection* (the only part of a state the solver sees), because
    // random words never advance the fabric's lanes, and re-posing a
    // query from a register-identical state would hand the warm arm a
    // free assumption re-check for a goal no campaign would re-pose
    // (a reached value is no longer unseen).
    let reg_projection = |state: &[LogicVec]| -> Vec<LogicVec> {
        design
            .signals
            .iter()
            .zip(state.iter())
            .filter(|(s, _)| s.is_register)
            .map(|(_, v)| v.clone())
            .collect()
    };
    let mut sim = Simulator::new(Arc::clone(design));
    sim.reenter(Reentry::FullReset { cycles: 1 });
    let mut states: Vec<Vec<LogicVec>> = vec![sim.values().to_vec()];
    let width = design.fuzz_width();
    let mut lcg = 0xCAC4E5EEDu64;
    for _ in 0..stimulus_cycles.min(32) {
        let mut word = LogicVec::zeros(0);
        let mut remaining = width;
        while remaining > 0 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let take = remaining.min(64);
            word = LogicVec::concat(&LogicVec::from_u64(take, lcg), &word);
            remaining -= take;
        }
        sim.apply_input_word(&word);
        sim.step();
    }
    let advanced = sim.values().to_vec();
    if reg_projection(&advanced) != reg_projection(&states[0]) {
        states.push(advanced);
    }
    // Goals: every control register × the values 1..=3 that fit its
    // width, register-major — sibling values of one register batch
    // consecutively, exactly how a guidance round poses them.
    let rc = classify_registers(design);
    let mut goals: Vec<(SignalId, u64)> = Vec::new();
    for &reg in &rc.control {
        let w = design.signal(reg).width;
        for v in 1..=3u64 {
            if w >= 64 || v < (1u64 << w) {
                goals.push((reg, v));
            }
        }
    }
    let budget = Budget::unlimited().with_conflicts(ceiling);
    let cold = SymbolicEngine::new(Arc::clone(design));
    let mut warm = SymbolicEngine::new(Arc::clone(design));
    warm.set_solver_cache(Some(solver_cache_budget().unwrap_or(16 << 20)));

    let mut tallies: Vec<(u64, u64, u64, u64)> = vec![(0, 0, 0, 0); goals.len()];
    for state in &states {
        for (k, &(reg, value)) in goals.iter().enumerate() {
            let w = design.signal(reg).width;
            let tgt = [(reg, LogicVec::from_u64(w, value))];
            let Ok((oc, sc)) = cold.solve_reach_profiled(state, &tgt, SWEEP_DEPTH, &budget) else {
                continue;
            };
            let Ok((ow, sw)) = warm.solve_reach_profiled(state, &tgt, SWEEP_DEPTH, &budget) else {
                continue;
            };
            let t = &mut tallies[k];
            t.0 += sc.spent.conflicts;
            t.1 += sw.spent.conflicts;
            t.2 += u64::from(matches!(oc.status(), SolveStatus::Sat | SolveStatus::Unsat));
            t.3 += u64::from(matches!(ow.status(), SolveStatus::Sat | SolveStatus::Unsat));
        }
    }

    let mut rows = Vec::new();
    for (k, &(reg, value)) in goals.iter().enumerate() {
        let (cold_conflicts, warm_conflicts, cold_verdicts, warm_verdicts) = tallies[k];
        if cold_verdicts == 0 || warm_verdicts == 0 {
            continue;
        }
        let cold_cpv = cold_conflicts as f64 / cold_verdicts as f64;
        let warm_cpv = warm_conflicts as f64 / warm_verdicts as f64;
        let ratio = (cold_cpv + 1.0) / (warm_cpv + 1.0);
        rows.push(SolverCacheRow {
            register: design.signal(reg).name.clone(),
            value,
            cold_conflicts,
            warm_conflicts,
            cold_verdicts,
            warm_verdicts,
            ratio_milli: (ratio * 1000.0).round() as u64,
        });
    }
    let cpv_milli = |pick: fn(&SolverCacheRow) -> (u64, u64)| {
        let (conflicts, verdicts) = rows.iter().fold((0u64, 0u64), |(c, v), g| {
            let (gc, gv) = pick(g);
            (c + gc, v + gv)
        });
        (conflicts * 1000).checked_div(verdicts).unwrap_or(0)
    };
    let geomean = if rows.is_empty() {
        1000
    } else {
        let sum_ln: f64 = rows
            .iter()
            .map(|g| (g.ratio_milli.max(1) as f64 / 1000.0).ln())
            .sum();
        ((sum_ln / rows.len() as f64).exp() * 1000.0).round() as u64
    };
    let stats = warm.cache_stats();
    SolverCacheResult {
        design: name.to_string(),
        solver_budget: ceiling,
        cold_conflicts_per_verdict_milli: cpv_milli(|g| (g.cold_conflicts, g.cold_verdicts)),
        warm_conflicts_per_verdict_milli: cpv_milli(|g| (g.warm_conflicts, g.warm_verdicts)),
        geomean_conflict_ratio_milli: geomean,
        goals: rows,
        cache: SolverCacheBlock {
            frame_hits: stats.frame_hits,
            frame_misses: stats.frame_misses,
            evictions: stats.evictions,
            goals: stats.goals,
            reused_goals: stats.reused_goals,
            reuse_milli: (stats.reused_goals * 1000)
                .checked_div(stats.goals)
                .unwrap_or(0),
        },
    }
}

/// Incremental-solver A/B: poses the *identical* deterministic query
/// sequence twice per DUV — once against a baseline engine that
/// bit-blasts every exact-depth check from scratch, once against an
/// engine with incremental [`SolverSession`](symbfuzz_smt::SolverSession)s
/// and the byte-budgeted bitblast cache armed — and reports per-goal
/// conflicts-to-verdict ratios joined on `(register, value)`.
///
/// A campaign-level A/B cannot isolate the solver layer: warm sessions
/// legitimately return *different models* (same verdicts), so the two
/// campaigns inject different stimulus and diverge onto incomparable
/// goal sequences after the first solve. Holding the query script
/// fixed makes the solver the only variable. The script itself is
/// shaped like a guidance round — all sibling values of each control
/// register, batched register-major from a reachable state — and
/// never repeats an exact `(state, goal)` query, since the fuzzer's
/// negative cache would deduplicate those (a repeat would hand the
/// warm arm a free assumption re-check).
///
/// The DUVs are the goal-dense `goalfabric` (nested per-lane goals off
/// one shared multiplier — where warm sessions pay off) and the benign
/// `ibex_like` control (near-propagation goals — where session
/// overhead shows up honestly). `max_vectors` bounds the stimulus
/// burst that samples the second start state. Everything is
/// deterministic, so results are byte-identical at any `jobs` value.
pub fn solvercache_profile(
    max_vectors: u64,
    solver_budget_ceiling: u64,
    jobs: usize,
) -> Vec<SolverCacheResult> {
    let duvs = profile_duvs();
    // duvs[2] = goalfabric, duvs[1] = ibex_like.
    let picks = [2usize, 1];
    run_pool(&picks, jobs, |_task, &i| {
        let (name, design, _) = &duvs[i];
        sweep_solver_ab(name, design, max_vectors, solver_budget_ceiling)
    })
}

/// §5.2 resource profile: per-strategy resource stats on one
/// benchmark, one pool task per strategy.
pub fn resource_profile(
    bench_index: usize,
    budget: u64,
    jobs: usize,
) -> Vec<(String, CampaignResult)> {
    let b = &processor_benchmarks()[bench_index];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let strategies = Strategy::all();
    run_pool(&strategies, jobs, |task, s| {
        let r = run(Arc::clone(&design), *s, &props, budget, 0xCAB, task);
        (s.name().to_string(), r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_smoke_detects_shallow_bugs() {
        // Bugs 7 and 10 are one-to-two-cycle triggers; a small budget
        // suffices and keeps the test fast.
        let rows = table1_rows(3_000, 4);
        assert_eq!(rows.len(), 14);
        let by_id = |id: u32| rows.iter().find(|r| r.id == id).unwrap();
        assert!(by_id(7).measured_vectors.is_some(), "bug 7 undetected");
        assert!(by_id(10).measured_vectors.is_some(), "bug 10 undetected");
    }

    #[test]
    fn detection_matrix_symbfuzz_dominates() {
        let m = detection_matrix(3, 4_000, 4);
        for r in &m.rows {
            assert!(r.symbfuzz, "SymbFuzz missed bug {}", r.id);
            // Baselines never beat their paper visibility gates.
            assert!(!r.rfuzz || r.paper.0);
            assert!(!r.difuzz || r.paper.1);
            assert!(!r.hwfp || r.paper.2);
        }
    }

    #[test]
    fn table3_reports_structure() {
        let rows = table3_rows(1_500, 2);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.loc > 20, "{} too small", r.name);
            assert!(r.dependency_eqns > 0);
            assert!(r.cfg_nodes > 1);
            assert!(r.latency_s > 0.0);
        }
    }

    #[test]
    fn coverage_race_orders_symbfuzz_first() {
        let race = coverage_race(0, 6_000, 42, 4);
        let sf = race.final_coverage("SymbFuzz").unwrap();
        let rnd = race.final_coverage("UVM-random").unwrap();
        assert!(sf >= rnd, "SymbFuzz {sf} < random {rnd}");
        assert_eq!(race.curves.len(), 5);
    }

    #[test]
    fn variance_profile_produces_window_points() {
        let pts = variance_profile(1, 2_000, 3, 4);
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(p.vectors >= 800 && p.vectors <= 1_700);
            assert!(p.variance >= 0.0);
        }
    }

    /// The tentpole determinism guarantee: the rendered JSON report is
    /// byte-identical whether campaigns run on 1 thread or 8.
    #[test]
    fn reports_are_byte_identical_across_job_counts() {
        let serial = serde_json::to_string(&detection_matrix(2, 2_000, 1)).unwrap();
        let wide = serde_json::to_string(&detection_matrix(2, 2_000, 8)).unwrap();
        assert_eq!(serial, wide);

        let serial = serde_json::to_string(&coverage_race(1, 2_000, 7, 1)).unwrap();
        let wide = serde_json::to_string(&coverage_race(1, 2_000, 7, 8)).unwrap();
        assert_eq!(serial, wide);

        let serial = serde_json::to_string(&variance_profile(1, 1_500, 2, 1)).unwrap();
        let wide = serde_json::to_string(&variance_profile(1, 1_500, 2, 8)).unwrap();
        assert_eq!(serial, wide);
    }

    /// The PR's acceptance scenario: a 10k-conflict ceiling against
    /// the factoring lock terminates (no hang), records at least one
    /// `BudgetExhausted`, degrades to random mutation for the full
    /// vector budget, and renders byte-identically at any `--jobs`.
    #[test]
    fn budget_profile_degrades_and_is_deterministic_across_jobs() {
        let serial = serde_json::to_string(&budget_profile(&[10_000], 400, 1)).unwrap();
        let wide = serde_json::to_string(&budget_profile(&[10_000], 400, 4)).unwrap();
        assert_eq!(serial, wide);
        let rows: Vec<BudgetProfileRow> = serde_json::from_str(&serial).unwrap();
        assert_eq!(rows.len(), 3);
        let r = rows.iter().find(|r| r.design == "hard_factor").unwrap();
        assert_eq!(r.vectors, 400, "campaign must run to its full budget");
        assert!(r.budget_exhaustions >= 1, "no solve hit the ceiling: {r:?}");
        assert!(
            r.solve_outcomes
                .iter()
                .any(|(s, n)| s.starts_with("unknown:") && *n > 0),
            "no unknown outcome tallied: {r:?}"
        );
        assert!(r.coverage_points >= 1);
        // The benign control also terminates at its full budget.
        let ibex = rows.iter().find(|r| r.design == "ibex_like").unwrap();
        assert_eq!(ibex.vectors, 400);
    }

    /// The introspection acceptance scenario: against the factoring
    /// lock, (nearly) every exhausted goal must be attributed to a
    /// non-empty register blame set, and the profile — affinity matrix
    /// and blame sets included — must be byte-identical at `--jobs 1`
    /// and `--jobs 4`.
    #[test]
    fn solverscope_attributes_exhaustion_and_is_deterministic_across_jobs() {
        let serial = serde_json::to_string(&solverscope_profile(400, 500, 1)).unwrap();
        let wide = serde_json::to_string(&solverscope_profile(400, 500, 4)).unwrap();
        assert_eq!(serial, wide);
        let rows: Vec<ScopeProfileResult> = serde_json::from_str(&serial).unwrap();
        assert_eq!(rows.len(), 3);
        let hard = rows.iter().find(|r| r.design == "hard_factor").unwrap();
        assert!(
            hard.exhausted_goals >= 1,
            "no goal exhausted its budget: {hard:?}"
        );
        // ≥ 90 % of exhausted goals carry a non-empty blame set.
        assert!(
            hard.exhausted_blamed * 10 >= hard.exhausted_goals * 9,
            "attribution rate too low: {}/{}",
            hard.exhausted_blamed,
            hard.exhausted_goals
        );
        for g in hard.scope.goals.iter().filter(|g| !g.blame.is_empty()) {
            assert!(
                g.blame.windows(2).all(|w| w[0] < w[1]),
                "blame set not in sorted name order: {:?}",
                g.blame
            );
        }
        // The benign control reports cross-goal structural affinity.
        let ibex = rows.iter().find(|r| r.design == "ibex_like").unwrap();
        assert!(!ibex.scope.goals.is_empty());
        assert_eq!(
            ibex.mean_adjacent_affinity_milli,
            ibex.scope.mean_adjacent_affinity_milli
        );
        for g in &ibex.scope.goals {
            assert!(!g.sketch.is_empty(), "goal {} has no sketch", g.register);
        }
    }

    /// The incremental-solver acceptance scenario: the A/B joins at
    /// least one verdict-reaching goal per DUV, the warm arm reuses
    /// sessions on the goal-dense fabric, and the report is
    /// byte-identical at any `--jobs`.
    #[test]
    fn solvercache_profile_joins_goals_and_is_deterministic_across_jobs() {
        let serial = serde_json::to_string(&solvercache_profile(400, 20_000, 1)).unwrap();
        let wide = serde_json::to_string(&solvercache_profile(400, 20_000, 4)).unwrap();
        assert_eq!(serial, wide);
        let rows: Vec<SolverCacheResult> = serde_json::from_str(&serial).unwrap();
        assert_eq!(rows.len(), 2);
        let fabric = rows.iter().find(|r| r.design == "goalfabric").unwrap();
        assert!(!fabric.goals.is_empty(), "no joined goals: {fabric:?}");
        assert!(
            fabric.cache.goals > 0,
            "warm arm issued no cached checks: {:?}",
            fabric.cache
        );
        assert!(
            fabric.cache.reused_goals > 0,
            "warm arm never reused a session: {:?}",
            fabric.cache
        );
        for g in &fabric.goals {
            assert!(g.cold_verdicts > 0 && g.warm_verdicts > 0, "{g:?}");
            assert!(g.ratio_milli > 0, "{g:?}");
        }
    }

    #[test]
    fn speedup_has_random_baseline_of_one() {
        let s = speedup(3, 4_000, 4);
        let rnd = s.rows.iter().find(|(n, _, _)| n == "UVM-random").unwrap();
        assert!((rnd.2.unwrap() - 1.0).abs() < 1e-9);
        let sf = s.rows.iter().find(|(n, _, _)| n == "SymbFuzz").unwrap();
        assert!(sf.2.unwrap_or(0.0) >= 1.0, "SymbFuzz slower than random");
    }
}
