//! The layer drive: a campaign's loop rebuilt from the crates' public
//! calls, with a span recorded around every call into a layer.
//!
//! SymbFuzz campaigns follow Algorithm 1: sequencer, drive, observe,
//! fork on a new node, property check; on stagnation, rollback to a
//! checkpoint and `solve_reach_profiled` on goals from
//! `Cfg::unseen_values`. Baseline campaigns run reset-to-reset
//! testcases. `Mutator` cannot be built outside its crate (its
//! granularity type is private), so baseline testcases draw their
//! words from a `Sequencer` instead; their cost per word is the same
//! random-word generation.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use symbfuzz_cfgx::{Cfg, NodeId, Provenance};
use symbfuzz_core::{PropertySpec, Strategy};
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::{classify_registers, Design, SignalId};
use symbfuzz_props::{Property, PropertyChecker};
use symbfuzz_ruvm::{Driver, SequenceItem, Sequencer};
use symbfuzz_sim::{Reentry, Simulator, SnapshotId, SnapshotStore};
use symbfuzz_smt::Budget;
use symbfuzz_symexec::{ReachOutcome, SymbolicEngine};
use symbfuzz_telemetry::Collector;

use crate::campaign::Prepared;
use crate::stats::{self_times, Span};

/// A layer call the drive times. The prefix before the first dot of
/// [`Name::label`] is the crate that owns the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Name {
    /// One input vector of the random phase (benchmark glue).
    Vector,
    /// One stagnation episode (benchmark glue).
    Episode,
    /// One baseline testcase boundary (benchmark glue).
    Case,
    /// `Sequencer::next_item`.
    NextItem,
    /// `Driver::drive`: `apply_input_word` plus `step`.
    Drive,
    /// `apply_input_word` plus `step` while replaying a recorded path.
    Replay,
    /// `Cfg::observe`.
    Observe,
    /// `Cfg::nearest_ancestor`.
    Ancestor,
    /// `Simulator::fork`.
    Fork,
    /// `SnapshotStore::evict`.
    Evict,
    /// `Simulator::reenter`.
    Reenter,
    /// `PropertyChecker::on_cycle`.
    OnCycle,
    /// `Cfg::checkpoints` plus `Cfg::unseen_values`.
    Frontier,
    /// `SymbolicEngine::new`.
    EngineNew,
    /// `SymbolicEngine::solve_reach_profiled`.
    Solve,
    /// `Simulator::toggled_outcomes` (RFuzz and HWFP feedback).
    Toggles,
}

impl Name {
    /// Every name, in discriminant order.
    pub const ALL: [Name; 16] = [
        Name::Vector,
        Name::Episode,
        Name::Case,
        Name::NextItem,
        Name::Drive,
        Name::Replay,
        Name::Observe,
        Name::Ancestor,
        Name::Fork,
        Name::Evict,
        Name::Reenter,
        Name::OnCycle,
        Name::Frontier,
        Name::EngineNew,
        Name::Solve,
        Name::Toggles,
    ];

    /// Span name as written out: `crate.call`.
    pub fn label(self) -> &'static str {
        match self {
            Name::Vector => "bench.vector",
            Name::Episode => "bench.episode",
            Name::Case => "bench.case",
            Name::NextItem => "ruvm.next_item",
            Name::Drive => "sim.drive",
            Name::Replay => "sim.replay",
            Name::Observe => "cfgx.observe",
            Name::Ancestor => "cfgx.nearest_ancestor",
            Name::Fork => "sim.fork",
            Name::Evict => "sim.evict",
            Name::Reenter => "sim.reenter",
            Name::OnCycle => "props.on_cycle",
            Name::Frontier => "cfgx.frontier",
            Name::EngineNew => "symexec.new",
            Name::Solve => "symexec.solve_reach",
            Name::Toggles => "sim.toggled_outcomes",
        }
    }

    /// The crate owning the call.
    pub fn layer(self) -> &'static str {
        self.label()
            .split('.')
            .next()
            .expect("labels are crate.call")
    }

    /// The campaign phase (`Collector` taxonomy) this span's self time
    /// belongs to, given the root it runs under.
    pub fn phase(self, root: Name) -> &'static str {
        match (root, self) {
            (_, Name::Solve) => "solve",
            (_, Name::OnCycle) => "props",
            (_, Name::NextItem) => "mutate",
            (Name::Vector, _) => "settle",
            (Name::Case, _) => "reset",
            (Name::Episode, Name::Episode | Name::Frontier | Name::EngineNew) => "symbolic",
            _ => "reset",
        }
    }
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    trace: u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: Name) -> u32 {
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name: name as u16,
            parent: self.stack.last().copied(),
            trace: self.trace,
            start,
            end: start,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: u32) {
        let end = self.now();
        self.spans[idx as usize].end = end;
        self.stack.pop();
    }

    fn time<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }
}

/// Counts the drive takes besides spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Vectors driven.
    pub vectors: u64,
    /// Reachability queries issued.
    pub solves: u64,
    /// Queries answered `Reached`.
    pub sat: u64,
    /// Queries that exhausted their budget.
    pub exhausted: u64,
    /// CDCL conflicts over all queries.
    pub conflicts: u64,
    /// CDCL decisions over all queries.
    pub decisions: u64,
    /// Input words stored in node paths at the end (`Cfg::path_len`
    /// summed over nodes).
    pub path_words: u64,
    /// Final coverage points, per campaign, in order.
    pub coverage: Vec<u64>,
}

/// Everything one drive over a workload's campaigns recorded.
pub struct Trace {
    /// Every span, in opening order.
    pub spans: Vec<Span>,
    /// Counts.
    pub counts: Counts,
    /// Wall seconds of the whole drive.
    pub wall_s: f64,
}

impl Trace {
    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: Name) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name as u16)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Self nanoseconds summed per layer (crate) and per campaign
    /// phase, with the total over root spans.
    pub fn self_time_split(&self) -> (Totals, Totals, u64) {
        let own = self_times(&self.spans);
        let mut layers = Totals::new();
        let mut phases = Totals::new();
        let mut roots = vec![0u32; self.spans.len()];
        let mut total = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let name = Name::ALL[s.name as usize];
            roots[i] = match s.parent {
                Some(p) => roots[p as usize],
                None => {
                    total += s.end - s.start;
                    i as u32
                }
            };
            let root = Name::ALL[self.spans[roots[i] as usize].name as usize];
            add(&mut layers, name.layer(), own[i]);
            add(&mut phases, name.phase(root), own[i]);
        }
        (layers, phases, total)
    }

    /// Writes every span as a tab-separated line: id, parent (or -1),
    /// trace id, name, start ns, end ns.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\ttrace\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            let name = Name::ALL[s.name as usize].label();
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{name}\t{}\t{}",
                s.trace, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Nanoseconds per key, in first-seen order.
pub type Totals = Vec<(&'static str, u64)>;

fn add(acc: &mut Totals, key: &'static str, v: u64) {
    match acc.iter_mut().find(|(k, _)| *k == key) {
        Some((_, t)) => *t += v,
        None => acc.push((key, v)),
    }
}

/// Drives every campaign of a pass once.
pub fn drive(prepared: &[Prepared]) -> Trace {
    let mut tracer = Tracer {
        t0: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        trace: 0,
    };
    let mut counts = Counts::default();
    let start = Instant::now();
    for p in prepared {
        let mut c = Replica::new(p);
        if p.campaign.strategy == Strategy::SymbFuzz {
            c.run_symbfuzz(&mut tracer, &mut counts);
        } else {
            c.run_baseline(&mut tracer, &mut counts);
        }
        counts.path_words += (0..c.cfg.node_count() as u32)
            .map(|n| c.cfg.path_len(NodeId(n)) as u64)
            .sum::<u64>();
        counts.coverage.push(c.cfg.coverage_points() as u64);
    }
    Trace {
        spans: tracer.spans,
        counts,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// One campaign's state, held the way `SymbFuzz` holds it.
struct Replica<'a> {
    design: Arc<Design>,
    strategy: Strategy,
    config: &'a symbfuzz_core::FuzzConfig,
    sim: Simulator,
    sequencer: Sequencer,
    cfg: Cfg,
    checker: PropertyChecker,
    engine: Option<SymbolicEngine>,
    telemetry: Arc<Collector>,
    store: SnapshotStore,
    snap_ids: HashMap<NodeId, SnapshotId>,
    snap_order: Vec<NodeId>,
    neg_cache: HashSet<(Option<NodeId>, SignalId, LogicVec)>,
    escalation: u32,
    vectors: u64,
}

fn visible(strategy: Strategy, p: &PropertySpec) -> bool {
    match strategy {
        Strategy::SymbFuzz | Strategy::UvmRandom => true,
        Strategy::RFuzz => p.rfuzz_visible,
        Strategy::DifuzzRtl => p.difuzz_visible,
        Strategy::Hwfp => p.hwfp_visible,
    }
}

impl<'a> Replica<'a> {
    fn new(p: &'a Prepared) -> Replica<'a> {
        let design = Arc::clone(&p.design);
        let config = &p.campaign.config;
        let compiled: Vec<Property> = p
            .props
            .iter()
            .filter(|s| visible(p.campaign.strategy, s))
            .map(|s| Property::parse(&s.name, &s.text, &design).expect("property parses"))
            .collect();
        let mut ctrl = classify_registers(&design).control;
        ctrl.retain(|s| {
            let sig = design.signal(*s);
            sig.legal_encodings.is_some() || sig.width <= 8
        });
        let telemetry = Arc::new(Collector::deterministic());
        let mut sim = Simulator::new(Arc::clone(&design));
        sim.set_collector(Some(Arc::clone(&telemetry)));
        let store = sim.snapshot_store(config.snapshot_mem_budget);
        sim.reenter(Reentry::FullReset {
            cycles: config.reset_cycles,
        });
        Replica {
            sequencer: Sequencer::new(Arc::clone(&design), config.seed),
            cfg: Cfg::new(Arc::clone(&design), ctrl),
            checker: PropertyChecker::new(compiled),
            engine: None,
            telemetry,
            store,
            snap_ids: HashMap::new(),
            snap_order: Vec::new(),
            neg_cache: HashSet::new(),
            escalation: 0,
            vectors: 0,
            strategy: p.campaign.strategy,
            config,
            sim,
            design,
        }
    }

    /// Drives, observes and checks one word, then closes the
    /// `bench.vector` root the caller opened.
    fn step(&mut self, tr: &mut Tracer, item: SequenceItem, root: u32) {
        self.vectors += 1;
        let sim = &mut self.sim;
        tr.time(Name::Drive, || Driver.drive(sim, &item));
        let prov = Provenance::random(self.vectors);
        let (sim, cfg) = (&self.sim, &mut self.cfg);
        let outcome = tr.time(Name::Observe, || {
            cfg.observe(sim.values(), &item.word, sim.cycle(), prov)
        });
        if self.strategy == Strategy::SymbFuzz && outcome.new_node {
            self.take_snapshot(tr, outcome.node);
        }
        if matches!(self.strategy, Strategy::RFuzz | Strategy::Hwfp) {
            let sim = &self.sim;
            std::hint::black_box(tr.time(Name::Toggles, || sim.toggled_outcomes()));
        }
        let (sim, checker) = (&self.sim, &mut self.checker);
        std::hint::black_box(tr.time(Name::OnCycle, || {
            checker.on_cycle(sim.cycle(), sim.values())
        }));
        tr.close(root);
    }

    fn run_symbfuzz(&mut self, tr: &mut Tracer, counts: &mut Counts) {
        let interval = self.config.interval;
        let mut last_coverage = 0usize;
        let mut stagnation = 0u32;
        while interval > 0 && self.vectors < self.config.max_vectors {
            for _ in 0..interval {
                if self.vectors >= self.config.max_vectors {
                    break;
                }
                tr.trace = self.vectors + 1;
                let root = tr.open(Name::Vector);
                let seq = &mut self.sequencer;
                let item = tr.time(Name::NextItem, || seq.next_item());
                self.step(tr, item, root);
            }
            let now = self.cfg.coverage_points();
            if now > last_coverage {
                stagnation = 0;
            } else {
                stagnation += 1;
            }
            last_coverage = now;
            if stagnation > self.config.threshold {
                tr.trace = self.vectors + 1;
                let root = tr.open(Name::Episode);
                self.symbolic_guidance(tr, counts);
                tr.close(root);
                stagnation = 0;
            }
        }
        counts.vectors += self.vectors;
    }

    fn run_baseline(&mut self, tr: &mut Tracer, counts: &mut Counts) {
        let len = self.config.testcase_len.max(1);
        while self.vectors < self.config.max_vectors {
            tr.trace = self.vectors + 1;
            let root = tr.open(Name::Case);
            self.full_reset(tr);
            let seq = &mut self.sequencer;
            let case: Vec<SequenceItem> = (0..len)
                .map(|_| tr.time(Name::NextItem, || seq.next_item()))
                .collect();
            tr.close(root);
            for item in case {
                if self.vectors >= self.config.max_vectors {
                    break;
                }
                tr.trace = self.vectors + 1;
                let root = tr.open(Name::Vector);
                self.step(tr, item, root);
            }
        }
        counts.vectors += self.vectors;
    }

    fn full_reset(&mut self, tr: &mut Tracer) {
        let cycles = self.config.reset_cycles;
        let sim = &mut self.sim;
        tr.time(Name::Reenter, || sim.reenter(Reentry::FullReset { cycles }));
        self.cfg.note_reset();
        self.checker.reset_history();
    }

    fn take_snapshot(&mut self, tr: &mut Tracer, node: NodeId) {
        let Replica {
            cfg,
            snap_order,
            snap_ids,
            sim,
            store,
            ..
        } = self;
        let parent = tr
            .time(Name::Ancestor, || {
                cfg.nearest_ancestor(node, snap_order.iter().copied())
            })
            .and_then(|n| snap_ids.get(&n).copied());
        let fork = tr.time(Name::Fork, || sim.fork(store, parent));
        snap_ids.insert(node, fork.id);
        snap_order.push(node);
        while store.over_budget() && snap_order.len() > 1 {
            let victim = snap_order.remove(0);
            let id = snap_ids.remove(&victim).expect("order and ids agree");
            tr.time(Name::Evict, || store.evict(id));
        }
    }

    fn symbolic_guidance(&mut self, tr: &mut Tracer, counts: &mut Counts) {
        if !self.config.use_solver {
            return;
        }
        if self.engine.is_none() {
            let design = Arc::clone(&self.design);
            let mut engine = tr.time(Name::EngineNew, || SymbolicEngine::new(design));
            engine.set_collector(Some(Arc::clone(&self.telemetry)));
            self.engine = Some(engine);
        }
        let cfg = &self.cfg;
        let fanout = self.config.checkpoint_fanout;
        let mut candidates = tr.time(Name::Frontier, || cfg.checkpoints(fanout));
        if let Some(cur) = self.cfg.current() {
            if !candidates.contains(&cur) {
                candidates.push(cur);
            }
        }
        for cp in candidates {
            self.rollback_to(tr, cp);
            if self.try_solve(tr, counts, Some(cp)) {
                return;
            }
        }
        self.full_reset(tr);
        self.try_solve(tr, counts, None);
    }

    fn rollback_to(&mut self, tr: &mut Tracer, node: NodeId) {
        let Replica {
            cfg, snap_order, ..
        } = self;
        let ancestor = tr.time(Name::Ancestor, || {
            cfg.nearest_ancestor(node, snap_order.iter().copied())
        });
        let path: Vec<LogicVec> = match ancestor {
            Some(anc) => {
                let id = self.snap_ids[&anc];
                let Replica { sim, store, .. } = self;
                tr.time(Name::Reenter, || {
                    sim.reenter(Reentry::Snapshot { store, id })
                });
                self.cfg.note_rollback(anc);
                let from = self.cfg.path_len(anc);
                self.cfg.replay_suffix(node, from).to_vec()
            }
            None => {
                let cycles = self.config.reset_cycles;
                let sim = &mut self.sim;
                tr.time(Name::Reenter, || sim.reenter(Reentry::FullReset { cycles }));
                self.cfg.note_reset();
                self.cfg.replay_sequence(node).to_vec()
            }
        };
        let replayed = !path.is_empty();
        for word in path {
            let Replica { sim, cfg, .. } = self;
            tr.time(Name::Replay, || {
                sim.apply_input_word(&word);
                sim.step();
            });
            let prov = Provenance::random(self.vectors);
            tr.time(Name::Observe, || {
                cfg.observe(sim.values(), &word, sim.cycle(), prov)
            });
        }
        if replayed {
            self.take_snapshot(tr, node);
        }
        self.checker.reset_history();
    }

    /// One goal round from the current state; returns whether the
    /// episode ends (a goal was reached or a budget ran out).
    fn try_solve(&mut self, tr: &mut Tracer, counts: &mut Counts, cp: Option<NodeId>) -> bool {
        let mut budget = Budget::unlimited();
        if let Some(conflicts) = self.config.solver_budget {
            budget = budget.with_conflicts(conflicts);
        }
        budget = budget.escalate(1u64 << self.escalation.min(62));
        let per_round = self.config.targets_per_round;
        let cfg = &self.cfg;
        let targets: Vec<(SignalId, LogicVec)> = tr.time(Name::Frontier, || {
            let regs = cfg.control_registers();
            (0..regs.len())
                .flat_map(|i| {
                    cfg.unseen_values(i, per_round)
                        .into_iter()
                        .map(move |v| (regs[i], v))
                })
                .collect()
        });
        let mut tried = 0usize;
        for (reg, value) in targets {
            if tried >= per_round {
                return false;
            }
            let key = (cp, reg, value.clone());
            if self.neg_cache.contains(&key) {
                continue;
            }
            tried += 1;
            let engine = self.engine.as_ref().expect("built by the episode");
            let state = self.sim.values();
            let depth = self.config.solve_depth;
            let result = tr.time(Name::Solve, || {
                engine.solve_reach_profiled(state, &[(reg, value)], depth, &budget)
            });
            counts.solves += 1;
            if let Ok((_, stats)) = &result {
                counts.conflicts += stats.spent.conflicts;
                counts.decisions += stats.spent.decisions;
            }
            match result {
                Ok((ReachOutcome::Reached(seq), _)) => {
                    counts.sat += 1;
                    let items: Vec<SequenceItem> = seq
                        .iter()
                        .map(|a| SequenceItem::new(a.to_word(&self.design)))
                        .collect();
                    self.sequencer.clear_replay();
                    self.sequencer.push_replay(items);
                    self.escalation = 0;
                    return true;
                }
                Ok((ReachOutcome::Exhausted { .. }, _)) => {
                    counts.exhausted += 1;
                    self.neg_cache.insert(key);
                    if self.escalation < self.config.escalation_cap {
                        self.escalation += 1;
                    }
                    return true;
                }
                Ok((ReachOutcome::Unreachable, _)) | Err(_) => {
                    self.neg_cache.insert(key);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{prepare, run_one};
    use crate::workload::{Campaign, Source};
    use symbfuzz_core::FuzzConfig;

    #[test]
    fn the_drive_reproduces_a_symbfuzz_campaign() {
        let p = prepare(&[Campaign {
            source: Source::Fabric,
            strategy: Strategy::SymbFuzz,
            config: FuzzConfig {
                interval: 100,
                threshold: 1,
                max_vectors: 500,
                solver_budget: Some(10_000),
                escalation_cap: 1,
                ..FuzzConfig::default()
            },
        }]);
        let trace = drive(&p);
        let campaign = run_one(&p[0], false).expect("campaign runs").result;
        assert_eq!(trace.counts.coverage, vec![campaign.coverage_points]);
        assert_eq!(trace.counts.vectors, 500);
        assert!(trace.counts.solves > 0, "no stagnation episode was driven");
        // Every span closes inside its parent, and self times add up
        // to the root spans' total.
        for s in &trace.spans {
            assert!(s.end >= s.start);
            if let Some(par) = s.parent {
                let par = &trace.spans[par as usize];
                assert!(par.start <= s.start && s.end <= par.end);
            }
        }
        let (layers, phases, total) = trace.self_time_split();
        let sum = |v: &[(&str, u64)]| v.iter().map(|(_, t)| t).sum::<u64>();
        assert_eq!(sum(&layers), total);
        assert_eq!(sum(&phases), total);
    }
}
