//! Settle-engine throughput: simulated cycles per second of the
//! compiled word-level VM on every benchmark design. Emits
//! `results/BENCH_sim.json`; earlier row-sets found in that file —
//! including the retired fixpoint / levelized / compiled A/B/C table —
//! are preserved under `history` so the performance trajectory across
//! revisions stays auditable.
//!
//! Usage: `simbench [cycles] [--log-level LEVEL]` (default 20000
//! cycles).

use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use std::time::Instant;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::save_json;
use symbfuzz_designs::{bug_benchmarks, processor_benchmarks};
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::Design;
use symbfuzz_sim::{Reentry, Simulator};

/// One design's throughput measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SimBenchRow {
    design: String,
    /// Cycles simulated per timed run.
    cycles: u64,
    /// Combinational processes in the schedule.
    comb_procs: u64,
    /// Cyclic schedule units (0 = pure single sweep).
    cyclic_units: u64,
    /// Processes the bytecode compiler lowered (vs interpreted).
    compiled_procs: u64,
    /// Steps/sec under the compiled word-level VM.
    compiled_cps: f64,
}

fn throughput(design: &Arc<Design>, cycles: u64) -> f64 {
    let mut sim = Simulator::new(Arc::clone(design));
    sim.reenter(Reentry::FullReset { cycles: 2 });
    let width = design.fuzz_width().max(1);
    let mut state = 0xBEEFu64;
    // Warm up caches and settle into steady state.
    for _ in 0..200 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        sim.apply_input_word(&LogicVec::from_u64(width.min(64), state));
        sim.step();
    }
    let start = Instant::now();
    for _ in 0..cycles {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        sim.apply_input_word(&LogicVec::from_u64(width.min(64), state));
        sim.step();
    }
    cycles as f64 / start.elapsed().as_secs_f64()
}

/// Prior row-sets to carry forward: whatever `results/BENCH_sim.json`
/// currently holds — a bare row array from before the compiled kernel,
/// or a `{rows, history}` object from this format — flattened into a
/// single chronological list of row-sets.
fn load_history() -> Vec<Value> {
    let mut history = Vec::new();
    if let Ok(text) = std::fs::read_to_string("results/BENCH_sim.json") {
        if let Ok(v) = serde_json::from_str::<Value>(&text) {
            match v {
                Value::Array(_) => history.push(v),
                Value::Object(_) => {
                    if let Ok(Value::Array(h)) = v.field("history") {
                        history.extend(h.iter().cloned());
                    }
                    if let Ok(rows) = v.field("rows") {
                        history.push(rows.clone());
                    }
                }
                _ => {}
            }
        }
    }
    history
}

fn main() {
    let args = parse_bench_args();
    let cycles: u64 = args.pos(0, 20_000);
    let procs = processor_benchmarks();
    let bugs = bug_benchmarks();
    let designs: Vec<(String, Arc<Design>)> = procs
        .iter()
        .map(|b| (b.name.to_string(), b.design().expect("elaborates")))
        .chain(
            bugs.iter()
                .map(|b| (b.name.to_string(), b.design().expect("elaborates"))),
        )
        .collect();

    let mut rows = Vec::new();
    println!("# Simulator settle throughput (compiled VM) — {cycles} cycles per run\n");
    println!("| Design | comb procs | compiled procs | cyc/s |");
    println!("|---|---|---|---|");
    for (name, design) in &designs {
        let sim = Simulator::new(Arc::clone(design));
        let sched = sim.schedule().clone();
        let compiled_procs = sim.compile_stats().compiled as u64;
        drop(sim);
        let row = SimBenchRow {
            design: name.clone(),
            cycles,
            comb_procs: sched.comb_procs() as u64,
            cyclic_units: sched.cyclic_units as u64,
            compiled_procs,
            compiled_cps: throughput(design, cycles),
        };
        println!(
            "| {} | {} | {} | {:.0} |",
            row.design, row.comb_procs, row.compiled_procs, row.compiled_cps
        );
        rows.push(row);
    }
    let out = Value::Object(vec![
        ("rows".into(), rows.to_value()),
        ("history".into(), Value::Array(load_history())),
    ]);
    save_json("BENCH_sim", &out).expect("write results/BENCH_sim.json");
}
