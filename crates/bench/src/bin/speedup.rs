//! Regenerates the §5.3 convergence comparison (the paper's 6.8×
//! speed-up of SymbFuzz over UVM random testing).
//!
//! Usage: `speedup [budget] [bench_index] [--jobs N] [--log-level
//! LEVEL] [--trace-out PATH] [--solver-budget N] [--solve-wall-ms MS]
//! [--snapshot-budget BYTES] [--introspect] [--sample-every N
//! [--flight-out PATH] [--status-out PATH]] [--incremental]
//! [--solver-cache-budget BYTES] [--affinity]` (defaults 40000, 0; the
//! shared flags are described in `symbfuzz_bench::args`).

use symbfuzz_bench::experiments::speedup;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_speedup, save_json};

fn main() {
    let args = parse_bench_args("speedup [budget] [bench_index]");
    let budget: u64 = args.pos(0, 40_000);
    let bench: usize = args.pos(1, 0);
    let s = speedup(bench, budget, &args.run);
    println!("# §5.3 — time-to-coverage speed-up\n");
    println!("{}", render_speedup(&s));
    save_json("speedup", &s).expect("write results/speedup.json");
    args.run.flush();
}
