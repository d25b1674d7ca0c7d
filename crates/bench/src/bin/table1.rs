//! Regenerates Table 1: bugs detected by SymbFuzz and the input
//! vectors needed.
//!
//! Usage: `table1 [budget] [--jobs N] [--log-level LEVEL] [--trace-out
//! PATH] [--solver-budget N] [--solve-wall-ms MS] [--snapshot-budget
//! BYTES] [--introspect] [--sample-every N [--flight-out PATH]
//! [--status-out PATH]] [--incremental] [--solver-cache-budget BYTES]
//! [--affinity]` (default budget 50000; the shared flags are described
//! in `symbfuzz_bench::args`).

use symbfuzz_bench::experiments::table1_rows;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_table1, save_json};

fn main() {
    let args = parse_bench_args("table1 [budget]");
    let budget: u64 = args.pos(0, 50_000);
    let rows = table1_rows(budget, &args.run);
    println!(
        "# Table 1 — detected bugs (budget {budget} vectors, {} jobs)\n",
        args.run.jobs
    );
    println!("{}", render_table1(&rows));
    let found = rows.iter().filter(|r| r.measured_vectors.is_some()).count();
    println!("detected {found}/14 (paper: 14/14 at much larger budgets)");
    save_json("table1", &rows).expect("write results/table1.json");
    args.run.flush();
}
