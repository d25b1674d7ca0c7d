//! Regenerates Table 2: the detection matrix across all four fuzzers.
//!
//! Usage: `table2 [budget] [--jobs N] [--log-level LEVEL] [--trace-out
//! PATH] [--solver-budget N] [--solve-wall-ms MS] [--snapshot-budget
//! BYTES] [--introspect] [--sample-every N [--flight-out PATH]
//! [--status-out PATH]] [--incremental] [--solver-cache-budget BYTES]
//! [--affinity]` (default budget 30000; the shared flags are described
//! in `symbfuzz_bench::args`).

use symbfuzz_bench::experiments::detection_matrix;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_table2, save_json};

fn main() {
    let args = parse_bench_args("table2 [budget]");
    let budget: u64 = args.pos(0, 30_000);
    let m = detection_matrix(14, budget, &args.run);
    println!("# Table 2 — bug detection by fuzzer (budget {budget}; paper value in parens)\n");
    println!("{}", render_table2(&m));
    save_json("table2", &m).expect("write results/table2.json");
    args.run.flush();
}
