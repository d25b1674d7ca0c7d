//! Regenerates Figure 4b: coverage variance across repeated runs in the
//! mid-campaign window.
//!
//! Usage: `fig4b [budget] [runs] [bench_index] [--jobs N] [--log-level
//! LEVEL] [--trace-out PATH] [--solver-budget N] [--solve-wall-ms MS]
//! [--snapshot-budget BYTES] [--introspect] [--sample-every N
//! [--flight-out PATH] [--status-out PATH]] [--incremental]
//! [--solver-cache-budget BYTES] [--affinity]` (defaults 10000, 4, 0;
//! the shared flags are described in `symbfuzz_bench::args`).

use symbfuzz_bench::experiments::variance_profile;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_fig4b_csv, save_json};

fn main() {
    let args = parse_bench_args("fig4b [budget] [runs] [bench_index]");
    let budget: u64 = args.pos(0, 10_000);
    let runs: u64 = args.pos(1, 4);
    let bench: usize = args.pos(2, 0);
    let pts = variance_profile(bench, budget, runs, &args.run);
    println!("# Figure 4b — coverage variance over {runs} runs\n");
    print!("{}", render_fig4b_csv(&pts));
    save_json("fig4b", &pts).expect("write results/fig4b.json");
    args.run.flush();
}
