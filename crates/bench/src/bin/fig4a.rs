//! Regenerates Figure 4a: coverage vs input vectors for all five
//! strategies.
//!
//! Usage: `fig4a [budget] [bench_index] [--jobs N] [--log-level LEVEL]
//! [--trace-out PATH] [--solver-budget N] [--solve-wall-ms MS]
//! [--snapshot-budget BYTES] [--introspect] [--sample-every N
//! [--flight-out PATH] [--status-out PATH]] [--incremental]
//! [--solver-cache-budget BYTES] [--affinity]` (defaults 40000, 0; the
//! shared flags are described in `symbfuzz_bench::args`).

use symbfuzz_bench::experiments::coverage_race;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_fig4a_csv, save_json};
use symbfuzz_telemetry::info;

fn main() {
    let args = parse_bench_args("fig4a [budget] [bench_index]");
    let budget: u64 = args.pos(0, 40_000);
    let bench: usize = args.pos(1, 0);
    let race = coverage_race(bench, budget, 0x46A, &args.run);
    println!(
        "# Figure 4a — coverage vs input vectors on `{}`\n",
        race.design
    );
    print!("{}", render_fig4a_csv(&race));
    info!("final coverage:");
    for (name, series) in &race.curves {
        info!(
            "  {:12} {}",
            name,
            series.last().map(|s| s.coverage).unwrap_or(0)
        );
    }
    save_json("fig4a", &race).expect("write results/fig4a.json");
    args.run.flush();
}
