//! Cycle-based four-state RTL simulator.
//!
//! This crate stands in for the commercial event-driven simulator
//! (Xilinx Vivado) used by the SymbFuzz paper. It executes an
//! elaborated [`Design`](symbfuzz_netlist::Design) cycle by cycle with
//! IEEE-1800-style four-state semantics:
//!
//! * registers power up as `X` (§4.4 of the paper) and only leave that
//!   state through a reset branch or an assignment of a defined value;
//! * combinational processes are evaluated to a fixpoint each delta —
//!   in one level-order sweep of compiled bytecode with a per-cone
//!   four-state escape, checked against the global-fixpoint
//!   [`Simulator::reference`] oracle;
//! * non-blocking assignments are committed after every sequential
//!   process of a clock phase has run;
//! * an `if` with an `X` condition takes the else path and a `case`
//!   with an `X` subject falls into `default` (matching common
//!   simulator behaviour, documented deviation: no X-pessimism merge
//!   of both branches).
//!
//! It also provides the paper's supporting machinery: reset application
//! driven by the [reset tree](symbfuzz_netlist::ResetTree) including
//! *partial* resets (§4.5), copy-on-write checkpoint/rollback through
//! the paged [`SnapshotStore`] behind the unified
//! [`Simulator::reenter`] entry point, per-branch outcome
//! instrumentation (the substrate for both the paper's edge coverage
//! and the RFuzz-style mux coverage baseline), and a VCD dump writer
//! (Algorithm 1 line 8 "Dump VCD").
//!
//! # Examples
//!
//! ```
//! use symbfuzz_logic::LogicVec;
//! use symbfuzz_sim::Reentry;
//!
//! let d = symbfuzz_netlist::elaborate_src(
//!     "module counter(input clk, input rst_n, output logic [3:0] q);
//!        always_ff @(posedge clk or negedge rst_n)
//!          if (!rst_n) q <= 4'd0; else q <= q + 4'd1;
//!      endmodule", "counter")?;
//! let mut sim = symbfuzz_sim::Simulator::new(d.into());
//! sim.reenter(Reentry::FullReset { cycles: 2 });
//! for _ in 0..5 { sim.step(); }
//! let q = sim.design().signal_by_name("q").unwrap();
//! assert_eq!(sim.get(q).to_u64(), Some(5));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod profiler;
mod simulator;
mod snapstore;
mod vcd;
mod vcd_read;
mod vm;

pub use profiler::{ConeProfile, VmProfile, VmProfiler};
pub use simulator::{
    BranchOutcome, Reentry, ReentryMechanism, ReentryOutcome, SimError, Simulator,
};
pub use snapstore::{ForkOutcome, SnapshotId, SnapshotStore, PAGE_SIGNALS};
pub use vcd::VcdWriter;
pub use vcd_read::{read_vcd, VcdParseError, VcdTrace};
