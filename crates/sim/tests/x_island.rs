//! X-island escape-hatch coverage for the compiled settle kernel.
//!
//! The compiled VM's fast path is only entered when a process's whole
//! input cone is two-state; these tests pin down the three regimes —
//! all-X power-up, X injected mid-run at a cone boundary, and a design
//! that never leaves four-state — asserting bit-identical values
//! against the global-fixpoint `Simulator::reference` oracle throughout,
//! plus the fast-path / escape telemetry that `tracedump` reports.

use std::sync::Arc;
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_netlist::elaborate_src;
use symbfuzz_sim::{Reentry, Simulator};
use symbfuzz_telemetry::{Collector, Counter, Gauge};

fn pair(src: &str, top: &str) -> (Simulator, Simulator) {
    let design = Arc::new(elaborate_src(src, top).unwrap());
    (
        Simulator::new(Arc::clone(&design)),
        Simulator::reference(design),
    )
}

const COUNTER_SRC: &str = "module m(input clk, input rst_n, input [7:0] d,
                                    output logic [7:0] q, output [7:0] y, output p);
                             assign y = (q ^ d) + 8'd3;
                             assign p = ^y;
                             always_ff @(posedge clk or negedge rst_n)
                               if (!rst_n) q <= 8'd0; else q <= q + d;
                           endmodule";

/// All-X reset: before any reset the register cone is X, so every
/// dependent cone escapes to the interpreter; after reset the design
/// is two-state and the fast path takes over. Values match fixpoint
/// bit for bit on both sides of the transition.
#[test]
fn all_x_reset_escapes_then_fast_path() {
    let (mut cmp, mut fix) = pair(COUNTER_SRC, "m");
    let telemetry = Arc::new(Collector::deterministic());
    cmp.set_collector(Some(Arc::clone(&telemetry)));

    let q = cmp.design().signal_by_name("q").unwrap();
    let y = cmp.design().signal_by_name("y").unwrap();
    assert!(cmp.get(q).has_unknown(), "registers power up X");
    assert!(cmp.get(y).has_unknown(), "X propagates into the comb cone");

    // Un-reset cycles: X everywhere that q reaches, no fast-path use
    // for those cones, still bit-identical to fixpoint.
    for _ in 0..3 {
        cmp.step();
        fix.step();
        assert_eq!(cmp.values(), fix.values());
    }
    let escapes_during_x = telemetry.get(Counter::SettleEscapes);
    assert!(escapes_during_x > 0, "X cones must escape");

    // Drive the input to a definite value, then reset: the whole cone
    // becomes two-state.
    let d = cmp.design().signal_by_name("d").unwrap();
    cmp.set_input(d, &LogicVec::from_u64(8, 5)).unwrap();
    fix.set_input(d, &LogicVec::from_u64(8, 5)).unwrap();
    cmp.reenter(Reentry::FullReset { cycles: 2 });
    fix.reenter(Reentry::FullReset { cycles: 2 });
    assert_eq!(cmp.values(), fix.values());
    assert!(!cmp.get(y).has_unknown(), "reset clears the cone");

    let fast_before = telemetry.get(Counter::SettleFastPath);
    let escapes_before = telemetry.get(Counter::SettleEscapes);
    for i in 0..8u64 {
        cmp.set_input(d, &LogicVec::from_u64(8, i * 37)).unwrap();
        fix.set_input(d, &LogicVec::from_u64(8, i * 37)).unwrap();
        cmp.step();
        fix.step();
        assert_eq!(cmp.values(), fix.values(), "post-reset cycle {i}");
    }
    assert!(
        telemetry.get(Counter::SettleFastPath) > fast_before,
        "two-state cones take the fast path after reset"
    );
    assert_eq!(
        telemetry.get(Counter::SettleEscapes),
        escapes_before,
        "no escapes once the design is fully two-state"
    );
}

/// X injected mid-campaign at a cone boundary: one input going X
/// poisons exactly the cones reading it (they escape, and the gauge
/// records the island) while untouched cones stay on the fast path;
/// clearing the X lets the escaped cones resume the fast path.
#[test]
fn mid_campaign_x_injection_escapes_only_the_island() {
    let src = "module m(input clk, input rst_n, input [3:0] a, input [3:0] b,
                        output logic [3:0] qa, output logic [3:0] qb,
                        output [3:0] ya, output [3:0] yb);
                 assign ya = qa ^ a;
                 assign yb = qb + b;
                 always_ff @(posedge clk or negedge rst_n)
                   if (!rst_n) qa <= 4'd0; else qa <= qa + a;
                 always_ff @(posedge clk or negedge rst_n)
                   if (!rst_n) qb <= 4'd0; else qb <= qb + b;
               endmodule";
    let (mut cmp, mut fix) = pair(src, "m");
    let telemetry = Arc::new(Collector::deterministic());
    cmp.set_collector(Some(Arc::clone(&telemetry)));

    // Drive both inputs to definite values before reset; the power-up
    // settle still escapes (registers are X) and pins the gauge at its
    // high-water: both comb cones escaped at once.
    let a = cmp.design().signal_by_name("a").unwrap();
    let b = cmp.design().signal_by_name("b").unwrap();
    let ya = cmp.design().signal_by_name("ya").unwrap();
    let yb = cmp.design().signal_by_name("yb").unwrap();
    cmp.set_input(a, &LogicVec::from_u64(4, 1)).unwrap();
    cmp.set_input(b, &LogicVec::from_u64(4, 2)).unwrap();
    fix.set_input(a, &LogicVec::from_u64(4, 1)).unwrap();
    fix.set_input(b, &LogicVec::from_u64(4, 2)).unwrap();
    cmp.reenter(Reentry::FullReset { cycles: 1 });
    fix.reenter(Reentry::FullReset { cycles: 1 });
    assert_eq!(telemetry.gauge(Gauge::XIslandCones), 2, "power-up island");

    let esc0 = telemetry.get(Counter::SettleEscapes);
    for i in 0..4u64 {
        cmp.set_input(a, &LogicVec::from_u64(4, i)).unwrap();
        cmp.set_input(b, &LogicVec::from_u64(4, i + 1)).unwrap();
        fix.set_input(a, &LogicVec::from_u64(4, i)).unwrap();
        fix.set_input(b, &LogicVec::from_u64(4, i + 1)).unwrap();
        cmp.step();
        fix.step();
        assert_eq!(cmp.values(), fix.values());
    }
    assert_eq!(
        telemetry.get(Counter::SettleEscapes),
        esc0,
        "two-state steady state runs entirely on the fast path"
    );

    // Inject X on `a` mid-run: the a-cone escapes, the b-cone keeps
    // the fast path, and the fixpoint reference agrees bit for bit.
    cmp.set_input(a, &LogicVec::xes(4)).unwrap();
    fix.set_input(a, &LogicVec::xes(4)).unwrap();
    let fast_before = telemetry.get(Counter::SettleFastPath);
    cmp.step();
    fix.step();
    assert_eq!(cmp.values(), fix.values(), "X-injection cycle");
    assert!(cmp.get(ya).has_unknown(), "the a-island carries the X");
    assert!(!cmp.get(yb).has_unknown(), "the b cone is unaffected");
    assert!(telemetry.get(Counter::SettleEscapes) > esc0);
    assert_eq!(
        telemetry.gauge(Gauge::XIslandCones),
        2,
        "a one-cone island does not raise the two-cone high-water"
    );
    assert!(
        telemetry.get(Counter::SettleFastPath) > fast_before,
        "cones outside the island stay on the fast path"
    );

    // Clear the X (and reset to flush it out of qa): the fast path
    // resumes with no further escapes once the island drains.
    cmp.set_input(a, &LogicVec::from_u64(4, 2)).unwrap();
    fix.set_input(a, &LogicVec::from_u64(4, 2)).unwrap();
    cmp.reenter(Reentry::FullReset { cycles: 1 });
    fix.reenter(Reentry::FullReset { cycles: 1 });
    let escapes_after_clear = telemetry.get(Counter::SettleEscapes);
    for _ in 0..4 {
        cmp.step();
        fix.step();
        assert_eq!(cmp.values(), fix.values());
    }
    assert_eq!(
        telemetry.get(Counter::SettleEscapes),
        escapes_after_clear,
        "no escapes after the island is cleared"
    );
}

/// A design that never leaves four-state (no reset branch at all):
/// every settle escapes, the fast path never fires, and values still
/// match the fixpoint reference exactly — the escape hatch alone
/// carries the campaign.
#[test]
fn never_two_state_design_always_escapes() {
    let src = "module m(input clk, input [3:0] d, output logic [3:0] q, output [3:0] y);
                 assign y = q ^ d;
                 always_ff @(posedge clk) q <= q + d;
               endmodule";
    let (mut cmp, mut fix) = pair(src, "m");
    let telemetry = Arc::new(Collector::deterministic());
    cmp.set_collector(Some(Arc::clone(&telemetry)));

    let d = cmp.design().signal_by_name("d").unwrap();
    let q = cmp.design().signal_by_name("q").unwrap();
    for i in 0..6u64 {
        cmp.set_input(d, &LogicVec::from_u64(4, i)).unwrap();
        fix.set_input(d, &LogicVec::from_u64(4, i)).unwrap();
        cmp.step();
        fix.step();
        assert_eq!(cmp.values(), fix.values(), "cycle {i}");
    }
    // q never resets, so it (and its cone) stays all-X forever.
    assert!(cmp.get(q).iter_bits().all(|bit| bit == Bit::X));
    assert!(telemetry.get(Counter::SettleEscapes) > 0);
    // The y-cone reads q: it can never take the fast path. The only
    // fast-path candidates are cones reading just `d`; here there are
    // none, so the counter stays zero.
    assert_eq!(telemetry.get(Counter::SettleFastPath), 0);
}
