//! Watched-signal property checker (the UVM-monitor-side scoreboard).

use crate::ast::{Frames, Property};
use std::collections::VecDeque;
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::SignalId;

/// A recorded property violation (paper §4.9: "the simulator logs the
/// property name \[and\] simulation timestamp").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated property.
    pub property: String,
    /// Simulation cycle at which it failed.
    pub cycle: u64,
}

/// Checks a set of properties against every sampled cycle and records
/// the first failure of each.
///
/// Feed one full value frame per clock cycle via
/// [`on_cycle`](Self::on_cycle). The current cycle is read straight from
/// that frame. History is a window over the *watched* signals only —
/// those the properties reference — holding as many past cycles as the
/// deepest `$past`/`$stable`/`$rose`/`$fell` needs, and nothing when no
/// property looks back. A property that has failed is not evaluated
/// again.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use symbfuzz_props::{Property, PropertyChecker};
/// use symbfuzz_sim::{Reentry, Simulator};
///
/// let d = Arc::new(symbfuzz_netlist::elaborate_src(
///     "module m(input clk, input rst_n, input a, output logic b);
///        always_ff @(posedge clk or negedge rst_n)
///          if (!rst_n) b <= 1'b0; else b <= a;
///      endmodule", "m")?);
/// let p = Property::parse("b_follows_a", "b == $past(a)", &d)?;
/// let mut checker = PropertyChecker::new(vec![p]);
/// let mut sim = Simulator::new(Arc::clone(&d));
/// sim.reenter(Reentry::FullReset { cycles: 1 });
/// let a = d.signal_by_name("a").unwrap();
/// sim.set_input(a, &symbfuzz_logic::LogicVec::from_u64(1, 1))?;
/// sim.settle()?;
/// checker.on_cycle(sim.cycle(), sim.values());
/// for _ in 0..10 {
///     sim.step();
///     checker.on_cycle(sim.cycle(), sim.values());
/// }
/// assert!(checker.violations().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PropertyChecker {
    properties: Vec<Property>,
    /// Referenced signals, sorted and deduplicated; the slot order of
    /// every history frame.
    watched: Vec<SignalId>,
    /// Signal index → slot in a history frame (only watched entries
    /// are meaningful).
    slot: Vec<u32>,
    /// Past frames of watched values, oldest first, at most `max_depth`.
    history: VecDeque<Vec<LogicVec>>,
    max_depth: usize,
    /// Whether each property has failed already.
    fired: Vec<bool>,
    violations: Vec<Violation>,
    checked_cycles: u64,
}

impl PropertyChecker {
    /// Builds a checker for the given properties.
    pub fn new(properties: Vec<Property>) -> PropertyChecker {
        let max_depth = properties
            .iter()
            .map(|p| p.history_depth() as usize)
            .max()
            .unwrap_or(0);
        let mut watched: Vec<SignalId> = properties.iter().flat_map(Property::signals).collect();
        watched.sort_unstable();
        watched.dedup();
        let mut slot = vec![0; watched.last().map_or(0, |s| s.index() + 1)];
        for (i, s) in watched.iter().enumerate() {
            slot[s.index()] = i as u32;
        }
        PropertyChecker {
            fired: vec![false; properties.len()],
            properties,
            watched,
            slot,
            history: VecDeque::with_capacity(max_depth),
            max_depth,
            violations: Vec::new(),
            checked_cycles: 0,
        }
    }

    /// The properties being monitored.
    pub fn properties(&self) -> &[Property] {
        &self.properties
    }

    /// The first failure of each property that has failed, in
    /// detection order: at most one record per property.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Names of properties that have failed (first failure per
    /// property), sorted and deduplicated.
    pub fn violated_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .violations
            .iter()
            .map(|v| v.property.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Total cycles checked.
    pub fn checked_cycles(&self) -> u64 {
        self.checked_cycles
    }

    /// Clears history (use after a checkpoint restore so `$past` does
    /// not see across the discontinuity) while keeping violations.
    pub fn reset_history(&mut self) {
        self.history.clear();
    }

    /// Ingests one sampled frame and evaluates, at this cycle, every
    /// property that has not failed yet. Returns the properties that
    /// fail here for the first time; later failures of the same
    /// property are neither returned nor recorded.
    pub fn on_cycle(&mut self, cycle: u64, values: &[LogicVec]) -> Vec<Violation> {
        self.checked_cycles += 1;
        if self.violations.len() == self.properties.len() {
            // Every property has fired: nothing left to evaluate.
            return Vec::new();
        }
        let window = Window {
            past: &self.history,
            now: values,
            slot: &self.slot,
        };
        let mut new = Vec::new();
        for (p, fired) in self.properties.iter().zip(&mut self.fired) {
            if !*fired && !p.holds_in(&window) {
                *fired = true;
                new.push(Violation {
                    property: p.name().to_string(),
                    cycle,
                });
            }
        }
        self.violations.extend_from_slice(&new);
        if self.max_depth > 0 {
            if self.history.len() == self.max_depth {
                self.history.pop_front();
            }
            let frame = self.watched.iter().map(|s| values[s.index()].clone());
            self.history.push_back(frame.collect());
        }
        new
    }
}

/// One cycle as the properties see it: the watched-signal history
/// followed by the full current frame.
struct Window<'a> {
    past: &'a VecDeque<Vec<LogicVec>>,
    now: &'a [LogicVec],
    slot: &'a [u32],
}

impl Frames for Window<'_> {
    fn len(&self) -> usize {
        self.past.len() + 1
    }

    fn get(&self, t: usize, s: SignalId) -> &LogicVec {
        match self.past.get(t) {
            Some(frame) => &frame[self.slot[s.index()] as usize],
            None => &self.now[s.index()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use symbfuzz_logic::LogicVec;
    use symbfuzz_netlist::elaborate_src;
    use symbfuzz_sim::{Reentry, Simulator};

    /// A UART-like DUV with the paper's Bug 11: parity error raised
    /// even when parity checking is disabled.
    const BUGGY_UART: &str = "
        module uart_rx(input clk, input rst_n, input [7:0] rx_data,
                       input parity_bit, input parity_enable, input valid,
                       output logic rx_parity_err);
          always_ff @(posedge clk or negedge rst_n)
            if (!rst_n) rx_parity_err <= 1'b0;
            else rx_parity_err <= valid & ((^rx_data) ^ parity_bit);
        endmodule";

    fn uart() -> (Arc<symbfuzz_netlist::Design>, Simulator) {
        let d = Arc::new(elaborate_src(BUGGY_UART, "uart_rx").unwrap());
        let sim = Simulator::new(Arc::clone(&d));
        (d, sim)
    }

    #[test]
    fn catches_the_uart_parity_bug() {
        let (d, mut sim) = uart();
        // Listing 26: rx_parity_err |-> parity_enable.
        let p = Property::parse("uart_parity", "rx_parity_err |-> parity_enable", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p]);
        sim.reenter(Reentry::FullReset { cycles: 1 });
        // Odd-parity mismatch with parity disabled: the bug fires.
        for (sig, val) in [
            ("rx_data", 0b0000_0001u64),
            ("parity_bit", 0),
            ("parity_enable", 0),
            ("valid", 1),
        ] {
            let s = d.signal_by_name(sig).unwrap();
            sim.set_input(s, &LogicVec::from_u64(d.signal(s).width, val))
                .unwrap();
        }
        sim.step();
        let v = checker.on_cycle(sim.cycle(), sim.values());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "uart_parity");
        assert_eq!(checker.violated_names(), vec!["uart_parity"]);
    }

    #[test]
    fn vacuous_when_antecedent_false() {
        let (d, mut sim) = uart();
        let p = Property::parse("uart_parity", "rx_parity_err |-> parity_enable", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p]);
        sim.reenter(Reentry::FullReset { cycles: 1 });
        // Matching parity: no error flag, property vacuously true.
        for (sig, val) in [
            ("rx_data", 3u64),
            ("parity_bit", 0),
            ("parity_enable", 0),
            ("valid", 1),
        ] {
            let s = d.signal_by_name(sig).unwrap();
            sim.set_input(s, &LogicVec::from_u64(d.signal(s).width, val))
                .unwrap();
        }
        for _ in 0..5 {
            sim.step();
            checker.on_cycle(sim.cycle(), sim.values());
        }
        assert!(checker.violations().is_empty());
        assert_eq!(checker.checked_cycles(), 5);
    }

    #[test]
    fn isunknown_detects_undefined_fsm_state() {
        // Bug 2 pattern (Listing 7): register left X.
        let d = Arc::new(
            elaborate_src(
                "module m(input clk, input [1:0] d, output logic [1:0] q);
                   always_ff @(posedge clk) q <= d;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let p = Property::parse("defined", "!$isunknown(q)", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p]);
        let mut sim = Simulator::new(Arc::clone(&d));
        // No reset: q is X on the first sampled cycle.
        checker.on_cycle(sim.cycle(), sim.values());
        assert_eq!(checker.violations().len(), 1);
        // Drive a defined value; violation stops recurring.
        let din = d.signal_by_name("d").unwrap();
        sim.set_input(din, &LogicVec::from_u64(2, 1)).unwrap();
        sim.step();
        checker.on_cycle(sim.cycle(), sim.values());
        assert_eq!(checker.violations().len(), 1);
    }

    #[test]
    fn past_with_history_reset() {
        let d = Arc::new(
            elaborate_src(
                "module m(input clk, input rst_n, input a, output logic b);
                   always_ff @(posedge clk or negedge rst_n)
                     if (!rst_n) b <= 1'b0; else b <= a;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let p = Property::parse("follow", "b == $past(a)", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p]);
        let mut sim = Simulator::new(Arc::clone(&d));
        sim.reenter(Reentry::FullReset { cycles: 1 });
        let a = d.signal_by_name("a").unwrap();
        // Hold `a` at a defined constant: `b` samples it at each edge,
        // so b(t) == a(t-1) holds from the second frame on and the
        // first frame is vacuous ($past out of history).
        sim.set_input(a, &LogicVec::from_u64(1, 1)).unwrap();
        sim.settle().unwrap();
        checker.on_cycle(sim.cycle(), sim.values());
        for _ in 0..8u64 {
            sim.step();
            checker.on_cycle(sim.cycle(), sim.values());
        }
        assert!(checker.violations().is_empty());
        // After a snapshot restore, history must be cleared or $past
        // would compare across the discontinuity.
        checker.reset_history();
        checker.on_cycle(sim.cycle(), sim.values());
        assert!(checker.violations().is_empty()); // vacuous on first frame
    }

    /// A property failing on every cycle is recorded once: the log
    /// must not grow with the campaign.
    #[test]
    fn persistent_failure_is_recorded_once() {
        let d = elaborate_src(
            "module m(input clk, input a, output logic b);
               always_ff @(posedge clk) b <= a;
             endmodule",
            "m",
        )
        .unwrap();
        let p = Property::parse("a_follows_b", "a == $past(b)", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p]);
        let mut values = vec![LogicVec::zeros(1); d.signals.len()];
        values[d.signal_by_name("b").unwrap().index()] = LogicVec::from_u64(1, 1);
        checker.on_cycle(0, &values); // $past out of history: vacuous
        let mut returned = Vec::new();
        for cycle in 1..=10_000 {
            returned.extend(checker.on_cycle(cycle, &values));
        }
        let first = Violation {
            property: "a_follows_b".to_string(),
            cycle: 1,
        };
        assert_eq!(returned, vec![first.clone()]);
        assert_eq!(checker.violations(), &[first]);
        assert_eq!(checker.checked_cycles(), 10_001);
    }

    #[test]
    fn multiple_properties_tracked_independently() {
        let (d, mut sim) = uart();
        let p1 = Property::parse("parity", "rx_parity_err |-> parity_enable", &d).unwrap();
        let p2 = Property::parse("always_true", "1'b1", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p1, p2]);
        sim.reenter(Reentry::FullReset { cycles: 1 });
        for (sig, val) in [
            ("rx_data", 1u64),
            ("parity_bit", 0),
            ("parity_enable", 0),
            ("valid", 1),
        ] {
            let s = d.signal_by_name(sig).unwrap();
            sim.set_input(s, &LogicVec::from_u64(d.signal(s).width, val))
                .unwrap();
        }
        sim.step();
        checker.on_cycle(sim.cycle(), sim.values());
        assert_eq!(checker.violated_names(), vec!["parity"]);
    }
}
