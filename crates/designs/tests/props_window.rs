//! Property window equivalence: the checker's watched-signal history
//! against full value frames.
//!
//! `PropertyChecker` reads the current cycle straight from the
//! simulator's value table and keeps only the signals its properties
//! reference, for as many past cycles as they look back. The reference
//! below is the plain algorithm: keep whole value tables (trimmed to the
//! deepest look-back) and call `Property::holds` on them. On random
//! traces with resets and history cuts, both must agree on every
//! property's first-failure cycle at every cycle.

use std::sync::Arc;
use symbfuzz_designs::{bug_benchmarks, buggy_soc, processor_benchmarks};
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_netlist::{classify_registers, Design};
use symbfuzz_props::{Property, PropertyChecker};
use symbfuzz_sim::{Reentry, Simulator};

/// Cycles driven per (design, seed) trace.
const CYCLES: u64 = 500;
const SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Properties as (name, source) pairs.
type Props = Vec<(String, String)>;

/// Knuth's MMIX linear congruential generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// True with probability `1 / n`.
    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// First-failure bookkeeping over full frames, via `Property::holds`.
struct Reference {
    properties: Vec<Property>,
    frames: Vec<Vec<LogicVec>>,
    first: Vec<Option<u64>>,
}

impl Reference {
    fn on_cycle(&mut self, cycle: u64, values: &[LogicVec]) {
        let keep = 1 + self
            .properties
            .iter()
            .map(|p| p.history_depth() as usize)
            .max()
            .unwrap_or(0);
        self.frames.push(values.to_vec());
        if self.frames.len() > keep {
            self.frames.remove(0);
        }
        for (p, first) in self.properties.iter().zip(&mut self.first) {
            if first.is_none() && !p.holds(&self.frames) {
                *first = Some(cycle);
            }
        }
    }
}

/// Temporal probes on one control register, so that `$rose`, `$fell`,
/// `$stable`, two-deep `$past` and `|=>` all have properties that fail
/// under random stimulus on every design.
fn probes(design: &Design) -> Props {
    let regs = classify_registers(design).control;
    let Some(r) = regs.first() else {
        return Vec::new();
    };
    let r = &design.signal(*r).name;
    vec![
        ("probe_rose".into(), format!("!$rose({r})")),
        ("probe_fell".into(), format!("!$fell({r})")),
        ("probe_stable".into(), format!("$stable({r})")),
        ("probe_past2".into(), format!("{r} == $past({r}, 2)")),
        ("probe_next".into(), format!("{r}[0] |=> !{r}[0]")),
    ]
}

/// Drives one random trace through the checker and the reference in
/// lockstep; returns the properties that fired.
fn run(design: &Arc<Design>, props: &[(String, String)], seed: u64) -> Props {
    let parsed: Vec<Property> = props
        .iter()
        .map(|(n, t)| Property::parse(n, t, design).unwrap_or_else(|e| panic!("{n}: {e}")))
        .collect();
    let mut checker = PropertyChecker::new(parsed.clone());
    let mut reference = Reference {
        first: vec![None; parsed.len()],
        properties: parsed,
        frames: Vec::new(),
    };
    let mut rng = Lcg(seed);
    let width = design.fuzz_width().max(1);
    let mut sim = Simulator::new(Arc::clone(design));
    sim.reenter(Reentry::FullReset { cycles: 2 });
    let mut first: Vec<Option<u64>> = vec![None; props.len()];
    for _ in 0..CYCLES {
        if rng.one_in(97) {
            sim.reenter(Reentry::FullReset { cycles: 1 });
            checker.reset_history();
            reference.frames.clear();
        } else if rng.one_in(41) {
            checker.reset_history();
            reference.frames.clear();
        }
        let bits: Vec<Bit> = (0..width).map(|_| Bit::from(rng.next() & 1 == 1)).collect();
        sim.apply_input_word(&LogicVec::from_bits(&bits));
        sim.step();
        let cycle = sim.cycle();
        for v in checker.on_cycle(cycle, sim.values()) {
            let i = props.iter().position(|(n, _)| *n == v.property).unwrap();
            assert!(first[i].is_none(), "{} returned twice", v.property);
            assert_eq!(v.cycle, cycle);
            first[i] = Some(cycle);
        }
        reference.on_cycle(cycle, sim.values());
        assert_eq!(
            first, reference.first,
            "first-failure cycles diverge at cycle {cycle} (seed {seed})"
        );
    }
    assert_eq!(checker.violations().len(), first.iter().flatten().count());
    props
        .iter()
        .zip(&first)
        .filter(|(_, f)| f.is_some())
        .map(|(p, _)| p.clone())
        .collect()
}

#[test]
fn watched_window_matches_full_frames() {
    let mut cases: Vec<(Arc<Design>, Props)> = Vec::new();
    for b in bug_benchmarks() {
        let d = b.design().unwrap();
        cases.push((d, vec![(b.name.to_string(), b.property.to_string())]));
    }
    let (soc, specs) = buggy_soc().unwrap();
    cases.push((soc, specs.into_iter().map(|p| (p.name, p.text)).collect()));
    for b in processor_benchmarks() {
        let props = b.properties.iter();
        cases.push((
            b.design().unwrap(),
            props.map(|(n, t)| (n.to_string(), t.to_string())).collect(),
        ));
    }
    assert_eq!(
        cases.iter().map(|(_, p)| p.len()).sum::<usize>(),
        14 + 4 + 5
    );

    let mut fired = Vec::new();
    for (design, mut props) in cases {
        props.extend(probes(&design));
        for seed in SEEDS {
            fired.extend(run(&design, &props, seed));
        }
    }
    // Non-vacuity: every look-back form must fail somewhere, or the
    // window's history would go unchecked. The paper's own `$past` and
    // `|=>` properties must be among the failures, not only the probes.
    for form in ["$past", "|=>", "$rose", "$fell", "$stable"] {
        assert!(
            fired.iter().any(|(_, src)| src.contains(form)),
            "no {form} property fired"
        );
    }
    for form in ["$past", "|=>"] {
        assert!(
            fired
                .iter()
                .any(|(name, src)| !name.starts_with("probe_") && src.contains(form)),
            "no paper {form} property fired"
        );
    }
}
