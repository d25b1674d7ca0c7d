//! Equivalence of the compiled settle engine against the
//! global-fixpoint oracle ([`Simulator::reference`]), exercised on
//! every design shipped in `crates/designs` and on single-byte mutants
//! of their RTL.
//!
//! The compiled word-level VM is only an optimisation if it is
//! *observably identical* to the fixpoint: same signal values every
//! cycle (including X-propagation from the all-X power-up state, with
//! no reset applied — the VM must escape to the four-state interpreter
//! for exactly those cones), same set of exercised branch outcomes, and
//! the same `CombLoop` error on genuinely cyclic designs.

use std::collections::BTreeSet;
use std::sync::Arc;
use symbfuzz_designs::{bug_benchmarks, processor_benchmarks};
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::{elaborate_src, BranchId, Design};
use symbfuzz_sim::{Reentry, SimError, Simulator};

/// Deterministic input-word generator (64-bit LCG, chunked to width).
fn next_word(width: u32, state: &mut u64) -> LogicVec {
    let mut out = LogicVec::zeros(0);
    let mut remaining = width;
    while remaining > 0 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let take = remaining.min(64);
        out = LogicVec::concat(&LogicVec::from_u64(take, *state), &out);
        remaining -= take;
    }
    out
}

/// The set of `(branch, outcome)` pairs with a nonzero hit counter.
fn toggled_set(sim: &Simulator) -> BTreeSet<(usize, usize)> {
    let mut set = BTreeSet::new();
    for (bi, _) in sim.design().branches.iter().enumerate() {
        for (oi, &hits) in sim.branch_hits(BranchId(bi as u32)).iter().enumerate() {
            if hits > 0 {
                set.insert((bi, oi));
            }
        }
    }
    set
}

/// Runs the compiled simulator and the reference in lockstep on one
/// design and asserts bit-identical signal values at every observation
/// point. A design whose power-up settle reports a combinational loop
/// is compared on that error alone, returned once both engines agree
/// on it: values left mid-oscillation are unspecified.
fn assert_lockstep(design: &Arc<Design>, name: &str, cycles: u32) -> Result<(), SimError> {
    let mut cmp = Simulator::new(Arc::clone(design));
    let mut fix = Simulator::reference(Arc::clone(design));
    let settled = fix.settle();
    assert_eq!(cmp.settle(), settled, "{name}: power-up settle verdict");
    settled?;

    let check = |cmp: &Simulator, fix: &Simulator, what: &str| {
        assert_eq!(cmp.values(), fix.values(), "{name}: {what}");
    };
    check(&cmp, &fix, "initial all-X settle");

    // X-propagation phase: clock the un-reset design so register Xes
    // flow through the combinational logic in both engines (the
    // compiled VM escapes per cone here).
    for c in 0..4 {
        cmp.step();
        fix.step();
        check(&cmp, &fix, &format!("un-reset cycle {c}"));
    }

    cmp.reenter(Reentry::FullReset { cycles: 2 });
    fix.reenter(Reentry::FullReset { cycles: 2 });
    check(&cmp, &fix, "post-reset state");

    let width = design.fuzz_width();
    let mut state = 0x5EED_0BAD ^ name.len() as u64;
    let mut store_cmp = cmp.snapshot_store(u64::MAX);
    let mut store_fix = fix.snapshot_store(u64::MAX);
    let mut snaps = None;
    for c in 0..cycles {
        let word = next_word(width, &mut state);
        cmp.apply_input_word(&word);
        fix.apply_input_word(&word);
        cmp.step();
        fix.step();
        check(&cmp, &fix, &format!("cycle {c}"));
        if c == cycles / 2 {
            snaps = Some((
                cmp.fork(&mut store_cmp, None).id,
                fix.fork(&mut store_fix, None).id,
            ));
        }
    }

    // Re-enter the mid-run checkpoints and diverge identically again.
    let (cs, fs) = snaps.expect("snapshot taken");
    cmp.enter(&store_cmp, cs);
    fix.enter(&store_fix, fs);
    for c in 0..8 {
        let word = next_word(width, &mut state);
        cmp.apply_input_word(&word);
        fix.apply_input_word(&word);
        cmp.step();
        fix.step();
        check(&cmp, &fix, &format!("post-restore cycle {c}"));
    }

    // Branch-outcome parity: the fixpoint re-executes settled processes
    // while iterating, so raw hit *counters* legitimately differ, but
    // every outcome either engine exercises must be exercised by both.
    assert_eq!(
        toggled_set(&cmp),
        toggled_set(&fix),
        "{name}: toggled sets differ"
    );
    Ok(())
}

#[test]
fn bug_designs_match_fixpoint_bit_for_bit() {
    for b in bug_benchmarks() {
        let design = b.design().expect("benchmark elaborates");
        assert_lockstep(&design, b.name, 120).expect("bug design settles");
    }
}

#[test]
fn processor_designs_match_fixpoint_bit_for_bit() {
    for b in processor_benchmarks() {
        let design = b.design().expect("benchmark elaborates");
        assert!(
            Simulator::new(Arc::clone(&design)).schedule().is_acyclic(),
            "{}: processor schedule unexpectedly cyclic",
            b.name
        );
        assert_lockstep(&design, b.name, 200).expect("processor settles");
    }
}

/// The generated-design oracle: single-byte mutants of every processor
/// and bug RTL, drawn from a fixed-seed LCG. Each mutant that still
/// elaborates runs through [`assert_lockstep`], so the equivalence is
/// checked on designs nobody wrote by hand.
#[test]
fn mutated_designs_match_reference_bit_for_bit() {
    const MUTATIONS: u64 = 3_000;
    const ALPHABET: &[u8] = b"01xz'&|^~!+-<>=?:;,()[]{} abdeinqrstw";
    let sources: Vec<(&str, &str, &str)> = processor_benchmarks()
        .iter()
        .map(|b| (b.name, b.rtl, b.top))
        .chain(bug_benchmarks().iter().map(|b| (b.name, b.rtl, b.top)))
        .collect();
    assert_eq!(sources.len(), 18);
    let mut state = 0x4D55_7441_4E54_u64;
    let mut draw = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let mut elaborable = 0;
    for i in 0..MUTATIONS {
        let (name, rtl, top) = sources[draw(sources.len())];
        let mut bytes = rtl.as_bytes().to_vec();
        let pos = draw(bytes.len());
        bytes[pos] = ALPHABET[draw(ALPHABET.len())];
        let Ok(src) = String::from_utf8(bytes) else {
            continue;
        };
        let Ok(design) = elaborate_src(&src, top) else {
            continue;
        };
        elaborable += 1;
        // A mutant that closes a combinational loop is compared on the
        // settle verdict alone, inside `assert_lockstep`.
        let _ = assert_lockstep(&Arc::new(design), &format!("{name} mutant {i}"), 30);
    }
    assert!(elaborable >= 500, "only {elaborable} mutants elaborated");
}

#[test]
fn comb_loop_reported_under_all_modes() {
    let design = Arc::new(
        elaborate_src(
            "module m(input a, output y);
               wire t;
               assign t = a ? !y : 1'b0;
               assign y = t;
             endmodule",
            "m",
        )
        .unwrap(),
    );
    for (engine, mut s) in [
        ("compiled", Simulator::new(Arc::clone(&design))),
        ("reference", Simulator::reference(Arc::clone(&design))),
    ] {
        let a = s.design().signal_by_name("a").unwrap();
        s.set_input(a, &LogicVec::from_u64(1, 0)).unwrap();
        s.settle().unwrap();
        s.set_input(a, &LogicVec::from_u64(1, 1)).unwrap();
        assert_eq!(s.settle(), Err(SimError::CombLoop), "{engine}");
        assert!(s.comb_unstable(), "{engine}");
    }
}
