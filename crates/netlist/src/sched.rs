//! Levelized scheduling of combinational processes.
//!
//! The simulator's reference oracle re-executes *every*
//! combinational process until a global fixpoint — O(processes ×
//! iterations) per settle. For the overwhelmingly common acyclic case
//! a single level-order sweep suffices: build the dependency graph
//! (process A feeds process B iff `writes(A) ∩ reads(B) ≠ ∅`), collapse
//! strongly connected components, and evaluate the condensation in
//! topological order. Genuinely cyclic regions (combinational loops,
//! or multiple drivers racing on one signal) are grouped into a single
//! [`SchedUnit`] that the simulator still settles with a local
//! fixpoint, preserving `CombLoop` detection.
//!
//! Ordering is fully deterministic: ready components are dispatched by
//! the smallest process index they contain, so multi-driver "last
//! writer wins" races resolve exactly as the fixpoint's in-order
//! iteration did.

use crate::ir::{Design, ProcKind, SignalId};
use std::collections::BinaryHeap;

/// One step of the levelized schedule: either a single process that
/// runs exactly once per sweep, or a cyclic group that needs a local
/// fixpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedUnit {
    /// Indices into `design.processes`, ascending.
    pub procs: Vec<u32>,
    /// Whether this unit needs local fixpoint iteration: a strongly
    /// connected component of two or more processes, a process that
    /// reads its own output, or multiple drivers of one signal.
    pub cyclic: bool,
    /// Signals whose change requires re-running this unit (the union
    /// of member read and write sets), ascending and deduplicated.
    /// Write signals are included so externally forced values (e.g. a
    /// restored snapshot) conservatively re-trigger their drivers.
    pub triggers: Vec<SignalId>,
}

/// The complete levelized schedule for a design's combinational logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombSchedule {
    /// Units in topological order of the dependency condensation.
    pub units: Vec<SchedUnit>,
    /// How many units are cyclic (0 ⇒ one sweep always settles).
    pub cyclic_units: usize,
}

impl CombSchedule {
    /// True when every unit is a single acyclic process, so one
    /// level-order sweep is guaranteed to settle the design.
    pub fn is_acyclic(&self) -> bool {
        self.cyclic_units == 0
    }

    /// Total combinational processes covered by the schedule.
    pub fn comb_procs(&self) -> usize {
        self.units.iter().map(|u| u.procs.len()).sum()
    }
}

/// Builds the levelized combinational schedule for `design`.
pub fn comb_schedule(design: &Design) -> CombSchedule {
    // Nodes are combinational processes; `comb[node]` is the process index.
    let comb: Vec<u32> = design
        .processes
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p.kind, ProcKind::Comb))
        .map(|(i, _)| i as u32)
        .collect();
    let n = comb.len();
    if n == 0 {
        return CombSchedule {
            units: Vec::new(),
            cyclic_units: 0,
        };
    }
    let nsignals = design.signals.len();
    let mut writers: Vec<Vec<u32>> = vec![Vec::new(); nsignals];
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); nsignals];
    for (node, &pidx) in comb.iter().enumerate() {
        let p = &design.processes[pidx as usize];
        for w in &p.writes {
            writers[w.index()].push(node as u32);
        }
        for r in &p.reads {
            readers[r.index()].push(node as u32);
        }
    }

    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut self_edge = vec![false; n];
    for s in 0..nsignals {
        for &w in &writers[s] {
            for &r in &readers[s] {
                if w == r {
                    self_edge[w as usize] = true;
                } else {
                    adj[w as usize].push(r);
                }
            }
        }
        // Multiple drivers of one signal race under the fixpoint's
        // in-order iteration; force them into one SCC so the simulator
        // settles (or detects oscillation in) the group locally.
        if writers[s].len() > 1 {
            for &a in &writers[s] {
                for &b in &writers[s] {
                    if a != b {
                        adj[a as usize].push(b);
                    }
                }
            }
        }
    }
    for edges in &mut adj {
        edges.sort_unstable();
        edges.dedup();
    }

    let sccs = tarjan_sccs(n, &adj);

    // Condense: component id per node, component DAG, indegrees.
    let mut comp_of = vec![0u32; n];
    for (cid, scc) in sccs.iter().enumerate() {
        for &node in scc {
            comp_of[node as usize] = cid as u32;
        }
    }
    let ncomp = sccs.len();
    let mut comp_adj: Vec<Vec<u32>> = vec![Vec::new(); ncomp];
    let mut indeg = vec![0u32; ncomp];
    for (node, edges) in adj.iter().enumerate() {
        let a = comp_of[node];
        for &t in edges {
            let b = comp_of[t as usize];
            if a != b {
                comp_adj[a as usize].push(b);
            }
        }
    }
    for edges in &mut comp_adj {
        edges.sort_unstable();
        edges.dedup();
        for &t in edges.iter() {
            indeg[t as usize] += 1;
        }
    }

    // Kahn's algorithm, dispatching the ready component containing the
    // smallest process index first — a stable order independent of
    // Tarjan's traversal, matching the fixpoint's in-order semantics.
    let comp_key: Vec<u32> = sccs
        .iter()
        .map(|scc| scc.iter().map(|&node| comb[node as usize]).min().unwrap())
        .collect();
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, u32)>> = (0..ncomp)
        .filter(|&c| indeg[c] == 0)
        .map(|c| std::cmp::Reverse((comp_key[c], c as u32)))
        .collect();
    let mut order = Vec::with_capacity(ncomp);
    while let Some(std::cmp::Reverse((_, c))) = heap.pop() {
        order.push(c);
        for &t in &comp_adj[c as usize] {
            indeg[t as usize] -= 1;
            if indeg[t as usize] == 0 {
                heap.push(std::cmp::Reverse((comp_key[t as usize], t)));
            }
        }
    }
    debug_assert_eq!(order.len(), ncomp, "condensation must be acyclic");

    let mut units = Vec::with_capacity(ncomp);
    let mut cyclic_units = 0;
    for c in order {
        let scc = &sccs[c as usize];
        let mut procs: Vec<u32> = scc.iter().map(|&node| comb[node as usize]).collect();
        procs.sort_unstable();
        let cyclic = scc.len() > 1 || self_edge[scc[0] as usize];
        if cyclic {
            cyclic_units += 1;
        }
        let mut triggers: Vec<SignalId> = procs
            .iter()
            .flat_map(|&p| {
                let proc = &design.processes[p as usize];
                proc.reads.iter().chain(proc.writes.iter()).copied()
            })
            .collect();
        triggers.sort_unstable();
        triggers.dedup();
        units.push(SchedUnit {
            procs,
            cyclic,
            triggers,
        });
    }
    CombSchedule {
        units,
        cyclic_units,
    }
}

/// Iterative Tarjan strongly-connected-components. Returns components
/// as node-index lists (order unspecified; the caller re-sorts).
fn tarjan_sccs(n: usize, adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Vec::new();
    // (node, next child position) — explicit DFS stack.
    let mut call: Vec<(u32, usize)> = Vec::new();

    for start in 0..n as u32 {
        if index[start as usize] != UNSET {
            continue;
        }
        call.push((start, 0));
        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            let vi = v as usize;
            if *child == 0 {
                index[vi] = next_index;
                lowlink[vi] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            if let Some(&w) = adj[vi].get(*child) {
                *child += 1;
                let wi = w as usize;
                if index[wi] == UNSET {
                    call.push((w, 0));
                } else if on_stack[wi] {
                    lowlink[vi] = lowlink[vi].min(index[wi]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    let pi = parent as usize;
                    lowlink[pi] = lowlink[pi].min(lowlink[vi]);
                }
                if lowlink[vi] == index[vi] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w as usize] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate_src;

    fn schedule(src: &str, top: &str) -> (Design, CombSchedule) {
        let d = elaborate_src(src, top).unwrap();
        let s = comb_schedule(&d);
        (d, s)
    }

    #[test]
    fn chain_orders_producers_before_consumers() {
        let (d, s) = schedule(
            "module m(input [3:0] a, output [3:0] y);
               wire [3:0] t1;
               wire [3:0] t2;
               assign y = t2 + 4'd1;
               assign t2 = t1 ^ 4'd3;
               assign t1 = a & 4'd7;
             endmodule",
            "m",
        );
        assert!(s.is_acyclic());
        assert_eq!(s.comb_procs(), 3);
        // Every producer unit must precede every consumer unit.
        let pos_of_writer = |name: &str| {
            let sig = d.signal_by_name(name).unwrap();
            s.units
                .iter()
                .position(|u| {
                    u.procs
                        .iter()
                        .any(|&p| d.processes[p as usize].writes.contains(&sig))
                })
                .unwrap()
        };
        assert!(pos_of_writer("t1") < pos_of_writer("t2"));
        assert!(pos_of_writer("t2") < pos_of_writer("y"));
    }

    #[test]
    fn comb_loop_collapses_into_cyclic_unit() {
        let (_, s) = schedule(
            "module m(input a, output y);
               wire t;
               assign t = a ? !y : 1'b0;
               assign y = t;
             endmodule",
            "m",
        );
        assert!(!s.is_acyclic());
        let cyclic: Vec<_> = s.units.iter().filter(|u| u.cyclic).collect();
        assert_eq!(cyclic.len(), 1);
        assert_eq!(cyclic[0].procs.len(), 2);
    }

    #[test]
    fn independent_processes_keep_stable_order() {
        let (_, s) = schedule(
            "module m(input [3:0] a, input [3:0] b, output [3:0] x, output [3:0] y);
               assign x = a + 4'd1;
               assign y = b + 4'd2;
             endmodule",
            "m",
        );
        assert!(s.is_acyclic());
        // No dependency between the two: dispatch order falls back to
        // process index, so the schedule is reproducible.
        let flat: Vec<u32> = s.units.iter().flat_map(|u| u.procs.clone()).collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        assert_eq!(flat, sorted);
    }

    #[test]
    fn triggers_cover_reads_and_writes() {
        let (d, s) = schedule(
            "module m(input [3:0] a, output [3:0] y);
               assign y = a + 4'd1;
             endmodule",
            "m",
        );
        let a = d.signal_by_name("a").unwrap();
        let y = d.signal_by_name("y").unwrap();
        assert_eq!(s.units.len(), 1);
        assert!(s.units[0].triggers.contains(&a));
        assert!(s.units[0].triggers.contains(&y));
    }

    #[test]
    fn schedule_is_deterministic() {
        let src = "module m(input [3:0] a, output [3:0] y, output [3:0] z);
                     wire [3:0] t;
                     assign t = a ^ 4'd5;
                     assign y = t + 4'd1;
                     assign z = t - 4'd1;
                   endmodule";
        let (_, s1) = schedule(src, "m");
        let (_, s2) = schedule(src, "m");
        assert_eq!(s1, s2);
    }
}
