//! Combinational equivalence checking (CEC) via a built-in SAT solver.
//!
//! Random simulation (see [`crate::Aig::simulate`]) catches most
//! synthesis bugs but is not sound. This module provides the classical
//! sound check: build a *miter* of two AIGs (XOR of each output pair,
//! OR-reduced), Tseitin-encode it into CNF, and decide satisfiability
//! with a DPLL solver (unit propagation, activity-free decision
//! heuristic with phase saving, conflict-driven backtracking by simple
//! chronological backjumping). UNSAT means the designs are equivalent;
//! SAT yields a concrete counterexample input vector.
//!
//! The solver is deliberately small — no clause learning — which is
//! adequate for the miter sizes this workspace produces (thousands of
//! gates); the synthesizer's pipeline keeps random simulation as a fast
//! pre-filter.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_netlist::{cec, generators};
//!
//! let a = generators::adder(4);
//! let b = generators::adder(4);
//! assert!(matches!(
//!     cec::check_equivalence(&a, &b, 200_000).expect("within budget"),
//!     cec::CecResult::Equivalent
//! ));
//! ```

use crate::aig::{Aig, AigNode, Lit};
use crate::NetlistError;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecResult {
    /// The two designs implement the same function.
    Equivalent,
    /// A distinguishing input vector was found.
    Inequivalent {
        /// Input assignment (per primary input) on which outputs differ.
        counterexample: Vec<bool>,
    },
}

/// A CNF literal: variable index shifted left, LSB = negated.
type CnfLit = u32;

fn pos(var: u32) -> CnfLit {
    var << 1
}

fn neg(var: u32) -> CnfLit {
    (var << 1) | 1
}

fn lit_var(l: CnfLit) -> u32 {
    l >> 1
}

fn lit_negated(l: CnfLit) -> bool {
    l & 1 == 1
}

/// CNF builder with Tseitin encodings for AND and XOR.
#[derive(Debug, Default)]
struct Cnf {
    clauses: Vec<Vec<CnfLit>>,
    vars: u32,
}

impl Cnf {
    fn new_var(&mut self) -> u32 {
        self.vars += 1;
        self.vars - 1
    }

    fn clause(&mut self, lits: &[CnfLit]) {
        self.clauses.push(lits.to_vec());
    }

    /// `out <-> a AND b`.
    fn encode_and(&mut self, out: u32, a: CnfLit, b: CnfLit) {
        // out -> a ; out -> b ; a & b -> out
        self.clause(&[neg(out), a]);
        self.clause(&[neg(out), b]);
        self.clause(&[pos(out), a ^ 1, b ^ 1]);
    }

    /// `out <-> a XOR b`.
    fn encode_xor(&mut self, out: u32, a: CnfLit, b: CnfLit) {
        self.clause(&[neg(out), a, b]);
        self.clause(&[neg(out), a ^ 1, b ^ 1]);
        self.clause(&[pos(out), a, b ^ 1]);
        self.clause(&[pos(out), a ^ 1, b]);
    }
}

/// Check two AIGs for functional equivalence.
///
/// `budget_propagations` bounds solver effort (unit propagations); the
/// check aborts with an error when exceeded, so callers can fall back to
/// random simulation on pathological instances.
///
/// # Errors
///
/// Returns [`NetlistError::InputArity`] if the designs' interface
/// widths differ, and [`NetlistError::Parse`] (with a budget message)
/// when the propagation budget is exhausted.
pub fn check_equivalence(
    a: &Aig,
    b: &Aig,
    budget_propagations: u64,
) -> Result<CecResult, NetlistError> {
    if a.input_count() != b.input_count() || a.output_count() != b.output_count() {
        return Err(NetlistError::InputArity {
            got: b.input_count(),
            expected: a.input_count(),
        });
    }
    let n_inputs = a.input_count();
    let mut cnf = Cnf::default();

    // Shared input variables.
    let input_vars: Vec<u32> = (0..n_inputs).map(|_| cnf.new_var()).collect();

    // A constant-false variable (var fixed to 0 by a unit clause).
    let const_var = cnf.new_var();
    cnf.clause(&[neg(const_var)]);

    // Encode each AIG over the shared inputs.
    let encode = |aig: &Aig, cnf: &mut Cnf| -> Vec<CnfLit> {
        let mut node_lit: Vec<CnfLit> = Vec::with_capacity(aig.node_count());
        for node in aig.nodes() {
            let l = match node {
                AigNode::Const0 => pos(const_var),
                AigNode::Pi(k) => pos(input_vars[*k as usize]),
                AigNode::And(x, y) => {
                    let lx = node_lit[x.node() as usize] ^ u32::from(x.is_complemented());
                    let ly = node_lit[y.node() as usize] ^ u32::from(y.is_complemented());
                    let v = cnf.new_var();
                    cnf.encode_and(v, lx, ly);
                    pos(v)
                }
            };
            node_lit.push(l);
        }
        aig.outputs()
            .iter()
            .map(|(_, l)| node_lit[l.node() as usize] ^ u32::from(l.is_complemented()))
            .collect()
    };
    let outs_a = encode(a, &mut cnf);
    let outs_b = encode(b, &mut cnf);

    // Miter: xor each output pair, OR them all, assert the OR true.
    let mut xor_lits = Vec::with_capacity(outs_a.len());
    for (&la, &lb) in outs_a.iter().zip(&outs_b) {
        let v = cnf.new_var();
        cnf.encode_xor(v, la, lb);
        xor_lits.push(pos(v));
    }
    // OR(xors) must hold: a single clause.
    cnf.clause(&xor_lits.clone());

    let mut solver = Dpll::new(cnf, budget_propagations);
    match solver.solve() {
        SolveOutcome::Unsat => Ok(CecResult::Equivalent),
        SolveOutcome::Sat(model) => {
            let counterexample = input_vars
                .iter()
                .map(|&v| model[v as usize] == Some(true))
                .collect();
            Ok(CecResult::Inequivalent { counterexample })
        }
        SolveOutcome::BudgetExhausted => Err(NetlistError::Parse {
            line: 0,
            col: 0,
            message: "SAT budget exhausted during equivalence check".to_owned(),
        }),
    }
}

#[derive(Debug)]
enum SolveOutcome {
    Sat(Vec<Option<bool>>),
    Unsat,
    BudgetExhausted,
}

/// Minimal DPLL: two-watched-literal-free unit propagation over clause
/// lists, chronological backtracking, first-unassigned decision with
/// saved phases.
#[derive(Debug)]
struct Dpll {
    clauses: Vec<Vec<CnfLit>>,
    assignment: Vec<Option<bool>>,
    phase: Vec<bool>,
    /// Assignment trail: (var, is_decision).
    trail: Vec<(u32, bool)>,
    budget: u64,
}

impl Dpll {
    fn new(cnf: Cnf, budget: u64) -> Self {
        let n = cnf.vars as usize;
        Self {
            clauses: cnf.clauses,
            assignment: vec![None; n],
            phase: vec![false; n],
            trail: Vec::with_capacity(n),
            budget,
        }
    }

    fn lit_value(&self, l: CnfLit) -> Option<bool> {
        self.assignment[lit_var(l) as usize].map(|v| v ^ lit_negated(l))
    }

    fn assign(&mut self, var: u32, value: bool, decision: bool) {
        self.assignment[var as usize] = Some(value);
        self.phase[var as usize] = value;
        self.trail.push((var, decision));
    }

    /// Propagate all unit clauses; returns false on conflict.
    fn propagate(&mut self) -> Option<bool> {
        loop {
            if self.budget == 0 {
                return None;
            }
            self.budget -= 1;
            let mut changed = false;
            for ci in 0..self.clauses.len() {
                let mut unassigned: Option<CnfLit> = None;
                let mut n_unassigned = 0;
                let mut satisfied = false;
                for &l in &self.clauses[ci] {
                    match self.lit_value(l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => {
                            n_unassigned += 1;
                            unassigned = Some(l);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match n_unassigned {
                    0 => return Some(false), // conflict
                    1 => {
                        let l = unassigned.expect("counted one unassigned");
                        self.assign(lit_var(l), !lit_negated(l), false);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return Some(true);
            }
        }
    }

    /// Undo the trail back to (and including) the last decision; returns
    /// that decision variable, or `None` at level zero.
    fn backtrack(&mut self) -> Option<(u32, bool)> {
        while let Some((var, decision)) = self.trail.pop() {
            let value = self.assignment[var as usize].take().expect("assigned");
            if decision {
                return Some((var, value));
            }
        }
        None
    }

    fn solve(&mut self) -> SolveOutcome {
        // Flipped[var] marks decisions whose second phase was tried.
        let mut flipped: Vec<bool> = vec![false; self.assignment.len()];
        loop {
            match self.propagate() {
                None => return SolveOutcome::BudgetExhausted,
                Some(true) => {
                    // Pick the next unassigned variable.
                    match (0..self.assignment.len())
                        .find(|&v| self.assignment[v].is_none())
                    {
                        None => return SolveOutcome::Sat(self.assignment.clone()),
                        Some(v) => {
                            flipped[v] = false;
                            let phase = self.phase[v];
                            self.assign(v as u32, phase, true);
                        }
                    }
                }
                Some(false) => {
                    // Conflict: backtrack to the most recent decision not
                    // yet flipped.
                    loop {
                        match self.backtrack() {
                            None => return SolveOutcome::Unsat,
                            Some((var, value)) => {
                                if flipped[var as usize] {
                                    continue; // both phases failed here
                                }
                                flipped[var as usize] = true;
                                self.assign(var, !value, true);
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Convert a gate-level netlist back into an AIG (combinational view:
/// DFFs pass their data input through, matching
/// [`crate::Netlist::simulate`]). Enables SAT-based verification of a
/// mapped netlist against its source AIG.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic designs and
/// [`NetlistError::Undriven`] for nets without a driver.
pub fn netlist_to_aig(netlist: &crate::Netlist) -> Result<Aig, NetlistError> {
    use eda_cloud_tech::CellKind;

    for net in netlist.nets() {
        if net.driver.is_none() {
            return Err(NetlistError::Undriven(net.name.clone()));
        }
    }
    let order = netlist.topological_cells()?;
    let mut aig = Aig::new(netlist.name());
    let mut net_lit: Vec<Option<Lit>> = vec![None; netlist.net_count()];
    for &net in netlist.primary_inputs() {
        net_lit[net as usize] = Some(aig.add_pi());
    }
    // DFF outputs are sources in the combinational view but still carry
    // their data input's function per Netlist::simulate; process cells
    // in topological order (sequential cells first have in-degree 0 in
    // that order only for their *consumers*, so resolve DFFs by passing
    // the input literal through when available, otherwise treating the
    // output as a fresh PI is NOT done — simulate() evaluates them
    // in-order too, so the data literal is always resolved first for
    // acyclic-through-register designs handled here).
    for &cid in &order {
        let cell = &netlist.cells()[cid as usize];
        let arity = cell.kind.input_count();
        let mut ins = Vec::with_capacity(arity);
        for &inet in cell.inputs.iter().take(arity) {
            let lit = net_lit[inet as usize].unwrap_or(Lit::FALSE);
            ins.push(lit);
        }
        let out = match cell.kind {
            CellKind::Tie0 => Lit::FALSE,
            CellKind::Tie1 => Lit::TRUE,
            CellKind::Inv => !ins[0],
            CellKind::Buf | CellKind::Dff => ins[0],
            CellKind::And2 => aig.and2(ins[0], ins[1]),
            CellKind::Nand2 => !aig.and2(ins[0], ins[1]),
            CellKind::Nand3 => {
                let t = aig.and2(ins[0], ins[1]);
                !aig.and2(t, ins[2])
            }
            CellKind::Nor2 => !aig.or2(ins[0], ins[1]),
            CellKind::Or2 => aig.or2(ins[0], ins[1]),
            CellKind::Xor2 => aig.xor2(ins[0], ins[1]),
            CellKind::Xnor2 => aig.xnor2(ins[0], ins[1]),
            CellKind::Aoi21 => {
                let t = aig.and2(ins[0], ins[1]);
                !aig.or2(t, ins[2])
            }
            CellKind::Oai21 => {
                let t = aig.or2(ins[0], ins[1]);
                !aig.and2(t, ins[2])
            }
            CellKind::Mux2 => aig.mux2(ins[2], ins[1], ins[0]),
            CellKind::Maj3 => aig.maj3(ins[0], ins[1], ins[2]),
        };
        net_lit[cell.output as usize] = Some(out);
    }
    for (name, net) in netlist.primary_outputs() {
        let lit = net_lit[*net as usize].ok_or(NetlistError::Undriven(name.clone()))?;
        aig.add_po(name.clone(), lit);
    }
    Ok(aig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn identical_designs_are_equivalent() {
        let a = generators::parity(6);
        let b = generators::parity(6);
        assert_eq!(
            check_equivalence(&a, &b, 500_000).expect("budget"),
            CecResult::Equivalent
        );
    }

    #[test]
    fn structurally_different_same_function() {
        // adder built twice is structurally identical, so compare an
        // adder against itself merged through different construction
        // order: use ctrl with same seed = identical; instead compare
        // xor chains: parity(4) vs gray-coded equivalent.
        let mut x = Aig::new("x1");
        let ins: Vec<Lit> = (0..4).map(|_| x.add_pi()).collect();
        let t1 = x.xor2(ins[0], ins[1]);
        let t2 = x.xor2(ins[2], ins[3]);
        let y = x.xor2(t1, t2);
        x.add_po("p", y);

        let mut z = Aig::new("x2");
        let ins2: Vec<Lit> = (0..4).map(|_| z.add_pi()).collect();
        let mut acc = ins2[0];
        for &i in &ins2[1..] {
            acc = z.xor2(acc, i);
        }
        z.add_po("p", acc);

        assert_eq!(
            check_equivalence(&x, &z, 500_000).expect("budget"),
            CecResult::Equivalent
        );
    }

    #[test]
    fn inequivalence_produces_counterexample() {
        let mut a = Aig::new("and");
        let x = a.add_pi();
        let y = a.add_pi();
        let o = a.and2(x, y);
        a.add_po("o", o);

        let mut b = Aig::new("or");
        let x2 = b.add_pi();
        let y2 = b.add_pi();
        let o2 = b.or2(x2, y2);
        b.add_po("o", o2);

        match check_equivalence(&a, &b, 500_000).expect("budget") {
            CecResult::Inequivalent { counterexample } => {
                // Verify the counterexample actually distinguishes them.
                let oa = a.simulate(&counterexample).expect("sim");
                let ob = b.simulate(&counterexample).expect("sim");
                assert_ne!(oa, ob, "counterexample must distinguish");
            }
            CecResult::Equivalent => panic!("AND and OR are not equivalent"),
        }
    }

    #[test]
    fn single_output_bit_flip_detected() {
        let a = generators::adder(3);
        // Copy with one output complemented.
        let mut b = Aig::new("mutated");
        let mut map: Vec<Lit> = Vec::new();
        for node in a.nodes() {
            let l = match node {
                AigNode::Const0 => Lit::FALSE,
                AigNode::Pi(_) => b.add_pi(),
                AigNode::And(x, y) => {
                    let lx = map[x.node() as usize].complement_if(x.is_complemented());
                    let ly = map[y.node() as usize].complement_if(y.is_complemented());
                    b.and2(lx, ly)
                }
            };
            map.push(l);
        }
        for (i, (name, l)) in a.outputs().iter().enumerate() {
            let lit = map[l.node() as usize].complement_if(l.is_complemented());
            b.add_po(name.clone(), lit.complement_if(i == 1)); // flip bit 1
        }
        match check_equivalence(&a, &b, 2_000_000).expect("budget") {
            CecResult::Inequivalent { counterexample } => {
                assert_eq!(counterexample.len(), a.input_count());
            }
            CecResult::Equivalent => panic!("mutated design must differ"),
        }
    }

    #[test]
    fn mismatched_interfaces_rejected() {
        let a = generators::parity(4);
        let b = generators::parity(5);
        assert!(check_equivalence(&a, &b, 1_000).is_err());
    }

    #[test]
    fn tiny_budget_exhausts() {
        let a = generators::multiplier(5);
        let b = generators::multiplier(5);
        let err = check_equivalence(&a, &b, 1).expect_err("budget too small");
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn adders_of_equal_width_equivalent_via_sat() {
        let a = generators::adder(4);
        let b = generators::adder(4);
        assert_eq!(
            check_equivalence(&a, &b, 2_000_000).expect("budget"),
            CecResult::Equivalent
        );
    }
}

#[cfg(test)]
mod conversion_tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_netlist_matches_simulation() {
        // Build a small netlist by hand and convert.
        use eda_cloud_tech::CellKind;
        let mut nl = crate::Netlist::new("conv", "synth14");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        nl.add_cell("u1", "XOR2_X1", CellKind::Xor2, vec![a, b], n1);
        nl.add_cell("u2", "MUX2_X1", CellKind::Mux2, vec![n1, a, c], n2);
        nl.add_output("y", n2);
        let aig = netlist_to_aig(&nl).expect("converts");
        for bits in 0u8..8 {
            let ins: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(
                aig.simulate(&ins).expect("aig sim"),
                nl.simulate(&ins).expect("netlist sim"),
                "inputs {ins:?}"
            );
        }
    }

    #[test]
    fn full_sat_verification_of_synthesis_pipeline() {
        // The whole loop: AIG -> (external synthesis happens in the flow
        // crate; here emulate with identity) -> netlist -> AIG -> SAT.
        // Convert a generated AIG's own structure through a netlist-like
        // identity is covered in flow tests; here check that conversion
        // of a mapped-ish netlist stays equivalent under CEC using the
        // hand netlist above vs its AIG.
        use eda_cloud_tech::CellKind;
        let mut nl = crate::Netlist::new("conv2", "synth14");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_net("n1");
        nl.add_cell("u1", "NAND2_X1", CellKind::Nand2, vec![a, b], n1);
        nl.add_output("y", n1);
        let converted = netlist_to_aig(&nl).expect("converts");

        let mut golden = Aig::new("golden");
        let x = golden.add_pi();
        let y = golden.add_pi();
        let o = golden.and2(x, y);
        golden.add_po("y", !o);
        assert_eq!(
            check_equivalence(&golden, &converted, 100_000).expect("budget"),
            CecResult::Equivalent
        );
    }

    #[test]
    fn undriven_net_rejected() {
        let mut nl = crate::Netlist::new("bad", "synth14");
        let _a = nl.add_input("a");
        let dangling = nl.add_net("dangling");
        nl.add_output("y", dangling);
        assert!(matches!(
            netlist_to_aig(&nl),
            Err(NetlistError::Undriven(_))
        ));
    }

    #[test]
    fn generated_family_aigs_self_equivalent_after_merge() {
        let a = generators::max(4);
        let same = generators::max(4);
        assert_eq!(
            check_equivalence(&a, &same, 1_000_000).expect("budget"),
            CecResult::Equivalent
        );
    }
}
