//! And-Inverter Graph with structural hashing.
//!
//! An AIG represents combinational logic with two-input AND nodes and
//! complemented edges. Synthesis tools lower RTL into this form before
//! optimization and technology mapping; the paper's synthesis-runtime GCN
//! consumes it directly.

use crate::NetlistError;
use std::collections::HashMap;
use std::fmt;

/// Index of a node inside an [`Aig`].
pub type NodeId = u32;

/// A literal: a node reference with an optional complement.
///
/// Encoded as `node_id * 2 + complement`, mirroring the AIGER convention,
/// so `Lit(0)` is constant false and `Lit(1)` constant true.
///
/// # Examples
///
/// ```
/// use eda_cloud_netlist::Lit;
///
/// let x = Lit::from_node(3, false);
/// assert_eq!(x.node(), 3);
/// assert!(!x.is_complemented());
/// assert!((!x).is_complemented());
/// assert_eq!(!!x, x);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Constant false.
    pub const FALSE: Lit = Lit(0);
    /// Constant true.
    pub const TRUE: Lit = Lit(1);

    /// Build a literal from a node id and complement flag.
    #[must_use]
    pub fn from_node(node: NodeId, complemented: bool) -> Self {
        Lit(node * 2 + u32::from(complemented))
    }

    /// Raw AIGER-style encoding (`node * 2 + complement`).
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The referenced node.
    #[must_use]
    pub fn node(self) -> NodeId {
        self.0 / 2
    }

    /// Whether the literal is complemented.
    #[must_use]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this is one of the constants.
    #[must_use]
    pub fn is_const(self) -> bool {
        self.node() == 0
    }

    /// Apply a complement conditionally.
    #[must_use]
    pub fn complement_if(self, cond: bool) -> Self {
        Lit(self.0 ^ u32::from(cond))
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// A node in the AIG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AigNode {
    /// The constant-false node (always node 0).
    Const0,
    /// Primary input, with its position among the inputs.
    Pi(u32),
    /// Two-input AND over two literals.
    And(Lit, Lit),
}

/// A structurally-hashed And-Inverter Graph.
///
/// Nodes are stored in topological order by construction: an AND node's
/// fanin literals always reference lower node ids, so a single forward
/// pass visits the graph in dependency order.
///
/// # Examples
///
/// ```
/// use eda_cloud_netlist::Aig;
///
/// let mut aig = Aig::new("toy");
/// let a = aig.add_pi();
/// let b = aig.add_pi();
/// let y = aig.xor2(a, b);
/// aig.add_po("y", y);
/// assert_eq!(aig.simulate(&[true, false]).unwrap(), vec![true]);
/// assert_eq!(aig.simulate(&[true, true]).unwrap(), vec![false]);
/// ```
#[derive(Debug, Clone)]
pub struct Aig {
    name: String,
    nodes: Vec<AigNode>,
    pis: Vec<NodeId>,
    pos: Vec<(String, Lit)>,
    strash: HashMap<(Lit, Lit), NodeId>,
}

impl Aig {
    /// Create an empty AIG with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: vec![AigNode::Const0],
            pis: Vec::new(),
            pos: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count including the constant node.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND nodes.
    #[must_use]
    pub fn and_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, AigNode::And(..)))
            .count()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.pos.len()
    }

    /// The node table (index = [`NodeId`]).
    #[must_use]
    pub fn nodes(&self) -> &[AigNode] {
        &self.nodes
    }

    /// Primary-input node ids in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.pis
    }

    /// Primary outputs as (name, literal) pairs.
    #[must_use]
    pub fn outputs(&self) -> &[(String, Lit)] {
        &self.pos
    }

    /// Append a primary input and return its (non-complemented) literal.
    pub fn add_pi(&mut self) -> Lit {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(AigNode::Pi(self.pis.len() as u32));
        self.pis.push(id);
        Lit::from_node(id, false)
    }

    /// Register a primary output driven by `lit`.
    pub fn add_po(&mut self, name: impl Into<String>, lit: Lit) {
        debug_assert!((lit.node() as usize) < self.nodes.len());
        self.pos.push((name.into(), lit));
    }

    /// Structurally-hashed AND of two literals, with constant folding and
    /// trivial-case simplification (`x & x = x`, `x & !x = 0`, ...).
    pub fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant folding.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        // Canonical order for hashing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(a, b)) {
            return Lit::from_node(id, false);
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(AigNode::And(a, b));
        self.strash.insert((a, b), id);
        Lit::from_node(id, false)
    }

    /// OR via De Morgan.
    pub fn or2(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and2(!a, !b)
    }

    /// XOR built from three ANDs.
    pub fn xor2(&mut self, a: Lit, b: Lit) -> Lit {
        let ab = self.and2(a, !b);
        let ba = self.and2(!a, b);
        self.or2(ab, ba)
    }

    /// XNOR.
    pub fn xnor2(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor2(a, b)
    }

    /// 2:1 multiplexer: `sel ? t : e`.
    pub fn mux2(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let st = self.and2(sel, t);
        let se = self.and2(!sel, e);
        self.or2(st, se)
    }

    /// Majority of three (full-adder carry).
    pub fn maj3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and2(a, b);
        let bc = self.and2(b, c);
        let ac = self.and2(a, c);
        let t = self.or2(ab, bc);
        self.or2(t, ac)
    }

    /// Wide AND over an iterator of literals (balanced tree).
    pub fn and_many<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let mut layer: Vec<Lit> = lits.into_iter().collect();
        if layer.is_empty() {
            return Lit::TRUE;
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.and2(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Wide OR over an iterator of literals (balanced tree).
    pub fn or_many<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let inv: Vec<Lit> = lits.into_iter().map(|l| !l).collect();
        if inv.is_empty() {
            return Lit::FALSE;
        }
        !self.and_many(inv)
    }

    /// Wide XOR over an iterator of literals (balanced tree).
    pub fn xor_many<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let mut layer: Vec<Lit> = lits.into_iter().collect();
        if layer.is_empty() {
            return Lit::FALSE;
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.xor2(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Logic level of every node (PIs and constant at level 0).
    #[must_use]
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if let AigNode::And(a, b) = node {
                level[i] = 1 + level[a.node() as usize].max(level[b.node() as usize]);
            }
        }
        level
    }

    /// Depth: maximum output level.
    #[must_use]
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.pos
            .iter()
            .map(|(_, l)| levels[l.node() as usize])
            .max()
            .unwrap_or(0)
    }

    /// Fanout count of every node (references from AND fanins and POs).
    #[must_use]
    pub fn fanouts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            if let AigNode::And(a, b) = node {
                fo[a.node() as usize] += 1;
                fo[b.node() as usize] += 1;
            }
        }
        for (_, l) in &self.pos {
            fo[l.node() as usize] += 1;
        }
        fo
    }

    /// Evaluate the AIG on one input vector.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArity`] if `inputs.len()` differs from
    /// [`Aig::input_count`].
    pub fn simulate(&self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if inputs.len() != self.pis.len() {
            return Err(NetlistError::InputArity {
                got: inputs.len(),
                expected: self.pis.len(),
            });
        }
        let mut value = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            value[i] = match node {
                AigNode::Const0 => false,
                AigNode::Pi(k) => inputs[*k as usize],
                AigNode::And(a, b) => {
                    let va = value[a.node() as usize] ^ a.is_complemented();
                    let vb = value[b.node() as usize] ^ b.is_complemented();
                    va & vb
                }
            };
        }
        Ok(self
            .pos
            .iter()
            .map(|(_, l)| value[l.node() as usize] ^ l.is_complemented())
            .collect())
    }

    /// Validate internal invariants: fanins reference earlier nodes only.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidReference`] on a forward reference.
    pub fn check(&self) -> Result<(), NetlistError> {
        for (i, node) in self.nodes.iter().enumerate() {
            if let AigNode::And(a, b) = node {
                for lit in [a, b] {
                    if lit.node() as usize >= i {
                        return Err(NetlistError::InvalidReference {
                            what: "node",
                            index: lit.node() as usize,
                            len: i,
                        });
                    }
                }
            }
        }
        for (_, l) in &self.pos {
            if l.node() as usize >= self.nodes.len() {
                return Err(NetlistError::InvalidReference {
                    what: "node",
                    index: l.node() as usize,
                    len: self.nodes.len(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aig `{}`: {} PIs, {} POs, {} ANDs, depth {}",
            self.name,
            self.input_count(),
            self.output_count(),
            self.and_count(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Aig {
        let mut aig = Aig::new("ha");
        let a = aig.add_pi();
        let b = aig.add_pi();
        let sum = aig.xor2(a, b);
        let carry = aig.and2(a, b);
        aig.add_po("sum", sum);
        aig.add_po("carry", carry);
        aig
    }

    #[test]
    fn half_adder_truth_table() {
        let aig = half_adder();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = aig.simulate(&[a, b]).expect("arity ok");
            assert_eq!(out[0], a ^ b, "sum({a},{b})");
            assert_eq!(out[1], a & b, "carry({a},{b})");
        }
    }

    #[test]
    fn structural_hashing_reuses_nodes() {
        let mut aig = Aig::new("t");
        let a = aig.add_pi();
        let b = aig.add_pi();
        let x = aig.and2(a, b);
        let y = aig.and2(b, a); // commuted -> same node
        assert_eq!(x, y);
        assert_eq!(aig.and_count(), 1);
    }

    #[test]
    fn constant_folding() {
        let mut aig = Aig::new("t");
        let a = aig.add_pi();
        assert_eq!(aig.and2(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and2(a, Lit::TRUE), a);
        assert_eq!(aig.and2(a, a), a);
        assert_eq!(aig.and2(a, !a), Lit::FALSE);
        assert_eq!(aig.and_count(), 0);
    }

    #[test]
    fn mux_selects() {
        let mut aig = Aig::new("t");
        let s = aig.add_pi();
        let t = aig.add_pi();
        let e = aig.add_pi();
        let m = aig.mux2(s, t, e);
        aig.add_po("m", m);
        assert_eq!(aig.simulate(&[true, true, false]).unwrap(), vec![true]);
        assert_eq!(aig.simulate(&[false, true, false]).unwrap(), vec![false]);
        assert_eq!(aig.simulate(&[false, false, true]).unwrap(), vec![true]);
    }

    #[test]
    fn wide_gates() {
        let mut aig = Aig::new("t");
        let lits: Vec<Lit> = (0..5).map(|_| aig.add_pi()).collect();
        let all = aig.and_many(lits.iter().copied());
        let any = aig.or_many(lits.iter().copied());
        let par = aig.xor_many(lits.iter().copied());
        aig.add_po("all", all);
        aig.add_po("any", any);
        aig.add_po("par", par);
        let out = aig.simulate(&[true, true, true, false, true]).unwrap();
        assert_eq!(out, vec![false, true, false]);
        let out = aig.simulate(&[true; 5]).unwrap();
        assert_eq!(out, vec![true, true, true]);
        let out = aig.simulate(&[false; 5]).unwrap();
        assert_eq!(out, vec![false, false, false]);
    }

    #[test]
    fn empty_wide_gates_are_constants() {
        let mut aig = Aig::new("t");
        assert_eq!(aig.and_many(std::iter::empty()), Lit::TRUE);
        assert_eq!(aig.or_many(std::iter::empty()), Lit::FALSE);
        assert_eq!(aig.xor_many(std::iter::empty()), Lit::FALSE);
    }

    #[test]
    fn levels_and_depth() {
        let aig = half_adder();
        let levels = aig.levels();
        assert_eq!(levels[0], 0);
        assert!(aig.depth() >= 2); // xor is 2 levels of ands
    }

    #[test]
    fn fanout_counts() {
        let aig = half_adder();
        let fo = aig.fanouts();
        // Each PI feeds the xor decomposition (2 ands) and the carry and.
        for &pi in aig.inputs() {
            assert!(fo[pi as usize] >= 2);
        }
    }

    #[test]
    fn arity_error() {
        let aig = half_adder();
        let err = aig.simulate(&[true]).unwrap_err();
        assert_eq!(
            err,
            NetlistError::InputArity {
                got: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn check_passes_on_valid() {
        half_adder().check().expect("valid aig");
    }

    #[test]
    fn lit_roundtrip() {
        let l = Lit::from_node(7, true);
        assert_eq!(l.raw(), 15);
        assert_eq!(l.to_string(), "!n7");
        assert_eq!((!l).to_string(), "n7");
        assert!(Lit::TRUE.is_const());
        assert_eq!(l.complement_if(true), !l);
        assert_eq!(l.complement_if(false), l);
    }
}
