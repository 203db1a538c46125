//! Design-to-graph conversion for the runtime-prediction GCN.
//!
//! The paper feeds the GCN either the AIG of a design (synthesis) or the
//! *star-model* graph of its netlist (placement/routing/STA): cells and
//! I/O pins become nodes, and each net becomes a set of directed edges
//! from the driving cell (or input pin) to each sink (or output pin).

use crate::aig::{Aig, AigNode};
use crate::netlist::{CellId, NetDriver, NetId, NetSink, Netlist};

/// Number of per-node input features produced by the converters.
pub const FEATURE_DIM: usize = 10;

/// Per-node feature vector layout (see [`FEATURE_DIM`]).
///
/// | idx | meaning |
/// |-----|---------|
/// | 0 | is primary input |
/// | 1 | is primary output |
/// | 2 | is combinational gate / AND node |
/// | 3 | is sequential element |
/// | 4 | fanin count / 4 |
/// | 5 | `ln(1 + fanout)` |
/// | 6 | logic level / depth (normalized) |
/// | 7 | complemented-fanin fraction (AIG) or relative drive (netlist) |
/// | 8 | relative area (netlist; 0 for AIG) |
/// | 9 | constant 1 (bias) |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFeatures(pub [f64; FEATURE_DIM]);

/// A directed graph with node features, ready for GCN consumption.
///
/// Stored in CSR (compressed sparse row) form over *outgoing* edges;
/// [`DesignGraph::in_neighbors`] reads the transposed (incoming) view
/// used for fanin aggregation.
///
/// # Examples
///
/// ```
/// use eda_cloud_netlist::{generators, DesignGraph};
///
/// let graph = DesignGraph::from_aig(&generators::adder(4));
/// assert!(graph.edge_count() > 0);
/// let deg: usize = (0..graph.node_count()).map(|v| graph.in_neighbors(v).len()).sum();
/// assert_eq!(deg, graph.edge_count());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignGraph {
    name: String,
    node_count: usize,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    rev_offsets: Vec<u32>,
    rev_targets: Vec<u32>,
    features: Vec<f64>,
}

impl DesignGraph {
    /// Build from an edge list. Edges are `(from, to)` node indices.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= node_count` or if
    /// `features.len() != node_count`.
    #[must_use]
    pub fn from_edges(
        name: impl Into<String>,
        node_count: usize,
        edges: &[(u32, u32)],
        features: Vec<NodeFeatures>,
    ) -> Self {
        assert_eq!(features.len(), node_count, "one feature row per node");
        let csr = |key: fn(&(u32, u32)) -> u32, val: fn(&(u32, u32)) -> u32| {
            let mut offsets = vec![0u32; node_count + 1];
            for e in edges {
                let k = key(e) as usize;
                assert!(k < node_count, "edge endpoint out of range");
                assert!((val(e) as usize) < node_count, "edge endpoint out of range");
                offsets[k + 1] += 1;
            }
            for i in 0..node_count {
                offsets[i + 1] += offsets[i];
            }
            let mut cursor = offsets.clone();
            let mut targets = vec![0u32; edges.len()];
            for e in edges {
                let k = key(e) as usize;
                targets[cursor[k] as usize] = val(e);
                cursor[k] += 1;
            }
            (offsets, targets)
        };
        let (offsets, targets) = csr(|e| e.0, |e| e.1);
        let (rev_offsets, rev_targets) = csr(|e| e.1, |e| e.0);
        let flat: Vec<f64> = features.iter().flat_map(|f| f.0).collect();
        Self {
            name: name.into(),
            node_count,
            offsets,
            targets,
            rev_offsets,
            rev_targets,
            features: flat,
        }
    }

    /// Convert an AIG: one node per AIG node plus one per primary output;
    /// edges follow signal flow (fanin → node, PO driver → PO node).
    #[must_use]
    pub fn from_aig(aig: &Aig) -> Self {
        let n_core = aig.node_count();
        let n = n_core + aig.output_count();
        let levels = aig.levels();
        let fanouts = aig.fanouts();
        // Normalize by the deepest node anywhere in the AIG (dead logic
        // included) so the level feature is always within [0, 1].
        let depth = f64::from(levels.iter().copied().max().unwrap_or(0).max(1));
        let mut edges = Vec::new();
        let mut features = vec![NodeFeatures([0.0; FEATURE_DIM]); n];
        for (i, node) in aig.nodes().iter().enumerate() {
            let f = &mut features[i].0;
            f[9] = 1.0;
            f[5] = (1.0 + f64::from(fanouts[i])).ln();
            f[6] = f64::from(levels[i]) / depth;
            match node {
                AigNode::Const0 => {}
                AigNode::Pi(_) => f[0] = 1.0,
                AigNode::And(a, b) => {
                    f[2] = 1.0;
                    f[4] = 2.0 / 4.0;
                    f[7] = (f64::from(u8::from(a.is_complemented()))
                        + f64::from(u8::from(b.is_complemented())))
                        / 2.0;
                    edges.push((a.node(), i as u32));
                    edges.push((b.node(), i as u32));
                }
            }
        }
        for (k, (_, lit)) in aig.outputs().iter().enumerate() {
            let v = (n_core + k) as u32;
            let f = &mut features[v as usize].0;
            f[1] = 1.0;
            f[4] = 1.0 / 4.0;
            f[6] = 1.0;
            f[7] = f64::from(u8::from(lit.is_complemented()));
            f[9] = 1.0;
            edges.push((lit.node(), v));
        }
        Self::from_edges(aig.name().to_owned(), n, &edges, features)
    }

    /// Convert a netlist using the star model: one node per cell, per
    /// primary input, and per primary output; each net contributes a
    /// directed edge from its driver node to every sink node.
    #[must_use]
    pub fn from_netlist(netlist: &Netlist) -> Self {
        let n_cells = netlist.cell_count();
        let n_pis = netlist.primary_inputs().len();
        // Node numbering: cells, then PI ports, then PO ports.
        let pi_node = |k: usize| (n_cells + k) as u32;
        let po_node = |k: usize| (n_cells + n_pis + k) as u32;

        let mut edges = Vec::new();
        for net in netlist.nets() {
            let Some(driver) = net.driver else { continue };
            let from = match driver {
                NetDriver::Cell(c) => c,
                NetDriver::PrimaryInput(k) => pi_node(k as usize),
            };
            for sink in &net.sinks {
                let to = match *sink {
                    NetSink::CellPin { cell, .. } => cell,
                    NetSink::PrimaryOutput(k) => po_node(k as usize),
                };
                edges.push((from, to));
            }
        }
        Self::star(netlist, |i| i, &levels(netlist), &edges)
    }

    /// [`DesignGraph::from_netlist`] of `netlist` rebuilt with its cells
    /// in `order`, without rebuilding it: node `i` is cell `order[i]`,
    /// then come the PI ports, then the PO ports. Nets are enumerated
    /// PI nets first, then each cell's output net in `order`; a net's
    /// sinks are ordered by (position in `order`, pin), then POs by
    /// index — where the rebuilt netlist's builder would have put them.
    /// `level` is every cell's logic level, indexed by [`CellId`], as
    /// [`Netlist::depth`] computes it.
    ///
    /// Every net must be driven ([`Netlist::check`]) and `order` must
    /// be a permutation of the cells.
    #[must_use]
    pub fn from_netlist_in_order(netlist: &Netlist, order: &[CellId], level: &[u32]) -> Self {
        let (cells, nets) = (netlist.cells(), netlist.nets());
        let n_cells = netlist.cell_count();
        let pi_node = |k: usize| (n_cells + k) as u32;
        let po_node = |k: usize| (n_cells + netlist.primary_inputs().len() + k) as u32;
        // Each net's sink nodes in the rebuilt order, one run per net:
        // `at[net]` starts at the run's first slot and ends past its last.
        let mut at = Vec::with_capacity(nets.len());
        let mut total = 0;
        for net in nets {
            at.push(total);
            total += net.sinks.len();
        }
        let mut sinks = vec![0u32; total];
        let mut place = |net: NetId, node: u32| {
            let slot = &mut at[net as usize];
            sinks[*slot] = node;
            *slot += 1;
        };
        for (rank, &c) in order.iter().enumerate() {
            for &net in &cells[c as usize].inputs {
                place(net, rank as u32);
            }
        }
        for (k, &(_, net)) in netlist.primary_outputs().iter().enumerate() {
            place(net, po_node(k));
        }
        let run = |net: NetId| {
            let end = at[net as usize];
            &sinks[end - nets[net as usize].sinks.len()..end]
        };
        let pis = netlist.primary_inputs().iter().enumerate().map(|(k, &net)| (net, pi_node(k)));
        let outs =
            order.iter().enumerate().map(|(rank, &c)| (cells[c as usize].output, rank as u32));
        let mut edges = Vec::with_capacity(total);
        for (net, from) in pis.chain(outs) {
            edges.extend(run(net).iter().map(|&to| (from, to)));
        }
        Self::star(netlist, |i| order[i] as usize, level, &edges)
    }

    /// Featurize a star-model graph whose node `i < cell_count` is cell
    /// `cell_at(i)`, at `level[cell_at(i)]`, followed by the PI ports and
    /// then the PO ports; `edges` run from driver node to sink node.
    fn star(
        netlist: &Netlist,
        cell_at: impl Fn(usize) -> usize,
        level: &[u32],
        edges: &[(u32, u32)],
    ) -> Self {
        let n_cells = netlist.cell_count();
        let n_pis = netlist.primary_inputs().len();
        let n = n_cells + n_pis + netlist.primary_outputs().len();
        let depth = f64::from(level.iter().copied().max().unwrap_or(0).max(1));
        let mut fanout = vec![0u32; n];
        for &(from, _) in edges {
            fanout[from as usize] += 1;
        }

        let max_area = 2.0; // µm², roughly the largest master in synth14
        let mut features = vec![NodeFeatures([0.0; FEATURE_DIM]); n];
        for (i, node) in features.iter_mut().enumerate() {
            let f = &mut node.0;
            f[9] = 1.0;
            if i < n_cells {
                let c = cell_at(i);
                let cell = &netlist.cells()[c];
                f[2] = if cell.kind.is_sequential() { 0.0 } else { 1.0 };
                f[3] = if cell.kind.is_sequential() { 1.0 } else { 0.0 };
                f[4] = cell.inputs.len() as f64 / 4.0;
                f[5] = (1.0 + f64::from(fanout[i])).ln();
                f[6] = f64::from(level[c]) / depth;
                // Relative drive strength from the master name suffix.
                f[7] = if cell.cell_name.ends_with("X2") { 1.0 } else { 0.5 };
                f[8] = (0.2 + 0.1 * cell.inputs.len() as f64) / max_area;
            } else if i < n_cells + n_pis {
                f[0] = 1.0;
                f[5] = (1.0 + f64::from(fanout[i])).ln();
            } else {
                f[1] = 1.0;
                f[4] = 0.25;
                f[6] = 1.0;
            }
        }
        Self::from_edges(netlist.name().to_owned(), n, edges, features)
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Incoming neighbors of node `v` (its fanins under signal flow).
    ///
    /// # Panics
    ///
    /// Panics if `v >= node_count`.
    #[must_use]
    pub fn in_neighbors(&self, v: usize) -> &[u32] {
        &self.rev_targets[self.rev_offsets[v] as usize..self.rev_offsets[v + 1] as usize]
    }

    /// Flat row-major feature matrix (`node_count x FEATURE_DIM`).
    #[must_use]
    pub fn features(&self) -> &[f64] {
        &self.features
    }
}

/// Combinational logic level of every cell, as [`Netlist::depth`]
/// computes it (all zero when the netlist has a combinational cycle):
/// one topological sort, one pass.
fn levels(netlist: &Netlist) -> Vec<u32> {
    let mut level = vec![0u32; netlist.cell_count()];
    let Ok(order) = netlist.topological_cells() else { return level };
    for cid in order {
        let cell = &netlist.cells()[cid as usize];
        if cell.kind.is_sequential() {
            continue;
        }
        let mut l = 1;
        for &inet in &cell.inputs {
            if let Some(NetDriver::Cell(d)) = netlist.nets()[inet as usize].driver {
                if !netlist.cells()[d as usize].kind.is_sequential() {
                    l = l.max(level[d as usize] + 1);
                }
            }
        }
        level[cid as usize] = l;
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use eda_cloud_tech::CellKind;

    #[test]
    fn aig_conversion_shape() {
        let aig = generators::adder(4);
        let g = DesignGraph::from_aig(&aig);
        assert_eq!(g.node_count(), aig.node_count() + aig.output_count());
        // Every AND contributes 2 edges; every PO 1 edge.
        assert_eq!(g.edge_count(), 2 * aig.and_count() + aig.output_count());
    }

    #[test]
    fn csr_views_are_transposes() {
        let g = DesignGraph::from_aig(&generators::adder(4));
        let mut fwd: Vec<(u32, u32)> = Vec::new();
        for v in 0..g.node_count() {
            for &t in &g.targets[g.offsets[v] as usize..g.offsets[v + 1] as usize] {
                fwd.push((v as u32, t));
            }
        }
        let mut rev: Vec<(u32, u32)> = Vec::new();
        for v in 0..g.node_count() {
            for &s in g.in_neighbors(v) {
                rev.push((s, v as u32));
            }
        }
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn star_model_edge_count() {
        // Build 1 driver cell with 3 sinks: expect 3 star edges for that net.
        let mut nl = Netlist::new("star", "synth14");
        let a = nl.add_input("a");
        let hub = nl.add_net("hub");
        nl.add_cell("drv", "INV_X1", CellKind::Inv, vec![a], hub);
        for i in 0..3 {
            let out = nl.add_net(format!("o{i}"));
            nl.add_cell(format!("s{i}"), "INV_X1", CellKind::Inv, vec![hub], out);
            nl.add_output(format!("o{i}"), out);
        }
        let g = DesignGraph::from_netlist(&nl);
        // a->drv (1), hub: drv->s0,s1,s2 (3), o_i -> PO_i (3)
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.node_count(), 4 + 1 + 3);
        // drv node (id 0) has 3 outgoing star edges.
        assert_eq!(g.offsets[1] - g.offsets[0], 3);
    }

    #[test]
    fn features_have_bias_and_flags() {
        let aig = generators::adder(4);
        let g = DesignGraph::from_aig(&aig);
        let rows: Vec<&[f64]> = g.features().chunks(FEATURE_DIM).collect();
        assert_eq!(rows.len(), g.node_count());
        assert!(rows.iter().all(|f| f[9] == 1.0), "bias feature");
        // PI nodes flagged.
        let pi = aig.inputs()[0] as usize;
        assert_eq!(rows[pi][0], 1.0);
        // PO nodes flagged (appended after core nodes).
        let po = aig.node_count();
        assert_eq!(rows[po][1], 1.0);
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn out_of_range_edge_panics() {
        let feats = vec![NodeFeatures([0.0; FEATURE_DIM]); 2];
        let _ = DesignGraph::from_edges("bad", 2, &[(0, 5)], feats);
    }
}
