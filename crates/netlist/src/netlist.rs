//! Gate-level netlist: cells, nets, pins.

use crate::NetlistError;
use eda_cloud_tech::{CellKind, Library};
use std::fmt;

/// The most inputs any [`CellKind`] reads: the size of `simulate`'s
/// input buffer.
const MAX_CELL_INPUTS: usize = 3;

/// Index of a cell instance inside a [`Netlist`].
pub type CellId = u32;
/// Index of a net inside a [`Netlist`].
pub type NetId = u32;

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDriver {
    /// Driven by primary input number `n`.
    PrimaryInput(u32),
    /// Driven by the output pin of a cell.
    Cell(CellId),
}

/// A consumer of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSink {
    /// Input pin `pin` of a cell.
    CellPin {
        /// The consuming cell.
        cell: CellId,
        /// Input-pin position on that cell.
        pin: u32,
    },
    /// Primary output number `n`.
    PrimaryOutput(u32),
}

/// An instantiated standard cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellInst {
    /// Instance name (unique within the netlist).
    pub name: String,
    /// Library master name (e.g. `"NAND2_X1"`).
    pub cell_name: String,
    /// Function class, cached from the master for fast access.
    pub kind: CellKind,
    /// Nets connected to the input pins, in pin order.
    pub inputs: Vec<NetId>,
    /// Net driven by the output pin.
    pub output: NetId,
}

/// A net: one driver, many sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// The driver, if connected.
    pub driver: Option<NetDriver>,
    /// All sinks.
    pub sinks: Vec<NetSink>,
}

/// Summary statistics of a netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistStats {
    /// Number of cell instances.
    pub cells: usize,
    /// Number of nets.
    pub nets: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of sequential cells.
    pub sequential: usize,
    /// Total cell area in µm².
    pub area_um2: f64,
    /// Mean sinks per net.
    pub avg_fanout: f64,
    /// Largest sink count on any net.
    pub max_fanout: usize,
    /// Combinational logic depth in cell levels.
    pub depth: usize,
}

/// A gate-level netlist over a standard-cell [`Library`].
///
/// # Examples
///
/// ```
/// use eda_cloud_netlist::Netlist;
/// use eda_cloud_tech::{CellKind, Library};
///
/// let lib = Library::synthetic_14nm();
/// let mut nl = Netlist::new("toy", lib.name());
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_net("y");
/// nl.add_cell("u1", "NAND2_X1", CellKind::Nand2, vec![a, b], y);
/// nl.add_output("y", y);
/// nl.check().expect("well-formed");
/// assert_eq!(nl.stats(&lib).cells, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    library: String,
    cells: Vec<CellInst>,
    nets: Vec<Net>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<(String, NetId)>,
}

impl Netlist {
    /// Create an empty netlist bound to a library by name.
    #[must_use]
    pub fn new(name: impl Into<String>, library: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            library: library.into(),
            cells: Vec::new(),
            nets: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Name of the library the cells reference.
    #[must_use]
    pub fn library(&self) -> &str {
        &self.library
    }

    /// All cell instances (index = [`CellId`]).
    #[must_use]
    pub fn cells(&self) -> &[CellInst] {
        &self.cells
    }

    /// All nets (index = [`NetId`]).
    #[must_use]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Nets driven by primary inputs, in input order.
    #[must_use]
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary outputs as (port name, net) pairs.
    #[must_use]
    pub fn primary_outputs(&self) -> &[(String, NetId)] {
        &self.primary_outputs
    }

    /// Number of cell instances.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Add an unconnected net and return its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = self.nets.len() as NetId;
        self.nets.push(Net {
            name: name.into(),
            driver: None,
            sinks: Vec::new(),
        });
        id
    }

    /// Add a primary input port; creates and returns its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let net = self.add_net(name);
        let pi_idx = self.primary_inputs.len() as u32;
        self.nets[net as usize].driver = Some(NetDriver::PrimaryInput(pi_idx));
        self.primary_inputs.push(net);
        net
    }

    /// Mark `net` as a primary output named `name`.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        let po_idx = self.primary_outputs.len() as u32;
        self.nets[net as usize]
            .sinks
            .push(NetSink::PrimaryOutput(po_idx));
        self.primary_outputs.push((name.into(), net));
    }

    /// Instantiate a cell, wiring its pins, and return its id.
    ///
    /// # Panics
    ///
    /// Panics if any referenced net is out of range or the output net
    /// already has a driver.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        cell_name: impl Into<String>,
        kind: CellKind,
        inputs: Vec<NetId>,
        output: NetId,
    ) -> CellId {
        let id = self.cells.len() as CellId;
        for (pin, &net) in inputs.iter().enumerate() {
            assert!((net as usize) < self.nets.len(), "input net out of range");
            self.nets[net as usize].sinks.push(NetSink::CellPin {
                cell: id,
                pin: pin as u32,
            });
        }
        assert!(
            (output as usize) < self.nets.len(),
            "output net out of range"
        );
        let slot = &mut self.nets[output as usize].driver;
        assert!(
            slot.is_none(),
            "net `{}` already driven",
            self.nets[output as usize].name
        );
        *slot = Some(NetDriver::Cell(id));
        self.cells.push(CellInst {
            name: name.into(),
            cell_name: cell_name.into(),
            kind,
            inputs,
            output,
        });
        id
    }

    /// Validate structural invariants: every net driven exactly once, all
    /// references in range, and the combinational part acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`NetlistError`].
    pub fn check(&self) -> Result<(), NetlistError> {
        for net in &self.nets {
            if net.driver.is_none() {
                return Err(NetlistError::Undriven(net.name.clone()));
            }
        }
        for cell in &self.cells {
            for &n in cell.inputs.iter().chain(std::iter::once(&cell.output)) {
                if n as usize >= self.nets.len() {
                    return Err(NetlistError::InvalidReference {
                        what: "net",
                        index: n as usize,
                        len: self.nets.len(),
                    });
                }
            }
        }
        self.topological_cells().map(|_| ())
    }

    /// Cells in combinational topological order (sequential cells are
    /// treated as sources: their outputs are available at time zero).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if a cycle of
    /// combinational cells exists.
    pub fn topological_cells(&self) -> Result<Vec<CellId>, NetlistError> {
        // Kahn's algorithm over combinational dependencies.
        let mut indeg = vec![0u32; self.cells.len()];
        for (ci, cell) in self.cells.iter().enumerate() {
            if cell.kind.is_sequential() {
                continue; // outputs available immediately
            }
            for &inet in &cell.inputs {
                if let Some(NetDriver::Cell(driver)) = self.nets[inet as usize].driver {
                    if !self.cells[driver as usize].kind.is_sequential() {
                        indeg[ci] += 1;
                    }
                }
            }
        }
        // Every cell enters the queue once: size it up front.
        let mut queue: Vec<CellId> = Vec::with_capacity(self.cells.len());
        queue.extend((0..self.cells.len() as CellId).filter(|&c| indeg[c as usize] == 0));
        let mut order = Vec::with_capacity(self.cells.len());
        let mut head = 0;
        while head < queue.len() {
            let c = queue[head];
            head += 1;
            order.push(c);
            if self.cells[c as usize].kind.is_sequential() {
                // Edges from sequential drivers were never counted.
                continue;
            }
            let out = self.cells[c as usize].output;
            for sink in &self.nets[out as usize].sinks {
                if let NetSink::CellPin { cell, .. } = *sink {
                    if !self.cells[cell as usize].kind.is_sequential() {
                        indeg[cell as usize] -= 1;
                        if indeg[cell as usize] == 0 {
                            queue.push(cell);
                        }
                    }
                }
            }
        }
        if order.len() != self.cells.len() {
            return Err(NetlistError::CombinationalCycle);
        }
        Ok(order)
    }

    /// Evaluate the combinational netlist on one input vector.
    ///
    /// Sequential cells pass their data input through (a one-cycle view),
    /// which is sufficient for the structural-equivalence checks used by
    /// the synthesis tests.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArity`] on input-count mismatch or
    /// [`NetlistError::CombinationalCycle`] if the design is cyclic.
    pub fn simulate(&self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if inputs.len() != self.primary_inputs.len() {
            return Err(NetlistError::InputArity {
                got: inputs.len(),
                expected: self.primary_inputs.len(),
            });
        }
        let order = self.topological_cells()?;
        let mut value = vec![false; self.nets.len()];
        for (i, &net) in self.primary_inputs.iter().enumerate() {
            value[net as usize] = inputs[i];
        }
        // One fixed buffer serves every cell. A cell with fewer nets than
        // its kind reads hands `eval` a short slice, which panics on the
        // arity.
        let mut ins = [false; MAX_CELL_INPUTS];
        for &cid in &order {
            let cell = &self.cells[cid as usize];
            let arity = cell.kind.input_count();
            assert!(arity <= ins.len(), "cell {} reads {arity} inputs", cell.kind);
            let nets = &cell.inputs[..arity.min(cell.inputs.len())];
            for (slot, &n) in ins.iter_mut().zip(nets) {
                *slot = value[n as usize];
            }
            value[cell.output as usize] = cell.kind.eval(&ins[..nets.len()]);
        }
        Ok(self
            .primary_outputs
            .iter()
            .map(|(_, n)| value[*n as usize])
            .collect())
    }

    /// Combinational depth in cell levels.
    #[must_use]
    pub fn depth(&self) -> usize {
        let Ok(order) = self.topological_cells() else {
            return 0;
        };
        let mut level = vec![0usize; self.cells.len()];
        let mut max = 0;
        for &cid in &order {
            let cell = &self.cells[cid as usize];
            if cell.kind.is_sequential() {
                continue;
            }
            let mut l = 0;
            for &inet in &cell.inputs {
                if let Some(NetDriver::Cell(d)) = self.nets[inet as usize].driver {
                    if !self.cells[d as usize].kind.is_sequential() {
                        l = l.max(level[d as usize] + 1);
                    }
                }
            }
            level[cid as usize] = l.max(1);
            max = max.max(level[cid as usize]);
        }
        max
    }

    /// Compute summary statistics against a library.
    #[must_use]
    pub fn stats(&self, lib: &Library) -> NetlistStats {
        let area: f64 = self
            .cells
            .iter()
            .map(|c| lib.cell(&c.cell_name).map(|m| m.area_um2).unwrap_or(0.0))
            .sum();
        let sinks: usize = self.nets.iter().map(|n| n.sinks.len()).sum();
        let max_fanout = self.nets.iter().map(|n| n.sinks.len()).max().unwrap_or(0);
        NetlistStats {
            cells: self.cells.len(),
            nets: self.nets.len(),
            inputs: self.primary_inputs.len(),
            outputs: self.primary_outputs.len(),
            sequential: self
                .cells
                .iter()
                .filter(|c| c.kind.is_sequential())
                .count(),
            area_um2: area,
            avg_fanout: if self.nets.is_empty() {
                0.0
            } else {
                sinks as f64 / self.nets.len() as f64
            },
            max_fanout,
            depth: self.depth(),
        }
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist `{}`: {} cells, {} nets, {} PIs, {} POs",
            self.name,
            self.cells.len(),
            self.nets.len(),
            self.primary_inputs.len(),
            self.primary_outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nand_xor() -> Netlist {
        // y = a XOR b built from 4 NAND2s.
        let mut nl = Netlist::new("xor_nand", "synth14");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        let n3 = nl.add_net("n3");
        let y = nl.add_net("y");
        nl.add_cell("u1", "NAND2_X1", CellKind::Nand2, vec![a, b], n1);
        nl.add_cell("u2", "NAND2_X1", CellKind::Nand2, vec![a, n1], n2);
        nl.add_cell("u3", "NAND2_X1", CellKind::Nand2, vec![b, n1], n3);
        nl.add_cell("u4", "NAND2_X1", CellKind::Nand2, vec![n2, n3], y);
        nl.add_output("y", y);
        nl
    }

    #[test]
    fn xor_from_nands_simulates() {
        let nl = nand_xor();
        nl.check().expect("well-formed");
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(nl.simulate(&[a, b]).unwrap(), vec![a ^ b]);
        }
    }

    #[test]
    fn depth_of_xor_nand_is_three() {
        assert_eq!(nand_xor().depth(), 3);
    }

    #[test]
    fn stats_are_consistent() {
        let lib = Library::synthetic_14nm();
        let nl = nand_xor();
        let s = nl.stats(&lib);
        assert_eq!(s.cells, 4);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.sequential, 0);
        assert!(s.area_um2 > 1.0);
        assert!(s.avg_fanout > 0.0);
        assert!(s.max_fanout >= 2); // n1 feeds u2 and u3
    }

    #[test]
    fn undriven_net_detected() {
        let mut nl = Netlist::new("bad", "synth14");
        let a = nl.add_input("a");
        let dangling = nl.add_net("dangling");
        let y = nl.add_net("y");
        nl.add_cell("u1", "NAND2_X1", CellKind::Nand2, vec![a, dangling], y);
        nl.add_output("y", y);
        assert_eq!(
            nl.check().unwrap_err(),
            NetlistError::Undriven("dangling".to_owned())
        );
    }

    #[test]
    fn cycle_detected() {
        let mut nl = Netlist::new("cyc", "synth14");
        let a = nl.add_input("a");
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        nl.add_cell("u1", "NAND2_X1", CellKind::Nand2, vec![a, n2], n1);
        nl.add_cell("u2", "NAND2_X1", CellKind::Nand2, vec![a, n1], n2);
        nl.add_output("y", n2);
        assert_eq!(nl.check().unwrap_err(), NetlistError::CombinationalCycle);
    }

    #[test]
    fn dff_breaks_cycle() {
        // A DFF in a loop is a legal sequential circuit.
        let mut nl = Netlist::new("seq", "synth14");
        let clk = nl.add_input("clk");
        let n1 = nl.add_net("n1");
        let q = nl.add_net("q");
        nl.add_cell("inv", "INV_X1", CellKind::Inv, vec![q], n1);
        nl.add_cell("ff", "DFF_X1", CellKind::Dff, vec![n1, clk], q);
        nl.add_output("q", q);
        nl.check().expect("sequential loop is fine");
        let s = nl.stats(&Library::synthetic_14nm());
        assert_eq!(s.sequential, 1);
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_driver_panics() {
        let mut nl = Netlist::new("bad", "synth14");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_cell("u1", "INV_X1", CellKind::Inv, vec![a], y);
        nl.add_cell("u2", "INV_X1", CellKind::Inv, vec![b], y);
    }

    #[test]
    fn arity_error_on_simulate() {
        let nl = nand_xor();
        assert!(matches!(
            nl.simulate(&[true]).unwrap_err(),
            NetlistError::InputArity {
                got: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn every_kind_fits_the_simulation_buffer() {
        let widest = CellKind::ALL.iter().map(|k| k.input_count()).max();
        assert_eq!(widest, Some(MAX_CELL_INPUTS));
    }

    #[test]
    #[should_panic(expected = "cell NAND2 expects 2 inputs, got 1")]
    fn simulating_a_cell_short_of_inputs_panics_on_its_arity() {
        let mut nl = Netlist::new("short", "synth14");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_cell("u1", "NAND2_X1", CellKind::Nand2, vec![a], y);
        nl.add_output("y", y);
        let _ = nl.simulate(&[true]);
    }

    #[test]
    fn display_mentions_counts() {
        let text = nand_xor().to_string();
        assert!(text.contains("4 cells"));
        assert!(text.contains("2 PIs"));
    }
}
