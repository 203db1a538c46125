//! Design substrate: And-Inverter Graphs, gate-level netlists, graph
//! conversion, and synthetic benchmark generators.
//!
//! The DATE 2021 paper operates on two design representations:
//!
//! * **AIG** (And-Inverter Graph) — the intermediate representation that
//!   synthesis tools map RTL into; the runtime-prediction GCN for the
//!   synthesis stage consumes it directly ([`Aig`]).
//! * **Gate-level netlist** — the input to placement, routing, and STA;
//!   the GCN consumes its *star-model* graph where each net contributes
//!   one directed edge from the driver to every sink ([`Netlist`],
//!   [`DesignGraph::from_netlist`]).
//!
//! The paper's benchmark corpus (18 EPFL/OpenCores designs, 330 netlists)
//! is proprietary-flow-derived; [`generators`] rebuilds an equivalent
//! synthetic corpus: 18 parameterized design families whose AIGs are then
//! synthesized under different recipes by `eda-cloud-flow`.
//!
//! Both representations simulate one input vector at a time
//! ([`Aig::simulate`], [`Netlist::simulate`]); that is how the flow
//! checks a mapped netlist against its source AIG.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_netlist::{generators, DesignGraph};
//!
//! let aig = generators::adder(8);
//! assert!(aig.and_count() > 0);
//! let graph = DesignGraph::from_aig(&aig);
//! assert_eq!(graph.node_count(), aig.node_count() + aig.output_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aig;
mod error;
pub mod formats;
pub mod generators;
mod graph;
mod netlist;

pub use aig::{Aig, AigNode, Lit, NodeId};
pub use error::NetlistError;
pub use graph::{DesignGraph, NodeFeatures, FEATURE_DIM};
pub use netlist::{CellId, CellInst, Net, NetDriver, NetId, NetSink, Netlist, NetlistStats};
