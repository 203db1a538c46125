//! Graph Convolutional Network runtime predictor, from scratch.
//!
//! Implements the paper's Problem-2 model (Figure 4): the design — an
//! AIG for synthesis, a star-model netlist graph for placement /
//! routing / STA — is embedded by two graph-convolution layers
//! (Equation 2: mean aggregation over neighbors plus a self term),
//! sum-pooled, passed through a fully connected layer, and regressed
//! onto the four runtimes (1, 2, 4 and 8 vCPUs) with a single MSE loss.
//! Training uses Adam (lr = 1e-4) for 200 epochs, exactly the paper's
//! recipe; hidden sizes default to the paper's 256/128/128 and are
//! configurable for faster test/bench runs.
//!
//! Everything — dense matrices, sparse CSR adjacency, backpropagation,
//! Adam — is implemented in this crate with no external ML dependency.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_gcn::{GraphSample, ModelConfig, RuntimePredictor};
//! use eda_cloud_netlist::{generators, DesignGraph};
//!
//! let graph = DesignGraph::from_aig(&generators::adder(4));
//! let sample = GraphSample::new(&graph, [10.0, 6.0, 4.0, 3.0]);
//! let mut model = RuntimePredictor::new(&ModelConfig::fast(), 7);
//! let before = model.train_step(&sample, 1e-2); // returns the pre-step loss
//! for _ in 0..50 {
//!     model.train_step(&sample, 1e-2);
//! }
//! assert!(model.train_step(&sample, 1e-2) < before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adam;
mod batch;
mod error;
mod graph_data;
mod layers;
mod model;
mod profile;
mod quant;
mod tensor;
mod train;

pub use adam::Adam;
pub use batch::{GraphBatch, RowQuotient, CHUNK_TARGET_ROWS};
pub use error::GcnError;
pub use graph_data::GraphSample;
pub use layers::{DenseGrads, DenseLayer, GcnBuffers, GcnLayer, LayerScratch};
pub use model::{saturating_exp, LoadWeightsError, ModelConfig, RuntimePredictor, MAX_LOG_SECS};
pub use profile::FeatureProfile;
pub use quant::{QuantizedMatrix, QuantizedPredictor};
pub use tensor::{Matrix, SparseMatrix};
pub use train::{DatasetSplit, TrainOutcome, TrainReport, Trainer};

#[cfg(test)]
mod oracle;
