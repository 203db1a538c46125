//! Deterministic synthesis-recipe search with a LOSTIN-style hybrid
//! predictor and joint recipe × VM planning inputs.
//!
//! Three parts, mirroring "Developing Synthesis Flows Without Human
//! Knowledge" (Yu et al.) and "LOSTIN" (Wu et al.) on top of this
//! workspace's cloud-deployment substrate:
//!
//! * [`search`] — a seeded MCTS agent over [`eda_cloud_flow::Pass`]
//!   sequences. Integer fixed-point UCB, canonical tie-breaking, a
//!   keyed evaluation cache, and batched pure evaluations make the
//!   search tree — and the emitted [`RecipeReport`] — byte-identical
//!   at any worker count.
//! * [`hybrid`] — a hybrid (design, recipe) → runtime predictor: a
//!   frozen seeded GCN design embedding concatenated with a positional
//!   recipe encoding through a small trainable dense head. It lives in
//!   memory only: fitted per run, it has no stored format.
//! * [`report`] — the byte-stable [`RecipeReport`], including the
//!   joint (recipe, VM plan) answer per design once the serving tier
//!   has planned over the candidate set.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_recipe::{RecipeSearch, SearchConfig};
//! use eda_cloud_netlist::generators;
//!
//! let aig = generators::build_family("adder", 4).unwrap();
//! let search = RecipeSearch::new(SearchConfig { iters: 8, ..SearchConfig::default() });
//! let outcome = search.run("adder_4", &aig)?;
//! assert_eq!(outcome.tree.root_visits(), 8);
//! # Ok::<(), eda_cloud_recipe::RecipeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
mod error;
mod faults;
pub mod hybrid;
pub mod report;
pub mod search;

pub use encode::{
    candidate_recipes, encode_recipe, pass_index, recipe_from_passes, recipe_key, ALPHABET,
    DEFAULT_PASSES, ENCODING_DIM, MAX_RECIPE_LEN,
};
pub use error::RecipeError;
pub use faults::{NoRecipeFaults, RecipeFaults};
pub use hybrid::{HybridPredictor, HybridSample, EMBED_DIM, HIDDEN_DIM};
pub use report::{DesignReport, JointPlan, RecipeReport};
pub use search::{
    EvalCache, EvalOutcome, NodeStat, RecipeSearch, SearchConfig, SearchOutcome, TrajectoryPoint,
    TreeStats, PPM,
};
