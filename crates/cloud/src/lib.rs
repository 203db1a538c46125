//! Cloud substrate: instance catalog and pricing.
//!
//! The paper provisions AWS VMs and prices deployments with "the pricing
//! table for the machine configurations from AWS at the time of this
//! writeup". Cloud access is an external gate, so this crate carries a
//! built-in on-demand catalog shaped like AWS's m5 (general-purpose),
//! r5 (memory-optimized), and c5 (compute-optimized) families at
//! `.large` through `.2xlarge` sizes, per-second billing with a
//! 60-second minimum, and spot-market expectations. VMs are launched and
//! billed by the fleet simulator (`eda-cloud-fleet`), which keeps them on
//! its own event clock. Each instance maps to the machine a job observes
//! — its vCPU count, clock and memory bandwidth — the VM sizes the paper
//! emulates with cgroups.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_cloud::{Catalog, InstanceFamily};
//!
//! let catalog = Catalog::aws_like();
//! let m5 = catalog.instance("m5.large").expect("exists");
//! assert_eq!(m5.vcpus, 2);
//! let cost = catalog.pricing().cost_usd(m5, 3600.0);
//! assert!((cost - m5.price_per_hour).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod instance;
mod pricing;

pub use error::CloudError;
pub use instance::{Catalog, InstanceFamily, InstanceType};
pub use pricing::{Pricing, SpotMarket};
