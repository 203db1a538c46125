//! Instance families, types, and the built-in catalog.

use crate::CloudError;
use eda_cloud_perf::MachineConfig;
use std::fmt;

/// Cloud instance families, mirroring the broad AWS categories the
/// paper's recommendations are phrased in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstanceFamily {
    /// Balanced compute/memory (AWS m5-like).
    GeneralPurpose,
    /// High memory-to-core ratio and bandwidth (AWS r5-like).
    MemoryOptimized,
    /// High clock, AVX-512 (AWS c5-like).
    ComputeOptimized,
}

impl fmt::Display for InstanceFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstanceFamily::GeneralPurpose => "general-purpose",
            InstanceFamily::MemoryOptimized => "memory-optimized",
            InstanceFamily::ComputeOptimized => "compute-optimized",
        };
        f.write_str(s)
    }
}

/// One purchasable VM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    /// Catalog name, e.g. `"m5.xlarge"`.
    pub name: String,
    /// Family this size belongs to.
    pub family: InstanceFamily,
    /// Virtual CPU count.
    pub vcpus: u32,
    /// Memory in GiB.
    pub memory_gb: f64,
    /// On-demand price in USD per hour.
    pub price_per_hour: f64,
    /// Sustained core clock in GHz.
    pub clock_ghz: f64,
    /// Whether the underlying processor exposes AVX-512 units.
    pub avx512: bool,
}

impl InstanceType {
    /// The machine configuration an EDA job observes on this instance.
    #[must_use]
    pub fn machine_config(&self) -> MachineConfig {
        let bw_per_vcpu = match self.family {
            InstanceFamily::GeneralPurpose => 6.0,
            InstanceFamily::MemoryOptimized => 9.5,
            InstanceFamily::ComputeOptimized => 5.0,
        };
        MachineConfig {
            vcpus: self.vcpus,
            clock_ghz: self.clock_ghz,
            avx: true,
            mem_bw_gbps: bw_per_vcpu * f64::from(self.vcpus),
        }
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} vCPU, {} GiB, ${:.4}/h)",
            self.name, self.vcpus, self.memory_gb, self.price_per_hour
        )
    }
}

/// The instance catalog with its pricing rules.
///
/// # Examples
///
/// ```
/// use eda_cloud_cloud::{Catalog, InstanceFamily};
///
/// let catalog = Catalog::aws_like();
/// let r5 = catalog.cheapest_with(InstanceFamily::MemoryOptimized, 3).expect("a 4-vCPU r5");
/// assert_eq!((r5.name.as_str(), r5.vcpus), ("r5.xlarge", 4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    instances: Vec<InstanceType>,
    pricing: crate::Pricing,
}

impl Catalog {
    /// The built-in catalog modeled on AWS 2020 us-east-1 on-demand
    /// pricing for m5 / r5 / c5 at 1-8 vCPUs.
    ///
    /// AWS sells these families starting at 2 vCPUs (`.large`); the
    /// 1-vCPU `.medium` rows carry the ~1.9x per-vCPU premium implied by
    /// the paper's own cost table (e.g. its 1-vCPU routing machine works
    /// out to $0.110/h where r5.large is $0.063/vCPU-h) — the smallest
    /// purchasable single-vCPU machines are never price-proportional.
    #[must_use]
    pub fn aws_like() -> Self {
        use InstanceFamily::{ComputeOptimized, GeneralPurpose, MemoryOptimized};
        let rows: &[(&str, InstanceFamily, u32, f64, f64, f64, bool)] = &[
            // name, family, vcpus, mem GiB, $/h, clock, avx512
            ("m5.medium", GeneralPurpose, 1, 4.0, 0.094, 3.1, false),
            ("m5.large", GeneralPurpose, 2, 8.0, 0.096, 3.1, false),
            ("m5.xlarge", GeneralPurpose, 4, 16.0, 0.192, 3.1, false),
            ("m5.2xlarge", GeneralPurpose, 8, 32.0, 0.384, 3.1, false),
            ("r5.medium", MemoryOptimized, 1, 8.0, 0.110, 3.1, false),
            ("r5.large", MemoryOptimized, 2, 16.0, 0.126, 3.1, false),
            ("r5.xlarge", MemoryOptimized, 4, 32.0, 0.252, 3.1, false),
            ("r5.2xlarge", MemoryOptimized, 8, 64.0, 0.504, 3.1, false),
            ("c5.medium", ComputeOptimized, 1, 2.0, 0.080, 3.6, true),
            ("c5.large", ComputeOptimized, 2, 4.0, 0.085, 3.6, true),
            ("c5.xlarge", ComputeOptimized, 4, 8.0, 0.17, 3.6, true),
            ("c5.2xlarge", ComputeOptimized, 8, 16.0, 0.34, 3.6, true),
        ];
        let instances = rows
            .iter()
            .map(
                |&(name, family, vcpus, memory_gb, price, clock_ghz, avx512)| InstanceType {
                    name: name.to_owned(),
                    family,
                    vcpus,
                    memory_gb,
                    price_per_hour: price,
                    clock_ghz,
                    avx512,
                },
            )
            .collect();
        Self {
            instances,
            pricing: crate::Pricing::per_second(),
        }
    }

    /// All instance types.
    #[must_use]
    pub fn instances(&self) -> &[InstanceType] {
        &self.instances
    }

    /// The billing rules.
    #[must_use]
    pub fn pricing(&self) -> &crate::Pricing {
        &self.pricing
    }

    /// Look up an instance by name.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownInstance`] when absent.
    pub fn instance(&self, name: &str) -> Result<&InstanceType, CloudError> {
        self.instances
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| CloudError::UnknownInstance(name.to_owned()))
    }

    /// The cheapest instance of `family` with at least `vcpus` vCPUs.
    #[must_use]
    pub fn cheapest_with(&self, family: InstanceFamily, vcpus: u32) -> Option<&InstanceType> {
        self.instances
            .iter()
            .filter(|i| i.family == family && i.vcpus >= vcpus)
            .min_by(|a, b| a.price_per_hour.total_cmp(&b.price_per_hour))
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::aws_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 1/2/4/8-vCPU sizes of `family`, through the lookup planners use.
    fn sizes(c: &Catalog, family: InstanceFamily) -> Vec<&InstanceType> {
        let of = |vcpus| c.cheapest_with(family, vcpus).expect("every family has the size");
        [1, 2, 4, 8].map(of).to_vec()
    }

    #[test]
    fn catalog_has_three_families_at_four_sizes() {
        let c = Catalog::aws_like();
        assert_eq!(c.instances().len(), 12);
        for family in [
            InstanceFamily::GeneralPurpose,
            InstanceFamily::MemoryOptimized,
            InstanceFamily::ComputeOptimized,
        ] {
            assert_eq!(
                sizes(&c, family).iter().map(|i| i.vcpus).collect::<Vec<_>>(),
                vec![1, 2, 4, 8],
                "{family}"
            );
        }
    }

    #[test]
    fn prices_scale_linearly_from_large_up() {
        let c = Catalog::aws_like();
        let m5 = sizes(&c, InstanceFamily::GeneralPurpose);
        // .large -> .xlarge -> .2xlarge double exactly; .medium carries
        // the small-instance premium.
        for w in m5[1..].windows(2) {
            let ratio = w[1].price_per_hour / w[0].price_per_hour;
            assert!((ratio - 2.0).abs() < 1e-9, "m5 doubles each step");
        }
        assert!(
            m5[0].price_per_hour > 1.5 * m5[1].price_per_hour / 2.0,
            "1-vCPU premium present"
        );
    }

    #[test]
    fn memory_optimized_costs_more_per_vcpu() {
        let c = Catalog::aws_like();
        let m5 = c.instance("m5.large").unwrap();
        let r5 = c.instance("r5.large").unwrap();
        assert_eq!(r5.vcpus, m5.vcpus);
        assert!(r5.price_per_hour > m5.price_per_hour);
    }

    #[test]
    fn machine_config_reflects_family() {
        let c = Catalog::aws_like();
        let (r5, m5) = (c.instance("r5.2xlarge").unwrap(), c.instance("m5.2xlarge").unwrap());
        assert!(r5.memory_gb > m5.memory_gb);
        let (r5, m5) = (r5.machine_config(), m5.machine_config());
        assert!(r5.mem_bw_gbps > m5.mem_bw_gbps);
        let c5 = c.instance("c5.2xlarge").unwrap().machine_config();
        assert!(c5.clock_ghz > m5.clock_ghz);
    }

    #[test]
    fn unknown_instance_is_error() {
        let c = Catalog::aws_like();
        assert_eq!(
            c.instance("z1.nano").unwrap_err(),
            CloudError::UnknownInstance("z1.nano".to_owned())
        );
    }

    #[test]
    fn cheapest_with_respects_constraints() {
        let c = Catalog::aws_like();
        let pick = c
            .cheapest_with(InstanceFamily::MemoryOptimized, 3)
            .expect("exists");
        assert_eq!(pick.name, "r5.xlarge");
        assert!(c.cheapest_with(InstanceFamily::GeneralPurpose, 64).is_none());
    }

    #[test]
    fn display_formats() {
        let c = Catalog::aws_like();
        let text = c.instance("m5.large").unwrap().to_string();
        assert!(text.contains("m5.large"));
        assert!(text.contains("2 vCPU"));
        assert_eq!(InstanceFamily::MemoryOptimized.to_string(), "memory-optimized");
    }
}
