//! Hypervisor host model for multi-tenancy.

use crate::{CloudError, InstanceType};
use eda_cloud_perf::MachineConfig;

/// How co-tenant load translates into per-VM slowdown.
///
/// The paper emulates multi-tenancy with cgroups on a 14-core Xeon; the
/// interference a tenant suffers grows with how much of the host its
/// neighbors occupy (shared LLC and memory bandwidth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenancyModel {
    /// Maximum interference (fraction of throughput lost) when the host
    /// is fully packed with other tenants.
    pub max_interference: f64,
}

impl TenancyModel {
    /// Xeon-like default: up to 18% throughput loss on a packed host.
    #[must_use]
    pub fn new() -> Self {
        Self {
            max_interference: 0.18,
        }
    }

    /// Interference for a tenant when `neighbor_load` (0..=1) of the
    /// host's other capacity is busy.
    #[must_use]
    pub fn interference(&self, neighbor_load: f64) -> f64 {
        self.max_interference * neighbor_load.clamp(0.0, 1.0)
    }
}

impl Default for TenancyModel {
    fn default() -> Self {
        Self::new()
    }
}

/// A physical host VMs are packed onto.
///
/// # Examples
///
/// ```
/// use eda_cloud_cloud::{Catalog, Host};
///
/// let catalog = Catalog::aws_like();
/// let mut host = Host::xeon_14_core();
/// let m5 = catalog.instance("m5.2xlarge")?.clone();
/// let cfg = host.place(&m5)?;
/// assert_eq!(cfg.vcpus, 8);
/// # Ok::<(), eda_cloud_cloud::CloudError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Total hardware threads.
    pub cores: u32,
    committed: u32,
    tenancy: TenancyModel,
}

impl Host {
    /// A host shaped like the paper's testbed: 14-core Xeon E5-2680
    /// (28 threads with SMT).
    #[must_use]
    pub fn xeon_14_core() -> Self {
        Self {
            cores: 28,
            committed: 0,
            tenancy: TenancyModel::new(),
        }
    }

    /// Host with explicit capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[must_use]
    pub fn with_cores(cores: u32) -> Self {
        assert!(cores > 0, "host needs at least one core");
        Self {
            cores,
            committed: 0,
            tenancy: TenancyModel::new(),
        }
    }

    /// Cores currently committed to tenants.
    #[must_use]
    pub fn committed(&self) -> u32 {
        self.committed
    }

    /// Place a VM of the given instance type; returns the machine
    /// configuration the tenant observes, including interference from
    /// the neighbors already packed on this host.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::InsufficientCapacity`] if the host cannot
    /// hold the VM.
    pub fn place(&mut self, instance: &InstanceType) -> Result<MachineConfig, CloudError> {
        let free = self.cores - self.committed;
        if instance.vcpus > free {
            return Err(CloudError::InsufficientCapacity {
                requested: instance.vcpus,
                available: free,
            });
        }
        // Neighbor load before this VM arrives, over the capacity the
        // host has left for others.
        let others_capacity = f64::from(self.cores - instance.vcpus).max(1.0);
        let neighbor_load = f64::from(self.committed) / others_capacity;
        self.committed += instance.vcpus;
        let interference = self.tenancy.interference(neighbor_load);
        Ok(instance.machine_config().with_interference(interference))
    }

    /// Release a previously placed VM's cores.
    pub fn release(&mut self, instance: &InstanceType) {
        self.committed = self.committed.saturating_sub(instance.vcpus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;

    #[test]
    fn empty_host_has_no_interference() {
        let c = Catalog::aws_like();
        let mut host = Host::xeon_14_core();
        let cfg = host
            .place(c.instance("m5.large").unwrap())
            .expect("fits");
        assert_eq!(cfg.interference, 0.0);
    }

    #[test]
    fn packed_host_interferes() {
        let c = Catalog::aws_like();
        let mut host = Host::with_cores(16);
        let big = c.instance("m5.2xlarge").unwrap();
        let _ = host.place(big).expect("first fits");
        let cfg = host.place(big).expect("second fits");
        assert!(cfg.interference > 0.0);
        assert!(cfg.interference <= 0.18 + 1e-12);
    }

    #[test]
    fn capacity_enforced() {
        let c = Catalog::aws_like();
        let mut host = Host::with_cores(4);
        let big = c.instance("m5.2xlarge").unwrap();
        assert!(matches!(
            host.place(big).unwrap_err(),
            CloudError::InsufficientCapacity {
                requested: 8,
                available: 4
            }
        ));
    }

    #[test]
    fn release_restores_capacity() {
        let c = Catalog::aws_like();
        let mut host = Host::with_cores(8);
        let vm = c.instance("m5.2xlarge").unwrap();
        host.place(vm).expect("fits");
        assert_eq!(host.committed(), 8);
        host.release(vm);
        assert_eq!(host.committed(), 0);
        host.place(vm).expect("fits again");
    }

    #[test]
    fn interference_model_clamps() {
        let t = TenancyModel::new();
        assert_eq!(t.interference(0.0), 0.0);
        assert!((t.interference(1.0) - 0.18).abs() < 1e-12);
        assert!((t.interference(5.0) - 0.18).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_host_panics() {
        let _ = Host::with_cores(0);
    }
}
