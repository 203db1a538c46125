//! Per-tenant quotas and weighted fair-share admission.
//!
//! # The math
//!
//! Admission is stride scheduling over integer virtual time. Each
//! tenant has a weight `w` and a stride `STRIDE_SCALE / w`; admitting
//! one unit of work stamps it with the tenant's current *pass* tag and
//! advances the pass by the stride. Serving in ascending tag order
//! then interleaves tenants in proportion to their weights: over any
//! backlogged interval, a tenant with twice the weight receives twice
//! the service, and the per-unit bound on the deviation from ideal
//! weighted fairness is one stride. A tenant that goes idle re-enters
//! at the global virtual time (the tag of the last served unit), so
//! idleness is not bankable credit.
//!
//! Quotas bound *queued* work per tenant before tags even matter: an
//! admit is rejected when the tenant already has
//! `min(policy.max_queued, share_bound)` units queued, where
//! `share_bound = max(1, capacity * w / Σw)` is the tenant's weighted
//! share of the queue. Under an overload burst a misbehaving tenant
//! therefore cannot occupy more than its share of the queue, and every
//! rejection is counted per tenant — the counters the acceptance test
//! asserts.
//!
//! Everything is integer arithmetic on explicit state; admission order
//! in equals decision order out, on any machine.

use crate::EngineError;

/// Fixed-point scale for stride tags. With 32 fractional bits, a
/// weight-1 tenant admits ~2^32 units before tags near `u64::MAX` —
/// far beyond any run the workspace performs.
const STRIDE_SCALE: u64 = 1 << 32;

/// One tenant's admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Fair-share weight (service proportion under contention).
    pub weight: u64,
    /// Hard cap on this tenant's queued units, before the weighted
    /// share bound is applied on top.
    pub max_queued: u32,
}

/// Per-tenant admission accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Units admitted into the queue.
    pub admitted: u64,
    /// Units rejected by the per-tenant quota / share bound.
    pub quota_rejected: u64,
    /// Units rejected because the whole queue was full.
    pub capacity_rejected: u64,
    /// Units served (dequeued).
    pub served: u64,
}

/// Why an admit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitRejection {
    /// The tenant is at its quota or weighted share bound.
    QuotaExceeded {
        /// The rejected tenant.
        tenant: u32,
        /// Units the tenant had queued.
        queued: u32,
        /// The bound that was hit.
        bound: u32,
    },
    /// The queue as a whole is full.
    CapacityExhausted {
        /// The rejected tenant.
        tenant: u32,
        /// Total queued units across tenants.
        depth: usize,
        /// The queue capacity.
        capacity: usize,
    },
}

/// Weighted fair-share admission state for one queue.
#[derive(Debug, Clone)]
pub struct FairShare {
    policies: Vec<TenantPolicy>,
    total_weight: u64,
    capacity: usize,
    queued: Vec<u32>,
    total_queued: usize,
    pass: Vec<u64>,
    virtual_time: u64,
    counters: Vec<TenantCounters>,
}

impl FairShare {
    /// Admission state over `policies` (one per tenant) and a total
    /// queue capacity.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] on an empty tenant table, a zero
    /// weight, a zero quota, or a zero capacity.
    pub fn new(policies: Vec<TenantPolicy>, capacity: usize) -> Result<Self, EngineError> {
        if policies.is_empty() {
            return Err(EngineError::InvalidConfig("fair share needs at least one tenant"));
        }
        if capacity == 0 {
            return Err(EngineError::InvalidConfig("fair share needs a positive capacity"));
        }
        if policies.iter().any(|p| p.weight == 0) {
            return Err(EngineError::InvalidConfig("tenant weights must be positive"));
        }
        if policies.iter().any(|p| p.max_queued == 0) {
            return Err(EngineError::InvalidConfig("tenant quotas must be positive"));
        }
        let total_weight: u64 = policies.iter().map(|p| p.weight).sum();
        let n = policies.len();
        Ok(Self {
            policies,
            total_weight,
            capacity,
            queued: vec![0; n],
            total_queued: 0,
            pass: vec![0; n],
            virtual_time: 0,
            counters: vec![TenantCounters::default(); n],
        })
    }

    /// The effective per-tenant queue bound:
    /// `min(max_queued, max(1, capacity * weight / Σweights))`.
    ///
    /// # Panics
    ///
    /// Panics when `tenant` is out of range — tenant ids are caller
    /// state, not input data.
    #[must_use]
    pub fn share_bound(&self, tenant: u32) -> u32 {
        let policy = &self.policies[tenant as usize];
        let share = (self.capacity as u64 * policy.weight / self.total_weight).max(1);
        policy.max_queued.min(u32::try_from(share).unwrap_or(u32::MAX))
    }

    /// Try to admit one unit for `tenant`; on success returns the
    /// stride tag that orders it against other tenants' work.
    ///
    /// # Panics
    ///
    /// Panics when `tenant` is out of range.
    pub fn try_admit(&mut self, tenant: u32) -> Result<u64, AdmitRejection> {
        let t = tenant as usize;
        assert!(t < self.policies.len(), "tenant {tenant} out of range");
        if self.total_queued >= self.capacity {
            self.counters[t].capacity_rejected += 1;
            return Err(AdmitRejection::CapacityExhausted {
                tenant,
                depth: self.total_queued,
                capacity: self.capacity,
            });
        }
        let bound = self.share_bound(tenant);
        if self.queued[t] >= bound {
            self.counters[t].quota_rejected += 1;
            return Err(AdmitRejection::QuotaExceeded { tenant, queued: self.queued[t], bound });
        }
        // An idle tenant re-enters at the global virtual time instead
        // of its stale pass — idleness earns no retroactive credit.
        let tag = if self.queued[t] == 0 {
            self.pass[t].max(self.virtual_time)
        } else {
            self.pass[t]
        };
        self.pass[t] = tag + STRIDE_SCALE / self.policies[t].weight;
        self.queued[t] += 1;
        self.total_queued += 1;
        self.counters[t].admitted += 1;
        Ok(tag)
    }

    /// Account one served unit for `tenant`, advancing the global
    /// virtual time to its `tag`.
    ///
    /// # Panics
    ///
    /// Panics when `tenant` is out of range or has nothing queued —
    /// both are caller bugs, not input conditions.
    pub fn on_serve(&mut self, tenant: u32, tag: u64) {
        let t = tenant as usize;
        assert!(self.queued[t] > 0, "tenant {tenant} has nothing queued");
        self.queued[t] -= 1;
        self.total_queued -= 1;
        self.counters[t].served += 1;
        self.virtual_time = self.virtual_time.max(tag);
    }

    /// Units currently queued for `tenant`.
    #[must_use]
    pub fn queued(&self, tenant: u32) -> u32 {
        self.queued[tenant as usize]
    }

    /// Total queued units across tenants.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.total_queued
    }

    /// Per-tenant accounting, indexed by tenant id.
    #[must_use]
    pub fn counters(&self) -> &[TenantCounters] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(weights: &[u64], max_queued: u32, capacity: usize) -> FairShare {
        let policies =
            weights.iter().map(|&weight| TenantPolicy { weight, max_queued }).collect();
        FairShare::new(policies, capacity).expect("valid")
    }

    #[test]
    fn constructor_rejects_degenerate_configs() {
        assert!(FairShare::new(Vec::new(), 4).is_err());
        assert!(FairShare::new(vec![TenantPolicy { weight: 0, max_queued: 1 }], 4).is_err());
        assert!(FairShare::new(vec![TenantPolicy { weight: 1, max_queued: 0 }], 4).is_err());
        assert!(FairShare::new(vec![TenantPolicy { weight: 1, max_queued: 1 }], 0).is_err());
    }

    #[test]
    fn share_bound_is_weighted_and_floored() {
        let fair = pool(&[3, 1], 100, 8);
        assert_eq!(fair.share_bound(0), 6); // 8 * 3/4
        assert_eq!(fair.share_bound(1), 2); // 8 * 1/4
        let tiny = pool(&[1, 1000], 100, 4);
        assert_eq!(tiny.share_bound(0), 1, "every tenant keeps at least one slot");
    }

    #[test]
    fn quota_bounds_a_flooding_tenant() {
        let mut fair = pool(&[1, 1], 100, 10);
        let mut admitted = 0;
        for _ in 0..50 {
            if fair.try_admit(0).is_ok() {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 5, "tenant 0 is capped at its half share");
        assert_eq!(fair.counters()[0].quota_rejected, 45);
        // The other tenant's share is untouched by the burst.
        for _ in 0..5 {
            assert!(fair.try_admit(1).is_ok());
        }
        assert_eq!(fair.counters()[1].quota_rejected, 0);
        assert_eq!(fair.depth(), 10);
        // Now the queue is full: further admits are capacity rejections.
        assert!(matches!(
            fair.try_admit(1),
            Err(AdmitRejection::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn tags_interleave_in_weight_proportion() {
        let mut fair = pool(&[2, 1], 100, 100);
        // Backlog both tenants, then serve in ascending tag order.
        let mut tagged: Vec<(u64, u32)> = Vec::new();
        for _ in 0..6 {
            tagged.push((fair.try_admit(0).expect("admit"), 0));
        }
        for _ in 0..3 {
            tagged.push((fair.try_admit(1).expect("admit"), 1));
        }
        tagged.sort();
        let first_six: Vec<u32> = tagged.iter().take(6).map(|&(_, t)| t).collect();
        let t0 = first_six.iter().filter(|&&t| t == 0).count();
        assert_eq!(t0, 4, "weight-2 tenant gets 2/3 of early service: {first_six:?}");
    }

    #[test]
    fn idle_tenants_earn_no_retroactive_credit() {
        let mut fair = pool(&[1, 1], 100, 100);
        // Tenant 0 runs alone for a while.
        for _ in 0..10 {
            let tag = fair.try_admit(0).expect("admit");
            fair.on_serve(0, tag);
        }
        // Tenant 1 wakes: its first tag starts at the current virtual
        // time, not at zero, so it cannot monopolize the queue to
        // "catch up".
        let tag1 = fair.try_admit(1).expect("admit");
        let tag0 = fair.try_admit(0).expect("admit");
        assert!(tag1 >= tag0.saturating_sub(STRIDE_SCALE), "no catch-up burst: {tag1} vs {tag0}");
    }

    #[test]
    fn determinism_is_trivial_but_pinned() {
        let run = || {
            let mut fair = pool(&[2, 3, 1], 4, 12);
            let mut log = Vec::new();
            for i in 0..40u32 {
                log.push(fair.try_admit(i % 3).map_err(|_| ()));
                if i % 5 == 4 {
                    // Serve the oldest queued unit of tenant i%3 if any.
                    let t = i % 3;
                    if fair.queued(t) > 0 {
                        fair.on_serve(t, u64::from(i));
                    }
                }
            }
            (log, fair.counters().to_vec())
        };
        assert_eq!(run(), run());
    }
}
