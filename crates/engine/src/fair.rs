//! Per-tenant quotas and equal-share admission.
//!
//! # The math
//!
//! Every tenant gets the same share. Admission is stride scheduling
//! over integer virtual time with a stride of one: admitting one unit
//! of work stamps it with the tenant's current *pass* tag and advances
//! the pass by one. Serving in ascending tag order then takes
//! backlogged tenants round-robin: over any backlogged interval, two
//! tenants' service differs by at most one unit. A tenant that goes
//! idle re-enters at the global virtual time (the tag of the last
//! served unit), so idleness is not bankable credit.
//!
//! Quotas bound *queued* work per tenant before tags even matter: an
//! admit is rejected when the tenant already has
//! `min(quota, max(1, capacity / tenants))` units queued — its equal
//! share of the queue, floored at one slot and capped by the hard
//! quota. Under an overload burst a misbehaving tenant therefore cannot
//! occupy more than its share of the queue, and every rejection is
//! counted per tenant — the counters the acceptance test asserts.
//!
//! Everything is integer arithmetic on explicit state; admission order
//! in equals decision order out, on any machine.

use crate::EngineError;

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
    /// The tenant is at its quota or share bound.
    QuotaExceeded,
    /// The queue as a whole is full.
    CapacityExhausted,
}

/// Equal-share admission state for one queue.
#[derive(Debug, Clone)]
pub struct FairShare {
    bound: u32,
    capacity: usize,
    queued: Vec<u32>,
    total_queued: usize,
    pass: Vec<u64>,
    virtual_time: u64,
    counters: Vec<TenantCounters>,
}

impl FairShare {
    /// Admission state for `tenants` equal tenants, each capped at
    /// `quota` queued units, sharing a queue of `capacity` units.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] on zero tenants, a zero quota, or
    /// a zero capacity.
    pub fn new(tenants: u32, quota: u32, capacity: usize) -> Result<Self, EngineError> {
        if tenants == 0 {
            return Err(EngineError::InvalidConfig("fair share needs at least one tenant"));
        }
        if capacity == 0 {
            return Err(EngineError::InvalidConfig("fair share needs a positive capacity"));
        }
        if quota == 0 {
            return Err(EngineError::InvalidConfig("tenant quotas must be positive"));
        }
        let n = tenants as usize;
        let share = (capacity / n).max(1);
        Ok(Self {
            bound: quota.min(u32::try_from(share).unwrap_or(u32::MAX)),
            capacity,
            queued: vec![0; n],
            total_queued: 0,
            pass: vec![0; n],
            virtual_time: 0,
            counters: vec![TenantCounters::default(); n],
        })
    }

    /// Try to admit one unit for `tenant`; on success returns the
    /// stride tag that orders it against other tenants' work.
    ///
    /// # Panics
    ///
    /// Panics when `tenant` is out of range — tenant ids are caller
    /// state, not input data.
    pub fn try_admit(&mut self, tenant: u32) -> Result<u64, AdmitRejection> {
        let t = tenant as usize;
        assert!(t < self.queued.len(), "tenant {tenant} out of range");
        if self.total_queued >= self.capacity {
            self.counters[t].capacity_rejected += 1;
            return Err(AdmitRejection::CapacityExhausted);
        }
        if self.queued[t] >= self.bound {
            self.counters[t].quota_rejected += 1;
            return Err(AdmitRejection::QuotaExceeded);
        }
        // An idle tenant re-enters at the global virtual time instead
        // of its stale pass — idleness earns no retroactive credit.
        let tag = if self.queued[t] == 0 {
            self.pass[t].max(self.virtual_time)
        } else {
            self.pass[t]
        };
        self.pass[t] = tag + 1;
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

    /// Per-tenant accounting, indexed by tenant id.
    #[must_use]
    pub fn counters(&self) -> &[TenantCounters] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The weighted stride scheduler this module replaced, kept verbatim
    /// as the differential oracle: at weight 1 it must decide exactly as
    /// the equal-share admission does, with every tag scaled by `2^32`.
    mod weighted {
        use crate::{EngineError, TenantCounters};

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
    }

    fn pool(tenants: u32, quota: u32, capacity: usize) -> FairShare {
        FairShare::new(tenants, quota, capacity).expect("valid")
    }

    /// Units `tenant` has queued, from its counters.
    fn held(fair: &FairShare, tenant: u32) -> u64 {
        let c = fair.counters()[tenant as usize];
        c.admitted - c.served
    }

    #[test]
    fn constructor_rejects_degenerate_configs() {
        assert!(FairShare::new(0, 1, 4).is_err());
        assert!(FairShare::new(1, 0, 4).is_err());
        assert!(FairShare::new(1, 1, 0).is_err());
    }

    #[test]
    fn two_backlogged_tenants_alternate() {
        let mut fair = pool(2, 100, 100);
        // Backlog tenant 0, then tenant 1, then serve in ascending
        // `(tag, admission order)` as the region run queue does.
        let mut tagged: Vec<(u64, usize, u32)> = Vec::new();
        for t in [0, 0, 0, 1, 1, 1] {
            tagged.push((fair.try_admit(t).expect("admit"), tagged.len(), t));
        }
        tagged.sort_unstable();
        let order: Vec<u32> = tagged.iter().map(|&(_, _, t)| t).collect();
        assert_eq!(order, [0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn tenants_beyond_capacity_floor_the_bound_at_one() {
        let mut fair = pool(5, 100, 3);
        assert!(fair.try_admit(0).is_ok(), "every tenant keeps at least one slot");
        assert_eq!(fair.try_admit(0), Err(AdmitRejection::QuotaExceeded));
        assert!(fair.try_admit(1).is_ok());
        assert!(fair.try_admit(2).is_ok());
        assert_eq!(fair.try_admit(3), Err(AdmitRejection::CapacityExhausted));
    }

    #[test]
    fn a_quota_below_the_share_binds() {
        let mut fair = pool(2, 3, 20);
        let admitted = (0..10).filter(|_| fair.try_admit(0).is_ok()).count();
        assert_eq!(admitted, 3, "the quota of 3 binds below the share of 10");
        assert_eq!(fair.counters()[0].quota_rejected, 7);
    }

    #[test]
    fn quota_bounds_a_flooding_tenant() {
        let mut fair = pool(2, 100, 10);
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
        assert_eq!(held(&fair, 0) + held(&fair, 1), 10);
        // Now the queue is full: further admits are capacity rejections.
        assert_eq!(fair.try_admit(1), Err(AdmitRejection::CapacityExhausted));
    }

    #[test]
    fn idle_tenants_earn_no_retroactive_credit() {
        let mut fair = pool(2, 100, 100);
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
        assert!(tag1 >= tag0.saturating_sub(1), "no catch-up burst: {tag1} vs {tag0}");
    }

    #[test]
    fn determinism_is_trivial_but_pinned() {
        let run = || {
            let mut fair = pool(3, 4, 12);
            let mut log = Vec::new();
            for i in 0..40u32 {
                log.push(fair.try_admit(i % 3));
                if i % 5 == 4 {
                    // Serve one queued unit of tenant i%3 if any.
                    let t = i % 3;
                    if held(&fair, t) > 0 {
                        fair.on_serve(t, u64::from(i));
                    }
                }
            }
            (log, fair.counters().to_vec())
        };
        assert_eq!(run(), run());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any script of admits and serves over equal tenants gets the
        /// same decisions and counters from the weighted oracle at
        /// weight 1, and the oracle's tags are the new tags times `2^32`.
        #[test]
        fn equal_shares_match_the_weighted_oracle(
            tenants in 1u32..7,
            quota in 1u32..41,
            capacity in 1usize..65,
            seed in 0u64..u64::MAX,
        ) {
            use weighted::AdmitRejection as Old;
            let mut rng = TestRng::for_test(&seed.to_string());
            let policy = weighted::TenantPolicy { weight: 1, max_queued: quota };
            let mut old = weighted::FairShare::new(vec![policy; tenants as usize], capacity)
                .expect("valid");
            let mut new = pool(tenants, quota, capacity);
            let bound = quota.min(u32::try_from((capacity / tenants as usize).max(1)).unwrap());
            // `(tenant, oracle tag, new tag)` of every queued unit.
            let mut queue: Vec<(u32, u64, u64)> = Vec::new();
            for _ in 0..200 {
                let t = rng.below(u64::from(tenants)) as u32;
                prop_assert_eq!(old.share_bound(t), bound);
                if queue.is_empty() || rng.below(5) < 3 {
                    match (old.try_admit(t), new.try_admit(t)) {
                        (Ok(old_tag), Ok(new_tag)) => {
                            prop_assert_eq!(old_tag, new_tag << 32);
                            queue.push((t, old_tag, new_tag));
                        }
                        (
                            Err(Old::QuotaExceeded { tenant, queued, bound: hit }),
                            Err(AdmitRejection::QuotaExceeded),
                        ) => prop_assert_eq!((tenant, queued, hit), (t, bound, bound)),
                        (
                            Err(Old::CapacityExhausted { tenant, depth, capacity: cap }),
                            Err(AdmitRejection::CapacityExhausted),
                        ) => prop_assert_eq!((tenant, depth, cap), (t, capacity, capacity)),
                        (o, n) => prop_assert!(false, "oracle {o:?}, equal shares {n:?}"),
                    }
                } else {
                    let at = rng.below(queue.len() as u64) as usize;
                    let (t, old_tag, new_tag) = queue.swap_remove(at);
                    old.on_serve(t, old_tag);
                    new.on_serve(t, new_tag);
                    prop_assert_eq!(u64::from(old.queued(t)), held(&new, t));
                }
                prop_assert_eq!(old.counters(), new.counters());
                prop_assert_eq!(old.depth(), queue.len());
            }
        }
    }
}
