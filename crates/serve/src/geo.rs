//! Geo-routing of Predict/Plan traffic to per-region model replicas,
//! with per-tenant weighted fair-share admission in front.
//!
//! A [`GeoServer`] owns one [`Server`] replica per region. Incoming
//! [`GeoRequest`]s carry a home region and a tenant id; the router
//! processes them in arrival order, runs each through the engine's
//! stride-scheduling [`FairShare`] admission (so an overloading tenant
//! is bounded to its weighted share of the global admission queue
//! before any replica sees it), and forwards admitted requests to
//! their home region's replica. Each replica then plays its
//! sub-stream exactly as a standalone [`Server`] would — EDF queueing,
//! micro-batching, caching — so geo-routing composes with, rather than
//! replaces, the existing serving semantics.
//!
//! Service of the fair-share queue is modelled by a sliding drain
//! window on the simulated clock: an admitted unit is considered
//! served (freeing its tenant's share) once the stream has advanced
//! `drain_window_us` past its arrival. The drain is a pure function of
//! arrival timestamps, so routing decisions — and the folded
//! [`GeoReport`] — are byte-identical across runs and worker counts.

use crate::{ServeError, ServeReport, ServeRequest, Server};
use eda_cloud_engine::{fmt_f64, AdmitRejection, FairShare, TenantPolicy};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One request as the geo tier sees it: a tenant, a home region, and
/// the inner serving request.
#[derive(Debug, Clone)]
pub struct GeoRequest {
    /// Tenant the request bills against.
    pub tenant: u32,
    /// Home region whose replica should answer.
    pub region: u32,
    /// The request itself (ordinal, arrival, deadline, kind, design).
    pub inner: ServeRequest,
}

/// Geo-tier admission knobs. The per-region serving knobs live in each
/// replica's own [`crate::ServeConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeoConfig {
    /// Fair-share weight per tenant; the vector length is the tenant
    /// count.
    pub tenant_weights: Vec<u64>,
    /// Hard per-tenant cap on in-flight admitted units, applied on top
    /// of the weighted share bound.
    pub tenant_quota: u32,
    /// Total in-flight capacity of the admission queue.
    pub admission_capacity: usize,
    /// An admitted unit frees its tenant's share once the stream is
    /// this far past its arrival, µs.
    pub drain_window_us: u64,
}

impl Default for GeoConfig {
    fn default() -> Self {
        Self {
            tenant_weights: vec![1; 4],
            tenant_quota: 16,
            admission_capacity: 32,
            drain_window_us: 20_000,
        }
    }
}

/// Per-tenant admission accounting in the folded report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeoTenantUsage {
    /// Fair-share weight.
    pub weight: u64,
    /// Requests the tenant submitted.
    pub submitted: u64,
    /// Requests admitted past fair share.
    pub admitted: u64,
    /// Requests rejected by the tenant's quota / share bound.
    pub quota_rejected: u64,
    /// Requests rejected because the whole admission queue was full.
    pub capacity_rejected: u64,
}

/// The folded geo-tier report: per-region serving reports plus
/// per-tenant admission accounting, with a byte-stable JSON rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoReport {
    /// Seed stamped through to every replica's report.
    pub seed: u64,
    /// One serving report per region, indexed by region id.
    pub per_region: Vec<ServeReport>,
    /// Requests routed to each region (admitted traffic), indexed by
    /// region id.
    pub routed: Vec<u64>,
    /// Per-tenant admission accounting, indexed by tenant id.
    pub tenants: Vec<GeoTenantUsage>,
}

impl GeoReport {
    /// Render as a single JSON object with fixed key order and fixed
    /// float formatting — byte-identical across same-seed runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let submitted: u64 = self.tenants.iter().map(|t| t.submitted).sum();
        let admitted: u64 = self.tenants.iter().map(|t| t.admitted).sum();
        let quota: u64 = self.tenants.iter().map(|t| t.quota_rejected).sum();
        let capacity: u64 = self.tenants.iter().map(|t| t.capacity_rejected).sum();
        let completed: u64 = self.per_region.iter().map(|r| r.counters.completed).sum();
        let shed: u64 = self.per_region.iter().map(|r| r.counters.shed).sum();
        let mut s = String::with_capacity(2048);
        s.push('{');
        let _ = write!(s, "\"seed\":{},", self.seed);
        let _ = write!(
            s,
            "\"totals\":{{\"submitted\":{submitted},\"admitted\":{admitted},\
             \"quota_rejected\":{quota},\"capacity_rejected\":{capacity},\
             \"completed\":{completed},\"shed\":{shed}}},"
        );
        s.push_str("\"per_region\":[");
        for (i, (report, routed)) in self.per_region.iter().zip(&self.routed).enumerate() {
            if i > 0 {
                s.push(',');
            }
            let c = &report.counters;
            let _ = write!(
                s,
                "{{\"region\":{i},\"routed\":{routed},\"completed\":{},\"shed\":{},\
                 \"cache_hits\":{},\"plans\":{},\"mean_latency_ms\":{},\"makespan_ms\":{}}}",
                c.completed,
                c.shed,
                c.cache_hits,
                c.plans,
                fmt_f64(report.mean_latency_ms),
                fmt_f64(report.makespan_ms)
            );
        }
        s.push_str("],\"per_tenant\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"tenant\":{i},\"weight\":{},\"submitted\":{},\"admitted\":{},\
                 \"quota_rejected\":{},\"capacity_rejected\":{}}}",
                t.weight, t.submitted, t.admitted, t.quota_rejected, t.capacity_rejected
            );
        }
        s.push_str("]}");
        s
    }
}

/// The geo-routing front: fair-share admission plus one serving
/// replica per region.
pub struct GeoServer {
    replicas: Vec<Server>,
    config: GeoConfig,
}

impl GeoServer {
    /// Build a geo tier over per-region replicas (one [`Server`] each,
    /// typically all holding the same model snapshot version).
    ///
    /// # Panics
    ///
    /// Panics when `replicas` is empty or the admission config is
    /// degenerate (no tenants, a zero weight, zero quota, or zero
    /// capacity) — construction-time caller bugs, mirroring
    /// [`Server::new`].
    #[must_use]
    pub fn new(replicas: Vec<Server>, config: GeoConfig) -> Self {
        assert!(!replicas.is_empty(), "geo tier needs at least one region replica");
        // Validate the fair-share config eagerly so a bad weight table
        // fails at construction, not mid-run.
        Self::fair_share(&config);
        Self { replicas, config }
    }

    fn fair_share(config: &GeoConfig) -> FairShare {
        let policies = config
            .tenant_weights
            .iter()
            .map(|&weight| TenantPolicy { weight, max_queued: config.tenant_quota })
            .collect();
        FairShare::new(policies, config.admission_capacity)
            .expect("geo admission config must be valid")
    }

    /// Number of regions (replicas).
    #[must_use]
    pub fn regions(&self) -> usize {
        self.replicas.len()
    }

    /// Route and serve an arrival-ordered geo request stream; `seed`
    /// only stamps the reports.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Unsorted`] when requests are not sorted by
    /// arrival time, [`ServeError::OutOfRange`] when a request names an
    /// unknown tenant or region, and [`ServeError::Plan`] when a
    /// replica's planner rejects an instance (admission rejections are
    /// accounted, not errors).
    pub fn run(&self, seed: u64, requests: &[GeoRequest]) -> Result<GeoReport, ServeError> {
        if let Some(w) =
            requests.windows(2).find(|w| w[0].inner.arrival_us > w[1].inner.arrival_us)
        {
            return Err(ServeError::Unsorted { ordinal: w[1].inner.ordinal });
        }
        let tenants = self.config.tenant_weights.len();
        let regions = self.replicas.len();
        let mut fair = Self::fair_share(&self.config);
        let mut submitted = vec![0u64; tenants];
        let mut routed: Vec<Vec<ServeRequest>> = vec![Vec::new(); regions];
        // Admitted units drain (freeing their tenant's share) once the
        // stream advances `drain_window_us` past their arrival.
        let mut in_flight: VecDeque<(u64, u32, u64)> = VecDeque::new();
        for request in requests {
            let tenant = request.tenant;
            let region = request.region as usize;
            let out_of_range = |field, index, count| ServeError::OutOfRange {
                ordinal: request.inner.ordinal,
                field,
                index,
                count,
            };
            if tenant as usize >= tenants {
                return Err(out_of_range("tenant", tenant, tenants));
            }
            if region >= regions {
                return Err(out_of_range("region", request.region, regions));
            }
            let now = request.inner.arrival_us;
            while let Some(&(arrival_us, t, tag)) = in_flight.front() {
                if arrival_us.saturating_add(self.config.drain_window_us) > now {
                    break;
                }
                fair.on_serve(t, tag);
                in_flight.pop_front();
            }
            submitted[tenant as usize] += 1;
            match fair.try_admit(tenant) {
                Ok(tag) => {
                    in_flight.push_back((now, tenant, tag));
                    routed[region].push(request.inner.clone());
                }
                Err(AdmitRejection::QuotaExceeded { .. })
                | Err(AdmitRejection::CapacityExhausted { .. }) => {
                    // Accounted inside the fair-share counters.
                }
            }
        }

        let mut per_region = Vec::with_capacity(regions);
        let mut routed_counts = Vec::with_capacity(regions);
        for (replica, stream) in self.replicas.iter().zip(&routed) {
            let (report, _) = replica.run(seed, stream)?;
            routed_counts.push(stream.len() as u64);
            per_region.push(report);
        }
        let tenants = self
            .config
            .tenant_weights
            .iter()
            .zip(fair.counters())
            .zip(&submitted)
            .map(|((&weight, c), &submitted)| GeoTenantUsage {
                weight,
                submitted,
                admitted: c.admitted,
                quota_rejected: c.quota_rejected,
                capacity_rejected: c.capacity_rejected,
            })
            .collect();
        Ok(GeoReport { seed, per_region, routed: routed_counts, tenants })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        design_pool, synthetic_requests, CostTablePlanner, ModelSnapshot, ServeConfig,
        WorkloadConfig,
    };
    use eda_cloud_gcn::ModelConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn replica(workers: usize) -> Server {
        Server::new(
            ModelSnapshot::seeded(&ModelConfig::fast(), 7),
            Box::new(CostTablePlanner::aws_like()),
            ServeConfig { workers, ..Default::default() },
        )
    }

    fn geo_server(regions: usize, workers: usize, config: GeoConfig) -> GeoServer {
        GeoServer::new((0..regions).map(|_| replica(workers)).collect(), config)
    }

    fn geo_workload(requests: usize, tenants: u32, regions: u32, seed: u64) -> Vec<GeoRequest> {
        let pool = design_pool();
        let inner = synthetic_requests(
            &pool,
            &WorkloadConfig { requests, rate_per_sec: 150.0, seed, ..Default::default() },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6E0);
        inner
            .into_iter()
            .map(|inner| GeoRequest {
                tenant: rng.gen_range(0..tenants),
                region: rng.gen_range(0..regions),
                inner,
            })
            .collect()
    }

    #[test]
    fn bad_streams_are_typed_errors_not_panics() {
        let server = geo_server(3, 1, GeoConfig::default());
        let tenants = GeoConfig::default().tenant_weights.len();
        let sorted = geo_workload(8, tenants as u32, 3, 7);

        let mut unsorted = sorted.clone();
        unsorted.swap(0, 7);
        assert!(matches!(server.run(7, &unsorted), Err(ServeError::Unsorted { .. })));

        let mut bad_tenant = sorted.clone();
        bad_tenant[3].tenant = tenants as u32;
        assert_eq!(
            server.run(7, &bad_tenant).unwrap_err(),
            ServeError::OutOfRange {
                ordinal: bad_tenant[3].inner.ordinal,
                field: "tenant",
                index: tenants as u32,
                count: tenants,
            }
        );

        let mut bad_region = sorted;
        bad_region[5].region = 3;
        assert_eq!(
            server.run(7, &bad_region).unwrap_err(),
            ServeError::OutOfRange {
                ordinal: bad_region[5].inner.ordinal,
                field: "region",
                index: 3,
                count: 3,
            }
        );
    }

    #[test]
    fn routes_admitted_traffic_to_home_regions_and_conserves() {
        let requests = geo_workload(48, 4, 3, 7);
        let report =
            geo_server(3, 1, GeoConfig::default()).run(7, &requests).expect("runs");
        let submitted: u64 = report.tenants.iter().map(|t| t.submitted).sum();
        let admitted: u64 = report.tenants.iter().map(|t| t.admitted).sum();
        let rejected: u64 =
            report.tenants.iter().map(|t| t.quota_rejected + t.capacity_rejected).sum();
        assert_eq!(submitted, 48);
        assert_eq!(admitted + rejected, submitted);
        assert_eq!(report.routed.iter().sum::<u64>(), admitted);
        let region_requests: u64 =
            report.per_region.iter().map(|r| r.counters.requests).sum();
        assert_eq!(region_requests, admitted, "every admitted request reaches a replica");
    }

    #[test]
    fn fair_share_bounds_a_flooding_tenant() {
        // Tenant 0 floods at t=0; tenants 1..3 trickle afterwards. With
        // equal weights and capacity 16, tenant 0 is bounded to its
        // quarter share (4 in flight) while the others are untouched.
        let pool = design_pool();
        let inner = synthetic_requests(
            &pool,
            &WorkloadConfig { requests: 64, rate_per_sec: 0.0, ..Default::default() },
        );
        let mut requests: Vec<GeoRequest> = inner[..48]
            .iter()
            .map(|r| GeoRequest { tenant: 0, region: 0, inner: r.clone() })
            .collect();
        for (i, r) in inner[48..].iter().enumerate() {
            let mut r = r.clone();
            r.arrival_us = 1_000_000 + 50_000 * i as u64; // past any drain window
            requests.push(GeoRequest { tenant: 1 + (i as u32 % 3), region: 0, inner: r });
        }
        let config = GeoConfig {
            tenant_weights: vec![1; 4],
            tenant_quota: 16,
            admission_capacity: 16,
            drain_window_us: 20_000,
        };
        let report = geo_server(1, 1, config).run(7, &requests).expect("runs");
        let t0 = report.tenants[0];
        assert_eq!(t0.admitted, 4, "quarter share of capacity 16: {t0:?}");
        assert_eq!(t0.quota_rejected, 44, "the rest of the burst is quota-rejected");
        for t in &report.tenants[1..] {
            assert_eq!(t.quota_rejected + t.capacity_rejected, 0, "{t:?}");
            assert_eq!(t.admitted, t.submitted, "{t:?}");
        }
    }

    #[test]
    fn reports_are_byte_identical_across_runs_and_worker_counts() {
        let requests = geo_workload(48, 4, 3, 7);
        let base = geo_server(3, 1, GeoConfig::default()).run(7, &requests).expect("runs");
        for workers in [2usize, 4] {
            let report =
                geo_server(3, workers, GeoConfig::default()).run(7, &requests).expect("runs");
            assert_eq!(report.to_json(), base.to_json(), "workers {workers}");
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let requests = geo_workload(24, 4, 2, 7);
        let report = geo_server(2, 1, GeoConfig::default()).run(7, &requests).expect("runs");
        let json = report.to_json();
        assert!(json.starts_with("{\"seed\":7,\"totals\":{\"submitted\":24,"), "{json}");
        assert!(json.contains("\"per_region\":[{\"region\":0,\"routed\":"), "{json}");
        assert!(json.contains("\"per_tenant\":[{\"tenant\":0,\"weight\":1,"), "{json}");
        assert!(json.ends_with("}]}"), "{json}");
    }
}
