//! Adapts a [`FaultPlan`] to the fault-hook traits of the driven
//! crates.
//!
//! One [`PlanFaults`] value is shared (as an `Arc`) with the fleet
//! simulator, the serve server, and the lifecycle controller; each
//! consults only the hook methods of its own trait. Every answer is a
//! pure function of the queried identity and the immutable plan, so
//! injection is deterministic at any worker count.

use crate::{FaultEvent, FaultPlan, PPM};
use eda_cloud_engine::EngineFaults;
use eda_cloud_fleet::FleetFaults;
use eda_cloud_lifecycle::{Arm, LifecycleFaults};
use eda_cloud_recipe::RecipeFaults;
use eda_cloud_serve::ServeFaults;

/// A fault plan wired up as hook objects for all three loops.
#[derive(Debug, Clone)]
pub struct PlanFaults {
    plan: FaultPlan,
}

impl PlanFaults {
    /// Wrap a plan. The plan should be validated first
    /// ([`FaultPlan::validate`]); out-of-range parameters are clamped
    /// defensively at the hook sites.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }
}

impl FleetFaults for PlanFaults {
    fn interrupt(&self, job_id: u64, _stage: usize, attempt: u32) -> Option<f64> {
        self.plan.events.iter().find_map(|event| match *event {
            FaultEvent::SpotStorm { job_lo, job_hi, attempts, fraction_ppm }
                if (job_lo..=job_hi).contains(&job_id) && attempt < attempts =>
            {
                Some(fraction_ppm.min(PPM) as f64 / PPM as f64)
            }
            _ => None,
        })
    }

    fn stall_pct(&self, job_id: u64, stage: usize) -> u64 {
        self.plan
            .events
            .iter()
            .find_map(|event| match *event {
                FaultEvent::VmStall { job_id: j, stage: s, pct } if j == job_id && s == stage => {
                    Some(pct.max(100))
                }
                _ => None,
            })
            .unwrap_or(100)
    }
}

impl ServeFaults for PlanFaults {
    fn force_shed(&self, ordinal: u64) -> bool {
        self.plan.events.iter().any(|event| {
            matches!(*event,
                FaultEvent::OverloadBurst { ord_lo, ord_hi }
                    if (ord_lo..=ord_hi).contains(&ordinal))
        })
    }

    fn wipe_cache(&self, ordinal: u64) -> bool {
        self.plan
            .events
            .iter()
            .any(|event| matches!(*event, FaultEvent::CacheWipe { ordinal: o } if o == ordinal))
    }

    fn corrupt_upload(&self, ordinal: u64) -> bool {
        self.plan.events.iter().any(|event| {
            matches!(*event, FaultEvent::IngestCorruptUpload { ordinal: o } if o == ordinal)
        })
    }

    fn flood(&self, ordinal: u64) -> bool {
        self.plan.events.iter().any(|event| {
            matches!(*event,
                FaultEvent::IngestFlood { ord_lo, ord_hi }
                    if (ord_lo..=ord_hi).contains(&ordinal))
        })
    }
}

impl LifecycleFaults for PlanFaults {
    fn drop_feedback(&self, ordinal: u64) -> bool {
        self.plan
            .events
            .iter()
            .any(|event| matches!(*event, FaultEvent::FeedbackDrop { ordinal: o } if o == ordinal))
    }

    fn feedback_extra_delay_us(&self, ordinal: u64) -> u64 {
        self.plan
            .events
            .iter()
            .find_map(|event| match *event {
                FaultEvent::FeedbackDelay { ordinal: o, extra_us } if o == ordinal => {
                    Some(extra_us)
                }
                _ => None,
            })
            .unwrap_or(0)
    }

    fn latency_spike_us(&self, ordinal: u64, arm: Arm) -> u64 {
        if arm != Arm::Canary {
            return 0;
        }
        self.plan
            .events
            .iter()
            .find_map(|event| match *event {
                FaultEvent::CanaryLatencySpike { ord_lo, ord_hi, spike_us }
                    if (ord_lo..=ord_hi).contains(&ordinal) =>
                {
                    Some(spike_us)
                }
                _ => None,
            })
            .unwrap_or(0)
    }
}

impl RecipeFaults for PlanFaults {
    fn eval_extra_us(&self, iter: u64) -> u64 {
        self.plan
            .events
            .iter()
            .filter_map(|event| match *event {
                FaultEvent::RecipeEvalStall { iter_lo, iter_hi, extra_us }
                    if (iter_lo..=iter_hi).contains(&iter) =>
                {
                    Some(extra_us)
                }
                _ => None,
            })
            .sum()
    }
}

impl EngineFaults for PlanFaults {
    fn message_extra_delay_us(&self, src: u32, dst: u32, seq: u64) -> u64 {
        self.plan
            .events
            .iter()
            .find_map(|event| match *event {
                FaultEvent::CrossShardDelay { src: s, dst: d, seq_lo, seq_hi, extra_us }
                    if s == src && d == dst && (seq_lo..=seq_hi).contains(&seq) =>
                {
                    Some(extra_us)
                }
                _ => None,
            })
            .unwrap_or(0)
    }

    fn partition_heal_us(&self, src: u32, dst: u32, send_time_us: u64) -> Option<u64> {
        self.plan.events.iter().find_map(|event| match *event {
            FaultEvent::RegionPartition { src: s, dst: d, from_us, heal_us }
                if s == src && d == dst && (from_us..heal_us).contains(&send_time_us) =>
            {
                Some(heal_us)
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hooks() -> PlanFaults {
        PlanFaults::new(FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent::SpotStorm { job_lo: 1, job_hi: 2, attempts: 2, fraction_ppm: 250_000 },
                FaultEvent::VmStall { job_id: 3, stage: 1, pct: 300 },
                FaultEvent::OverloadBurst { ord_lo: 5, ord_hi: 7 },
                FaultEvent::CacheWipe { ordinal: 9 },
                FaultEvent::FeedbackDelay { ordinal: 11, extra_us: 1_000_000 },
                FaultEvent::FeedbackDrop { ordinal: 13 },
                FaultEvent::CanaryLatencySpike { ord_lo: 20, ord_hi: 30, spike_us: 500_000 },
                FaultEvent::CrossShardDelay {
                    src: 0,
                    dst: 2,
                    seq_lo: 4,
                    seq_hi: 6,
                    extra_us: 70_000,
                },
                FaultEvent::RegionPartition {
                    src: 2,
                    dst: 1,
                    from_us: 100_000,
                    heal_us: 400_000,
                },
                FaultEvent::RecipeEvalStall { iter_lo: 2, iter_hi: 4, extra_us: 250_000 },
                FaultEvent::RecipeEvalStall { iter_lo: 4, iter_hi: 4, extra_us: 50_000 },
                FaultEvent::IngestCorruptUpload { ordinal: 15 },
                FaultEvent::IngestFlood { ord_lo: 40, ord_hi: 42 },
            ],
        })
    }

    #[test]
    fn fleet_hooks_match_identity_exactly() {
        let h = hooks();
        assert_eq!(h.interrupt(1, 0, 0), Some(0.25));
        assert_eq!(h.interrupt(2, 3, 1), Some(0.25));
        assert_eq!(h.interrupt(2, 3, 2), None, "storm passes after `attempts`");
        assert_eq!(h.interrupt(0, 0, 0), None, "job outside the storm");
        assert_eq!(h.stall_pct(3, 1), 300);
        assert_eq!(h.stall_pct(3, 2), 100, "other stages run at nominal speed");
        assert_eq!(h.stall_pct(0, 1), 100);
    }

    #[test]
    fn serve_and_lifecycle_hooks_match_identity_exactly() {
        let h = hooks();
        assert!(h.force_shed(5) && h.force_shed(7) && !h.force_shed(8));
        assert!(h.wipe_cache(9) && !h.wipe_cache(10));
        assert_eq!(h.feedback_extra_delay_us(11), 1_000_000);
        assert_eq!(h.feedback_extra_delay_us(12), 0);
        assert!(h.drop_feedback(13) && !h.drop_feedback(11));
        assert_eq!(h.latency_spike_us(25, Arm::Canary), 500_000);
        assert_eq!(h.latency_spike_us(25, Arm::Primary), 0, "spike targets the canary arm");
        assert_eq!(h.latency_spike_us(31, Arm::Canary), 0);
    }

    #[test]
    fn engine_hooks_match_identity_exactly() {
        let h = hooks();
        assert_eq!(h.message_extra_delay_us(0, 2, 4), 70_000);
        assert_eq!(h.message_extra_delay_us(0, 2, 6), 70_000);
        assert_eq!(h.message_extra_delay_us(0, 2, 7), 0, "sequence outside the window");
        assert_eq!(h.message_extra_delay_us(2, 0, 5), 0, "links are directional");
        assert_eq!(h.partition_heal_us(2, 1, 100_000), Some(400_000));
        assert_eq!(h.partition_heal_us(2, 1, 399_999), Some(400_000));
        assert_eq!(h.partition_heal_us(2, 1, 400_000), None, "healed at the boundary");
        assert_eq!(h.partition_heal_us(2, 1, 99_999), None, "before the cut");
        assert_eq!(h.partition_heal_us(1, 2, 200_000), None, "reverse direction is up");
        assert!(!h.drop_message(0, 2, 5), "plans never drop silently");
    }

    #[test]
    fn recipe_hooks_sum_overlapping_stalls() {
        let h = hooks();
        assert_eq!(h.eval_extra_us(1), 0, "before the stall window");
        assert_eq!(h.eval_extra_us(2), 250_000);
        assert_eq!(h.eval_extra_us(4), 300_000, "overlapping stalls add up");
        assert_eq!(h.eval_extra_us(5), 0, "after the stall window");
    }

    #[test]
    fn ingest_hooks_match_identity_exactly() {
        let h = hooks();
        assert!(h.corrupt_upload(15) && !h.corrupt_upload(14));
        assert!(h.flood(40) && h.flood(42) && !h.flood(43) && !h.flood(39));
        assert!(!h.flood(15), "corruption and flood target different ordinals");
    }

    #[test]
    fn empty_plan_is_inert() {
        let h = PlanFaults::new(FaultPlan { seed: 7, events: Vec::new() });
        assert_eq!(h.interrupt(0, 0, 0), None);
        assert_eq!(h.stall_pct(0, 0), 100);
        assert!(!h.force_shed(0) && !h.wipe_cache(0) && !h.drop_feedback(0));
        assert_eq!(h.feedback_extra_delay_us(0), 0);
        assert_eq!(h.latency_spike_us(0, Arm::Canary), 0);
        assert_eq!(h.message_extra_delay_us(0, 1, 0), 0);
        assert_eq!(h.partition_heal_us(0, 1, 0), None);
        assert_eq!(h.eval_extra_us(0), 0);
        assert!(!h.corrupt_upload(0) && !h.flood(0));
        assert_eq!(h.plan.events.len(), 0);
    }
}
