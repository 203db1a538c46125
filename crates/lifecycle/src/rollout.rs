//! Canary guardrails: promote or roll back a candidate.
//!
//! While a canary is in flight, every feedback join lands here —
//! canary-arm joins accumulate the candidate's error and latency,
//! primary-arm joins the baseline's error over the same stretch of
//! traffic. Once both arms have enough joins, the guardrails are
//! evaluated in integer micros: the candidate must beat the primary's
//! error by the configured margin *and* stay inside the latency
//! budget. One evaluation, one decision — the controller acts on it
//! and drops the manager with the candidate it judged; the next canary
//! starts a fresh one.

/// The rollout manager's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutDecision {
    /// Not enough joins on one of the arms yet.
    Pending,
    /// Guardrails passed — promote the candidate.
    Promote,
    /// The candidate's error ratio breached the guardrail.
    RollbackError,
    /// The candidate's mean latency breached the budget.
    RollbackLatency,
}

/// Accumulates per-arm canary statistics and applies the guardrails.
#[derive(Debug, Clone)]
pub struct RolloutManager {
    min_joins: usize,
    promote_max_error_pct: u64,
    latency_budget_us: u64,
    canary_err_sum: u64,
    canary_joins: u64,
    canary_latency_sum: u64,
    primary_err_sum: u64,
    primary_joins: u64,
}

impl RolloutManager {
    /// A manager requiring `min_joins` on each arm, promoting only if
    /// `canary_mape * 100 <= promote_max_error_pct * primary_mape` and
    /// the canary's mean latency is within `latency_budget_us`.
    ///
    /// # Panics
    ///
    /// Panics if `min_joins == 0` or `promote_max_error_pct == 0`.
    #[must_use]
    pub fn new(min_joins: usize, promote_max_error_pct: u64, latency_budget_us: u64) -> Self {
        assert!(min_joins > 0, "min_joins must be positive");
        assert!(promote_max_error_pct > 0, "promote_max_error_pct must be positive");
        Self {
            min_joins,
            promote_max_error_pct,
            latency_budget_us,
            canary_err_sum: 0,
            canary_joins: 0,
            canary_latency_sum: 0,
            primary_err_sum: 0,
            primary_joins: 0,
        }
    }

    /// Record a canary-arm join: its all-stage mean APE (micros) and
    /// serving latency (µs).
    pub fn record_canary(&mut self, mape_micros: u64, latency_us: u64) {
        self.canary_err_sum += mape_micros;
        self.canary_latency_sum += latency_us;
        self.canary_joins += 1;
    }

    /// Record a primary-arm join observed while the canary is live.
    pub fn record_primary(&mut self, mape_micros: u64) {
        self.primary_err_sum += mape_micros;
        self.primary_joins += 1;
    }

    /// Evaluate the guardrails. Integer arithmetic throughout: means
    /// are floor divisions and the error guardrail cross-multiplies,
    /// so the decision is byte-stable.
    #[must_use]
    pub fn evaluate(&self) -> RolloutDecision {
        if self.canary_joins < self.min_joins as u64 || self.primary_joins < self.min_joins as u64
        {
            return RolloutDecision::Pending;
        }
        let canary_latency = self.canary_latency_sum / self.canary_joins;
        if canary_latency > self.latency_budget_us {
            return RolloutDecision::RollbackLatency;
        }
        let canary_mape = self.canary_err_sum / self.canary_joins;
        let primary_mape = self.primary_err_sum / self.primary_joins;
        if canary_mape * 100 <= primary_mape * self.promote_max_error_pct {
            RolloutDecision::Promote
        } else {
            RolloutDecision::RollbackError
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_until_both_arms_have_enough_joins() {
        let mut m = RolloutManager::new(2, 90, 10_000);
        assert_eq!(m.evaluate(), RolloutDecision::Pending);
        m.record_canary(100_000, 1_000);
        m.record_canary(100_000, 1_000);
        assert_eq!(m.evaluate(), RolloutDecision::Pending, "primary arm still short");
        m.record_primary(300_000);
        m.record_primary(300_000);
        assert_eq!(m.evaluate(), RolloutDecision::Promote);
        assert_eq!(m.canary_joins, 2);
    }

    #[test]
    fn error_guardrail_rolls_back_marginal_candidates() {
        let mut m = RolloutManager::new(1, 90, 10_000);
        // Exactly at the 90% boundary: promote (<=).
        m.record_canary(90_000, 1_000);
        m.record_primary(100_000);
        assert_eq!(m.evaluate(), RolloutDecision::Promote);
        let mut m = RolloutManager::new(1, 90, 10_000);
        // Just above: rollback.
        m.record_canary(90_001, 1_000);
        m.record_primary(100_000);
        assert_eq!(m.evaluate(), RolloutDecision::RollbackError);
        let mut m = RolloutManager::new(1, 90, 10_000);
        // A candidate no better than the primary (equal error) fails a
        // sub-100% guardrail — the retrain must actually help.
        m.record_canary(100_000, 1_000);
        m.record_primary(100_000);
        assert_eq!(m.evaluate(), RolloutDecision::RollbackError);
    }

    #[test]
    fn latency_guardrail_takes_precedence() {
        let mut m = RolloutManager::new(1, 90, 500);
        m.record_canary(10_000, 501);
        m.record_primary(100_000);
        assert_eq!(m.evaluate(), RolloutDecision::RollbackLatency);
    }

    #[test]
    fn zero_primary_error_requires_zero_canary_error() {
        let mut m = RolloutManager::new(1, 90, 10_000);
        m.record_canary(1, 100);
        m.record_primary(0);
        assert_eq!(m.evaluate(), RolloutDecision::RollbackError);
        let mut m = RolloutManager::new(1, 90, 10_000);
        m.record_canary(0, 100);
        m.record_primary(0);
        assert_eq!(m.evaluate(), RolloutDecision::Promote);
    }
}
