//! Global invariants asserted after every harness run.
//!
//! Each checker inspects the reports and logs of one driven loop and
//! returns zero or more [`Violation`]s. The invariants hold with or
//! without injected faults — faults change *outcomes* (sheds, retries,
//! drops), never *accounting*. A violation therefore means a real bug
//! in the system under test, which is exactly what the planted
//! guardrail bug demonstrates.

use eda_cloud_engine::RegionReport;
use eda_cloud_fleet::FleetReport;
use eda_cloud_lifecycle::{
    ape_micros, Arm, FeedbackEvent, LifecycleConfig, LifecycleReport, RolloutDecision,
    RolloutManager, CANARY_LATENCY_BUDGET_US, PROMOTE_MAX_ERROR_PCT,
};
use eda_cloud_recipe::TreeStats;
use eda_cloud_serve::{IngestDisposition, RequestOutcome, ServeReport};

/// One broken invariant: which checker tripped, and the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the invariant checker that tripped.
    pub checker: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl Violation {
    fn new(checker: &'static str, detail: String) -> Self {
        Self { checker, detail }
    }
}

/// Job conservation: every submitted job completes or exhausts its
/// stage attempts — none vanish, however many reclaims hit it.
#[must_use]
pub fn check_fleet_conservation(report: &FleetReport) -> Vec<Violation> {
    let c = &report.counters;
    let mut violations = Vec::new();
    if c.jobs_completed + c.jobs_exhausted != c.jobs_submitted {
        violations.push(Violation::new(
            "fleet_conservation",
            format!(
                "submitted {} != completed {} + exhausted {}",
                c.jobs_submitted, c.jobs_completed, c.jobs_exhausted
            ),
        ));
    }
    if c.deadline_hits > c.jobs_completed {
        violations.push(Violation::new(
            "fleet_conservation",
            format!("deadline hits {} exceed completions {}", c.deadline_hits, c.jobs_completed),
        ));
    }
    violations
}

/// Request conservation and ordinal coverage: every admitted request
/// completes or sheds, exactly one outcome per ordinal, in order.
#[must_use]
pub fn check_serve_conservation(
    report: &ServeReport,
    outcomes: &[RequestOutcome],
    requests: u64,
) -> Vec<Violation> {
    let c = &report.counters;
    let mut violations = Vec::new();
    if c.requests != requests {
        violations.push(Violation::new(
            "serve_conservation",
            format!("served {} of {requests} submitted requests", c.requests),
        ));
    }
    if c.completed + c.shed != c.requests {
        violations.push(Violation::new(
            "serve_conservation",
            format!("requests {} != completed {} + shed {}", c.requests, c.completed, c.shed),
        ));
    }
    if outcomes.len() as u64 != requests {
        violations.push(Violation::new(
            "serve_conservation",
            format!("{} outcomes for {requests} requests", outcomes.len()),
        ));
    }
    for (i, outcome) in outcomes.iter().enumerate() {
        if outcome.ordinal() != i as u64 {
            violations.push(Violation::new(
                "serve_conservation",
                format!("outcome {i} carries ordinal {}", outcome.ordinal()),
            ));
            break;
        }
    }
    violations
}

/// Ingest quarantine: every upload is disposed exactly once and the
/// dispositions match the counters; a rejected (quarantined) upload
/// must carry a reason and must never reach the result cache or the
/// GCN — its predictions stay zeroed and it can never plan. Injected
/// corruption and flood faults change *which* uploads are rejected,
/// never what rejection means.
#[must_use]
pub fn check_ingest_quarantine(
    report: &ServeReport,
    outcomes: &[RequestOutcome],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let (mut accepted, mut rejected, mut flagged) = (0u64, 0u64, 0u64);
    for outcome in outcomes {
        let RequestOutcome::Completed {
            ordinal, cache_hit, stage_secs, plan, recipe, ingest, ..
        } = outcome
        else {
            continue;
        };
        match ingest.as_deref() {
            Some(IngestDisposition::Accepted { ood, .. }) => {
                accepted += 1;
                if *ood {
                    flagged += 1;
                }
            }
            Some(IngestDisposition::Rejected { reason }) => {
                rejected += 1;
                if reason.is_empty() {
                    violations.push(Violation::new(
                        "ingest_quarantine",
                        format!("ordinal {ordinal}: quarantined upload carries no reason"),
                    ));
                }
                if *cache_hit {
                    violations.push(Violation::new(
                        "ingest_quarantine",
                        format!("ordinal {ordinal}: quarantined upload hit the result cache"),
                    ));
                }
                if stage_secs.iter().flatten().any(|&s| s != 0.0) {
                    violations.push(Violation::new(
                        "ingest_quarantine",
                        format!(
                            "ordinal {ordinal}: quarantined upload carries live predictions \
                             (reached the GCN)"
                        ),
                    ));
                }
                if plan.is_some() || recipe.is_some() {
                    violations.push(Violation::new(
                        "ingest_quarantine",
                        format!("ordinal {ordinal}: quarantined upload produced a plan"),
                    ));
                }
            }
            None => {}
        }
    }
    let c = &report.counters;
    if (accepted, rejected, flagged) != (c.ingest_accepted, c.ingest_rejected, c.ood_flagged) {
        violations.push(Violation::new(
            "ingest_quarantine",
            format!(
                "outcomes dispose {accepted} accepted / {rejected} rejected / {flagged} flagged, \
                 counters say {} / {} / {}",
                c.ingest_accepted, c.ingest_rejected, c.ood_flagged
            ),
        ));
    }
    violations
}

/// Recipe-search visit conservation: in the final MCTS tree every
/// node's visit count is exactly its own leaf selections plus its
/// children's visits, and the root saw every iteration. Injected
/// `recipe_eval_stall` faults stretch evaluation-time accounting but
/// must never bend the tree.
#[must_use]
pub fn check_recipe_visit_conservation(tree: &TreeStats) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (index, node) in tree.nodes.iter().enumerate() {
        if node.visits != node.own_selections + node.child_visits {
            violations.push(Violation::new(
                "recipe_visit_conservation",
                format!(
                    "node {index} (depth {}): visits {} != own selections {} + child visits {}",
                    node.depth, node.visits, node.own_selections, node.child_visits
                ),
            ));
        }
    }
    if tree.root_visits() != tree.total_iterations {
        violations.push(Violation::new(
            "recipe_visit_conservation",
            format!(
                "root visits {} != iterations {}",
                tree.root_visits(),
                tree.total_iterations
            ),
        ));
    }
    violations
}

/// Cross-shard conservation: every cross-region message a shard sent
/// is delivered or explicitly dropped by the fault plan — partitions
/// and injected delays may bend delivery times, never lose envelopes.
/// Jobs are conserved the same way: every submitted or migrated-in job
/// reaches a terminal outcome (served, quota-rejected, or shed), and
/// migration itself is zero-sum across regions.
#[must_use]
pub fn check_cross_shard_conservation(report: &RegionReport) -> Vec<Violation> {
    let mut violations = Vec::new();
    let m = &report.messages;
    if m.delivered + m.dropped != m.sent {
        violations.push(Violation::new(
            "cross_shard_conservation",
            format!(
                "sent {} != delivered {} + dropped {}",
                m.sent, m.delivered, m.dropped
            ),
        ));
    }
    let sum = |f: fn(&eda_cloud_engine::RegionCounters) -> u64| {
        report.regions.iter().map(f).sum::<u64>()
    };
    let migrated_out = sum(|c| c.migrated_out);
    let migrated_in = sum(|c| c.migrated_in);
    // Dropped migrations are the only way an outbound job fails to
    // land; anything else is a lost envelope.
    if migrated_in + m.dropped < migrated_out {
        violations.push(Violation::new(
            "cross_shard_conservation",
            format!(
                "{migrated_out} jobs migrated out but only {migrated_in} arrived \
                 ({} messages dropped in total)",
                m.dropped
            ),
        ));
    }
    let terminal = sum(|c| c.served) + sum(|c| c.quota_rejected) + sum(|c| c.shed);
    let entered = sum(|c| c.submitted) + migrated_in - migrated_out;
    if terminal != entered {
        violations.push(Violation::new(
            "cross_shard_conservation",
            format!(
                "{entered} jobs entered region queues but {terminal} reached a terminal outcome"
            ),
        ));
    }
    violations
}

/// Feedback conservation: every request's ground-truth join lands or
/// is accounted as dropped, and the log matches the counters.
#[must_use]
pub fn check_lifecycle_conservation(
    report: &LifecycleReport,
    feedback: &[FeedbackEvent],
    requests: u64,
) -> Vec<Violation> {
    let c = &report.counters;
    let mut violations = Vec::new();
    if c.requests != requests {
        violations.push(Violation::new(
            "lifecycle_conservation",
            format!("served {} of {requests} submitted requests", c.requests),
        ));
    }
    if c.feedback_joins + c.feedback_dropped != c.requests {
        violations.push(Violation::new(
            "lifecycle_conservation",
            format!(
                "requests {} != joins {} + dropped {}",
                c.requests, c.feedback_joins, c.feedback_dropped
            ),
        ));
    }
    if feedback.len() as u64 != c.feedback_joins {
        violations.push(Violation::new(
            "lifecycle_conservation",
            format!("feedback log holds {} entries, counters say {}", feedback.len(), c.feedback_joins),
        ));
    }
    violations
}

/// Version-coherent cache hits: two joins served by the same model
/// version for the same design must carry bit-identical predictions —
/// a cache hit may never smuggle another version's output.
#[must_use]
pub fn check_cache_coherence(feedback: &[FeedbackEvent]) -> Vec<Violation> {
    /// Bit patterns of the 4x4 prediction matrix plus the ordinal of
    /// the first join that produced them.
    type FirstPrediction = ([[u64; 4]; 4], u64);
    let mut seen: std::collections::BTreeMap<(u32, u64), FirstPrediction> =
        std::collections::BTreeMap::new();
    let mut violations = Vec::new();
    for fb in feedback {
        let bits = std::array::from_fn(|k| std::array::from_fn(|v| fb.predicted[k][v].to_bits()));
        match seen.get(&(fb.version, fb.design.fingerprint)) {
            None => {
                seen.insert((fb.version, fb.design.fingerprint), (bits, fb.ordinal));
            }
            Some((first, first_ordinal)) if *first != bits => {
                violations.push(Violation::new(
                    "cache_coherence",
                    format!(
                        "version {} design {:016x}: ordinal {} prediction differs from ordinal {}",
                        fb.version, fb.design.fingerprint, fb.ordinal, first_ordinal
                    ),
                ));
            }
            Some(_) => {}
        }
    }
    violations
}

/// Monotonic simulated time: control-plane events fire in
/// non-decreasing order and never past the run's makespan.
#[must_use]
pub fn check_monotonic_time(report: &LifecycleReport) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut last = 0u64;
    for event in &report.timeline {
        if event.time_us < last {
            violations.push(Violation::new(
                "monotonic_time",
                format!("{} at {}µs fired before {last}µs", event.kind, event.time_us),
            ));
        }
        last = last.max(event.time_us);
    }
    if last > report.makespan_us {
        violations.push(Violation::new(
            "monotonic_time",
            format!("timeline reaches {last}µs past makespan {}µs", report.makespan_us),
        ));
    }
    violations
}

/// Guardrail soundness: replay the feedback joins of every canary
/// window through a fresh [`RolloutManager`] and demand the recorded
/// decision. A promotion while the true canary latencies breach the
/// budget (the planted guardrail bug) shows up as a kind mismatch; a
/// decision at the wrong join shows up as an ordinal mismatch.
#[must_use]
pub fn check_guardrail_soundness(
    report: &LifecycleReport,
    feedback: &[FeedbackEvent],
    config: &LifecycleConfig,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut cursor = 0usize;
    let mut timeline = report.timeline.iter().peekable();
    while let Some(start) = timeline.next() {
        if start.kind != "canary_started" {
            continue;
        }
        let decision = timeline
            .peek()
            .copied()
            .filter(|e| e.kind == "promoted" || e.kind == "rolled_back");
        // The join that started the canary was processed before the
        // rollout manager saw anything; the window opens after it.
        let Some(start_pos) = feedback[cursor..]
            .iter()
            .position(|f| f.ordinal == start.ordinal)
            .map(|p| cursor + p)
        else {
            violations.push(Violation::new(
                "guardrail_soundness",
                format!("canary_started trigger ordinal {} not in the feedback log", start.ordinal),
            ));
            continue;
        };
        cursor = start_pos + 1;
        let mut manager = RolloutManager::new(
            config.canary_min,
            PROMOTE_MAX_ERROR_PCT,
            CANARY_LATENCY_BUDGET_US,
        );
        let mut replayed: Option<(RolloutDecision, u64)> = None;
        for fb in &feedback[cursor..] {
            let mean_ape =
                (0..4).map(|k| ape_micros(&fb.predicted[k], &fb.actual[k])).sum::<u64>() / 4;
            match fb.arm {
                Arm::Canary => manager.record_canary(mean_ape, fb.latency_us),
                Arm::Primary => manager.record_primary(mean_ape),
            }
            let verdict = manager.evaluate();
            if verdict != RolloutDecision::Pending {
                replayed = Some((verdict, fb.ordinal));
                break;
            }
        }
        match (decision, replayed) {
            (Some(recorded), Some((verdict, at_ordinal))) => {
                let want = match verdict {
                    RolloutDecision::Promote => "promoted",
                    _ => "rolled_back",
                };
                if recorded.kind != want || recorded.ordinal != at_ordinal {
                    violations.push(Violation::new(
                        "guardrail_soundness",
                        format!(
                            "canary v{}: recorded `{}` at ordinal {}, replay says `{want}` at \
                             ordinal {at_ordinal}",
                            start.version, recorded.kind, recorded.ordinal
                        ),
                    ));
                }
                // Advance past the decision join so the next window
                // replays from fresh traffic.
                if let Some(pos) =
                    feedback[cursor..].iter().position(|f| f.ordinal == recorded.ordinal)
                {
                    cursor += pos + 1;
                }
            }
            (Some(recorded), None) => violations.push(Violation::new(
                "guardrail_soundness",
                format!(
                    "canary v{}: recorded `{}` but the replayed guardrails never left Pending",
                    start.version, recorded.kind
                ),
            )),
            (None, Some((verdict, at_ordinal))) => violations.push(Violation::new(
                "guardrail_soundness",
                format!(
                    "canary v{}: replay decides {verdict:?} at ordinal {at_ordinal} but no \
                     decision was recorded",
                    start.version
                ),
            )),
            (None, None) => {} // Stream ended mid-canary on both sides.
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_fleet::FleetCounters;
    use eda_cloud_trace::Histogram;

    fn fleet_report(counters: FleetCounters) -> FleetReport {
        FleetReport {
            seed: 7,
            counters,
            deadline_hit_rate: 0.0,
            total_cost_usd: 0.0,
            mean_job_cost_usd: 0.0,
            mean_latency_secs: 0.0,
            p50_latency_secs: 0.0,
            p95_latency_secs: 0.0,
            makespan_secs: 0.0,
            latency_hist: Histogram::new(vec![1.0]),
            cost_hist: Histogram::new(vec![1.0]),
        }
    }

    #[test]
    fn fleet_conservation_catches_vanished_jobs() {
        let ok = fleet_report(FleetCounters {
            jobs_submitted: 5,
            jobs_completed: 4,
            jobs_exhausted: 1,
            ..Default::default()
        });
        assert!(check_fleet_conservation(&ok).is_empty());
        let bad = fleet_report(FleetCounters {
            jobs_submitted: 5,
            jobs_completed: 4,
            ..Default::default()
        });
        let violations = check_fleet_conservation(&bad);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].checker, "fleet_conservation");
        assert!(violations[0].detail.contains("submitted 5"));
    }

    fn serve_report(counters: eda_cloud_serve::ServeCounters) -> ServeReport {
        ServeReport {
            seed: 7,
            counters,
            deadline_hit_rate: 0.0,
            mean_latency_ms: 0.0,
            p50_latency_ms: 0.0,
            p95_latency_ms: 0.0,
            mean_batch_size: 0.0,
            max_queue_depth: 0,
            makespan_ms: 0.0,
            latency_hist: Histogram::new(vec![1.0]),
            batch_hist: Histogram::new(vec![1.0]),
            depth_hist: Histogram::new(vec![1.0]),
        }
    }

    fn ingest_outcome(ordinal: u64, ingest: IngestDisposition) -> RequestOutcome {
        RequestOutcome::Completed {
            ordinal,
            latency_us: 1_000,
            deadline_met: true,
            cache_hit: false,
            stage_secs: [[0.0; 4]; 4],
            plan: None,
            recipe: None,
            ingest: Some(Box::new(ingest)),
        }
    }

    #[test]
    fn ingest_quarantine_accepts_clean_dispositions() {
        let outcomes = vec![
            ingest_outcome(
                0,
                IngestDisposition::Accepted { fingerprint: 0x1234, ood_distance_micros: 9, ood: true },
            ),
            ingest_outcome(1, IngestDisposition::Rejected { reason: "flooded".into() }),
            RequestOutcome::Shed { ordinal: 2, queue_depth: 5 },
        ];
        let report = serve_report(eda_cloud_serve::ServeCounters {
            ingest_accepted: 1,
            ingest_rejected: 1,
            ood_flagged: 1,
            ..Default::default()
        });
        assert!(check_ingest_quarantine(&report, &outcomes).is_empty());
    }

    #[test]
    fn ingest_quarantine_catches_leaks_and_drifted_counters() {
        let mut leaky_secs = [[0.0; 4]; 4];
        leaky_secs[2][1] = 3.5;
        let outcomes = vec![
            RequestOutcome::Completed {
                ordinal: 0,
                latency_us: 1_000,
                deadline_met: true,
                cache_hit: true, // quarantined yet cached
                stage_secs: leaky_secs, // and carrying live predictions
                plan: None,
                recipe: None,
                ingest: Some(Box::new(IngestDisposition::Rejected { reason: String::new() })),
            },
        ];
        let report = serve_report(eda_cloud_serve::ServeCounters {
            ingest_accepted: 1, // counters disagree with the outcomes too
            ..Default::default()
        });
        let violations = check_ingest_quarantine(&report, &outcomes);
        assert_eq!(violations.len(), 4, "{violations:?}");
        assert!(violations.iter().all(|v| v.checker == "ingest_quarantine"));
        assert!(violations.iter().any(|v| v.detail.contains("no reason")));
        assert!(violations.iter().any(|v| v.detail.contains("result cache")));
        assert!(violations.iter().any(|v| v.detail.contains("GCN")));
        assert!(violations.iter().any(|v| v.detail.contains("counters say 1 / 0 / 0")));
    }

    #[test]
    fn recipe_visit_conservation_holds_under_injected_stalls() {
        use crate::{FaultEvent, FaultPlan, PlanFaults};
        use eda_cloud_netlist::generators;
        use eda_cloud_recipe::{EvalCache, RecipeSearch, SearchConfig};

        let aig = generators::build_family("adder", 4).expect("known family");
        let search = RecipeSearch::new(SearchConfig { iters: 12, seed: 7 });
        let clean = search.run("adder_4", &aig).expect("clean search");

        let faults = PlanFaults::new(FaultPlan {
            seed: 7,
            events: vec![FaultEvent::RecipeEvalStall {
                iter_lo: 0,
                iter_hi: 6,
                extra_us: 250_000,
            }],
        });
        let stalled = search
            .run_with("adder_4", &aig, &faults, &mut EvalCache::new())
            .expect("stalled search");

        // Stalls stretch time accounting only; tree and outcome match.
        assert!(stalled.total_eval_us > clean.total_eval_us);
        assert_eq!(stalled.tree, clean.tree);
        assert_eq!(stalled.best_key, clean.best_key);
        assert!(check_recipe_visit_conservation(&clean.tree).is_empty());
        assert!(check_recipe_visit_conservation(&stalled.tree).is_empty());
    }

    #[test]
    fn recipe_visit_conservation_catches_broken_accounting() {
        use eda_cloud_recipe::NodeStat;

        let ok = TreeStats {
            nodes: vec![
                NodeStat { depth: 0, visits: 3, own_selections: 1, child_visits: 2 },
                NodeStat { depth: 1, visits: 2, own_selections: 2, child_visits: 0 },
            ],
            total_iterations: 3,
        };
        assert!(check_recipe_visit_conservation(&ok).is_empty());

        let mut leaky = ok.clone();
        leaky.nodes[1].own_selections = 1; // a selection vanished
        leaky.total_iterations = 4; // and the root missed an iteration
        let violations = check_recipe_visit_conservation(&leaky);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert_eq!(violations[0].checker, "recipe_visit_conservation");
        assert!(violations[0].detail.contains("node 1"));
        assert!(violations[1].detail.contains("root visits 3 != iterations 4"));
    }

    #[test]
    fn monotonic_time_catches_reordered_timelines() {
        use eda_cloud_lifecycle::{LifecycleCounters, StageErrors, TimelineEvent};
        let mut report = LifecycleReport {
            seed: 7,
            requests: 4,
            drift_at: 1,
            drift_factor: 2.0,
            counters: LifecycleCounters::default(),
            final_primary_version: 1,
            stages: [StageErrors::default(); 4],
            timeline: vec![
                TimelineEvent { time_us: 10, ordinal: 0, kind: "retrained", stage: "-", version: 2 },
                TimelineEvent { time_us: 5, ordinal: 1, kind: "promoted", stage: "-", version: 2 },
            ],
            mean_latency_us: 0,
            p95_latency_us: 0,
            makespan_us: 100,
            latency_hist: Histogram::new(vec![1.0]),
        };
        let violations = check_monotonic_time(&report);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].detail.contains("promoted"));
        report.timeline[1].time_us = 200;
        let violations = check_monotonic_time(&report);
        assert!(violations.iter().any(|v| v.detail.contains("makespan")), "{violations:?}");
    }
}
