//! The three serving workloads. All time the same public call —
//! `Server::run(seed, &requests)` — and differ only in what they feed
//! it, so that each stresses a different layer under the serve loop:
//!
//! * `serve_miss` — every request misses the result cache, so
//!   `GraphBatch::pack_padded` and the float forward at the paper's
//!   256/128 dims dominate; MCKP is idle. The stock `serve` bin
//!   (18-design pool, cache 32, fast model) can never show a GCN or
//!   batching change.
//! * `serve_plan` — the same loop used the other way: the pool fits the
//!   cache, every request solves a catalog-priced MCKP (the paper's
//!   Problem 3) on Table-I-sized runtimes. Admission queue, LRU,
//!   `WorkflowPlanner`, `mckp::Solver`, and report folding dominate.
//!   A GCN win must not move this; a DP or cache win must not move
//!   `serve_miss`.
//! * `ingest_stream` — every request uploads a document; the corpus is
//!   six times the ingest cache, so parse -> validate -> canonicalize
//!   -> featurize -> OOD dominate and forwards are bounded by the
//!   corpus.
//!
//! Model weights are fixed (seed 7) for every `--seed`, so every seed
//! predicts and plans the same numbers; the seed drives traffic only
//! (arrivals, design and upload order, deadlines, budgets).

use super::{ms, ratio, Iteration, TraceSink, Workload, PARALLEL_WORKERS, WORKERS};
use crate::gen::{self, StreamSpec};
use crate::spans::{self, SpanLog};
use crate::stats::{fnv1a64, percentile};
use crate::timed::{PlanCall, TimedIngestor, TimedPlanner, INGEST_SPAN, PLAN_SPAN};
use eda_cloud_core::{StageRuntimes, Workflow, WorkflowPlanner};
use eda_cloud_flow::StageKind;
use eda_cloud_gcn::{GraphBatch, GraphSample, Matrix, ModelConfig};
use eda_cloud_ingest::{blif::parse_blif, pipeline, verilog::parse_verilog};
use eda_cloud_ingest::{FrontDoor, FrontDoorConfig, OodGate};
use eda_cloud_lifecycle::{Retrainer, RuntimeOracle};
use eda_cloud_mckp::{baselines, savings_of, Problem, Solver};
use eda_cloud_netlist::{generators, DesignGraph};
use eda_cloud_serve::{
    IngestDisposition, Ingestor, ModelSnapshot, Planner, QuantizedSnapshot, RequestKind,
    RequestOutcome, ServeConfig, ServeDesign, ServeReport, ServeRequest, Server, UploadDoc,
};
use eda_cloud_tech::Library;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the fixed model weights.
const MODEL_SEED: u64 = 7;
/// Sizes every family is built at for the `serve_miss` pool: 36
/// designs, one lap of which is one iteration.
const MISS_SIZES: [u32; 2] = [4, 8];
/// Result-cache capacity under `serve_miss`: far below the pool, so a
/// lap never re-hits.
const MISS_CACHE: usize = 8;
/// Requests per `serve_plan` iteration: 16 laps over the stock
/// 18-design pool, every one a Plan.
const PLAN_REQUESTS: usize = 288;
/// Requests per `ingest_stream` iteration: 3 laps over the 96 uploads.
const INGEST_REQUESTS: usize = 288;
/// Result-cache capacity where the pool must fit it.
const ROOMY_CACHE: usize = 256;
/// Admission-queue capacity for all three mixes.
const QUEUE: usize = 64;
/// Bare/traced run pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;
/// Epochs of the oracle-label bootstrap that gives `serve_plan` a model
/// predicting Table-I-sized runtimes (the lifecycle controller's own
/// bootstrap recipe).
const BOOTSTRAP_EPOCHS: usize = 40;

/// Which traffic mix to feed `Server::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `serve_miss`.
    Miss,
    /// `serve_plan`.
    Plan,
    /// `ingest_stream`.
    Ingest,
}

/// One of the three serving workloads, set up.
pub struct Serve {
    mix: Mix,
    seed: u64,
    workflow: Workflow,
    snapshot: ModelSnapshot,
    config: ServeConfig,
    requests: Vec<ServeRequest>,
    uploads: Vec<Arc<UploadDoc>>,
    /// The bare server at [`WORKERS`], built once in set-up and reused
    /// by every iteration.
    server: Server,
}

/// All four stages' predictions for one design, as the server computes
/// them.
fn predict(snapshot: &ModelSnapshot, design: &ServeDesign) -> [[f64; 4]; 4] {
    std::array::from_fn(|k| {
        snapshot
            .stage(k)
            .predict_secs(if k == 0 { &design.aig } else { &design.netlist })
    })
}

/// Fine-tune the seeded fast model on the pool's oracle labels, exactly
/// as `LifecycleController` bootstraps its first snapshot. An untrained
/// model predicts anything from 1e-9 s to 1e8 s, which makes every
/// knapsack either trivial or absurd; this one predicts the Table-I
/// magnitudes the planner is priced for.
fn bootstrapped_snapshot(pool: &[Arc<ServeDesign>]) -> ModelSnapshot {
    let buffers = gen::oracle_buffers(pool, &RuntimeOracle::new(u64::MAX, 1.0), 0);
    let seeded = ModelSnapshot::seeded(&ModelConfig::fast(), MODEL_SEED);
    Retrainer {
        epochs: BOOTSTRAP_EPOCHS,
        learning_rate: 3e-3,
        seed: MODEL_SEED,
    }
    .retrain(&seeded, &buffers, WORKERS)
    .0
}

/// Whole-second runtime of the fastest and the slowest selection the
/// knapsack can make from `secs` — a budget drawn between the two is
/// always feasible and spans every interesting trade-off.
fn budget_range(secs: &[[f64; 4]; 4]) -> (u64, u64) {
    let whole = |v: f64| v.max(0.0).ceil() as u64;
    let pick = |f: fn(u64, u64) -> u64| -> u64 {
        secs.iter()
            .map(|stage| stage.iter().map(|&v| whole(v)).reduce(f).unwrap_or(0))
            .sum()
    };
    (pick(u64::min), pick(u64::max))
}

impl Serve {
    /// Generate `mix`'s pool, model, and request stream from `seed`.
    ///
    /// # Errors
    ///
    /// Reports a failed generator, or an upload the front door rejects.
    pub fn setup(mix: Mix, seed: u64) -> Result<Self, String> {
        let workflow = Workflow::with_defaults();
        let base = ServeConfig {
            queue_capacity: QUEUE,
            workers: WORKERS,
            ..ServeConfig::default()
        };
        let predict_only =
            |_: usize, _: &ServeDesign, _: &mut ChaCha8Rng| (RequestKind::Predict, None);
        let (snapshot, config, requests, uploads) = match mix {
            Mix::Miss => {
                let pool = gen::design_pool(&generators::FAMILY_NAMES, &MISS_SIZES)?;
                let spec = StreamSpec {
                    requests: pool.len(),
                    rate_per_sec: 300.0,
                    deadline_ms: 30..250,
                };
                (
                    ModelSnapshot::seeded(&ModelConfig::paper(), MODEL_SEED),
                    ServeConfig {
                        cache_capacity: MISS_CACHE,
                        ..base
                    },
                    gen::request_stream(&pool, &spec, seed, predict_only),
                    Vec::new(),
                )
            }
            Mix::Plan => {
                let pool = eda_cloud_serve::design_pool();
                let snapshot = bootstrapped_snapshot(&pool);
                let ranges: BTreeMap<u64, (u64, u64)> = pool
                    .iter()
                    .map(|d| (d.fingerprint, budget_range(&predict(&snapshot, d))))
                    .collect();
                let spec = StreamSpec {
                    requests: PLAN_REQUESTS,
                    rate_per_sec: 300.0,
                    deadline_ms: 30..250,
                };
                let requests = gen::request_stream(&pool, &spec, seed, |_, design, rng| {
                    let (fastest, slowest) = ranges[&design.fingerprint];
                    (
                        RequestKind::Plan {
                            budget_secs: rng.gen_range(fastest..=slowest),
                        },
                        None,
                    )
                });
                (
                    snapshot,
                    ServeConfig {
                        cache_capacity: ROOMY_CACHE,
                        ..base
                    },
                    requests,
                    Vec::new(),
                )
            }
            Mix::Ingest => {
                let uploads = gen::upload_corpus()?;
                // `design` is ignored on Ingest requests but must be
                // present: one placeholder per upload, so the stream's
                // shuffled laps run over the uploads.
                let placeholder = eda_cloud_serve::design_pool().swap_remove(0);
                let carriers: Vec<Arc<ServeDesign>> =
                    uploads.iter().map(|_| Arc::clone(&placeholder)).collect();
                let spec = StreamSpec {
                    requests: INGEST_REQUESTS,
                    rate_per_sec: 150.0,
                    deadline_ms: 30..250,
                };
                let requests = gen::request_stream(&carriers, &spec, seed, |pick, _, _| {
                    (RequestKind::Ingest, Some(Arc::clone(&uploads[pick])))
                });
                (
                    ModelSnapshot::seeded(&ModelConfig::fast(), MODEL_SEED),
                    ServeConfig {
                        cache_capacity: ROOMY_CACHE,
                        ..base
                    },
                    requests,
                    uploads,
                )
            }
        };
        // Every generated upload must clear the front door: a rejected
        // one would make `ingest_stream` measure the error path.
        let door = front_door();
        for doc in &uploads {
            door.ingest_doc(doc).map_err(|e| {
                format!(
                    "generated upload {} ({}) rejected: {e}",
                    doc.name, doc.format
                )
            })?;
        }
        let server = bare_server(&workflow, &snapshot, &config, WORKERS);
        Ok(Self {
            mix,
            seed,
            workflow,
            snapshot,
            config,
            requests,
            uploads,
            server,
        })
    }

    /// A server on the production planner and front door.
    fn bare_server(&self, workers: usize) -> Server {
        bare_server(&self.workflow, &self.snapshot, &self.config, workers)
    }

    /// Time one `Server::run` and check conservation on what it
    /// returns.
    fn run_checked(
        &self,
        server: &Server,
    ) -> Result<(Iteration, ServeReport, Vec<RequestOutcome>), String> {
        let start = Instant::now();
        let result = server.run(self.seed, &self.requests);
        let wall = start.elapsed();
        let (report, outcomes) = result.map_err(|e| format!("Server::run: {e}"))?;
        let iteration = self.check(wall, &report, &outcomes)?;
        Ok((iteration, report, outcomes))
    }

    fn check(
        &self,
        wall: Duration,
        report: &ServeReport,
        outcomes: &[RequestOutcome],
    ) -> Result<Iteration, String> {
        let c = &report.counters;
        let requests = self.requests.len() as u64;
        if c.requests != requests || c.completed + c.shed != requests {
            return Err(format!(
                "conservation: {} completed + {} shed != {requests} requests",
                c.completed, c.shed
            ));
        }
        if outcomes.len() as u64 != requests {
            return Err(format!(
                "{} outcomes for {requests} requests",
                outcomes.len()
            ));
        }
        let ingests = self
            .requests
            .iter()
            .filter(|r| r.kind == RequestKind::Ingest)
            .count() as u64;
        if c.shed == 0 && c.ingest_accepted + c.ingest_rejected != ingests {
            return Err(format!(
                "conservation: {} accepted + {} rejected != {ingests} ingest requests",
                c.ingest_accepted, c.ingest_rejected
            ));
        }
        let mut report_text = report.to_json();
        report_text.push_str(&format!(" outcomes:{:016x}", outcome_digest(outcomes)));
        Ok(Iteration {
            wall,
            ops: c.completed,
            attempted: requests,
            failed: c.shed + c.ingest_rejected + c.plans_infeasible,
            quality: self.quality(outcomes)?,
            report: report_text,
        })
    }

    /// The mix's result-quality figure, as a mean over **all**
    /// requests: one answered within its deadline scores 100 — or, on
    /// `serve_plan`, the percentage its plan saves against
    /// over-provisioning (the paper's 35.29 % figure) — and a shed,
    /// late, or unplannable one scores 0.
    fn quality(&self, outcomes: &[RequestOutcome]) -> Result<f64, String> {
        let mut sum = 0.0;
        for outcome in outcomes {
            let RequestOutcome::Completed {
                deadline_met: true,
                stage_secs,
                plan,
                ..
            } = outcome
            else {
                continue;
            };
            sum += match (self.mix, plan) {
                (Mix::Miss | Mix::Ingest, _) => 100.0,
                (Mix::Plan, None) => 0.0,
                (Mix::Plan, Some(plan)) => {
                    let over = baselines::over_provision(&self.problem(stage_secs)?);
                    100.0
                        * ratio(
                            over.total_cost_usd - plan.total_cost_usd,
                            over.total_cost_usd,
                        )
                }
            };
        }
        Ok(ratio(sum, self.requests.len() as f64))
    }

    /// The catalog-priced knapsack `WorkflowPlanner` builds from one
    /// design's predicted stage runtimes.
    fn problem(&self, stage_secs: &[[f64; 4]; 4]) -> Result<Problem, String> {
        let runtimes: Vec<StageRuntimes> = StageKind::ALL
            .iter()
            .zip(stage_secs)
            .map(|(&kind, &runtimes_secs)| StageRuntimes {
                kind,
                runtimes_secs,
            })
            .collect();
        self.workflow
            .deployment_problem(&runtimes)
            .map_err(|e| format!("problem build: {e}"))
    }
}

/// What one decorated `Server::run` produced.
struct Traced {
    /// Span of the run; every in-situ plan/ingest span is its child.
    run: usize,
    iteration: Iteration,
    report: ServeReport,
    outcomes: Vec<RequestOutcome>,
    /// Inputs of every `Planner::plan` call, in call order.
    plan_calls: Vec<PlanCall>,
    /// Fingerprints of the uploads ingested fresh, in call order.
    fresh_prints: Vec<u64>,
}

/// A server over `snapshot` with the given ports mounted.
fn new_server(
    snapshot: &ModelSnapshot,
    config: &ServeConfig,
    workers: usize,
    planner: Box<dyn Planner>,
    ingestor: Box<dyn Ingestor>,
) -> Server {
    let config = ServeConfig {
        workers,
        ..config.clone()
    };
    Server::new(snapshot.clone(), planner, config).with_ingestor(ingestor)
}

/// A server on the production planner and front door.
fn bare_server(
    workflow: &Workflow,
    snapshot: &ModelSnapshot,
    config: &ServeConfig,
    workers: usize,
) -> Server {
    new_server(
        snapshot,
        config,
        workers,
        Box::new(WorkflowPlanner::new(workflow.clone())),
        Box::new(front_door()),
    )
}

/// The production front door, bound to the stock pool's profile.
fn front_door() -> FrontDoor {
    FrontDoor::with_pool_profile(FrontDoorConfig::default())
}

/// FNV-1a over what every outcome decided: latency, deadline verdict,
/// cache verdict, the exact prediction bits, and the plan.
fn outcome_digest(outcomes: &[RequestOutcome]) -> u64 {
    let mut bytes = Vec::with_capacity(outcomes.len() * 160);
    for outcome in outcomes {
        match outcome {
            RequestOutcome::Completed {
                ordinal,
                latency_us,
                deadline_met,
                cache_hit,
                stage_secs,
                plan,
                ..
            } => {
                bytes.extend_from_slice(&ordinal.to_le_bytes());
                bytes.extend_from_slice(&latency_us.to_le_bytes());
                bytes.push(u8::from(*deadline_met) | u8::from(*cache_hit) << 1);
                for v in stage_secs.iter().flatten() {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                if let Some(plan) = plan {
                    for v in plan.vcpus {
                        bytes.extend_from_slice(&v.to_le_bytes());
                    }
                    bytes.extend_from_slice(&plan.total_runtime_secs.to_le_bytes());
                    bytes.extend_from_slice(&plan.total_cost_usd.to_bits().to_le_bytes());
                }
            }
            RequestOutcome::Shed {
                ordinal,
                queue_depth,
            } => {
                bytes.extend_from_slice(&ordinal.to_le_bytes());
                bytes.extend_from_slice(&(*queue_depth as u64).to_le_bytes());
            }
        }
    }
    fnv1a64(&bytes)
}

impl Workload for Serve {
    fn iterate(&self) -> Result<Iteration, String> {
        Ok(self.run_checked(&self.server)?.0)
    }

    fn trace(&self, sink: &mut TraceSink) -> Result<(), String> {
        let log = sink.log.clone();

        // Bare runs at both worker counts: the w2/w1 ratio, and the
        // report must not depend on the count.
        let (serial, ..) = self.run_checked(&self.server)?;
        let (parallel, ..) = self.run_checked(&self.bare_server(PARALLEL_WORKERS))?;
        if serial.report != parallel.report {
            return Err("serve report differs between workers 1 and 2".into());
        }

        // Traced runs — same server, timing decorators on both ports —
        // alternated with bare ones; tracing overhead compares the
        // fastest of each, so one descheduled run cannot fake it. Only
        // the last traced run writes into the round's span log.
        let (mut bare_walls, mut traced_walls) = (vec![serial.wall], Vec::new());
        for _ in 1..OVERHEAD_PAIRS {
            traced_walls.push(self.traced_run(&SpanLog::new())?.iteration.wall);
            bare_walls.push(self.run_checked(&self.server)?.0.wall);
        }
        let Traced {
            run,
            iteration: traced,
            report,
            outcomes,
            plan_calls,
            fresh_prints,
        } = self.traced_run(&log)?;
        traced_walls.push(traced.wall);
        if traced.report != serial.report {
            return Err("timing decorators changed the serve report".into());
        }
        let fastest = |walls: &[Duration]| walls.iter().min().map_or(0.0, |w| ms(*w));

        let replay = log.reserve("replay", None);
        let (plan_saving_pct, rows) = log.fill(replay, || -> Result<_, String> {
            let ingested = self.replay_ingest(&log, replay, &fresh_prints)?;
            let batches = self.miss_batches(&outcomes, &ingested);
            let rows = self.replay_forwards(&log, replay, &batches);
            let saving = self.replay_plans(&log, replay, &plan_calls)?;
            log.time("serve.report_render", Some(replay), || {
                std::hint::black_box(report.to_json())
            });
            Ok((saving, rows))
        })?;

        let recorded = log.snapshot();
        let total = |name: &str| spans::total_ms(&recorded, name);
        let run_ms = ms(traced.wall);
        let forward_ms = total("gcn.pack") + total("gcn.forward_float");
        let c = &report.counters;
        let layers = &mut sink.layers;
        layers.set("serve.plan_ms", total(PLAN_SPAN));
        layers.set("serve.ingest_ms", total(INGEST_SPAN));
        layers.set("serve.forward_ms", forward_ms);
        layers.set(
            "serve.loop_self_ms",
            (spans::self_ms(&recorded, run) - forward_ms).max(0.0),
        );
        layers.set("serve.report_render_ms", total("serve.report_render"));
        layers.set(
            "serve.w2_over_w1",
            ratio(ms(parallel.wall), ms(serial.wall)),
        );
        layers.set(
            "serve.cache_hit_rate",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        );
        layers.set("serve.mean_batch_size", report.mean_batch_size);
        layers.set("serve.batches", c.batches as f64);
        layers.set("serve.shed", c.shed as f64);
        layers.set("serve.sim_p95_latency_ms", report.p95_latency_ms);
        layers.set("quality.deadline_hit_rate", report.deadline_hit_rate);
        layers.set(
            "trace.overhead_pct",
            100.0 * (ratio(fastest(&traced_walls), fastest(&bare_walls)) - 1.0),
        );
        layers.set(
            "trace.attributed_share",
            ratio(total(PLAN_SPAN) + total(INGEST_SPAN) + forward_ms, run_ms).min(1.0),
        );

        layers.set("gcn.pack_ms", total("gcn.pack"));
        layers.set("gcn.forward_float_ms", total("gcn.forward_float"));
        layers.set("gcn.forward_int8_ms", total("gcn.forward_int8"));
        layers.set("gcn.spmm_ms", total("gcn.spmm"));
        layers.set("gcn.dense_ms", total("gcn.dense"));
        layers.set("gcn.forwards", c.gcn_predictions as f64);
        layers.set(
            "gcn.rows_per_forward",
            ratio(rows as f64, c.gcn_predictions as f64),
        );

        let plan_us = spans::samples_us(&recorded, PLAN_SPAN);
        layers.set("core.plan_deployment_us_p50", percentile(&plan_us, 0.50));
        layers.set("core.plan_deployment_us_p99", percentile(&plan_us, 0.99));
        let solve_us = spans::samples_us(&recorded, "mckp.solve");
        layers.set("mckp.solve_us_p50", percentile(&solve_us, 0.50));
        layers.set("mckp.solve_us_p99", percentile(&solve_us, 0.99));
        layers.set(
            "mckp.budget_secs_mean",
            ratio(
                plan_calls.iter().map(|p| p.budget_secs as f64).sum(),
                plan_calls.len() as f64,
            ),
        );
        layers.set(
            "cloud.problem_build_us_p50",
            percentile(&spans::samples_us(&recorded, "cloud.problem_build"), 0.50),
        );
        layers.set("quality.plan_saving_pct", plan_saving_pct);

        layers.set("ingest.parse_blif_ms", total("ingest.parse_blif"));
        layers.set("ingest.parse_verilog_ms", total("ingest.parse_verilog"));
        layers.set("ingest.validate_ms", total("ingest.validate"));
        layers.set("ingest.canonicalize_ms", total("ingest.canonicalize"));
        layers.set("ingest.featurize_ood_ms", total("ingest.featurize_ood"));
        let door_us = spans::samples_us(&recorded, INGEST_SPAN);
        layers.set("ingest.front_door_us_p50", percentile(&door_us, 0.50));
        layers.set("ingest.front_door_us_p99", percentile(&door_us, 0.99));
        let ingest_requests = c.ingest_accepted + c.ingest_rejected;
        layers.set(
            "ingest.fresh_share",
            ratio(fresh_prints.len() as f64, ingest_requests as f64),
        );
        let upload_mb: f64 = self
            .requests
            .iter()
            .filter_map(|r| r.upload.as_ref())
            .map(|u| u.text.len() as f64 / 1e6)
            .fold(0.0, |mb, doc| mb + doc);
        layers.set(
            "ingest.upload_mb_per_s",
            ratio(upload_mb, traced.wall.as_secs_f64()),
        );
        Ok(())
    }
}

impl Serve {
    /// One `Server::run` at [`WORKERS`] with [`TimedPlanner`] and
    /// [`TimedIngestor`] mounted, recording into `log`.
    fn traced_run(&self, log: &SpanLog) -> Result<Traced, String> {
        let run = log.reserve("serve.run", None);
        let planner = TimedPlanner::new(
            WorkflowPlanner::new(self.workflow.clone()),
            log.clone(),
            run,
        );
        let ingestor = TimedIngestor::new(front_door(), log.clone(), run);
        let (plan_calls, fresh_prints) = (planner.calls(), ingestor.fresh());
        let server = new_server(
            &self.snapshot,
            &self.config,
            WORKERS,
            Box::new(planner),
            Box::new(ingestor),
        );
        let (iteration, report, outcomes) = log.fill(run, || self.run_checked(&server))?;
        let plan_calls = std::mem::take(&mut *plan_calls.lock().expect("plan-call log"));
        let fresh_prints = std::mem::take(&mut *fresh_prints.lock().expect("ingest-call log"));
        Ok(Traced {
            run,
            iteration,
            report,
            outcomes,
            plan_calls,
            fresh_prints,
        })
    }

    /// Replay every fresh ingest through the front door's stages, one
    /// span per stage per document, and return the ingested design of
    /// every upload (keyed by upload fingerprint) for the forward
    /// replay.
    fn replay_ingest(
        &self,
        log: &SpanLog,
        parent: usize,
        fresh: &[u64],
    ) -> Result<BTreeMap<u64, Arc<ServeDesign>>, String> {
        let by_print: BTreeMap<u64, &Arc<UploadDoc>> =
            self.uploads.iter().map(|d| (d.fingerprint, d)).collect();
        let lib = Library::synthetic_14nm();
        let door = front_door();
        let gate = {
            let views: Vec<GraphSample> = eda_cloud_serve::design_pool()
                .iter()
                .map(|d| d.netlist.clone())
                .collect();
            OodGate::new(
                eda_cloud_gcn::FeatureProfile::from_samples(&views),
                FrontDoorConfig::default().ood_threshold_micros,
            )
        };
        let mut ingested = BTreeMap::new();
        for print in fresh {
            let doc = by_print
                .get(print)
                .ok_or_else(|| format!("server ingested an upload {print:#x} nobody generated"))?;
            let stage_err = |stage: &str, e: &dyn std::fmt::Display| {
                format!("{stage} replay of {} ({}): {e}", doc.name, doc.format)
            };
            let netlist = if doc.format == "blif" {
                log.time("ingest.parse_blif", Some(parent), || {
                    parse_blif(&doc.text, &lib)
                })
                .map_err(|e| stage_err("parse", &e))?
                .swap_remove(0)
            } else {
                log.time("ingest.parse_verilog", Some(parent), || {
                    parse_verilog(&doc.text, &lib)
                })
                .map_err(|e| stage_err("parse", &e))?
            };
            log.time("ingest.validate", Some(parent), || {
                pipeline::validate(&netlist)
            })
            .map_err(|e| stage_err("validate", &e))?;
            let canon = log
                .time("ingest.canonicalize", Some(parent), || {
                    pipeline::canonicalize(&netlist, &lib)
                })
                .map_err(|e| stage_err("canonicalize", &e))?;
            log.time("ingest.featurize_ood", Some(parent), || {
                let view = GraphSample::new(&DesignGraph::from_netlist(&canon), [1.0; 4]);
                std::hint::black_box(gate.score(&view));
            });
            if !ingested.contains_key(print) {
                let (_, design) = door
                    .ingest_doc(doc)
                    .map_err(|e| stage_err("front door", &e))?;
                ingested.insert(*print, design);
            }
        }
        Ok(ingested)
    }

    /// Reconstruct, from the public outcomes alone, the batches of
    /// unique missed designs `Server::run` pushed through the GCN.
    /// Requests of one micro-batch complete at the same simulated
    /// instant (arrival + latency), the server pops a batch in
    /// (deadline, ordinal) order, and a design missed twice in one
    /// batch rides one forward — so grouping cache-miss completions by
    /// completion time, ordering each group as the queue did, and
    /// de-duplicating by fingerprint yields exactly the server's
    /// `miss_designs`.
    fn miss_batches(
        &self,
        outcomes: &[RequestOutcome],
        ingested: &BTreeMap<u64, Arc<ServeDesign>>,
    ) -> Vec<Vec<Arc<ServeDesign>>> {
        let mut by_completion: BTreeMap<u64, Vec<(u64, u64, Arc<ServeDesign>)>> = BTreeMap::new();
        for (request, outcome) in self.requests.iter().zip(outcomes) {
            let RequestOutcome::Completed {
                latency_us,
                cache_hit: false,
                ingest,
                ..
            } = outcome
            else {
                continue;
            };
            let design = match (ingest.as_deref(), request.upload.as_ref()) {
                (Some(IngestDisposition::Rejected { .. }), _) => continue,
                (Some(IngestDisposition::Accepted { .. }), Some(upload)) => {
                    match ingested.get(&upload.fingerprint) {
                        Some(design) => Arc::clone(design),
                        None => continue,
                    }
                }
                _ => Arc::clone(&request.design),
            };
            by_completion
                .entry(request.arrival_us + latency_us)
                .or_default()
                .push((request.deadline_us, request.ordinal, design));
        }
        by_completion
            .into_values()
            .map(|mut batch| {
                batch.sort_by_key(|(deadline, ordinal, _)| (*deadline, *ordinal));
                let mut seen = std::collections::BTreeSet::new();
                batch
                    .into_iter()
                    .filter(|(_, _, d)| seen.insert(d.fingerprint))
                    .map(|(_, _, d)| d)
                    .collect()
            })
            .collect()
    }

    /// Replay the reconstructed miss batches through packing and both
    /// numeric paths — at [`WORKERS`], like the run they are compared
    /// against — then the two hot kernels on each missed design at the
    /// model's layer widths. Returns the packed node rows.
    fn replay_forwards(
        &self,
        log: &SpanLog,
        parent: usize,
        batches: &[Vec<Arc<ServeDesign>>],
    ) -> usize {
        let quantized = QuantizedSnapshot::quantize(&self.snapshot);
        let dims = self.snapshot.stage(0).config().gcn_dims.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(MODEL_SEED);
        let mut rows = 0;
        let (mut agg, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for batch in batches {
            let aig: Vec<&GraphSample> = batch.iter().map(|d| &d.aig).collect();
            let net: Vec<&GraphSample> = batch.iter().map(|d| &d.netlist).collect();
            let (aig_batch, net_batch) = log.time("gcn.pack", Some(parent), || {
                (
                    GraphBatch::pack_padded(&aig, self.config.pad_stride),
                    GraphBatch::pack_padded(&net, self.config.pad_stride),
                )
            });
            rows += aig_batch.node_rows();
            log.time("gcn.forward_float", Some(parent), || {
                std::hint::black_box(
                    self.snapshot
                        .predict_batches(&aig_batch, &net_batch, WORKERS),
                );
            });
            log.time("gcn.forward_int8", Some(parent), || {
                std::hint::black_box(quantized.predict_batches(&aig_batch, &net_batch, WORKERS));
            });
            // One pass per stage model: synthesis reads the AIG view,
            // the other three the netlist view.
            for view in aig
                .iter()
                .chain(net.iter())
                .chain(net.iter())
                .chain(net.iter())
            {
                let mut input = view.features.clone();
                for &width in &dims {
                    let weights = Matrix::xavier(input.cols(), width, &mut rng);
                    log.time("gcn.spmm", Some(parent), || {
                        view.a_norm.matmul_into(&input, &mut agg)
                    })
                    .expect("a sample's adjacency matches its own feature rows");
                    log.time("gcn.dense", Some(parent), || {
                        agg.matmul_into(&weights, &mut out);
                        input.matmul_into(&weights, &mut agg);
                    });
                    out.relu_in_place();
                    input = std::mem::replace(&mut out, Matrix::zeros(0, 0));
                }
            }
        }
        rows
    }

    /// Replay every recorded plan call through the two layers under
    /// `Workflow::plan_deployment` — catalog pricing, then the DP — and
    /// return the mean optimized-vs-over-provision saving in percent
    /// (the paper's 35.29 % figure) over the feasible ones.
    fn replay_plans(
        &self,
        log: &SpanLog,
        parent: usize,
        calls: &[PlanCall],
    ) -> Result<f64, String> {
        let mut savings = Vec::with_capacity(calls.len());
        for call in calls {
            let problem = log.time("cloud.problem_build", Some(parent), || {
                self.problem(&call.stage_secs)
            })?;
            let selection = log.time("mckp.solve", Some(parent), || {
                Solver::new().solve_min_cost(&problem, call.budget_secs)
            });
            if let Some(selection) = selection {
                savings.push(100.0 * savings_of(&problem, &selection).saving_vs_over);
            }
        }
        Ok(ratio(savings.iter().sum(), savings.len() as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_range_spans_fastest_to_slowest_selection() {
        let secs = [
            [10.2, 5.0, 7.5, 3.1],
            [1.0, 1.0, 1.0, 1.0],
            [0.0, 100.0, 50.0, -4.0],
            [2.5, 2.4, 2.6, 2.7],
        ];
        // fastest: 4 + 1 + 0 + 3; slowest: 11 + 1 + 100 + 3
        assert_eq!(budget_range(&secs), (8, 115));
    }

    #[test]
    fn outcome_digest_sees_every_decision() {
        let base = RequestOutcome::Completed {
            ordinal: 1,
            latency_us: 900,
            deadline_met: true,
            cache_hit: false,
            stage_secs: [[1.0; 4]; 4],
            plan: None,
            recipe: None,
            ingest: None,
        };
        let mut slower = base.clone();
        if let RequestOutcome::Completed { latency_us, .. } = &mut slower {
            *latency_us += 1;
        }
        let shed = RequestOutcome::Shed {
            ordinal: 1,
            queue_depth: 3,
        };
        let digests = [
            outcome_digest(std::slice::from_ref(&base)),
            outcome_digest(&[slower]),
            outcome_digest(&[shed]),
        ];
        assert_eq!(digests[0], outcome_digest(&[base]));
        assert!(digests[0] != digests[1] && digests[1] != digests[2] && digests[0] != digests[2]);
    }
}
