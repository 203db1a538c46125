//! The benchmark's definition as data: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics, and the command.
//! `BENCHMARK.json` at the repository root is [`benchmark_json`]
//! verbatim — a unit test holds the two together, so the tables below
//! are the one place a name, unit, direction, or bound is written.

use std::fmt::Write as _;

/// A workload: its name and, in one line, why it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The unit of work `ops_per_s` counts on this workload.
    pub op: &'static str,
    /// What `quality` measures on this workload (higher is better).
    pub quality: &'static str,
    /// What it stresses, what it bypasses, and its sizes.
    pub why: &'static str,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
        }
    }
}

/// A metric: name, unit, direction, and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// How long one run measures, seconds (`--seconds` default).
pub const RUN_SECONDS: u64 = 10;

/// The command that runs one workload, relative to the repository
/// root; the driver appends `--workload .. --seed .. --seconds ..
/// --trace ..`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/e2e/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["crates/bench/e2e"];

/// The eight workloads, in the order an interleaved round runs them.
pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "char_sweep",
        op: "netlists labelled",
        quality: "netlists labelled, % of the grid",
        why: "Paper Problem 1: DatasetBuilder::build labels 16 netlists (8 families x size 6 x 2 recipes) at 1/2/4/8 vCPUs; flow engines + perf + core::sweep pool do all the work, gcn/mckp/serve none.",
    },
    WorkloadSpec {
        name: "train_fit",
        op: "training samples visited",
        quality: "held-out accuracy, 100 - mean_ape_pct (the paper's 87 % figure)",
        why: "Paper Problem 2: StagePredictors::train (Trainer::fast, 30 epochs) on the char_sweep corpus built in set-up; gcn as a writer (train_step, backprop, Adam) where serve_miss uses it as a reader.",
    },
    WorkloadSpec {
        name: "serve_miss",
        op: "requests completed",
        quality: "requests answered within their deadline, % of all requests",
        why: "Server::run, 36 Predict requests = one lap over a 36-design pool, cache 8, float paper-dims model: every request misses, so batch packing + the 256/128 forward dominate and MCKP is idle.",
    },
    WorkloadSpec {
        name: "serve_plan",
        op: "requests completed",
        quality: "mean plan saving vs over-provisioning (plan_saving_pct) over all requests, a shed, late or unplannable one counting 0",
        why: "Server::run, 288 Plan requests over the stock 18-design pool, cache >= pool, bootstrapped fast model: 94% hits, every request solves a catalog-priced MCKP; queue, LRU, planner, DP dominate.",
    },
    WorkloadSpec {
        name: "ingest_stream",
        op: "requests completed",
        quality: "requests answered within their deadline, % of all requests",
        why: "Server::run with FrontDoor, 288 uploads = 3 laps over 96 synthesized BLIF/Verilog docs (~14 KB), ingest cache 16: ~99% fresh parses, so parse/validate/canonicalize/featurize/OOD dominate.",
    },
    WorkloadSpec {
        name: "fleet_sim",
        op: "jobs completed",
        quality: "jobs finished within their deadline per USD spent (deadline_hit_rate / cost_usd_per_job)",
        why: "FleetSimulator::run over 5000 jobs (2500 planned once in set-up, tiled x2; the sim is quadratic in VMs) with seeded spot interruptions: EventHeap, Provisioner, autoscaler, retry/backoff.",
    },
    WorkloadSpec {
        name: "region_sim",
        op: "jobs processed",
        quality: "jobs served, % of submitted (the rest are fair-share refusals)",
        why: "RegionSim::run_with, 400000 jobs drawn in set-up, 3 regions x 4 tenants, 3 shards, workers pinned to 1 (workers 2 is 20-90x slower and unsteady): ShardedSim windows, cross-shard merge, FairShare.",
    },
    WorkloadSpec {
        name: "lifecycle_arc",
        op: "requests served",
        quality: "feedback joins, % of requests (the arc's accuracies swing 2-10x by seed, so they stay in the report digest)",
        why: "Workflow::lifecycle, the bin's default 320-request arc (detect, retrain, canary, promote): LifecycleController::run + gcn fine-tune on the product path; guards the engine port of ROADMAP item 1.",
    },
];

/// Regression bound on `ops_per_s`: the share of the parent's value
/// (the driver's median over its runs, each run reporting its median
/// iteration at reference host speed) by which a change may read worse
/// before it counts as a regression. The issue's ceiling was 20 %. On
/// the wall clock, ten-seed spreads on the reference host reached
/// 12-19 % in a slow hour and 35-41 % on the driver, which refuses a
/// benchmark whose own spread exceeds its bound; at reference host
/// speed they are 2-7 %, so the contract's maximum leaves a margin of
/// three. See the README's *Measured steadiness*.
pub const OPS_BOUND: f64 = 0.25;

/// Regression bound on `quality`. The figure is exact for a seed, so
/// the bound only has to clear how much it differs *between* seeds
/// (the driver compares medians over ten): 1.4 % on `serve_plan`,
/// 0.8 % on `fleet_sim`, 0.01 % on `region_sim`, none elsewhere.
pub const QUALITY_BOUND: f64 = 0.05;

/// End-to-end metrics: what a user of the system sees, reported for
/// every workload. `ops_per_s` counts the workload's own `op`,
/// `quality` its own `quality` figure; `ops_per_s` and `setup_s` are
/// host time at reference host speed (see `calib`).
pub const END_TO_END: [MetricSpec; 3] = [
    e2e("ops_per_s", "1/s", Better::Higher, OPS_BOUND),
    e2e("quality", "score", Better::Higher, QUALITY_BOUND),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics, from the traced round. A layer a workload never
/// enters reports `0`. Layer = crate name; `quality.*` are the
/// deterministic result-quality figures, `host.*`/`trace.*` the
/// diagnostics.
pub const PER_LAYER: [MetricSpec; 72] = [
    lower("netlist.generate_ms", "ms"),
    lower("netlist.to_graph_ms", "ms"),
    lower("flow.synthesis_ms", "ms"),
    lower("flow.placement_ms", "ms"),
    lower("flow.routing_ms", "ms"),
    lower("flow.sta_ms", "ms"),
    lower("flow.cells", "count"),
    lower("core.sweep.residual_ms", "ms"),
    lower("core.sweep.w2_over_w1", "ratio"),
    lower("core.plan_deployment_us_p50", "us"),
    lower("core.plan_deployment_us_p99", "us"),
    lower("mckp.solve_us_p50", "us"),
    lower("mckp.solve_us_p99", "us"),
    lower("mckp.budget_secs_mean", "s"),
    lower("cloud.problem_build_us_p50", "us"),
    lower("gcn.pack_ms", "ms"),
    lower("gcn.forward_float_ms", "ms"),
    lower("gcn.forward_int8_ms", "ms"),
    lower("gcn.spmm_ms", "ms"),
    lower("gcn.dense_ms", "ms"),
    lower("gcn.forwards", "count"),
    lower("gcn.rows_per_forward", "count"),
    lower("gcn.train_step_ms_p50", "ms"),
    lower("gcn.fit_ms.synthesis", "ms"),
    lower("gcn.fit_ms.placement", "ms"),
    lower("gcn.fit_ms.routing", "ms"),
    lower("gcn.fit_ms.sta", "ms"),
    lower("serve.plan_ms", "ms"),
    lower("serve.ingest_ms", "ms"),
    lower("serve.forward_ms", "ms"),
    lower("serve.loop_self_ms", "ms"),
    lower("serve.report_render_ms", "ms"),
    lower("serve.w2_over_w1", "ratio"),
    higher("serve.cache_hit_rate", "ratio"),
    higher("serve.mean_batch_size", "count"),
    lower("serve.batches", "count"),
    lower("serve.shed", "count"),
    lower("serve.sim_p95_latency_ms", "ms"),
    lower("ingest.parse_blif_ms", "ms"),
    lower("ingest.parse_verilog_ms", "ms"),
    lower("ingest.validate_ms", "ms"),
    lower("ingest.canonicalize_ms", "ms"),
    lower("ingest.featurize_ood_ms", "ms"),
    lower("ingest.front_door_us_p50", "us"),
    lower("ingest.front_door_us_p99", "us"),
    lower("ingest.fresh_share", "ratio"),
    higher("ingest.upload_mb_per_s", "MB/s"),
    lower("fleet.sim_ms", "ms"),
    lower("fleet.plan_ms", "ms"),
    lower("fleet.vms_launched", "count"),
    lower("fleet.interruptions", "count"),
    lower("fleet.retries", "count"),
    lower("engine.sharded_run_ms", "ms"),
    lower("engine.heap_push_pop_ns", "ns"),
    lower("engine.windows", "count"),
    lower("engine.messages_sent", "count"),
    lower("engine.s3_over_s1", "ratio"),
    lower("engine.w2_over_w1", "ratio"),
    lower("lifecycle.retrains", "count"),
    higher("lifecycle.promotions", "count"),
    lower("lifecycle.fine_tune_ms", "ms"),
    lower("lifecycle.non_train_ms", "ms"),
    lower("quality.mean_ape_pct", "%"),
    higher("quality.plan_saving_pct", "%"),
    higher("quality.deadline_hit_rate", "ratio"),
    lower("quality.cost_usd_per_job", "USD"),
    lower("host.cpu_s", "s"),
    lower("host.peak_rss_mb", "MB"),
    lower("host.iteration_ms", "ms"),
    lower("host.slowdown", "ratio"),
    lower("trace.overhead_pct", "%"),
    higher("trace.attributed_share", "ratio"),
];

/// Whether `name` is a catalogued per-layer metric.
#[must_use]
pub fn is_layer_metric(name: &str) -> bool {
    PER_LAYER.iter().any(|m| m.name == name)
}

/// The spec of workload `name`, if there is one.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn json_string_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn metric_json(m: &MetricSpec) -> String {
    let mut s = format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        m.name,
        m.unit,
        m.better.as_str()
    );
    if let Some(bound) = m.bound {
        let _ = write!(s, ", \"bound\": {bound}");
    }
    s.push('}');
    s
}

/// The exact text of `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"command\": {},", json_string_list(&COMMAND));
    let _ = writeln!(s, "  \"paths\": {},", json_string_list(&PATHS));
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let list = |s: &mut String, key: &str, rows: Vec<String>, last: bool| {
        let _ = writeln!(s, "  \"{key}\": [");
        let _ = writeln!(s, "    {}", rows.join(",\n    "));
        let _ = writeln!(s, "  ]{}", if last { "" } else { "," });
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    list(&mut s, "workloads", workloads, false);
    list(
        &mut s,
        "end_to_end",
        END_TO_END.iter().map(metric_json).collect(),
        false,
    );
    list(
        &mut s,
        "per_layer",
        PER_LAYER.iter().map(metric_json).collect(),
        true,
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&name.len())
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "metric name `{}`", m.name);
            assert!(valid_unit(m.unit), "unit `{}` of `{}`", m.unit, m.name);
            assert!(seen.insert(m.name), "`{}` is listed twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "workload name `{}`", w.name);
            assert!(seen.insert(w.name), "`{}` is listed twice", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "why of `{}`",
                w.name
            );
        }
        assert!(!valid_name("") && !valid_name("a b") && !valid_name("-x") && !valid_name("µs"));
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of `{}`", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_catalog() {
        assert_eq!(
            include_str!("../../../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `e2e --emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
