//! Regenerates the paper's **Figure 5**: runtime-prediction error
//! histogram plus the headline accuracy numbers (≈13% average error on
//! netlist stages, ≈5% on AIG/synthesis, i.e. ~87% accuracy).
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin fig5 --release              # 324 netlists
//! cargo run -p eda-cloud-bench --bin fig5 --release -- --smoke   # tiny corpus
//! cargo run -p eda-cloud-bench --bin fig5 --release -- --sweep   # width ablation
//! cargo run -p eda-cloud-bench --bin fig5 --release -- --workers 4
//! ```
//!
//! `--workers N` sets the corpus-generation fan-out (default: one
//! worker per core); the corpus is bit-identical for any worker count.
//! `--trace <path>` / `--chrome-trace <path>` export the corpus
//! build's span trace; `--metrics <path>` snapshots sweep-pool
//! occupancy, queue waits and the distinct-netlist count the header
//! prints.

use eda_cloud_bench::{Args, Observability};
use eda_cloud_core::dataset::{DatasetBuilder, DatasetConfig};
use eda_cloud_core::predict::StagePredictors;
use eda_cloud_core::report::{pct, render_table};
use eda_cloud_core::Workflow;
use eda_cloud_flow::StageKind;
use eda_cloud_gcn::{DatasetSplit, ModelConfig, Trainer};
use eda_cloud_trace::Metrics;

fn main() {
    let args = Args::from_env();
    let obs = Observability::from_args(&args);
    let mut workflow = obs.instrument(Workflow::with_defaults());
    // The header reads the build's distinct-netlist count from the
    // metrics, so count even when `--metrics` is not asked for.
    if !workflow.metrics().is_enabled() {
        workflow = workflow.with_metrics(Metrics::new());
    }
    let smoke = args.flag("smoke");
    let (paper_dims, sweep) = (args.flag("paper-dims"), args.flag("sweep"));
    let config = if smoke {
        DatasetConfig::smoke()
    } else {
        DatasetConfig::paper_scaled()
    }
    .with_workers(args.workers(0));
    args.reject_unknown();
    eprintln!("building corpus ...");
    let datasets = DatasetBuilder::new(&workflow)
        .build(&config)
        .expect("corpus generation");
    println!(
        "Figure 5 — runtime prediction errors ({} netlists, {} distinct, {} runtime labels)",
        config.netlist_count(),
        workflow.metrics().counter("dataset.distinct_netlists"),
        config.netlist_count() * 16
    );
    // Spans and pool metrics all come from the corpus build; export
    // here so the `--sweep` early return below still writes them.
    obs.export();

    let trainer = if smoke {
        Trainer::fast()
    } else {
        // The paper's 200-epoch Adam recipe with a mid-size model:
        // full 256/128 dims train in pure Rust too, but the bench keeps
        // wall-clock moderate; use --paper-dims for the exact sizes.
        let mut t = Trainer::fast();
        t.epochs = 200;
        t.lr = 1e-3;
        if paper_dims {
            t.config = ModelConfig::paper();
            t.lr = 1e-4;
        }
        t
    };

    if sweep {
        // Ablation: GCN depth/width vs accuracy on the routing corpus.
        println!("\nablation: architecture vs routing-stage accuracy");
        let mut rows = Vec::new();
        for (label, config) in [
            ("1 layer, 16", ModelConfig::shallow(16)),
            ("1 layer, 64", ModelConfig::shallow(64)),
            ("2 layers, 32/16", ModelConfig::fast()),
            (
                "2 layers, 64/32",
                ModelConfig {
                    gcn_dims: vec![64, 32],
                    fc_dim: 32,
                },
            ),
        ] {
            let mut t = trainer.clone();
            t.config = config;
            let split = DatasetSplit::by_design(&datasets.routing, 0.2, t.seed);
            let outcome = t.fit(&datasets.routing, &split);
            rows.push(vec![
                label.to_owned(),
                pct(outcome.report.mean_error),
                pct(outcome.report.accuracy()),
            ]);
        }
        println!(
            "{}",
            render_table(&["architecture", "mean error", "accuracy"], &rows)
        );
        return;
    }

    eprintln!("training per-stage predictors ...");
    let predictors = StagePredictors::train(&datasets, &trainer).expect("training");

    let mut rows = Vec::new();
    for kind in StageKind::ALL {
        let report = &predictors.stage(kind).report;
        rows.push(vec![
            kind.to_string(),
            format!("{}", datasets.for_stage(kind).len()),
            pct(report.mean_error),
            pct(report.accuracy()),
        ]);
    }
    println!(
        "{}",
        render_table(&["stage", "netlists", "mean error", "accuracy"], &rows)
    );

    // The histogram the paper plots (placement + routing errors).
    let mut errors: Vec<f64> = predictors.placement.report.test_errors.clone();
    errors.extend(&predictors.routing.report.test_errors);
    let combined = eda_cloud_gcn::TrainReport {
        epoch_losses: vec![],
        mean_error: errors.iter().sum::<f64>() / errors.len().max(1) as f64,
        test_errors: errors,
    };
    let (bounds, counts) = combined.error_histogram(10);
    println!("histogram of placement+routing prediction errors:");
    for (b, c) in bounds.iter().zip(&counts) {
        println!("  <= {:>5.1}% | {}", b * 100.0, "#".repeat(*c));
    }
    println!(
        "\npaper: 13% average error on netlist stages, 5% on AIGs (87% accuracy)\n\
         ours : {} average error placement+routing, {} synthesis",
        pct(combined.mean_error),
        pct(predictors.synthesis.report.mean_error)
    );
}
