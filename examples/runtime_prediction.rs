//! Runtime prediction: train the per-stage GCNs on a generated corpus
//! and predict the runtime of an *unseen* design — the paper's Problem 2
//! as a downstream user would exercise it.
//!
//! ```text
//! cargo run --example runtime_prediction --release
//! ```

use eda_cloud::core::dataset::{DatasetBuilder, DatasetConfig};
use eda_cloud::core::predict::StagePredictors;
use eda_cloud::core::{CharacterizationConfig, Workflow};
use eda_cloud::flow::{ExecContext, Recipe, StageKind, Synthesizer};
use eda_cloud::gcn::{GraphSample, Trainer};
use eda_cloud::netlist::{generators, DesignGraph};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let workflow = Workflow::with_defaults();

    // 1. Corpus: a handful of design families under several synthesis
    //    recipes (a slice of the paper's 330-netlist dataset).
    let mut config = DatasetConfig::smoke();
    config.families = vec![
        "adder".into(),
        "multiplier".into(),
        "parity".into(),
        "alu".into(),
        "max".into(),
        "gray2bin".into(),
    ];
    config.sizes = vec![4, 8];
    config.recipes = 4;
    eprintln!("building a {}-netlist corpus ...", config.netlist_count());
    let datasets = DatasetBuilder::new(&workflow).build(&config)?;

    // 2. Train one GCN per stage (fast recipe for the example).
    eprintln!("training per-stage predictors ...");
    let predictors = StagePredictors::train(&datasets, &Trainer::fast())?;
    for kind in StageKind::ALL {
        let r = &predictors.stage(kind).report;
        println!(
            "{:<9} test error {:.1}%  (accuracy {:.1}%)",
            kind.to_string(),
            100.0 * r.mean_error,
            100.0 * r.accuracy()
        );
    }

    // 3. Predict a design the corpus has never seen: a comparator.
    let unseen = generators::comparator(12);
    let (netlist, _) = Synthesizer::new()
        .with_verification(false)
        .run(&unseen, &Recipe::balanced(), &ExecContext::with_vcpus(1))?;
    let aig_sample = GraphSample::new(&DesignGraph::from_aig(&unseen), [1.0; 4]);
    let nl_sample = GraphSample::new(&DesignGraph::from_netlist(&netlist), [1.0; 4]);
    let predicted = predictors.predict_design(&aig_sample, &nl_sample);

    println!("\npredicted runtimes for unseen `{}`:", unseen.name());
    for sr in &predicted {
        println!(
            "  {:<9} {:>8.3}s @1v  {:>8.3}s @2v  {:>8.3}s @4v  {:>8.3}s @8v",
            sr.kind.to_string(),
            sr.runtimes_secs[0],
            sr.runtimes_secs[1],
            sr.runtimes_secs[2],
            sr.runtimes_secs[3]
        );
    }

    // 4. Compare against ground truth, labelled the way the corpus was:
    //    each stage on its recommended instance family at the workflow's
    //    per-stage work scale.
    let truth = workflow.characterize_design(
        &unseen,
        &CharacterizationConfig { verify: false, ..CharacterizationConfig::paper() },
    )?;
    println!("\nmeasured vs predicted @1v:");
    for sr in &predicted {
        let measured = truth.stage(sr.kind).and_then(|s| s.at_vcpus(1)).ok_or("1-vCPU run")?;
        println!(
            "  {:<9} measured {:>8.3}s  predicted {:>8.3}s",
            sr.kind.to_string(),
            measured.report.runtime_secs,
            sr.runtimes_secs[0],
        );
    }
    Ok(())
}
