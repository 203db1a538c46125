//! Cross-crate integration: flow runtimes priced through the cloud
//! substrate (provisioning, billing).

use eda_cloud::cloud::{Catalog, Provisioner, SpotMarket, VmState};
use eda_cloud::core::Workflow;
use eda_cloud::flow::{Recipe, StageKind, Synthesizer};
use eda_cloud::netlist::generators;

#[test]
fn flow_job_billed_end_to_end() {
    // Measure a synthesis job, then actually run it through the
    // provisioner on the recommended instance.
    let workflow = Workflow::with_defaults();
    let catalog = Catalog::aws_like();
    let design = generators::openpiton_design("dynamic_node").expect("design");
    let ctx = workflow.exec_context(StageKind::Synthesis, 2);
    let (_netlist, report) = Synthesizer::new()
        .with_verification(false)
        .run(&design, &Recipe::balanced(), &ctx)
        .expect("synthesis");

    let instance = catalog.instance("m5.large").expect("catalog").clone();
    let mut cloud = Provisioner::new(*catalog.pricing());
    let vm = cloud.launch(instance.clone());
    let record = cloud.run_job(vm, report.runtime_secs).expect("job runs");

    // Billing covers boot + job at the per-second rate (min 60 s).
    assert!(record.billed_secs >= 60);
    assert!(record.cost_usd > 0.0);
    let direct = catalog.pricing().cost_usd(&instance, report.runtime_secs + 30.0);
    assert!((record.cost_usd - direct).abs() < 1e-9);
    assert_eq!(cloud.vms()[0].state, VmState::Terminated);
}

#[test]
fn spot_pricing_tradeoff_depends_on_job_length() {
    let catalog = Catalog::aws_like();
    let instance = catalog.instance("r5.large").expect("catalog");
    let market = SpotMarket::typical();
    // A one-minute job: spot is a clear win.
    let short = catalog
        .pricing()
        .expected_spot_cost_usd(instance, 60.0, &market);
    assert!(short < catalog.pricing().cost_usd(instance, 60.0));
    // Expected spot cost grows super-linearly with runtime.
    let t1 = catalog.pricing().expected_spot_cost_usd(instance, 3_600.0, &market);
    let t10 = catalog
        .pricing()
        .expected_spot_cost_usd(instance, 36_000.0, &market);
    assert!(t10 > 10.0 * t1);
}
