//! Cross-crate integration: flow runtimes priced through the cloud
//! substrate's billing rules.

use eda_cloud::cloud::{Catalog, SpotMarket};
use eda_cloud::core::Workflow;
use eda_cloud::fleet::BOOT_SECS;
use eda_cloud::flow::{Recipe, StageKind, Synthesizer};
use eda_cloud::netlist::generators;

#[test]
fn flow_job_billed_end_to_end() {
    // Measure a synthesis job, then bill it on the recommended instance
    // the way the fleet bills a cold VM: boot plus runtime.
    let workflow = Workflow::with_defaults();
    let catalog = Catalog::aws_like();
    let design = generators::openpiton_design("dynamic_node").expect("design");
    let ctx = workflow.exec_context(StageKind::Synthesis, 2);
    let (_netlist, report) = Synthesizer::new()
        .with_verification(false)
        .run(&design, &Recipe::balanced(), &ctx)
        .expect("synthesis");

    let instance = catalog.instance("m5.large").expect("catalog");
    let pricing = catalog.pricing();
    let life_secs = report.runtime_secs + BOOT_SECS;

    // Billing covers boot + job at the per-second rate (min 60 s).
    let billed = pricing.billed_secs(life_secs);
    assert!(billed >= 60);
    assert_eq!(billed, (report.runtime_secs.ceil() as u64 + 30).max(60));
    let cost = pricing.cost_usd(instance, life_secs);
    assert!(cost > 0.0);
    assert!((cost - billed as f64 / 3600.0 * instance.price_per_hour).abs() < 1e-9);
}

#[test]
fn spot_pricing_tradeoff_depends_on_job_length() {
    let catalog = Catalog::aws_like();
    let instance = catalog.instance("r5.large").expect("catalog");
    let market = SpotMarket::typical();
    let pricing = catalog.pricing();
    let expected_spot =
        |secs: f64| pricing.cost_usd(instance, secs) * pricing.expected_spot_multiplier(secs, &market);
    // A one-minute job: spot is a clear win.
    assert!(expected_spot(60.0) < pricing.cost_usd(instance, 60.0));
    // Expected spot cost grows super-linearly with runtime.
    let t1 = expected_spot(3_600.0);
    let t10 = expected_spot(36_000.0);
    assert!(t10 > 10.0 * t1);
}
