//! Design-space exploration with horizontal scaling — the motivation in
//! the paper's introduction: "horizontal scaling by launching more
//! compute servers allows EDA teams to complete a highly-parallelizable
//! compute job in less time".
//!
//! This example sweeps synthesis recipes for one design across a fleet
//! of simulated VMs, compares wall-clock and cost for fleet sizes 1-8,
//! and prices the same fleet on the spot market.
//!
//! ```text
//! cargo run --example design_space_exploration --release
//! ```

use eda_cloud::cloud::{Catalog, SpotMarket};
use eda_cloud::core::report::render_table;
use eda_cloud::fleet::BOOT_SECS;
use eda_cloud::flow::{ExecContext, Recipe, StageKind, Synthesizer};
use eda_cloud::netlist::generators;
use eda_cloud::tech::Library;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let design = generators::openpiton_design("fpu").expect("built-in design");
    let recipes = Recipe::standard_suite();
    println!(
        "exploring {} synthesis recipes for `{}`",
        recipes.len(),
        design.name()
    );

    // Run every recipe once (simulated runtime on a 2-vCPU machine) and
    // record quality of results.
    let catalog = Catalog::aws_like();
    let instance = catalog.instance("m5.large")?;
    let workflow = eda_cloud::core::Workflow::with_defaults();
    let ctx: ExecContext = workflow.exec_context(StageKind::Synthesis, instance.vcpus);
    let synthesizer = Synthesizer::new().with_verification(false);
    let lib = Library::synthetic_14nm();

    let mut results = Vec::new();
    for recipe in &recipes {
        let (netlist, report) = synthesizer.run(&design, recipe, &ctx)?;
        let stats = netlist.stats(&lib);
        results.push((recipe.name().to_owned(), report.runtime_secs, stats));
    }
    results.sort_by(|a, b| a.2.area_um2.total_cmp(&b.2.area_um2));
    let best = &results[0];
    println!(
        "\nbest recipe by area: `{}` ({:.1} µm², depth {})\n",
        best.0, best.2.area_um2, best.2.depth
    );

    // Horizontal scaling: a fleet of identical VMs each takes a slice of
    // the recipe sweep; wall-clock is the slowest slice, cost is the sum
    // of per-second-billed VMs (boot time included).
    let total_job_secs: f64 = results.iter().map(|r| r.1).sum();
    let pricing = catalog.pricing();
    let mut rows = Vec::new();
    for fleet in [1usize, 2, 4, 8] {
        // Round-robin the recipes over the fleet.
        let mut slices = vec![0.0f64; fleet];
        for (i, r) in results.iter().enumerate() {
            slices[i % fleet] += r.1;
        }
        let mut cost = 0.0;
        let mut wall: f64 = 0.0;
        for &slice in &slices {
            cost += pricing.cost_usd(instance, slice + BOOT_SECS);
            wall = wall.max(slice + BOOT_SECS);
        }
        let per_vm = total_job_secs / fleet as f64;
        let spot = pricing.cost_usd(instance, per_vm)
            * pricing.expected_spot_multiplier(per_vm, &SpotMarket::typical())
            * fleet as f64;
        rows.push(vec![
            format!("{fleet}"),
            format!("{wall:.0}"),
            format!("{cost:.4}"),
            format!("{spot:.4}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["fleet size", "wall-clock (s)", "on-demand ($)", "expected spot ($)"],
            &rows
        )
    );
    println!(
        "horizontal scaling cuts wall-clock nearly linearly at almost\n\
         constant on-demand cost; spot pricing cuts cost a further ~70%\n\
         for these short independent jobs."
    );
    Ok(())
}
