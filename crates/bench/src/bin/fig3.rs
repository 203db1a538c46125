//! Regenerates the paper's **Figure 3**: routing speedup across designs
//! of increasing size (`dynamic_node` smallest … `sparc_core` largest).
//! Small designs plateau at 4-8 vCPUs; large designs keep scaling.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin fig3 --release
//! cargo run -p eda-cloud-bench --bin fig3 --release -- --smoke   # 3 designs
//! ```
//!
//! Neither the netlist, the placement nor the layout depends on the
//! machine, so each design is synthesized, placed and routed once:
//! `Router::run_sweep` prices that one layout at every vCPU count.

use eda_cloud_bench::Args;
use eda_cloud_core::report::render_table;
use eda_cloud_core::Workflow;
use eda_cloud_flow::{Placer, Recipe, Router, StageKind, Synthesizer};
use eda_cloud_netlist::generators;

fn main() {
    let args = Args::from_env();
    let names: Vec<&str> = if args.flag("smoke") {
        vec!["dynamic_node", "aes", "fpu"]
    } else {
        generators::OPENPITON_NAMES.to_vec()
    };
    args.reject_unknown();
    let workflow = Workflow::with_defaults();
    let route_ctxs = [1u32, 2, 4, 8].map(|vcpus| workflow.exec_context(StageKind::Routing, vcpus));

    println!("Figure 3 — routing speedup for designs of increasing size");
    let mut rows = Vec::new();
    for name in names {
        let design = generators::openpiton_design(name).expect("known design");
        let (netlist, _) = Synthesizer::new()
            .with_verification(false)
            .run(&design, &Recipe::balanced(), &workflow.exec_context(StageKind::Synthesis, 1))
            .expect("synthesis");
        let place_ctx = workflow.exec_context(StageKind::Placement, 1);
        let (placement, _) = Placer::new().run(&netlist, &place_ctx).expect("placement");
        let routed = Router::new()
            .run_sweep(&netlist, &placement, &route_ctxs)
            .expect("routing");
        let base = routed[0].1.runtime_secs;
        let mut row = vec![name.to_owned(), format!("{}", netlist.cell_count())];
        for (_, report) in &routed {
            row.push(format!("{:.2}x", base / report.runtime_secs));
        }
        rows.push(row);
    }
    let headers = ["design", "#cells", "1 vCPU", "2 vCPUs", "4 vCPUs", "8 vCPUs"];
    println!("{}", render_table(&headers, &rows));
    println!(
        "Expected shape: speedup grows monotonically with design size; the\n\
         smallest designs show nearly equal speedups at 4 and 8 vCPUs\n\
         (the paper's plateau), the largest keep scaling to 8 vCPUs."
    );
}
