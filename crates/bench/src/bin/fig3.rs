//! Regenerates the paper's **Figure 3**: routing speedup across designs
//! of increasing size (`dynamic_node` smallest … `sparc_core` largest).
//! Small designs plateau at 4-8 vCPUs; large designs keep scaling.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin fig3 --release
//! cargo run -p eda-cloud-bench --bin fig3 --release -- --smoke      # 3 designs
//! cargo run -p eda-cloud-bench --bin fig3 --release -- --measured   # also wall-clock
//! ```
//!
//! The netlist and placement do not depend on the machine, so each
//! design is synthesized and placed once and routed at every vCPU
//! count. `--measured` adds the host wall-clock speed-up of
//! `Router::run` from 1 to 8 vCPUs.

use eda_cloud_bench::Args;
use eda_cloud_core::report::render_table;
use eda_cloud_core::Workflow;
use eda_cloud_flow::{Placer, Recipe, Router, StageKind, Synthesizer};
use eda_cloud_netlist::generators;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let names: Vec<&str> = if args.flag("smoke") {
        vec!["dynamic_node", "aes", "fpu"]
    } else {
        generators::OPENPITON_NAMES.to_vec()
    };
    let measured = args.flag("measured");
    args.reject_unknown();
    let vcpu_sweep = [1u32, 2, 4, 8];
    let workflow = Workflow::with_defaults();

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
        let mut runtimes = Vec::new();
        let mut walls = Vec::new();
        for &vcpus in &vcpu_sweep {
            let route_ctx = workflow.exec_context(StageKind::Routing, vcpus);
            let start = Instant::now();
            let (_, report) = Router::new()
                .run(&netlist, &placement, &route_ctx)
                .expect("routing");
            walls.push(start.elapsed().as_secs_f64());
            runtimes.push(report.runtime_secs);
        }
        let base = runtimes[0];
        let mut row = vec![name.to_owned(), format!("{}", netlist.cell_count())];
        for t in &runtimes {
            row.push(format!("{:.2}x", base / t));
        }
        if measured {
            let wall_base = walls[0].max(1e-9);
            row.push(format!("{:.2}x", wall_base / walls[3].max(1e-9)));
        }
        rows.push(row);
    }
    let mut headers = vec!["design", "#cells", "1 vCPU", "2 vCPUs", "4 vCPUs", "8 vCPUs"];
    if measured {
        headers.push("wall@8 (measured)");
    }
    println!("{}", render_table(&headers, &rows));
    println!(
        "Expected shape: speedup grows monotonically with design size; the\n\
         smallest designs show nearly equal speedups at 4 and 8 vCPUs\n\
         (the paper's plateau), the largest keep scaling to 8 vCPUs."
    );
}
