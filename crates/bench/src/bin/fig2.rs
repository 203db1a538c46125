//! Regenerates the paper's **Figure 2**: performance characterization of
//! the four EDA jobs — (a) branch misses, (b) cache misses, (c) AVX
//! floating-point share, (d) runtime speedup vs #vCPUs.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin fig2 --release            # sparc_core
//! cargo run -p eda-cloud-bench --bin fig2 --release -- --smoke # small design
//! cargo run -p eda-cloud-bench --bin fig2 --release -- --design aes
//! ```

use eda_cloud_bench::{experiment_design, Args};
use eda_cloud_core::report::{bar_chart, pct, render_table, secs};
use eda_cloud_core::{CharacterizationConfig, Workflow};

fn main() {
    let args = Args::from_env();
    let design = experiment_design(&args);
    args.reject_unknown();
    println!("Figure 2 — characterization of `{}` ({})", design.name(), design);

    let workflow = Workflow::with_defaults();
    let report = workflow
        .characterize_design(&design, &CharacterizationConfig::paper())
        .expect("characterization must run on a generated design");
    println!("netlist: {} cells\n", report.cells);

    // (a) Branch misses at 1 and 8 vCPUs.
    let at = |stage: &eda_cloud_core::StageCharacterization, vcpus: u32| {
        stage
            .at_vcpus(vcpus)
            .expect("swept vcpu count")
            .report
            .clone()
    };
    let mut rows = Vec::new();
    for stage in &report.stages {
        let (r1, r8) = (at(stage, 1), at(stage, 8));
        rows.push(vec![
            stage.kind.to_string(),
            pct(r1.counters.branch_miss_rate()),
            pct(r8.counters.branch_miss_rate()),
        ]);
    }
    println!("(a) branch misses");
    println!("{}", render_table(&["task", "1 vCPU", "8 vCPUs"], &rows));

    // (b) Cache misses (perf-style: LLC misses / LLC references).
    let mut rows = Vec::new();
    for stage in &report.stages {
        let (r1, r8) = (at(stage, 1), at(stage, 8));
        rows.push(vec![
            stage.kind.to_string(),
            pct(r1.counters.perf_cache_miss_rate()),
            pct(r8.counters.perf_cache_miss_rate()),
        ]);
    }
    println!("(b) cache misses");
    println!("{}", render_table(&["task", "1 vCPU", "8 vCPUs"], &rows));

    // (c) AVX share of floating-point work.
    let entries: Vec<(String, f64)> = report
        .stages
        .iter()
        .map(|s| {
            let r = at(s, 1);
            (s.kind.to_string(), 100.0 * r.counters.avx_share()
                * r.counters.fp_instruction_share())
        })
        .collect();
    println!("(c) AVX floating-point share of instructions (%)");
    println!("{}", bar_chart("", &entries, 40));

    // (d) Runtimes and speedups across the sweep.
    let mut rows = Vec::new();
    for stage in &report.stages {
        let speedups = stage.speedups();
        let mut row = vec![stage.kind.to_string(), stage.family.clone()];
        for run in &stage.runs {
            row.push(secs(run.report.runtime_secs));
        }
        row.push(format!("{:.2}x", speedups.last().copied().unwrap_or(1.0)));
        row.push(format!(
            "{:.2}",
            stage.runs.last().map_or(0.0, |r| r.report.parallel_fraction)
        ));
        rows.push(row);
    }
    println!("(d) runtime vs #vCPUs");
    println!(
        "{}",
        render_table(
            &["task", "family", "1 vCPU", "2 vCPUs", "4 vCPUs", "8 vCPUs", "speedup@8", "p"],
            &rows
        )
    );
}
