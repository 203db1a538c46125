//! Perf regression gate over `BENCH_*.json` documents.
//!
//! Compares a freshly measured bench export (written by the criterion
//! stub when `BENCH_JSON` is set) against a checked-in baseline and
//! exits non-zero when any benchmark regressed beyond the tolerance.
//!
//! ```text
//! BENCH_JSON=BENCH_gcn.json cargo bench -p eda-cloud-bench --bench gcn_kernels
//! cargo run -p eda-cloud-bench --bin benchgate -- \
//!     --current crates/bench/BENCH_gcn.json \
//!     --baseline crates/bench/baselines/BENCH_gcn.json \
//!     --tolerance 25
//! ```
//!
//! The comparison uses each benchmark's **min** sample — the most
//! machine-noise-resistant statistic a wall-clock harness has — and a
//! generous default tolerance, because absolute times move with the
//! host. A benchmark present in the baseline but missing from the
//! current run fails the gate (a silently dropped bench would pass
//! vacuously); new benchmarks only in the current run are reported and
//! allowed. A baseline file that does not exist yet is not a failure —
//! the gate reports "no baseline yet" and passes, so a bench can land
//! one PR before its baseline. Malformed documents are typed errors
//! naming the offending path, never panics.

use eda_cloud_bench::Args;
use std::fmt;
use std::process::ExitCode;

/// One `{"id":...,"min_ns":...,"mean_ns":...,"max_ns":...}` record.
struct Bench {
    id: String,
    min_ns: u64,
}

/// A malformed or unreadable bench document, with the path it came
/// from.
#[derive(Debug)]
struct GateError {
    path: String,
    message: String,
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for GateError {}

/// Parse the stub's canonical export. Strict about the shape it
/// wrote — anything else is a corrupt file, not data.
fn parse(text: &str, path: &str) -> Result<Vec<Bench>, GateError> {
    let err = |message: String| GateError {
        path: path.to_owned(),
        message,
    };
    let mut out = Vec::new();
    for chunk in text.split("{\"id\":\"").skip(1) {
        let id_end = chunk
            .find('"')
            .ok_or_else(|| err("unterminated bench id".into()))?;
        let id = &chunk[..id_end];
        let field = |name: &str| -> Result<u64, GateError> {
            let key = format!("\"{name}\":");
            let at = chunk
                .find(&key)
                .ok_or_else(|| err(format!("bench `{id}` is missing {name}")))?;
            chunk[at + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .map_err(|_| err(format!("bench `{id}` has a malformed {name}")))
        };
        let min_ns = field("min_ns")?;
        out.push(Bench {
            id: id.to_owned(),
            min_ns,
        });
    }
    if out.is_empty() {
        return Err(err("no benchmarks in the document".into()));
    }
    Ok(out)
}

/// Load a bench export. `Ok(None)` means the file does not exist;
/// anything else unreadable or malformed is a [`GateError`].
fn load(path: &str) -> Result<Option<Vec<Bench>>, GateError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(GateError {
                path: path.to_owned(),
                message: format!("cannot read: {e}"),
            })
        }
    };
    parse(&text, path).map(Some)
}

fn run() -> Result<ExitCode, GateError> {
    let args = Args::from_env();
    let current_path = args
        .value("current")
        .expect("--current <BENCH_*.json> is required");
    let baseline_path = args
        .value("baseline")
        .expect("--baseline <BENCH_*.json> is required");
    let tolerance_pct: u64 = args.numeric("tolerance", 15);
    args.reject_unknown();

    let current = load(current_path)?.ok_or_else(|| GateError {
        path: current_path.to_owned(),
        message: "current bench export not found (did the bench run?)".into(),
    })?;
    let Some(baseline) = load(baseline_path)? else {
        println!("benchgate: no baseline yet at {baseline_path}, skipping");
        return Ok(ExitCode::SUCCESS);
    };

    let mut failures = 0u32;
    for base in &baseline {
        match current.iter().find(|b| b.id == base.id) {
            None => {
                println!("FAIL {:<40} missing from the current run", base.id);
                failures += 1;
            }
            Some(cur) => {
                let limit = base.min_ns.saturating_mul(100 + tolerance_pct) / 100;
                let delta =
                    100.0 * (cur.min_ns as f64 - base.min_ns as f64) / base.min_ns.max(1) as f64;
                if cur.min_ns > limit {
                    println!(
                        "FAIL {:<40} {} ns vs baseline {} ns ({delta:+.1}%, limit +{tolerance_pct}%)",
                        cur.id, cur.min_ns, base.min_ns
                    );
                    failures += 1;
                } else {
                    println!(
                        "ok   {:<40} {} ns vs baseline {} ns ({delta:+.1}%)",
                        cur.id, cur.min_ns, base.min_ns
                    );
                }
            }
        }
    }
    for cur in &current {
        if !baseline.iter().any(|b| b.id == cur.id) {
            println!("new  {:<40} {} ns (not in baseline)", cur.id, cur.min_ns);
        }
    }

    if failures > 0 {
        println!("benchgate: {failures} regression(s) beyond +{tolerance_pct}%");
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "benchgate: all {} baseline benchmarks within +{tolerance_pct}%",
        baseline.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            println!("benchgate: error: {e}");
            ExitCode::FAILURE
        }
    }
}
