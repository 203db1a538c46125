//! Shared plumbing for the reproduction binaries (`fig2`, `fig3`,
//! `fig5`, `fig6`, `table1`) and the Criterion benches.
//!
//! Each binary regenerates one table or figure of the paper; see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for the
//! recorded paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eda_cloud_core::{CharacterizationConfig, StageRuntimes, Workflow};
use eda_cloud_netlist::{generators, Aig};
use eda_cloud_trace::{Metrics, Tracer};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Minimal flag parser for the reproduction binaries: `--flag` booleans
/// and `--key value` strings.
///
/// # Examples
///
/// ```
/// use eda_cloud_bench::Args;
///
/// let args = Args::parse(["--smoke", "--design", "aes"].iter().map(|s| s.to_string()));
/// assert!(args.flag("smoke"));
/// assert_eq!(args.value("design"), Some("aes"));
/// assert!(!args.flag("full"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    tokens: Vec<String>,
    queried: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parse from an iterator of tokens (usually `std::env::args`).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Self {
        Self { tokens: tokens.into_iter().collect(), queried: RefCell::default() }
    }

    /// Parse from the process arguments (skipping `argv[0]`).
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Whether `--name` was passed.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.tokens.contains(&self.key(name))
    }

    /// The token following `--name`, if any.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        let key = self.key(name);
        self.tokens
            .windows(2)
            .find(|w| w[0] == key)
            .map(|w| w[1].as_str())
    }

    /// `--name`, recorded as a name this binary understands.
    fn key(&self, name: &str) -> String {
        let key = format!("--{name}");
        self.queried.borrow_mut().insert(key.clone());
        key
    }

    /// Every `--token` no lookup has named so far, in command-line order.
    fn unqueried(&self) -> Vec<&str> {
        let queried = self.queried.borrow();
        let unknown = |t: &&String| t.starts_with("--") && !queried.contains(*t);
        self.tokens.iter().filter(unknown).map(String::as_str).collect()
    }

    /// Call once every flag has been looked up: exits with status 2 listing
    /// any `--token` no lookup named — a misspelled `--worker 4` must not
    /// silently run the default. A value starting with `--` counts as one.
    pub fn reject_unknown(&self) {
        let unknown = self.unqueried();
        if !unknown.is_empty() {
            usage_exit(&format!("unknown flag(s): {}", unknown.join(" ")));
        }
    }

    /// The value of `--name` parsed as a number, or `default` when the
    /// flag is absent.
    ///
    /// # Panics
    ///
    /// Panics with a clear message when the value is not a number.
    #[must_use]
    pub fn numeric<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.value(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} expects a number, got `{v}`"))
        })
    }

    /// Worker count from `--workers N`; a bare run gets `default`. `0`
    /// lets the engine pick one worker per available core — for the
    /// bins whose sweep or training pool scales with it. `1` is for the
    /// bins whose only fan-out is serve's per-stage forward, which is
    /// measured slower than serial (EXPERIMENTS.md § Second users that
    /// never arrived).
    ///
    /// # Panics
    ///
    /// Panics with a clear message when the value is not a number.
    #[must_use]
    pub fn workers(&self, default: usize) -> usize {
        self.numeric("workers", default)
    }
}

/// Print `message` to stderr and exit with status 2, the usage-error code.
fn usage_exit(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// The value of a run, or — when the run failed, most often because a
/// flag value is one the config rejects (`serve --batch 0`) — `error:
/// <error>` on stderr and exit status 2, like [`Args::reject_unknown`]:
/// a usage error, not a panic with a backtrace.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| usage_exit(&format!("error: {e}")))
}

/// Observability sinks requested on the command line:
///
/// * `--trace <path>` — canonical span trace (deterministic JSON,
///   byte-identical across runs and `--workers` counts),
/// * `--chrome-trace <path>` — the same spans on a synthetic timeline
///   in Chrome trace format (load in `chrome://tracing` or Perfetto),
/// * `--metrics <path>` — counter/gauge/histogram snapshot (stable
///   rendering; values such as queue waits are scheduling-dependent).
///
/// When none of the flags are passed, both the tracer and the metrics
/// registry stay disabled and instrumented code paths are near-no-ops.
#[derive(Debug, Clone, Default)]
pub struct Observability {
    trace_path: Option<PathBuf>,
    chrome_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    tracer: Tracer,
    metrics: Metrics,
}

impl Observability {
    /// Read the observability flags from parsed arguments.
    #[must_use]
    pub fn from_args(args: &Args) -> Self {
        let trace_path = args.value("trace").map(PathBuf::from);
        let chrome_path = args.value("chrome-trace").map(PathBuf::from);
        let metrics_path = args.value("metrics").map(PathBuf::from);
        let tracer = if trace_path.is_some() || chrome_path.is_some() {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let metrics = if metrics_path.is_some() {
            Metrics::new()
        } else {
            Metrics::disabled()
        };
        Self {
            trace_path,
            chrome_path,
            metrics_path,
            tracer,
            metrics,
        }
    }

    /// Attach the requested sinks to a workflow.
    #[must_use]
    pub fn instrument(&self, workflow: Workflow) -> Workflow {
        workflow
            .with_tracer(self.tracer.clone())
            .with_metrics(self.metrics.clone())
    }

    /// Write every requested file. Call once, after the run; spans
    /// recorded after this are lost.
    ///
    /// # Panics
    ///
    /// Panics with a clear message when a file cannot be written (the
    /// binaries treat an unwritable sink path as a usage error).
    pub fn export(&self) {
        let write = |path: &PathBuf, what: &str, contents: &str| {
            std::fs::write(path, contents)
                .unwrap_or_else(|e| panic!("cannot write {what} to {}: {e}", path.display()));
            eprintln!("{what} written to {}", path.display());
        };
        if self.trace_path.is_some() || self.chrome_path.is_some() {
            let trace = self.tracer.drain();
            if let Some(path) = &self.trace_path {
                write(path, "trace", &trace.to_json());
            }
            if let Some(path) = &self.chrome_path {
                write(path, "chrome trace", &trace.to_chrome_json());
            }
        }
        if let Some(path) = &self.metrics_path {
            write(path, "metrics", &self.metrics.to_json());
        }
    }
}

/// Resolve the design used by the single-design experiments: the
/// OpenPiton-like composite named by `--design` (default `sparc_core`,
/// or `dynamic_node` under `--smoke`).
///
/// # Panics
///
/// Panics with a clear message when the name is unknown.
#[must_use]
pub fn experiment_design(args: &Args) -> Aig {
    let name = args
        .value("design")
        .unwrap_or(if args.flag("smoke") { "dynamic_node" } else { "sparc_core" });
    generators::openpiton_design(name).unwrap_or_else(|| {
        panic!(
            "unknown design `{name}`; available: {}",
            generators::OPENPITON_NAMES.join(", ")
        )
    })
}

/// Stage runtimes for the deployment experiments (`table1`, `fig6`),
/// with the name of the design they were measured on: the paper's own
/// Table I (and no name) under `--paper-runtimes`, otherwise a
/// paper-config characterization of [`experiment_design`] at
/// `--workers`.
///
/// # Panics
///
/// Panics with a clear message when the design is unknown or its
/// characterization fails.
#[must_use]
pub fn experiment_runtimes(
    args: &Args,
    workflow: &Workflow,
) -> (Option<String>, Vec<StageRuntimes>) {
    if args.flag("paper-runtimes") {
        return (None, StageRuntimes::table1().to_vec());
    }
    let design = experiment_design(args);
    let report = workflow
        .characterize_design(
            &design,
            &CharacterizationConfig::paper().with_workers(args.workers(0)),
        )
        .expect("characterization");
    let runtimes = report
        .stages
        .iter()
        .map(|s| {
            let mut runtimes_secs = [0.0; 4];
            for (k, run) in s.runs.iter().take(4).enumerate() {
                runtimes_secs[k] = run.report.runtime_secs;
            }
            StageRuntimes {
                kind: s.kind,
                runtimes_secs,
            }
        })
        .collect();
    (Some(design.name().to_owned()), runtimes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_values() {
        let a = Args::parse(["--x", "--k", "v", "--n", "2.5", "--y"].iter().map(|s| (*s).to_owned()));
        assert!(a.flag("x"));
        assert!(a.flag("y"));
        assert!(!a.flag("k2"));
        assert_eq!(a.value("k"), Some("v"));
        assert_eq!(a.value("missing"), None);
        assert_eq!(a.numeric("n", 1.0), 2.5);
        assert_eq!(a.numeric("missing", 7u64), 7);
    }

    #[test]
    fn unknown_flags_are_the_tokens_no_lookup_named() {
        let parse = |tokens: &[&str]| Args::parse(tokens.iter().map(|s| (*s).to_owned()));
        // The misspelling CI would otherwise diff against itself.
        let a = parse(&["--seed", "7", "--worker", "4", "--json"]);
        let _ = (a.numeric("seed", 0u64), a.workers(0), a.flag("json"));
        assert_eq!(a.unqueried(), ["--worker"]);
        // A value that looks like a flag is one: `--trace` lost its path.
        let a = parse(&["--trace", "--json"]);
        assert_eq!(a.value("trace"), Some("--json"));
        assert_eq!(a.unqueried(), ["--json"]);
        assert!(a.flag("json"));
        assert!(a.unqueried().is_empty());
        // Happy path: every name asked for, present or not; values are not flags.
        let a = parse(&["--requests", "64", "--rate", "-2.5", "--json"]);
        let _ = (a.numeric("requests", 0usize), a.numeric("rate", 0.0), a.flag("json"));
        assert!(a.unqueried().is_empty());
        a.reject_unknown();
    }

    #[test]
    fn workers_flag_parses_with_auto_default() {
        let a = Args::parse(["--workers", "4"].iter().map(|s| (*s).to_owned()));
        assert_eq!((a.workers(0), a.workers(1)), (4, 4));
        assert_eq!(Args::default().workers(0), 0, "auto");
        assert_eq!(Args::default().workers(1), 1, "serial");
    }

    #[test]
    #[should_panic(expected = "--workers expects a number")]
    fn bad_workers_value_panics() {
        let a = Args::parse(["--workers".to_owned(), "lots".to_owned()]);
        let _ = a.workers(0);
    }

    #[test]
    fn or_exit_passes_values_through_and_exits_2_on_an_error() {
        assert_eq!(or_exit(Ok::<_, String>(7)), 7);
        // The error path ends the process: run this test again in a child
        // that takes it, and read its status and stderr.
        if std::env::var_os("OR_EXIT_CHILD").is_some() {
            or_exit(Err::<(), _>("`max_batch` must be positive"));
        }
        let exe = std::env::current_exe().expect("test binary path");
        let child = std::process::Command::new(exe)
            .args(["--exact", "tests::or_exit_passes_values_through_and_exits_2_on_an_error"])
            .arg("--nocapture") // else the harness swallows the child's stderr
            .env("OR_EXIT_CHILD", "1")
            .output()
            .expect("child runs");
        assert_eq!(child.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert!(stderr.contains("error: `max_batch` must be positive\n"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    #[test]
    fn default_design_is_sparc_core() {
        let a = Args::default();
        let d = experiment_design(&a);
        assert_eq!(d.name(), "sparc_core");
    }

    #[test]
    fn smoke_uses_smallest_design() {
        let a = Args::parse(["--smoke".to_owned()]);
        assert_eq!(experiment_design(&a).name(), "dynamic_node");
    }

    #[test]
    #[should_panic(expected = "unknown design")]
    fn unknown_design_panics() {
        let a = Args::parse(["--design".to_owned(), "nope".to_owned()]);
        let _ = experiment_design(&a);
    }
}
