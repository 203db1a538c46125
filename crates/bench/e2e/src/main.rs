//! `e2e` — the repository's end-to-end benchmark: eight workloads,
//! host-throughput metrics, per-layer attribution measured from
//! outside.
//!
//! It claims no gain; it is the ruler later claims are measured with.
//! Each workload drives one service through its **public** entry
//! points only and times one whole call (see `workloads`); per-layer
//! numbers come from a separate traced round that wraps the serve
//! ports in timing decorators and replays the same inputs through each
//! layer's public functions. Spans *inside* the crates are a later
//! issue.
//!
//! ```text
//! # one workload, the way the benchmark driver runs it (from the repo root)
//! cargo run --release --offline --manifest-path crates/bench/e2e/Cargo.toml -- \
//!     --workload serve_plan --seed 7 --seconds 10 --trace 0
//! # its per-layer metrics (writes target/e2e/trace-serve_plan.json)
//! cargo run --release --offline --manifest-path crates/bench/e2e/Cargo.toml -- \
//!     --workload serve_plan --seed 7 --seconds 10 --trace 1
//! # every workload, each run that same way in a process of its own
//! cargo run --release --offline --manifest-path crates/bench/e2e/Cargo.toml -- --seed 7
//! # two sets of such runs of the same build, judged against the bounds
//! cargo run --release --offline --manifest-path crates/bench/e2e/Cargo.toml -- --selfcheck
//! ```
//!
//! **Protocol** — there is one: a fresh process per workload and run,
//! one thread of load (every worker count is 1). Set-up (input
//! generation and service construction, nothing else) is timed three
//! to seven times and `setup_s` is the median, so work moved into
//! set-up shows. One call is then made and discarded as warm-up — its
//! report is the reference every later one must match — and the timed
//! call repeats for `--seconds`. Every sample of host time is bracketed
//! by two readings of a fixed reference kernel (`calib`) and divided by
//! the slow-down they show, so `ops_per_s` — the workload's ops over
//! the **median** iteration — and `setup_s` are reported at reference
//! host speed: this shared host runs the same code 1.5x slower in some
//! minutes than in others, and no run length evens that out (see
//! `calib` and the README). The wall-clock figures are printed beside
//! them. `quality` is the workload's deterministic result-quality
//! figure. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. Any failed output check
//! prints `"correct": false` and exits non-zero. Without `--workload`,
//! and under `--selfcheck`, the binary runs *itself* once per workload
//! and run, so every number it prints was measured the way the driver
//! measures it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calib;
mod catalog;
mod gen;
mod host;
mod spans;
mod stats;
mod timed;
mod workloads;

use calib::{HostClock, Sample};
use catalog::{Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Iteration, TraceSink, Workload};

/// Fewest set-up samples per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Most set-up samples per run.
const MAX_SETUPS: usize = 7;
/// Set-up is sampled past [`MIN_SETUPS`] only while the phase has taken
/// less than this, so cheap set-ups get a steadier median and dear ones
/// do not eat the run.
const SETUP_BUDGET_SECS: f64 = 2.5;
/// Shortest interval one set-up sample may time. A cheaper set-up is
/// repeated back to back inside the sample until it lasts this long
/// (three workloads only build a config: microseconds), so `setup_s`
/// is never read off the clock's own jitter.
const MIN_SETUP_SAMPLE_SECS: f64 = 0.02;
/// Fewest measured iterations a result may rest on.
const MIN_ITERATIONS: usize = 3;
/// Runs per workload in each of `--selfcheck`'s two sets (seeds
/// `--seed`, `--seed`+1, ...).
const SELFCHECK_RUNS: u64 = 5;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    emit_benchmark_json: bool,
}

impl Cli {
    /// Parse `--key value` pairs and bare flags; anything unknown is an
    /// error (a misspelt flag must not silently run the default).
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cli = Self {
            workload: None,
            seed: 7,
            seconds: catalog::RUN_SECONDS as f64,
            trace: false,
            selfcheck: false,
            emit_benchmark_json: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value =
                |what: &str| args.next().ok_or_else(|| format!("{flag} expects {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    let Some(spec) = catalog::workload(&name) else {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        return Err(format!(
                            "unknown workload `{name}`; one of {}",
                            known.join(", ")
                        ));
                    };
                    cli.workload = Some(spec.name);
                }
                "--seed" => cli.seed = parse_number(&flag, &value("a number")?)?,
                "--seconds" => {
                    cli.seconds = parse_number(&flag, &value("a number")?)?;
                    if !(cli.seconds > 0.0 && cli.seconds.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    cli.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                    }
                }
                "--selfcheck" => cli.selfcheck = true,
                "--emit-benchmark-json" => cli.emit_benchmark_json = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(cli)
    }
}

fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} expects a number, got `{text}`"))
}

/// One workload being measured: the live instance, the report every
/// iteration must reproduce, and the samples so far.
struct Session {
    name: &'static str,
    workload: Box<dyn Workload>,
    first: Iteration,
    clock: HostClock,
    setups: Vec<Sample>,
    iterations: Vec<Sample>,
    cpu_secs: f64,
}

impl Session {
    /// Sample `name`'s set-up — inputs from `seed`, services built —
    /// then make the warm-up call on the last instance and keep its
    /// checked result as the reference. The call is not part of
    /// `setup_s`: a set-up that contained it would follow `ops_per_s`
    /// and hide work moved between the two.
    fn open(name: &'static str, seed: u64) -> Result<Self, String> {
        // `reps` set-ups back to back; seconds per set-up.
        let sample = |reps: usize| -> Result<(Box<dyn Workload>, f64), String> {
            let start = Instant::now();
            let mut workload = workloads::setup(name, seed)?;
            for _ in 1..reps {
                workload = workloads::setup(name, seed)?;
            }
            Ok((workload, start.elapsed().as_secs_f64() / reps as f64))
        };
        let mut clock = HostClock::new();
        let phase = Instant::now();
        let (mut workload, probe) = sample(1)?;
        let reps = (MIN_SETUP_SAMPLE_SECS / probe).ceil().clamp(1.0, 1e6) as usize;
        // The probe is a full-length sample unless it was too short.
        let mut setups = Vec::new();
        if reps == 1 {
            setups.push(clock.sample(probe));
        }
        while setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && phase.elapsed().as_secs_f64() < SETUP_BUDGET_SECS)
        {
            let (next, secs) = sample(reps)?;
            workload = next;
            setups.push(clock.sample(secs));
        }
        let first = workload.iterate()?;
        clock.read();
        Ok(Self {
            name,
            workload,
            first,
            clock,
            setups,
            iterations: Vec::new(),
            cpu_secs: 0.0,
        })
    }

    /// One measured iteration; its report must match the first call's.
    fn step(&mut self) -> Result<(), String> {
        let cpu = host::cpu_seconds();
        let iteration = self.workload.iterate()?;
        self.cpu_secs += host::cpu_seconds() - cpu;
        self.iterations
            .push(self.clock.sample(iteration.wall.as_secs_f64()));
        same_report(self.name, &self.first, &iteration)
    }

    /// Ops over the median iteration, at reference host speed.
    fn ops_per_s(&self) -> f64 {
        self.first.ops as f64 / median_secs(&self.iterations)
    }

    /// The median set-up, at reference host speed.
    fn setup_s(&self) -> f64 {
        median_secs(&self.setups)
    }

    /// Value of the end-to-end metric `name`.
    fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "ops_per_s" => self.ops_per_s(),
            "quality" => self.first.quality,
            "setup_s" => self.setup_s(),
            other => unreachable!("`{other}` is not an end-to-end metric"),
        }
    }

    /// The human-readable block: every end-to-end metric by name, the
    /// sample behind it — at reference host speed and on the wall clock
    /// — and the report digest (printed, never pinned).
    fn describe(&self) -> String {
        let spec = catalog::workload(self.name).expect("sessions open catalogued workloads");
        let ops = self.first.ops as f64;
        let per_s: Vec<f64> = self.iterations.iter().map(|s| ops / s.secs()).collect();
        let wall: Vec<f64> = self.iterations.iter().map(|s| s.wall_secs).collect();
        let slowdowns: Vec<f64> = self.iterations.iter().map(|s| s.slowdown).collect();
        let (q1, q3) = stats::quartiles(&per_s);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} — {} {} per iteration",
            self.name, self.first.ops, spec.op
        );
        let _ = writeln!(
            s,
            "  ops_per_s   {:>14.3} 1/s    (median of n {} at reference host speed; q1 {q1:.3}, q3 {q3:.3}, spread {:.1}%)",
            self.ops_per_s(),
            per_s.len(),
            100.0 * stats::spread(&per_s)
        );
        let _ = writeln!(
            s,
            "    wall clock {:>13.3} 1/s    (median; fastest {:.3}, spread {:.1}%; host slow-down median {:.3}, max {:.3})",
            ops / stats::median(&wall),
            ops / wall.iter().copied().fold(f64::INFINITY, f64::min),
            100.0 * stats::spread(&wall),
            stats::median(&slowdowns),
            slowdowns.iter().copied().fold(0.0, f64::max)
        );
        let _ = writeln!(
            s,
            "  quality     {:>14.4} score  ({})",
            self.first.quality, spec.quality
        );
        let setup_wall: Vec<f64> = self.setups.iter().map(|s| s.wall_secs).collect();
        let _ = writeln!(
            s,
            "  setup_s     {:>14.3e} s      (median of n {} at reference host speed; wall clock median {:.3e}, min {:.3e}, max {:.3e})",
            self.setup_s(),
            setup_wall.len(),
            stats::median(&setup_wall),
            setup_wall.iter().copied().fold(f64::INFINITY, f64::min),
            setup_wall.iter().copied().fold(0.0, f64::max)
        );
        let _ = writeln!(
            s,
            "  ops_failed  {:>14} of {} attempted; cpu {:.2} s over {} iterations; report digest {:016x}",
            self.first.failed,
            self.first.attempted,
            self.cpu_secs,
            self.iterations.len(),
            stats::fnv1a64(self.first.report.as_bytes())
        );
        s
    }
}

/// Median of `samples`, each at reference host speed.
fn median_secs(samples: &[Sample]) -> f64 {
    let secs: Vec<f64> = samples.iter().map(Sample::secs).collect();
    stats::median(&secs)
}

/// The report of every iteration of a run must be byte-identical, and
/// so must its failure accounting and its quality figure.
fn same_report(name: &str, expected: &Iteration, got: &Iteration) -> Result<(), String> {
    if expected.report != got.report {
        return Err(format!(
            "{name}: report changed between iterations (digest {:016x} -> {:016x})",
            stats::fnv1a64(expected.report.as_bytes()),
            stats::fnv1a64(got.report.as_bytes())
        ));
    }
    if (expected.ops, expected.attempted, expected.failed) != (got.ops, got.attempted, got.failed) {
        return Err(format!(
            "{name}: operation counts changed between iterations"
        ));
    }
    if expected.quality.to_bits() != got.quality.to_bits() {
        return Err(format!("{name}: quality changed between iterations"));
    }
    Ok(())
}

/// Render the final line: `correct`, `attempted`, `failed`, and one
/// `{value, unit}` per `(name, value, unit)` metric, every digit as
/// measured.
fn result_json(
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (String, f64, &'static str)>,
) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.into_iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not a finite number"));
        }
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    Ok(s)
}

/// The number that follows `key` in a result line written by
/// [`result_json`] (`"attempted": ` or `"<metric>": {"value": `).
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `--workload NAME --trace 0`: the end-to-end metrics of one workload.
fn run_measure(name: &'static str, cli: &Cli) -> Result<String, String> {
    let mut session = Session::open(name, cli.seed)?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cli.seconds || session.iterations.len() < MIN_ITERATIONS {
        session.step()?;
    }
    print!("{}", session.describe());
    result_json(
        session.first.attempted,
        session.first.failed,
        END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), session.end_to_end(m.name), m.unit)),
    )
}

/// The traced round of one workload: an untraced iteration for the
/// base, the workload's `trace`, host diagnostics, and the span file.
fn traced_round(name: &'static str, seed: u64) -> Result<(Iteration, TraceSink), String> {
    let workload = workloads::setup(name, seed)?;
    workload.iterate()?; // warm-up, discarded
    let mut clock = HostClock::new();
    let before = clock.read();
    let cpu = host::cpu_seconds();
    let base = workload.iterate()?;
    let cpu = host::cpu_seconds() - cpu;
    let mut sink = TraceSink::default();
    workload.trace(&mut sink)?;
    // Layer times are wall-clock; this says how slow the host was.
    sink.layers
        .set("host.slowdown", 0.5 * (before + clock.read()));
    sink.layers.set("host.cpu_s", cpu);
    sink.layers
        .set("host.iteration_ms", workloads::ms(base.wall));
    sink.layers.set("host.peak_rss_mb", host::peak_rss_mb());
    let path = std::path::Path::new("target/e2e").join(format!("trace-{name}.json"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all("target/e2e")?;
        std::fs::write(&path, spans::to_json(name, 0, &sink.log.snapshot()))
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((base, sink))
}

/// The per-layer block: every non-zero layer metric, by name.
fn describe_layers(name: &str, base: &Iteration, sink: &TraceSink) -> String {
    let mut s = format!(
        "{name} — traced round (untraced iteration {:.1} ms, {} spans in target/e2e/trace-{name}.json)\n",
        workloads::ms(base.wall),
        sink.log.snapshot().len()
    );
    for spec in &PER_LAYER {
        let value = sink.layers.get(spec.name);
        if value != 0.0 {
            let _ = writeln!(s, "  {:<30} {value:>16.4} {}", spec.name, spec.unit);
        }
    }
    s
}

/// `--workload NAME --trace 1`: the per-layer metrics of one workload.
fn run_trace(name: &'static str, cli: &Cli) -> Result<String, String> {
    let (base, sink) = traced_round(name, cli.seed)?;
    print!("{}", describe_layers(name, &base, &sink));
    result_json(
        base.attempted,
        base.failed,
        PER_LAYER
            .iter()
            .map(|m| (m.name.to_owned(), sink.layers.get(m.name), m.unit)),
    )
}

/// Run this binary again the way the driver runs it — a fresh process,
/// `--workload name --seed .. --seconds .. --trace ..` — wait for it,
/// and return its result line. With `echo` the lines above the result
/// line are passed through.
fn spawn_run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (above, line) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
    if echo && !above.is_empty() {
        println!("{above}");
    }
    if !output.status.success() {
        return Err(format!("{name} (seed {seed}) failed: {}", line.trim()));
    }
    Ok(line.trim().to_owned())
}

/// The end-to-end metrics of one spawned run, in catalogue order, and
/// its `attempted`/`failed` counts.
fn spawned_metrics(
    name: &str,
    seed: u64,
    seconds: f64,
    echo: bool,
) -> Result<(Vec<f64>, u64, u64), String> {
    let line = spawn_run(name, seed, seconds, false, echo)?;
    let read = |key: &str| {
        number_after(&line, key).ok_or_else(|| format!("{name}: no `{key}` in `{line}`"))
    };
    let values = END_TO_END
        .iter()
        .map(|m| read(&format!("\"{}\": {{\"value\": ", m.name)))
        .collect::<Result<_, _>>()?;
    Ok((
        values,
        read("\"attempted\": ")? as u64,
        read("\"failed\": ")? as u64,
    ))
}

/// No `--workload`: the whole benchmark — every workload's end-to-end
/// run, then its traced round, each in a process of its own.
fn run_all(cli: &Cli) -> Result<String, String> {
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for workload in &WORKLOADS {
        let (values, a, f) = spawned_metrics(workload.name, cli.seed, cli.seconds, true)?;
        attempted += a;
        failed += f;
        for (spec, value) in END_TO_END.iter().zip(values) {
            metrics.push((format!("{}@{}", spec.name, workload.name), value, spec.unit));
        }
    }
    for workload in &WORKLOADS {
        spawn_run(workload.name, cli.seed, cli.seconds, true, true)?;
    }
    result_json(attempted, failed, metrics)
}

/// How much worse `second` is than `first`, as a share of `first`, in
/// the metric's own direction (negative = better).
fn worsening(spec: &MetricSpec, first: f64, second: f64) -> f64 {
    match spec.better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

/// `--selfcheck`: two sets of runs of the same build, judged the way
/// the benchmark driver judges its two sets. A set is
/// [`SELFCHECK_RUNS`] runs of every workload on consecutive seeds,
/// workloads interleaved so a slow minute on a shared host spreads
/// over all of them. Per end-to-end metric and workload: the second
/// set's median may not be worse than the first's by more than the
/// bound; no set's spread (IQR / median; `setup_s` exempt) may exceed
/// the bound; and `quality`, being deterministic, must repeat exactly.
fn run_selfcheck(cli: &Cli) -> Result<String, String> {
    // sets[set][workload][metric] = one value per run
    let mut sets = [(); 2].map(|()| vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]);
    for (s, set) in sets.iter_mut().enumerate() {
        for run in 0..SELFCHECK_RUNS {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let seed = cli.seed + run;
                let (values, ..) = spawned_metrics(workload.name, seed, cli.seconds, false)?;
                println!("set {} seed {seed} {:<14} {values:?}", s + 1, workload.name);
                for (m, value) in values.into_iter().enumerate() {
                    set[w][m].push(value);
                }
            }
        }
    }
    println!(
        "\n{:<14} {:<10} {:>12} {:>7} {:>12} {:>7} {:>9} {:>6}  ({} s runs, {SELFCHECK_RUNS} per set)",
        "workload", "metric", "set 1", "spread", "set 2", "spread", "worse by", "bound", cli.seconds
    );
    let mut breaches = Vec::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, spec) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][w][m], &sets[1][w][m]);
            let worse = worsening(spec, stats::median(a), stats::median(b));
            let bound = spec.bound.expect("end-to-end metrics carry a bound");
            let spread = stats::spread(a).max(stats::spread(b));
            let mut verdict = Vec::new();
            if worse > bound {
                verdict.push("set 2 worse than the bound");
            }
            if spec.name != "setup_s" && spread > bound {
                verdict.push("spread past the bound: unresolved");
            }
            if spec.name == "quality" && a != b {
                verdict.push("not deterministic");
            }
            println!(
                "{:<14} {:<10} {:>12.5} {:>6.1}% {:>12.5} {:>6.1}% {:>8.1}% {:>5.0}%  {}",
                workload.name,
                spec.name,
                stats::median(a),
                100.0 * stats::spread(a),
                stats::median(b),
                100.0 * stats::spread(b),
                100.0 * worse,
                100.0 * bound,
                verdict.join("; ")
            );
            if !verdict.is_empty() {
                breaches.push(format!("{}@{}", spec.name, workload.name));
            }
        }
    }
    if breaches.is_empty() {
        let runs = 2 * SELFCHECK_RUNS * WORKLOADS.len() as u64;
        result_json(runs, 0, [])
    } else {
        Err(format!(
            "two sets of the same build disagree on: {}",
            breaches.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("e2e: {message}");
            return ExitCode::from(2);
        }
    };
    if cli.emit_benchmark_json {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = match (cli.selfcheck, cli.workload, cli.trace) {
        (true, ..) => run_selfcheck(&cli),
        (false, Some(name), false) => run_measure(name, &cli),
        (false, Some(name), true) => run_trace(name, &cli),
        (false, None, _) => run_all(&cli),
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("e2e: output check failed: {message}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn driver_invocation_parses() {
        let parsed = cli(&[
            "--workload",
            "fleet_sim",
            "--seed",
            "11",
            "--seconds",
            "4",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(parsed.workload, Some("fleet_sim"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (11, 4.0, true));
        let defaults = cli(&[]).expect("parses");
        assert_eq!((defaults.seed, defaults.trace), (7, false));
        assert_eq!(defaults.seconds, catalog::RUN_SECONDS as f64);
    }

    #[test]
    fn bad_invocations_are_rejected_not_defaulted() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--rounds", "9"]).is_err());
        assert!(cli(&["--wrokload", "fleet_sim"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_digits() {
        let metrics = |setup: f64| {
            [
                ("ops_per_s".to_owned(), 1234.5, "1/s"),
                ("setup_s".to_owned(), setup, "s"),
            ]
        };
        let line = result_json(10, 0, metrics(0.812_700_1)).expect("finite");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.8127001, \"unit\": \"s\"}}}"
        );
        assert!(result_json(1, 0, metrics(f64::NAN)).is_err());
        // ...and reads back, the way the whole-benchmark modes read a
        // spawned run, microsecond-sized set-ups included.
        assert_eq!(number_after(&line, "\"attempted\": "), Some(10.0));
        assert_eq!(
            number_after(&line, "\"setup_s\": {\"value\": "),
            Some(0.812_700_1)
        );
        let tiny = result_json(1, 0, metrics(3.2e-7)).expect("finite");
        assert_eq!(
            number_after(&tiny, "\"setup_s\": {\"value\": "),
            Some(3.2e-7)
        );
        assert_eq!(number_after(&line, "\"quality\": {\"value\": "), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let spec = |name: &str| {
            END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect("catalogued")
        };
        let (ops, setup) = (spec("ops_per_s"), spec("setup_s"));
        assert!((worsening(ops, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(ops, 100.0, 110.0) < 0.0);
        assert!((worsening(setup, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!(worsening(setup, 2.0, 1.0) < 0.0);
    }

    #[test]
    fn reports_must_repeat_exactly() {
        let iteration = |report: &str, failed, quality| Iteration {
            wall: std::time::Duration::from_millis(5),
            ops: 4,
            attempted: 4,
            failed,
            quality,
            report: report.to_owned(),
        };
        let base = iteration("a", 0, 52.7);
        assert!(same_report("w", &base, &iteration("a", 0, 52.7)).is_ok());
        assert!(same_report("w", &base, &iteration("b", 0, 52.7)).is_err());
        assert!(same_report("w", &base, &iteration("a", 1, 52.7)).is_err());
        assert!(same_report("w", &base, &iteration("a", 0, 52.8)).is_err());
    }
}
