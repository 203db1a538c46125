//! Fault plans: what goes wrong, where, and when.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s keyed entirely on
//! canonical identity — job ids, stage indices, attempt numbers,
//! request ordinals — never on wall-clock time or thread schedule, so
//! the same plan replays byte-identically at any worker count. Plans
//! are generated from a seed, rendered to a canonical JSON document
//! (fixed key order, one event per line, integers only), and parsed
//! back strictly: the parser accepts exactly what the renderer emits,
//! so a shrunk reproducer artifact round-trips losslessly.

use crate::harness::{ENGINE_REGIONS, FLEET_JOBS, LIFECYCLE_REQUESTS, SERVE_REQUESTS};
use crate::SimtestError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Fractions are carried as integer parts-per-million so the plan
/// document never contains a float.
pub const PPM: u64 = 1_000_000;

/// One scheduled fault. Every variant targets canonical identity in
/// one of the three driven loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Fleet: forcibly reclaim the VM of any stage of jobs
    /// `job_lo..=job_hi` while the stage's attempt counter is below
    /// `attempts`, at `fraction_ppm` of the stage runtime.
    SpotStorm {
        /// First job id hit by the storm.
        job_lo: u64,
        /// Last job id hit by the storm (inclusive).
        job_hi: u64,
        /// Attempts interrupted per stage before the storm passes.
        attempts: u32,
        /// Reclaim point as parts-per-million of the stage runtime.
        fraction_ppm: u64,
    },
    /// Fleet: inflate one stage's duration to `pct` percent (a slow or
    /// stalling VM).
    VmStall {
        /// Job whose stage stalls.
        job_id: u64,
        /// Stage index within the job.
        stage: usize,
        /// Inflated duration, percent of nominal (`>= 100`).
        pct: u64,
    },
    /// Serve: shed every request with ordinal in `ord_lo..=ord_hi` at
    /// admission (an overload burst).
    OverloadBurst {
        /// First shed ordinal.
        ord_lo: u64,
        /// Last shed ordinal (inclusive).
        ord_hi: u64,
    },
    /// Serve: wipe the result cache when this ordinal arrives.
    CacheWipe {
        /// Arrival ordinal triggering the wipe.
        ordinal: u64,
    },
    /// Lifecycle: delay one request's ground-truth feedback join by an
    /// extra `extra_us` (a straggling flow job).
    FeedbackDelay {
        /// Request ordinal whose join straggles.
        ordinal: u64,
        /// Extra delay on top of the configured feedback delay, µs.
        extra_us: u64,
    },
    /// Lifecycle: drop one request's feedback join entirely.
    FeedbackDrop {
        /// Request ordinal whose join is lost.
        ordinal: u64,
    },
    /// Flip one byte of the serialized model snapshot; the snapshot's
    /// checksum footer must reject the document with a typed error.
    SnapshotCorruption {
        /// Byte to flip, reduced modulo the document length at
        /// injection time.
        byte_index: u64,
    },
    /// Lifecycle: add `spike_us` to the observed latency of canary-arm
    /// requests with ordinals in `ord_lo..=ord_hi` (degraded service
    /// inside the canary window).
    CanaryLatencySpike {
        /// First spiked ordinal.
        ord_lo: u64,
        /// Last spiked ordinal (inclusive).
        ord_hi: u64,
        /// Added latency, µs.
        spike_us: u64,
    },
    /// Engine: delay cross-shard messages from region `src` to region
    /// `dst` with source sequence numbers in `seq_lo..=seq_hi` by an
    /// extra `extra_us` (a congested inter-region link).
    CrossShardDelay {
        /// Source region of the delayed messages.
        src: u32,
        /// Destination region of the delayed messages.
        dst: u32,
        /// First delayed source sequence number.
        seq_lo: u64,
        /// Last delayed source sequence number (inclusive).
        seq_hi: u64,
        /// Extra delivery delay, µs.
        extra_us: u64,
    },
    /// Recipe search: stretch the simulated cost of the evaluations
    /// selected at iterations `iter_lo..=iter_hi` by an extra
    /// `extra_us` each (a slow synthesis worker). Faults only stretch
    /// time accounting — the search tree, visit counts, and chosen
    /// recipe are unchanged.
    RecipeEvalStall {
        /// First stalled iteration.
        iter_lo: u64,
        /// Last stalled iteration (inclusive).
        iter_hi: u64,
        /// Extra simulated evaluation time per stalled iteration, µs.
        extra_us: u64,
    },
    /// Ingest: tear the upload of the request with this arrival
    /// ordinal mid-transfer (the front door must quarantine the torn
    /// document with a typed parse error, never panic).
    IngestCorruptUpload {
        /// Arrival ordinal whose upload is torn.
        ordinal: u64,
    },
    /// Ingest: reject every upload with ordinal in `ord_lo..=ord_hi`
    /// before the ingestor runs (flood control); the rejection must
    /// not poison the ingest cache for later identical uploads.
    IngestFlood {
        /// First flooded ordinal.
        ord_lo: u64,
        /// Last flooded ordinal (inclusive).
        ord_hi: u64,
    },
    /// Engine: partition the `src → dst` link — messages sent in
    /// `from_us..heal_us` are held at the destination until the
    /// partition heals at `heal_us`.
    RegionPartition {
        /// Source region of the partitioned link.
        src: u32,
        /// Destination region of the partitioned link.
        dst: u32,
        /// Partition start on the simulated clock, µs (inclusive).
        from_us: u64,
        /// Heal time on the simulated clock, µs (exclusive for sends,
        /// the earliest delivery time for held messages).
        heal_us: u64,
    },
}

/// The wire schema, written once: each row names a variant, its
/// canonical kind string, and its fields in canonical order with their
/// Rust types. [`FaultEvent::kind`], the rendered JSON line, the
/// parser's field-list diagnostics and its integer range checks are all
/// generated from these rows, so a new fault kind is one variant plus
/// one row here.
macro_rules! schema {
    ($($variant:ident $kind:literal { $($field:ident: $ty:ident),+ })+) => {
        impl FaultEvent {
            /// The event's canonical kind string, as it appears in the JSON.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $(FaultEvent::$variant { .. } => $kind,)+
                }
            }

            /// The event's `(field name, value)` pairs in canonical order
            /// (`as u64` only widens: every field is `u32`, `usize` or `u64`).
            fn fields(&self) -> Vec<(&'static str, u64)> {
                match *self {
                    $(FaultEvent::$variant { $($field),+ } => {
                        vec![$((stringify!($field), $field as u64)),+]
                    })+
                }
            }

            /// Build the event of `kind` from its parsed fields: exactly
            /// the schema's names in the schema's order, each value in
            /// range for its field's type.
            fn from_fields(kind: &str, fields: &[(&str, u64)]) -> Result<Self, SimtestError> {
                let bad = |message: String| SimtestError::Plan { message };
                let got: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
                match kind {
                    $($kind => {
                        let names = [$(stringify!($field)),+];
                        if got != names {
                            return Err(bad(format!(
                                "kind `{kind}` expects fields {names:?}, found {got:?}"
                            )));
                        }
                        let mut values = fields.iter().map(|(_, v)| *v);
                        Ok(FaultEvent::$variant {
                            $($field: {
                                let v = values.next().expect("one value per checked name");
                                $ty::try_from(v).map_err(|_| {
                                    let (field, ty) = (stringify!($field), stringify!($ty));
                                    bad(format!("{field} {v} overflows {ty}"))
                                })?
                            }),+
                        })
                    })+
                    other => Err(bad(format!("unknown fault kind `{other}`"))),
                }
            }
        }
    };
}

schema! {
    SpotStorm "spot_storm" { job_lo: u64, job_hi: u64, attempts: u32, fraction_ppm: u64 }
    VmStall "vm_stall" { job_id: u64, stage: usize, pct: u64 }
    OverloadBurst "overload_burst" { ord_lo: u64, ord_hi: u64 }
    CacheWipe "cache_wipe" { ordinal: u64 }
    FeedbackDelay "feedback_delay" { ordinal: u64, extra_us: u64 }
    FeedbackDrop "feedback_drop" { ordinal: u64 }
    SnapshotCorruption "snapshot_corruption" { byte_index: u64 }
    CanaryLatencySpike "canary_latency_spike" { ord_lo: u64, ord_hi: u64, spike_us: u64 }
    CrossShardDelay "cross_shard_delay" { src: u32, dst: u32, seq_lo: u64, seq_hi: u64, extra_us: u64 }
    RecipeEvalStall "recipe_eval_stall" { iter_lo: u64, iter_hi: u64, extra_us: u64 }
    IngestCorruptUpload "ingest_corrupt_upload" { ordinal: u64 }
    IngestFlood "ingest_flood" { ord_lo: u64, ord_hi: u64 }
    RegionPartition "region_partition" { src: u32, dst: u32, from_us: u64, heal_us: u64 }
}

impl FaultEvent {
    /// Render the event as one canonical single-line JSON object.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut line = format!("{{\"kind\":\"{}\"", self.kind());
        for (name, value) in self.fields() {
            line.push_str(&format!(",\"{name}\":{value}"));
        }
        line.push('}');
        line
    }
}

/// A seeded schedule of faults, replayable across runs and worker
/// counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-written plans).
    pub seed: u64,
    /// The scheduled faults, in generation order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generate `faults` events from `seed`, targeted at the harness's
    /// workload shapes so most events actually land. Generation
    /// consumes one ChaCha8 stream in event order — same seed, same
    /// plan, bytes and all.
    #[must_use]
    pub fn generate(seed: u64, faults: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17_1227_5EED_0001);
        let (jobs, serve_ords) = (FLEET_JOBS as u64, SERVE_REQUESTS as u64);
        let (life_ords, regions) = (LIFECYCLE_REQUESTS as u64, ENGINE_REGIONS as u32);
        let events = (0..faults)
            .map(|_| match rng.gen_range(0u32..10) {
                0 => {
                    let job_lo = rng.gen_range(0..jobs);
                    FaultEvent::SpotStorm {
                        job_lo,
                        job_hi: (job_lo + rng.gen_range(0u64..3)).min(jobs - 1),
                        attempts: rng.gen_range(1u32..=8),
                        fraction_ppm: rng.gen_range(50_000u64..950_000),
                    }
                }
                1 => FaultEvent::VmStall {
                    job_id: rng.gen_range(0..jobs),
                    stage: rng.gen_range(0usize..4),
                    pct: rng.gen_range(110u64..400),
                },
                2 => {
                    let ord_lo = rng.gen_range(0..serve_ords);
                    FaultEvent::OverloadBurst {
                        ord_lo,
                        ord_hi: (ord_lo + rng.gen_range(0u64..6)).min(serve_ords - 1),
                    }
                }
                3 => FaultEvent::CacheWipe { ordinal: rng.gen_range(0..serve_ords) },
                4 => FaultEvent::FeedbackDelay {
                    ordinal: rng.gen_range(0..life_ords),
                    extra_us: rng.gen_range(100_000u64..5_000_000),
                },
                5 => FaultEvent::FeedbackDrop { ordinal: rng.gen_range(0..life_ords) },
                6 => FaultEvent::SnapshotCorruption { byte_index: rng.gen_range(0u64..65_536) },
                7 => {
                    let ord_lo = rng.gen_range(0..life_ords);
                    FaultEvent::CanaryLatencySpike {
                        ord_lo,
                        ord_hi: (ord_lo + rng.gen_range(0u64..32)).min(life_ords - 1),
                        spike_us: rng.gen_range(100_000u64..20_000_000),
                    }
                }
                8 => {
                    let src = rng.gen_range(0..regions);
                    let dst = (src + rng.gen_range(1..regions)) % regions;
                    let seq_lo = rng.gen_range(0u64..16);
                    FaultEvent::CrossShardDelay {
                        src,
                        dst,
                        seq_lo,
                        seq_hi: seq_lo + rng.gen_range(0u64..8),
                        extra_us: rng.gen_range(10_000u64..500_000),
                    }
                }
                _ => {
                    let src = rng.gen_range(0..regions);
                    let dst = (src + rng.gen_range(1..regions)) % regions;
                    let from_us = rng.gen_range(0u64..2_000_000);
                    FaultEvent::RegionPartition {
                        src,
                        dst,
                        from_us,
                        heal_us: from_us + rng.gen_range(100_000u64..2_000_000),
                    }
                }
            })
            .collect();
        Self { seed, events }
    }

    /// Reject plans whose parameters the injectors cannot honor.
    ///
    /// # Errors
    ///
    /// Returns [`SimtestError::Plan`] for an out-of-range fraction,
    /// stage index, stall percent, or an inverted range.
    pub fn validate(&self) -> Result<(), SimtestError> {
        for (i, event) in self.events.iter().enumerate() {
            let problem = match *event {
                FaultEvent::SpotStorm { job_lo, job_hi, attempts, fraction_ppm } => {
                    if fraction_ppm > PPM {
                        Some(format!("fraction_ppm {fraction_ppm} exceeds {PPM}"))
                    } else if attempts == 0 {
                        Some("attempts must be positive".into())
                    } else if job_lo > job_hi {
                        Some(format!("job range {job_lo}..={job_hi} is inverted"))
                    } else {
                        None
                    }
                }
                FaultEvent::VmStall { stage, pct, .. } => {
                    if stage >= 4 {
                        Some(format!("stage index {stage} out of range (jobs have 4 stages)"))
                    } else if pct < 100 {
                        Some(format!("stall pct {pct} would shorten the stage"))
                    } else {
                        None
                    }
                }
                FaultEvent::OverloadBurst { ord_lo, ord_hi }
                | FaultEvent::IngestFlood { ord_lo, ord_hi }
                | FaultEvent::CanaryLatencySpike { ord_lo, ord_hi, .. } => {
                    if ord_lo > ord_hi {
                        Some(format!("ordinal range {ord_lo}..={ord_hi} is inverted"))
                    } else {
                        None
                    }
                }
                FaultEvent::RecipeEvalStall { iter_lo, iter_hi, .. } => {
                    if iter_lo > iter_hi {
                        Some(format!("iteration range {iter_lo}..={iter_hi} is inverted"))
                    } else {
                        None
                    }
                }
                FaultEvent::CrossShardDelay { src, dst, seq_lo, seq_hi, .. } => {
                    if src == dst {
                        Some(format!("cross-shard link {src} -> {dst} is a self-loop"))
                    } else if seq_lo > seq_hi {
                        Some(format!("sequence range {seq_lo}..={seq_hi} is inverted"))
                    } else {
                        None
                    }
                }
                FaultEvent::RegionPartition { src, dst, from_us, heal_us } => {
                    if src == dst {
                        Some(format!("partitioned link {src} -> {dst} is a self-loop"))
                    } else if from_us >= heal_us {
                        Some(format!("partition window {from_us}..{heal_us} is empty"))
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(message) = problem {
                return Err(SimtestError::Plan {
                    message: format!("event {i} ({}): {message}", event.kind()),
                });
            }
        }
        Ok(())
    }

    /// Render the canonical multi-line JSON document: fixed key order,
    /// one event per line, integers only. This is the replayable
    /// artifact format the shrinker emits.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128 + self.events.len() * 96);
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str("  \"events\": [\n");
        for (i, event) in self.events.iter().enumerate() {
            s.push_str("    ");
            s.push_str(&event.to_json_line());
            s.push_str(if i + 1 < self.events.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}");
        s
    }

    /// Render the plan as one JSON line (for embedding in reports).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let events: Vec<String> = self.events.iter().map(FaultEvent::to_json_line).collect();
        format!("{{\"seed\":{},\"events\":[{}]}}", self.seed, events.join(","))
    }

    /// Parse a canonical plan document (the [`FaultPlan::to_json`]
    /// shape, modulo surrounding whitespace per line).
    ///
    /// # Errors
    ///
    /// Returns [`SimtestError::Plan`] for structural deviations,
    /// unknown kinds, missing or extra fields, or non-integer values —
    /// a corrupt artifact must never silently replay as a different
    /// plan.
    pub fn from_json(text: &str) -> Result<Self, SimtestError> {
        let bad = |message: String| SimtestError::Plan { message };
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        fn expect<'a>(
            lines: &mut impl Iterator<Item = &'a str>,
            want: &str,
        ) -> Result<(), SimtestError> {
            match lines.next() {
                Some(line) if line == want => Ok(()),
                Some(line) => Err(SimtestError::Plan {
                    message: format!("expected `{want}`, found `{line}`"),
                }),
                None => Err(SimtestError::Plan {
                    message: format!("expected `{want}`, found end of document"),
                }),
            }
        }
        expect(&mut lines, "{")?;
        let seed_line = lines
            .next()
            .ok_or_else(|| bad("missing `\"seed\"` line".into()))?;
        let seed = seed_line
            .strip_prefix("\"seed\": ")
            .and_then(|rest| rest.strip_suffix(','))
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| bad(format!("malformed seed line `{seed_line}`")))?;
        expect(&mut lines, "\"events\": [")?;
        let mut events = Vec::new();
        loop {
            let line = lines
                .next()
                .ok_or_else(|| bad("unterminated events array".into()))?;
            if line == "]" {
                break;
            }
            let object = line.strip_suffix(',').unwrap_or(line);
            events.push(parse_event(object)?);
        }
        expect(&mut lines, "}")?;
        if let Some(extra) = lines.next() {
            return Err(bad(format!("trailing content `{extra}`")));
        }
        let plan = Self { seed, events };
        plan.validate()?;
        Ok(plan)
    }
}

/// Parse one single-line event object emitted by
/// [`FaultEvent::to_json_line`].
fn parse_event(object: &str) -> Result<FaultEvent, SimtestError> {
    let bad = |message: String| SimtestError::Plan { message };
    let inner = object
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| bad(format!("event `{object}` is not an object")))?;
    let mut kind: Option<&str> = None;
    let mut fields: Vec<(&str, u64)> = Vec::new();
    for pair in inner.split(',') {
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed pair `{pair}`")))?;
        let key = key
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| bad(format!("malformed key in `{pair}`")))?;
        if key == "kind" {
            let v = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| bad(format!("malformed kind in `{pair}`")))?;
            kind = Some(v);
        } else {
            let v = value
                .parse::<u64>()
                .map_err(|_| bad(format!("field `{key}` is not an integer: `{value}`")))?;
            fields.push((key, v));
        }
    }
    let kind = kind.ok_or_else(|| bad(format!("event `{object}` has no kind")))?;
    FaultEvent::from_fields(kind, &fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            events: vec![
                FaultEvent::SpotStorm { job_lo: 0, job_hi: 2, attempts: 2, fraction_ppm: 500_000 },
                FaultEvent::VmStall { job_id: 1, stage: 2, pct: 250 },
                FaultEvent::OverloadBurst { ord_lo: 4, ord_hi: 9 },
                FaultEvent::CacheWipe { ordinal: 11 },
                FaultEvent::FeedbackDelay { ordinal: 17, extra_us: 2_000_000 },
                FaultEvent::FeedbackDrop { ordinal: 23 },
                FaultEvent::SnapshotCorruption { byte_index: 341 },
                FaultEvent::CanaryLatencySpike { ord_lo: 0, ord_hi: 159, spike_us: 10_000_000 },
                FaultEvent::CrossShardDelay {
                    src: 0,
                    dst: 2,
                    seq_lo: 3,
                    seq_hi: 8,
                    extra_us: 120_000,
                },
                FaultEvent::RecipeEvalStall { iter_lo: 4, iter_hi: 11, extra_us: 250_000 },
                FaultEvent::IngestCorruptUpload { ordinal: 13 },
                FaultEvent::IngestFlood { ord_lo: 20, ord_hi: 25 },
                FaultEvent::RegionPartition { src: 1, dst: 0, from_us: 100_000, heal_us: 900_000 },
            ],
        }
    }

    #[test]
    fn every_kind_round_trips_through_json() {
        let plan = sample_plan();
        plan.validate().expect("sample is valid");
        let text = plan.to_json();
        let parsed = FaultPlan::from_json(&text).expect("parses");
        assert_eq!(parsed, plan);
        assert_eq!(parsed.to_json(), text, "canonical form is a fixpoint");
        // The bytes each kind rendered to before the schema became one
        // table, in `sample_plan` order: checked-in plans and the
        // simtest golden depend on them.
        let pinned = [
            r#"{"kind":"spot_storm","job_lo":0,"job_hi":2,"attempts":2,"fraction_ppm":500000}"#,
            r#"{"kind":"vm_stall","job_id":1,"stage":2,"pct":250}"#,
            r#"{"kind":"overload_burst","ord_lo":4,"ord_hi":9}"#,
            r#"{"kind":"cache_wipe","ordinal":11}"#,
            r#"{"kind":"feedback_delay","ordinal":17,"extra_us":2000000}"#,
            r#"{"kind":"feedback_drop","ordinal":23}"#,
            r#"{"kind":"snapshot_corruption","byte_index":341}"#,
            r#"{"kind":"canary_latency_spike","ord_lo":0,"ord_hi":159,"spike_us":10000000}"#,
            r#"{"kind":"cross_shard_delay","src":0,"dst":2,"seq_lo":3,"seq_hi":8,"extra_us":120000}"#,
            r#"{"kind":"recipe_eval_stall","iter_lo":4,"iter_hi":11,"extra_us":250000}"#,
            r#"{"kind":"ingest_corrupt_upload","ordinal":13}"#,
            r#"{"kind":"ingest_flood","ord_lo":20,"ord_hi":25}"#,
            r#"{"kind":"region_partition","src":1,"dst":0,"from_us":100000,"heal_us":900000}"#,
        ];
        let rendered: Vec<String> = plan.events.iter().map(FaultEvent::to_json_line).collect();
        assert_eq!(rendered, pinned);
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let a = FaultPlan::generate(21, 32);
        let b = FaultPlan::generate(21, 32);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 32);
        a.validate().expect("generated plans are always valid");
        // All ten generated kinds show up in a 64-event draw.
        // `recipe_eval_stall`, `ingest_corrupt_upload`, and
        // `ingest_flood` are deliberately outside the generator's draw
        // range: adding them would shift the seeded stream and
        // invalidate every checked-in fault-plan golden. They are
        // injected by hand-written plans (and the recipe/ingest
        // invariant tests) only.
        let wide = FaultPlan::generate(21, 64);
        wide.validate().expect("generated plans are always valid");
        let kinds: std::collections::BTreeSet<&str> =
            wide.events.iter().map(FaultEvent::kind).collect();
        assert_eq!(kinds.len(), 10, "kinds drawn: {kinds:?}");
        assert_ne!(FaultPlan::generate(22, 32), a, "seed changes the plan");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        let cases: &[(&str, &str)] = &[
            ("", "expected `{`"),
            ("{\n  \"seed\": x,\n  \"events\": [\n  ]\n}", "malformed seed"),
            (
                "{\n  \"seed\": 7,\n  \"events\": [\n    {\"kind\":\"warp_core_breach\"}\n  ]\n}",
                "unknown fault kind",
            ),
            (
                "{\n  \"seed\": 7,\n  \"events\": [\n    {\"kind\":\"cache_wipe\",\"ord\":1}\n  ]\n}",
                "expects fields",
            ),
            (
                "{\n  \"seed\": 7,\n  \"events\": [\n    {\"kind\":\"cache_wipe\",\"ordinal\":1}\n  ]\n}\nextra",
                "trailing content",
            ),
            ("{\n  \"seed\": 7,\n  \"events\": [\n", "unterminated"),
            (
                "{\n  \"seed\": 7,\n  \"events\": [\n    {\"kind\":\"spot_storm\",\"job_lo\":0,\
                 \"job_hi\":0,\"attempts\":4294967296,\"fraction_ppm\":1}\n  ]\n}",
                "attempts 4294967296 overflows u32",
            ),
            (
                "{\n  \"seed\": 7,\n  \"events\": [\n    {\"kind\":\"region_partition\",\"src\":0,\
                 \"dst\":4294967296,\"from_us\":1,\"heal_us\":2}\n  ]\n}",
                "dst 4294967296 overflows u32",
            ),
        ];
        for (text, needle) in cases {
            match FaultPlan::from_json(text) {
                Err(SimtestError::Plan { message }) => {
                    assert!(message.contains(needle), "`{message}` should contain `{needle}`");
                }
                other => panic!("document {text:?} should fail with Plan error, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_out_of_range_parameters() {
        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::SpotStorm {
                job_lo: 0,
                job_hi: 0,
                attempts: 1,
                fraction_ppm: PPM + 1,
            }],
        };
        assert!(matches!(bad.validate(), Err(SimtestError::Plan { .. })));
        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::VmStall { job_id: 0, stage: 4, pct: 120 }],
        };
        assert!(matches!(bad.validate(), Err(SimtestError::Plan { .. })));
        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::OverloadBurst { ord_lo: 9, ord_hi: 4 }],
        };
        assert!(matches!(bad.validate(), Err(SimtestError::Plan { .. })));
        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::CrossShardDelay {
                src: 1,
                dst: 1,
                seq_lo: 0,
                seq_hi: 4,
                extra_us: 10_000,
            }],
        };
        assert!(matches!(bad.validate(), Err(SimtestError::Plan { .. })), "self-loop link");
        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::RegionPartition {
                src: 0,
                dst: 1,
                from_us: 500_000,
                heal_us: 500_000,
            }],
        };
        assert!(matches!(bad.validate(), Err(SimtestError::Plan { .. })), "empty window");
        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::RecipeEvalStall { iter_lo: 8, iter_hi: 2, extra_us: 100 }],
        };
        assert!(
            matches!(bad.validate(), Err(SimtestError::Plan { .. })),
            "inverted iteration range"
        );
        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::IngestFlood { ord_lo: 7, ord_hi: 3 }],
        };
        assert!(
            matches!(bad.validate(), Err(SimtestError::Plan { .. })),
            "inverted flood range"
        );
    }

    #[test]
    fn single_line_rendering_matches_the_document() {
        let plan = sample_plan();
        let line = plan.to_json_line();
        assert!(line.starts_with("{\"seed\":7,\"events\":[{\"kind\":\"spot_storm\""));
        assert_eq!(line.matches("\"kind\"").count(), plan.events.len());
        // The line embeds the exact event objects the document uses.
        for event in &plan.events {
            assert!(line.contains(&event.to_json_line()));
        }
    }
}
