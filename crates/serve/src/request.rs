//! Requests, designs, and the seeded synthetic workload.

use eda_cloud_engine::poisson_arrivals;
use eda_cloud_gcn::GraphSample;
use eda_cloud_netlist::{generators, DesignGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A design as the server sees it: its two graph views plus a
/// structural fingerprint used as the result-cache key.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeDesign {
    /// Design name (diagnostic only; the fingerprint is the identity).
    pub name: String,
    /// AIG view, consumed by the synthesis predictor.
    pub aig: GraphSample,
    /// Netlist view, consumed by placement / routing / STA predictors.
    pub netlist: GraphSample,
    /// FNV-1a-style hash of the name and both views' node counts and
    /// features.
    pub fingerprint: u64,
}

impl ServeDesign {
    /// Build a design and fingerprint it.
    #[must_use]
    pub fn new(name: impl Into<String>, aig: GraphSample, netlist: GraphSample) -> Self {
        let name = name.into();
        let fingerprint = fingerprint_views(&name, &aig, &netlist);
        Self { name, aig, netlist, fingerprint }
    }
}

/// The fingerprint hash: `bytes` folded into `hash`, which starts at
/// [`FINGERPRINT_SEED`]. It is FNV-1a's offset basis and byte step
/// `h' = (h ^ b) * p`, but with `p = 0x1000_0000_01b3` — one zero more
/// than the FNV prime `trace::fnv1a64` multiplies by. Still odd, so each
/// step is still a bijection on `u64`; every cache key and
/// `ingest_report.json` carry its values, so it is kept as it is rather
/// than folded into `fnv1a64`.
///
/// A zero byte's step is `(h ^ 0) * p = h * p`, so a run of `k` zero
/// bytes is one multiply by `p^k` from [`PRIME_POWERS`] instead of `k`
/// dependent ones — the same value bit for bit. Feature matrices are
/// mostly zero bytes (`0.0`, and the low six of `1.0`, `0.5`, `0.25`).
fn mix(hash: u64, bytes: &[u8]) -> u64 {
    let (mut h, mut i) = (hash, 0);
    while let Some(&b) = bytes.get(i) {
        if b != 0 {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            i += 1;
            continue;
        }
        // A run longer than the table takes another turn of the loop.
        let run = bytes[i..].iter().take(PRIME_POWERS.len() - 1).take_while(|&&b| b == 0).count();
        h = h.wrapping_mul(PRIME_POWERS[run]);
        i += run;
    }
    h
}

const PRIME: u64 = 0x1000_0000_01b3;
const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// `PRIME_POWERS[k] = PRIME^k` (wrapping), for zero runs up to 255 bytes
/// in one step.
const PRIME_POWERS: [u64; 256] = {
    let mut powers = [1u64; 256];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    powers
};

/// The design name and the raw feature bytes of both graph views — two
/// designs collide only if they are structurally identical under the
/// GCN's featurization, in which case sharing a cached prediction is
/// exactly right.
fn fingerprint_views(name: &str, aig: &GraphSample, netlist: &GraphSample) -> u64 {
    let mut hash = mix(FINGERPRINT_SEED, name.as_bytes());
    // Features go through `mix` a block at a time so that zero runs
    // span values, not just the eight bytes of one.
    let mut block = [0u8; 512];
    for view in [aig, netlist] {
        hash = mix(hash, &[0xFF]); // view separator
        hash = mix(hash, &(view.node_count() as u64).to_le_bytes());
        for values in view.features.data().chunks(block.len() / 8) {
            let bytes = &mut block[..values.len() * 8];
            for (slot, v) in bytes.chunks_exact_mut(8).zip(values) {
                slot.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            hash = mix(hash, bytes);
        }
    }
    hash
}

/// An untrusted external design document as uploaded: raw text plus a
/// content fingerprint that keys the ingest cache. The server never
/// interprets the text itself — an attached [`crate::Ingestor`] does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UploadDoc {
    /// Client-supplied design name (diagnostic only).
    pub name: String,
    /// Interchange format tag (e.g. `"blif"`, `"verilog"`,
    /// `"bookshelf"`), forwarded to the ingestor untouched.
    pub format: String,
    /// The raw uploaded text.
    pub text: String,
    /// FNV-1a-style hash of the format tag and the raw bytes; two
    /// uploads share an ingest-cache entry only if they are
    /// byte-identical.
    pub fingerprint: u64,
}

impl UploadDoc {
    /// Wrap an upload and fingerprint its content.
    #[must_use]
    pub fn new(name: impl Into<String>, format: impl Into<String>, text: impl Into<String>) -> Self {
        let (name, format, text) = (name.into(), format.into(), text.into());
        let fingerprint = fingerprint_upload(&format, &text);
        Self { name, format, text, fingerprint }
    }

    /// A deterministically torn copy of this upload: the text cut at
    /// the midpoint (snapped forward to a char boundary), refingerprinted.
    /// Fault harnesses use this to model a corrupted transfer.
    #[must_use]
    pub fn corrupted(&self) -> Self {
        let mut cut = self.text.len() / 2;
        while cut < self.text.len() && !self.text.is_char_boundary(cut) {
            cut += 1;
        }
        Self::new(self.name.clone(), self.format.clone(), &self.text[..cut])
    }
}

/// The format tag, a separator, and the raw upload bytes.
fn fingerprint_upload(format: &str, text: &str) -> u64 {
    mix(mix(mix(FINGERPRINT_SEED, format.as_bytes()), &[0xFF]), text.as_bytes())
}

/// What the caller wants back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Per-stage runtime predictions only.
    Predict,
    /// Predictions plus an MCKP deployment plan under a flow deadline.
    Plan {
        /// Total-flow-runtime budget handed to the knapsack, seconds.
        budget_secs: u64,
    },
    /// Predictions plus a joint recipe × VM plan: the recipe planner
    /// ranks a candidate recipe set with the hybrid predictor and
    /// hands the (recipe, stage-runtime) matrix to the knapsack.
    PlanRecipe {
        /// Total-flow-runtime deadline for the joint plan, seconds.
        deadline_secs: u64,
    },
    /// Parse, validate, and predict for the request's attached
    /// [`UploadDoc`]; the `design` field is ignored. Requires an
    /// [`crate::Ingestor`] on the server.
    Ingest,
}

/// One request in the stream.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Logical arrival ordinal — span identity and the queue tiebreak.
    pub ordinal: u64,
    /// Arrival time on the simulated clock, µs.
    pub arrival_us: u64,
    /// Absolute response deadline on the simulated clock, µs; earlier
    /// deadlines are served first.
    pub deadline_us: u64,
    /// Prediction only, or prediction + plan.
    pub kind: RequestKind,
    /// The design to predict for (shared — many requests may reference
    /// one pooled design).
    pub design: Arc<ServeDesign>,
    /// For [`RequestKind::Ingest`] requests, the uploaded document;
    /// `None` for every other kind.
    pub upload: Option<Arc<UploadDoc>>,
}

/// Synthetic open-loop workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of requests in the stream.
    pub requests: usize,
    /// Mean arrival rate, requests per second (Poisson process).
    pub rate_per_sec: f64,
    /// Seed for arrivals, design choice, deadlines, and request kinds.
    pub seed: u64,
    /// Every `plan_every`-th draw (in expectation) asks for a plan; 0
    /// disables planning requests.
    pub plan_every: u64,
    /// Every `ingest_every`-th draw (in expectation) is an upload of
    /// one of the documents handed to
    /// [`synthetic_requests_with_uploads`]; 0 (the default) disables
    /// ingest requests and draws nothing extra from the stream.
    pub ingest_every: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            requests: 64,
            rate_per_sec: 200.0,
            seed: 7,
            plan_every: 4,
            ingest_every: 0,
        }
    }
}

/// Response-deadline window after arrival, milliseconds: inclusive
/// lower edge, exclusive upper edge.
const DEADLINE_WINDOW_MS: std::ops::Range<u64> = 30..250;

/// Families × sizes backing the synthetic design pool. Small designs
/// keep the forward passes fast; the pool is larger than a typical
/// batch so both cache hits and misses occur.
const POOL_FAMILIES: [&str; 6] = ["adder", "parity", "comparator", "max", "gray2bin", "hamming"];
const POOL_SIZES: [u32; 3] = [4, 6, 8];

/// The deterministic design pool the synthetic workload draws from.
/// Both graph views are derived from the AIG (the standalone service
/// has no synthesis engine; `eda-cloud-core` substitutes real
/// synthesized netlist views when it acts as the traffic source).
#[must_use]
pub fn design_pool() -> Vec<Arc<ServeDesign>> {
    let mut pool = Vec::with_capacity(POOL_FAMILIES.len() * POOL_SIZES.len());
    for family in POOL_FAMILIES {
        for size in POOL_SIZES {
            let aig = generators::build_family(family, size).expect("known family");
            let graph = DesignGraph::from_aig(&aig);
            let view = || GraphSample::new(&graph, [1.0; 4]);
            pool.push(Arc::new(ServeDesign::new(
                format!("{family}{size}"),
                view(),
                view(),
            )));
        }
    }
    pool
}

/// Generate a seeded request stream over `pool`: Poisson arrivals at
/// `rate_per_sec`, uniform deadline windows, and a seeded Predict/Plan
/// mix. All randomness is drawn serially from one ChaCha8 stream, so
/// `(pool, config)` fully determines the stream.
///
/// # Panics
///
/// Panics if the pool is empty.
#[must_use]
pub fn synthetic_requests(pool: &[Arc<ServeDesign>], config: &WorkloadConfig) -> Vec<ServeRequest> {
    synthetic_requests_with_uploads(pool, &[], config)
}

/// [`synthetic_requests`] plus an upload corpus: when
/// `config.ingest_every > 0` and `uploads` is non-empty, an expected
/// 1-in-`ingest_every` of the non-plan draws becomes a
/// [`RequestKind::Ingest`] carrying a seeded draw from `uploads`. With
/// the knob at its default 0 no extra randomness is drawn, so the
/// stream stays byte-identical to [`synthetic_requests`].
///
/// # Panics
///
/// Panics if the pool is empty.
#[must_use]
pub fn synthetic_requests_with_uploads(
    pool: &[Arc<ServeDesign>],
    uploads: &[Arc<UploadDoc>],
    config: &WorkloadConfig,
) -> Vec<ServeRequest> {
    assert!(!pool.is_empty(), "design pool must not be empty");
    let arrivals = poisson_arrivals(config.requests, config.rate_per_sec * 3600.0, config.seed);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5E4E);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival_secs)| {
            let arrival_us = (arrival_secs * 1e6).round() as u64;
            let design = pool[rng.gen_range(0..pool.len())].clone();
            let window_ms = rng.gen_range(DEADLINE_WINDOW_MS);
            let mut upload = None;
            let kind = if config.plan_every > 0 && rng.gen_range(0..config.plan_every) == 0 {
                RequestKind::Plan { budget_secs: rng.gen_range(6_000u64..20_000) }
            } else if config.ingest_every > 0
                && !uploads.is_empty()
                && rng.gen_range(0..config.ingest_every) == 0
            {
                // Guarded by `ingest_every > 0` so the default stream
                // draws nothing extra and stays byte-identical.
                upload = Some(uploads[rng.gen_range(0..uploads.len())].clone());
                RequestKind::Ingest
            } else {
                RequestKind::Predict
            };
            ServeRequest {
                ordinal: i as u64,
                arrival_us,
                deadline_us: arrival_us + window_ms * 1_000,
                kind,
                design,
                upload,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-serial fold `mix` replaced, kept as its oracle.
    fn mix_serial(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
    }

    #[test]
    fn zero_runs_fold_to_the_byte_serial_hash() {
        // Every run length around the table's end, alone and between bytes.
        for run in (0..=20).chain(250..=260).chain([509, 510, 511, 512, 513, 1025]) {
            let zeros = vec![0u8; run];
            let framed = [&[7u8][..], &zeros, &[9u8]].concat();
            for bytes in [&zeros, &framed] {
                assert_eq!(mix(FINGERPRINT_SEED, bytes), mix_serial(FINGERPRINT_SEED, bytes), "run {run}");
            }
        }
        // Feature matrices with planted zeros of both signs, ones,
        // subnormals and seeded random bit patterns, through the real
        // fingerprint and through the oracle over the same byte image.
        let graph = DesignGraph::from_aig(&generators::build_family("adder", 4).expect("family"));
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        for case in 0..64 {
            let mut view = GraphSample::new(&graph, [1.0; 4]);
            for v in view.features.data_mut() {
                *v = match rng.gen_range(0..8u32) {
                    0..=2 => 0.0,
                    3 => -0.0,
                    4 => 1.0,
                    5 => f64::from_bits(rng.gen_range(1..4096u64)),
                    6 => f64::from_bits(rng.gen_range(0..u64::MAX)),
                    _ => *v,
                };
            }
            let mut want = mix_serial(FINGERPRINT_SEED, b"probe");
            for _ in 0..2 {
                want = mix_serial(want, &[0xFF]);
                want = mix_serial(want, &(view.node_count() as u64).to_le_bytes());
                for v in view.features.data() {
                    want = mix_serial(want, &v.to_bits().to_le_bytes());
                }
            }
            assert_eq!(fingerprint_views("probe", &view, &view), want, "case {case}");
        }
    }

    #[test]
    fn workload_is_deterministic_and_ordered() {
        let pool = design_pool();
        let config = WorkloadConfig::default();
        let a = synthetic_requests(&pool, &config);
        let b = synthetic_requests(&pool, &config);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ordinal, y.ordinal);
            assert_eq!(x.arrival_us, y.arrival_us);
            assert_eq!(x.deadline_us, y.deadline_us);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.design.fingerprint, y.design.fingerprint);
        }
        assert!(a.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        assert!(a.iter().all(|r| r.deadline_us > r.arrival_us));
        assert!(a.iter().any(|r| matches!(r.kind, RequestKind::Plan { .. })));
        assert!(a.iter().any(|r| r.kind == RequestKind::Predict));
    }

    #[test]
    fn ingest_requests_are_off_by_default_and_guarded() {
        let pool = design_pool();
        let uploads = vec![
            Arc::new(UploadDoc::new("a", "blif", ".model a\n.end\n")),
            Arc::new(UploadDoc::new("b", "verilog", "module b; endmodule\n")),
        ];
        let default_stream =
            synthetic_requests_with_uploads(&pool, &uploads, &WorkloadConfig::default());
        let plain = synthetic_requests(&pool, &WorkloadConfig::default());
        assert_eq!(default_stream.len(), plain.len());
        for (x, y) in default_stream.iter().zip(&plain) {
            assert_eq!(x.kind, y.kind, "ingest_every = 0 must draw nothing extra");
            assert_eq!(x.arrival_us, y.arrival_us);
            assert!(x.upload.is_none());
        }
        let config = WorkloadConfig { ingest_every: 2, ..WorkloadConfig::default() };
        let stream = synthetic_requests_with_uploads(&pool, &uploads, &config);
        let ingests: Vec<_> = stream.iter().filter(|r| r.kind == RequestKind::Ingest).collect();
        assert!(!ingests.is_empty(), "ingest_every = 2 over 64 requests draws some");
        assert!(ingests.iter().all(|r| r.upload.is_some()));
        let again = synthetic_requests_with_uploads(&pool, &uploads, &config);
        for (x, y) in stream.iter().zip(&again) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(
                x.upload.as_ref().map(|u| u.fingerprint),
                y.upload.as_ref().map(|u| u.fingerprint)
            );
        }
        // Without an upload corpus the knob is inert, not a panic.
        let bare = synthetic_requests_with_uploads(&pool, &[], &config);
        assert!(bare.iter().all(|r| r.kind != RequestKind::Ingest));
    }

    #[test]
    fn upload_fingerprints_separate_content_and_format() {
        let a = UploadDoc::new("x", "blif", ".model x\n");
        let same = UploadDoc::new("renamed", "blif", ".model x\n");
        assert_eq!(a.fingerprint, same.fingerprint, "name is diagnostic only");
        let other_text = UploadDoc::new("x", "blif", ".model y\n");
        assert_ne!(a.fingerprint, other_text.fingerprint);
        let other_format = UploadDoc::new("x", "verilog", ".model x\n");
        assert_ne!(a.fingerprint, other_format.fingerprint);
    }

    #[test]
    fn corrupted_uploads_are_torn_and_refingerprinted() {
        let doc = UploadDoc::new("x", "blif", ".model x\n.inputs a\n.outputs y\n.end\n");
        let torn = doc.corrupted();
        assert!(torn.text.len() < doc.text.len());
        assert_ne!(torn.fingerprint, doc.fingerprint);
        assert_eq!(doc.corrupted(), doc.corrupted(), "deterministic");
        // Multi-byte content never tears mid-char.
        let uni = UploadDoc::new("u", "blif", "désign—π");
        let _ = uni.corrupted(); // must not panic
    }

    #[test]
    fn different_seeds_differ() {
        let pool = design_pool();
        let a = synthetic_requests(&pool, &WorkloadConfig { seed: 1, ..Default::default() });
        let b = synthetic_requests(&pool, &WorkloadConfig { seed: 2, ..Default::default() });
        assert!(a.iter().zip(&b).any(|(x, y)| x.arrival_us != y.arrival_us));
    }

    #[test]
    fn fingerprints_separate_distinct_designs() {
        let pool = design_pool();
        let mut prints: Vec<u64> = pool.iter().map(|d| d.fingerprint).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), pool.len(), "all pool designs distinct");
    }
}
