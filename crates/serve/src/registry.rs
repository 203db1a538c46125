//! Versioned model snapshots and the registry that serves them.
//!
//! A [`ModelSnapshot`] bundles the four per-stage runtime predictors
//! (synthesis / placement / routing / STA, mirroring the paper's
//! one-GCN-per-application setup) into one serializable unit. The text
//! format embeds each predictor's canonical weight document
//! (`eda_cloud_gcn::RuntimePredictor::save_weights`) between
//! `stage <name>` / `end <name>` delimiters under an
//! `eda-serve-snapshot v1` header — byte-stable, so equal snapshots
//! serialize to equal bytes and a save → load round trip reproduces
//! bit-identical predictions. It is the one stored format: an int8
//! [`QuantizedSnapshot`] is derived from a float one by
//! [`QuantizedSnapshot::quantize`], a pure function of the weights.
//!
//! The [`ModelRegistry`] keys snapshots by monotonically increasing
//! version, the way a production server rolls models forward without
//! dropping in-flight traffic pinned to an older version.

use crate::ServeError;
use eda_cloud_gcn::{GraphBatch, ModelConfig, QuantizedPredictor, RuntimePredictor};
use eda_cloud_trace::{fnv1a64, par};

/// Stage names in flow order; index-aligned with every `[T; 4]` that
/// crosses this crate's API (predictions, plans, service stages).
pub const STAGE_NAMES: [&str; 4] = ["synthesis", "placement", "routing", "sta"];

/// Split the next `\n`-terminated line off `rest`, tracking byte
/// position (unlike `str::lines`) so the checksum footer can hash the
/// exact preceding bytes.
fn next_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    if rest.is_empty() {
        return None;
    }
    match rest.find('\n') {
        Some(idx) => {
            let line = &rest[..idx];
            *rest = &rest[idx + 1..];
            Some(line)
        }
        None => {
            let line = *rest;
            *rest = "";
            Some(line)
        }
    }
}

/// Run the four independent per-stage forwards on up to `workers`
/// threads — synthesis reads the AIG batch, the other three stages the
/// netlist batch — and transpose to per-design rows. Results are joined
/// **by stage index**, so the output is bit-identical at every worker
/// count. Shared by the float and int8 snapshot types.
fn predict_stages(
    aig: &GraphBatch,
    netlist: &GraphBatch,
    workers: usize,
    run_stage: impl Fn(usize, &GraphBatch) -> Vec<[f64; 4]> + Sync,
) -> Vec<[[f64; 4]; 4]> {
    assert_eq!(aig.len(), netlist.len(), "views must be index-aligned");
    if aig.is_empty() {
        return Vec::new();
    }
    let per_stage = par::map_indexed(workers, (0..4).collect(), |_, k: usize| {
        run_stage(k, if k == 0 { aig } else { netlist })
    });
    (0..aig.len())
        .map(|i| [per_stage[0][i], per_stage[1][i], per_stage[2][i], per_stage[3][i]])
        .collect()
}

/// The four per-stage predictors, frozen for serving.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// Synthesis model (consumes the AIG view of a design).
    pub synthesis: RuntimePredictor,
    /// Placement model (consumes the netlist view).
    pub placement: RuntimePredictor,
    /// Routing model.
    pub routing: RuntimePredictor,
    /// STA model.
    pub sta: RuntimePredictor,
}

impl ModelSnapshot {
    /// Bundle four trained predictors in [`STAGE_NAMES`] order.
    #[must_use]
    pub fn new(
        synthesis: RuntimePredictor,
        placement: RuntimePredictor,
        routing: RuntimePredictor,
        sta: RuntimePredictor,
    ) -> Self {
        Self {
            synthesis,
            placement,
            routing,
            sta,
        }
    }

    /// A snapshot of four freshly initialized (untrained) predictors —
    /// deterministic per `(config, seed)`, giving benches and smoke
    /// runs a fast stand-in with the exact serving code path of a
    /// trained model.
    #[must_use]
    pub fn seeded(config: &ModelConfig, seed: u64) -> Self {
        let mut models =
            (0..4u64).map(|k| RuntimePredictor::new(config, seed.wrapping_add(k * 0x9E37)));
        let (s, p, r, t) = (
            models.next().expect("stage"),
            models.next().expect("stage"),
            models.next().expect("stage"),
            models.next().expect("stage"),
        );
        Self::new(s, p, r, t)
    }

    /// The predictor for stage index `k` (see [`STAGE_NAMES`]).
    ///
    /// # Panics
    ///
    /// Panics if `k >= 4`.
    #[must_use]
    pub fn stage(&self, k: usize) -> &RuntimePredictor {
        match k {
            0 => &self.synthesis,
            1 => &self.placement,
            2 => &self.routing,
            3 => &self.sta,
            _ => panic!("stage index {k} out of range"),
        }
    }

    /// Serialize to the canonical `eda-serve-snapshot v1` text format:
    /// the header line, then each stage's weight document between
    /// `stage <name>` / `end <name>` delimiters in [`STAGE_NAMES`] order.
    ///
    /// The document ends with a `checksum <16 hex digits>` footer — an
    /// FNV-1a 64 digest of every preceding byte — so storage-level bit
    /// rot is detected at load instead of silently serving a corrupt
    /// model.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from("eda-serve-snapshot v1\n");
        for (k, name) in STAGE_NAMES.iter().enumerate() {
            out.push_str(&format!("stage {name}\n"));
            out.push_str(&self.stage(k).save_weights());
            out.push_str(&format!("end {name}\n"));
        }
        out.push_str(&format!("checksum {:016x}\n", fnv1a64(out.as_bytes())));
        out
    }

    /// Parse a document produced by [`ModelSnapshot::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Snapshot`] on a bad header, missing or
    /// misordered stage delimiters, malformed embedded weights, or a
    /// missing/mismatched `checksum` footer. The checksum is verified
    /// after the structural parse, so structural corruption keeps its
    /// precise message while any surviving bit flip is still rejected.
    pub fn from_text(text: &str) -> Result<Self, ServeError> {
        let err = |m: String| ServeError::Snapshot { message: m };
        let mut rest = text;
        if next_line(&mut rest) != Some("eda-serve-snapshot v1") {
            return Err(err("unknown header".into()));
        }
        let mut read_stage = |name: &str| -> Result<RuntimePredictor, ServeError> {
            let open = next_line(&mut rest).unwrap_or_default();
            if open != format!("stage {name}") {
                return Err(err(format!("expected `stage {name}`, found `{open}`")));
            }
            let close = format!("end {name}");
            let mut doc = String::new();
            loop {
                let Some(line) = next_line(&mut rest) else {
                    return Err(err(format!("missing `{close}`")));
                };
                if line == close {
                    break;
                }
                doc.push_str(line);
                doc.push('\n');
            }
            Ok(RuntimePredictor::load_weights(&doc)?)
        };
        let [synthesis, placement, routing, sta] = STAGE_NAMES;
        let snapshot = Self::new(
            read_stage(synthesis)?,
            read_stage(placement)?,
            read_stage(routing)?,
            read_stage(sta)?,
        );
        let body_len = text.len() - rest.len();
        let footer = next_line(&mut rest).ok_or_else(|| err("missing `checksum` footer".into()))?;
        let Some(hex) = footer.strip_prefix("checksum ") else {
            return Err(err(format!(
                "expected `checksum <16 hex digits>`, found `{footer}`"
            )));
        };
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(err(format!("malformed checksum `{hex}`")));
        }
        let stated = u64::from_str_radix(hex, 16).expect("validated hex");
        if !rest.is_empty() {
            return Err(err("trailing content after checksum footer".into()));
        }
        let computed = fnv1a64(&text.as_bytes()[..body_len]);
        if stated != computed {
            return Err(err(format!(
                "checksum mismatch: stated {stated:016x}, computed {computed:016x}"
            )));
        }
        Ok(snapshot)
    }

    /// Batched prediction over every stage: `secs[i][k]` is the
    /// saturated `[1, 2, 4, 8]`-vCPU runtime vector of design `i` for
    /// stage `k`. `aig` and `netlist` are the two graph views of the
    /// same designs, index-aligned; synthesis reads the AIG batch, the
    /// other three stages the netlist batch. `workers > 1` fans the
    /// four independent stage forwards over scoped threads — results
    /// are joined by stage index, so the output is bit-identical at
    /// every worker count.
    #[must_use]
    pub fn predict_batches(
        &self,
        aig: &GraphBatch,
        netlist: &GraphBatch,
        workers: usize,
    ) -> Vec<[[f64; 4]; 4]> {
        predict_stages(aig, netlist, workers, |k, batch| self.stage(k).predict_secs_batch(batch))
    }
}

/// The four per-stage predictors, quantized to int8 for serving (see
/// [`eda_cloud_gcn::QuantizedPredictor`]). Versioned alongside float
/// snapshots in the [`ModelRegistry`] via [`ServingSnapshot`], so a
/// lifecycle controller can canary a quantized candidate head-to-head
/// against its float primary on the same request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedSnapshot {
    /// Synthesis model (consumes the AIG view of a design).
    pub synthesis: QuantizedPredictor,
    /// Placement model (consumes the netlist view).
    pub placement: QuantizedPredictor,
    /// Routing model.
    pub routing: QuantizedPredictor,
    /// STA model.
    pub sta: QuantizedPredictor,
}

impl QuantizedSnapshot {
    /// Quantize every stage of a float snapshot. Deterministic: the
    /// same float snapshot always produces the same int8 snapshot.
    #[must_use]
    pub fn quantize(snapshot: &ModelSnapshot) -> Self {
        Self {
            synthesis: QuantizedPredictor::quantize(&snapshot.synthesis),
            placement: QuantizedPredictor::quantize(&snapshot.placement),
            routing: QuantizedPredictor::quantize(&snapshot.routing),
            sta: QuantizedPredictor::quantize(&snapshot.sta),
        }
    }

    /// Reconstruct a float snapshot from the dequantized weights — the
    /// warm start used when retraining from a quantized base.
    #[must_use]
    pub fn dequantize(&self) -> ModelSnapshot {
        ModelSnapshot::new(
            self.synthesis.dequantize(),
            self.placement.dequantize(),
            self.routing.dequantize(),
            self.sta.dequantize(),
        )
    }

    /// The predictor for stage index `k` (see [`STAGE_NAMES`]).
    ///
    /// # Panics
    ///
    /// Panics if `k >= 4`.
    #[must_use]
    pub fn stage(&self, k: usize) -> &QuantizedPredictor {
        match k {
            0 => &self.synthesis,
            1 => &self.placement,
            2 => &self.routing,
            3 => &self.sta,
            _ => panic!("stage index {k} out of range"),
        }
    }

    /// Batched prediction over every stage — same contract and worker
    /// invariance as [`ModelSnapshot::predict_batches`], running the
    /// int8 kernels.
    #[must_use]
    pub fn predict_batches(
        &self,
        aig: &GraphBatch,
        netlist: &GraphBatch,
        workers: usize,
    ) -> Vec<[[f64; 4]; 4]> {
        predict_stages(aig, netlist, workers, |k, batch| self.stage(k).predict_secs_batch(batch))
    }
}

/// A snapshot in either numeric format, as stored and served by the
/// [`ModelRegistry`]: the float predictors a trainer produces, or
/// their int8 quantized replica. Everything downstream of the registry
/// — the server, the lifecycle controller's canary router — dispatches
/// through this enum, so a quantized candidate flows through the exact
/// code path of a float one.
#[derive(Debug, Clone)]
pub enum ServingSnapshot {
    /// Full-precision `f64` predictors.
    Float(ModelSnapshot),
    /// Int8 fixed-point predictors.
    Int8(QuantizedSnapshot),
}

impl From<ModelSnapshot> for ServingSnapshot {
    fn from(s: ModelSnapshot) -> Self {
        ServingSnapshot::Float(s)
    }
}

impl From<QuantizedSnapshot> for ServingSnapshot {
    fn from(s: QuantizedSnapshot) -> Self {
        ServingSnapshot::Int8(s)
    }
}

impl ServingSnapshot {
    /// A float snapshot in either case: a clone of the float variant,
    /// or the dequantized reconstruction of the int8 one — the warm
    /// start a retraining loop needs regardless of what is deployed.
    #[must_use]
    pub fn to_float(&self) -> ModelSnapshot {
        match self {
            ServingSnapshot::Float(s) => s.clone(),
            ServingSnapshot::Int8(s) => s.dequantize(),
        }
    }

    /// Dispatching [`ModelSnapshot::predict_batches`] /
    /// [`QuantizedSnapshot::predict_batches`].
    #[must_use]
    pub fn predict_batches(
        &self,
        aig: &GraphBatch,
        netlist: &GraphBatch,
        workers: usize,
    ) -> Vec<[[f64; 4]; 4]> {
        match self {
            ServingSnapshot::Float(s) => s.predict_batches(aig, netlist, workers),
            ServingSnapshot::Int8(s) => s.predict_batches(aig, netlist, workers),
        }
    }
}

/// Canary rollout state: the candidate version and the deterministic
/// routing fraction (every `every`-th request ordinal goes to the
/// candidate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanaryState {
    /// Candidate snapshot version.
    pub version: u32,
    /// Route ordinals where `ordinal % every == 0` to the candidate.
    pub every: u64,
}

/// Versioned snapshot store for the one served model. Publishing bumps
/// the version; lookups resolve a pinned version. The registry tracks a
/// **primary** version (what baseline traffic sees) and an optional
/// **canary** — a candidate version receiving a deterministic slice of
/// requests until it is promoted or rolled back.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    versions: Vec<ServingSnapshot>,
    /// 0 until the first publish.
    primary: u32,
    canary: Option<CanaryState>,
}

impl ModelRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a snapshot; returns its version (1-based, monotonically
    /// increasing). The first publish becomes the primary; later
    /// publishes leave the primary untouched until an explicit
    /// [`ModelRegistry::promote`]. Accepts a float [`ModelSnapshot`],
    /// an int8 [`QuantizedSnapshot`], or a [`ServingSnapshot`] directly.
    pub fn publish(&mut self, snapshot: impl Into<ServingSnapshot>) -> u32 {
        self.versions.push(snapshot.into());
        let version = self.versions.len() as u32;
        if self.primary == 0 {
            self.primary = version;
        }
        version
    }

    /// A pinned version's snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] if the version does not
    /// exist.
    pub fn get(&self, version: u32) -> Result<&ServingSnapshot, ServeError> {
        version
            .checked_sub(1)
            .and_then(|i| self.versions.get(i as usize))
            .ok_or_else(|| ServeError::UnknownModel {
                name: format!("v{version}"),
            })
    }

    /// The primary snapshot and its version — what baseline
    /// (non-canary) traffic is served from.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] if nothing was published.
    pub fn primary(&self) -> Result<(u32, &ServingSnapshot), ServeError> {
        Ok((self.primary, self.get(self.primary)?))
    }

    /// Start a canary: route every `every`-th request ordinal to
    /// snapshot `version`. Replaces any in-flight canary.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] if `version` does not
    /// exist, or [`ServeError::Snapshot`] if `every == 0` or the
    /// candidate is already the primary.
    pub fn set_canary(&mut self, version: u32, every: u64) -> Result<(), ServeError> {
        if every == 0 {
            return Err(ServeError::Snapshot {
                message: "canary `every` must be > 0".into(),
            });
        }
        let _ = self.get(version)?;
        if version == self.primary {
            return Err(ServeError::Snapshot {
                message: format!("v{version} is already primary"),
            });
        }
        self.canary = Some(CanaryState { version, every });
        Ok(())
    }

    /// The in-flight canary, if any.
    #[must_use]
    pub fn canary(&self) -> Option<CanaryState> {
        self.canary
    }

    /// Abort the canary (rollback); baseline traffic was never moved,
    /// so this only stops the candidate's request slice. Returns the
    /// aborted state, or `None` if no canary was in flight.
    pub fn clear_canary(&mut self) -> Option<CanaryState> {
        self.canary.take()
    }

    /// Promote `version` to primary, clearing any canary.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] if `version` does not
    /// exist.
    pub fn promote(&mut self, version: u32) -> Result<(), ServeError> {
        let _ = self.get(version)?;
        self.primary = version;
        self.canary = None;
        Ok(())
    }

    /// Resolve the snapshot serving request `ordinal`: the canary
    /// candidate when one is in flight and `ordinal % every == 0`, the
    /// primary otherwise. Deterministic in `ordinal`, so the same
    /// request stream always splits the same way.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] if nothing was published.
    pub fn route(&self, ordinal: u64) -> Result<(u32, &ServingSnapshot), ServeError> {
        if let Some(state) = self.canary {
            if ordinal.is_multiple_of(state.every) {
                return Ok((state.version, self.get(state.version)?));
            }
        }
        self.primary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_gcn::GraphSample;
    use eda_cloud_netlist::{generators, DesignGraph};

    fn sample() -> GraphSample {
        let g = DesignGraph::from_aig(&generators::adder(4));
        GraphSample::new(&g, [1.0; 4])
    }

    #[test]
    fn snapshot_text_roundtrip_is_bit_identical() {
        let snap = ModelSnapshot::seeded(&ModelConfig::fast(), 7);
        let text = snap.to_text();
        let loaded = ModelSnapshot::from_text(&text).expect("parses");
        assert_eq!(
            loaded.to_text(),
            text,
            "canonical bytes survive the round trip"
        );
        let s = sample();
        for k in 0..4 {
            assert_eq!(
                loaded.stage(k).predict_log(&s),
                snap.stage(k).predict_log(&s),
                "stage {k} predictions must be bit-identical"
            );
        }
    }

    #[test]
    fn snapshot_rejects_malformed_documents() {
        assert!(ModelSnapshot::from_text("nonsense").is_err());
        let snap = ModelSnapshot::seeded(&ModelConfig::fast(), 1);
        let text = snap.to_text();
        let truncated = &text[..text.len() / 2];
        assert!(ModelSnapshot::from_text(truncated).is_err());
        let swapped = text.replace("stage placement", "stage routing");
        let e = ModelSnapshot::from_text(&swapped).unwrap_err();
        assert!(e.to_string().contains("placement"), "{e}");
    }

    #[test]
    fn snapshot_checksum_footer_guards_the_document() {
        let snap = ModelSnapshot::seeded(&ModelConfig::fast(), 2);
        let text = snap.to_text();
        assert!(text.ends_with('\n'));
        let footer = text.lines().last().expect("non-empty");
        assert!(
            footer.starts_with("checksum "),
            "canonical text ends with the footer: {footer}"
        );

        // Missing footer, corrupted footer, and trailing bytes are all
        // typed errors.
        let without = text
            .strip_suffix(&format!("{footer}\n"))
            .expect("footer is last");
        let e = ModelSnapshot::from_text(without).unwrap_err();
        assert!(e.to_string().contains("checksum"), "{e}");
        let e = ModelSnapshot::from_text(&format!("{text}extra\n")).unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
        let zeroed = text.replace(footer, "checksum 0000000000000000");
        let e = ModelSnapshot::from_text(&zeroed).unwrap_err();
        assert!(e.to_string().contains("mismatch"), "{e}");

        // A digit substitution in the body (which still parses as a
        // number) is caught by the digest even though the structure is
        // intact.
        let body_end = text.len() - footer.len() - 1;
        let digit = text[..body_end]
            .rfind(['1', '2', '3'])
            .expect("a digit exists");
        let mut flipped = text.into_bytes();
        flipped[digit] = if flipped[digit] == b'1' { b'7' } else { b'1' };
        let flipped = String::from_utf8(flipped).expect("ascii-safe edit");
        assert!(
            ModelSnapshot::from_text(&flipped).is_err(),
            "bit rot must not load"
        );
    }

    #[test]
    fn registry_versions_and_lookups() {
        let mut reg = ModelRegistry::new();
        assert!(reg.get(1).is_err());
        assert!(reg.primary().is_err() && reg.route(0).is_err());
        let v1 = reg.publish(ModelSnapshot::seeded(&ModelConfig::fast(), 1));
        let v2 = reg.publish(ModelSnapshot::seeded(&ModelConfig::fast(), 2));
        assert_eq!((v1, v2), (1, 2));
        let s = sample();
        let ServingSnapshot::Float(pinned) = reg.get(1).expect("v1 kept") else {
            panic!("float snapshot");
        };
        let fresh = ModelSnapshot::seeded(&ModelConfig::fast(), 1);
        assert_eq!(
            pinned.stage(0).predict_log(&s),
            fresh.stage(0).predict_log(&s)
        );
        assert!(reg.get(3).is_err());
        assert!(reg.get(0).is_err());
    }

    #[test]
    fn canary_routing_promote_and_rollback() {
        let mut reg = ModelRegistry::new();
        reg.publish(ModelSnapshot::seeded(&ModelConfig::fast(), 1));
        let v2 = reg.publish(ModelSnapshot::seeded(&ModelConfig::fast(), 2));
        // First publish is primary; the second is not until promoted.
        assert_eq!(reg.primary().expect("primary").0, 1);
        assert!(reg.canary().is_none());

        // Invalid canaries are typed errors.
        assert!(reg.set_canary(v2, 0).is_err());
        assert!(reg.set_canary(9, 4).is_err());
        assert!(
            reg.set_canary(1, 4).is_err(),
            "primary can't canary itself"
        );

        reg.set_canary(v2, 4).expect("canary starts");
        assert_eq!(
            reg.canary(),
            Some(CanaryState {
                version: 2,
                every: 4
            })
        );
        // Deterministic split: multiples of `every` hit the candidate.
        for ordinal in 0..12u64 {
            let (version, _) = reg.route(ordinal).expect("routes");
            assert_eq!(
                version,
                if ordinal % 4 == 0 { 2 } else { 1 },
                "ordinal {ordinal}"
            );
        }

        // Rollback: candidate slice stops, primary unchanged.
        let aborted = reg.clear_canary().expect("was in flight");
        assert_eq!(aborted.version, 2);
        assert_eq!(reg.route(0).expect("routes").0, 1);

        // Promote: primary moves, canary (restarted first) clears.
        reg.set_canary(v2, 4).expect("canary restarts");
        reg.promote(v2).expect("promotes");
        assert_eq!(reg.primary().expect("primary").0, 2);
        assert!(reg.canary().is_none());
        assert_eq!(reg.route(3).expect("routes").0, 2);
        assert!(reg.promote(9).is_err());
    }

    #[test]
    fn batched_predictions_are_worker_invariant() {
        let snap = ModelSnapshot::seeded(&ModelConfig::fast(), 3);
        let samples: Vec<GraphSample> = ["adder", "parity", "max"]
            .iter()
            .map(|f| {
                let aig = generators::build_family(f, 5).expect("family");
                GraphSample::new(&DesignGraph::from_aig(&aig), [1.0; 4])
            })
            .collect();
        let refs: Vec<&GraphSample> = samples.iter().collect();
        let batch = GraphBatch::pack(&refs);
        let one = snap.predict_batches(&batch, &batch, 1);
        for workers in [2usize, 4, 8] {
            assert_eq!(
                snap.predict_batches(&batch, &batch, workers),
                one,
                "workers {workers}"
            );
        }
        // And each row matches the unbatched per-stage prediction.
        for (i, s) in samples.iter().enumerate() {
            for (k, stage_pred) in one[i].iter().enumerate() {
                assert_eq!(*stage_pred, snap.stage(k).predict_secs(s));
            }
        }
    }

    #[test]
    fn int8_needs_no_format_of_its_own() {
        // Quantization is a pure function of the float weights and the
        // float text round-trips bit-exactly, so an int8 snapshot
        // rebuilt from stored float text is the int8 snapshot.
        let pool = crate::design_pool();
        let aig: Vec<&GraphSample> = pool.iter().map(|d| &d.aig).collect();
        let netlist: Vec<&GraphSample> = pool.iter().map(|d| &d.netlist).collect();
        let (aig, netlist) = (GraphBatch::pack(&aig), GraphBatch::pack(&netlist));
        for (config, seed) in [(ModelConfig::fast(), 11), (ModelConfig::paper(), 12)] {
            let float = ModelSnapshot::seeded(&config, seed);
            let direct = QuantizedSnapshot::quantize(&float);
            let reloaded = ModelSnapshot::from_text(&float.to_text()).expect("parses");
            let derived = QuantizedSnapshot::quantize(&reloaded);
            assert_eq!(derived, direct, "codes and scales survive the float text");
            for workers in [1usize, 2] {
                assert_eq!(
                    derived.predict_batches(&aig, &netlist, workers),
                    direct.predict_batches(&aig, &netlist, workers),
                    "workers {workers}"
                );
            }
        }
    }

    #[test]
    fn quantized_batched_predictions_are_worker_invariant() {
        let float = ModelSnapshot::seeded(&ModelConfig::fast(), 5);
        let snap = QuantizedSnapshot::quantize(&float);
        let samples: Vec<GraphSample> = ["adder", "parity", "multiplier"]
            .iter()
            .map(|f| {
                let aig = generators::build_family(f, 5).expect("family");
                GraphSample::new(&DesignGraph::from_aig(&aig), [1.0; 4])
            })
            .collect();
        let refs: Vec<&GraphSample> = samples.iter().collect();
        let batch = GraphBatch::pack(&refs);
        let one = snap.predict_batches(&batch, &batch, 1);
        for workers in [2usize, 4, 8] {
            assert_eq!(
                snap.predict_batches(&batch, &batch, workers),
                one,
                "workers {workers}"
            );
        }
        for row in &one {
            for stage in row {
                assert!(stage.iter().all(|v| v.is_finite() && *v > 0.0));
            }
        }
    }

    #[test]
    fn serving_snapshot_to_float_and_registry_hold_both_variants() {
        let float = ModelSnapshot::seeded(&ModelConfig::fast(), 6);
        let quant = QuantizedSnapshot::quantize(&float);
        let sf = ServingSnapshot::from(float.clone());
        let sq = ServingSnapshot::from(quant.clone());
        assert!(matches!(sf, ServingSnapshot::Float(_)) && matches!(sq, ServingSnapshot::Int8(_)));

        // to_float: identity for floats, dequantize for int8 — and
        // re-quantizing the dequantized weights reproduces the codes.
        assert_eq!(sf.to_float().to_text(), float.to_text());
        assert_eq!(QuantizedSnapshot::quantize(&sq.to_float()), quant);

        // A registry holds both variants side by side.
        let mut reg = ModelRegistry::new();
        let v1 = reg.publish(float);
        let v2 = reg.publish(quant);
        assert!(matches!(reg.get(v1), Ok(ServingSnapshot::Float(_))));
        assert!(matches!(reg.get(v2), Ok(ServingSnapshot::Int8(_))));
    }
}
