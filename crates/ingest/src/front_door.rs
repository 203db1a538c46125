//! The front door: format dispatch, the full pipeline, and the
//! [`Ingestor`] implementation the server mounts.
//!
//! One call to [`FrontDoor::ingest_doc`] takes an untrusted
//! [`UploadDoc`] through byte quotas → parse → validate → size quotas
//! → canonical order → featurize → OOD score, producing a byte-stable
//! [`IngestReport`] and a servable [`ServeDesign`]. The design's
//! fingerprint is computed under a constant internal name, so it
//! depends only on the canonical structure — two uploads of the same
//! circuit under different names share one result-cache entry.

use crate::blif::parse_blif;
use crate::bookshelf::parse_bookshelf;
use crate::error::IngestError;
use crate::ood::OodGate;
use crate::pipeline::{canonical_order, validate, IngestQuotas, IngestReport};
use crate::verilog::parse_verilog;
use eda_cloud_gcn::{FeatureProfile, GraphSample};
use eda_cloud_netlist::{DesignGraph, Netlist};
use eda_cloud_serve::{design_pool, IngestOutcome, IngestSummary, Ingestor, ServeDesign, UploadDoc};
use eda_cloud_tech::Library;
use std::sync::Arc;

/// Admission and flagging knobs for the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontDoorConfig {
    /// Size/degree ceilings enforced on every upload.
    pub quotas: IngestQuotas,
    /// OOD flagging threshold in integer micros (`1_000_000` = one
    /// corpus deviation). Flagged designs are still served.
    pub ood_threshold_micros: u64,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        Self { quotas: IngestQuotas::default(), ood_threshold_micros: 3_000_000 }
    }
}

/// The production [`Ingestor`]: parsers + pipeline + OOD gate bound to
/// one cell library and one training-corpus profile. Stateless per
/// upload, so outcomes are pure functions of document content — the
/// contract the server's ingest cache relies on.
pub struct FrontDoor {
    lib: Library,
    config: FrontDoorConfig,
    gate: OodGate,
}

impl FrontDoor {
    /// Bind to an explicit corpus profile.
    #[must_use]
    pub fn new(profile: FeatureProfile, config: FrontDoorConfig) -> Self {
        Self {
            lib: Library::synthetic_14nm(),
            gate: OodGate::new(profile, config.ood_threshold_micros),
            config,
        }
    }

    /// Bind to the profile of the server's synthetic design pool — the
    /// same corpus the serving GCN trains on.
    #[must_use]
    pub fn with_pool_profile(config: FrontDoorConfig) -> Self {
        let pool = design_pool();
        let views: Vec<GraphSample> = pool.iter().map(|d| d.netlist.clone()).collect();
        Self::new(FeatureProfile::from_samples(&views), config)
    }

    /// Run the full pipeline on one upload.
    ///
    /// # Errors
    ///
    /// Returns the typed [`IngestError`] for the first stage that
    /// rejects: byte quota, parse, validation, size quota, or an
    /// unknown format tag.
    pub fn ingest_doc(
        &self,
        doc: &UploadDoc,
    ) -> Result<(IngestReport, Arc<ServeDesign>), IngestError> {
        self.config.quotas.check_bytes(&doc.text)?;
        let shape = match doc.format.as_str() {
            "blif" => self.netlist_shape(parse_blif(&doc.text, &self.lib)?.swap_remove(0))?,
            "verilog" => self.netlist_shape(parse_verilog(&doc.text, &self.lib)?)?,
            "bookshelf" => {
                let design = parse_bookshelf(&doc.name, &doc.text)?;
                let nodes = design.nodes.len() as u64;
                self.config.quotas.check_graph(nodes, design.max_degree() as u64)?;
                let graph = design.to_graph();
                let (pis, pos) = {
                    let g = &graph;
                    let term = |i: usize| design.nodes[i].terminal;
                    let fanin = |i: usize| g.in_neighbors(i).len();
                    let (mut pis, mut pos) = (0u64, 0u64);
                    for i in 0..design.nodes.len() {
                        if term(i) {
                            if fanin(i) == 0 {
                                pis += 1;
                            } else {
                                pos += 1;
                            }
                        }
                    }
                    (pis, pos)
                };
                let cells = design.nodes.iter().filter(|n| !n.terminal).count() as u64;
                Shape { graph, pis, pos, cells, registers: 0, depth: 0 }
            }
            other => return Err(IngestError::UnknownFormat { format: other.to_owned() }),
        };
        let view = GraphSample::new(&shape.graph, [1.0; 4]);
        let (ood_distance_micros, ood) = self.gate.score(&view);
        // Constant internal name: the fingerprint sees only canonical
        // structure, never the client-supplied name.
        let mut design = ServeDesign::new("ingest", view.clone(), view);
        design.name.clone_from(&doc.name);
        let report = IngestReport {
            name: doc.name.clone(),
            format: doc.format.clone(),
            upload_bytes: doc.text.len() as u64,
            fingerprint: design.fingerprint,
            nodes: shape.graph.node_count() as u64,
            edges: shape.graph.edge_count() as u64,
            pis: shape.pis,
            pos: shape.pos,
            cells: shape.cells,
            registers: shape.registers,
            depth: shape.depth,
            ood_distance_micros,
            ood,
        };
        Ok((report, Arc::new(design)))
    }

    /// Validate, size-check, canonicalize, and featurize a parsed
    /// netlist (BLIF and Verilog share this tail). Canonicalization
    /// yields an order, not a renamed netlist: the graph is built from
    /// `nl` in that order, equal to the graph of the rebuilt netlist.
    fn netlist_shape(&self, nl: Netlist) -> Result<Shape, IngestError> {
        validate(&nl)?;
        let nodes =
            (nl.cell_count() + nl.primary_inputs().len() + nl.primary_outputs().len()) as u64;
        let degree = nl.nets().iter().map(|n| n.sinks.len()).max().unwrap_or(0) as u64;
        self.config.quotas.check_graph(nodes, degree)?;
        let (order, level) = canonical_order(&nl)?;
        let registers = nl.cells().iter().filter(|c| c.kind.is_sequential()).count() as u64;
        Ok(Shape {
            graph: DesignGraph::from_netlist_in_order(&nl, &order, &level),
            pis: nl.primary_inputs().len() as u64,
            pos: nl.primary_outputs().len() as u64,
            cells: nl.cell_count() as u64,
            registers,
            depth: u64::from(level.iter().copied().max().unwrap_or(0)),
        })
    }
}

/// What every format reduces to before featurization.
struct Shape {
    graph: DesignGraph,
    pis: u64,
    pos: u64,
    cells: u64,
    registers: u64,
    depth: u64,
}

impl Ingestor for FrontDoor {
    fn ingest(&self, doc: &UploadDoc) -> IngestOutcome {
        match self.ingest_doc(doc) {
            Ok((report, design)) => IngestOutcome::Accepted(IngestSummary {
                design,
                nodes: report.nodes,
                ood_distance_micros: report.ood_distance_micros,
                ood: report.ood,
            }),
            Err(e) => IngestOutcome::Rejected { reason: e.to_string() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use eda_cloud_netlist::NetSink;

    fn door() -> FrontDoor {
        FrontDoor::with_pool_profile(FrontDoorConfig::default())
    }

    #[test]
    fn every_fixture_ingests_end_to_end() {
        let door = door();
        for doc in fixtures::uploads() {
            let (report, design) = door
                .ingest_doc(&doc)
                .unwrap_or_else(|e| panic!("fixture {} rejected: {e}", doc.name));
            assert_eq!(report.name, doc.name);
            assert!(report.nodes > 0, "{}", doc.name);
            assert!(report.fingerprint == design.fingerprint);
            assert_eq!(design.name, doc.name);
        }
    }

    #[test]
    fn fingerprints_are_layout_stable_across_names() {
        let door = door();
        let a = UploadDoc::new(
            "mine",
            "blif",
            ".model mine\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n",
        );
        let b = UploadDoc::new(
            "theirs",
            "blif",
            ".model theirs\n.inputs l r\n.outputs o\n.names l r o\n11 0\n.end\n",
        );
        let (ra, da) = door.ingest_doc(&a).expect("a");
        let (rb, db) = door.ingest_doc(&b).expect("b");
        assert_eq!(da.fingerprint, db.fingerprint, "structure is the identity");
        assert_eq!(ra.fingerprint, rb.fingerprint);
        assert_ne!(da.name, db.name, "names stay client-facing");
    }

    #[test]
    fn rejections_carry_the_typed_reason() {
        let door = door();
        let outcome = door.ingest(&UploadDoc::new("bad", "blif", ".model m\n.subckt x a=b\n"));
        let IngestOutcome::Rejected { reason } = outcome else {
            panic!("hostile upload accepted");
        };
        assert!(reason.contains("unsupported construct at line 2"), "{reason}");
        let outcome = door.ingest(&UploadDoc::new("bad", "edif", "(edif)"));
        let IngestOutcome::Rejected { reason } = outcome else {
            panic!("unknown format accepted");
        };
        assert!(reason.contains("edif"), "{reason}");
    }

    #[test]
    fn quotas_reject_before_expensive_work() {
        let tiny = FrontDoorConfig {
            quotas: IngestQuotas { max_bytes: 16, max_nodes: 4, max_degree: 1 },
            ..FrontDoorConfig::default()
        };
        let door = FrontDoor::with_pool_profile(tiny);
        let doc = UploadDoc::new("c17", "blif", fixtures::C17_BLIF);
        let e = door.ingest_doc(&doc).unwrap_err();
        assert!(matches!(e, IngestError::Quota { what: "bytes", .. }), "{e}");
        let roomy = FrontDoorConfig {
            quotas: IngestQuotas { max_bytes: 1 << 20, max_nodes: 4, max_degree: 1_024 },
            ..FrontDoorConfig::default()
        };
        let e = FrontDoor::with_pool_profile(roomy).ingest_doc(&doc).unwrap_err();
        assert!(matches!(e, IngestError::Quota { what: "nodes", .. }), "{e}");
    }

    /// Differential: the in-order graph against the path it replaced —
    /// the netlist rebuilt under canonical names, then featurized —
    /// over every netlist `validate` accepts among the fixtures, the
    /// mutants and 200 soups of `corpus::texts()`, and all 500
    /// `gate_soup` seeds as built and as written to BLIF and Verilog.
    #[test]
    fn the_in_order_graph_is_the_rebuilt_netlists_graph() {
        use crate::upload_gen::gate_soup;
        use crate::{blif::parse_blif, pipeline::canonicalize, verilog::parse_verilog};
        use eda_cloud_netlist::formats::{write_blif, write_verilog};
        let (door, lib) = (door(), Library::synthetic_14nm());
        let (mut checked, mut shared_nets) = (0, 0);
        let mut check = |nl: Netlist, what: &dyn std::fmt::Debug| {
            if validate(&nl).is_err() {
                return;
            }
            let canon = canonicalize(&nl, &lib).expect("validated netlists canonicalize");
            let oracle = DesignGraph::from_netlist(&canon);
            // A net feeding both cells and POs is where the sink order shows.
            let mixed = |net: &eda_cloud_netlist::Net| {
                let po = |s: &NetSink| matches!(s, NetSink::PrimaryOutput(_));
                net.sinks.iter().any(po) && !net.sinks.iter().all(po)
            };
            shared_nets += canon.nets().iter().filter(|n| mixed(n)).count();
            let registers = canon.cells().iter().filter(|c| c.kind.is_sequential()).count();
            let shape = door.netlist_shape(nl).expect("validated netlists pass the quotas");
            assert!(shape.graph == oracle, "{what:?}");
            let bits =
                |g: &DesignGraph| g.features().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&shape.graph), bits(&oracle), "{what:?}");
            assert_eq!(shape.depth, canon.depth() as u64, "{what:?}");
            let counts = [canon.primary_inputs().len(), canon.primary_outputs().len()];
            let counts = [counts[0], counts[1], canon.cell_count(), registers].map(|n| n as u64);
            assert_eq!([shape.pis, shape.pos, shape.cells, shape.registers], counts, "{what:?}");
            checked += 1;
        };
        for text in crate::corpus::texts() {
            for nl in parse_blif(&text, &lib).into_iter().flatten() {
                check(nl, &text);
            }
            if let Ok(nl) = parse_verilog(&text, &lib) {
                check(nl, &text);
            }
        }
        for seed in 0..500 {
            let nl = gate_soup(seed);
            let blif = parse_blif(&write_blif(&nl, &lib), &lib).expect("soup BLIF parses");
            let verilog = parse_verilog(&write_verilog(&nl, &lib), &lib).expect("soup parses");
            check(nl, &seed);
            check(blif.into_iter().next().expect("one model"), &seed);
            check(verilog, &seed);
        }
        assert!(checked > 25_000, "{checked} netlists validated");
        assert!(shared_nets > 0, "no net fed both cells and POs");
    }

    #[test]
    fn bookshelf_uploads_score_far_from_the_netlist_corpus() {
        let door = door();
        let doc = UploadDoc::new("tiny", "bookshelf", fixtures::stitch_bookshelf(
            fixtures::TINY_NODES,
            fixtures::TINY_NETS,
            Some(fixtures::TINY_PL),
        ));
        let (report, _) = door.ingest_doc(&doc).expect("ingests");
        assert_eq!(report.format, "bookshelf");
        assert_eq!(report.depth, 0);
        assert!(report.ood_distance_micros > 0);
    }
}
