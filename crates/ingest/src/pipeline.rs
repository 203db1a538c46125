//! Validation, canonicalization, and the byte-stable ingest report.
//!
//! Order of operations for a netlist-shaped upload:
//!
//! 1. **Byte quota** — checked against the raw text before any parse.
//! 2. **Parse** — format-specific, positioned errors (`blif`/`verilog`).
//! 3. **Validate** — structural `check()` (undriven nets, dangling
//!    references, combinational loops) plus arity and floating-net
//!    lints the builder cannot catch.
//! 4. **Size quotas** — node count and max net degree after parsing,
//!    so a hostile upload cannot smuggle a huge graph past admission.
//! 5. **Canonicalize** — a deterministic structural cell order, so two
//!    uploads of the same circuit under different names produce
//!    byte-identical downstream artifacts. The front door builds the
//!    GCN graph in that order; [`canonicalize`] rebuilds the netlist
//!    under it.
//!
//! Every rejection is a typed [`IngestError`]; nothing in this module
//! panics on user input.

use crate::error::IngestError;
use crate::text::numbered;
use eda_cloud_netlist::{CellId, NetDriver, NetId, Netlist};
use eda_cloud_tech::{CellKind, Library};
use eda_cloud_trace::json::escape;
use std::collections::HashMap;

/// Admission ceilings enforced on every upload. Byte quota applies to
/// the raw text before parsing; node/degree quotas apply to the parsed
/// design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestQuotas {
    /// Maximum raw upload size in bytes.
    pub max_bytes: u64,
    /// Maximum graph nodes (cells + PIs + POs).
    pub max_nodes: u64,
    /// Maximum sinks on any single net.
    pub max_degree: u64,
}

impl Default for IngestQuotas {
    fn default() -> Self {
        Self { max_bytes: 1 << 20, max_nodes: 50_000, max_degree: 1_024 }
    }
}

impl IngestQuotas {
    /// Enforce the byte ceiling on raw upload text.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::Quota`] when the text is over the limit.
    pub fn check_bytes(&self, text: &str) -> Result<(), IngestError> {
        let got = text.len() as u64;
        if got > self.max_bytes {
            return Err(IngestError::Quota { what: "bytes", got, limit: self.max_bytes });
        }
        Ok(())
    }

    /// Enforce the parsed-design ceilings.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::Quota`] naming the violated dimension.
    pub fn check_graph(&self, nodes: u64, max_degree: u64) -> Result<(), IngestError> {
        if nodes > self.max_nodes {
            return Err(IngestError::Quota { what: "nodes", got: nodes, limit: self.max_nodes });
        }
        if max_degree > self.max_degree {
            return Err(IngestError::Quota {
                what: "degree",
                got: max_degree,
                limit: self.max_degree,
            });
        }
        Ok(())
    }
}

/// Structural validation beyond what the netlist builder enforces:
/// `check()` (undriven nets, dangling references, combinational
/// loops), per-cell input arity, and floating nets (driven but with no
/// sink and not a primary output — dead logic that would silently skew
/// the GCN's fanout features).
///
/// # Errors
///
/// Returns [`IngestError::Validation`] describing the first violated
/// invariant.
pub fn validate(nl: &Netlist) -> Result<(), IngestError> {
    nl.check()?;
    for cell in nl.cells() {
        let expected = match cell.kind {
            // DFFs carry D plus CK; `input_count` counts data pins.
            CellKind::Dff => 2,
            other => other.input_count(),
        };
        if cell.inputs.len() != expected {
            return Err(IngestError::Validation {
                message: format!(
                    "cell `{}` ({}) has {} inputs, expected {expected}",
                    cell.name,
                    cell.kind,
                    cell.inputs.len()
                ),
            });
        }
    }
    // A primary output is itself a sink, so a net without sinks is not one.
    if let Some(net) = nl.nets().iter().find(|net| net.sinks.is_empty()) {
        return Err(IngestError::Validation {
            message: format!("net `{}` floats: no sinks and not a primary output", net.name),
        });
    }
    Ok(())
}

/// Rebuild `nl` with deterministic structural names so layout-identical
/// uploads become byte-identical designs: PIs become `p{i}` (interface
/// order), cell output nets `n{i}` and cells `g{i}` in a structural
/// order — sorted by `(logic level, master, fanin count, fanout,
/// original index)` — and POs become `o{i}` (interface order). Must be
/// called after [`validate`]; the cell order is build-safe because all
/// nets are created before any cell claims its driver slot. The front
/// door never rebuilds: it reads the order and builds the GCN graph
/// from `nl` directly ([`DesignGraph::from_netlist_in_order`]).
///
/// # Errors
///
/// Returns [`IngestError::Validation`] if the netlist has a
/// combinational cycle (callers running [`validate`] first never see
/// this).
///
/// [`DesignGraph::from_netlist_in_order`]: eda_cloud_netlist::DesignGraph::from_netlist_in_order
pub fn canonicalize(nl: &Netlist, lib: &Library) -> Result<Netlist, IngestError> {
    let (order, _) = canonical_order(nl)?;
    let mut out = Netlist::new(nl.name(), lib.name());
    let mut net_map: Vec<NetId> = vec![NetId::MAX; nl.nets().len()];
    for (i, &pi) in nl.primary_inputs().iter().enumerate() {
        net_map[pi as usize] = out.add_input(numbered("p", i));
    }
    for (i, &ci) in order.iter().enumerate() {
        let onet = nl.cells()[ci as usize].output as usize;
        net_map[onet] = out.add_net(numbered("n", i));
    }
    for (i, &ci) in order.iter().enumerate() {
        let cell = &nl.cells()[ci as usize];
        let inputs: Vec<NetId> = cell.inputs.iter().map(|&n| net_map[n as usize]).collect();
        out.add_cell(
            numbered("g", i),
            cell.cell_name.clone(),
            cell.kind,
            inputs,
            net_map[cell.output as usize],
        );
    }
    for (i, (_, net)) in nl.primary_outputs().iter().enumerate() {
        out.add_output(numbered("o", i), net_map[*net as usize]);
    }
    Ok(out)
}

/// The structural order [`canonicalize`] numbers cells in, and every
/// cell's logic level (indexed by [`CellId`]): one topological sort and
/// one sort of integer keys.
///
/// # Errors
///
/// As [`canonicalize`].
pub(crate) fn canonical_order(nl: &Netlist) -> Result<(Vec<CellId>, Vec<u32>), IngestError> {
    let level = levels(nl)?;
    Ok((structural_order(nl, &level), level))
}

/// Combinational logic level of every cell, as in [`Netlist::depth`].
fn levels(nl: &Netlist) -> Result<Vec<u32>, IngestError> {
    let mut level = vec![0u32; nl.cell_count()];
    for cid in nl.topological_cells()? {
        let cell = &nl.cells()[cid as usize];
        if cell.kind.is_sequential() {
            continue;
        }
        let mut l = 0;
        for &inet in &cell.inputs {
            if let Some(NetDriver::Cell(d)) = nl.nets()[inet as usize].driver {
                if !nl.cells()[d as usize].kind.is_sequential() {
                    l = l.max(level[d as usize] + 1);
                }
            }
        }
        level[cid as usize] = l.max(1);
    }
    Ok(level)
}

/// Cell indices sorted by `(level, master name, fan-in, fan-out, index)`.
/// The sort compares one integer per cell: a master's rank among the
/// distinct master names orders exactly as the names themselves do, so
/// it stands in for the string, and the index makes every key distinct.
fn structural_order(nl: &Netlist, level: &[u32]) -> Vec<CellId> {
    let mut first_seen: HashMap<&str, u32> = HashMap::new();
    let master_of: Vec<u32> = (nl.cells().iter())
        .map(|cell| {
            let next = first_seen.len() as u32;
            *first_seen.entry(&cell.cell_name).or_insert(next)
        })
        .collect();
    let mut by_name: Vec<(&str, u32)> = first_seen.into_iter().collect();
    by_name.sort_unstable();
    let mut rank = vec![0u128; by_name.len()];
    for (r, &(_, seen)) in by_name.iter().enumerate() {
        rank[seen as usize] = r as u128;
    }
    let mut keys: Vec<(u128, u32)> = (nl.cells().iter().zip(level).zip(&master_of).enumerate())
        .map(|(i, ((cell, &level), &master))| {
            let fanout = nl.nets()[cell.output as usize].sinks.len();
            let key = u128::from(level) << 96
                | rank[master as usize] << 64
                | (cell.inputs.len() as u128 & 0xFFFF_FFFF) << 32
                | (fanout as u128 & 0xFFFF_FFFF);
            (key, i as u32)
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, i)| i).collect()
}

/// The byte-stable per-design record the front door emits: identity,
/// size, structure, and the OOD verdict. Field order in
/// [`IngestReport::to_json`] is fixed; floats never appear, so the
/// encoding is stable across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Client-supplied design name.
    pub name: String,
    /// Upload format tag (`"blif"`, `"verilog"`, `"bookshelf"`).
    pub format: String,
    /// Raw upload size in bytes.
    pub upload_bytes: u64,
    /// Structural fingerprint of the canonical design (name-independent).
    pub fingerprint: u64,
    /// Graph nodes served to the GCN.
    pub nodes: u64,
    /// Graph edges served to the GCN.
    pub edges: u64,
    /// Primary inputs (terminals with no fanin for Bookshelf).
    pub pis: u64,
    /// Primary outputs (terminals with fanin for Bookshelf).
    pub pos: u64,
    /// Cell instances (movable nodes for Bookshelf).
    pub cells: u64,
    /// Sequential elements.
    pub registers: u64,
    /// Combinational depth in cell levels (0 for Bookshelf).
    pub depth: u64,
    /// Distance from the training-corpus profile, in integer micros
    /// (1_000_000 = one corpus deviation).
    pub ood_distance_micros: u64,
    /// Whether the distance crossed the configured OOD threshold.
    pub ood: bool,
}

impl IngestReport {
    /// Encode with a fixed key order. Fingerprints render as
    /// zero-padded hex so the width is constant.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"format\":\"{}\",\"upload_bytes\":{},\"fingerprint\":\"{:016x}\",\"nodes\":{},\"edges\":{},\"pis\":{},\"pos\":{},\"cells\":{},\"registers\":{},\"depth\":{},\"ood_distance_micros\":{},\"ood\":{}}}",
            escape(&self.name),
            escape(&self.format),
            self.upload_bytes,
            self.fingerprint,
            self.nodes,
            self.edges,
            self.pis,
            self.pos,
            self.cells,
            self.registers,
            self.depth,
            self.ood_distance_micros,
            self.ood,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blif::parse_blif;
    use eda_cloud_netlist::formats::write_blif;
    use eda_cloud_tech::Library;

    fn lib() -> Library {
        Library::synthetic_14nm()
    }

    fn xor_blif(a: &str, b: &str, y: &str, model: &str) -> String {
        format!(
            ".model {model}\n.inputs {a} {b}\n.outputs {y}\n.names {a} {b} {y}\n10 1\n01 1\n.end\n"
        )
    }

    #[test]
    fn quotas_reject_with_typed_errors() {
        let q = IngestQuotas { max_bytes: 8, max_nodes: 10, max_degree: 2 };
        assert!(q.check_bytes("tiny").is_ok());
        let e = q.check_bytes("far too many bytes").unwrap_err();
        assert!(matches!(e, IngestError::Quota { what: "bytes", .. }), "{e}");
        assert!(q.check_graph(10, 2).is_ok());
        let e = q.check_graph(11, 1).unwrap_err();
        assert!(matches!(e, IngestError::Quota { what: "nodes", .. }), "{e}");
        let e = q.check_graph(5, 3).unwrap_err();
        assert!(matches!(e, IngestError::Quota { what: "degree", .. }), "{e}");
    }

    #[test]
    fn validate_catches_floating_nets_and_cycles() {
        let l = lib();
        // A gate output that feeds nothing and is not a PO.
        let floating = "\
.model f
.inputs a b
.outputs y
.names a b y
11 1
.names a b dead
10 1
.end
";
        let nl = &parse_blif(floating, &l).expect("parses")[0];
        let e = validate(nl).unwrap_err();
        assert!(e.to_string().contains("floats"), "{e}");
        // A combinational loop (x drives itself through two gates).
        let looped = "\
.model l
.inputs a
.outputs y
.names a u y
11 1
.names y u
1 1
.end
";
        let nl = &parse_blif(looped, &l).expect("parses")[0];
        let e = validate(nl).unwrap_err();
        assert!(matches!(e, IngestError::Validation { .. }), "{e}");
    }

    #[test]
    fn canonicalization_is_name_independent() {
        let l = lib();
        let first = &parse_blif(&xor_blif("a", "b", "y", "mine"), &l).expect("parses")[0];
        let second =
            &parse_blif(&xor_blif("left", "right", "out", "theirs"), &l).expect("parses")[0];
        validate(first).expect("valid");
        validate(second).expect("valid");
        let ca = canonicalize(first, &l).expect("canon");
        let cb = canonicalize(second, &l).expect("canon");
        // Identical structure, different names: after canonicalization
        // the BLIF dumps differ only in the `.model` header line.
        let body = |nl: &Netlist| {
            let dump = write_blif(nl, &Library::synthetic_14nm());
            dump.split_once('\n').map(|(_, rest)| rest.to_owned()).unwrap_or(dump)
        };
        assert_eq!(body(&ca), body(&cb));
        assert_ne!(ca.name(), cb.name(), "design names stay client-facing");
    }

    #[test]
    fn canonical_order_is_structural_not_textual() {
        let l = lib();
        // The same two-gate circuit written in both file orders.
        let fwd = "\
.model o
.inputs a b
.outputs y
.gate NAND2_X1 A=a B=b Y=w
.gate INV_X1 A=w Y=y
.end
";
        let rev = "\
.model o
.inputs a b
.outputs y
.gate INV_X1 A=w Y=y
.gate NAND2_X1 A=a B=b Y=w
.end
";
        let a = canonicalize(&parse_blif(fwd, &l).expect("parses")[0], &l).expect("canon");
        let b = canonicalize(&parse_blif(rev, &l).expect("parses")[0], &l).expect("canon");
        assert_eq!(write_blif(&a, &l), write_blif(&b, &l));
        // And the canonical netlist still simulates identically.
        let orig = &parse_blif(fwd, &l).expect("parses")[0];
        for (x, y) in [(false, false), (true, false), (true, true)] {
            let vo = orig.simulate(&[x, y]).expect("orig");
            let vc = a.simulate(&[x, y]).expect("canon");
            assert_eq!(vo, vc, "PO values under x={x} y={y}");
        }
    }

    #[test]
    fn integer_keys_sort_as_the_master_names_do() {
        use crate::upload_gen::gate_soup;
        use eda_cloud_tech::CellKind;
        // The comparator the integer keys replaced: a tuple rebuilt, and
        // two master names compared, per comparison.
        let by_names = |nl: &Netlist, level: &[u32]| {
            let mut order: Vec<u32> = (0..nl.cell_count() as u32).collect();
            order.sort_by(|&a, &b| {
                let key = |i: u32| {
                    let cell = &nl.cells()[i as usize];
                    let fanout = nl.nets()[cell.output as usize].sinks.len();
                    (level[i as usize], &cell.cell_name, cell.inputs.len(), fanout, i)
                };
                key(a).cmp(&key(b))
            });
            order
        };
        // One level, one fan-in, one fan-out: masters alone decide, and
        // they first appear in neither name order nor its reverse.
        let mut flat = Netlist::new("flat", "synth14");
        let a = flat.add_input("a");
        for (i, master) in ["NOR2_X1", "AND2_X2", "XOR2_X1", "AND2_X1", "NOR2_X1", "AND2_X2"]
            .into_iter()
            .enumerate()
        {
            let y = flat.add_net(format!("y{i}"));
            flat.add_cell(format!("u{i}"), master, CellKind::And2, vec![a, a], y);
            flat.add_output(format!("y{i}"), y);
        }
        let level = levels(&flat).expect("acyclic");
        assert_eq!(structural_order(&flat, &level), [3, 1, 5, 0, 4, 2]);
        assert_eq!(structural_order(&flat, &level), by_names(&flat, &level));
        for seed in 0..500 {
            let nl = gate_soup(seed);
            let level = levels(&nl).expect("soup is acyclic");
            assert_eq!(structural_order(&nl, &level), by_names(&nl, &level), "seed {seed}");
        }
    }

    #[test]
    fn reports_escape_what_the_client_named() {
        let mut r = IngestReport {
            name: "a\"b\\c\nd".into(),
            format: "bl\"if".into(),
            upload_bytes: 1,
            fingerprint: 2,
            nodes: 3,
            edges: 4,
            pis: 5,
            pos: 6,
            cells: 7,
            registers: 8,
            depth: 9,
            ood_distance_micros: 10,
            ood: true,
        };
        let json = r.to_json();
        assert!(json.starts_with(r#"{"name":"a\"b\\c\nd","format":"bl\"if","upload_bytes":1,"#), "{json}");
        assert!(!json.contains('\n'));
        // Names without specials are written as before.
        r.name = "c17".into();
        assert!(r.to_json().starts_with("{\"name\":\"c17\","));
    }

    #[test]
    fn reports_encode_with_fixed_key_order() {
        let r = IngestReport {
            name: "c17".into(),
            format: "blif".into(),
            upload_bytes: 123,
            fingerprint: 0xdead_beef,
            nodes: 17,
            edges: 20,
            pis: 5,
            pos: 2,
            cells: 10,
            registers: 0,
            depth: 3,
            ood_distance_micros: 750_000,
            ood: false,
        };
        assert_eq!(
            r.to_json(),
            "{\"name\":\"c17\",\"format\":\"blif\",\"upload_bytes\":123,\
\"fingerprint\":\"00000000deadbeef\",\"nodes\":17,\"edges\":20,\"pis\":5,\"pos\":2,\
\"cells\":10,\"registers\":0,\"depth\":3,\"ood_distance_micros\":750000,\"ood\":false}"
        );
    }
}
