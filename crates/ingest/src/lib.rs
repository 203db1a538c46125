//! External design ingestion: the front door that turns untrusted
//! user-uploaded netlist text into validated, fingerprinted, servable
//! designs.
//!
//! The DATE 2021 serving story assumes designs arrive from the trusted
//! synthetic corpus. Real deployments take uploads from users, which
//! changes the contract completely: input is hostile until proven
//! otherwise. This crate is that proof, in five stages:
//!
//! 1. **Parse** — [`blif`] (`.names` truth tables, `.latch`, `.gate`,
//!    multi-model files), [`verilog`] (structural gate-level subset
//!    with escaped identifiers), and [`bookshelf`]
//!    (`.nodes`/`.nets`/`.pl`). Every parser returns typed,
//!    position-annotated [`IngestError`]s and never panics.
//! 2. **Validate** — combinational-loop detection, undriven and
//!    floating-net lints, per-cell arity checks
//!    ([`pipeline::validate`]).
//! 3. **Quota** — byte ceilings before parsing, node/degree ceilings
//!    after, each rejection typed ([`IngestQuotas`]).
//! 4. **Canonicalize** — a deterministic structural cell order, in
//!    which the GCN graph is built straight from the parsed netlist, so
//!    layout-identical uploads yield byte-identical artifacts and
//!    name-independent fingerprints ([`pipeline::canonicalize`] rebuilds
//!    the netlist under that order's names).
//! 5. **Score** — an OOD gate measuring each graph against the
//!    training-corpus feature profile in integer micros ([`OodGate`]);
//!    flagged designs are served but surfaced in `ServeReport`.
//!
//! [`FrontDoor`] composes the stages and implements the server's
//! [`eda_cloud_serve::Ingestor`] trait, so `RequestKind::Ingest`
//! requests flow through bounded admission, the fingerprint-keyed
//! ingest cache, and quarantine accounting like any other traffic.
//! [`fixtures`] embeds the checked-in conformance corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Everything here runs on text a stranger wrote: a failure is a typed
// error or a pattern that cannot fail, never an `unwrap`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod blif;
pub mod bookshelf;
mod error;
pub mod fixtures;
mod front_door;
mod ood;
pub mod pipeline;
mod text;
pub mod verilog;

pub use error::IngestError;
pub use front_door::{FrontDoor, FrontDoorConfig};
pub use ood::OodGate;
pub use pipeline::{IngestQuotas, IngestReport};

/// `gate_soup` and `mutate`, shared with the tier-1 property tests.
#[cfg(test)]
#[path = "../../../tests/common/upload_gen.rs"]
mod upload_gen;

/// What every old-vs-new differential of this crate runs over.
#[cfg(test)]
mod corpus {
    use crate::upload_gen::{gate_soup, mutate};
    use eda_cloud_netlist::formats::{write_blif, write_verilog};
    use eda_cloud_tech::Library;

    /// Hand-written cases for what mutation rarely reaches: continuation
    /// lines, Unicode whitespace, escaped identifiers, block comments,
    /// a pin bound twice, a repeated port.
    const EDGE_CASES: [&str; 12] = [
        ".model c\n.inputs a \\\n  b \\\n\\\n c\n.outputs y\n.names a b \\\n c y # tail\n1-1 1\n.end",
        ".model \u{a0}m\u{2003}\n.inputs a\u{b}b\n.outputs y\n.names a\u{b}b y\r\n1 1\n.end \\",
        ".model t\n.inputs a b _t0\n.outputs _t0 _t1 _t01 _t+1 y\n.names a b y\n00 1\n.end\n",
        ".model g\n.inputs a b\n.outputs y\n.gate AND2_X1 A=a B=a B=b Y=q Y=y A=b\n.end\n",
        ".model l\n.inputs d\n.outputs q\n.latch d q re clk 3\n.latch q r ah NIL 7\n.end\n",
        "module e (input \\a.0 , output \\y\u{e9}\u{2003});\n  INV_X1 u0 (.A(\\a.0 ), .Y(\\y\u{e9} ));\nendmodule\n",
        "module c (a, y); /* two\nlines **/ input a; // tail\n output y; /*/ */\n BUF_X1 u (.A(a), .Y(y));\nendmodule /* open",
        "module p (a, a, y);\n  input a;\n  output y, a;\n  INV_X1 u (.A(a), .A(y), .Y(y));\nendmodule\n",
        "module w (input a, output y);\u{a0}\u{85}\n  wire w\u{3000};\n  INV_X1 u\u{b}(.A(a),\u{c}.Y(y));\nendmodule\n",
        "module s (input a, output y);\n  INV_X1 u (.A(a), .Y(y)) / ;\nendmodule\n",
        "module q (input a, output y);\n  INV_X1 u (.A(a), .Y(y));\n  \u{e9}\nendmodule\n",
        "module n (input a, output y);\n  wire 1'b0, \\ ;\nendmodule\n",
    ];

    /// Every fixture, every `gate_soup` seed below 200 as BLIF and as
    /// Verilog, the edge cases, and every single-site mutation of every
    /// fixture and edge case under all five `mutate` operators — the
    /// injected and flipped bytes are the ones a lexer branches on, plus
    /// one that is not valid UTF-8.
    pub(crate) fn texts() -> impl Iterator<Item = String> {
        let lib = Library::synthetic_14nm();
        let fixtures = crate::fixtures::uploads();
        let bases: Vec<String> = (fixtures.iter().map(|doc| doc.text.clone()))
            .chain(EDGE_CASES.iter().map(|&text| text.to_owned()))
            .collect();
        let soups = (0..200).flat_map(move |seed| {
            let nl = gate_soup(seed);
            [write_blif(&nl, &lib), write_verilog(&nl, &lib)]
        });
        let mutants = bases.clone().into_iter().flat_map(|base| {
            (0..base.len()).flat_map(move |pos| {
                let bytes = b"\\#/*'\n\x0b\xc3 ";
                let sited = [0u8, 1, 4].map(|op| mutate(&base, op, pos, 0));
                let byted = [2u8, 3].map(|op| bytes.map(|byte| mutate(&base, op, pos, byte)));
                sited.into_iter().chain(byted.into_iter().flatten()).collect::<Vec<_>>()
            })
        });
        bases.into_iter().chain(soups).chain(mutants)
    }
}
