//! Generators of upload text for the ingest property tests. Included
//! twice by path: by `tests/ingest_service.rs` (tier-1) and by the unit
//! tests of `crates/ingest`, whose old-vs-new differentials run over the
//! same designs and mutations.

use eda_cloud_netlist::Netlist;
use eda_cloud_tech::{CellKind, Library};

/// Deterministic combinational gate soup: `seed` fully determines the
/// structure. Every sink-less net becomes a primary output so the
/// floating-net lint passes.
pub fn gate_soup(seed: u64) -> Netlist {
    let lib = Library::synthetic_14nm();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut nl = Netlist::new(format!("soup{seed}"), lib.name());
    let n_pis = 2 + next(4);
    let mut nets: Vec<u32> = (0..n_pis).map(|i| nl.add_input(format!("a{i}"))).collect();
    let kinds = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Maj3,
        CellKind::Aoi21,
    ];
    let n_gates = 1 + next(20);
    for g in 0..n_gates {
        let kind = kinds[next(kinds.len())];
        let master = lib.cell_by_kind(kind).expect("library kind").name.clone();
        let inputs: Vec<u32> = (0..kind.input_count()).map(|_| nets[next(nets.len())]).collect();
        let out = nl.add_net(format!("w{g}"));
        nl.add_cell(format!("u{g}"), master, kind, inputs, out);
        nets.push(out);
    }
    let sink_less: Vec<(String, u32)> = nl
        .nets()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.sinks.is_empty())
        .map(|(i, n)| (n.name.clone(), i as u32))
        .collect();
    for (name, id) in sink_less {
        nl.add_output(name, id);
    }
    nl
}

/// Deterministic byte-level mutation of `text`. `choice` picks the
/// operator, `pos` the site; the result is coerced back to UTF-8.
pub fn mutate(text: &str, choice: u8, pos: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let at = pos % bytes.len();
    match choice % 5 {
        0 => bytes.truncate(at),                  // torn upload
        1 => {
            bytes.remove(at);                     // dropped byte
        }
        2 => bytes.insert(at, byte),              // injected byte
        3 => bytes[at] = byte,                    // flipped byte
        _ => {
            let line = text.lines().next().unwrap_or("").as_bytes().to_vec();
            bytes.splice(at..at, line);           // duplicated header
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
