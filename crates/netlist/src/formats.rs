//! Text formats: AIGER-ASCII (`aag`) for AIGs, and BLIF-style /
//! structural-Verilog writers for netlists.
//!
//! These are interchange helpers so corpora can be inspected and
//! round-tripped in tests. Netlists are write-only here: uploaded BLIF
//! and Verilog are read by `eda-cloud-ingest`'s hardened parsers.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_netlist::{formats, generators};
//!
//! let aig = generators::adder(4);
//! let text = formats::write_aag(&aig);
//! let back = formats::read_aag(&text)?;
//! assert_eq!(back.and_count(), aig.and_count());
//! # Ok::<(), eda_cloud_netlist::NetlistError>(())
//! ```

use crate::aig::{Aig, AigNode, Lit};
use crate::netlist::Netlist;
use crate::NetlistError;
use eda_cloud_tech::Library;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Split a line on ASCII whitespace, keeping each field's 1-based byte
/// column so parse errors can point at the offending token.
fn fields_with_cols(line: &str) -> Vec<(usize, &str)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i > start {
            out.push((start + 1, &line[start..i]));
        }
    }
    out
}

/// Serialize an AIG in AIGER-ASCII (`aag`) format with a symbol table for
/// the outputs.
#[must_use]
pub fn write_aag(aig: &Aig) -> String {
    let max_var = aig.node_count() - 1;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "aag {} {} 0 {} {}",
        max_var,
        aig.input_count(),
        aig.output_count(),
        aig.and_count()
    );
    for &pi in aig.inputs() {
        let _ = writeln!(out, "{}", Lit::from_node(pi, false).raw());
    }
    for (_, lit) in aig.outputs() {
        let _ = writeln!(out, "{}", lit.raw());
    }
    for (i, node) in aig.nodes().iter().enumerate() {
        if let AigNode::And(a, b) = node {
            let lhs = Lit::from_node(i as u32, false).raw();
            let _ = writeln!(out, "{lhs} {} {}", a.raw(), b.raw());
        }
    }
    for (k, (name, _)) in aig.outputs().iter().enumerate() {
        let _ = writeln!(out, "o{k} {name}");
    }
    let _ = writeln!(out, "c");
    let _ = writeln!(out, "{}", aig.name());
    out
}

/// Parse an AIGER-ASCII (`aag`) document produced by [`write_aag`] (no
/// latches; AND definitions must be in topological order).
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input.
pub fn read_aag(text: &str) -> Result<Aig, NetlistError> {
    let perr = |line: usize, col: usize, message: &str| NetlistError::Parse {
        line,
        col,
        message: message.to_owned(),
    };
    // Truncated documents report the position one past the last line,
    // never the meaningless `line 0` they used to.
    let eof_line = text.lines().count() + 1;
    let mut lines = text.lines().enumerate();
    let (lno, header) = lines.next().ok_or_else(|| perr(1, 1, "empty document"))?;
    let fields = fields_with_cols(header);
    if fields.len() != 6 || fields[0].1 != "aag" {
        return Err(perr(lno + 1, 1, "expected `aag M I L O A` header"));
    }
    let parse_num = |f: (usize, &str), lno: usize| {
        f.1.parse::<u32>()
            .map_err(|_| perr(lno + 1, f.0, "invalid number"))
    };
    let max_var = parse_num(fields[1], lno)?;
    let n_in = parse_num(fields[2], lno)?;
    let n_latch = parse_num(fields[3], lno)?;
    let n_out = parse_num(fields[4], lno)?;
    let n_and = parse_num(fields[5], lno)?;
    if n_latch != 0 {
        return Err(perr(lno + 1, fields[3].0, "latches are not supported"));
    }
    if max_var != n_in + n_and {
        return Err(perr(lno + 1, fields[1].0, "M must equal I + A for this subset"));
    }

    let mut aig = Aig::new("aag");
    let mut pi_lits = Vec::with_capacity(n_in as usize);
    for _ in 0..n_in {
        let (lno, line) = lines
            .next()
            .ok_or_else(|| perr(eof_line, 1, "unexpected end of input list"))?;
        let lit = parse_num((1, line.trim()), lno)?;
        let expect = aig.add_pi();
        if lit != expect.raw() {
            return Err(perr(lno + 1, 1, "inputs must be consecutive even literals"));
        }
        pi_lits.push(expect);
    }
    let mut out_lits = Vec::with_capacity(n_out as usize);
    for _ in 0..n_out {
        let (lno, line) = lines
            .next()
            .ok_or_else(|| perr(eof_line, 1, "unexpected end of output list"))?;
        let lit = Lit::from_raw(parse_num((1, line.trim()), lno)?);
        // After the AND section the node count is exactly max_var + 1
        // (M = I + A is enforced above), so an out-of-range output
        // literal is detectable here — and would otherwise panic later.
        if lit.node() > max_var {
            return Err(perr(lno + 1, 1, "output literal references a nonexistent node"));
        }
        out_lits.push(lit);
    }
    for _ in 0..n_and {
        let (lno, line) = lines
            .next()
            .ok_or_else(|| perr(eof_line, 1, "unexpected end of AND list"))?;
        let nums = fields_with_cols(line);
        if nums.len() != 3 {
            return Err(perr(lno + 1, 1, "AND line needs `lhs rhs0 rhs1`"));
        }
        let lhs = parse_num(nums[0], lno)?;
        let a = Lit::from_raw(parse_num(nums[1], lno)?);
        let b = Lit::from_raw(parse_num(nums[2], lno)?);
        if lhs % 2 != 0 {
            return Err(perr(lno + 1, nums[0].0, "AND lhs must be even"));
        }
        let node = lhs / 2;
        if node as usize != aig.node_count() {
            return Err(perr(lno + 1, nums[0].0, "AND definitions must be in order"));
        }
        if a.node() >= node || b.node() >= node {
            return Err(perr(lno + 1, nums[1].0, "AND fanin references a later node"));
        }
        let got = aig.and2(a, b);
        // Structural hashing may fold the node; re-emit an explicit node
        // is not possible, so require the writer's canonical form.
        if got.node() as usize != node as usize {
            return Err(perr(
                lno + 1,
                nums[0].0,
                "AND folds to an existing node; input is not in canonical form",
            ));
        }
    }
    // Symbol table and comments.
    let mut names: HashMap<usize, String> = HashMap::new();
    let mut design_name: Option<String> = None;
    let mut in_comment = false;
    for (_, line) in lines {
        let line = line.trim();
        if in_comment {
            if design_name.is_none() && !line.is_empty() {
                design_name = Some(line.to_owned());
            }
            continue;
        }
        if line == "c" {
            in_comment = true;
        } else if let Some(rest) = line.strip_prefix('o') {
            if let Some((idx, name)) = rest.split_once(' ') {
                if let Ok(k) = idx.parse::<usize>() {
                    names.insert(k, name.to_owned());
                }
            }
        }
    }
    for (k, lit) in out_lits.into_iter().enumerate() {
        let name = names.get(&k).cloned().unwrap_or_else(|| format!("o{k}"));
        aig.add_po(name, lit);
    }
    if let Some(name) = design_name {
        aig.set_name(name);
    }
    aig.check()?;
    Ok(aig)
}

/// Serialize a netlist in a BLIF-style `.gate` format.
#[must_use]
pub fn write_blif(netlist: &Netlist, lib: &Library) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", netlist.name());
    let pi_names: Vec<&str> = netlist
        .primary_inputs()
        .iter()
        .map(|&n| netlist.nets()[n as usize].name.as_str())
        .collect();
    let _ = writeln!(out, ".inputs {}", pi_names.join(" "));
    let po_names: Vec<String> = netlist
        .primary_outputs()
        .iter()
        .map(|(name, _)| name.clone())
        .collect();
    let _ = writeln!(out, ".outputs {}", po_names.join(" "));
    for cell in netlist.cells() {
        let master = lib.cell(&cell.cell_name);
        let mut parts = vec![format!(".gate {}", cell.cell_name)];
        if let Ok(master) = master {
            for (pin, &net) in master.input_pins().zip(cell.inputs.iter()) {
                parts.push(format!("{}={}", pin.name, netlist.nets()[net as usize].name));
            }
            parts.push(format!(
                "{}={}",
                master.output_pin().name,
                netlist.nets()[cell.output as usize].name
            ));
        }
        let _ = writeln!(out, "{}", parts.join(" "));
    }
    // Alias lines: connect PO port names to their nets when they differ.
    for (name, net) in netlist.primary_outputs() {
        let net_name = &netlist.nets()[*net as usize].name;
        if name != net_name {
            let _ = writeln!(out, "# alias {name} = {net_name}");
        }
    }
    let _ = writeln!(out, ".end");
    out
}

/// Serialize a netlist as structural Verilog (gate-level instantiations
/// of the library masters). Write-only: the module is meant for
/// inspection and hand-off to external tools, not re-import.
#[must_use]
pub fn write_verilog(netlist: &Netlist, lib: &Library) -> String {
    let mut out = String::new();
    let sanitize = |name: &str| name.replace(['.', '[', ']'], "_");
    let pi_names: Vec<String> = netlist
        .primary_inputs()
        .iter()
        .map(|&n| sanitize(&netlist.nets()[n as usize].name))
        .collect();
    let po_names: Vec<String> = netlist
        .primary_outputs()
        .iter()
        .map(|(name, _)| sanitize(name))
        .collect();
    let _ = writeln!(out, "module {} (", sanitize(netlist.name()));
    let ports: Vec<String> = pi_names
        .iter()
        .map(|p| format!("  input  {p}"))
        .chain(po_names.iter().map(|p| format!("  output {p}")))
        .collect();
    let _ = writeln!(out, "{}\n);", ports.join(",\n"));

    // Wire declarations for internal nets.
    use std::collections::HashSet;
    let port_nets: HashSet<u32> = netlist
        .primary_inputs()
        .iter()
        .copied()
        .chain(netlist.primary_outputs().iter().map(|(_, n)| *n))
        .collect();
    for (ni, net) in netlist.nets().iter().enumerate() {
        if !port_nets.contains(&(ni as u32)) {
            let _ = writeln!(out, "  wire {};", sanitize(&net.name));
        }
    }
    // PO aliasing: when a PO port name differs from its net, emit assign.
    for (name, net) in netlist.primary_outputs() {
        let net_name = sanitize(&netlist.nets()[*net as usize].name);
        let port = sanitize(name);
        if port != net_name && !netlist.primary_inputs().contains(net) {
            // The net itself is the port in this writer; nothing to do
            // unless another port aliases it.
            let _ = (&port, &net_name);
        }
    }
    for cell in netlist.cells() {
        let Ok(master) = lib.cell(&cell.cell_name) else {
            continue;
        };
        let mut conns: Vec<String> = master
            .input_pins()
            .zip(&cell.inputs)
            .map(|(pin, &net)| {
                format!(".{}({})", pin.name, sanitize(&netlist.nets()[net as usize].name))
            })
            .collect();
        conns.push(format!(
            ".{}({})",
            master.output_pin().name,
            sanitize(&netlist.nets()[cell.output as usize].name)
        ));
        let _ = writeln!(
            out,
            "  {} {} ({});",
            cell.cell_name,
            sanitize(&cell.name),
            conns.join(", ")
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use eda_cloud_tech::CellKind;

    #[test]
    fn aag_roundtrip_preserves_structure_and_function() {
        let aig = generators::adder(4);
        let text = write_aag(&aig);
        let back = read_aag(&text).expect("parse own output");
        assert_eq!(back.input_count(), aig.input_count());
        assert_eq!(back.output_count(), aig.output_count());
        assert_eq!(back.and_count(), aig.and_count());
        assert_eq!(back.name(), aig.name());
        // Function preserved.
        let inputs = [true, false, true, false, false, true, true, false];
        assert_eq!(
            back.simulate(&inputs).unwrap(),
            aig.simulate(&inputs).unwrap()
        );
    }

    #[test]
    fn aag_rejects_garbage() {
        assert!(read_aag("").is_err());
        assert!(read_aag("not an aig").is_err());
        assert!(read_aag("aag 1 1 1 0 0\n2\n").is_err(), "latches rejected");
        assert!(read_aag("aag 5 1 0 0 0\n2\n").is_err(), "M mismatch");
    }

    #[test]
    fn aag_header_counts_match_body() {
        let aig = generators::parity(8);
        let text = write_aag(&aig);
        let header: Vec<&str> = text.lines().next().unwrap().split(' ').collect();
        let n_and: usize = header[5].parse().unwrap();
        assert_eq!(n_and, aig.and_count());
    }

    #[test]
    fn verilog_writer_emits_module() {
        let lib = Library::synthetic_14nm();
        let mut nl = Netlist::new("vtest", lib.name());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_cell("u1", "NAND2_X1", CellKind::Nand2, vec![a, b], y);
        nl.add_output("y", y);
        let v = write_verilog(&nl, &lib);
        assert!(v.contains("module vtest"));
        assert!(v.contains("input  a"));
        assert!(v.contains("output y"));
        assert!(v.contains("NAND2_X1 u1 (.A(a), .B(b), .Y(y));"));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn verilog_writer_sanitizes_names() {
        let lib = Library::synthetic_14nm();
        let mut nl = Netlist::new("top.mod", lib.name());
        let a = nl.add_input("a[0]");
        let y = nl.add_net("y.z");
        nl.add_cell("u.1", "INV_X1", CellKind::Inv, vec![a], y);
        nl.add_output("out", y);
        let v = write_verilog(&nl, &lib);
        assert!(v.contains("module top_mod"));
        assert!(v.contains("a_0_"));
        assert!(!v.contains("y.z"));
    }

    #[test]
    fn parse_errors_carry_positions() {
        // Truncated AND list: the error points one past the last line,
        // never the old `line 0`.
        let truncated = "aag 2 1 0 1 1\n2\n4\n";
        let err = read_aag(truncated).unwrap_err();
        match err {
            NetlistError::Parse { line, col, .. } => {
                assert_eq!(line, 4, "position is one past the torn document");
                assert!(col >= 1);
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        // A bad token points at its column.
        let bad_token = "aag 1 xx 0 0 1\n";
        match read_aag(bad_token).unwrap_err() {
            NetlistError::Parse { line: 1, col, .. } => assert_eq!(col, 7),
            other => panic!("expected positioned Parse, got {other:?}"),
        }
    }

    #[test]
    fn aag_reader_never_panics_on_torn_or_garbage_input() {
        // Fuzz-shaped: every prefix of a valid document plus byte-level
        // mutations must produce Ok or a typed error, never a panic.
        let aag = write_aag(&generators::adder(4));
        for cut in 0..aag.len() {
            let _ = read_aag(&aag[..cut]);
        }
        // Deterministic byte mutations (no RNG needed: every position,
        // a handful of replacement bytes).
        for pos in 0..aag.len() {
            for byte in [b'0', b'9', b' ', b'\n', b'~'] {
                let mut bytes = aag.clone().into_bytes();
                bytes[pos] = byte;
                if let Ok(s) = String::from_utf8(bytes) {
                    let _ = read_aag(&s);
                }
            }
        }
    }
}
