//! Text formats: BLIF-style and structural-Verilog writers for netlists.
//!
//! These are interchange helpers so corpora can be inspected and handed
//! to external tools. Netlists are write-only here: uploaded BLIF and
//! Verilog are read by `eda-cloud-ingest`'s hardened parsers.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_netlist::{formats, Netlist};
//! use eda_cloud_tech::{CellKind, Library};
//!
//! let lib = Library::synthetic_14nm();
//! let mut nl = Netlist::new("inv", lib.name());
//! let a = nl.add_input("a");
//! let y = nl.add_net("y");
//! nl.add_cell("u1", "INV_X1", CellKind::Inv, vec![a], y);
//! nl.add_output("y", y);
//! let blif = formats::write_blif(&nl, &lib);
//! assert!(blif.starts_with(".model inv"));
//! assert!(blif.contains(".gate INV_X1 A=a Y=y"));
//! ```

use crate::netlist::Netlist;
use eda_cloud_tech::Library;
use std::fmt::Write as _;

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
    use eda_cloud_tech::CellKind;

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
}
