//! Real-world BLIF reader: `.names` truth tables lowered to gates,
//! `.latch` lowered to DFFs, `.gate` instantiations, multi-model files.
//!
//! This extends the write-oriented BLIF subset in
//! `eda_cloud_netlist::formats` (which only round-trips its own `.gate`
//! output) to the dialect real benchmark suites use. Every failure is a
//! typed, positioned [`IngestError`] — the parser never panics, however
//! torn or hostile the input. Constructs outside the subset (`.subckt`
//! hierarchies, `.exdc` don't-care networks) are rejected with
//! [`IngestError::Unsupported`] rather than silently mis-read.

use crate::error::IngestError;
use crate::text::{bound_net, numbered, Lines};
use eda_cloud_netlist::{NetId, Netlist};
use eda_cloud_tech::{CellKind, CellType, Library};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;

/// Parse a (possibly multi-model) BLIF document against `lib`. The
/// first `.model` is the top; later models are parsed identically and
/// returned in file order. Structural validation (undriven nets,
/// combinational loops) is the pipeline's job — this function only
/// guarantees the returned netlists are *buildable* (no double drivers,
/// all references interned).
///
/// # Errors
///
/// Returns a positioned [`IngestError`] on any malformed, truncated, or
/// unsupported input.
pub fn parse_blif(text: &str, lib: &Library) -> Result<Vec<Netlist>, IngestError> {
    let mut lines = Lines::new(text, '#');
    let mut parser = Parser { lib, models: Vec::new(), builder: None };
    while let Some(lno) = lines.next_line() {
        parser.line(lno, lines.fields(), lines.text())?;
    }
    parser.finish(text)
}

/// The document-level state: one logical line in at a time, finished
/// models out. Everything it holds borrows from the upload.
struct Parser<'a, 'l> {
    lib: &'l Library,
    models: Vec<Netlist>,
    builder: Option<ModelBuilder<'a>>,
}

impl<'a> Parser<'a, '_> {
    fn line(
        &mut self,
        lno: usize,
        fields: &[(usize, &'a str)],
        text: &str,
    ) -> Result<(), IngestError> {
        let Some(&(_, first)) = fields.first() else {
            return Ok(());
        };
        match first {
            ".model" => {
                self.close()?;
                self.builder = Some(ModelBuilder::new(fields.get(1).map_or("blif", |&(_, f)| f)));
            }
            ".end" => self.close()?,
            ".subckt" | ".exdc" | ".search" | ".clock" => {
                return Err(IngestError::Unsupported { line: lno, construct: first.to_owned() });
            }
            _ => {
                let b = self.builder.get_or_insert_with(|| ModelBuilder::new("blif"));
                if first.starts_with('.') {
                    b.directive(lno, fields)?;
                } else {
                    b.table_row(lno, fields, text)?;
                }
            }
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), IngestError> {
        if let Some(done) = self.builder.take() {
            self.models.push(done.build(self.lib)?);
        }
        Ok(())
    }

    fn finish(mut self, text: &str) -> Result<Vec<Netlist>, IngestError> {
        self.close()?;
        if self.models.is_empty() {
            return Err(IngestError::Parse {
                line: text.lines().count().max(1),
                col: 0,
                message: "document declares no model".into(),
            });
        }
        Ok(self.models)
    }
}

/// One `.names` table: signal list (last = output) plus cube rows, as
/// ranges of the builder's `signals` and `rows`.
struct NamesTable {
    lno: usize,
    col: usize,
    signals: Range<usize>,
    rows: Range<usize>,
}

/// One `.latch`: data in, state out, optional control net.
struct Latch<'a> {
    lno: usize,
    col: usize,
    input: &'a str,
    output: &'a str,
    control: Option<&'a str>,
}

/// One `.gate`: master plus formal=actual bindings, a range of the
/// builder's `conns`.
struct Gate<'a> {
    lno: usize,
    col: usize,
    master: &'a str,
    conns: Range<usize>,
}

#[derive(Default)]
struct ModelBuilder<'a> {
    name: &'a str,
    inputs: Vec<&'a str>,
    outputs: Vec<(usize, usize, &'a str)>,
    tables: Vec<NamesTable>,
    /// Every table's signals, back to back.
    signals: Vec<&'a str>,
    /// Every table's `(line, cube, phase)` rows, back to back.
    rows: Vec<(usize, &'a str, char)>,
    latches: Vec<Latch<'a>>,
    gates: Vec<Gate<'a>>,
    /// Every gate's `(formal, actual)` bindings, back to back.
    conns: Vec<(&'a str, &'a str)>,
    /// Whether the most recent directive was `.names` (rows attach).
    open_table: bool,
}

impl<'a> ModelBuilder<'a> {
    fn new(name: &'a str) -> Self {
        Self { name, ..Self::default() }
    }

    fn directive(&mut self, lno: usize, fields: &[(usize, &'a str)]) -> Result<(), IngestError> {
        self.open_table = false;
        let perr = |col: usize, message: String| IngestError::Parse { line: lno, col, message };
        let [(first_col, first), args @ ..] = fields else {
            return Ok(());
        };
        match *first {
            ".inputs" => self.inputs.extend(args.iter().map(|&(_, f)| f)),
            ".outputs" => self.outputs.extend(args.iter().map(|&(col, f)| (lno, col, f))),
            ".names" => {
                let Some(&(col, _)) = args.first() else {
                    return Err(perr(*first_col, "`.names` needs at least an output".into()));
                };
                let start = self.signals.len();
                self.signals.extend(args.iter().map(|&(_, f)| f));
                self.tables.push(NamesTable {
                    lno,
                    col,
                    signals: start..self.signals.len(),
                    rows: self.rows.len()..self.rows.len(),
                });
                self.open_table = true;
            }
            ".latch" => {
                let [(_, input), (col, output), rest @ ..] = args else {
                    return Err(perr(*first_col, "`.latch` needs input and output".into()));
                };
                let mut control = None;
                let init = match rest {
                    [] => None,
                    [init] => Some(*init),
                    [(ty_col, ty), (_, ctl), tail @ ..] => {
                        if !matches!(*ty, "re" | "fe" | "ah" | "al" | "as") {
                            return Err(perr(*ty_col, format!("unknown latch type `{ty}`")));
                        }
                        if *ctl != "NIL" {
                            control = Some(*ctl);
                        }
                        match tail {
                            [] => None,
                            [init] => Some(*init),
                            [_, (col, _), ..] => {
                                return Err(perr(*col, "too many fields on `.latch`".into()))
                            }
                        }
                    }
                };
                if let Some((init_col, init)) = init {
                    if !matches!(init, "0" | "1" | "2" | "3") {
                        return Err(perr(init_col, format!("bad latch init value `{init}`")));
                    }
                }
                self.latches.push(Latch { lno, col: *col, input, output, control });
            }
            ".gate" => {
                let [(col, master), bindings @ ..] = args else {
                    return Err(perr(*first_col, "missing gate master".into()));
                };
                let start = self.conns.len();
                for &(col, f) in bindings {
                    let conn = f.split_once('=');
                    self.conns.push(conn.ok_or_else(|| perr(col, format!("bad connection `{f}`")))?);
                }
                self.gates.push(Gate { lno, col: *col, master, conns: start..self.conns.len() });
            }
            other => return Err(perr(*first_col, format!("unrecognized directive `{other}`"))),
        }
        Ok(())
    }

    fn table_row(
        &mut self,
        lno: usize,
        fields: &[(usize, &'a str)],
        text: &str,
    ) -> Result<(), IngestError> {
        let perr = |col: usize, message: String| IngestError::Parse { line: lno, col, message };
        let first_col = fields.first().map_or(0, |&(col, _)| col);
        let (true, Some(table)) = (self.open_table, self.tables.last_mut()) else {
            return Err(perr(first_col, format!("stray line `{text}`")));
        };
        let want_inputs = table.signals.len() - 1;
        let (cube, out, out_col) = match (want_inputs, fields) {
            (0, [(col, out)]) => ("", out, col),
            (_, [(ccol, cube), (ocol, out)]) if want_inputs > 0 => {
                if cube.len() != want_inputs {
                    return Err(perr(
                        *ccol,
                        format!("cube `{cube}` has {} columns, table has {want_inputs} inputs", cube.len()),
                    ));
                }
                (*cube, out, ocol)
            }
            _ => return Err(perr(first_col, format!("bad truth-table row `{text}`"))),
        };
        if cube.chars().any(|c| !matches!(c, '0' | '1' | '-')) {
            return Err(perr(first_col, format!("bad cube `{cube}`")));
        }
        let out_char = match *out {
            "0" => '0',
            "1" => '1',
            other => return Err(perr(*out_col, format!("bad output value `{other}`"))),
        };
        if self.rows[table.rows.clone()].first().is_some_and(|&(_, _, phase)| phase != out_char) {
            return Err(perr(*out_col, "truth table mixes ON-set and OFF-set rows".into()));
        }
        self.rows.push((lno, cube, out_char));
        table.rows.end = self.rows.len();
        Ok(())
    }

    fn build(self, lib: &Library) -> Result<Netlist, IngestError> {
        let mut lower = Lowerer {
            nl: Netlist::new(self.name, lib.name()),
            lib,
            net_ids: HashMap::new(),
            temps: Vec::new(),
        };
        for &pi in &self.inputs {
            if let Entry::Vacant(slot) = lower.net_ids.entry(pi) {
                slot.insert(lower.nl.add_input(pi));
            }
        }
        for table in &self.tables {
            let rows = &self.rows[table.rows.clone()];
            lower.lower_names(table, &self.signals[table.signals.clone()], rows)?;
        }
        for latch in &self.latches {
            lower.lower_latch(latch)?;
        }
        for gate in &self.gates {
            lower.lower_gate(gate, &self.conns[gate.conns.clone()])?;
        }
        for &(line, col, po) in &self.outputs {
            let id = lower.lowest_net_named(po).ok_or_else(|| IngestError::Parse {
                line,
                col,
                message: format!("output `{po}` references unknown net"),
            })?;
            lower.nl.add_output(po, id);
        }
        Ok(lower.nl)
    }
}

/// Builds gates into a netlist with interning, double-driver guards,
/// and fresh temp nets for lowering trees.
struct Lowerer<'a, 'l> {
    nl: Netlist,
    lib: &'l Library,
    /// The model's one name table: every net the text names.
    net_ids: HashMap<&'a str, NetId>,
    /// Net of the lowering temp `_t{k}`, by `k`.
    temps: Vec<NetId>,
}

impl<'a, 'l> Lowerer<'a, 'l> {
    fn intern(&mut self, name: &'a str) -> NetId {
        *self.net_ids.entry(name).or_insert_with(|| self.nl.add_net(name))
    }

    fn temp(&mut self) -> NetId {
        let id = self.nl.add_net(numbered("_t", self.temps.len()));
        self.temps.push(id);
        id
    }

    /// What `.outputs` binds to: the lowest-numbered net called `name`.
    /// A lowering temp is a net like any other, so when the text also
    /// names a net `_t{k}` either can be the lowest; temps are not in
    /// the name table and are found by their number.
    fn lowest_net_named(&self, name: &str) -> Option<NetId> {
        let digits = name.strip_prefix("_t").filter(|d| *d == "0" || !d.starts_with(['0', '+']));
        let temp = digits.and_then(|d| self.temps.get(d.parse::<usize>().ok()?));
        temp.into_iter().chain(self.net_ids.get(name)).min().copied()
    }

    fn master(&self, kind: CellKind, lno: usize) -> Result<&'l CellType, IngestError> {
        self.lib.cell_by_kind(kind).ok_or_else(|| IngestError::Parse {
            line: lno,
            col: 0,
            message: format!("library `{}` has no {kind} master", self.lib.name()),
        })
    }

    /// [`Netlist::add_cell`] panics on a second driver; this is the
    /// typed error every caller raises first.
    fn undriven(&self, net: NetId, lno: usize, col: usize) -> Result<(), IngestError> {
        let net = &self.nl.nets()[net as usize];
        if net.driver.is_some() {
            return Err(IngestError::Parse {
                line: lno,
                col,
                message: format!("net `{}` already has a driver", net.name),
            });
        }
        Ok(())
    }

    fn add_cell(&mut self, master: &CellType, inputs: Vec<NetId>, output: NetId) {
        let inst = numbered("g", self.nl.cell_count());
        self.nl.add_cell(inst, master.name.clone(), master.kind, inputs, output);
    }

    fn emit(
        &mut self,
        kind: CellKind,
        inputs: Vec<NetId>,
        output: NetId,
        lno: usize,
        col: usize,
    ) -> Result<(), IngestError> {
        self.undriven(output, lno, col)?;
        let master = self.master(kind, lno)?;
        self.add_cell(master, inputs, output);
        Ok(())
    }

    /// Reduce `nets` with a left fold of 2-input `kind` gates, writing
    /// the final result into `target`.
    fn reduce_into(
        &mut self,
        kind: CellKind,
        nets: &[NetId],
        target: NetId,
        lno: usize,
        col: usize,
    ) -> Result<(), IngestError> {
        match nets {
            [] => Err(IngestError::Parse { line: lno, col, message: "empty reduction".into() }),
            [single] => self.emit(CellKind::Buf, vec![*single], target, lno, col),
            [first, rest @ ..] => {
                let mut acc = *first;
                for (i, &next) in rest.iter().enumerate() {
                    let out = if i + 1 == rest.len() { target } else { self.temp() };
                    self.emit(kind, vec![acc, next], out, lno, col)?;
                    acc = out;
                }
                Ok(())
            }
        }
    }

    fn lower_names(
        &mut self,
        table: &NamesTable,
        signals: &[&'a str],
        rows: &[(usize, &'a str, char)],
    ) -> Result<(), IngestError> {
        let (lno, col) = (table.lno, table.col);
        let Some((out_name, in_names)) = signals.split_last() else {
            return Ok(());
        };
        let in_nets: Vec<NetId> = in_names.iter().map(|n| self.intern(n)).collect();
        let target = self.intern(out_name);
        let phase = rows.first().map_or('0', |&(_, _, out)| out);
        let tie = |v: bool| if v { CellKind::Tie1 } else { CellKind::Tie0 };
        // No rows => constant 0. A row with an all-dash (or empty)
        // cube covers the whole input space => constant at the phase.
        if rows.is_empty() {
            return self.emit(tie(false), vec![], target, lno, col);
        }
        if rows.iter().any(|(_, cube, _)| cube.chars().all(|c| c == '-')) {
            return self.emit(tie(phase == '1'), vec![], target, lno, col);
        }
        // Each cube ANDs its literals ('0' literals go through an INV).
        let mut cube_nets = Vec::with_capacity(rows.len());
        let mut lits = Vec::new();
        for &(row_lno, cube, _) in rows {
            lits.clear();
            for (pos, ch) in cube.chars().enumerate() {
                match ch {
                    '1' => lits.push(in_nets[pos]),
                    '0' => {
                        let inv = self.temp();
                        self.emit(CellKind::Inv, vec![in_nets[pos]], inv, row_lno, 0)?;
                        lits.push(inv);
                    }
                    _ => {}
                }
            }
            let cube_net = if let [single] = lits[..] {
                single
            } else {
                let out = self.temp();
                self.reduce_into(CellKind::And2, &lits, out, row_lno, 0)?;
                out
            };
            cube_nets.push(cube_net);
        }
        // ON-set rows OR into the target; OFF-set rows OR then invert.
        if phase == '1' {
            self.reduce_into(CellKind::Or2, &cube_nets, target, lno, col)
        } else {
            let off = if let [single] = cube_nets[..] {
                single
            } else {
                let out = self.temp();
                self.reduce_into(CellKind::Or2, &cube_nets, out, lno, col)?;
                out
            };
            self.emit(CellKind::Inv, vec![off], target, lno, col)
        }
    }

    fn lower_latch(&mut self, latch: &Latch<'a>) -> Result<(), IngestError> {
        let d = self.intern(latch.input);
        let q = self.intern(latch.output);
        // The control net (or the implicit global `clock`) is promoted
        // to a primary input when nothing else declares or drives it.
        let ctl_name = latch.control.unwrap_or("clock");
        let ck = *self.net_ids.entry(ctl_name).or_insert_with(|| self.nl.add_input(ctl_name));
        let master = self.master(CellKind::Dff, latch.lno)?;
        self.undriven(q, latch.lno, latch.col)?;
        self.add_cell(master, vec![d, ck], q);
        Ok(())
    }

    fn lower_gate(
        &mut self,
        gate: &Gate<'a>,
        conns: &[(&'a str, &'a str)],
    ) -> Result<(), IngestError> {
        let perr = |message: String| IngestError::Parse { line: gate.lno, col: gate.col, message };
        let master = self.lib.cell(gate.master).map_err(|e| perr(e.to_string()))?;
        let mut input_nets = Vec::with_capacity(master.pins.len().saturating_sub(1));
        for pin in master.input_pins() {
            let net = bound_net(conns, &pin.name)
                .ok_or_else(|| perr(format!("missing pin `{}` on {}", pin.name, gate.master)))?;
            input_nets.push(self.intern(net));
        }
        let out_pin = &master.output_pin().name;
        let out_name = bound_net(conns, out_pin)
            .ok_or_else(|| perr(format!("missing output pin `{out_pin}`")))?;
        let out_net = self.intern(out_name);
        self.undriven(out_net, gate.lno, gate.col)?;
        self.add_cell(master, input_nets, out_net);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_netlist::NetDriver;

    fn lib() -> Library {
        Library::synthetic_14nm()
    }

    /// `parse_blif` fed by the owned line splitter `Lines` replaced.
    fn parse_over_owned_lines(text: &str, lib: &Library) -> Result<Vec<Netlist>, IngestError> {
        use crate::text::tests::{fields_with_cols, logical_lines};
        let lines = logical_lines(text, '#');
        let mut parser = Parser { lib, models: Vec::new(), builder: None };
        for line in &lines {
            parser.line(line.lno, &fields_with_cols(&line.text), &line.text)?;
        }
        parser.finish(text)
    }

    #[test]
    fn borrowed_and_owned_lines_parse_alike() {
        let l = lib();
        for text in crate::corpus::texts() {
            let (new, old) = (parse_blif(&text, &l), parse_over_owned_lines(&text, &l));
            assert_eq!(format!("{new:?}"), format!("{old:?}"), "{text:?}");
        }
    }

    #[test]
    fn outputs_bind_to_the_lowest_net_of_their_name() {
        // `y = !a & !b` lowers through the temps `_t0`, `_t1` (the two
        // inverters) and `_t2` (their AND).
        let text = ".model t\n.inputs a b\n.outputs _t1 y\n.names a b y\n00 1\n.end\n";
        let nl = &parse_blif(text, &lib()).expect("parses")[0];
        let (name, net) = &nl.primary_outputs()[0];
        assert_eq!((name.as_str(), nl.nets()[*net as usize].name.as_str()), ("_t1", "_t1"));
        assert!(matches!(nl.nets()[*net as usize].driver, Some(NetDriver::Cell(_))));
        // A net the text names `_t0` comes first when it has the lower id ...
        let named = ".model t\n.inputs _t0 b\n.outputs _t0 y\n.names _t0 b y\n00 1\n.end\n";
        let nl = &parse_blif(named, &lib()).expect("parses")[0];
        assert_eq!(nl.primary_outputs()[0].1, nl.primary_inputs()[0]);
        // ... and only the spelling `format!` writes names a temp.
        for ghost in ["_t01", "_t+1", "_t", "_t9"] {
            let text = text.replace("_t1 y", &format!("{ghost} y"));
            let e = parse_blif(&text, &lib()).unwrap_err();
            assert!(e.to_string().contains("references unknown net"), "{ghost}: {e}");
        }
    }

    #[test]
    fn a_pin_bound_twice_takes_its_last_binding() {
        let text = ".model g\n.inputs a b\n.outputs y\n.gate AND2_X1 A=b B=b A=a Y=q Y=y\n.end\n";
        let nl = &parse_blif(text, &lib()).expect("parses")[0];
        let names: Vec<&str> =
            nl.cells()[0].inputs.iter().map(|&n| nl.nets()[n as usize].name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(nl.nets()[nl.cells()[0].output as usize].name, "y");
    }

    #[test]
    fn parses_names_tables_into_gates() {
        // c17-style NAND via OFF-set: output 0 only when both inputs 1.
        let text = "\
.model nand_test
.inputs a b
.outputs y
.names a b y
11 0
.end
";
        let models = parse_blif(text, &lib()).expect("parses");
        assert_eq!(models.len(), 1);
        let nl = &models[0];
        nl.check().expect("valid");
        // AND + INV (single cube, OFF-set phase).
        assert_eq!(nl.cell_count(), 2);
        let y = nl.primary_outputs()[0].1;
        assert!(matches!(nl.nets()[y as usize].driver, Some(NetDriver::Cell(_))));
        // Semantics: y = !(a & b). `simulate` returns PO values.
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let values = nl.simulate(&[a, b]).expect("simulates");
            assert_eq!(values[0], !(a & b), "a={a} b={b}");
        }
    }

    #[test]
    fn on_set_cubes_or_together() {
        // y = a XOR b expressed as ON-set cubes.
        let text = "\
.model xor_test
.inputs a b
.outputs y
.names a b y
10 1
01 1
.end
";
        let nl = &parse_blif(text, &lib()).expect("parses")[0];
        nl.check().expect("valid");
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let values = nl.simulate(&[a, b]).expect("simulates");
            assert_eq!(values[0], a ^ b, "a={a} b={b}");
        }
    }

    #[test]
    fn constants_buffers_and_inverters() {
        let text = "\
.model consts
.inputs a
.outputs one zero buf inv
.names one
1
.names zero
.names a buf
1 1
.names a inv
0 1
.end
";
        let nl = &parse_blif(text, &lib()).expect("parses")[0];
        nl.check().expect("valid");
        let po = |name: &str| {
            nl.primary_outputs().iter().position(|(n, _)| n == name).expect("PO")
        };
        for a in [false, true] {
            let values = nl.simulate(&[a]).expect("simulates");
            assert!(values[po("one")]);
            assert!(!values[po("zero")]);
            assert_eq!(values[po("buf")], a);
            assert_eq!(values[po("inv")], !a);
        }
    }

    #[test]
    fn latches_become_dffs_with_promoted_clock() {
        let text = "\
.model counter_bit
.inputs d
.outputs q
.latch d q re clk 0
.end
";
        let nl = &parse_blif(text, &lib()).expect("parses")[0];
        nl.check().expect("valid");
        assert_eq!(nl.cell_count(), 1);
        assert_eq!(nl.cells()[0].kind, CellKind::Dff);
        assert_eq!(nl.cells()[0].inputs.len(), 2, "D and CK");
        // `clk` was auto-promoted to a primary input.
        assert!(nl
            .primary_inputs()
            .iter()
            .any(|&n| nl.nets()[n as usize].name == "clk"));
        // NIL control falls back to the implicit global clock.
        let nil = "\
.model nil_latch
.inputs d
.outputs q
.latch d q re NIL
.end
";
        let nl = &parse_blif(nil, &lib()).expect("parses")[0];
        assert!(nl
            .primary_inputs()
            .iter()
            .any(|&n| nl.nets()[n as usize].name == "clock"));
    }

    #[test]
    fn multi_model_files_yield_every_model() {
        let text = "\
.model top
.inputs a b
.outputs y
.names a b y
11 1
.end
.model helper
.inputs x
.outputs z
.names x z
0 1
.end
";
        let models = parse_blif(text, &lib()).expect("parses");
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].name(), "top");
        assert_eq!(models[1].name(), "helper");
    }

    #[test]
    fn continuation_lines_join() {
        let text = ".model c\n.inputs a \\\n  b\n.outputs y\n.names a b y\n11 1\n.end\n";
        let nl = &parse_blif(text, &lib()).expect("parses")[0];
        assert_eq!(nl.primary_inputs().len(), 2);
    }

    #[test]
    fn gate_form_still_parses() {
        let text = "\
.model g
.inputs a b
.outputs y
.gate AND2_X1 A=a B=b Y=y
.end
";
        let nl = &parse_blif(text, &lib()).expect("parses")[0];
        nl.check().expect("valid");
        assert_eq!(nl.cells()[0].kind, CellKind::And2);
    }

    #[test]
    fn errors_are_typed_and_positioned() {
        let l = lib();
        // Unsupported construct.
        let e = parse_blif(".model m\n.subckt sub a=b\n.end\n", &l).unwrap_err();
        assert_eq!(e, IngestError::Unsupported { line: 2, construct: ".subckt".into() });
        // Mixed phases.
        let e = parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end\n", &l)
            .unwrap_err();
        assert!(matches!(e, IngestError::Parse { line: 6, .. }), "{e}");
        // Wrong cube width.
        let e = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n", &l)
            .unwrap_err();
        assert!(matches!(e, IngestError::Parse { line: 5, .. }), "{e}");
        // Double driver.
        let e = parse_blif(
            ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end\n",
            &l,
        )
        .unwrap_err();
        assert!(e.to_string().contains("already has a driver"), "{e}");
        // Ghost output.
        let e = parse_blif(".model m\n.inputs a\n.outputs ghost\n.end\n", &l).unwrap_err();
        assert!(matches!(e, IngestError::Parse { line: 3, .. }), "{e}");
        // Stray row outside a table.
        let e = parse_blif(".model m\n11 1\n.end\n", &l).unwrap_err();
        assert!(matches!(e, IngestError::Parse { line: 2, .. }), "{e}");
        // Empty document.
        assert!(parse_blif("", &l).is_err());
        assert!(parse_blif("# only comments\n", &l).is_err());
    }
}
