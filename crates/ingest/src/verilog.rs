//! Structural (gate-level) Verilog reader.
//!
//! The supported subset is what a mapped netlist looks like: one
//! `module` with ANSI or non-ANSI port declarations, `wire`
//! declarations, and library-cell instances with *named* port
//! connections. Escaped identifiers (`\foo.bar `) are honoured. Line
//! (`//`) and block (`/* */`) comments are stripped by the tokenizer.
//! Behavioral constructs (`assign`, `always`, `reg`, …) are rejected
//! with [`IngestError::Unsupported`]; everything else malformed gets a
//! positioned [`IngestError::Parse`]. The reader round-trips
//! `eda_cloud_netlist::formats::write_verilog` output.

use crate::error::IngestError;
use crate::text::bound_net;
use eda_cloud_netlist::{NetId, Netlist};
use eda_cloud_tech::Library;
use std::collections::HashMap;
use std::ops::Range;

/// Parse one structural Verilog module against `lib`. Like the BLIF
/// reader this only guarantees buildability; structural validation is
/// the pipeline's job.
///
/// # Errors
///
/// Returns a positioned [`IngestError`] on malformed, truncated, or
/// behavioral input.
pub fn parse_verilog(text: &str, lib: &Library) -> Result<Netlist, IngestError> {
    parse_tokens(tokenize(text)?, lib)
}

fn parse_tokens(toks: Vec<Tok<'_>>, lib: &Library) -> Result<Netlist, IngestError> {
    let mut p = Parser { toks, i: 0, names: HashMap::new() };
    let module = p.module()?;
    if let Some(tok) = p.peek() {
        if tok.text == "module" {
            return Err(IngestError::Unsupported {
                line: tok.line,
                construct: "second module".into(),
            });
        }
        return Err(err_at(tok, format!("unexpected `{}`", tok.text)));
    }
    module.build(lib, p.names)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind {
    Ident,
    /// One of the ASCII punctuation bytes.
    Sym(u8),
}

/// One token: a slice of the upload and where it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tok<'a> {
    line: usize,
    col: usize,
    kind: TokKind,
    text: &'a str,
}

fn err_at(tok: Tok<'_>, message: String) -> IngestError {
    IngestError::Parse { line: tok.line, col: tok.col, message }
}

/// Cut `text` into tokens with a byte scanner. Every delimiter is
/// ASCII, so the scan only decodes a `char` where Unicode decides the
/// outcome: a non-ASCII byte outside a comment (whitespace or an
/// unexpected character) and the end of an escaped identifier.
fn tokenize(text: &str) -> Result<Vec<Tok<'_>>, IngestError> {
    let bytes = text.as_bytes();
    let mut toks = Vec::with_capacity(bytes.len() / 4);
    let (mut pos, mut line, mut line_start) = (0usize, 1usize, 0usize);
    while let Some(&b) = bytes.get(pos) {
        let col = pos - line_start + 1;
        let perr = move |message: String| IngestError::Parse { line, col, message };
        let tok = move |kind, text| Tok { line, col, kind, text };
        match b {
            b'\n' => {
                pos += 1;
                line += 1;
                line_start = pos;
            }
            b' ' | b'\t' | b'\r' | 0x0B | 0x0C => pos += 1,
            b'/' if bytes.get(pos + 1) == Some(&b'/') => {
                match text[pos..].find('\n') {
                    Some(at) => {
                        pos += at + 1;
                        line += 1;
                    }
                    None => pos = bytes.len(),
                }
                line_start = pos;
            }
            b'/' if bytes.get(pos + 1) == Some(&b'*') => {
                let Some(len) = text[pos + 2..].find("*/") else {
                    return Err(perr("unterminated block comment".into()));
                };
                let end = pos + 2 + len + 2;
                for (at, _) in text[pos..end].match_indices('\n') {
                    line += 1;
                    line_start = pos + at + 1;
                }
                pos = end;
            }
            b'/' => return Err(perr("stray `/`".into())),
            b'\\' => {
                // Escaped identifier: backslash to the next whitespace.
                let name = &text[pos + 1..];
                let name = &name[..name.find(char::is_whitespace).unwrap_or(name.len())];
                if name.is_empty() {
                    return Err(perr("empty escaped identifier".into()));
                }
                toks.push(tok(TokKind::Ident, name));
                pos += 1 + name.len();
            }
            b'(' | b')' | b',' | b';' | b'.' | b'=' | b'@' | b'[' | b']' | b'{' | b'}' | b':'
            | b'#' | b'*' | b'+' | b'-' | b'?' | b'~' | b'&' | b'|' | b'^' | b'<' | b'>' | b'!'
            | b'%' => {
                toks.push(tok(TokKind::Sym(b), &text[pos..pos + 1]));
                pos += 1;
            }
            b if b.is_ascii_alphanumeric() || b == b'_' || b == b'$' => {
                // Identifiers, keywords, and (so that behavioral files
                // fail in the *parser* with a useful message rather
                // than here) sized constants like `1'b0`.
                let word = |b: &&u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'$' | b'\'');
                let end = pos + bytes[pos..].iter().take_while(word).count();
                toks.push(tok(TokKind::Ident, &text[pos..end]));
                pos = end;
            }
            _ => match text[pos..].chars().next() {
                Some(c) if c.is_whitespace() => pos += c.len_utf8(),
                other => {
                    let c = other.unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(perr(format!("unexpected character `{c}`")));
                }
            },
        }
    }
    Ok(toks)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Input,
    Output,
}

/// One parsed instance: master, instance name, and its named
/// connections as a range of the module's `conns`.
struct Instance<'a> {
    master: Tok<'a>,
    name: &'a str,
    conns: Range<usize>,
}

struct Module<'a> {
    name: &'a str,
    /// Ports in declaration order with resolved directions.
    ports: Vec<(Tok<'a>, Option<Dir>)>,
    wires: Vec<&'a str>,
    instances: Vec<Instance<'a>>,
    /// Every instance's `(pin, net)` connections, back to back.
    conns: Vec<(&'a str, &'a str)>,
}

struct Parser<'a> {
    toks: Vec<Tok<'a>>,
    i: usize,
    /// The parse's one name table. While the module is read it maps a
    /// port name to its first position in the port list (filled when a
    /// non-ANSI declaration first asks); [`Module::build`] then reuses
    /// it to map net names to ids.
    names: HashMap<&'a str, u32>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        self.i += usize::from(t.is_some());
        t
    }

    fn err_eof(&self, expected: &str) -> IngestError {
        let line = self.toks.last().map_or(1, |t| t.line);
        IngestError::Parse {
            line,
            col: 0,
            message: format!("unexpected end of file, expected {expected}"),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<Tok<'a>, IngestError> {
        match self.bump() {
            Some(t) if t.kind == TokKind::Ident => Ok(t),
            Some(t) => Err(err_at(t, format!("expected {what}, found `{}`", t.text))),
            None => Err(self.err_eof(what)),
        }
    }

    fn expect_sym(&mut self, sym: u8) -> Result<Tok<'a>, IngestError> {
        let sym_char = char::from(sym);
        match self.bump() {
            Some(t) if t.kind == TokKind::Sym(sym) => Ok(t),
            Some(t) => Err(err_at(t, format!("expected `{sym_char}`, found `{}`", t.text))),
            None => Err(self.err_eof(sym_char.encode_utf8(&mut [0; 4]))),
        }
    }

    fn at_sym(&self, sym: u8) -> bool {
        self.peek().is_some_and(|t| t.kind == TokKind::Sym(sym))
    }

    fn module(&mut self) -> Result<Module<'a>, IngestError> {
        let kw = self.expect_ident("`module`")?;
        if kw.text != "module" {
            return Err(err_at(kw, format!("expected `module`, found `{}`", kw.text)));
        }
        let mut module = Module {
            name: self.expect_ident("module name")?.text,
            ports: Vec::new(),
            wires: Vec::new(),
            instances: Vec::new(),
            conns: Vec::new(),
        };
        self.expect_sym(b'(')?;
        if !self.at_sym(b')') {
            loop {
                let mut dir = None;
                let mut tok = self.expect_ident("port name")?;
                if matches!(tok.text, "input" | "output") {
                    dir = Some(if tok.text == "input" { Dir::Input } else { Dir::Output });
                    tok = self.expect_ident("port name")?;
                } else if tok.text == "inout" {
                    return Err(IngestError::Unsupported { line: tok.line, construct: "inout".into() });
                }
                module.ports.push((tok, dir));
                if self.at_sym(b',') {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_sym(b')')?;
        self.expect_sym(b';')?;
        loop {
            let Some(tok) = self.peek() else {
                return Err(self.err_eof("`endmodule`"));
            };
            match tok.text {
                "endmodule" => {
                    self.bump();
                    break;
                }
                "input" | "output" => {
                    self.bump();
                    let dir = if tok.text == "input" { Dir::Input } else { Dir::Output };
                    let declared = self.ident_list()?;
                    if self.names.is_empty() {
                        for (at, (port, _)) in module.ports.iter().enumerate().rev() {
                            self.names.insert(port.text, at as u32);
                        }
                    }
                    for name in self.toks[declared].iter().step_by(2) {
                        let Some(&at) = self.names.get(name.text) else {
                            let message = format!("`{}` is not in the port list", name.text);
                            return Err(err_at(*name, message));
                        };
                        module.ports[at as usize].1 = Some(dir);
                    }
                }
                "wire" => {
                    self.bump();
                    let declared = self.ident_list()?;
                    module.wires.extend(self.toks[declared].iter().step_by(2).map(|t| t.text));
                }
                "assign" | "reg" | "always" | "initial" | "parameter" | "inout"
                | "function" | "task" | "generate" => {
                    return Err(IngestError::Unsupported {
                        line: tok.line,
                        construct: tok.text.to_owned(),
                    });
                }
                _ if tok.kind == TokKind::Ident => self.instance(&mut module)?,
                _ => return Err(err_at(tok, format!("unexpected `{}`", tok.text))),
            }
        }
        Ok(module)
    }

    /// `a, b, c ;` after a direction/wire keyword: the token range of
    /// `a , b , c`, so every second token from its start is a name.
    fn ident_list(&mut self) -> Result<Range<usize>, IngestError> {
        let start = self.i;
        loop {
            self.expect_ident("identifier")?;
            if self.at_sym(b',') {
                self.bump();
            } else {
                break;
            }
        }
        let end = self.i;
        self.expect_sym(b';')?;
        Ok(start..end)
    }

    /// `MASTER inst ( .PIN(net), ... );`
    fn instance(&mut self, module: &mut Module<'a>) -> Result<(), IngestError> {
        let master = self.expect_ident("cell master")?;
        let name = self.expect_ident("instance name")?.text;
        self.expect_sym(b'(')?;
        let start = module.conns.len();
        if !self.at_sym(b')') {
            loop {
                self.expect_sym(b'.').map_err(|e| match e {
                    IngestError::Parse { line, col, .. } => IngestError::Parse {
                        line,
                        col,
                        message: "positional port connections are not supported; use `.PIN(net)`"
                            .into(),
                    },
                    other => other,
                })?;
                let pin = self.expect_ident("pin name")?;
                self.expect_sym(b'(')?;
                let net = self.expect_ident("net name")?;
                self.expect_sym(b')')?;
                module.conns.push((pin.text, net.text));
                if self.at_sym(b',') {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_sym(b')')?;
        self.expect_sym(b';')?;
        module.instances.push(Instance { master, name, conns: start..module.conns.len() });
        Ok(())
    }
}

impl<'a> Module<'a> {
    fn build(
        self,
        lib: &Library,
        mut net_ids: HashMap<&'a str, NetId>,
    ) -> Result<Netlist, IngestError> {
        let mut nl = Netlist::new(self.name, lib.name());
        net_ids.clear();
        // Inputs first (declaration order), then pre-intern the
        // remaining ports and wires so references resolve by name.
        for (port, dir) in &self.ports {
            match dir {
                Some(Dir::Input) => {
                    net_ids.insert(port.text, nl.add_input(port.text));
                }
                Some(Dir::Output) => {}
                None => return Err(err_at(*port, format!("port `{}` has no direction", port.text))),
            }
        }
        let intern = |nl: &mut Netlist, net_ids: &mut HashMap<&'a str, NetId>, name: &'a str| {
            *net_ids.entry(name).or_insert_with(|| nl.add_net(name))
        };
        let outputs = || self.ports.iter().filter(|(_, dir)| *dir == Some(Dir::Output));
        for name in self.wires.iter().copied().chain(outputs().map(|(port, _)| port.text)) {
            intern(&mut nl, &mut net_ids, name);
        }
        for inst in &self.instances {
            let perr = |message: String| err_at(inst.master, message);
            let master = lib.cell(inst.master.text).map_err(|e| perr(e.to_string()))?;
            let conns = &self.conns[inst.conns.clone()];
            let mut inputs = Vec::with_capacity(master.pins.len().saturating_sub(1));
            for pin in master.input_pins() {
                let net = bound_net(conns, &pin.name).ok_or_else(|| {
                    perr(format!("missing pin `{}` on {}", pin.name, inst.master.text))
                })?;
                inputs.push(intern(&mut nl, &mut net_ids, net));
            }
            let out_pin = &master.output_pin().name;
            let out_name = bound_net(conns, out_pin).ok_or_else(|| {
                perr(format!("missing output pin `{out_pin}` on {}", inst.master.text))
            })?;
            let out_net = intern(&mut nl, &mut net_ids, out_name);
            if nl.nets()[out_net as usize].driver.is_some() {
                return Err(perr(format!("net `{out_name}` already has a driver")));
            }
            nl.add_cell(inst.name, master.name.clone(), master.kind, inputs, out_net);
        }
        // Interned above, so this only looks the output ports up.
        for (port, _) in outputs() {
            let id = intern(&mut nl, &mut net_ids, port.text);
            nl.add_output(port.text, id);
        }
        Ok(nl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_netlist::formats::write_verilog;
    use eda_cloud_tech::{CellKind, Library};

    fn lib() -> Library {
        Library::synthetic_14nm()
    }

    /// A token of the `char`-at-a-time tokenizer the byte scanner
    /// replaced: one heap `String` each.
    #[derive(Debug)]
    struct OwnedTok {
        line: usize,
        col: usize,
        kind: TokKind,
        text: String,
    }

    /// That tokenizer, kept as the scanner's oracle.
    fn owned_tokenize(text: &str) -> Result<Vec<OwnedTok>, IngestError> {
        let mut toks = Vec::new();
        let mut chars = text.char_indices().peekable();
        let mut line = 1usize;
        let mut line_start = 0usize; // byte offset of current line start
        macro_rules! col {
            ($pos:expr) => {
                $pos - line_start + 1
            };
        }
        while let Some(&(pos, ch)) = chars.peek() {
            match ch {
                '\n' => {
                    chars.next();
                    line += 1;
                    line_start = pos + 1;
                }
                c if c.is_whitespace() => {
                    chars.next();
                }
                '/' => {
                    let (start_line, start_col) = (line, col!(pos));
                    chars.next();
                    match chars.peek().map(|&(_, c)| c) {
                        Some('/') => {
                            for (_, c) in chars.by_ref() {
                                if c == '\n' {
                                    line += 1;
                                    break;
                                }
                            }
                            // Approximate: line_start only matters for
                            // columns, which reset at the next newline.
                            line_start = chars.peek().map_or(text.len(), |&(p, _)| p);
                        }
                        Some('*') => {
                            chars.next();
                            let mut closed = false;
                            let mut prev = ' ';
                            for (p, c) in chars.by_ref() {
                                if c == '\n' {
                                    line += 1;
                                    line_start = p + 1;
                                }
                                if prev == '*' && c == '/' {
                                    closed = true;
                                    break;
                                }
                                prev = c;
                            }
                            if !closed {
                                return Err(IngestError::Parse {
                                    line: start_line,
                                    col: start_col,
                                    message: "unterminated block comment".into(),
                                });
                            }
                        }
                        _ => {
                            return Err(IngestError::Parse {
                                line: start_line,
                                col: start_col,
                                message: "stray `/`".into(),
                            })
                        }
                    }
                }
                '\\' => {
                    // Escaped identifier: backslash to the next whitespace.
                    let (start_line, start_col) = (line, col!(pos));
                    chars.next();
                    let mut name = String::new();
                    while let Some(&(_, c)) = chars.peek() {
                        if c.is_whitespace() {
                            break;
                        }
                        name.push(c);
                        chars.next();
                    }
                    if name.is_empty() {
                        return Err(IngestError::Parse {
                            line: start_line,
                            col: start_col,
                            message: "empty escaped identifier".into(),
                        });
                    }
                    toks.push(OwnedTok { line: start_line, col: start_col, kind: TokKind::Ident, text: name });
                }
                '(' | ')' | ',' | ';' | '.' | '=' | '@' | '[' | ']' | '{' | '}' | ':' | '#'
                | '*' | '+' | '-' | '?' | '~' | '&' | '|' | '^' | '<' | '>' | '!' | '%' => {
                    toks.push(OwnedTok {
                        line,
                        col: col!(pos),
                        kind: TokKind::Sym(ch as u8),
                        text: ch.to_string(),
                    });
                    chars.next();
                }
                c if c.is_ascii_alphanumeric() || c == '_' || c == '$' => {
                    // Identifiers, keywords, and (so that behavioral files
                    // fail in the *parser* with a useful message rather
                    // than here) sized constants like `1'b0`.
                    let (start_line, start_col) = (line, col!(pos));
                    let mut name = String::new();
                    while let Some(&(_, c)) = chars.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' || c == '$' || c == '\'' {
                            name.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    toks.push(OwnedTok { line: start_line, col: start_col, kind: TokKind::Ident, text: name });
                }
                other => {
                    return Err(IngestError::Parse {
                        line,
                        col: col!(pos),
                        message: format!("unexpected character `{other}`"),
                    })
                }
            }
        }
        Ok(toks)
    }

    #[test]
    fn byte_scanner_matches_the_char_tokenizer() {
        let l = lib();
        for text in crate::corpus::texts() {
            let owned = owned_tokenize(&text);
            let old: Result<Vec<Tok<'_>>, IngestError> = match &owned {
                Ok(toks) => Ok(toks
                    .iter()
                    .map(|t| Tok { line: t.line, col: t.col, kind: t.kind, text: &t.text })
                    .collect()),
                Err(e) => Err(e.clone()),
            };
            assert_eq!(tokenize(&text), old, "{text:?}");
            let (new, old) = (parse_verilog(&text, &l), old.and_then(|t| parse_tokens(t, &l)));
            assert_eq!(format!("{new:?}"), format!("{old:?}"), "{text:?}");
        }
    }

    #[test]
    fn a_pin_bound_twice_takes_its_last_binding() {
        let text = "module m (input a, input b, output y);\n  AND2_X1 u (.A(b), .B(b), .A(a), .Y(q), .Y(y));\nendmodule\n";
        let nl = parse_verilog(text, &lib()).expect("parses");
        let names: Vec<&str> =
            nl.cells()[0].inputs.iter().map(|&n| nl.nets()[n as usize].name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(nl.nets()[nl.cells()[0].output as usize].name, "y");
    }

    #[test]
    fn a_non_ansi_declaration_directs_the_first_port_of_its_name() {
        let l = lib();
        // Two ports called `a`: `input a` reaches only the first.
        let e = parse_verilog("module m (a, a, y);\n input a;\n output y;\nendmodule\n", &l)
            .unwrap_err();
        assert_eq!(
            e,
            IngestError::Parse { line: 1, col: 14, message: "port `a` has no direction".into() }
        );
        // A list is read to its `;` before any of its names is looked up.
        let e = parse_verilog("module m (a, y);\n input ghost, a\n output y;\nendmodule\n", &l)
            .unwrap_err();
        assert!(e.to_string().contains("expected `;`"), "{e}");
        let e = parse_verilog("module m (a, y);\n input a, ghost;\nendmodule\n", &l).unwrap_err();
        assert_eq!(
            e,
            IngestError::Parse { line: 2, col: 11, message: "`ghost` is not in the port list".into() }
        );
    }

    #[test]
    fn parses_ansi_header_and_instances() {
        let text = "\
module half_adder (
  input  a,
  input  b,
  output s,
  output c
);
  XOR2_X1 g0 (.A(a), .B(b), .Y(s));
  AND2_X1 g1 (.A(a), .B(b), .Y(c));
endmodule
";
        let nl = parse_verilog(text, &lib()).expect("parses");
        nl.check().expect("valid");
        assert_eq!(nl.name(), "half_adder");
        assert_eq!(nl.cell_count(), 2);
        // `simulate` returns PO values in declaration order: s, c.
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let v = nl.simulate(&[a, b]).expect("simulates");
            assert_eq!(v[0], a ^ b);
            assert_eq!(v[1], a & b);
        }
    }

    #[test]
    fn parses_non_ansi_header_with_wires_and_comments() {
        let text = "\
// mapped by hand
module t (a, b, y); /* ports
   declared below */
  input a, b;
  output y;
  wire w;
  NAND2_X1 u0 (.A(a), .B(b), .Y(w));
  INV_X1 u1 (.A(w), .Y(y));
endmodule
";
        let nl = parse_verilog(text, &lib()).expect("parses");
        nl.check().expect("valid");
        assert_eq!(nl.cell_count(), 2);
        assert_eq!(nl.cells()[0].kind, CellKind::Nand2);
    }

    #[test]
    fn escaped_identifiers_are_honoured() {
        let text = "\
module e (input \\a.0 , output y);
  INV_X1 u0 (.A(\\a.0 ), .Y(y));
endmodule
";
        let nl = parse_verilog(text, &lib()).expect("parses");
        nl.check().expect("valid");
        assert_eq!(nl.nets()[nl.primary_inputs()[0] as usize].name, "a.0");
    }

    #[test]
    fn round_trips_the_writer() {
        let l = lib();
        let text = "\
module rt (input a, input b, output y);
  wire w;
  AOI21_X1 g0 (.A(a), .B(b), .C(a), .Y(w));
  INV_X1 g1 (.A(w), .Y(y));
endmodule
";
        let first = parse_verilog(text, &l).expect("parses");
        let written = write_verilog(&first, &l);
        let second = parse_verilog(&written, &l).expect("round-trips");
        assert_eq!(first.cell_count(), second.cell_count());
        assert_eq!(first.primary_inputs().len(), second.primary_inputs().len());
        assert_eq!(first.primary_outputs().len(), second.primary_outputs().len());
        for (a, b) in [(false, false), (true, true), (true, false)] {
            assert_eq!(
                first.simulate(&[a, b]).expect("first"),
                second.simulate(&[a, b]).expect("second"),
            );
        }
    }

    #[test]
    fn behavioral_constructs_are_unsupported() {
        let l = lib();
        let e = parse_verilog(
            "module m (input a, output y);\n  assign y = a;\nendmodule\n",
            &l,
        )
        .unwrap_err();
        assert_eq!(e, IngestError::Unsupported { line: 2, construct: "assign".into() });
        let e = parse_verilog(
            "module m (input a, output y);\n  always @(posedge a) ;\nendmodule\n",
            &l,
        )
        .unwrap_err();
        assert!(matches!(e, IngestError::Unsupported { .. }), "{e}");
    }

    #[test]
    fn errors_are_typed_and_positioned() {
        let l = lib();
        // Truncated file.
        let e = parse_verilog("module m (input a, output y);\n", &l).unwrap_err();
        assert!(e.to_string().contains("end of file"), "{e}");
        // Positional connections.
        let e = parse_verilog(
            "module m (input a, output y);\n  INV_X1 u0 (a, y);\nendmodule\n",
            &l,
        )
        .unwrap_err();
        assert!(e.to_string().contains("positional"), "{e}");
        // Unknown master.
        let e = parse_verilog(
            "module m (input a, output y);\n  BOGUS_X9 u0 (.A(a), .Y(y));\nendmodule\n",
            &l,
        )
        .unwrap_err();
        assert!(matches!(e, IngestError::Parse { line: 2, .. }), "{e}");
        // Undirected port.
        let e = parse_verilog("module m (a);\nendmodule\n", &l).unwrap_err();
        assert!(e.to_string().contains("no direction"), "{e}");
        // Double driver.
        let e = parse_verilog(
            "module m (input a, output y);\n  INV_X1 u0 (.A(a), .Y(y));\n  INV_X1 u1 (.A(a), .Y(y));\nendmodule\n",
            &l,
        )
        .unwrap_err();
        assert!(e.to_string().contains("already has a driver"), "{e}");
        // Unterminated block comment.
        let e = parse_verilog("module m (); /* never closed", &l).unwrap_err();
        assert!(e.to_string().contains("unterminated"), "{e}");
        // Empty input.
        assert!(parse_verilog("", &l).is_err());
    }
}
