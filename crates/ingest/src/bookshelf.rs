//! Bookshelf placement-benchmark reader (`.nodes` / `.nets` / `.pl`).
//!
//! Bookshelf describes a placed design, not a logic network, so the
//! reader produces a [`BookshelfDesign`] rather than a `Netlist`: named
//! nodes with dimensions and placement, plus hyperedges with pinned
//! directions. [`BookshelfDesign::to_graph`] lowers it to the same
//! star-model [`DesignGraph`] the GCN consumes — each net contributes
//! one edge from its driver (the first `O` pin, or the first pin when
//! no direction is given) to every other pin.
//!
//! Uploads carry all three files in one text, delimited by `@nodes`,
//! `@nets`, and `@pl` section markers (the bench runner stitches
//! sibling files into this form). `@pl` is optional.

use crate::error::IngestError;
use crate::text::Lines;
use eda_cloud_netlist::{DesignGraph, NodeFeatures, FEATURE_DIM};
use std::collections::HashMap;

/// One placeable node (cell or terminal).
#[derive(Debug, Clone, PartialEq)]
pub struct BookshelfNode {
    /// Node name as written.
    pub name: String,
    /// Width in sites.
    pub width: f64,
    /// Height in rows.
    pub height: f64,
    /// Whether the node is a fixed terminal (I/O pad).
    pub terminal: bool,
    /// Placement from `.pl`, when present.
    pub position: Option<(f64, f64)>,
}

/// One hyperedge: `(node index, direction char)` per pin.
#[derive(Debug, Clone, PartialEq)]
pub struct BookshelfNet {
    /// Net name (or a synthesized `net{i}` when unnamed).
    pub name: String,
    /// Pins as `(node index, direction)`; direction is `'I'`, `'O'`,
    /// or `'B'` when given, `'B'` otherwise.
    pub pins: Vec<(usize, char)>,
}

/// A parsed Bookshelf design.
#[derive(Debug, Clone, PartialEq)]
pub struct BookshelfDesign {
    /// Design name (from the upload, not the file).
    pub name: String,
    /// All nodes, file order.
    pub nodes: Vec<BookshelfNode>,
    /// All nets, file order.
    pub nets: Vec<BookshelfNet>,
}

/// Parse a stitched Bookshelf upload (see module docs for the section
/// markers). Declared `NumNodes` / `NumNets` / `NetDegree` counts are
/// checked against what the file actually contains.
///
/// # Errors
///
/// Returns a positioned [`IngestError`] on malformed or inconsistent
/// input.
pub fn parse_bookshelf(name: &str, text: &str) -> Result<BookshelfDesign, IngestError> {
    // First pass: check the markers and note where the first section of
    // each kind starts (nodes, nets, pl); later duplicates are not read.
    let mut lines = Lines::new(text, '#');
    let mut sections = [None, None, None];
    let mut in_section = false;
    while let Some(lno) = lines.next_line() {
        let perr = |message: String| IngestError::Parse { line: lno, col: 1, message };
        if let Some(marker) = lines.text().strip_prefix('@') {
            let kind = match marker.trim() {
                "nodes" => 0,
                "nets" => 1,
                "pl" => 2,
                other => return Err(perr(format!("unknown section marker `@{other}`"))),
            };
            sections[kind].get_or_insert_with(|| lines.fork());
            in_section = true;
        } else if !in_section {
            return Err(perr("expected `@nodes` section marker before content".into()));
        }
    }
    let missing = |what: &str| IngestError::Parse {
        line: text.lines().count().max(1),
        col: 0,
        message: format!("missing `@{what}` section"),
    };
    let [node_lines, net_lines, pl_lines] = sections;
    let node_lines = node_lines.ok_or_else(|| missing("nodes"))?;
    let net_lines = net_lines.ok_or_else(|| missing("nets"))?;
    let (mut nodes, index) = parse_nodes(node_lines)?;
    let nets = parse_nets(net_lines, &index)?;
    if let Some(pl_lines) = pl_lines {
        parse_pl(pl_lines, &index, &mut nodes)?;
    }
    Ok(BookshelfDesign { name: name.to_owned(), nodes, nets })
}

/// Advance to the next line of the section `lines` is in: `None` at the
/// next `@` marker or the end of the text.
fn section_line(lines: &mut Lines<'_>) -> Option<usize> {
    lines.next_line().filter(|_| !lines.text().starts_with('@'))
}

fn parse_num(field: (usize, &str), lno: usize) -> Result<f64, IngestError> {
    field.1.parse::<f64>().map_err(|_| IngestError::Parse {
        line: lno,
        col: field.0,
        message: format!("expected a number, found `{}`", field.1),
    })
}

/// Shared handling for `UCLA <kind> 1.0` headers and `Key : value`
/// declaration lines. Returns the declared value when the line is a
/// declaration of `key`.
fn header_or_decl(fields: &[(usize, &str)], lno: usize, key: &str) -> Result<Option<u64>, IngestError> {
    if fields.first().is_some_and(|&(_, f)| f == "UCLA") {
        return Ok(Some(u64::MAX)); // header: consumed, no value
    }
    if fields.first().is_some_and(|&(_, f)| f.eq_ignore_ascii_case(key)) {
        let value = match fields {
            [_, (_, ":"), v] => *v,
            [_, v] if v.1.starts_with(':') => (v.0, &v.1[1..]),
            _ => {
                return Err(IngestError::Parse {
                    line: lno,
                    col: fields[0].0,
                    message: format!("malformed `{key}` declaration"),
                })
            }
        };
        let n = value.1.parse::<u64>().map_err(|_| IngestError::Parse {
            line: lno,
            col: value.0,
            message: format!("expected a count, found `{}`", value.1),
        })?;
        return Ok(Some(n));
    }
    Ok(None)
}

/// The nodes in file order, and the index of each by name (slices of
/// the upload; a repeated name resolves to its last node).
fn parse_nodes(
    mut lines: Lines<'_>,
) -> Result<(Vec<BookshelfNode>, HashMap<&str, usize>), IngestError> {
    let mut nodes = Vec::new();
    let mut index = HashMap::new();
    let mut declared: Option<u64> = None;
    while let Some(lno) = section_line(&mut lines) {
        let fields = lines.fields();
        if let Some(n) = header_or_decl(fields, lno, "NumNodes")? {
            if n != u64::MAX {
                declared = Some(n);
            }
            continue;
        }
        if header_or_decl(fields, lno, "NumTerminals")?.is_some() {
            continue;
        }
        // `name width height [terminal]`
        let [name, width, height, rest @ ..] = fields else {
            return Err(IngestError::Parse {
                line: lno,
                col: fields.first().map_or(0, |f| f.0),
                message: format!("bad node line `{}`", lines.text()),
            });
        };
        let terminal = match rest {
            [] => false,
            [(_, t)] if t.eq_ignore_ascii_case("terminal") => true,
            [(col, t)] => {
                return Err(IngestError::Parse {
                    line: lno,
                    col: *col,
                    message: format!("expected `terminal`, found `{t}`"),
                })
            }
            [_, (col, _), ..] => {
                return Err(IngestError::Parse {
                    line: lno,
                    col: *col,
                    message: "too many fields on node line".into(),
                })
            }
        };
        index.insert(name.1, nodes.len());
        nodes.push(BookshelfNode {
            name: name.1.to_owned(),
            width: parse_num(*width, lno)?,
            height: parse_num(*height, lno)?,
            terminal,
            position: None,
        });
    }
    if let Some(declared) = declared {
        if declared != nodes.len() as u64 {
            return Err(IngestError::Validation {
                message: format!(
                    "NumNodes declares {declared} but file lists {}",
                    nodes.len()
                ),
            });
        }
    }
    Ok((nodes, index))
}

fn parse_nets(
    mut lines: Lines<'_>,
    index: &HashMap<&str, usize>,
) -> Result<Vec<BookshelfNet>, IngestError> {
    let mut nets: Vec<BookshelfNet> = Vec::new();
    let mut declared: Option<u64> = None;
    let mut expecting_pins = 0usize;
    while let Some(lno) = section_line(&mut lines) {
        let perr = |col: usize, message: String| IngestError::Parse { line: lno, col, message };
        let fields = lines.fields();
        let Some(&(first_col, first)) = fields.first() else {
            continue;
        };
        if let (true, Some(net)) = (expecting_pins > 0, nets.last_mut()) {
            // `nodename [I|O|B] [: x y]`
            let &node = index.get(first).ok_or_else(|| {
                perr(first_col, format!("pin references unknown node `{first}`"))
            })?;
            let dir = match fields.get(1) {
                Some(&(_, "I")) => 'I',
                Some(&(_, "O")) => 'O',
                Some(&(_, "B" | ":")) | None => 'B',
                Some(&(col, other)) => {
                    return Err(perr(col, format!("bad pin direction `{other}`")))
                }
            };
            net.pins.push((node, dir));
            expecting_pins -= 1;
            continue;
        }
        if let Some(n) = header_or_decl(fields, lno, "NumNets")? {
            if n != u64::MAX {
                declared = Some(n);
            }
            continue;
        }
        if header_or_decl(fields, lno, "NumPins")?.is_some() {
            continue;
        }
        if first.eq_ignore_ascii_case("NetDegree") {
            // `NetDegree : k [name]`
            let (degree, name) = match fields {
                [_, (_, ":"), k, rest @ ..] => (*k, rest.first()),
                [_, k, rest @ ..] if k.1.starts_with(':') => ((k.0, &k.1[1..]), rest.first()),
                _ => return Err(perr(first_col, "malformed `NetDegree` line".into())),
            };
            let k = degree.1.parse::<usize>().map_err(|_| {
                perr(degree.0, format!("bad net degree `{}`", degree.1))
            })?;
            let name = name
                .map(|&(_, n)| n.to_owned())
                .unwrap_or_else(|| format!("net{}", nets.len()));
            // No capacity from `k`: the file, not its header, sizes the list.
            nets.push(BookshelfNet { name, pins: Vec::new() });
            expecting_pins = k;
            continue;
        }
        return Err(perr(first_col, format!("bad nets line `{}`", lines.text())));
    }
    if let (true, Some(net)) = (expecting_pins > 0, nets.last()) {
        return Err(IngestError::Validation {
            message: format!(
                "net `{}` declares {} more pin(s) than the file provides",
                net.name,
                expecting_pins
            ),
        });
    }
    if let Some(declared) = declared {
        if declared != nets.len() as u64 {
            return Err(IngestError::Validation {
                message: format!("NumNets declares {declared} but file lists {}", nets.len()),
            });
        }
    }
    Ok(nets)
}

fn parse_pl(
    mut lines: Lines<'_>,
    index: &HashMap<&str, usize>,
    nodes: &mut [BookshelfNode],
) -> Result<(), IngestError> {
    while let Some(lno) = section_line(&mut lines) {
        let fields = lines.fields();
        if fields.first().is_some_and(|f| f.1 == "UCLA") {
            continue;
        }
        // `name x y [: orientation [/FIXED]]`
        let [name, x, y, ..] = fields else {
            return Err(IngestError::Parse {
                line: lno,
                col: fields.first().map_or(0, |f| f.0),
                message: format!("bad placement line `{}`", lines.text()),
            });
        };
        let &node = index.get(name.1).ok_or_else(|| IngestError::Parse {
            line: lno,
            col: name.0,
            message: format!("placement references unknown node `{}`", name.1),
        })?;
        nodes[node].position = Some((parse_num(*x, lno)?, parse_num(*y, lno)?));
    }
    Ok(())
}

impl BookshelfDesign {
    /// Largest net degree (0 when there are no nets).
    pub fn max_degree(&self) -> usize {
        self.nets.iter().map(|n| n.pins.len()).max().unwrap_or(0)
    }

    /// Lower to the GCN's star-model graph: one node per Bookshelf
    /// node, one edge per (driver, sink) pair per net. The driver is
    /// the first `O` pin, falling back to the first pin. Features
    /// follow the [`NodeFeatures`] layout with placement-flavoured
    /// stand-ins: terminals count as I/Os, movable cells as gates,
    /// area from `width * height`.
    pub fn to_graph(&self) -> DesignGraph {
        let n = self.nodes.len();
        let pins = self.nets.iter().map(|n| n.pins.len()).sum();
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(pins);
        let mut fanin = vec![0usize; n];
        let mut fanout = vec![0usize; n];
        for net in &self.nets {
            let Some(&(driver, _)) = net
                .pins
                .iter()
                .find(|&&(_, d)| d == 'O')
                .or_else(|| net.pins.first())
            else {
                continue;
            };
            for &(sink, _) in &net.pins {
                if sink != driver {
                    edges.push((driver as u32, sink as u32));
                    fanout[driver] += 1;
                    fanin[sink] += 1;
                }
            }
        }
        let max_area = self
            .nodes
            .iter()
            .map(|nd| nd.width * nd.height)
            .fold(1.0_f64, f64::max);
        let features: Vec<NodeFeatures> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, nd)| {
                let mut f = [0.0; FEATURE_DIM];
                // Terminals play the I/O role: sources look like PIs,
                // sinks like POs. Movable cells are "gates".
                f[0] = f64::from(u8::from(nd.terminal && fanin[i] == 0));
                f[1] = f64::from(u8::from(nd.terminal && fanin[i] > 0));
                f[2] = f64::from(u8::from(!nd.terminal));
                f[3] = 0.0;
                f[4] = fanin[i] as f64 / 4.0;
                f[5] = (1.0 + fanout[i] as f64).ln();
                f[6] = 0.0;
                f[7] = 0.0;
                f[8] = (nd.width * nd.height) / max_area;
                f[9] = 1.0;
                NodeFeatures(f)
            })
            .collect();
        DesignGraph::from_edges(self.name.clone(), n, &edges, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "\
@nodes
UCLA nodes 1.0
NumNodes : 4
NumTerminals : 2
  p0 1 1 terminal
  p1 1 1 terminal
  a0 2 1
  a1 3 2
@nets
UCLA nets 1.0
NumNets : 2
NumPins : 5
NetDegree : 3 n0
  p0 O
  a0 I
  a1 I
NetDegree : 2 n1
  a1 O
  p1 I
@pl
UCLA pl 1.0
p0 0 0 : N
a0 4 2 : N
";

    #[test]
    fn parses_all_three_sections() {
        let d = parse_bookshelf("tiny", TINY).expect("parses");
        assert_eq!(d.nodes.len(), 4);
        assert_eq!(d.nets.len(), 2);
        assert_eq!(d.nets.iter().map(|n| n.pins.len()).sum::<usize>(), 5);
        assert_eq!(d.max_degree(), 3);
        assert!(d.nodes[0].terminal);
        assert_eq!(d.nodes[0].position, Some((0.0, 0.0)));
        assert_eq!(d.nodes[2].position, Some((4.0, 2.0)));
        assert_eq!(d.nodes[3].position, None);
    }

    #[test]
    fn star_model_graph_has_driver_to_sink_edges() {
        let d = parse_bookshelf("tiny", TINY).expect("parses");
        let g = d.to_graph();
        assert_eq!(g.node_count(), 4);
        // n0 contributes p0->a0, p0->a1; n1 contributes a1->p1.
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn count_mismatches_are_validation_errors() {
        let bad = TINY.replace("NumNodes : 4", "NumNodes : 5");
        let e = parse_bookshelf("tiny", &bad).unwrap_err();
        assert!(matches!(e, IngestError::Validation { .. }), "{e}");
        let bad = TINY.replace("NetDegree : 3 n0", "NetDegree : 4 n0");
        let e = parse_bookshelf("tiny", &bad).unwrap_err();
        assert!(matches!(e, IngestError::Parse { .. } | IngestError::Validation { .. }), "{e}");
    }

    #[test]
    fn errors_are_typed_and_positioned() {
        // Content before any marker.
        let e = parse_bookshelf("x", "UCLA nodes 1.0\n").unwrap_err();
        assert!(matches!(e, IngestError::Parse { line: 1, .. }), "{e}");
        // Unknown marker.
        let e = parse_bookshelf("x", "@scl\n").unwrap_err();
        assert!(e.to_string().contains("@scl"), "{e}");
        // Unknown pin node.
        let bad = TINY.replace("  a0 I", "  ghost I");
        let e = parse_bookshelf("x", &bad).unwrap_err();
        assert!(e.to_string().contains("ghost"), "{e}");
        // Missing sections.
        assert!(parse_bookshelf("x", "@nodes\na 1 1\n").is_err());
        assert!(parse_bookshelf("x", "").is_err());
    }

    #[test]
    fn sections_are_found_wherever_they_sit() {
        // `@nets` ahead of `@nodes`, and a second `@nodes` nobody reads.
        let (nodes, rest) = TINY.split_once("@nets").expect("two sections");
        let shuffled = format!("@nets{rest}{nodes}@nodes\nghost 1 1\n");
        assert_eq!(parse_bookshelf("tiny", &shuffled), parse_bookshelf("tiny", TINY));
        // Markers and missing sections are reported before any line is read.
        let e = parse_bookshelf("x", &format!("{TINY}@scl\n")).unwrap_err();
        assert!(e.to_string().contains("@scl"), "{e}");
        let e = parse_bookshelf("x", "@nodes\nnot a node line\n").unwrap_err();
        assert!(e.to_string().contains("missing `@nets`"), "{e}");
    }

    #[test]
    fn a_declared_degree_allocates_nothing() {
        let bad = TINY.replace("NetDegree : 2 n1", "NetDegree : 18446744073709551615 n1");
        let e = parse_bookshelf("tiny", &bad).unwrap_err();
        assert!(e.to_string().contains("more pin(s) than the file provides"), "{e}");
    }
}
