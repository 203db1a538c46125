//! Reference audit, three grains. **Modules**: every `crates/*/src` module
//! has a top-level `pub` item that some *other* `.rs` file names outside
//! comments and `pub use` lines. **Items**: every `pub fn` / `pub(crate) fn`
//! a member crate declares above its file's first `#[cfg(test)]` is named by
//! product code — a bin, an example, the e2e workloads or non-test library
//! code — or sits in [`TEST_REFERENCES`] with the reason it stays. A module
//! or function only tests and benches reach is a design nobody runs.
//! **Knobs**: the `pub` fields of the configuration structs are counted, and
//! so are those no product code outside the declaring file ever sets; both
//! counts have a ceiling that may only be lowered.

use std::path::{Path, PathBuf};
use std::{collections::HashSet, fs};

/// Functions no product code names that stay anyway, each with its reason:
/// references that tests compare a fast path against, the paper-mapped
/// tenancy model, a checker waiting for its harness phase, a pinned name.
const TEST_REFERENCES: &[(&str, &str)] = &[
    ("run_full_flow", "the four engines chained; tier-1 full_flow and determinism drive it"),
    ("with_verify_mode", "selects VerifyMode::Sat + netlist::cec, the sound equivalence reference"),
    ("exhaustive_min_cost", "brute-force optimum the MCKP dynamic program is compared against"),
    ("greedy", "Figure 6's greedy-ratio baseline; solver properties hold the DP against it"),
    ("from_rows", "how gcn's unit tests and oracle differentials write a literal matrix"),
    ("identity", "vocabulary of the gcn differentials (A·I = A)"),
    ("xeon_14_core", "cloud::tenancy maps the paper's cgroups host (PAPER.md); tier-1 drives it"),
    ("with_cores", "cloud::tenancy: the host-capacity property test sizes a host with it"),
    ("check_recipe_visit_conservation", "ROADMAP item 6 wires it into run_simtest's recipe phase"),
    ("is_accepted", "named by a unit test inside crates/bench/e2e, which this PR may not edit"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()) {
        if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(path relative to the repo root, text)` of every `.rs` file under the
/// four source roots.
fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    "crates src tests examples".split(' ').for_each(|d| rust_files(&root.join(d), &mut files));
    let rel = |f: &PathBuf| {
        let parts = f.strip_prefix(root).expect("under root").iter();
        parts.map(|p| p.to_string_lossy()).collect::<Vec<_>>().join("/")
    };
    files.iter().map(|f| (rel(f), fs::read_to_string(f).expect("utf-8"))).collect()
}

fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !c.is_alphanumeric() && c != '_').filter(|w| !w.is_empty())
}

/// Trimmed lines of `src`, skipping `//` lines and `pub use …;`.
fn code_lines(src: &str) -> impl Iterator<Item = &str> {
    let mut in_use = false;
    src.lines().map(str::trim).filter(move |line| {
        in_use |= line.starts_with("pub use ") || line.starts_with("pub(crate) use ");
        let skip = in_use || line.starts_with("//");
        in_use &= !line.ends_with(';');
        !skip
    })
}

/// Identifier tokens of `src`, skipping `//` lines and `pub use …;`.
fn words(src: &str) -> HashSet<&str> {
    code_lines(src).flat_map(idents).collect()
}

/// The name a top-level `pub struct|enum|trait|fn|type|const` line declares.
fn pub_name(line: &str) -> Option<&str> {
    let mut w = idents(line.strip_prefix("pub ")?);
    let kind = w.next()?;
    let name = w.find(|t| *t != "fn")?; // `pub const fn name`
    ["struct", "enum", "trait", "fn", "type", "const"].contains(&kind).then_some(name)
}

#[test]
fn every_module_is_named_by_some_other_file() {
    let sources = workspace_sources();
    let tokens: Vec<HashSet<&str>> = sources.iter().map(|(_, text)| words(text)).collect();
    let mut orphans = Vec::new();
    for (i, (path, text)) in sources.iter().enumerate() {
        let at: Vec<_> = path.split('/').collect();
        let audited = matches!(at[..], ["crates", _, "src", f] if f != "lib.rs");
        let mut names = text.lines().filter_map(pub_name).peekable();
        let named = |n: &str| tokens.iter().enumerate().any(|(j, t)| j != i && t.contains(n));
        if audited && names.peek().is_some() && !names.any(named) {
            orphans.push(path);
        }
    }
    assert!(orphans.is_empty(), "modules that no other file names: {orphans:?}");
}

/// `src` above its first `#[cfg(test)]`: the part the product compiles.
fn product(src: &str) -> &str {
    src.find("#[cfg(test)]").map_or(src, |at| &src[..at])
}

/// The name a `pub fn` / `pub(crate) fn` line declares, at any indent. Trait
/// and trait-impl methods carry no `pub` and are not audited.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("pub(crate) ").or_else(|| line.strip_prefix("pub "))?;
    let mut w = idents(rest).skip_while(|t| ["const", "unsafe"].contains(t));
    (w.next()? == "fn").then(|| w.next()).flatten()
}

/// Identifier tokens of one code line that *use* a name: a trailing `//`
/// comment is dropped, and so is the name a `fn` declares — a second
/// declaration of `total` is not a caller of the first.
fn uses(line: &str) -> impl Iterator<Item = &str> {
    let mut prev = "";
    let code = line.split("//").next().unwrap_or(line);
    idents(code).filter(move |w| std::mem::replace(&mut prev, w) != "fn")
}

/// A file whose non-test part is product code: not under `tests/` or `benches/`.
fn caller(path: &str) -> bool {
    !path.split('/').any(|dir| dir == "tests" || dir == "benches")
}

/// A `crates/*/src/**` file: where audited declarations live.
fn audited(path: &str) -> bool {
    matches!(path.split('/').collect::<Vec<_>>()[..], ["crates", _, "src", _, ..])
}

/// `path: name` of every function declared above the first `#[cfg(test)]` of a
/// `crates/*/src/**` file that nothing names from product code: callers are
/// the non-test part of any file outside a `tests/` or `benches/` directory.
fn unreferenced_fns(sources: &[(String, String)], allowed: &[(&str, &str)]) -> Vec<String> {
    let called: HashSet<&str> = sources
        .iter()
        .filter(|(path, _)| caller(path))
        .flat_map(|(_, text)| code_lines(product(text)).flat_map(uses))
        .collect();
    let mut orphans = Vec::new();
    for (path, text) in sources.iter().filter(|(path, _)| audited(path)) {
        for name in code_lines(product(text)).filter_map(pub_fn_name) {
            if !called.contains(name) && !allowed.iter().any(|(n, _)| *n == name) {
                orphans.push(format!("{path}: {name}"));
            }
        }
    }
    orphans
}

#[test]
fn every_public_function_is_named_by_product_code() {
    let sources = workspace_sources();
    let orphans = unreferenced_fns(&sources, TEST_REFERENCES);
    assert!(
        orphans.is_empty(),
        "{} functions only tests or benches name (delete them, or add them to \
         TEST_REFERENCES with a reason):\n{}",
        orphans.len(),
        orphans.join("\n")
    );
    // A stale allow-list entry fails too: each must still be declared and
    // still have no product caller.
    let unlisted = unreferenced_fns(&sources, &[]);
    for (name, reason) in TEST_REFERENCES {
        assert!(!reason.is_empty(), "`{name}` needs a reason");
        let wanted = format!(": {name}");
        let live = unlisted.iter().any(|o| o.ends_with(&wanted));
        assert!(live, "stale TEST_REFERENCES entry `{name}`");
    }
}

#[test]
fn the_audit_reports_test_only_functions_and_nothing_else() {
    let lib = "pub struct Gauge;\n\
               impl Gauge {\n    pub fn read(&self) -> u32 { self.raw() }\n    \
               pub(crate) fn raw(&self) -> u32 { 7 }\n    pub fn reset(&mut self) {}\n}\n\
               impl std::fmt::Display for Gauge {\n    \
               fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n}\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::Gauge.read(); }\n}\n";
    let user = "// gauge.reset() in a comment is not a call\n\
                pub use gauge::reset;\n\
                #[cfg(test)]\nmod tests {\n    fn t(g: &mut Gauge) { g.reset(); g.read(); }\n}\n";
    let file = |path: &str, text: &str| (path.to_owned(), text.to_owned());
    let sources = vec![file("crates/a/src/gauge.rs", lib), file("crates/b/src/lib.rs", user)];
    // (i) `read` and `reset` are named only below a `#[cfg(test)]`, in a comment,
    // by a `pub use` and by their own declarations; `raw` has a product caller;
    // (iii) the trait-impl method `fmt` carries no `pub` and is exempt.
    let reported = unreferenced_fns(&sources, &[]);
    assert_eq!(reported, ["crates/a/src/gauge.rs: read", "crates/a/src/gauge.rs: reset"]);
    // (ii) an allow-listed name is not reported.
    let allowed = unreferenced_fns(&sources, &[("reset", "kept for a reason")]);
    assert_eq!(allowed, ["crates/a/src/gauge.rs: read"]);
    // A caller under `tests/` or `benches/` is not product code; one in a bin is.
    let caller = "fn main() { Gauge.read(); Gauge.reset(); }\n";
    for (path, orphans) in
        [("crates/a/tests/it.rs", 2), ("crates/a/benches/b.rs", 2), ("crates/a/src/bin/x.rs", 0)]
    {
        let with_caller = [sources.clone(), vec![file(path, caller)]].concat();
        assert_eq!(unreferenced_fns(&with_caller, &[]).len(), orphans, "{path}");
    }
}

/// Ceilings of the knob census; lower them when a knob goes, never raise them.
const MAX_KNOBS: usize = 110;
const MAX_UNWRITTEN_KNOBS: usize = 10;

/// A struct whose `pub` fields are knobs: each is a value a caller may set.
fn is_knob_struct(name: &str) -> bool {
    ["Config", "Scenario", "Policy", "Quotas"].iter().any(|end| name.ends_with(end))
        || ["Trainer", "Retrainer"].contains(&name)
}

/// Whether `line` sets a field called `field`: `field:` in a struct literal
/// (not the path `field::`), `.field =` (not `==`), or the field-init
/// shorthand `{ field,` / `, field }`, outside a trailing comment.
fn writes(line: &str, field: &str) -> bool {
    let code = line.split("//").next().unwrap_or(line);
    code.match_indices(field).any(|(at, _)| {
        let prev = code[..at].chars().next_back();
        let rest = &code[at + field.len()..];
        let literal = prev != Some('.') && rest.starts_with(':') && !rest.starts_with("::");
        let assigned = rest.trim_start().strip_prefix('=').is_some_and(|r| !r.starts_with('='));
        let (before, after) = (code[..at].trim_end(), rest.trim_start());
        let shorthand = (before.ends_with('{') || before.ends_with(','))
            && (after.starts_with(',') || after.starts_with('}'));
        let starts_ident = !prev.is_some_and(|c| c.is_alphanumeric() || c == '_');
        starts_ident && (literal || prev == Some('.') && assigned || shorthand)
    })
}

/// Whether a line ending in `{` opens a struct literal (`let c = Name {`,
/// `Ok(Self {`) rather than an item, a function body or a control block.
fn opens_literal(line: &str) -> bool {
    let head = line.trim_end_matches('{').trim_end();
    let name = head.rsplit(|c: char| !c.is_alphanumeric() && c != '_').next().unwrap_or("");
    let item = idents(line).any(|w| ["struct", "enum", "impl", "trait", "fn"].contains(&w));
    name.starts_with(|c: char| c.is_ascii_uppercase()) && !item
}

/// Whether product code `code` sets `field`: [`writes`] on some line, or the
/// shorthand `field,` on a line of its own directly inside a struct literal.
fn sets(code: &str, field: &str) -> bool {
    let mut in_literal = false;
    code_lines(code).any(|line| {
        let lone = in_literal && line.strip_suffix(',') == Some(field);
        if line.ends_with('{') {
            in_literal = opens_literal(line);
        } else if line.starts_with('}') {
            in_literal = false;
        }
        lone || writes(line, field)
    })
}

/// `Struct.field` of every `pub` field of a knob struct declared above the first
/// `#[cfg(test)]` of a `crates/*/src/**` file, and the subset with no product
/// writer: no struct literal or assignment sets a field of that name in the
/// non-test part of another file outside `tests/` and `benches/` (the
/// field-init shorthand included). The match is
/// by field name, so a namesake in another struct counts as a writer — the
/// second list is a floor.
fn knob_census(sources: &[(String, String)]) -> (Vec<String>, Vec<String>) {
    // Product code of every possible writer, with its identifiers as a prefilter.
    let writers: Vec<(&String, &str, HashSet<&str>)> = sources
        .iter()
        .filter(|(path, _)| caller(path))
        .map(|(path, text)| (path, product(text), words(product(text))))
        .collect();
    let (mut knobs, mut unwritten) = (Vec::new(), Vec::new());
    for (path, text) in sources.iter().filter(|(path, _)| audited(path)) {
        let mut owner = None;
        for line in code_lines(product(text)) {
            if let Some(name) = line.strip_prefix("pub struct ").and_then(|l| idents(l).next()) {
                owner = (is_knob_struct(name) && line.ends_with('{')).then_some(name);
            } else if line == "}" {
                owner = None;
            } else if let (Some(owner), Some(rest)) = (owner, line.strip_prefix("pub ")) {
                let Some(field) = idents(rest).next().filter(|f| rest[f.len()..].starts_with(':'))
                else {
                    continue;
                };
                let written = writers.iter().any(|(other, code, names)| {
                    *other != path
                        && names.contains(field)
                        && sets(code, field)
                });
                knobs.push(format!("{owner}.{field}"));
                if !written {
                    unwritten.push(format!("{owner}.{field}"));
                }
            }
        }
    }
    (knobs, unwritten)
}

#[test]
fn public_knobs_are_not_up() {
    let (knobs, unwritten) = knob_census(&workspace_sources());
    assert!(
        knobs.len() <= MAX_KNOBS && unwritten.len() <= MAX_UNWRITTEN_KNOBS,
        "{} public knobs (ceiling {MAX_KNOBS}), {} that no product code sets (ceiling \
         {MAX_UNWRITTEN_KNOBS}) — delete a knob, do not raise a ceiling.\nknobs: {}\nnever set: {}",
        knobs.len(),
        unwritten.len(),
        knobs.join(" "),
        unwritten.join(" ")
    );
}

#[test]
fn the_census_counts_pub_fields_and_their_product_writers() {
    let lib = "pub struct GaugeConfig {\n    /// Samples per second.\n    pub rate: u32,\n    \
               pub depth: u32,\n    pub tag: u32,\n    cap: u32,\n}\n\
               pub struct Gauge {\n    pub raw: u32,\n}\n\
               fn own() -> GaugeConfig { GaugeConfig { rate: 1, depth: 1, tag: 1, cap: 1 } }\n\
               #[cfg(test)]\nmod tests {\n    pub struct HiddenConfig {\n        pub x: u32,\n    }\n}\n";
    let bin = "fn main() {\n    let mut c = GaugeConfig { rate: 3, ..own() }; // depth: 9\n    \
               if c.depth == 2 { let _ = depth::MAX; }\n    c.cap = 2;\n}\n";
    let file = |path: &str, text: &str| (path.to_owned(), text.to_owned());
    let sources = vec![file("crates/a/src/gauge.rs", lib), file("crates/a/src/bin/x.rs", bin)];
    // `cap` is private, `Gauge` is not a knob struct, `HiddenConfig` is test code;
    // the declaring file's own literal, a comment, `==` and a path are not writers.
    let (knobs, unwritten) = knob_census(&sources);
    assert_eq!(knobs, ["GaugeConfig.rate", "GaugeConfig.depth", "GaugeConfig.tag"]);
    assert_eq!(unwritten, ["GaugeConfig.depth", "GaugeConfig.tag"]);
    // An assignment in an example is a product writer; one under `tests/` is not.
    let assign = "fn f(c: &mut GaugeConfig) { c.depth = 4; c.tag= 5; }\n";
    for (path, left) in [("examples/e.rs", 0), ("crates/a/tests/it.rs", 2)] {
        let with_writer = [sources.clone(), vec![file(path, assign)]].concat();
        assert_eq!(knob_census(&with_writer).1.len(), left, "{path}");
    }
    // The field-init shorthand is a writer, in a one-line literal or on a line
    // of its own inside a multi-line one; a lone `tag,` call argument is not.
    let one_line = "fn f() -> GaugeConfig {\n    let depth = 4;\n    GaugeConfig { rate: 1, depth }\n}\n";
    let own_line = "fn f() -> GaugeConfig {\n    let tag = 5;\n    GaugeConfig {\n        tag,\n        \
                    ..own()\n    }\n}\n";
    let argument = "fn f() {\n    let tag = 5;\n    g(\n        tag,\n    );\n}\n";
    for (text, left) in [(one_line, "GaugeConfig.tag"), (own_line, "GaugeConfig.depth")] {
        let with_writer = [sources.clone(), vec![file("crates/a/src/bin/y.rs", text)]].concat();
        assert_eq!(knob_census(&with_writer).1, [left], "{text}");
    }
    let with_call = [sources.clone(), vec![file("crates/a/src/bin/y.rs", argument)]].concat();
    assert_eq!(knob_census(&with_call).1.len(), 2, "a call argument sets nothing");
}
