//! Reference audit, two grains. **Modules**: every `crates/*/src` module
//! has a top-level `pub` item that some *other* `.rs` file names outside
//! comments and `pub use` lines. **Items**: every `pub fn` / `pub(crate) fn`
//! a member crate declares above its file's first `#[cfg(test)]` is named by
//! product code — a bin, an example, the e2e workloads or non-test library
//! code — or sits in [`TEST_REFERENCES`] with the reason it stays. A module
//! or function only tests and benches reach is a design nobody runs.

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

/// `path: name` of every function declared above the first `#[cfg(test)]` of a
/// `crates/*/src/**` file that nothing names from product code: callers are
/// the non-test part of any file outside a `tests/` or `benches/` directory.
fn unreferenced_fns(sources: &[(String, String)], allowed: &[(&str, &str)]) -> Vec<String> {
    let caller = |path: &str| !path.split('/').any(|dir| dir == "tests" || dir == "benches");
    let audited = |path: &str| {
        matches!(path.split('/').collect::<Vec<_>>()[..], ["crates", _, "src", _, ..])
    };
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
