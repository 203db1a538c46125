//! Reference audit, three grains. **Modules**: every `crates/*/src` module
//! has a top-level `pub` item that some *other* `.rs` file names outside
//! comments and `pub use` lines. **Items**: every `pub fn` / `pub(crate) fn`
//! a member crate declares above its file's first `#[cfg(test)]` is named by
//! product code — a bin, an example, the e2e workloads or non-test library
//! code — or sits in [`TEST_REFERENCES`] with the reason it stays. A module
//! or function only tests and benches reach is a design nobody runs. A file
//! that a `#[cfg(test)]` `mod` declaration names is test code throughout: it
//! neither declares audited items nor calls or writes them. Tier-1 matches
//! callers by name; the ignored census test resolves them by owner, through
//! the compiler.
//! **Knobs**: the `pub` fields of the configuration structs are counted, and
//! so are those no product code outside the declaring file ever sets; both
//! counts have a ceiling that may only be lowered.

use std::path::{Path, PathBuf};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::process::Command;

/// Items no product code uses that stay anyway, each with its reason:
/// references that tests compare a fast path against, a checker waiting for
/// its harness phase, a pinned name, a method clippy requires. Each is keyed
/// by its owner, `Type::name` for an inherent method or associated const and
/// `path: name` for a free one, so a namesake cannot stand in for it.
const TEST_REFERENCES: &[(&str, &str)] = &[
    (
        "crates/flow/src/lib.rs: run_full_flow",
        "the four engines chained; tier-1 full_flow and determinism drive it",
    ),
    (
        "crates/mckp/src/baselines.rs: exhaustive_min_cost",
        "brute-force optimum the MCKP dynamic program is compared against",
    ),
    (
        "crates/mckp/src/baselines.rs: greedy",
        "Figure 6's greedy-ratio baseline; solver properties hold the DP against it",
    ),
    ("Matrix::from_rows", "how gcn's unit tests and oracle differentials write a literal matrix"),
    ("Matrix::identity", "vocabulary of the gcn differentials (A·I = A)"),
    (
        "crates/simtest/src/check.rs: check_recipe_visit_conservation",
        "ROADMAP's robustness item (its fault coverage) wires it into run_simtest's recipe phase",
    ),
    (
        "IngestOutcome::is_accepted",
        "named by a unit test inside the pinned crates/bench/e2e package",
    ),
    (
        "EventHeap::is_empty",
        "clippy's len_without_is_empty requires it beside the len product code calls",
    ),
    (
        "ReplayBuffer::is_empty",
        "clippy's len_without_is_empty requires it beside the len product code calls",
    ),
    (
        "QuantizedPredictor::predict_log",
        "int8's per-sample reference for the row-class differentials; goes when int8 retires",
    ),
    ("CellKind::ALL", "how the tech and netlist tests enumerate every cell kind"),
];

/// Every file under `dir`, skipping `.git` and every `target` directory.
fn tree_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()) {
        if path.is_dir() && path.file_name().is_some_and(|n| n != "target" && n != ".git") {
            tree_files(&path, out);
        } else if path.is_file() {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, `/`-separated.
fn relative(path: &Path, root: &Path) -> String {
    let parts = path.strip_prefix(root).expect("under root").iter();
    parts.map(|p| p.to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// `(path relative to the repo root, text)` of every `.rs` file under the
/// four source roots.
fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    "crates src tests examples".split(' ').for_each(|d| tree_files(&root.join(d), &mut files));
    let rust = files.iter().filter(|f| f.extension().is_some_and(|e| e == "rs"));
    rust.map(|f| (relative(f, root), fs::read_to_string(f).expect("utf-8"))).collect()
}

fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !c.is_alphanumeric() && c != '_').filter(|w| !w.is_empty())
}

/// `(index, line)` of the lines of `src`, skipping `//` lines and `pub use …;`.
fn numbered_code_lines(src: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut in_use = false;
    src.lines().enumerate().filter(move |(_, line)| {
        let line = line.trim();
        in_use |= line.starts_with("pub use ") || line.starts_with("pub(crate) use ");
        let skip = in_use || line.starts_with("//");
        in_use &= !line.ends_with(';');
        !skip
    })
}

/// Trimmed lines of `src`, skipping `//` lines and `pub use …;`.
fn code_lines(src: &str) -> impl Iterator<Item = &str> {
    numbered_code_lines(src).map(|(_, line)| line.trim())
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
/// comment is dropped, and so is the name a `fn`, `const` or `static`
/// declares — a second declaration of `total` is not a caller of the first.
fn uses(line: &str) -> impl Iterator<Item = &str> {
    let mut prev = "";
    let code = line.split("//").next().unwrap_or(line);
    let declares = |w: &str| ["fn", "const", "static"].contains(&w);
    idents(code).filter(move |w| !declares(std::mem::replace(&mut prev, w)))
}

/// A file whose non-test part is product code: not under `tests/` or `benches/`.
fn caller(path: &str) -> bool {
    !path.split('/').any(|dir| dir == "tests" || dir == "benches")
}

/// `a/b/../c` → `a/c`.
fn normalize(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for part in path.split('/') {
        match part {
            "." | "" => {}
            ".." => {
                parts.pop();
            }
            _ => parts.push(part),
        }
    }
    parts.join("/")
}

/// Paths of the files a `#[cfg(test)]`-gated `mod name;` declares: the
/// `#[path]` it gives, relative to the declaring file's directory, else
/// `name.rs` or `name/mod.rs` beside a `lib.rs` / `main.rs` / `mod.rs` and
/// under `stem/` beside any other file. Their whole text is test code.
fn test_modules(sources: &[(String, String)]) -> HashSet<String> {
    let mut found = HashSet::new();
    for (path, text) in sources {
        let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
        let stem = file.strip_suffix(".rs").unwrap_or(file);
        let beside = ["lib", "main", "mod"].contains(&stem);
        let base = if beside { dir.to_owned() } else { format!("{dir}/{stem}") };
        // Inside the attributes of a `#[cfg(test)]` item, and its `#[path]`.
        let (mut gated, mut at) = (false, None);
        for line in text.lines().map(str::trim) {
            if line == "#[cfg(test)]" || gated && line.starts_with("#[") {
                gated = true;
                let path = line.strip_prefix("#[path = \"").and_then(|p| p.strip_suffix("\"]"));
                at = path.or(at);
                continue;
            }
            let declared = ["pub(crate) mod ", "pub mod ", "mod "]
                .iter()
                .find_map(|v| line.strip_prefix(v))
                .and_then(|rest| rest.strip_suffix(';'));
            match (gated, declared, at) {
                (true, Some(_), Some(to)) => {
                    found.insert(normalize(&format!("{dir}/{to}")));
                }
                (true, Some(name), None) => {
                    found.insert(format!("{base}/{name}.rs"));
                    found.insert(format!("{base}/{name}/mod.rs"));
                }
                _ => {}
            }
            (gated, at) = (false, None);
        }
    }
    found
}

/// `(path, product part)` of every file whose non-test part product code
/// compiles: a [`caller`] that no `#[cfg(test)]` module declaration names.
fn product_sources(sources: &[(String, String)]) -> Vec<(&String, &str)> {
    let tests = test_modules(sources);
    let compiled = sources.iter().filter(|(path, _)| caller(path) && !tests.contains(path));
    compiled.map(|(path, text)| (path, product(text))).collect()
}

/// A `crates/*/src/**` file: where audited declarations live.
fn audited(path: &str) -> bool {
    matches!(path.split('/').collect::<Vec<_>>()[..], ["crates", _, "src", _, ..])
}

/// The name a `pub` / `pub(crate)` `const` or `static` line declares (not
/// a `const fn`).
fn pub_const_name(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("pub(crate) ").or_else(|| line.strip_prefix("pub "))?;
    let mut w = idents(rest);
    let kind = w.next()?;
    let name = w.next().filter(|name| *name != "fn")?;
    ["const", "static"].contains(&kind).then_some(name)
}

/// One audited declaration: a `pub` / `pub(crate)` `fn`, `const` or `static`
/// above the first `#[cfg(test)]` of a `crates/*/src/**` product file.
struct Item<'a> {
    path: &'a str,
    /// Index of the declaring line in the file.
    line: usize,
    /// The type of the inherent `impl` block it sits in; `None` when free.
    owner: Option<&'a str>,
    name: &'a str,
    is_fn: bool,
}

impl Item<'_> {
    /// How [`TEST_REFERENCES`] names it: `Type::name`, or `path: name` when free.
    fn key(&self) -> String {
        match self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => format!("{}: {}", self.path, self.name),
        }
    }

    /// How a failure lists it: its file, then its owner and name.
    fn label(&self) -> String {
        match self.owner {
            Some(owner) => format!("{}: {owner}::{}", self.path, self.name),
            None => self.key(),
        }
    }
}

/// The audited items of `code`, the product part of the file at `path`. A
/// one-line `impl … {` header owns the items up to the `}` at its indent.
fn declared_items<'a>(path: &'a str, code: &'a str) -> Vec<Item<'a>> {
    let no_aliases = HashMap::new();
    let (mut owner, mut items) = (None, Vec::new());
    for (line, raw) in numbered_code_lines(code) {
        let text = raw.trim();
        let indent = raw.len() - raw.trim_start().len();
        if owner.is_some_and(|(_, at)| at == indent && text.starts_with('}')) {
            owner = None;
        }
        if text.starts_with("impl") && text.ends_with('{') {
            if let Frame::Impl(ty) = opens(text, text.len() - 1, &[], &no_aliases) {
                owner = Some((ty, indent));
            }
        }
        let found = pub_fn_name(text).map(|name| (name, true));
        let found = found.or_else(|| pub_const_name(text).map(|name| (name, false)));
        if let Some((name, is_fn)) = found {
            items.push(Item { path, line, owner: owner.map(|(ty, _)| ty), name, is_fn });
        }
    }
    items
}

/// Every [`declared_items`] entry of a `crates/*/src/**` file among the
/// [`product_sources`]: the items the audits hold to a product user. Its
/// functions are the ones [`MAX_PRODUCT_FNS`] counts.
fn product_items<'a>(product: &[(&'a String, &'a str)]) -> Vec<Item<'a>> {
    let audited = product.iter().filter(|(path, _)| audited(path));
    audited.flat_map(|(path, code)| declared_items(path, code)).collect()
}

/// Every identifier product code uses.
fn called_names<'a>(product: &[(&String, &'a str)]) -> HashSet<&'a str> {
    product.iter().flat_map(|(_, code)| code_lines(code).flat_map(uses)).collect()
}

/// `path: [Type::]name` of every function among the [`product_items`] that
/// nothing names from product code: callers are the [`product_sources`].
fn unreferenced_fns(sources: &[(String, String)], allowed: &[(&str, &str)]) -> Vec<String> {
    let product = product_sources(sources);
    let called = called_names(&product);
    let unlisted = |item: &Item| !allowed.iter().any(|(key, _)| *key == item.key());
    product_items(&product)
        .iter()
        .filter(|item| item.is_fn && !called.contains(item.name) && unlisted(item))
        .map(Item::label)
        .collect()
}

/// Each entry of `allowed` that is stale as far as names can tell: it keys
/// no audited item or several, or product code names it while no other
/// audited item shares its name. A shared name only the census can judge.
fn stale_by_name(sources: &[(String, String)], allowed: &[(&str, &str)]) -> Vec<String> {
    let product = product_sources(sources);
    let (called, items) = (called_names(&product), product_items(&product));
    let namesakes = |item: &Item| items.iter().filter(|other| other.name == item.name).count();
    let mut stale = Vec::new();
    for (key, _) in allowed {
        let keyed: Vec<&Item> = items.iter().filter(|item| item.key() == *key).collect();
        match keyed[..] {
            [item] if called.contains(item.name) && namesakes(item) == 1 => {
                stale.push(format!("{key} (product code names it)"));
            }
            [_] => {}
            _ => stale.push(format!("{key} (declared {} times)", keyed.len())),
        }
    }
    stale
}

/// First words of a top-level item; a line that starts with anything else
/// at column 0 belongs to the item above it (a string literal's lines).
const ITEM: &[&str] = &[
    "pub", "fn", "impl", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
    "extern", "unsafe", "macro_rules", "thread_local",
];

/// `path:line: text` of every top-level item of a `crates/*/src/**` file that
/// sits below the file's first `#[cfg(test)]` without being gated by one
/// itself, and of a first `#[cfg(test)]` inside an item: product code that
/// [`product`] cuts away, so no audit in this file would see it.
fn hidden_product_items(sources: &[(String, String)]) -> Vec<String> {
    let tests = test_modules(sources);
    let mut hidden = Vec::new();
    for (path, text) in sources.iter().filter(|(path, _)| audited(path) && !tests.contains(path)) {
        let Some(first) = text.find("#[cfg(test)]") else { continue };
        let line_no = text[..first].matches('\n').count() + 1;
        if !(first == 0 || text[..first].ends_with('\n')) {
            hidden.push(format!("{path}:{line_no}: #[cfg(test)] inside an item"));
        }
        let mut gated = false;
        for (n, line) in text[first..].lines().enumerate() {
            if line.starts_with("#[cfg(test)]") {
                gated = true;
            } else if idents(line).next().is_some_and(|w| line.starts_with(w) && ITEM.contains(&w)) {
                if !gated {
                    hidden.push(format!("{path}:{}: {line}", line_no + n));
                }
                gated = false;
            }
        }
    }
    hidden
}

#[test]
fn no_product_item_hides_below_a_test_module() {
    let hidden = hidden_product_items(&workspace_sources());
    assert!(
        hidden.is_empty(),
        "product items below a `#[cfg(test)]` (move the test modules to the end of the file):\n{}",
        hidden.join("\n")
    );
}

#[test]
fn the_hidden_item_check_reports_ungated_items_below_tests() {
    let file = |path: &str, text: &str| (path.to_owned(), text.to_owned());
    let tail = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n\n\
                /// Doc.\n#[must_use]\npub fn late() -> u8 {\n    1\n}\n\n\
                #[cfg(test)]\n#[path = \"more.rs\"]\nmod more;\n";
    let inner = "impl Gauge {\n    #[cfg(test)]\n    fn fixture() {}\n    pub fn read() {}\n}\n";
    let sources = vec![
        file("crates/a/src/lib.rs", &format!("pub fn early() {{}}\n\n{tail}")),
        file("crates/a/src/gauge.rs", inner),
        // Test code throughout: `more.rs`, which a gated `mod` declares, and
        // files outside `crates/*/src`.
        file("crates/a/src/more.rs", tail),
        file("tests/it.rs", tail),
    ];
    assert_eq!(
        hidden_product_items(&sources),
        [
            "crates/a/src/lib.rs:11: pub fn late() -> u8 {",
            "crates/a/src/gauge.rs:2: #[cfg(test)] inside an item",
        ]
    );
    // With its test modules moved to the end, the file passes.
    let tests_last = &tail[..tail.find("\n\n").expect("two items")];
    let moved = format!("pub fn early() {{}}\n\npub fn late() {{}}\n\n{tests_last}\n");
    assert!(hidden_product_items(&[file("crates/a/src/lib.rs", &moved)]).is_empty());
}

/// Ceiling of the product `pub` / `pub(crate) fn`s; lower it when one goes,
/// never raise it.
const MAX_PRODUCT_FNS: usize = 567;

#[test]
fn product_functions_are_not_up() {
    let sources = workspace_sources();
    let items = product_items(&product_sources(&sources));
    let count = items.iter().filter(|item| item.is_fn).count();
    assert!(
        count <= MAX_PRODUCT_FNS,
        "{count} product `pub` / `pub(crate) fn`s (ceiling {MAX_PRODUCT_FNS}) — delete one, do \
         not raise the ceiling"
    );
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
    // A stale allow-list entry fails too: each must still be declared, once,
    // and, where its name is its own, still have no product caller.
    for (key, reason) in TEST_REFERENCES {
        assert!(!reason.is_empty(), "`{key}` needs a reason");
    }
    let stale = stale_by_name(&sources, TEST_REFERENCES);
    assert!(stale.is_empty(), "stale TEST_REFERENCES entries:\n{}", stale.join("\n"));
}

/// `text` with `#[deprecated(note = "owner-census:<index>:")]` above each
/// `(line, index)` of `marks` (in line order), at that line's indent.
fn mark(text: &str, marks: &[(usize, usize)]) -> String {
    let mut out = String::with_capacity(text.len() + 48 * marks.len());
    let mut marks = marks.iter().peekable();
    for (n, line) in text.split_inclusive('\n').enumerate() {
        while let Some((_, index)) = marks.next_if(|(at, _)| *at == n) {
            let indent = &line[..line.len() - line.trim_start().len()];
            out.push_str(&format!("{indent}#[deprecated(note = \"owner-census:{index}:\")]\n"));
        }
        out.push_str(line);
    }
    out
}

/// `cargo build --offline` of `args` in `dir` into `target`, with every use
/// of a deprecated item a warning whatever the code allows or denies; its
/// diagnostics, one per line.
fn build_marked(dir: &Path, args: &[&str], target: &Path) -> String {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let out = Command::new(cargo)
        .current_dir(dir)
        .args(["build", "--offline", "--message-format", "short"])
        .args(args)
        .env("CARGO_TARGET_DIR", target)
        .env("RUSTFLAGS", "--force-warn=deprecated")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .output()
        .expect("cargo starts");
    let log = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "the marked build {args:?} failed:\n{log}");
    log
}

/// The item audit with callers resolved by owner, by the compiler: a copy of
/// the tree in `target/owner-census/` marks every [`product_items`] entry
/// `#[deprecated]` with its index as the note, the product (workspace libs,
/// bins and examples, then the e2e package) is built, and an item no
/// "use of deprecated" warning names has no product user. The name scan
/// above cannot tell `Trace::len` from `Vec::len`; this can.
#[test]
#[ignore = "builds a marked copy of the workspace and the e2e package (~30 s once warm); CI runs \
            it with `cargo test --test no_orphan_modules -- --ignored`"]
fn every_audited_item_has_a_product_user_by_owner() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let copy = root.join("target/owner-census");
    let sources = workspace_sources();
    let product = product_sources(&sources);
    let items = product_items(&product);
    let mut marks: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (index, item) in items.iter().enumerate() {
        marks.entry(item.path).or_default().push((item.line, index));
    }
    // Mirror the tree, writing a file only when its bytes change so that a
    // warm rerun rebuilds only what changed, and drop what the tree lost.
    let (mut files, mut copied) = (Vec::new(), Vec::new());
    tree_files(root, &mut files);
    let mut kept = HashSet::new();
    for file in &files {
        let rel = relative(file, root);
        let bytes = match marks.get(rel.as_str()) {
            Some(at) => mark(&fs::read_to_string(file).expect("utf-8"), at).into_bytes(),
            None => fs::read(file).expect("readable"),
        };
        let to = copy.join(&rel);
        if fs::read(&to).ok().as_deref() != Some(&bytes[..]) {
            fs::create_dir_all(to.parent().expect("a file has a parent")).expect("mkdir");
            fs::write(&to, bytes).expect("write the copy");
        }
        kept.insert(to);
    }
    tree_files(&copy, &mut copied);
    for gone in copied.iter().filter(|f| !kept.contains(*f)) {
        fs::remove_file(gone).expect("remove a file the tree no longer has");
    }
    let target = copy.join("target");
    let mut log = build_marked(&copy, &["--workspace", "--lib", "--bins", "--examples"], &target);
    let e2e = ["--manifest-path", "crates/bench/e2e/Cargo.toml"];
    log += &build_marked(&copy, &e2e, &target.join("e2e"));
    let used: HashSet<usize> = log
        .split("owner-census:")
        .skip(1)
        .filter_map(|rest| rest.split(':').next()?.parse().ok())
        .collect();
    let listed = |item: &Item| TEST_REFERENCES.iter().any(|(key, _)| *key == item.key());
    let unused: Vec<String> = (0..items.len())
        .filter(|i| !used.contains(i) && !listed(&items[*i]))
        .map(|i| items[i].label())
        .collect();
    // An entry is stale once a product use names it, or unless it keys one item.
    let stale: Vec<&str> = TEST_REFERENCES
        .iter()
        .map(|(key, _)| *key)
        .filter(|key| {
            let keyed: Vec<usize> = (0..items.len()).filter(|&i| items[i].key() == *key).collect();
            keyed.len() != 1 || used.contains(&keyed[0])
        })
        .collect();
    assert!(
        unused.is_empty() && stale.is_empty(),
        "{} of {} items have no product user, resolved by owner (delete them, or add them to \
         TEST_REFERENCES with a reason):\n{}\nstale TEST_REFERENCES entries: {stale:?}",
        unused.len(),
        items.len(),
        unused.join("\n")
    );
}

#[test]
fn the_audit_reports_test_only_functions_and_nothing_else() {
    let lib = "pub struct Gauge;\n\
               impl Gauge {\n    pub fn read(&self) -> u32 { self.raw() }\n    \
               pub(crate) fn raw(&self) -> u32 { 7 }\n    pub fn reset(&mut self) {}\n}\n\
               impl std::fmt::Display for Gauge {\n    \
               fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n}\n\
               #[cfg(test)]\nmod tests {\n    pub fn fixture() {}\n    \
               #[test]\n    fn t() { super::Gauge.read(); }\n}\n";
    let user = "// gauge.reset() in a comment is not a call\n\
                pub use gauge::reset;\n\
                #[cfg(test)]\nmod tests {\n    fn t(g: &mut Gauge) { g.reset(); g.read(); }\n}\n";
    let file = |path: &str, text: &str| (path.to_owned(), text.to_owned());
    let sources = vec![file("crates/a/src/gauge.rs", lib), file("crates/b/src/lib.rs", user)];
    // (i) `read` and `reset` are named only below a `#[cfg(test)]`, in a comment,
    // by a `pub use` and by their own declarations; `raw` has a product caller;
    // (iii) the trait-impl method `fmt` carries no `pub` and is exempt.
    let reported = unreferenced_fns(&sources, &[]);
    let gauge = |name: &str| format!("crates/a/src/gauge.rs: Gauge::{name}");
    assert_eq!(reported, [gauge("read"), gauge("reset")]);
    // (ii) an allow-listed item is not reported; the list keys it by owner, so
    // a namesake's entry excuses nothing and is stale.
    let allowed = unreferenced_fns(&sources, &[("Gauge::reset", "kept for a reason")]);
    assert_eq!(allowed, [gauge("read")]);
    let namesake = [("Meter::reset", "kept for a reason")];
    assert_eq!(unreferenced_fns(&sources, &namesake).len(), 2);
    assert_eq!(stale_by_name(&sources, &namesake), ["Meter::reset (declared 0 times)"]);
    // An entry whose name product code uses is stale when no other audited
    // item shares that name; a free item is keyed by its file.
    let free = "pub fn tally() -> u32 { 1 }\npub const LIMIT: u32 = 2;\npub fn raw() {}\n";
    let with_free = [sources.clone(), vec![file("crates/a/src/free.rs", free)]].concat();
    let entries = [
        ("crates/a/src/free.rs: tally", "never called"),
        ("crates/a/src/free.rs: LIMIT", "never read"),
        ("Gauge::raw", "shares its name with free.rs's raw"),
    ];
    assert!(stale_by_name(&with_free, &entries).is_empty());
    let bin = file("crates/a/src/bin/x.rs", "fn main() { tally(); }\n");
    let with_bin = [with_free, vec![bin]].concat();
    let stale = stale_by_name(&with_bin, &entries);
    assert_eq!(stale, ["crates/a/src/free.rs: tally (product code names it)"]);
    // A caller under `tests/` or `benches/` is not product code; one in a bin is.
    let caller = "fn main() { Gauge.read(); Gauge.reset(); }\n";
    for (path, orphans) in
        [("crates/a/tests/it.rs", 2), ("crates/a/benches/b.rs", 2), ("crates/a/src/bin/x.rs", 0)]
    {
        let with_caller = [sources.clone(), vec![file(path, caller)]].concat();
        assert_eq!(unreferenced_fns(&with_caller, &[]).len(), orphans, "{path}");
    }
    // Nor is one in a file that a `#[cfg(test)]` `mod` declaration names.
    let declares = file("crates/a/src/lib.rs", "mod gauge;\n#[cfg(test)]\nmod oracle;\n");
    let oracle = file("crates/a/src/oracle.rs", &format!("pub fn naive() {{}}\n{caller}"));
    let with_oracle = [sources, vec![declares, oracle]].concat();
    assert_eq!(unreferenced_fns(&with_oracle, &[]).len(), 2);
    // (iv) The ceiling counts the audited set: `fixture` below a `#[cfg(test)]`
    // and `naive` in a `#[cfg(test)]`-declared file are not product functions.
    let counted = product_items(&product_sources(&with_oracle));
    let keys: Vec<String> = counted.iter().filter(|item| item.is_fn).map(Item::key).collect();
    assert_eq!(keys, ["Gauge::read", "Gauge::raw", "Gauge::reset"]);
}

/// Ceilings of the knob census; lower them when a knob goes, never raise them.
const MAX_KNOBS: usize = 77;
const MAX_UNWRITTEN_KNOBS: usize = 10;
const MAX_NAMESAKE_ONLY_KNOBS: usize = 5;

/// A struct whose `pub` fields are knobs: each is a value a caller may set.
fn is_knob_struct(name: &str) -> bool {
    ["Config", "Scenario", "Policy", "Quotas", "Model"].iter().any(|end| name.ends_with(end))
        || ["Trainer", "Retrainer"].contains(&name)
}

/// Where `line` sets a field called `field`: `field:` in a struct literal
/// (not the path `field::`), `.field =` (not `==`), or the field-init
/// shorthand `{ field,` / `, field }`, outside a trailing comment. Each hit
/// is its byte offset and whether it is an assignment.
fn writes<'a>(line: &'a str, field: &'a str) -> impl Iterator<Item = (usize, bool)> + 'a {
    let code = line.split("//").next().unwrap_or(line);
    code.match_indices(field).filter_map(move |(at, _)| {
        let prev = code[..at].chars().next_back();
        let rest = &code[at + field.len()..];
        let literal = prev != Some('.') && rest.starts_with(':') && !rest.starts_with("::");
        let assigned = prev == Some('.')
            && rest.trim_start().strip_prefix('=').is_some_and(|r| !r.starts_with('='));
        let (before, after) = (code[..at].trim_end(), rest.trim_start());
        let shorthand = (before.ends_with('{') || before.ends_with(','))
            && (after.starts_with(',') || after.starts_with('}'));
        let starts_ident = !prev.is_some_and(|c| c.is_alphanumeric() || c == '_');
        (starts_ident && (literal || assigned || shorthand)).then_some((at, assigned))
    })
}

/// What a `{` opens: a literal of the named struct, an `impl` of the named
/// type, or any other block.
#[derive(Clone, Copy)]
enum Frame<'a> {
    Literal(&'a str),
    Impl(&'a str),
    Block,
}

/// `pub type` aliases of product code: alias name → the type it names.
fn aliases<'a>(product: &[(&String, &'a str)]) -> HashMap<&'a str, &'a str> {
    let lines = product.iter().flat_map(|(_, code)| code_lines(code));
    lines
        .filter_map(|line| {
            let (name, target) = line.strip_prefix("pub type ")?.split_once('=')?;
            Some((idents(name).next()?, idents(target).last()?))
        })
        .collect()
}

/// Offsets of the `{` and `}` of `line` outside string and char literals.
fn braces(line: &str) -> Vec<(usize, u8)> {
    let bytes = line.as_bytes();
    let (mut out, mut quoted, mut escaped) = (Vec::new(), false, false);
    for (i, &b) in bytes.iter().enumerate() {
        let char_literal = i > 0 && bytes[i - 1] == b'\'' && bytes.get(i + 1) == Some(&b'\'');
        match b {
            _ if escaped => escaped = false,
            b'\\' if quoted => escaped = true,
            b'"' if !char_literal => quoted = !quoted,
            b'{' | b'}' if !quoted && !char_literal => out.push((i, b)),
            _ => {}
        }
    }
    out
}

/// What the `{` at byte `at` of `line` opens inside `outer` (innermost
/// last): `Name {` a literal of `Name` (through `aliases`), `Self {` one of
/// the innermost `impl`'s type, `impl … for Type {` an impl of `Type`.
fn opens<'a>(
    line: &'a str,
    at: usize,
    outer: &[Frame<'a>],
    aliases: &HashMap<&str, &'a str>,
) -> Frame<'a> {
    let head = &line[..at];
    let head = head[head.rfind(['{', '}', ';']).map_or(0, |i| i + 1)..].trim();
    if let Some(rest) = head.strip_prefix("impl").filter(|r| r.starts_with([' ', '<'])) {
        // `impl<T> Trait for Type<T>`: skip the `<…>` parameters, then take
        // the type after the last ` for `.
        let mut depth = 0;
        let close = rest.find(|c: char| {
            depth += i32::from(c == '<') - i32::from(c == '>');
            depth == 0
        });
        let rest = if rest.starts_with('<') { close.map_or("", |i| &rest[i + 1..]) } else { rest };
        let target = rest.rsplit_once(" for ").map_or(rest, |(_, t)| t);
        return idents(target).next().map_or(Frame::Block, Frame::Impl);
    }
    let name = head.rsplit(|c: char| !c.is_alphanumeric() && c != '_').next().unwrap_or("");
    let item = idents(head).any(|w| ["struct", "enum", "impl", "trait", "fn"].contains(&w));
    if item || !name.starts_with(|c: char| c.is_ascii_uppercase()) {
        return Frame::Block;
    }
    if name == "Self" {
        let impl_of = |f: &Frame<'a>| if let Frame::Impl(t) = f { Some(*t) } else { None };
        return outer.iter().rev().find_map(impl_of).map_or(Frame::Block, Frame::Literal);
    }
    Frame::Literal(aliases.get(name).copied().unwrap_or(name))
}

/// One product write of a field: inside a literal of the named struct,
/// an assignment `.field =` (whose struct the scan cannot tell), or a
/// `field:` / `{ field,` outside any literal (a parameter, an ascription).
#[derive(PartialEq)]
enum Write<'a> {
    Literal(&'a str),
    Assigned,
    Bare,
}

/// Every write of `field` in product code `code`: [`writes`] on some line,
/// or the shorthand `field,` on a line of its own directly inside a struct
/// literal. A line ending in `{` opens a frame and one starting with `}`
/// closes it; braces within a line nest on top of those.
fn writes_in<'a>(code: &'a str, field: &str, aliases: &HashMap<&str, &'a str>) -> Vec<Write<'a>> {
    let mut open: Vec<Frame<'a>> = Vec::new();
    let mut found = Vec::new();
    for line in code_lines(code) {
        if line.starts_with('}') {
            open.pop();
        }
        // The frames open at byte `at`: `open`, then this line's own.
        let frames_at = |at: usize| {
            let mut frames = open.clone();
            let depth = frames.len();
            // A leading `}` closed a frame of `open` above.
            for (i, b) in braces(line).into_iter().filter(|&(i, b)| i < at && (i, b) != (0, b'}')) {
                if b == b'{' {
                    let frame = opens(line, i, &frames, aliases);
                    frames.push(frame);
                } else if frames.len() > depth {
                    frames.pop();
                }
            }
            frames
        };
        let lone = line.strip_suffix(',') == Some(field);
        if let (true, Some(Frame::Literal(name))) = (lone, open.last()) {
            found.push(Write::Literal(name));
        }
        for (at, assigned) in writes(line, field) {
            found.push(match frames_at(at).last() {
                _ if assigned => Write::Assigned,
                Some(Frame::Literal(name)) => Write::Literal(name),
                _ => Write::Bare,
            });
        }
        if line.ends_with('{') {
            let frames = frames_at(line.len() - 1);
            open.push(opens(line, line.len() - 1, &frames, aliases));
        }
    }
    found
}

/// The knob census: `Struct.field` of every `pub` field of a knob struct
/// declared above the first `#[cfg(test)]` of a `crates/*/src/**` product
/// file, with two subsets by the writes of that field name in the other
/// [`product_sources`]. *Unwritten*: there is
/// none. *Namesake-only*: each is a literal of another struct or a bare
/// `field:` (a parameter), so only a namesake sets it. An assignment counts
/// as a write of every struct, so both subsets are floors.
struct Census {
    knobs: Vec<String>,
    unwritten: Vec<String>,
    namesake_only: Vec<String>,
}

impl Census {
    /// `Ok` when each list is within its ceiling, else the failure message.
    fn within(&self, knobs: usize, unwritten: usize, namesake_only: usize) -> Result<(), String> {
        let over = self.knobs.len() > knobs
            || self.unwritten.len() > unwritten
            || self.namesake_only.len() > namesake_only;
        if !over {
            return Ok(());
        }
        Err(format!(
            "{} public knobs (ceiling {knobs}), {} that no product code sets (ceiling \
             {unwritten}), {} that only namesakes set (ceiling {namesake_only}) — delete a knob, \
             do not raise a ceiling.\nknobs: {}\nnever set: {}\nnamesake-only: {}",
            self.knobs.len(),
            self.unwritten.len(),
            self.namesake_only.len(),
            self.knobs.join(" "),
            self.unwritten.join(" "),
            self.namesake_only.join(" ")
        ))
    }
}

fn knob_census(sources: &[(String, String)]) -> Census {
    let product = product_sources(sources);
    let aliases = aliases(&product);
    // Product code of every possible writer, with its identifiers as a prefilter.
    let writers: Vec<(&String, &str, HashSet<&str>)> =
        product.iter().map(|&(path, code)| (path, code, words(code))).collect();
    let mut census = Census { knobs: Vec::new(), unwritten: Vec::new(), namesake_only: Vec::new() };
    for (path, code) in product.iter().filter(|(path, _)| audited(path)) {
        let mut owner = None;
        for line in code_lines(code) {
            if let Some(name) = line.strip_prefix("pub struct ").and_then(|l| idents(l).next()) {
                owner = (is_knob_struct(name) && line.ends_with('{')).then_some(name);
            } else if line == "}" {
                owner = None;
            } else if let (Some(owner), Some(rest)) = (owner, line.strip_prefix("pub ")) {
                let Some(field) = idents(rest).next().filter(|f| rest[f.len()..].starts_with(':'))
                else {
                    continue;
                };
                let found: Vec<Write> = writers
                    .iter()
                    .filter(|(other, _, names)| *other != *path && names.contains(field))
                    .flat_map(|(_, code, _)| writes_in(code, field, &aliases))
                    .collect();
                let own = |w: &Write| matches!(w, Write::Assigned) || *w == Write::Literal(owner);
                let knob = format!("{owner}.{field}");
                if found.is_empty() {
                    census.unwritten.push(knob.clone());
                } else if !found.iter().any(own) {
                    census.namesake_only.push(knob.clone());
                }
                census.knobs.push(knob);
            }
        }
    }
    census
}

#[test]
fn public_knobs_are_not_up() {
    let census = knob_census(&workspace_sources());
    census
        .within(MAX_KNOBS, MAX_UNWRITTEN_KNOBS, MAX_NAMESAKE_ONLY_KNOBS)
        .unwrap_or_else(|message| panic!("{message}"));
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
    let census = knob_census(&sources);
    assert_eq!(census.knobs, ["GaugeConfig.rate", "GaugeConfig.depth", "GaugeConfig.tag"]);
    assert_eq!(census.unwritten, ["GaugeConfig.depth", "GaugeConfig.tag"]);
    // A `*Model`'s `pub` field is a knob like a `*Config`'s; nothing sets `gain`.
    let model = "pub struct GaugeModel {\n    pub gain: f64,\n    scale: f64,\n}\n";
    let census = knob_census(&[file("crates/a/src/model.rs", model)]);
    assert_eq!(census.knobs, ["GaugeModel.gain"]);
    assert_eq!(census.unwritten, ["GaugeModel.gain"]);
    assert!(census.namesake_only.is_empty());
    // An assignment in an example is a product writer; one under `tests/` is not.
    let assign = "fn f(c: &mut GaugeConfig) { c.depth = 4; c.tag= 5; }\n";
    for (path, left) in [("examples/e.rs", 0), ("crates/a/tests/it.rs", 2)] {
        let with_writer = [sources.clone(), vec![file(path, assign)]].concat();
        assert_eq!(knob_census(&with_writer).unwritten.len(), left, "{path}");
    }
    // The field-init shorthand is a writer, in a one-line literal or on a line
    // of its own inside a multi-line one; a lone `tag,` call argument is not.
    let one_line = "fn f() -> GaugeConfig {\n    let depth = 4;\n    GaugeConfig { rate: 1, depth }\n}\n";
    let own_line = "fn f() -> GaugeConfig {\n    let tag = 5;\n    GaugeConfig {\n        tag,\n        \
                    ..own()\n    }\n}\n";
    let argument = "fn f() {\n    let tag = 5;\n    g(\n        tag,\n    );\n}\n";
    for (text, left) in [(one_line, "GaugeConfig.tag"), (own_line, "GaugeConfig.depth")] {
        let with_writer = [sources.clone(), vec![file("crates/a/src/bin/y.rs", text)]].concat();
        assert_eq!(knob_census(&with_writer).unwritten, [left], "{text}");
    }
    let with_call = [sources.clone(), vec![file("crates/a/src/bin/y.rs", argument)]].concat();
    assert_eq!(knob_census(&with_call).unwritten.len(), 2, "a call argument sets nothing");
    // A file a `#[cfg(test)]` `mod` declares is test code, at `name.rs` beside
    // `lib.rs`, under the declaring file's stem, or at its `#[path]`: its
    // literal sets nothing. In a module the product compiles it is a writer.
    let lib_rs = "mod gauge;\nmod u;\n#[cfg(test)]\nmod t;\n#[cfg(test)]\n\
                  #[path = \"../fixtures/g.rs\"]\nmod g;\n";
    let declared = vec![
        file("crates/a/src/lib.rs", lib_rs),
        file("crates/a/src/region.rs", "#[cfg(test)]\nmod tests;\n"),
    ];
    let literal = "fn f() -> GaugeConfig {\n    GaugeConfig { rate: 1, depth: 2, tag: 3 }\n}\n";
    for (path, left) in [
        ("crates/a/src/t.rs", 2),
        ("crates/a/src/region/tests.rs", 2),
        ("crates/a/fixtures/g.rs", 2),
        ("crates/a/src/u.rs", 0),
    ] {
        let with_module = [sources.clone(), declared.clone(), vec![file(path, literal)]].concat();
        assert_eq!(knob_census(&with_module).unwritten.len(), left, "{path}");
    }
    // Two structs share `cost_us`, and each one's `Default` is the only literal
    // that sets it, in its own file: by name alone each looks set by the other.
    let declare = |name: &str, cost: u32| {
        format!(
            "pub struct {name} {{\n    pub cost_us: u64,\n}}\n\
             impl Default for {name} {{\n    fn default() -> Self {{\n        \
             Self {{ cost_us: {cost} }}\n    }}\n}}\n"
        )
    };
    let sources = vec![
        file("crates/a/src/a.rs", &declare("AConfig", 1)),
        file("crates/b/src/b.rs", &declare("BConfig", 2)),
    ];
    let census = knob_census(&sources);
    assert_eq!(census.knobs, ["AConfig.cost_us", "BConfig.cost_us"]);
    assert!(census.unwritten.is_empty(), "matching by name alone counts each as written");
    assert_eq!(census.namesake_only, ["AConfig.cost_us", "BConfig.cost_us"]);
    let caught = census.within(2, 0, 0).expect_err("the namesake ceiling catches both");
    assert!(caught.contains("namesake-only: AConfig.cost_us BConfig.cost_us"), "{caught}");
    // A literal of the struct itself (directly, through `Self` in its impl,
    // or through a `pub type` alias) or an assignment is a real writer; a
    // parameter and another struct's literal are not.
    let bare = "fn f(cost_us: u64) -> u64 { cost_us }\n\
                fn g() -> CConfig { CConfig { cost_us: 3 } }\n";
    let alias = "pub type AScenario = a::AConfig;\nfn f() -> AScenario {\n    AScenario {\n        \
                 cost_us: 4,\n    }\n}\n";
    let own_impl =
        "impl AConfig {\n    fn cheap() -> Self {\n        Self { cost_us: 0 }\n    }\n}\n";
    let assigned = "fn f(c: &mut Unknown) {\n    c.cost_us = 5;\n}\n";
    let direct = "fn f() {\n    let c = a::AConfig { cost_us: 6 };\n}\n";
    for (text, left) in [(bare, 2), (alias, 1), (own_impl, 1), (assigned, 0), (direct, 1)] {
        let with_writer = [sources.clone(), vec![file("crates/c/src/bin/x.rs", text)]].concat();
        assert_eq!(knob_census(&with_writer).namesake_only.len(), left, "{text}");
    }
}
