//! Reference audit: every `crates/*/src` module has a top-level `pub`
//! item that some *other* `.rs` file names outside comments and `pub use`
//! lines; a module only its own unit tests reach is a design nobody runs.

use std::path::{Path, PathBuf};
use std::{collections::HashSet, fs};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()) {
        if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !c.is_alphanumeric() && c != '_').filter(|w| !w.is_empty())
}

/// Identifier tokens of `src`, skipping `//` lines and `pub use …;`.
fn words(src: &str) -> HashSet<&str> {
    let mut in_use = false;
    let code = src.lines().map(str::trim).filter(|line| {
        in_use |= line.starts_with("pub use ");
        let skip = in_use || line.starts_with("//");
        in_use &= !line.ends_with(';');
        !skip
    });
    code.flat_map(idents).collect()
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
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    "crates src tests examples".split(' ').for_each(|d| rust_files(&root.join(d), &mut files));
    let texts: Vec<String> = files.iter().map(|f| fs::read_to_string(f).expect("utf-8")).collect();
    let tokens: Vec<HashSet<&str>> = texts.iter().map(|s| words(s)).collect();
    let mut orphans = Vec::new();
    for (i, file) in files.iter().enumerate() {
        let at: Vec<_> = file.strip_prefix(root).expect("under root").iter().collect();
        let audited = matches!(at[..], [c, _, s, f] if c == "crates" && s == "src" && f != "lib.rs");
        let mut names = texts[i].lines().filter_map(pub_name).peekable();
        let named = |n: &str| tokens.iter().enumerate().any(|(j, t)| j != i && t.contains(n));
        if audited && names.peek().is_some() && !names.any(named) {
            orphans.push(file);
        }
    }
    assert!(orphans.is_empty(), "modules that no other file names: {orphans:?}");
}
