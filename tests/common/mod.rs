//! Shared helpers for the workspace integration tests.

use std::fs;
use std::path::PathBuf;

/// Compare `actual` against the checked-in golden file at
/// `tests/<rel_path>`, byte for byte modulo a trailing newline.
///
/// Run with `UPDATE_GOLDEN=1` to rewrite the file from the current
/// behavior instead of comparing — then review the diff like any other
/// behavioral change:
///
/// ```sh
/// UPDATE_GOLDEN=1 cargo test --test <name>
/// ```
///
/// # Panics
///
/// Panics when the golden file is missing (and `UPDATE_GOLDEN` is not
/// set), unreadable, or differs from `actual`.
#[allow(dead_code)] // Each integration-test crate uses its own copy.
pub fn assert_golden(actual: &str, rel_path: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", rel_path].iter().collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut contents = actual.trim_end().to_owned();
        contents.push('\n');
        fs::write(&path, contents)
            .unwrap_or_else(|e| panic!("failed to update golden {}: {e}", path.display()));
        eprintln!("updated golden {}", path.display());
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "failed to read golden {}: {e}; generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let (golden, actual) = (golden.trim_end(), actual.trim_end());
    assert!(
        golden == actual,
        "output drifted from tests/{rel_path}: {}\nif the change is intentional, regenerate \
         with UPDATE_GOLDEN=1 (see tests/golden/README.md) and review the diff",
        first_difference(golden, actual)
    );
}

/// Where `actual` first departs from `golden`: the line and byte, the
/// nearest `"key":` before that point (most goldens are one-line JSON,
/// so the line alone says little), and a short excerpt of each side.
#[allow(dead_code)] // Each integration-test crate uses its own copy.
pub fn first_difference(golden: &str, actual: &str) -> String {
    const CONTEXT: usize = 40;
    let mut at = golden.bytes().zip(actual.bytes()).take_while(|(g, a)| g == a).count();
    while !golden.is_char_boundary(at) {
        at -= 1; // the shared prefix ends inside a multi-byte character
    }
    let line = golden[..at].matches('\n').count() + 1;
    let key = golden[..at]
        .rfind("\":")
        .and_then(|end| golden[..end].rfind('"').map(|start| &golden[start..end + 2]))
        .unwrap_or("(none)");
    let excerpt = |text: &str| {
        let (mut from, mut to) = (at.saturating_sub(CONTEXT), (at + CONTEXT).min(text.len()));
        while !text.is_char_boundary(from) {
            from -= 1;
        }
        while !text.is_char_boundary(to) {
            to += 1;
        }
        format!("{:?}", &text[from..to])
    };
    format!(
        "first difference at line {line}, byte {at}, after key {key}\n  golden: {}\n  actual: {}",
        excerpt(golden),
        excerpt(actual)
    )
}
