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
/// full key path of the JSON value that point sits in (most goldens
/// are one-line JSON, so the line alone says little), and a short
/// excerpt of each side.
#[allow(dead_code)] // Each integration-test crate uses its own copy.
pub fn first_difference(golden: &str, actual: &str) -> String {
    const CONTEXT: usize = 40;
    let mut at = golden.bytes().zip(actual.bytes()).take_while(|(g, a)| g == a).count();
    while !golden.is_char_boundary(at) {
        at -= 1; // the shared prefix ends inside a multi-byte character
    }
    let line = golden[..at].matches('\n').count() + 1;
    let path = key_path(&golden[..at]);
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
        "first difference at line {line}, byte {at}, under key {}\n  golden: {}\n  actual: {}",
        if path.is_empty() { "(none)" } else { &path },
        excerpt(golden),
        excerpt(actual)
    )
}

/// The key path open at the end of a JSON prefix, such as
/// `stages[2].runs[0].secs`: a string-aware scan that tracks each open
/// object's current key and each open array's index, and skips escaped
/// quotes inside strings. Keys are shown as written, escapes included.
fn key_path(prefix: &str) -> String {
    enum Open<'a> {
        Object(Option<&'a str>),
        Array(usize),
    }
    let mut open: Vec<Open> = Vec::new();
    let (mut string_start, mut escaped, mut last_string) = (None, false, None);
    for (pos, ch) in prefix.char_indices() {
        if let Some(start) = string_start {
            match ch {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => (string_start, last_string) = (None, Some(&prefix[start..pos])),
                _ => {}
            }
            continue;
        }
        match (ch, open.last_mut()) {
            ('"', _) => string_start = Some(pos + 1),
            (':', Some(Open::Object(key))) => *key = last_string,
            (',', Some(Open::Object(key))) => *key = None,
            (',', Some(Open::Array(index))) => *index += 1,
            ('{', _) => open.push(Open::Object(None)),
            ('[', _) => open.push(Open::Array(0)),
            ('}' | ']', _) => {
                open.pop();
            }
            _ => {}
        }
    }
    let mut path = String::new();
    for step in &open {
        match step {
            Open::Object(Some(key)) if path.is_empty() => path.push_str(key),
            Open::Object(Some(key)) => path.push_str(&format!(".{key}")),
            Open::Object(None) => {}
            Open::Array(index) => path.push_str(&format!("[{index}]")),
        }
    }
    path
}
