//! Byte-stable JSON helpers shared by the trace and metrics exporters.
//!
//! Same conventions as the fleet report's hand-rolled JSON: keys in a
//! fixed order, floats printed with six decimal places, no whitespace —
//! two values are equal iff their JSON strings are byte-identical.

use std::fmt::Write as _;

/// Render an `f64` with six decimal places (the workspace's byte-stable
/// float convention). Non-finite values render as quoted strings so the
/// output stays parseable.
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else if v.is_nan() {
        "\"NaN\"".to_owned()
    } else if v > 0.0 {
        "\"inf\"".to_owned()
    } else {
        "\"-inf\"".to_owned()
    }
}

/// Escape a string for inclusion in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_are_six_decimal_and_total() {
        assert_eq!(fmt_f64(1.0), "1.000000");
        assert_eq!(fmt_f64(0.1234567), "0.123457");
        assert_eq!(fmt_f64(f64::NAN), "\"NaN\"");
        assert_eq!(fmt_f64(f64::INFINITY), "\"inf\"");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "\"-inf\"");
    }

    #[test]
    fn escapes_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }
}
