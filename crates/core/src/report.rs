//! Plain-text table rendering for the reproduction binaries.

/// Render an ASCII table with a header row.
///
/// # Examples
///
/// ```
/// use eda_cloud_core::report::render_table;
///
/// let text = render_table(
///     &["stage", "runtime"],
///     &[vec!["routing".into(), "1692 s".into()]],
/// );
/// assert!(text.contains("routing"));
/// assert!(text.lines().count() >= 3);
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let sep = |fill: char| {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&fill.to_string().repeat(w + 2));
            s.push('+');
        }
        s
    };
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (c, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(c).unwrap_or(&empty);
            s.push_str(&format!(" {cell:<w$} |"));
        }
        s
    };
    let mut out = String::new();
    out.push_str(&sep('-'));
    out.push('\n');
    out.push_str(&fmt_row(
        &headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep('='));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push_str(&sep('-'));
    out.push('\n');
    out
}

/// Format a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", 100.0 * fraction)
}

/// Format seconds compactly.
#[must_use]
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0} s")
    } else {
        format!("{v:.1} s")
    }
}

/// Render a horizontal ASCII bar chart (one row per label).
#[must_use]
pub fn bar_chart(title: &str, entries: &[(String, f64)], width: usize) -> String {
    let max = entries.iter().map(|e| e.1).fold(0.0f64, f64::max).max(1e-12);
    let label_w = entries.iter().map(|e| e.0.len()).max().unwrap_or(0);
    let mut out = format!("{title}\n");
    for (label, value) in entries {
        let n = ((value / max) * width as f64).round() as usize;
        out.push_str(&format!(
            "  {label:<label_w$} | {} {value:.2}\n",
            "#".repeat(n)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["a", "bb"],
            &[
                vec!["xxxx".into(), "y".into()],
                vec!["z".into(), "wwwww".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(t.contains("xxxx"));
    }

    #[test]
    fn pct_and_secs_format() {
        assert_eq!(pct(0.3529), "35.3%");
        assert_eq!(secs(1692.4), "1692 s");
        assert_eq!(secs(12.34), "12.3 s");
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let chart = bar_chart(
            "speedup",
            &[("routing".into(), 6.2), ("sta".into(), 2.2)],
            20,
        );
        assert!(chart.contains("routing"));
        let routing_hashes = chart
            .lines()
            .find(|l| l.contains("routing"))
            .unwrap()
            .matches('#')
            .count();
        assert_eq!(routing_hashes, 20);
    }

    #[test]
    fn empty_rows_ok() {
        let t = render_table(&["only"], &[]);
        assert!(t.contains("only"));
    }
}
