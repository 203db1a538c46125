//! Line/column-preserving text helpers shared by the parsers.

/// Cursor over the logical lines of an upload: `comment`-to-end-of-line
/// stripped, physical lines ending in `\` joined with single spaces,
/// blanks dropped. Nothing is copied unless a continuation forces a
/// join: every field is a slice of the upload itself, written into one
/// buffer that is reused from line to line.
pub(crate) struct Lines<'a> {
    rest: std::str::Lines<'a>,
    /// Physical lines read so far.
    read: usize,
    comment: char,
    fields: Vec<(usize, &'a str)>,
    /// The current line when it is one physical line; `joined` otherwise.
    single: &'a str,
    joined: String,
}

impl<'a> Lines<'a> {
    pub(crate) fn new(text: &'a str, comment: char) -> Self {
        Self {
            rest: text.lines(),
            read: 0,
            comment,
            fields: Vec::new(),
            single: "",
            joined: String::new(),
        }
    }

    /// A second cursor at this one's position.
    pub(crate) fn fork(&self) -> Self {
        Self { rest: self.rest.clone(), read: self.read, ..Self::new("", self.comment) }
    }

    /// Advance to the next non-blank logical line and return the 1-based
    /// number of its first physical line.
    pub(crate) fn next_line(&mut self) -> Option<usize> {
        self.fields.clear();
        self.joined.clear();
        self.single = "";
        let (mut first, mut len) = (None, 0);
        loop {
            // A trailing `\` at end of input keeps what it has.
            let Some(raw) = self.rest.next() else {
                return first.filter(|_| len > 0);
            };
            self.read += 1;
            let lno = *first.get_or_insert(self.read);
            let body = raw.find(self.comment).map_or(raw, |pos| &raw[..pos]);
            let (body, continues) = match body.trim_end().strip_suffix('\\') {
                Some(stripped) => (stripped.trim(), true),
                None => (body.trim(), false),
            };
            if !body.is_empty() {
                if len == 0 {
                    self.single = body;
                } else {
                    if self.joined.is_empty() {
                        self.joined.push_str(self.single);
                    }
                    self.joined.push(' ');
                    self.joined.push_str(body);
                    len += 1;
                }
                self.split(body, len);
                len += body.len();
            }
            if !continues {
                if len > 0 {
                    return Some(lno);
                }
                first = None;
            }
        }
    }

    /// Append the ASCII-whitespace-separated words of `body`, which
    /// starts `offset` bytes into the logical line.
    fn split(&mut self, body: &'a str, offset: usize) {
        let bytes = body.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            let start = i;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i > start {
                self.fields.push((offset + start + 1, &body[start..i]));
            }
        }
    }

    /// The current line's `(1-based byte column, field)` pairs; columns
    /// refer to the joined text.
    pub(crate) fn fields(&self) -> &[(usize, &'a str)] {
        &self.fields
    }

    /// The current line's joined, comment-stripped text.
    pub(crate) fn text(&self) -> &str {
        if self.joined.is_empty() {
            self.single
        } else {
            &self.joined
        }
    }
}

/// The net bound to `pin` among one instance's `(formal, actual)`
/// connections. As in the per-instance map this scan replaced, the last
/// binding of a pin wins.
pub(crate) fn bound_net<'a>(conns: &[(&'a str, &'a str)], pin: &str) -> Option<&'a str> {
    conns.iter().rev().find(|(formal, _)| *formal == pin).map(|&(_, net)| net)
}

/// `prefix` followed by `n` in decimal: `format!("{prefix}{n}")` without
/// the formatting machinery, for the names written once per cell.
pub(crate) fn numbered(prefix: &str, n: usize) -> String {
    let mut div = 1;
    while n / div >= 10 {
        div *= 10;
    }
    let mut name = String::with_capacity(prefix.len() + 8);
    name.push_str(prefix);
    while div > 0 {
        name.push(char::from(b'0' + (n / div % 10) as u8));
        div /= 10;
    }
    name
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The owned line splitter `Lines` replaced, kept as its oracle.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct LogicalLine {
        pub lno: usize,
        pub text: String,
    }

    pub(crate) fn logical_lines(text: &str, comment: char) -> Vec<LogicalLine> {
        let mut out: Vec<LogicalLine> = Vec::new();
        let mut pending: Option<LogicalLine> = None;
        for (i, raw) in text.lines().enumerate() {
            let body = match raw.find(comment) {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            let (body, continues) = match body.trim_end().strip_suffix('\\') {
                Some(stripped) => (stripped.trim(), true),
                None => (body.trim(), false),
            };
            let line = match pending.take() {
                Some(mut prev) => {
                    if !body.is_empty() {
                        if !prev.text.is_empty() {
                            prev.text.push(' ');
                        }
                        prev.text.push_str(body);
                    }
                    prev
                }
                None => LogicalLine { lno: i + 1, text: body.to_owned() },
            };
            if continues {
                pending = Some(line);
            } else if !line.text.is_empty() {
                out.push(line);
            }
        }
        if let Some(line) = pending {
            if !line.text.is_empty() {
                out.push(line);
            }
        }
        out
    }

    /// Oracle for [`Lines::fields`], over an already joined line.
    pub(crate) fn fields_with_cols(line: &str) -> Vec<(usize, &str)> {
        let bytes = line.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            let start = i;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i > start {
                out.push((start + 1, &line[start..i]));
            }
        }
        out
    }

    /// One logical line: first physical line, joined text, fields.
    type Line = (usize, String, Vec<(usize, String)>);

    fn collect(text: &str) -> Vec<Line> {
        let mut lines = Lines::new(text, '#');
        let mut out = Vec::new();
        while let Some(lno) = lines.next_line() {
            let fields = lines.fields().iter().map(|&(c, f)| (c, f.to_owned())).collect();
            out.push((lno, lines.text().to_owned(), fields));
        }
        out
    }

    #[test]
    fn joins_continuations_and_strips_comments() {
        let lines = collect("# header\n.inputs a b \\\n  c d # tail\n\n.end\n");
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].0, 2);
        assert_eq!(lines[0].1, ".inputs a b c d");
        assert_eq!(lines[0].2[3], (13, "c".to_owned()), "columns follow the joined text");
        assert_eq!(lines[1].1, ".end");
    }

    #[test]
    fn trailing_continuation_does_not_lose_text() {
        let lines = collect(".inputs a \\");
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].1, ".inputs a");
    }

    #[test]
    fn columns_are_one_based_byte_offsets() {
        let lines = collect("  .gate  AND2_X1 A=x");
        let want = [(1, ".gate"), (8, "AND2_X1"), (16, "A=x")].map(|(c, f)| (c, f.to_owned()));
        assert_eq!(lines[0].2, want, "columns count from the trimmed line");
    }

    #[test]
    fn cursor_matches_the_owned_splitter() {
        let cases = [
            "a b \\\n\\\n c # x\n\nd\\\n",
            "\\\n\\\nlate \\\n\n",
            "x\u{a0}y \u{2003} z\\ \n w\r\n\u{b}v\u{b} \\",
            " # only\n\t\n",
            "",
        ];
        for text in cases.into_iter().map(str::to_owned).chain(crate::corpus::texts()) {
            let old: Vec<_> = logical_lines(&text, '#')
                .into_iter()
                .map(|l| {
                    let fields = fields_with_cols(&l.text);
                    let fields = fields.into_iter().map(|(c, f)| (c, f.to_owned())).collect();
                    (l.lno, l.text, fields)
                })
                .collect();
            assert_eq!(collect(&text), old, "{text:?}");
        }
    }

    #[test]
    fn pin_scan_matches_the_pin_map() {
        // Every connection list of up to five bindings over three pins
        // and two nets, against the map the scan replaced.
        let (pins, nets) = (["A", "B", "Y"], ["x", "y"]);
        for len in 0..=5u32 {
            for code in 0..6usize.pow(len) {
                let conns: Vec<(&str, &str)> = (0..len)
                    .map(|i| code / 6usize.pow(i) % 6)
                    .map(|digit| (pins[digit / 2], nets[digit % 2]))
                    .collect();
                let map: std::collections::HashMap<&str, &str> = conns.iter().copied().collect();
                for pin in pins {
                    assert_eq!(bound_net(&conns, pin), map.get(pin).copied(), "{conns:?} {pin}");
                }
            }
        }
    }

    #[test]
    fn numbered_names_match_format() {
        for n in [0, 1, 9, 10, 11, 99, 100, 101, 12_345, 1_000_000, usize::MAX] {
            assert_eq!(numbered("g", n), format!("g{n}"));
            assert_eq!(numbered("_t", n), format!("_t{n}"));
        }
    }
}
