//! Byte-offset source spans and human-readable source positions.

use std::fmt;

/// A half-open byte range `[start, end)` into the source text.
///
/// Spans are attached to every token, expression, and declaration so that
/// errors from any phase (lexing through safety analysis) can point back at
/// the offending source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: u32, end: u32) -> Self {
        Span { start, end }
    }

    /// A zero-width placeholder span (used for synthesized nodes).
    pub fn dummy() -> Self {
        Span { start: 0, end: 0 }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Extracts the spanned slice of `src`.
    ///
    /// Returns an empty string if the span is out of bounds (e.g. a dummy
    /// span against unrelated source).
    pub fn slice<'s>(&self, src: &'s str) -> &'s str {
        src.get(self.start as usize..self.end as usize)
            .unwrap_or("")
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A 1-based line/column position, computed on demand from a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in bytes).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Computes the [`LineCol`] of byte `offset` within `src`.
pub fn line_col(src: &str, offset: u32) -> LineCol {
    let offset = (offset as usize).min(src.len());
    let mut line = 1u32;
    let mut col = 1u32;
    for (i, b) in src.bytes().enumerate() {
        if i >= offset {
            break;
        }
        if b == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    LineCol { line, col }
}

/// Where each line of one source starts: a [`LineCol`] lookup in it is
/// a binary search, where [`line_col`] scans from the start of the text.
#[derive(Debug, Clone)]
pub struct LineIndex {
    /// Byte offset of the first byte of each line, ascending from 0.
    starts: Vec<usize>,
    /// Length of the source in bytes.
    len: usize,
}

impl LineIndex {
    /// Indexes the lines of `src`.
    pub fn new(src: &str) -> Self {
        let newlines = src.bytes().enumerate().filter(|&(_, b)| b == b'\n');
        let starts = std::iter::once(0).chain(newlines.map(|(i, _)| i + 1));
        LineIndex {
            starts: starts.collect(),
            len: src.len(),
        }
    }

    /// The [`LineCol`] of byte `offset`, as [`line_col`] computes it
    /// from the indexed source.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let offset = (offset as usize).min(self.len);
        let line = self.starts.partition_point(|&s| s <= offset);
        LineCol {
            line: line as u32,
            col: (offset - self.starts[line - 1]) as u32 + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
        assert_eq!(b.merge(a), Span::new(3, 12));
    }

    #[test]
    fn slice_extracts_text() {
        let src = "val x : int = 42";
        assert_eq!(Span::new(4, 5).slice(src), "x");
    }

    #[test]
    fn slice_out_of_bounds_is_empty() {
        assert_eq!(Span::new(10, 20).slice("short"), "");
    }

    #[test]
    fn line_col_first_line() {
        assert_eq!(line_col("abc", 1), LineCol { line: 1, col: 2 });
    }

    #[test]
    fn line_col_after_newlines() {
        let src = "ab\ncd\nef";
        assert_eq!(line_col(src, 3), LineCol { line: 2, col: 1 });
        assert_eq!(line_col(src, 7), LineCol { line: 3, col: 2 });
    }

    #[test]
    fn line_col_clamps_past_end() {
        let src = "ab";
        assert_eq!(line_col(src, 100), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn the_index_answers_as_the_scan_does() {
        for src in [
            "",
            "\n",
            "ab",
            "ab\ncd\nef",
            "ab\n\ncd\n",
            "h\u{e9}llo\nw\u{f6}rld\n",
        ] {
            let index = LineIndex::new(src);
            for offset in 0..=src.len() as u32 + 2 {
                assert_eq!(
                    index.line_col(offset),
                    line_col(src, offset),
                    "{src:?} at {offset}"
                );
            }
        }
    }
}
