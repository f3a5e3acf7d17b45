//! Structured diagnostics with source-snippet rendering and byte-stable
//! JSON output.
//!
//! Every finding of the lint passes ([`mod@crate::lint`]) and every
//! policy-required verifier rejection is representable as a
//! [`Diagnostic`]: a stable code, a severity, a source [`Span`], a
//! message, and optional notes. Tooling renders diagnostics either as
//! human text with line/column carets (the `planp lint` output) or as
//! deterministic JSON (the `--json` machine form, byte-identical for
//! identical input).

use planp_lang::span::{line_col, Span};
use planp_telemetry::json::push_str;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; does not affect acceptance (unless warnings are denied).
    Warning,
    /// The program was rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One structured finding, pointing at a span of PLAN-P source.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`L001`…, `E001`…).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Location of the problem.
    pub span: Span,
    /// Human-readable description (lowercase, no trailing period).
    pub message: String,
    /// Supplementary notes rendered under the snippet.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates a warning.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Creates an error.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Appends a note (builder style).
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic with a caret snippet resolved against
    /// `src`:
    ///
    /// ```text
    /// warning[L004] at 2:4: condition is always true
    ///   2 | if true then (ps, ss) else (ps, ss)
    ///     |    ^^^^
    ///   note: the else branch is unreachable
    /// ```
    pub fn render(&self, src: &str) -> String {
        let lc = line_col(src, self.span.start);
        let mut out = format!(
            "{}[{}] at {}: {}",
            self.severity, self.code, lc, self.message
        );
        if let Some(snippet) = render_snippet(src, self.span) {
            out.push('\n');
            out.push_str(&snippet);
        }
        for note in &self.notes {
            out.push('\n');
            out.push_str("  note: ");
            out.push_str(note);
        }
        out
    }

    /// Appends the byte-stable JSON form to `out`. Key order is fixed:
    /// `code`, `severity`, `line`, `col`, `start`, `end`, `message`,
    /// `notes`.
    pub fn write_json(&self, src: &str, out: &mut String) {
        let lc = line_col(src, self.span.start);
        out.push_str("{\"code\":");
        push_str(out, self.code);
        out.push_str(",\"severity\":");
        push_str(out, &self.severity.to_string());
        out.push_str(&format!(
            ",\"line\":{},\"col\":{},\"start\":{},\"end\":{},\"message\":",
            lc.line, lc.col, self.span.start, self.span.end
        ));
        push_str(out, &self.message);
        out.push_str(",\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str(out, n);
        }
        out.push_str("]}");
    }
}

/// The source-free rendering: `severity[code]: message`. Use
/// [`Diagnostic::render`] when the source text is available — it adds
/// the line/column position and a caret snippet.
impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Renders the source line containing `span.start` with a caret line
/// underneath; `None` when the span does not resolve into `src` (e.g. a
/// dummy span against unrelated source).
pub fn render_snippet(src: &str, span: Span) -> Option<String> {
    let start = span.start as usize;
    if start > src.len() || src.is_empty() {
        return None;
    }
    let line_start = src[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let line_end = src[line_start..]
        .find('\n')
        .map(|i| line_start + i)
        .unwrap_or(src.len());
    let text = &src[line_start..line_end];
    if text.is_empty() {
        return None;
    }
    let lc = line_col(src, span.start);
    let gutter = lc.line.to_string();
    let col = (start - line_start).min(text.len());
    // Carets cover the span, clipped to the first line.
    let width = (span.end.saturating_sub(span.start) as usize)
        .min(text.len() - col)
        .max(1);
    let mut out = format!("  {gutter} | {text}\n");
    out.push_str(&format!(
        "  {} | {}{}",
        " ".repeat(gutter.len()),
        " ".repeat(col),
        "^".repeat(width)
    ));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_caret_and_note() {
        let src = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\nif true then (ps, ss) else (ps, ss)";
        let span = Span::new(61, 65); // `true`
        let d = Diagnostic::warning("L004", span, "condition is always true")
            .note("the else branch is unreachable");
        let r = d.render(src);
        assert!(r.starts_with("warning[L004] at 2:4: condition is always true"));
        assert!(r.contains("| if true then"));
        assert!(r.contains("^^^^"));
        assert!(r.contains("note: the else branch is unreachable"));
    }

    #[test]
    fn json_is_byte_stable() {
        let src = "val x : int = 1";
        let d = Diagnostic::warning("L001", Span::new(0, 15), "unused `val` binding `x`")
            .note("remove it or reference it");
        let mut a = String::new();
        d.write_json(src, &mut a);
        let mut b = String::new();
        d.write_json(src, &mut b);
        assert_eq!(a, b);
        assert_eq!(
            a,
            "{\"code\":\"L001\",\"severity\":\"warning\",\"line\":1,\"col\":1,\"start\":0,\"end\":15,\
             \"message\":\"unused `val` binding `x`\",\"notes\":[\"remove it or reference it\"]}"
        );
    }

    #[test]
    fn snippet_handles_dummy_span() {
        assert!(render_snippet("", Span::dummy()).is_none());
        assert!(render_snippet("abc", Span::new(100, 101)).is_none());
    }
}
