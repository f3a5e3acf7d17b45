//! Counterexample witnesses for the explicit-state model checker
//! ([`crate::modelcheck`]).
//!
//! A witness is the concrete chain of channel dispatches and send sites
//! that closes a packet loop or drops a packet — the *why* behind an
//! exhaustive-checker rejection. Witnesses render as human text with a
//! caret snippet at each hop (through the same machinery as
//! [`crate::diag`]) and export as byte-stable JSON, so every reported
//! violation can be replayed and machine-checked.

use crate::diag::{render_snippet, Diagnostic};
use crate::summary::SendKind;
use planp_lang::span::{line_col, Span};
use planp_telemetry::json::push_str;

/// One dispatch hop of a counterexample trace: a send site firing on
/// one channel and re-entering another (or the same) channel.
#[derive(Debug, Clone, PartialEq)]
pub struct WitnessHop {
    /// Dispatching channel, as `name#overload`.
    pub from: String,
    /// Channel the packet re-enters, as `name#overload`.
    pub to: String,
    /// Send flavor.
    pub kind: SendKind,
    /// Rendered abstract destination of the packet *after* the hop.
    pub dest: String,
    /// True if the hop makes progress toward a fixed destination (and
    /// thus cannot, by itself, sustain a loop).
    pub progress: bool,
    /// Source location of the send site.
    pub span: Span,
}

impl WitnessHop {
    fn kind_str(&self) -> &'static str {
        match self.kind {
            SendKind::Remote => "OnRemote",
            SendKind::Neighbor => "OnNeighbor",
        }
    }

    /// One-line summary of the hop (used for diagnostic notes).
    pub fn describe(&self, n: usize) -> String {
        format!(
            "hop {n}: {} -> {} via {}, destination = {} ({})",
            self.from,
            self.to,
            self.kind_str(),
            self.dest,
            if self.progress { "progress" } else { "restart" }
        )
    }
}

/// What a [`Witness`] demonstrates.
#[derive(Debug, Clone, PartialEq)]
pub enum WitnessKind {
    /// The packet re-enters a previously visited state:
    /// `hops[cycle_start..]` form the loop, the hops before it the
    /// shortest prefix reaching it from an entry channel.
    Loop {
        /// Index into [`Witness::hops`] where the cycle begins.
        cycle_start: usize,
    },
    /// An execution path neither forwards nor delivers the packet.
    Drop,
    /// An exception may escape the channel, killing the packet.
    Exception,
}

impl WitnessKind {
    /// Stable machine name (`loop`, `drop`, `exception`).
    pub fn as_str(&self) -> &'static str {
        match self {
            WitnessKind::Loop { .. } => "loop",
            WitnessKind::Drop => "drop",
            WitnessKind::Exception => "exception",
        }
    }
}

/// A minimal counterexample reconstructed from the explored state
/// graph: code `E005` for termination violations (packet loops), `E006`
/// for delivery violations (drops and escaping exceptions).
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// Diagnostic code: `E005` (termination) or `E006` (delivery).
    pub code: &'static str,
    /// What the witness demonstrates.
    pub kind: WitnessKind,
    /// The channel the violation anchors to, as `name#overload`.
    pub channel: String,
    /// Human-readable description.
    pub message: String,
    /// Anchor location: the restart send closing the loop, or the
    /// branch arm that drops the packet.
    pub span: Span,
    /// The dispatch chain (empty for drop/exception witnesses, where
    /// the violating channel is itself an entry point).
    pub hops: Vec<WitnessHop>,
}

impl Witness {
    /// Converts the witness into a [`Diagnostic`] carrying the hop
    /// chain as notes.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let mut d = Diagnostic::error(self.code, self.span, self.message.clone());
        for (i, h) in self.hops.iter().enumerate() {
            d = d.note(h.describe(i + 1));
        }
        if let WitnessKind::Loop { cycle_start } = self.kind {
            d = d.note(format!(
                "hops {}..{} repeat forever",
                cycle_start + 1,
                self.hops.len()
            ));
        }
        d
    }

    /// Renders the witness with a caret snippet at each hop:
    ///
    /// ```text
    /// error[E005] at 2:4: possible packet loop: …
    ///   hop 1: a#0 -> b#0 via OnRemote, destination = 10.0.0.2 (restart)
    ///   2 | (OnRemote(b, …
    ///     |  ^^^^^^^^
    ///   hops 1..2 repeat forever
    /// ```
    pub fn render(&self, src: &str) -> String {
        let lc = line_col(src, self.span.start);
        let mut out = format!("error[{}] at {}: {}", self.code, lc, self.message);
        if self.hops.is_empty() {
            if let Some(snippet) = render_snippet(src, self.span) {
                out.push('\n');
                out.push_str(&snippet);
            }
        }
        for (i, h) in self.hops.iter().enumerate() {
            out.push('\n');
            out.push_str("  ");
            out.push_str(&h.describe(i + 1));
            if let Some(snippet) = render_snippet(src, h.span) {
                out.push('\n');
                out.push_str(&snippet);
            }
        }
        if let WitnessKind::Loop { cycle_start } = self.kind {
            out.push('\n');
            out.push_str(&format!(
                "  hops {}..{} repeat forever",
                cycle_start + 1,
                self.hops.len()
            ));
        }
        out
    }

    /// Appends the byte-stable JSON form to `out`. Key order is fixed:
    /// `code`, `kind`, `channel`, `cycle_start` (loop witnesses only),
    /// `message`, `line`, `col`, `start`, `end`, `hops`.
    pub fn write_json(&self, src: &str, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"code\":");
        push_str(out, self.code);
        out.push_str(",\"kind\":");
        push_str(out, self.kind.as_str());
        out.push_str(",\"channel\":");
        push_str(out, &self.channel);
        if let WitnessKind::Loop { cycle_start } = self.kind {
            let _ = write!(out, ",\"cycle_start\":{cycle_start}");
        }
        out.push_str(",\"message\":");
        push_str(out, &self.message);
        let lc = line_col(src, self.span.start);
        let _ = write!(
            out,
            ",\"line\":{},\"col\":{},\"start\":{},\"end\":{}",
            lc.line, lc.col, self.span.start, self.span.end
        );
        out.push_str(",\"hops\":[");
        for (i, h) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let hlc = line_col(src, h.span.start);
            out.push_str("{\"from\":");
            push_str(out, &h.from);
            out.push_str(",\"to\":");
            push_str(out, &h.to);
            out.push_str(",\"kind\":");
            push_str(out, h.kind_str());
            out.push_str(",\"dest\":");
            push_str(out, &h.dest);
            let _ = write!(
                out,
                ",\"progress\":{},\"line\":{},\"col\":{},\"start\":{},\"end\":{}}}",
                h.progress, hlc.line, hlc.col, h.span.start, h.span.end
            );
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Witness {
        Witness {
            code: "E005",
            kind: WitnessKind::Loop { cycle_start: 0 },
            channel: "network#0".into(),
            message: "possible packet loop".into(),
            span: Span::new(59, 67),
            hops: vec![WitnessHop {
                from: "network#0".into(),
                to: "network#0".into(),
                kind: SendKind::Remote,
                dest: "10.0.0.2".into(),
                progress: false,
                span: Span::new(59, 67),
            }],
        }
    }

    #[test]
    fn json_is_byte_stable() {
        let src = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n(OnRemote(network, p); (ps, ss))";
        let w = sample();
        let mut a = String::new();
        w.write_json(src, &mut a);
        let mut b = String::new();
        w.write_json(src, &mut b);
        assert_eq!(a, b);
        assert!(a.contains("\"code\":\"E005\""), "{a}");
        assert!(a.contains("\"cycle_start\":0"), "{a}");
        assert!(a.contains("\"progress\":false"), "{a}");
    }

    #[test]
    fn render_shows_hops_and_cycle() {
        let src = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n(OnRemote(network, p); (ps, ss))";
        let r = sample().render(src);
        assert!(
            r.contains("hop 1: network#0 -> network#0 via OnRemote"),
            "{r}"
        );
        assert!(r.contains("^"), "{r}");
        assert!(r.contains("repeat forever"), "{r}");
    }

    #[test]
    fn diagnostic_carries_hop_notes() {
        let d = sample().to_diagnostic();
        assert_eq!(d.code, "E005");
        assert_eq!(d.notes.len(), 2);
        assert!(d.notes[0].starts_with("hop 1:"));
        assert!(d.notes[1].contains("repeat forever"));
    }
}
