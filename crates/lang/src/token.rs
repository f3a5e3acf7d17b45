//! Tokens of the PLAN-P surface syntax.

use crate::span::Span;
use std::fmt;

/// A lexical token together with its source span. Tokens borrow their
/// text from the source they were lexed from, so one is a few words to
/// copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'s> {
    /// What kind of token this is (and its payload, for literals).
    pub kind: TokenKind<'s>,
    /// Where the token appears in the source.
    pub span: Span,
}

/// The kinds of tokens produced by the [lexer](crate::lexer).
///
/// PLAN-P keeps most of the SML-like surface of PLAN: keywords such as
/// `val`, `fun`, `channel`, `let … in … end`, `handle`, and operator
/// spellings like `andalso`, `orelse`, `div`, `mod`, `<>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'s> {
    /// Identifier: `network`, `getSetS`, `ipSrc`, …
    Ident(&'s str),
    /// Integer literal.
    Int(i64),
    /// String literal: what stands between the quotes, as written. The
    /// lexer has checked its escapes; [`unescape`](crate::lexer::unescape)
    /// decodes them.
    Str(&'s str),
    /// Character literal, written `#"c"` as in SML.
    Char(char),
    /// IPv4 host literal, written `131.254.60.81`.
    Host(u32),
    /// Tuple projection `#1`, `#2`, … (1-based, as in SML).
    Proj(u32),

    // Keywords.
    /// `val`
    Val,
    /// `fun`
    Fun,
    /// `channel`
    Channel,
    /// `initstate`
    Initstate,
    /// `is`
    Is,
    /// `let`
    Let,
    /// `in`
    In,
    /// `end`
    End,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `raise`
    Raise,
    /// `handle`
    Handle,
    /// `exception`
    Exception,
    /// `proto` (initial protocol state — a documented extension of ours)
    Proto,
    /// `true`
    True,
    /// `false`
    False,
    /// `not`
    Not,
    /// `div`
    Div,
    /// `mod`
    Mod,
    /// `andalso`
    Andalso,
    /// `orelse`
    Orelse,

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `*` (multiplication and product types)
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `^` (string concatenation)
    Caret,
    /// `=` (binding and equality)
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `=>` (in `handle Exn => e`)
    DArrow,
    /// `_` (wildcard exception pattern)
    Underscore,

    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Returns the keyword token for `word`, if `word` is a keyword.
    pub fn keyword(word: &str) -> Option<TokenKind<'static>> {
        use TokenKind::*;
        // Length and first byte (and, twice, the second) leave one
        // spelling to compare against, where a match on the word would
        // try up to twenty-two.
        let bytes = word.as_bytes();
        let (spelling, kind) = match (bytes.len(), *bytes.first()?) {
            (2, b'i') => match bytes[1] {
                b's' => ("is", Is),
                b'n' => ("in", In),
                _ => ("if", If),
            },
            (3, b'v') => ("val", Val),
            (3, b'f') => ("fun", Fun),
            (3, b'l') => ("let", Let),
            (3, b'e') => ("end", End),
            (3, b'n') => ("not", Not),
            (3, b'd') => ("div", Div),
            (3, b'm') => ("mod", Mod),
            (4, b't') if bytes[1] == b'h' => ("then", Then),
            (4, b't') => ("true", True),
            (4, b'e') => ("else", Else),
            (5, b'r') => ("raise", Raise),
            (5, b'p') => ("proto", Proto),
            (5, b'f') => ("false", False),
            (6, b'h') => ("handle", Handle),
            (6, b'o') => ("orelse", Orelse),
            (7, b'c') => ("channel", Channel),
            (7, b'a') => ("andalso", Andalso),
            (9, b'i') => ("initstate", Initstate),
            (9, b'e') => ("exception", Exception),
            _ => return None,
        };
        (word == spelling).then_some(kind)
    }

    /// A short human-readable description used in parse errors.
    pub fn describe(&self) -> String {
        use TokenKind::*;
        match self {
            Ident(s) => format!("identifier `{s}`"),
            Int(n) => format!("integer `{n}`"),
            Str(_) => "string literal".to_string(),
            Char(c) => format!("character literal `#\"{c}\"`"),
            Host(a) => format!(
                "host literal `{}.{}.{}.{}`",
                (a >> 24) & 0xff,
                (a >> 16) & 0xff,
                (a >> 8) & 0xff,
                a & 0xff
            ),
            Proj(n) => format!("projection `#{n}`"),
            Val => "`val`".into(),
            Fun => "`fun`".into(),
            Channel => "`channel`".into(),
            Initstate => "`initstate`".into(),
            Is => "`is`".into(),
            Let => "`let`".into(),
            In => "`in`".into(),
            End => "`end`".into(),
            If => "`if`".into(),
            Then => "`then`".into(),
            Else => "`else`".into(),
            Raise => "`raise`".into(),
            Handle => "`handle`".into(),
            Exception => "`exception`".into(),
            Proto => "`proto`".into(),
            True => "`true`".into(),
            False => "`false`".into(),
            Not => "`not`".into(),
            Div => "`div`".into(),
            Mod => "`mod`".into(),
            Andalso => "`andalso`".into(),
            Orelse => "`orelse`".into(),
            LParen => "`(`".into(),
            RParen => "`)`".into(),
            LBracket => "`[`".into(),
            RBracket => "`]`".into(),
            Comma => "`,`".into(),
            Semi => "`;`".into(),
            Colon => "`:`".into(),
            Star => "`*`".into(),
            Plus => "`+`".into(),
            Minus => "`-`".into(),
            Caret => "`^`".into(),
            Eq => "`=`".into(),
            Ne => "`<>`".into(),
            Lt => "`<`".into(),
            Gt => "`>`".into(),
            Le => "`<=`".into(),
            Ge => "`>=`".into(),
            DArrow => "`=>`".into(),
            Underscore => "`_`".into(),
            Eof => "end of input".into(),
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_resolve() {
        assert_eq!(TokenKind::keyword("val"), Some(TokenKind::Val));
        assert_eq!(TokenKind::keyword("andalso"), Some(TokenKind::Andalso));
        assert_eq!(TokenKind::keyword("network"), None);
    }

    #[test]
    fn keyword_dispatch_knows_the_twenty_two_and_nothing_near_them() {
        use TokenKind::*;
        let table = [
            ("val", Val),
            ("fun", Fun),
            ("channel", Channel),
            ("initstate", Initstate),
            ("is", Is),
            ("let", Let),
            ("in", In),
            ("end", End),
            ("if", If),
            ("then", Then),
            ("else", Else),
            ("raise", Raise),
            ("handle", Handle),
            ("exception", Exception),
            ("proto", Proto),
            ("true", True),
            ("false", False),
            ("not", Not),
            ("div", Div),
            ("mod", Mod),
            ("andalso", Andalso),
            ("orelse", Orelse),
        ];
        assert_eq!(TokenKind::keyword(""), None);
        for (word, kind) in table {
            assert_eq!(TokenKind::keyword(word), Some(kind), "{word}");
            // The describe() spelling is the keyword's own.
            assert_eq!(kind.describe(), format!("`{word}`"));
            // One byte off anywhere, a prefix, an extension: identifiers.
            for at in 0..word.len() {
                let mut near = word.as_bytes().to_vec();
                near[at] = if near[at] == b'x' { b'y' } else { b'x' };
                let near = String::from_utf8(near).unwrap();
                let listed = table.iter().any(|(w, _)| *w == near);
                assert_eq!(TokenKind::keyword(&near).is_some(), listed, "{near}");
            }
            let prefix = &word[..word.len() - 1];
            let listed = table.iter().any(|(w, _)| *w == prefix);
            assert_eq!(TokenKind::keyword(prefix).is_some(), listed, "{prefix}");
            assert_eq!(TokenKind::keyword(&format!("{word}s")), None);
        }
    }

    #[test]
    fn describe_host_literal() {
        let a = (131u32 << 24) | (254 << 16) | (60 << 8) | 81;
        assert_eq!(
            TokenKind::Host(a).describe(),
            "host literal `131.254.60.81`"
        );
    }

    #[test]
    fn describe_is_nonempty_for_all_simple_tokens() {
        for k in [
            TokenKind::Val,
            TokenKind::Eof,
            TokenKind::DArrow,
            TokenKind::Proj(3),
        ] {
            assert!(!k.describe().is_empty());
        }
    }
}
