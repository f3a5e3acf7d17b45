//! Lexer for PLAN-P source text.
//!
//! Notable lexical features, all visible in the paper's program fragments:
//!
//! * `--` line comments (figure 2) and nested `(* … *)` block comments (SML);
//! * IPv4 host literals written directly in source: `131.254.60.81`;
//! * SML-style character literals `#"c"` and tuple projections `#1`;
//! * multi-character operators `<>`, `<=`, `>=`, `=>`.

use crate::error::LangError;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Lexes `src` into a token stream terminated by a single [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns a [`LangError`] on malformed input: unterminated strings or block
/// comments, bad escapes, bad host literals, stray characters, or integer
/// literals that overflow `i64`.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LangError> {
    Lexer::new(src).run()
}

/// Decodes the escapes of a string literal's body, the text of a
/// [`TokenKind::Str`] (whose escapes the lexer has already checked: an
/// unknown one is copied through).
pub fn unescape(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some(other) => other,
                None => break,
            },
            c => c,
        });
    }
    out
}

struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    tokens: Vec<Token<'s>>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            // Four bytes a token is the dense end of real programs (the
            // corpus runs 3.6 to 9.4), so the vector seldom grows.
            tokens: Vec::with_capacity(src.len() / 4 + 1),
        }
    }

    fn run(mut self) -> Result<Vec<Token<'s>>, LangError> {
        while self.pos < self.bytes.len() {
            self.skip_trivia()?;
            if self.pos >= self.bytes.len() {
                break;
            }
            let start = self.pos;
            let c = self.bytes[self.pos];
            match c {
                b'0'..=b'9' => self.number(start)?,
                b'"' => self.string(start)?,
                b'#' => self.hash(start)?,
                b'(' => self.punct(start, 1, TokenKind::LParen),
                b')' => self.punct(start, 1, TokenKind::RParen),
                b'[' => self.punct(start, 1, TokenKind::LBracket),
                b']' => self.punct(start, 1, TokenKind::RBracket),
                b',' => self.punct(start, 1, TokenKind::Comma),
                b';' => self.punct(start, 1, TokenKind::Semi),
                b':' => self.punct(start, 1, TokenKind::Colon),
                b'*' => self.punct(start, 1, TokenKind::Star),
                b'+' => self.punct(start, 1, TokenKind::Plus),
                b'-' => self.punct(start, 1, TokenKind::Minus),
                b'^' => self.punct(start, 1, TokenKind::Caret),
                b'=' => {
                    if self.peek_at(1) == Some(b'>') {
                        self.punct(start, 2, TokenKind::DArrow);
                    } else {
                        self.punct(start, 1, TokenKind::Eq);
                    }
                }
                b'<' => match self.peek_at(1) {
                    Some(b'>') => self.punct(start, 2, TokenKind::Ne),
                    Some(b'=') => self.punct(start, 2, TokenKind::Le),
                    _ => self.punct(start, 1, TokenKind::Lt),
                },
                b'>' => {
                    if self.peek_at(1) == Some(b'=') {
                        self.punct(start, 2, TokenKind::Ge);
                    } else {
                        self.punct(start, 1, TokenKind::Gt);
                    }
                }
                b'_' => {
                    // `_` alone is the wildcard; `_x` is an identifier.
                    if self
                        .peek_at(1)
                        .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'')
                    {
                        self.ident(start);
                    } else {
                        self.punct(start, 1, TokenKind::Underscore);
                    }
                }
                c if c.is_ascii_alphabetic() => self.ident(start),
                _ => {
                    // The whole character, not its first byte: outside
                    // ASCII the two differ.
                    let other = self.src[start..].chars().next().unwrap_or('\u{fffd}');
                    return Err(LangError::lex(
                        format!("unexpected character `{other}`"),
                        Span::new(start as u32, (start + other.len_utf8()) as u32),
                    ));
                }
            }
        }
        let end = self.src.len() as u32;
        self.tokens.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(end, end),
        });
        Ok(self.tokens)
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn push(&mut self, kind: TokenKind<'s>, start: usize, end: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start as u32, end as u32),
        });
    }

    fn punct(&mut self, start: usize, len: usize, kind: TokenKind<'s>) {
        self.pos = start + len;
        self.push(kind, start, start + len);
    }

    /// Skips whitespace, `--` line comments, and nested `(* *)` comments.
    fn skip_trivia(&mut self) -> Result<(), LangError> {
        loop {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos + 1 < self.bytes.len()
                && self.bytes[self.pos] == b'-'
                && self.bytes[self.pos + 1] == b'-'
            {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            if self.pos + 1 < self.bytes.len()
                && self.bytes[self.pos] == b'('
                && self.bytes[self.pos + 1] == b'*'
            {
                let start = self.pos;
                self.pos += 2;
                let mut depth = 1usize;
                while depth > 0 {
                    if self.pos + 1 >= self.bytes.len() {
                        return Err(LangError::lex(
                            "unterminated block comment",
                            Span::new(start as u32, self.src.len() as u32),
                        ));
                    }
                    match (self.bytes[self.pos], self.bytes[self.pos + 1]) {
                        (b'(', b'*') => {
                            depth += 1;
                            self.pos += 2;
                        }
                        (b'*', b')') => {
                            depth -= 1;
                            self.pos += 2;
                        }
                        _ => self.pos += 1,
                    }
                }
                continue;
            }
            return Ok(());
        }
    }

    fn read_int(&mut self) -> Result<i64, LangError> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        self.src[start..self.pos].parse::<i64>().map_err(|_| {
            LangError::lex(
                "integer literal overflows 64 bits",
                Span::new(start as u32, self.pos as u32),
            )
        })
    }

    /// Lexes an integer literal or, when followed by three more dotted
    /// octets, an IPv4 host literal.
    fn number(&mut self, start: usize) -> Result<(), LangError> {
        let first = self.read_int()?;
        // Host literal: `a.b.c.d` where each part is an octet. The grammar
        // has no floating point, so a digit after `.` is unambiguous.
        if self.peek_at(0) == Some(b'.') && self.peek_at(1).is_some_and(|b| b.is_ascii_digit()) {
            let mut octets = vec![first];
            while octets.len() < 4 {
                if self.peek_at(0) == Some(b'.')
                    && self.peek_at(1).is_some_and(|b| b.is_ascii_digit())
                {
                    self.pos += 1; // consume `.`
                    octets.push(self.read_int()?);
                } else {
                    break;
                }
            }
            let span = Span::new(start as u32, self.pos as u32);
            if octets.len() != 4 || octets.iter().any(|&o| !(0..=255).contains(&o)) {
                return Err(LangError::lex(
                    "malformed host literal (expected four octets in 0..=255)",
                    span,
                ));
            }
            let addr = ((octets[0] as u32) << 24)
                | ((octets[1] as u32) << 16)
                | ((octets[2] as u32) << 8)
                | octets[3] as u32;
            self.push(TokenKind::Host(addr), start, self.pos);
        } else {
            self.push(TokenKind::Int(first), start, self.pos);
        }
        Ok(())
    }

    fn string(&mut self, start: usize) -> Result<(), LangError> {
        self.pos += 1; // opening quote
        loop {
            match self.peek_at(0) {
                None | Some(b'\n') => {
                    return Err(LangError::lex(
                        "unterminated string literal",
                        Span::new(start as u32, self.pos as u32),
                    ))
                }
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    if !matches!(self.peek_at(1), Some(b'n' | b't' | b'\\' | b'"')) {
                        return Err(LangError::lex(
                            "unknown escape in string literal",
                            Span::new(self.pos as u32, self.pos as u32 + 2),
                        ));
                    }
                    self.pos += 2;
                }
                // Any other byte, a UTF-8 continuation byte included,
                // is part of the body: neither `"` nor `\` nor a line
                // feed can occur inside a multi-byte character.
                Some(_) => self.pos += 1,
            }
        }
        let body = &self.src[start + 1..self.pos - 1];
        self.push(TokenKind::Str(body), start, self.pos);
        Ok(())
    }

    /// Lexes the `#` forms: `#"c"` (char literal) and `#1` (projection).
    fn hash(&mut self, start: usize) -> Result<(), LangError> {
        match self.peek_at(1) {
            Some(b'"') => {
                // #"c" — a single character, possibly escaped.
                self.pos += 2;
                let ch = match self.peek_at(0) {
                    Some(b'\\') => {
                        let c = match self.peek_at(1) {
                            Some(b'n') => '\n',
                            Some(b't') => '\t',
                            Some(b'\\') => '\\',
                            Some(b'"') => '"',
                            _ => {
                                return Err(LangError::lex(
                                    "unknown escape in character literal",
                                    Span::new(start as u32, self.pos as u32 + 2),
                                ))
                            }
                        };
                        self.pos += 2;
                        c
                    }
                    Some(b) if b != b'"' => {
                        let rest = &self.src[self.pos..];
                        let ch = rest.chars().next().expect("non-empty");
                        self.pos += ch.len_utf8();
                        ch
                    }
                    _ => {
                        return Err(LangError::lex(
                            "empty character literal",
                            Span::new(start as u32, self.pos as u32 + 1),
                        ))
                    }
                };
                if self.peek_at(0) != Some(b'"') {
                    return Err(LangError::lex(
                        "character literal must contain exactly one character",
                        Span::new(start as u32, self.pos as u32),
                    ));
                }
                self.pos += 1;
                self.push(TokenKind::Char(ch), start, self.pos);
                Ok(())
            }
            Some(b) if b.is_ascii_digit() => {
                self.pos += 1;
                let n = self.read_int()?;
                if n < 1 || n > u32::MAX as i64 {
                    return Err(LangError::lex(
                        "projection index must be at least 1",
                        Span::new(start as u32, self.pos as u32),
                    ));
                }
                self.push(TokenKind::Proj(n as u32), start, self.pos);
                Ok(())
            }
            _ => Err(LangError::lex(
                "expected `#\"c\"` or `#N` after `#`",
                Span::new(start as u32, start as u32 + 1),
            )),
        }
    }

    fn ident(&mut self, start: usize) {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'\'' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let word = &self.src[start..self.pos];
        let kind = TokenKind::keyword(word).unwrap_or(TokenKind::Ident(word));
        self.push(kind, start, self.pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_val_declaration() {
        use TokenKind::*;
        assert_eq!(
            kinds("val CmdA : int = 1"),
            vec![Val, Ident("CmdA"), Colon, Ident("int"), Eq, Int(1), Eof]
        );
    }

    #[test]
    fn lexes_host_literal() {
        let a = (131u32 << 24) | (254 << 16) | (60 << 8) | 81;
        assert_eq!(
            kinds("131.254.60.81"),
            vec![TokenKind::Host(a), TokenKind::Eof]
        );
    }

    #[test]
    fn rejects_bad_host_literal() {
        assert!(lex("10.20.30").is_err());
        assert!(lex("10.20.300.4").is_err());
    }

    #[test]
    fn lexes_projection_and_char() {
        use TokenKind::*;
        assert_eq!(
            kinds("charPos(#3 p) = #\"A\""),
            vec![
                Ident("charPos"),
                LParen,
                Proj(3),
                Ident("p"),
                RParen,
                Eq,
                Char('A'),
                Eof
            ]
        );
    }

    #[test]
    fn line_comment_runs_to_eol() {
        use TokenKind::*;
        assert_eq!(
            kinds("1 -- incoming HTTP requests\n2"),
            vec![Int(1), Int(2), Eof]
        );
    }

    #[test]
    fn block_comments_nest() {
        assert_eq!(
            kinds("(* a (* b *) c *) 7"),
            vec![TokenKind::Int(7), TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(lex("(* oops").is_err());
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            kinds(r#""CmdA: \n""#),
            vec![TokenKind::Str(r"CmdA: \n"), TokenKind::Eof]
        );
        assert_eq!(unescape(r"CmdA: \n"), "CmdA: \n");
        assert_eq!(unescape(r#"a\tb \\ \"q\" é"#), "a\tb \\ \"q\" é");
        assert_eq!(kinds("\"é\" 1")[0], TokenKind::Str("é"));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"abc\ndef\"").is_err());
    }

    #[test]
    fn multichar_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("<> <= >= => < > ="),
            vec![Ne, Le, Ge, DArrow, Lt, Gt, Eq, Eof]
        );
    }

    #[test]
    fn wildcard_vs_identifier() {
        use TokenKind::*;
        assert_eq!(kinds("_ _x"), vec![Underscore, Ident("_x"), Eof]);
    }

    #[test]
    fn keywords_not_identifiers() {
        use TokenKind::*;
        assert_eq!(kinds("if then else"), vec![If, Then, Else, Eof]);
        // Prefixes of keywords remain identifiers.
        assert_eq!(kinds("iff"), vec![Ident("iff"), Eof]);
    }

    #[test]
    fn primed_identifiers() {
        assert_eq!(kinds("ss'"), vec![TokenKind::Ident("ss'"), TokenKind::Eof]);
    }

    #[test]
    fn figure2_fragment_lexes() {
        let src = r#"
channel network(ps : int, ss : (int*host*host) hash_table, p : ip*tcp*blob)
initstate mkTable(256) is
  let
    val iph : ip = #1 p
  in
    if (tcpDst(tcp) = 80) then
      (OnRemote(network, (ipDestSet(iph, 131.254.60.81), tcp, body)); (1,ss))
    else (0, ss)
  end
"#;
        let toks = lex(src).unwrap();
        assert!(toks.len() > 40);
        assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
    }

    #[test]
    fn spans_point_at_source() {
        let src = "val answer : int = 42";
        let toks = lex(src).unwrap();
        let answer = &toks[1];
        assert_eq!(answer.span.slice(src), "answer");
    }

    #[test]
    fn stray_character_is_reported_whole() {
        // Commit 1d322cc cast the lead byte to a `char` ("unexpected
        // character `Ã`") and ended the span inside the character.
        let err = lex("1 + é").unwrap_err();
        assert_eq!(err.message, "unexpected character `é`");
        assert_eq!(err.span, Span::new(4, 6));
        assert_eq!(err.span.slice("1 + é"), "é");
        let err = lex("val x : int = 1 \u{fffd}").unwrap_err();
        assert_eq!(err.message, "unexpected character `\u{fffd}`");
        assert_eq!((err.span.start, err.span.end), (16, 19));
        // ASCII strays read as before.
        let err = lex("a ? b").unwrap_err();
        assert_eq!(err.message, "unexpected character `?`");
        assert_eq!(err.span, Span::new(2, 3));
    }

    #[test]
    fn integer_overflow_is_error() {
        assert!(lex("99999999999999999999999").is_err());
    }

    #[test]
    fn empty_input_gives_only_eof() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
        assert_eq!(kinds("   \n\t "), vec![TokenKind::Eof]);
    }
}
