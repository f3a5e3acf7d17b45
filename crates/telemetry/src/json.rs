//! A tiny deterministic JSON writer.
//!
//! `serde_json` is unavailable offline, and determinism is a hard
//! requirement here anyway: these helpers emit keys in the order the
//! caller provides them (callers iterate `BTreeMap`s) and format numbers
//! without any locale or float involvement, so the same data always
//! serializes to the same bytes.

/// Appends `s` as a JSON string literal (with quotes) to `out`.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends the escaped body of a string literal — no quotes, so a
/// literal can be written in pieces.
///
/// Runs of bytes that need no escape are copied as slices. Every byte
/// that does is ASCII, so a run always ends on a `char` boundary.
pub fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x20.. => continue,
            _ => "\\u00", // the other control characters: two hex digits follow
        };
        out.push_str(&s[run..i]);
        out.push_str(esc);
        if esc.len() > 2 {
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `v` in decimal to `out` — the one integer writer of every
/// byte-stable export, so a number never goes through a temporary
/// `String`.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Appends `"key":` to `out`.
pub fn push_key(out: &mut String, key: &str) {
    push_str(out, key);
    out.push(':');
}

/// A comma-separating helper for building objects and arrays.
#[derive(Debug)]
pub struct Seq {
    first: bool,
}

impl Seq {
    /// Starts a sequence.
    pub fn new() -> Self {
        Seq { first: true }
    }

    /// Appends a separator unless this is the first element.
    pub fn sep(&mut self, out: &mut String) {
        if self.first {
            self.first = false;
        } else {
            out.push(',');
        }
    }
}

impl Default for Seq {
    fn default() -> Self {
        Seq::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");

        // Every control character, against the writer this one replaced.
        for c in 0u8..0x20 {
            let c = char::from(c);
            let want = match c {
                '\n' => "\\n".to_string(),
                '\r' => "\\r".to_string(),
                '\t' => "\\t".to_string(),
                c => format!("\\u{:04x}", c as u32),
            };
            let mut out = String::new();
            push_str(&mut out, &format!("x{c}{c}y"));
            assert_eq!(out, format!("\"x{want}{want}y\""), "{:?}", c);
        }

        // Multi-byte UTF-8 passes through, also next to an escape.
        let mut out = String::new();
        push_str(&mut out, "é\"→\u{1f}𝄞\\日本");
        assert_eq!(out, "\"é\\\"→\\u001f𝄞\\\\日本\"");
        let mut out = String::new();
        push_str(&mut out, "");
        assert_eq!(out, "\"\"");
    }

    #[test]
    fn integers_match_display() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn seq_separates() {
        let mut out = String::new();
        let mut seq = Seq::new();
        for k in ["a", "b"] {
            seq.sep(&mut out);
            out.push_str(k);
        }
        assert_eq!(out, "a,b");
    }
}
