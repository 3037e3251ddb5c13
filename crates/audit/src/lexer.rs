//! A purpose-built Rust lexer: the token substrate for every QA rule.
//!
//! The container is offline, so the analyzer cannot lean on `syn` or
//! `proc-macro2`; instead this module tokenizes Rust source directly, the
//! same way the QDL front end owns its own lexer. Fidelity goals are those
//! of a *scanner*, not a compiler front end:
//!
//! - every token carries its byte [`Span`] so findings render through the
//!   shared caret renderer (`quarry_exec::diag`);
//! - string/char/byte literals (including raw strings with any `#` depth)
//!   are opaque single tokens, so `"unwrap()"` inside a string can never
//!   look like a call;
//! - comments are **kept** in the stream (`//`, `///`, `//!`, nested
//!   `/* */`) because two rule inputs live in comments: `// SAFETY:`
//!   justifications (QA104) and `// quarry-audit: allow(...)` suppressions;
//! - everything else is an `Ident`, a numeric literal, a lifetime, or a
//!   single-character `Punct`. Multi-character operators are left as
//!   adjacent puncts; rules that care (`::`, `->`) match pairs.
//!
//! Unterminated constructs do not abort the scan: the lexer closes them at
//! end of input so a half-edited file still produces a best-effort stream
//! (an audit tool must degrade, not crash, on weird input).

use quarry_exec::diag::Span;

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `unwrap`, ...).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`1.5`, `2e8`).
    Float,
    /// String, raw-string, byte-string, char, or byte literal — opaque.
    Literal,
    /// `// ...` comment (doc comments included), text without newline.
    LineComment,
    /// `/* ... */` comment, nesting handled.
    BlockComment,
    /// Any other single character (`{`, `.`, `#`, `<`, ...).
    Punct,
}

/// One lexeme with its location.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// Byte range in the source.
    pub span: Span,
    /// The lexeme text (for `Punct`, a single character).
    pub text: String,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for a punct with exactly this character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True for either comment kind.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Tokenize `src` into a full stream, comments included.
pub fn tokenize(src: &str) -> Vec<Token> {
    Lexer { src: src.as_bytes(), pos: 0, out: Vec::new() }.run(src)
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn run(mut self, text: &str) -> Vec<Token> {
        while self.pos < self.src.len() {
            let start = self.pos;
            let b = self.src[self.pos];
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(text),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(text),
                b'r' if self.raw_string_ahead(0) => self.raw_string(text, 0),
                b'b' => match (self.peek(1), self.peek(2)) {
                    (Some(b'"'), _) => {
                        self.pos += 1;
                        self.quoted(text, b'"', start);
                    }
                    (Some(b'\''), _) => {
                        self.pos += 1;
                        self.quoted(text, b'\'', start);
                    }
                    (Some(b'r'), _) if self.raw_string_ahead(1) => self.raw_string(text, 1),
                    _ => self.ident(text),
                }, // `b"..."` / `b'x'` / `br#"..."#` byte literals
                b'"' => self.quoted(text, b'"', start),
                b'\'' => self.char_or_lifetime(text),
                b'0'..=b'9' => self.number(text),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(text),
                _ => {
                    // One punct per char; multi-byte UTF-8 advances whole.
                    let ch_len = utf8_len(b);
                    self.pos = (self.pos + ch_len).min(self.src.len());
                    self.push(TokKind::Punct, start, text);
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, start: usize, text: &str) {
        let span = Span::new(start, self.pos);
        self.out.push(Token { kind, span, text: text[start..self.pos].to_string() });
    }

    fn line_comment(&mut self, text: &str) {
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.pos += 1;
        }
        self.push(TokKind::LineComment, start, text);
    }

    fn block_comment(&mut self, text: &str) {
        let start = self.pos;
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.src[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.src[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.pos += 1;
            }
        }
        self.push(TokKind::BlockComment, start, text);
    }

    /// Is `r#*"` (any number of `#`s) at offset `ahead` from `pos`?
    fn raw_string_ahead(&self, ahead: usize) -> bool {
        let mut i = self.pos + ahead;
        if self.src.get(i) != Some(&b'r') {
            return false;
        }
        i += 1;
        while self.src.get(i) == Some(&b'#') {
            i += 1;
        }
        self.src.get(i) == Some(&b'"')
    }

    /// Lex `r"..."` / `r#"..."#` (with optional `b` prefix already counted
    /// in `r_at`): consume up to the matching `"#...#` of the same depth.
    fn raw_string(&mut self, text: &str, r_at: usize) {
        let start = self.pos;
        self.pos += r_at; // skip optional `b`, landing on `r`
        self.pos += 1; // `r`
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.pos += 1 + hashes;
                    break;
                }
            }
            self.pos += 1;
        }
        self.push(TokKind::Literal, start, text);
    }

    /// Lex a `"`- or `'`-delimited literal with `\` escapes; `start` is
    /// where the literal began (before any `b` prefix).
    fn quoted(&mut self, text: &str, delim: u8, start: usize) {
        self.pos += 1; // opening delimiter
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos = (self.pos + 2).min(self.src.len()),
                b if b == delim => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokKind::Literal, start, text);
    }

    /// `'` starts either a char literal (`'x'`, `'\n'`) or a lifetime
    /// (`'a`). Rust's own rule: it is a lifetime when the quote is followed
    /// by an identifier that is *not* closed by another quote.
    fn char_or_lifetime(&mut self, text: &str) {
        let start = self.pos;
        if self.peek(1) == Some(b'\\') {
            return self.quoted(text, b'\'', start);
        }
        let mut i = self.pos + 1;
        while self.src.get(i).is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_') {
            i += 1;
        }
        if i > self.pos + 1 && self.src.get(i) != Some(&b'\'') {
            self.pos = i;
            self.push(TokKind::Lifetime, start, text);
        } else {
            self.quoted(text, b'\'', start);
        }
    }

    fn number(&mut self, text: &str) {
        let start = self.pos;
        let mut kind = TokKind::Int;
        if self.src[self.pos] == b'0' && matches!(self.peek(1), Some(b'x' | b'o' | b'b')) {
            self.pos += 2;
            while self.src.get(self.pos).is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_') {
                self.pos += 1;
            }
            return self.push(TokKind::Int, start, text);
        }
        while self.src.get(self.pos).is_some_and(|b| b.is_ascii_digit() || *b == b'_') {
            self.pos += 1;
        }
        // `1.5` is a float; `1..4` keeps the int and leaves `..` alone.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            kind = TokKind::Float;
            self.pos += 1;
            while self.src.get(self.pos).is_some_and(|b| b.is_ascii_digit() || *b == b'_') {
                self.pos += 1;
            }
        }
        // Exponent / type suffix (`2e8`, `1u64`, `1.5f32`).
        if self.peek(0).is_some_and(|b| b.is_ascii_alphabetic()) {
            if matches!(self.peek(0), Some(b'e' | b'E'))
                && self.peek(1).is_some_and(|b| b.is_ascii_digit() || b == b'+' || b == b'-')
            {
                kind = TokKind::Float;
                self.pos += 1;
                if matches!(self.peek(0), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
            }
            while self.src.get(self.pos).is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_') {
                self.pos += 1;
            }
        }
        self.push(kind, start, text);
    }

    fn ident(&mut self, text: &str) {
        let start = self.pos;
        while self.src.get(self.pos).is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_') {
            self.pos += 1;
        }
        self.push(TokKind::Ident, start, text);
    }
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_are_opaque_to_rules() {
        let toks = kinds(r#"let s = "x.unwrap()"; s"#);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Literal && t.contains("unwrap")));
        // No Ident token named unwrap leaked out of the string.
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes_and_byte_literals() {
        let toks = kinds(r##"let a = r#"quote " inside"#; let b = br"raw"; let c = b'x';"##);
        let lits: Vec<&str> =
            toks.iter().filter(|(k, _)| *k == TokKind::Literal).map(|(_, t)| t.as_str()).collect();
        assert_eq!(lits, [r##"r#"quote " inside"#"##, r#"br"raw""#, "b'x'"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'y'; let n = '\\n'; }");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(), 2);
        let lits: Vec<&str> =
            toks.iter().filter(|(k, _)| *k == TokKind::Literal).map(|(_, t)| t.as_str()).collect();
        assert_eq!(lits, ["'y'", "'\\n'"]);
    }

    #[test]
    fn comments_survive_with_text() {
        let toks = tokenize("// SAFETY: fine\n/* block /* nested */ done */ fn f() {}");
        assert_eq!(toks[0].kind, TokKind::LineComment);
        assert!(toks[0].text.contains("SAFETY:"));
        assert_eq!(toks[1].kind, TokKind::BlockComment);
        assert!(toks[1].text.ends_with("done */"));
        assert!(toks[2].is_ident("fn"));
    }

    #[test]
    fn numbers_ranges_and_indexing_shapes() {
        let toks = kinds("a[0..4]; b[i]; 1.5; 0xFF; 2e8; 1_000u64");
        let ints: Vec<&str> =
            toks.iter().filter(|(k, _)| *k == TokKind::Int).map(|(_, t)| t.as_str()).collect();
        assert_eq!(ints, ["0", "4", "0xFF", "1_000u64"]);
        let floats: Vec<&str> =
            toks.iter().filter(|(k, _)| *k == TokKind::Float).map(|(_, t)| t.as_str()).collect();
        assert_eq!(floats, ["1.5", "2e8"]);
    }

    #[test]
    fn unterminated_constructs_do_not_hang_or_panic() {
        for src in ["\"open", "/* open", "r#\"open", "'", "b\"open"] {
            let toks = tokenize(src);
            assert!(!toks.is_empty(), "no tokens for {src:?}");
        }
    }

    #[test]
    fn spans_cover_the_source_exactly() {
        let src = "fn main() { x.lock(); } // tail";
        for t in tokenize(src) {
            assert_eq!(&src[t.span.start..t.span.end], t.text);
        }
    }
}
