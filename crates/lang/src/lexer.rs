//! QDL lexer.

use crate::parser::ParseError;
use quarry_exec::diag::{line_col_of, Span};
use std::fmt;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (keywords are matched case-insensitively by
    /// the parser; the original spelling is preserved here).
    Ident(String),
    /// Double-quoted string literal, unescaped.
    Str(String),
    /// Numeric literal.
    Number(f64),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `=`
    Eq,
    /// `>=`
    Ge,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::Number(n) => write!(f, "{n}"),
            Token::Comma => write!(f, ","),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Eq => write!(f, "="),
            Token::Ge => write!(f, ">="),
        }
    }
}

/// A token plus the byte range of the source text it was lexed from.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken {
    /// The token itself.
    pub tok: Token,
    /// Byte range in the original source. For string literals the span
    /// covers the quotes too, so carets underline what the user typed.
    pub span: Span,
}

/// Tokenize a QDL program, keeping each token's byte span. `--` starts a
/// comment to end of line.
pub fn lex_spanned(src: &str) -> Result<Vec<SpannedToken>, ParseError> {
    let err = |at: usize, message: String| {
        let (line, col) = line_col_of(src, at);
        ParseError { message, span: Span::point(at), line, col }
    };
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            ',' => {
                out.push(SpannedToken { tok: Token::Comma, span: Span::new(i, i + 1) });
                i += 1;
            }
            '(' => {
                out.push(SpannedToken { tok: Token::LParen, span: Span::new(i, i + 1) });
                i += 1;
            }
            ')' => {
                out.push(SpannedToken { tok: Token::RParen, span: Span::new(i, i + 1) });
                i += 1;
            }
            '=' => {
                out.push(SpannedToken { tok: Token::Eq, span: Span::new(i, i + 1) });
                i += 1;
            }
            '>' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(SpannedToken { tok: Token::Ge, span: Span::new(i, i + 2) });
                i += 2;
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(err(i, "unterminated string".into()));
                }
                out.push(SpannedToken {
                    tok: Token::Str(src[start..j].to_string()),
                    span: Span::new(i, j + 1),
                });
                i = j + 1;
            }
            _ if c.is_ascii_digit()
                || (c == '.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let start = i;
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let text = &src[start..i];
                let n: f64 = text.parse().map_err(|_| err(start, format!("bad number {text}")))?;
                out.push(SpannedToken { tok: Token::Number(n), span: Span::new(start, i) });
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'-'
                        || bytes[i] == b':')
                {
                    // Allow '-' inside identifiers (extractor names like
                    // `prose-rule`) but not a trailing comment starter.
                    if bytes[i] == b'-' && bytes.get(i + 1) == Some(&b'-') {
                        break;
                    }
                    i += 1;
                }
                out.push(SpannedToken {
                    tok: Token::Ident(src[start..i].to_string()),
                    span: Span::new(start, i),
                });
            }
            _ => {
                return Err(err(i, format!("unexpected character {c:?}")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
        Ok(lex_spanned(src)?.into_iter().map(|st| st.tok).collect())
    }

    #[test]
    fn lexes_a_full_program() {
        let toks = lex("PIPELINE p\nFROM corpus -- comment\nEXTRACT infobox, prose-rule\nWHERE confidence >= 0.6").unwrap();
        assert!(toks.contains(&Token::Ident("PIPELINE".into())));
        assert!(toks.contains(&Token::Ident("prose-rule".into())));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Number(0.6)));
        assert!(!toks.iter().any(|t| matches!(t, Token::Ident(s) if s == "comment")));
    }

    #[test]
    fn strings_and_punctuation() {
        let toks = lex("attribute IN (\"population\", \"state\")").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("attribute".into()),
                Token::Ident("IN".into()),
                Token::LParen,
                Token::Str("population".into()),
                Token::Comma,
                Token::Str("state".into()),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn errors_carry_positions() {
        let err = lex("abc \"unterminated").unwrap_err();
        assert_eq!(err.span, Span::point(4));
        assert_eq!((err.line, err.col), (1, 5));
        let err = lex("abc @").unwrap_err();
        assert!(err.message.contains('@'));
    }

    #[test]
    fn lex_error_display_has_line_and_column() {
        let err = lex("PIPELINE p\nFROM @corpus").unwrap_err();
        assert_eq!((err.line, err.col), (2, 6));
        assert_eq!(err.to_string(), "parse error at 2:6: unexpected character '@'");
    }

    #[test]
    fn spans_cover_the_lexed_text() {
        let src = "EXTRACT infobox\nWHERE attribute = \"name\"";
        let toks = lex_spanned(src).unwrap();
        for st in &toks {
            let text = &src[st.span.start..st.span.end];
            match &st.tok {
                Token::Ident(s) => assert_eq!(text, s),
                Token::Str(s) => assert_eq!(text, format!("\"{s}\"")),
                _ => {}
            }
        }
        let name = toks.iter().find(|t| t.tok == Token::Str("name".into())).unwrap();
        assert_eq!(&src[name.span.start..name.span.end], "\"name\"");
    }

    #[test]
    fn numbers_integer_and_decimal() {
        let toks = lex("50 0.75").unwrap();
        assert_eq!(toks, vec![Token::Number(50.0), Token::Number(0.75)]);
    }

    #[test]
    fn empty_and_comment_only() {
        assert!(lex("").unwrap().is_empty());
        assert!(lex("-- nothing here\n-- more").unwrap().is_empty());
    }
}
