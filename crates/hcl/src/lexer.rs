//! Hand-written lexer for the HCL subset.
//!
//! Handles `#`, `//` and `/* */` comments, decimal numbers, identifiers,
//! operators, and double-quoted strings with escape sequences and `${…}`
//! template interpolation (with nested-brace tracking so `"${merge({a = 1},
//! var.m)}"` lexes correctly).
//!
//! The lexer is pulled one token at a time (`Lexer::next_token`) and its
//! tokens borrow the source: no token vector is built and no identifier is
//! copied until the parser puts it in the tree.

use std::borrow::Cow;

use cloudless_types::{SourcePos, Span};

use crate::diag::{Diagnostic, Diagnostics};
use crate::token::{StrLit, StrPart, Token, TokenKind};

/// A cursor over source text that hands out one token per call.
pub(crate) struct Lexer<'s, 'f> {
    src: &'s str,
    bytes: &'s [u8],
    filename: &'f str,
    pos: usize,
    line: u32,
    col: u32,
    /// Whether the last token could end an expression — what tells a
    /// binary minus from the sign of a literal.
    after_value: bool,
    /// What the lexer could not read (`HCL001`); it skips it and goes on.
    pub(crate) diags: Diagnostics,
}

impl<'s, 'f> Lexer<'s, 'f> {
    pub(crate) fn new(src: &'s str, filename: &'f str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            filename,
            pos: 0,
            line: 1,
            col: 1,
            after_value: false,
            diags: Diagnostics::new(),
        }
    }

    fn here(&self) -> SourcePos {
        SourcePos::new(self.line, self.col, self.pos as u32)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    /// Step over the character at the cursor, all of its bytes, so the
    /// cursor never lands inside a code point.
    fn bump_char(&mut self) -> Option<char> {
        let ch = self.src[self.pos..].chars().next()?;
        for _ in 0..ch.len_utf8() {
            self.bump();
        }
        Some(ch)
    }

    fn error(&mut self, start: SourcePos, msg: String) {
        let span = Span::new(start, self.here());
        self.diags
            .push(Diagnostic::error("HCL001", self.filename, span, msg));
    }

    /// The next token; [`TokenKind::Eof`] at the end of the source, as
    /// often as it is asked for.
    pub(crate) fn next_token(&mut self) -> Token<'s> {
        let (start, kind) = loop {
            let start = self.here();
            let Some(b) = self.peek() else {
                break (start, TokenKind::Eof);
            };
            let kind = match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                    None
                }
                b'#' => self.skip_line_comment(),
                b'/' if self.peek2() == Some(b'/') => self.skip_line_comment(),
                b'/' if self.peek2() == Some(b'*') => self.skip_block_comment(start),
                b'"' => Some(self.lex_string(start)),
                b'0'..=b'9' => self.lex_number(start, false),
                b'-' if matches!(self.peek2(), Some(b'0'..=b'9')) && !self.after_value => {
                    // negative literal only where a value is expected
                    self.bump();
                    self.lex_number(start, true)
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => Some(self.lex_ident()),
                _ => self.lex_operator(start),
            };
            if let Some(kind) = kind {
                break (start, kind);
            }
        };
        self.after_value = matches!(
            kind,
            TokenKind::Ident(_)
                | TokenKind::Number(_)
                | TokenKind::Str(_)
                | TokenKind::RParen
                | TokenKind::RBracket
                | TokenKind::RBrace
        );
        let span = Span::new(start, self.here());
        Token { kind, span }
    }

    fn skip_line_comment(&mut self) -> Option<TokenKind<'s>> {
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        None
    }

    fn skip_block_comment(&mut self, start: SourcePos) -> Option<TokenKind<'s>> {
        self.bump(); // '/'
        self.bump(); // '*'
        loop {
            match self.peek() {
                Some(b'*') if self.peek2() == Some(b'/') => {
                    self.bump();
                    self.bump();
                    return None;
                }
                Some(_) => {
                    self.bump();
                }
                None => {
                    self.error(start, "unterminated block comment".to_owned());
                    return None;
                }
            }
        }
    }

    fn lex_number(&mut self, start: SourcePos, negative: bool) -> Option<TokenKind<'s>> {
        let num_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9')) {
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let text = &self.src[num_start..self.pos];
        match text.parse::<f64>() {
            Ok(n) => Some(TokenKind::Number(if negative { -n } else { n })),
            Err(_) => {
                self.error(start, format!("invalid number literal {text:?}"));
                None
            }
        }
    }

    fn lex_ident(&mut self) -> TokenKind<'s> {
        let s = self.pos;
        while matches!(
            self.peek(),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-')
        ) {
            self.bump();
        }
        TokenKind::Ident(&self.src[s..self.pos])
    }

    fn lex_string(&mut self, start: SourcePos) -> TokenKind<'s> {
        self.bump(); // opening quote
        let src = self.src;
        let mut parts: Vec<StrPart<'s>> = Vec::new();
        let mut run = LitRun::at(self.pos);
        let last = loop {
            match self.peek() {
                None => {
                    self.error(start, "unterminated string literal".to_owned());
                    break run.end(src, self.pos);
                }
                Some(b'"') => {
                    let last = run.end(src, self.pos);
                    self.bump();
                    break last;
                }
                Some(b'\\') => {
                    let text = run.decoding(src, self.pos);
                    self.bump();
                    // the escaped character may be multi-byte; consume it
                    // whole so the cursor never lands mid-codepoint
                    let Some(escaped) = self.bump_char() else {
                        self.error(start, "unterminated string literal".to_owned());
                        break run.end(src, self.pos);
                    };
                    match escaped {
                        'n' => text.push('\n'),
                        't' => text.push('\t'),
                        'r' => text.push('\r'),
                        '\\' => text.push('\\'),
                        '"' => text.push('"'),
                        '$' => text.push('$'),
                        other => {
                            let p = self.here();
                            self.error(p, format!("unknown escape '\\{other}'"));
                        }
                    }
                }
                // HCL escape for a literal `${`: `$${`
                Some(b'$')
                    if self.peek2() == Some(b'$')
                        && self.bytes.get(self.pos + 2) == Some(&b'{') =>
                {
                    run.decoding(src, self.pos).push_str("${");
                    self.bump();
                    self.bump();
                    self.bump();
                }
                Some(b'$') if self.peek2() == Some(b'{') => {
                    let lit = run.end(src, self.pos);
                    if !lit.is_empty() {
                        parts.push(StrPart::Lit(lit));
                    }
                    self.bump(); // $
                    self.bump(); // {
                    parts.push(self.lex_interpolation(start));
                    run = LitRun::at(self.pos);
                }
                Some(_) => {
                    if let (Some(ch), Some(text)) = (self.bump_char(), run.decoded.as_mut()) {
                        text.push(ch);
                    }
                }
            }
        };
        if parts.is_empty() {
            return TokenKind::Str(StrLit::Plain(last));
        }
        if !last.is_empty() {
            parts.push(StrPart::Lit(last));
        }
        TokenKind::Str(StrLit::Template(parts))
    }

    /// The `…}` of an interpolation whose `${` is consumed, in the string
    /// that opened at `start`.
    fn lex_interpolation(&mut self, start: SourcePos) -> StrPart<'s> {
        let interp_start = self.here();
        let src_start = self.pos;
        let mut depth = 1usize;
        let mut in_str = false;
        loop {
            match self.peek() {
                None => {
                    self.error(start, "unterminated interpolation".to_owned());
                    break;
                }
                Some(b'"') => {
                    in_str = !in_str;
                    self.bump();
                }
                Some(b'\\') if in_str => {
                    self.bump();
                    self.bump();
                }
                Some(b'{') if !in_str => {
                    depth += 1;
                    self.bump();
                }
                Some(b'}') if !in_str => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    self.bump();
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
        let inner = &self.src[src_start..self.pos];
        let span = Span::new(interp_start, self.here());
        self.bump(); // closing }
        StrPart::Interp(inner, span)
    }

    fn lex_operator(&mut self, start: SourcePos) -> Option<TokenKind<'s>> {
        let b = self.bump()?;
        let kind = match b {
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b',' => TokenKind::Comma,
            b':' => TokenKind::Colon,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'?' => TokenKind::Question,
            b'.' => {
                if self.peek() == Some(b'.') && self.peek2() == Some(b'.') {
                    self.bump();
                    self.bump();
                    TokenKind::Ellipsis
                } else {
                    TokenKind::Dot
                }
            }
            b'=' => match self.peek() {
                Some(b'=') => {
                    self.bump();
                    TokenKind::Eq
                }
                Some(b'>') => {
                    self.bump();
                    TokenKind::Arrow
                }
                _ => TokenKind::Assign,
            },
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::NotEq
                } else {
                    TokenKind::Bang
                }
            }
            b'<' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::LtEq
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::GtEq
                } else {
                    TokenKind::Gt
                }
            }
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    TokenKind::AndAnd
                } else {
                    self.error(start, "expected '&&'".to_owned());
                    return None;
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    TokenKind::OrOr
                } else {
                    self.error(start, "expected '||'".to_owned());
                    return None;
                }
            }
            other => {
                self.error(start, format!("unexpected character {:?}", other as char));
                return None;
            }
        };
        Some(kind)
    }
}

/// A run of literal text inside a string: a slice of the source from
/// `start` on, until an escape needs decoding — from then on `decoded`
/// holds the text and grows.
struct LitRun {
    start: usize,
    decoded: Option<String>,
}

impl LitRun {
    fn at(start: usize) -> LitRun {
        LitRun {
            start,
            decoded: None,
        }
    }

    /// The buffer escapes decode into, seeded with the text the run has
    /// borrowed up to `end`.
    fn decoding(&mut self, src: &str, end: usize) -> &mut String {
        let start = self.start;
        self.decoded
            .get_or_insert_with(|| src[start..end].to_owned())
    }

    /// The run's text, the run ending at `end`.
    fn end<'s>(&mut self, src: &'s str, end: usize) -> Cow<'s, str> {
        match self.decoded.take() {
            Some(text) => Cow::Owned(text),
            None => Cow::Borrowed(&src[self.start..end]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `source`, the closing [`TokenKind::Eof`] included,
    /// or what the lexer could not read.
    fn lex<'s>(source: &'s str, filename: &str) -> Result<Vec<Token<'s>>, Diagnostics> {
        let mut lexer = Lexer::new(source, filename);
        let mut tokens = Vec::new();
        loop {
            let token = lexer.next_token();
            let done = token.kind == TokenKind::Eof;
            tokens.push(token);
            if done {
                return lexer.diags.into_result(tokens);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src, "test.tf")
            .expect("lex ok")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn idents_and_punct() {
        let k = kinds(r#"resource "aws_vm" "v" { size = 4 }"#);
        assert_eq!(k[0], TokenKind::Ident("resource"));
        assert!(matches!(&k[1], TokenKind::Str(_)));
        assert!(matches!(&k[2], TokenKind::Str(_)));
        assert_eq!(k[3], TokenKind::LBrace);
        assert_eq!(k[4], TokenKind::Ident("size"));
        assert_eq!(k[5], TokenKind::Assign);
        assert_eq!(k[6], TokenKind::Number(4.0));
        assert_eq!(k[7], TokenKind::RBrace);
        assert_eq!(k[8], TokenKind::Eof);
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("# line\n// line2\n/* block\nmultiline */ 42");
        assert_eq!(k, vec![TokenKind::Number(42.0), TokenKind::Eof]);
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("3")[0], TokenKind::Number(3.0));
        assert_eq!(kinds("3.25")[0], TokenKind::Number(3.25));
        // unary minus at value position lexes as negative literal
        assert_eq!(kinds("-7")[0], TokenKind::Number(-7.0));
        // HCL identifiers may contain dashes, so `x-7` is one identifier…
        let k = kinds("x-7");
        assert_eq!(k[0], TokenKind::Ident("x-7"));
        // …and subtraction needs whitespace, like idiomatic HCL
        let k = kinds("x - 7");
        assert!(matches!(&k[0], TokenKind::Ident(_)));
        assert_eq!(k[1], TokenKind::Minus);
        assert_eq!(k[2], TokenKind::Number(7.0));
    }

    #[test]
    fn string_with_escapes() {
        let k = kinds(r#""a\n\"b\"$${c}""#);
        let decoded = "a\n\"b\"${c}".to_owned();
        assert_eq!(k[0], TokenKind::Str(StrLit::Plain(Cow::Owned(decoded))));
    }

    /// The parts of the template string that is `src`.
    fn template(src: &str) -> Vec<StrPart<'_>> {
        match kinds(src).swap_remove(0) {
            TokenKind::Str(StrLit::Template(parts)) => parts,
            other => panic!("expected a template string, got {other:?}"),
        }
    }

    #[test]
    fn string_interpolation_parts() {
        let parts = template(r#""vm-${var.name}-${count.index}""#);
        assert_eq!(parts.len(), 4);
        assert!(matches!(&parts[0], StrPart::Lit(s) if s == "vm-"));
        assert!(matches!(parts[1], StrPart::Interp("var.name", _)));
        assert!(matches!(&parts[2], StrPart::Lit(s) if s == "-"));
        assert!(matches!(parts[3], StrPart::Interp("count.index", _)));
    }

    #[test]
    fn interpolation_with_nested_braces_and_strings() {
        let parts = template(r#""${merge({a = "}"}, m)}""#);
        assert_eq!(parts.len(), 1);
        assert!(matches!(
            parts[0],
            StrPart::Interp(r#"merge({a = "}"}, m)"#, _)
        ));
    }

    #[test]
    fn text_that_needs_no_decoding_borrows_the_source() {
        let src = r#"name "plain" "a${b}c" "esc\t""#;
        let k = kinds(src);
        assert!(matches!(
            k[1],
            TokenKind::Str(StrLit::Plain(Cow::Borrowed("plain")))
        ));
        let TokenKind::Str(StrLit::Template(parts)) = &k[2] else {
            panic!("expected a template string, got {:?}", k[2]);
        };
        assert!(matches!(parts[0], StrPart::Lit(Cow::Borrowed("a"))));
        assert!(matches!(parts[2], StrPart::Lit(Cow::Borrowed("c"))));
        assert!(matches!(&k[3], TokenKind::Str(StrLit::Plain(Cow::Owned(s))) if s == "esc\t"));
    }

    #[test]
    fn multichar_operators() {
        assert_eq!(
            kinds("== != <= >= && || => ..."),
            vec![
                TokenKind::Eq,
                TokenKind::NotEq,
                TokenKind::LtEq,
                TokenKind::GtEq,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Arrow,
                TokenKind::Ellipsis,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("a\n  b", "t").unwrap();
        assert_eq!(toks[0].span.start.line, 1);
        assert_eq!(toks[1].span.start.line, 2);
        assert_eq!(toks[1].span.start.col, 3);
    }

    #[test]
    fn errors_reported() {
        assert!(lex("@", "t").is_err());
        assert!(lex("\"unterminated", "t").is_err());
        assert!(lex("/* never closed", "t").is_err());
        assert!(lex("a & b", "t").is_err());
    }

    #[test]
    fn empty_string_literal() {
        assert_eq!(kinds(r#""""#)[0], TokenKind::Str(StrLit::default()));
    }

    #[test]
    fn unicode_in_strings() {
        let k = kinds(r#""héllo-wörld""#);
        let text = Cow::Borrowed("héllo-wörld");
        assert_eq!(k[0], TokenKind::Str(StrLit::Plain(text)));
    }
}
