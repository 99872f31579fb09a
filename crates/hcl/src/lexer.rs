//! Hand-written lexer for the HCL subset, and the only place that knows
//! its lexical syntax.
//!
//! Handles `#`, `//` and `/* */` comments, decimal numbers, identifiers,
//! operators, and double-quoted strings with escape sequences and `${…}`
//! template interpolation (with nested-brace tracking so `"${merge({a = 1},
//! var.m)}"` lexes correctly). A quoted string ends at its line, as
//! Terraform's do: `\n` writes a newline, and only an interpolation may
//! span lines.
//!
//! The lexer is pulled one token at a time (`Lexer::next_token`) and its
//! tokens borrow the source: no token vector is built and no identifier is
//! copied until the parser puts it in the tree. It starts at an origin
//! [`SourcePos`], so text cut out of a file — an interpolation, one
//! top-level chunk — is lexed in the file's coordinates and no position is
//! rewritten afterwards.
//!
//! Where a string ends (`closer`), where a comment ends (`comment_end`)
//! and what a block's head names (`resource_head`) are decided here and
//! nowhere else: the chunk scanner of [`crate::fingerprint`] counts braces
//! and newlines and asks this module for the rest, so chunk boundaries are
//! block boundaries.

use std::borrow::Cow;

use cloudless_types::{SourcePos, Span};

use crate::diag::{Diagnostic, Diagnostics};
use crate::token::{StrLit, StrPart, Token, TokenKind};

/// Deepest nesting a program may have: of blocks and expressions in the
/// parser, of strings inside interpolations inside strings here. The
/// parser, every pass after it and `Drop` all recurse over the tree, so
/// this one cap keeps hostile input (200 kB of `[`, 900 kB of `"${`) a
/// diagnostic where it would overflow the stack and abort the process. A
/// level costs about 10 kB of stack in an unoptimized build, so 64 of them
/// fit a 2 MB thread several times over; shipped programs nest under 10
/// deep.
pub(crate) const MAX_DEPTH: usize = 64;

/// One past what closes the construct `b[i]` is the first byte inside of: the
/// closing quote of a string (`in_str`), else the closing brace of an
/// interpolation. Strings hold interpolations (`${`, unless escaped as
/// `$${`), interpolations hold braces, comments and strings: the state is
/// whether `i` is in a string plus the brace depth of every interpolation
/// open around it, kept in a loop — nothing recurses, however the input nests.
/// A quoted string ends at its line: a raw newline in its literal text (not
/// in an interpolation, and not escaped — `\n` writes one) ends it
/// unterminated, so the string `b[i]` is in ends before that newline, and
/// one inside an interpolation hands the newline back to the interpolation.
/// `Err` says why nothing closes it: the bytes run out, or it nests
/// interpolations deeper than [`MAX_DEPTH`].
fn closer(b: &[u8], mut i: usize, mut in_str: bool) -> Result<usize, String> {
    let from_interp = !in_str;
    // the innermost open interpolation's brace depth (0: none is open), and
    // those of the ones around it
    let mut depth = usize::from(from_interp);
    let mut outer: Vec<usize> = Vec::new();
    while let Some(&c) = b.get(i) {
        i += 1;
        match c {
            b'\\' if in_str && b.get(i) != Some(&b'\n') => i += 1,
            b'\n' if in_str && depth == 0 => return Ok(i - 1),
            b'\n' if in_str => in_str = false,
            b'$' if in_str && b[i..].starts_with(b"${") => i += 2,
            b'$' if in_str && b.get(i) == Some(&b'{') => {
                if outer.len() >= MAX_DEPTH {
                    let why = format!("interpolations nested deeper than {MAX_DEPTH} levels");
                    return Err(why);
                }
                if depth > 0 {
                    outer.push(depth);
                }
                (i, depth, in_str) = (i + 1, 1, false);
            }
            b'"' if in_str && depth == 0 => return Ok(i),
            b'"' => in_str = !in_str,
            _ if in_str => {}
            b'#' | b'/' => i = comment_end(b, i - 1).map_or(i, |(end, _)| end),
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    match outer.pop() {
                        None if from_interp => return Ok(i),
                        around => depth = around.unwrap_or(0),
                    }
                    in_str = true;
                }
            }
            _ => {}
        }
    }
    Err("unterminated interpolation".to_owned())
}

/// One past the closing quote of the string that opens at `b[open]`, its
/// interpolations and the strings inside them skipped whole; the newline
/// that ends it on its line when no quote does, and the end of the bytes
/// for a string nothing ends.
pub(crate) fn string_end(b: &[u8], open: usize) -> usize {
    closer(b, open + 1, true).unwrap_or(b.len())
}

/// The end of the comment that opens at `b[i]`, if one does, and whether it
/// is closed: a `#` or `//` comment ends before its newline, a `/* */`
/// after its `*/` — or, unclosed, where the bytes run out.
pub(crate) fn comment_end(b: &[u8], i: usize) -> Option<(usize, bool)> {
    let rest = &b[i..];
    if rest.starts_with(b"#") || rest.starts_with(b"//") {
        let len = rest.iter().position(|&c| c == b'\n');
        Some((i + len.unwrap_or(rest.len()), true))
    } else if rest.starts_with(b"/*") {
        let close = rest[2..].windows(2).position(|w| w == b"*/");
        Some(close.map_or((b.len(), false), |at| (i + at + 4, true)))
    } else {
        None
    }
}

/// What the lexer cannot read of `src`, text that sits at `origin` in
/// `filename`: the diagnostics a parse of it is refused with whatever else
/// is wrong. A top-level chunk is lexed as the whole file lexes it, so the
/// file's are its chunks', in order.
pub fn lex_errors(src: &str, filename: &str, origin: SourcePos) -> Diagnostics {
    let mut lexer = Lexer::new(src, filename, origin);
    while lexer.next_token().kind != TokenKind::Eof {}
    lexer.diags
}

/// The `(type, name)` of the `resource "<type>" "<name>"` that `src` opens
/// with, leading trivia aside: the labels the parser gives the block.
pub(crate) fn resource_head(src: &str) -> Option<(String, String)> {
    let mut lexer = Lexer::new(src, "", SourcePos::start());
    if lexer.next_token().kind != TokenKind::Ident("resource") {
        return None;
    }
    let mut label = || match lexer.next_token().kind {
        TokenKind::Ident(name) => Some(name.to_owned()),
        TokenKind::Str(StrLit::Plain(text)) => Some(text.into_owned()),
        _ => None,
    };
    Some((label()?, label()?))
}

/// A cursor over source text that hands out one token per call.
pub(crate) struct Lexer<'s, 'f> {
    src: &'s str,
    bytes: &'s [u8],
    filename: &'f str,
    /// Where `src` starts in its file, in bytes.
    base: u32,
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
    /// A lexer over `src`, text that sits at `origin` in `filename`.
    pub(crate) fn new(src: &'s str, filename: &'f str, origin: SourcePos) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            filename,
            base: origin.offset,
            pos: 0,
            line: origin.line,
            col: origin.col,
            after_value: false,
            diags: Diagnostics::new(),
        }
    }

    fn here(&self) -> SourcePos {
        SourcePos::new(self.line, self.col, self.base + self.pos as u32)
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

    /// Step to byte `end` of the source, a `char` boundary.
    fn advance_to(&mut self, end: usize) {
        while self.pos < end {
            self.bump();
        }
    }

    fn error(&mut self, start: SourcePos, msg: String) {
        let span = Span::new(start, self.here());
        self.diags
            .push(Diagnostic::error("HCL001", self.filename, span, msg));
    }

    /// The string that opened at `start` ends here, at the end of its line
    /// or of the source, with no closing quote.
    fn unterminated(&mut self, start: SourcePos) {
        let span = Span::new(start, self.here());
        let msg = "unterminated string literal";
        let diag = Diagnostic::error("HCL001", self.filename, span, msg).with_suggestion(
            "a quoted string ends at its line: close it with `\"` there, and write `\\n` for a newline",
        );
        self.diags.push(diag);
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
                b'#' | b'/' if self.skip_comment(start) => None,
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

    /// Step over the comment at the cursor, if one opens there.
    fn skip_comment(&mut self, start: SourcePos) -> bool {
        let Some((end, closed)) = comment_end(self.bytes, self.pos) else {
            return false;
        };
        self.advance_to(end);
        if !closed {
            self.error(start, "unterminated block comment".to_owned());
        }
        true
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
                // a string ends at its line: the newline is not its own
                None | Some(b'\n') => {
                    self.unterminated(start);
                    break run.end(src, self.pos);
                }
                Some(b'"') => {
                    let last = run.end(src, self.pos);
                    self.bump();
                    break last;
                }
                // a backslash escapes no newline: the string ends there too
                Some(b'\\') if self.peek2().is_some_and(|c| c != b'\n') => {
                    let text = run.decoding(src, self.pos);
                    self.bump();
                    // the escaped character may be multi-byte; consume it
                    // whole so the cursor never lands mid-codepoint
                    let Some(escaped) = self.bump_char() else {
                        self.unterminated(start);
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
                    parts.extend(self.interpolation(start));
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
    /// that opened at `start`; nothing (reported, and the rest of the source
    /// consumed) when it does not close.
    fn interpolation(&mut self, start: SourcePos) -> Option<StrPart<'s>> {
        let (from, open, src) = (self.here(), self.pos, self.src);
        match closer(self.bytes, open, false) {
            Ok(end) => {
                self.advance_to(end - 1);
                let span = Span::new(from, self.here());
                self.bump(); // closing }
                Some(StrPart::Interp(&src[open..end - 1], span))
            }
            Err(why) => {
                self.advance_to(self.bytes.len());
                self.error(start, why);
                None
            }
        }
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
        let mut lexer = Lexer::new(source, filename, SourcePos::start());
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
    fn strings_nest_in_interpolations_in_strings() {
        // the inner string's `${"}"}` holds a brace and two quotes
        let parts = template(r#""${ "a${"}"}" }!""#);
        assert!(matches!(parts[0], StrPart::Interp(r#" "a${"}"}" "#, _)));
        assert!(matches!(&parts[1], StrPart::Lit(s) if s == "!"));
        // a comment in an interpolation hides what it holds, as it does
        // from the lexer that reads the interpolation
        let parts = template(r#""${ a /* "} */ }""#);
        assert!(matches!(parts[0], StrPart::Interp(r#" a /* "} */ "#, _)));
        // an escaped `$${` opens nothing
        assert_eq!(string_end(br#""$${" }"#, 0), 5);
        // and nesting past the cap is refused, not followed
        let deep = r#""${"#.repeat(MAX_DEPTH + 2);
        let err = lex(&deep, "t").unwrap_err();
        assert!(err.items[0].message.contains("nested deeper"), "{err}");
        assert_eq!(string_end(deep.as_bytes(), 0), deep.len());
    }

    #[test]
    fn positions_start_at_the_origin() {
        let mut lexer = Lexer::new("a\n  b", "t", SourcePos::new(7, 5, 40));
        assert_eq!(lexer.next_token().span.start, SourcePos::new(7, 5, 40));
        assert_eq!(lexer.next_token().span.start, SourcePos::new(8, 3, 44));
    }

    #[test]
    fn the_head_of_a_block_is_what_the_parser_labels_it() {
        let head = |src| resource_head(src);
        let named = Some(("a_b".to_owned(), "c".to_owned()));
        assert_eq!(head("# x\n/* y */ resource \"a_b\" \"c\" {"), named);
        assert_eq!(head("resource a_b c {"), named);
        assert_eq!(head("resource \"a_${b}\" \"c\" {"), None);
        assert_eq!(head("variable \"a_b\" {"), None);
        assert_eq!(head("/* resource \"a_b\" \"c\" {"), None);
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
    fn a_quoted_string_ends_at_its_line() {
        // the string is refused on its own line, and the next line lexes
        let mut lexer = Lexer::new("a = \"abc\nb = 1\n", "t", SourcePos::start());
        let kinds: Vec<_> = std::iter::from_fn(|| {
            let token = lexer.next_token();
            (token.kind != TokenKind::Eof).then_some(token.kind)
        })
        .collect();
        let abc = TokenKind::Str(StrLit::Plain(Cow::Borrowed("abc")));
        let rest = [
            TokenKind::Ident("b"),
            TokenKind::Assign,
            TokenKind::Number(1.0),
        ];
        assert_eq!(kinds[2..], [[abc].as_slice(), &rest].concat());
        let diag = &lexer.diags.items[..];
        assert_eq!(diag.len(), 1, "{}", lexer.diags);
        assert_eq!(diag[0].message, "unterminated string literal");
        assert!(diag[0]
            .suggestion
            .as_ref()
            .is_some_and(|s| s.contains("ends at its line")));
        let span = diag[0].span;
        assert_eq!((span.start.line, span.start.col), (1, 5));
        assert_eq!((span.end.line, span.end.offset), (1, 8));
        // a backslash does not carry a string over its newline
        assert!(lex("\"a\\\nb\"", "t").is_err());
        assert_eq!(string_end(b"\"a\\\nb\"", 0), 3);
        assert_eq!(string_end(b"x = \"abc\n\"", 4), 8);
    }

    #[test]
    fn newlines_inside_an_interpolation_and_escaped_ones_are_legal() {
        let parts = template("\"${a +\n b}\"");
        assert!(matches!(parts[..], [StrPart::Interp("a +\n b", _)]));
        assert_eq!(string_end(b"\"${a +\n b}\" x", 0), 11);
        let k = kinds(r#""a\nb""#);
        assert_eq!(
            k[0],
            TokenKind::Str(StrLit::Plain(Cow::Owned("a\nb".to_owned())))
        );
        // a string inside an interpolation ends at its line too, and hands
        // the newline back to the interpolation around it
        let src = "\"${ f(\"x\n) }\" y";
        assert_eq!(string_end(src.as_bytes(), 0), src.len() - 2);
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
