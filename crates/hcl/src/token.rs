//! Token definitions for the HCL lexer.
//!
//! Tokens borrow the source they were read from: an identifier is a slice
//! of it, and so is string text that needed no decoding. The parser copies
//! a name out exactly once, into the AST node that owns it.

use std::borrow::Cow;
use std::fmt;

use cloudless_types::Span;

/// One lexed token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'s> {
    pub kind: TokenKind<'s>,
    pub span: Span,
}

/// Every token kind the parser understands.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'s> {
    /// Bare identifier (`resource`, `aws_virtual_machine`, `var`…).
    /// `true` / `false` / `null` are lexed as identifiers and resolved by
    /// the parser.
    Ident(&'s str),
    /// Numeric literal.
    Number(f64),
    /// String literal (interpolation sources are re-lexed by the parser).
    Str(StrLit<'s>),
    // Punctuation
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    Dot,
    Colon,
    Assign, // =
    Eq,     // ==
    NotEq,  // !=
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Bang,
    AndAnd,
    OrOr,
    Question,
    Arrow,    // => (for_each object iteration, reserved)
    Ellipsis, // ... (splat-ish, reserved)

    /// End of input.
    Eof,
}

/// A string literal: its text when it holds no `${…}`, else its parts.
/// Text is borrowed from the source unless an escape had to be decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum StrLit<'s> {
    /// Plain text (escapes already decoded), possibly empty.
    Plain(Cow<'s, str>),
    /// Literal text and interpolations, in source order; at least one
    /// part is an interpolation and no literal part is empty.
    Template(Vec<StrPart<'s>>),
}

impl Default for StrLit<'_> {
    fn default() -> Self {
        StrLit::Plain(Cow::Borrowed(""))
    }
}

/// A piece of an interpolated string literal.
#[derive(Debug, Clone, PartialEq)]
pub enum StrPart<'s> {
    /// Literal text (escapes already decoded).
    Lit(Cow<'s, str>),
    /// The raw source of a `${…}` interpolation, with the span of the
    /// expression *inside* the braces (for nested diagnostics).
    Interp(&'s str, Span),
}

impl TokenKind<'_> {
    /// Short human name used in "expected X, found Y" parse errors.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier {s:?}"),
            TokenKind::Number(n) => format!("number {n}"),
            TokenKind::Str(_) => "string literal".to_owned(),
            TokenKind::LBrace => "'{'".to_owned(),
            TokenKind::RBrace => "'}'".to_owned(),
            TokenKind::LBracket => "'['".to_owned(),
            TokenKind::RBracket => "']'".to_owned(),
            TokenKind::LParen => "'('".to_owned(),
            TokenKind::RParen => "')'".to_owned(),
            TokenKind::Comma => "','".to_owned(),
            TokenKind::Dot => "'.'".to_owned(),
            TokenKind::Colon => "':'".to_owned(),
            TokenKind::Assign => "'='".to_owned(),
            TokenKind::Eq => "'=='".to_owned(),
            TokenKind::NotEq => "'!='".to_owned(),
            TokenKind::Lt => "'<'".to_owned(),
            TokenKind::LtEq => "'<='".to_owned(),
            TokenKind::Gt => "'>'".to_owned(),
            TokenKind::GtEq => "'>='".to_owned(),
            TokenKind::Plus => "'+'".to_owned(),
            TokenKind::Minus => "'-'".to_owned(),
            TokenKind::Star => "'*'".to_owned(),
            TokenKind::Slash => "'/'".to_owned(),
            TokenKind::Percent => "'%'".to_owned(),
            TokenKind::Bang => "'!'".to_owned(),
            TokenKind::AndAnd => "'&&'".to_owned(),
            TokenKind::OrOr => "'||'".to_owned(),
            TokenKind::Question => "'?'".to_owned(),
            TokenKind::Arrow => "'=>'".to_owned(),
            TokenKind::Ellipsis => "'...'".to_owned(),
            TokenKind::Eof => "end of file".to_owned(),
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}
