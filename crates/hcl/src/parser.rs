//! Recursive-descent parser for the HCL subset.
//!
//! Grammar (EBNF-ish):
//!
//! ```text
//! file      := block*
//! block     := IDENT label* '{' body '}'        label := STRING | IDENT
//! body      := (attribute | block)*
//! attribute := IDENT '=' expr
//! expr      := or ('?' expr ':' expr)?
//! or        := and ('||' and)*
//! and       := eq ('&&' eq)*
//! eq        := cmp (('=='|'!=') cmp)*
//! cmp       := term (('<'|'<='|'>'|'>=') term)*
//! term      := factor (('+'|'-') factor)*
//! factor    := unary (('*'|'/'|'%') unary)*
//! unary     := ('!'|'-') unary | postfix
//! postfix   := primary ('[' expr ']' | '.' IDENT)*
//! primary   := NUMBER | STRING | 'true' | 'false' | 'null'
//!            | IDENT '(' args ')'              (function call)
//!            | IDENT ('.' IDENT)*              (reference)
//!            | '[' (expr (',' expr)* ','?)? ']'
//!            | '{' (mapkey ('='|':') expr ','?)* '}'
//!            | '(' expr ')'
//! ```
//!
//! String interpolations (`"${…}"`) are parsed by recursively invoking the
//! same parser on the interpolation source *at its position in the file*:
//! a parser starts at an origin, so every span it produces is in file
//! coordinates and diagnostics point at real lines.

use cloudless_types::{SourcePos, Span};

use crate::ast::{
    Attribute, BinOp, Block, BlockBody, Expr, File, MapKey, Reference, TemplatePart, UnaryOp,
};
use crate::diag::{Diagnostic, Diagnostics};
use crate::lexer::{Lexer, MAX_DEPTH};
use crate::token::{StrLit, StrPart, Token, TokenKind};

/// Parse a full file.
pub fn parse(source: &str, filename: &str) -> Result<File, Diagnostics> {
    parse_at(source, filename, SourcePos::start())
}

/// [`parse`] for whole top-level blocks cut out of `filename` at `origin`:
/// every span of the result is a position in the file, not in `source`.
pub fn parse_at(source: &str, filename: &str, origin: SourcePos) -> Result<File, Diagnostics> {
    let mut p = Parser::new(source, filename, origin, 0);
    let file = p.file();
    p.finish(file)
}

/// Parse a standalone expression (used by tests).
pub fn parse_expr(source: &str, filename: &str) -> Result<Expr, Diagnostics> {
    expr_at(source, filename, SourcePos::start(), 0)
}

/// [`parse_expr`] for an expression that sits at `origin` in its file,
/// already `depth` levels into a program.
fn expr_at(
    source: &str,
    filename: &str,
    origin: SourcePos,
    depth: usize,
) -> Result<Expr, Diagnostics> {
    let mut p = Parser::new(source, filename, origin, depth);
    let e = p.expr();
    if !p.at(&TokenKind::Eof) {
        let span = p.peek().span;
        let msg = format!("unexpected {} after expression", p.peek_kind());
        p.err(span, msg);
    }
    p.finish(e)
}

/// The parser pulls tokens from the lexer as it goes — the one under the
/// cursor, and the one after it when a decision needs two — and *takes*
/// what it consumes: a token's text is copied once, into the node that
/// owns it.
struct Parser<'s> {
    lexer: Lexer<'s, 's>,
    /// The token under the cursor.
    cur: Token<'s>,
    /// The token after it, once something has looked that far.
    ahead: Option<Token<'s>>,
    filename: &'s str,
    diags: Diagnostics,
    /// Levels of the tree above the node being parsed.
    depth: usize,
    /// Set once [`MAX_DEPTH`] is hit: the rest of the input is not read.
    halted: bool,
}

/// Binary operators with their binding strength (higher binds tighter);
/// all are left-associative.
const BINARY_OPS: [(TokenKind<'static>, BinOp, u8); 13] = [
    (TokenKind::OrOr, BinOp::Or, 0),
    (TokenKind::AndAnd, BinOp::And, 1),
    (TokenKind::Eq, BinOp::Eq, 2),
    (TokenKind::NotEq, BinOp::NotEq, 2),
    (TokenKind::LtEq, BinOp::LtEq, 3),
    (TokenKind::GtEq, BinOp::GtEq, 3),
    (TokenKind::Lt, BinOp::Lt, 3),
    (TokenKind::Gt, BinOp::Gt, 3),
    (TokenKind::Plus, BinOp::Add, 4),
    (TokenKind::Minus, BinOp::Sub, 4),
    (TokenKind::Star, BinOp::Mul, 5),
    (TokenKind::Slash, BinOp::Div, 5),
    (TokenKind::Percent, BinOp::Mod, 5),
];

impl<'s> Parser<'s> {
    fn new(source: &'s str, filename: &'s str, origin: SourcePos, depth: usize) -> Self {
        let mut lexer = Lexer::new(source, filename, origin);
        let cur = lexer.next_token();
        Parser {
            lexer,
            cur,
            ahead: None,
            filename,
            diags: Diagnostics::new(),
            depth,
            halted: false,
        }
    }

    /// What parsing amounts to. A source the lexer could not read in full
    /// is refused with the lexer's diagnostics alone: what the parser made
    /// of the tokens around the damage is not reported.
    fn finish<T>(mut self, parsed: T) -> Result<T, Diagnostics> {
        self.skip_to_eof();
        if !self.lexer.diags.is_empty() {
            return Err(self.lexer.diags);
        }
        self.diags.into_result(parsed)
    }

    /// Put the cursor on the end of the file, reading what is left for
    /// the lexer's diagnostics only.
    fn skip_to_eof(&mut self) {
        while !self.at(&TokenKind::Eof) {
            self.bump();
        }
    }

    /// Step one level down the tree, or refuse to: past [`MAX_DEPTH`] the
    /// program gets one diagnostic and the parser reads nothing further
    /// (what unwinds sees the end of the file, and reports none of it).
    /// The caller restores `depth` when the node it is building is done.
    fn descend(&mut self) -> bool {
        if self.depth >= MAX_DEPTH && !self.halted {
            let span = self.peek().span;
            self.err(span, format!("nesting deeper than {MAX_DEPTH} levels"));
            self.halted = true;
            self.skip_to_eof();
        }
        self.depth += 1;
        !self.halted
    }

    fn peek(&self) -> &Token<'s> {
        &self.cur
    }

    fn peek_kind(&self) -> &TokenKind<'s> {
        &self.cur.kind
    }

    /// The token after the one under the cursor.
    fn peek_ahead(&mut self) -> &Token<'s> {
        let lexer = &mut self.lexer;
        self.ahead.get_or_insert_with(|| lexer.next_token())
    }

    fn at(&self, k: &TokenKind<'_>) -> bool {
        self.peek_kind() == k
    }

    /// Whether the identifier `word` is under the cursor.
    fn at_word(&self, word: &str) -> bool {
        matches!(self.peek_kind(), TokenKind::Ident(s) if *s == word)
    }

    /// Consume the token under the cursor and hand it over. The end of the
    /// file is never stepped past.
    fn bump(&mut self) -> Token<'s> {
        let next = match self.ahead.take() {
            Some(token) => token,
            None => self.lexer.next_token(),
        };
        std::mem::replace(&mut self.cur, next)
    }

    fn eat(&mut self, k: &TokenKind<'_>) -> bool {
        if self.at(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consume the identifier under the cursor, if that is what is there.
    fn take_ident(&mut self) -> Option<(&'s str, Span)> {
        match self.cur.kind {
            TokenKind::Ident(name) => Some((name, self.bump().span)),
            _ => None,
        }
    }

    /// Consume the string literal under the cursor, if that is what is
    /// there.
    fn take_str(&mut self) -> Option<(StrLit<'s>, Span)> {
        match &mut self.cur.kind {
            TokenKind::Str(lit) => {
                let lit = std::mem::take(lit);
                Some((lit, self.bump().span))
            }
            _ => None,
        }
    }

    /// Consume a `k`; its span, or — reported — that of what is there.
    fn expect(&mut self, k: TokenKind<'_>) -> Span {
        if self.at(&k) {
            self.bump().span
        } else {
            let span = self.peek().span;
            let msg = format!("expected {}, found {}", k.describe(), self.peek_kind());
            self.err(span, msg);
            span
        }
    }

    /// Report that `what` was expected where the cursor is; the span.
    fn err_expected(&mut self, what: &str) -> Span {
        let span = self.peek().span;
        let msg = format!("expected {what}, found {}", self.peek_kind());
        self.err(span, msg);
        span
    }

    fn err(&mut self, span: Span, msg: String) {
        self.err_code("HCL002", span, msg);
    }

    fn err_code(&mut self, code: &str, span: Span, msg: String) {
        if self.halted {
            return;
        }
        self.diags
            .push(Diagnostic::error(code, self.filename, span, msg));
    }

    /// `HCL046` at each key a map constructor sets again, naming where it
    /// was first set (`a` and `"a"` are one key; `spans` holds each entry's
    /// key, `None` for one already refused). One value would silently win.
    fn repeated_keys(&mut self, entries: &[(MapKey, Expr)], spans: &[Option<Span>]) {
        if entries.len() < 2 {
            return;
        }
        let mut first = std::collections::BTreeMap::new();
        let mut repeats = Vec::new();
        for ((key, _), span) in entries.iter().zip(spans) {
            let Some(span) = *span else { continue };
            if let Some(&at) = first.get(key.as_str()) {
                repeats.push((key.as_str(), span, at));
            } else {
                first.insert(key.as_str(), span);
            }
        }
        for (key, span, at) in repeats {
            let fname = self.filename;
            let msg = format!(
                "key {key:?} is set twice; it was first set at {fname}:{}",
                at.start
            );
            self.err_code("HCL046", span, msg);
        }
    }

    // ----- blocks -----

    fn file(&mut self) -> File {
        let mut blocks = Vec::new();
        while !self.at(&TokenKind::Eof) {
            if let Some(b) = self.block() {
                blocks.push(b);
            } else {
                // error recovery: skip one token and try again
                self.bump();
            }
        }
        File {
            filename: self.filename.to_owned(),
            blocks,
        }
    }

    fn block(&mut self) -> Option<Block> {
        let Some((kind, start)) = self.take_ident() else {
            self.err_expected("block keyword");
            return None;
        };
        Some(self.block_after(kind, start, false))
    }

    /// The labels, body and closing brace of a block whose keyword `kind`
    /// (at `start`) is consumed. A `nested` block's body sits one level
    /// further down the tree.
    fn block_after(&mut self, kind: &str, start: Span, nested: bool) -> Block {
        let mut labels = Vec::new();
        loop {
            if let Some((name, _)) = self.take_ident() {
                labels.push(name.to_owned());
            } else if let Some((lit, span)) = self.take_str() {
                match lit {
                    StrLit::Plain(text) => labels.push(text.into_owned()),
                    StrLit::Template(_) => {
                        self.err(span, "block labels cannot contain interpolations".into())
                    }
                }
            } else {
                break;
            }
        }
        self.expect(TokenKind::LBrace);
        let body = if !nested || self.descend() {
            self.body()
        } else {
            BlockBody::default()
        };
        self.depth -= usize::from(nested);
        let end = self.expect(TokenKind::RBrace);
        Block {
            kind: kind.to_owned(),
            labels,
            body,
            span: start.merge(end),
        }
    }

    fn body(&mut self) -> BlockBody {
        let mut body = BlockBody::default();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let Some((name, name_span)) = self.take_ident() else {
                self.err_expected("attribute or block");
                self.bump();
                continue;
            };
            if self.eat(&TokenKind::Assign) {
                let value = self.expr();
                body.attrs.push(Attribute {
                    span: name_span.merge(value.span()),
                    name: name.to_owned(),
                    value,
                });
            } else {
                body.blocks.push(self.block_after(name, name_span, true));
            }
        }
        body
    }

    // ----- expressions -----

    fn expr(&mut self) -> Expr {
        let entered = self.depth;
        if !self.descend() {
            self.depth = entered;
            return Expr::Null(self.peek().span);
        }
        let cond = self.binary(0);
        let e = if self.eat(&TokenKind::Question) {
            let then = self.expr();
            self.expect(TokenKind::Colon);
            let els = self.expr();
            let span = cond.span().merge(els.span());
            Expr::Cond(Box::new(cond), Box::new(then), Box::new(els), span)
        } else {
            cond
        };
        self.depth = entered;
        e
    }

    /// A chain of operators binding at least as tightly as `min`, folded
    /// to the left (precedence climbing over [`BINARY_OPS`]). Each operator
    /// puts what came before it one level further down the tree.
    fn binary(&mut self, min: u8) -> Expr {
        let entered = self.depth;
        let mut lhs = self.unary();
        while let Some(&(_, op, strength)) = BINARY_OPS.iter().find(|(t, ..)| self.at(t)) {
            if strength < min || !self.descend() {
                break;
            }
            self.bump();
            let rhs = self.binary(strength + 1);
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
        self.depth = entered;
        lhs
    }

    fn unary(&mut self) -> Expr {
        let start = self.peek().span;
        let op = match self.peek_kind() {
            TokenKind::Bang => UnaryOp::Not,
            TokenKind::Minus => UnaryOp::Neg,
            _ => return self.postfix(),
        };
        if !self.descend() {
            self.depth -= 1;
            return Expr::Null(start);
        }
        self.bump();
        let e = self.unary();
        self.depth -= 1;
        let span = start.merge(e.span());
        Expr::Unary(op, Box::new(e), span)
    }

    /// Consume `.name` while the cursor is on a dot an identifier follows,
    /// appending each name to `parts`; the span of the last one.
    fn dotted(&mut self, parts: &mut Vec<String>) -> Option<Span> {
        let mut last = None;
        while self.at(&TokenKind::Dot) {
            let TokenKind::Ident(name) = self.peek_ahead().kind else {
                break;
            };
            self.bump(); // dot
            last = Some(self.bump().span); // ident
            parts.push(name.to_owned());
        }
        last
    }

    fn postfix(&mut self) -> Expr {
        let entered = self.depth;
        let mut e = self.primary();
        // each step puts what came before it one level further down
        while matches!(self.peek_kind(), TokenKind::LBracket | TokenKind::Dot) && self.descend() {
            if self.eat(&TokenKind::LBracket) {
                // splat: base[*].attr1.attr2…
                if self.eat(&TokenKind::Star) {
                    let end = self.expect(TokenKind::RBracket);
                    let mut parts = Vec::new();
                    let last = self.dotted(&mut parts).unwrap_or(end);
                    let span = e.span().merge(end).merge(last);
                    e = Expr::Splat(Box::new(e), parts, span);
                    continue;
                }
                let idx = self.expr();
                let end = self.expect(TokenKind::RBracket);
                let span = e.span().merge(end);
                e = Expr::Index(Box::new(e), Box::new(idx), span);
            } else {
                // `.ident` traversal on an arbitrary base
                self.bump();
                let Some((name, at)) = self.take_ident() else {
                    self.err_expected("attribute name");
                    break;
                };
                let span = e.span().merge(at);
                e = Expr::GetAttr(Box::new(e), name.to_owned(), span);
            }
        }
        self.depth = entered;
        e
    }

    fn primary(&mut self) -> Expr {
        let start = self.peek().span;
        if let Some((lit, span)) = self.take_str() {
            return self.template(lit, span);
        }
        if let Some((word, span)) = self.take_ident() {
            return match word {
                "true" => Expr::Bool(true, span),
                "false" => Expr::Bool(false, span),
                "null" => Expr::Null(span),
                _ if self.at(&TokenKind::LParen) => self.call(word, span),
                _ => self.reference(word, span),
            };
        }
        match *self.peek_kind() {
            TokenKind::Number(n) => {
                self.bump();
                Expr::Num(n, start)
            }
            TokenKind::LBracket => {
                self.bump();
                // list `for` comprehension
                if self.at_word("for") {
                    return self.for_list(start);
                }
                let mut items = Vec::new();
                while !self.at(&TokenKind::RBracket) && !self.at(&TokenKind::Eof) {
                    items.push(self.expr());
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                let end = self.expect(TokenKind::RBracket);
                Expr::List(items, start.merge(end))
            }
            TokenKind::LBrace => {
                self.bump();
                // map `for` comprehension
                if self.at_word("for") {
                    return self.for_map(start);
                }
                let (mut entries, mut spans) = (Vec::new(), Vec::new());
                while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
                    let (key, span) = if let Some((name, span)) = self.take_ident() {
                        (MapKey::Ident(name.to_owned()), Some(span))
                    } else if let Some((lit, span)) = self.take_str() {
                        match lit {
                            StrLit::Plain(text) => (MapKey::Str(text.into_owned()), Some(span)),
                            StrLit::Template(_) => {
                                self.err(span, "map keys cannot contain interpolations".into());
                                (MapKey::Str(String::new()), None)
                            }
                        }
                    } else {
                        self.err_expected("map key");
                        self.bump();
                        continue;
                    };
                    if !self.eat(&TokenKind::Assign) {
                        self.expect(TokenKind::Colon);
                    }
                    let value = self.expr();
                    entries.push((key, value));
                    spans.push(span);
                    // comma separators are optional in map constructors
                    self.eat(&TokenKind::Comma);
                }
                self.repeated_keys(&entries, &spans);
                let end = self.expect(TokenKind::RBrace);
                Expr::Map(entries, start.merge(end))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr();
                let end = self.expect(TokenKind::RParen);
                Expr::Paren(Box::new(inner), start.merge(end))
            }
            _ => {
                self.err_expected("expression");
                self.bump();
                Expr::Null(start)
            }
        }
    }

    /// A loop variable of a `for` header, `_` (reported) when there is none.
    fn loop_var(&mut self) -> String {
        match self.take_ident() {
            Some((name, _)) => name.to_owned(),
            None => {
                self.err_expected("loop variable");
                "_".to_owned()
            }
        }
    }

    /// Shared header of both `for` forms: `for v in` / `for k, v in`.
    /// Returns `(index_var, var, collection)`.
    fn for_header(&mut self) -> (Option<String>, String, Expr) {
        self.bump(); // `for`
        let first = self.loop_var();
        let (index_var, var) = if self.eat(&TokenKind::Comma) {
            (Some(first), self.loop_var())
        } else {
            (None, first)
        };
        if self.at_word("in") {
            self.bump();
        } else {
            self.err_expected("'in'");
        }
        let collection = self.expr();
        self.expect(TokenKind::Colon);
        (index_var, var, collection)
    }

    /// Optional trailing `if cond` of a `for` expression.
    fn for_cond(&mut self) -> Option<Box<Expr>> {
        if self.at_word("if") {
            self.bump();
            Some(Box::new(self.expr()))
        } else {
            None
        }
    }

    /// `[for …]` — the opening bracket is already consumed.
    fn for_list(&mut self, start: Span) -> Expr {
        let (index_var, var, collection) = self.for_header();
        let body = self.expr();
        let cond = self.for_cond();
        let end = self.expect(TokenKind::RBracket);
        Expr::ForList {
            var,
            index_var,
            collection: Box::new(collection),
            body: Box::new(body),
            cond,
            span: start.merge(end),
        }
    }

    /// `{for …}` — the opening brace is already consumed.
    fn for_map(&mut self, start: Span) -> Expr {
        let (index_var, var, collection) = self.for_header();
        let key = self.expr();
        self.expect(TokenKind::Arrow);
        let value = self.expr();
        let cond = self.for_cond();
        let end = self.expect(TokenKind::RBrace);
        Expr::ForMap {
            var,
            index_var,
            collection: Box::new(collection),
            key: Box::new(key),
            value: Box::new(value),
            cond,
            span: start.merge(end),
        }
    }

    /// `name(arg, …)` — function call.
    fn call(&mut self, name: &str, start: Span) -> Expr {
        self.expect(TokenKind::LParen);
        let mut args = Vec::new();
        while !self.at(&TokenKind::RParen) && !self.at(&TokenKind::Eof) {
            args.push(self.expr());
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let end = self.expect(TokenKind::RParen);
        Expr::Call(name.to_owned(), args, start.merge(end))
    }

    /// Greedy dotted reference: `a.b.c`. Stops at the first non-ident after
    /// a dot (so `a.b[0].c` parses as Index/GetAttr postfix on `a.b`).
    fn reference(&mut self, first: &str, start: Span) -> Expr {
        // most references are `type.name.attr` or shorter
        let mut parts = Vec::with_capacity(3);
        parts.push(first.to_owned());
        let last = self.dotted(&mut parts).unwrap_or(start);
        Expr::Ref(Reference { parts }, start.merge(last))
    }

    /// Build a template-string expression, parsing each interpolation
    /// where it sits in the file.
    fn template(&mut self, lit: StrLit<'s>, span: Span) -> Expr {
        let parts = match lit {
            StrLit::Plain(text) => {
                return Expr::Str(vec![TemplatePart::Lit(text.into_owned())], span)
            }
            StrLit::Template(parts) => parts,
        };
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                StrPart::Lit(text) => out.push(TemplatePart::Lit(text.into_owned())),
                StrPart::Interp(src, at) => {
                    match expr_at(src, self.filename, at.start, self.depth) {
                        Ok(e) => out.push(TemplatePart::Interp(e)),
                        Err(ds) => {
                            self.diags.extend(ds);
                            out.push(TemplatePart::Lit(String::new()));
                        }
                    }
                }
            }
        }
        Expr::Str(out, span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure2_shape() {
        let src = r#"
/* Simplified Terraform code snippet */
data "aws_region" "current" {}

variable "vmName" {
  type    = string
  default = "cloudless"
}

resource "aws_network_interface" "n1" {
  name     = "example-nic"
  location = data.aws_region.current.name
}

resource "aws_virtual_machine" "vm1" {
  name    = var.vmName
  nic_ids = [aws_network_interface.n1.id]
}
"#;
        let f = parse(src, "fig2.tf").expect("parse");
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.blocks[0].kind, "data");
        assert_eq!(f.blocks[0].labels, vec!["aws_region", "current"]);
        assert_eq!(f.blocks[1].kind, "variable");
        let vm = &f.blocks[3];
        assert_eq!(vm.labels, vec!["aws_virtual_machine", "vm1"]);
        let nic_ids = vm.body.attr("nic_ids").expect("nic_ids");
        let refs: Vec<String> = nic_ids.value.refs().iter().map(|r| r.dotted()).collect();
        assert_eq!(refs, vec!["aws_network_interface.n1.id"]);
    }

    #[test]
    fn a_repeated_map_key_is_refused_where_it_repeats() {
        let src = "resource \"aws_s3_bucket\" \"b\" {\n  tags = {\n    a = \"1\"\n    \"a\" = \"2\"\n    \
                   b = { x = 1, x = 2 }\n  }\n}\n";
        let err = parse(src, "main.tf").unwrap_err();
        let found: Vec<_> = err
            .iter()
            .map(|d| (d.code.as_str(), d.span.start.line))
            .collect();
        assert_eq!(found, [("HCL046", 5), ("HCL046", 4)], "{err}");
        let text = err.to_string();
        assert!(
            text.contains("\"a\" is set twice; it was first set at main.tf:3:5"),
            "{text}"
        );
        assert!(
            text.contains("\"x\" is set twice; it was first set at main.tf:5:11"),
            "{text}"
        );
        // one key per map: the same key in two maps is no repeat
        let src = "locals {\n  m = { a = 1 }\n  n = { a = 2, b = { a = 3 } }\n}\n";
        assert!(parse(src, "main.tf").is_ok());
    }

    #[test]
    fn precedence() {
        let e = parse_expr("1 + 2 * 3 == 7 && true", "t").unwrap();
        // top is &&
        match e {
            Expr::Binary(BinOp::And, l, _, _) => match *l {
                Expr::Binary(BinOp::Eq, ll, _, _) => match *ll {
                    Expr::Binary(BinOp::Add, _, r, _) => {
                        assert!(matches!(*r, Expr::Binary(BinOp::Mul, _, _, _)));
                    }
                    other => panic!("expected Add, got {other:?}"),
                },
                other => panic!("expected Eq, got {other:?}"),
            },
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn conditional_and_unary() {
        let e = parse_expr("!x ? -1 : 2", "t").unwrap();
        assert!(matches!(e, Expr::Cond(..)));
        let e = parse_expr("-(1 + 2)", "t").unwrap();
        assert!(matches!(e, Expr::Unary(UnaryOp::Neg, ..)));
    }

    #[test]
    fn reference_indexed_then_attr() {
        let e = parse_expr("aws_subnet.s[0].id", "t").unwrap();
        match e {
            Expr::GetAttr(base, attr, _) => {
                assert_eq!(attr, "id");
                match *base {
                    Expr::Index(r, i, _) => {
                        assert!(
                            matches!(*r, Expr::Ref(ref rf, _) if rf.dotted() == "aws_subnet.s")
                        );
                        assert!(matches!(*i, Expr::Num(n, _) if n == 0.0));
                    }
                    other => panic!("expected Index, got {other:?}"),
                }
            }
            other => panic!("expected GetAttr, got {other:?}"),
        }
    }

    #[test]
    fn function_calls() {
        let e = parse_expr(r#"join("-", [var.a, "x"])"#, "t").unwrap();
        match e {
            Expr::Call(name, args, _) => {
                assert_eq!(name, "join");
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn map_constructor_with_and_without_commas() {
        let e = parse_expr(r#"{a = 1, b = 2 c = 3, "d" : 4}"#, "t").unwrap();
        match e {
            Expr::Map(entries, _) => {
                let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, vec!["a", "b", "c", "d"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interpolation_spans_are_file_positions() {
        let src = "resource \"t\" \"n\" {\n  name = \"x-${var.who}\"\n}";
        let f = parse(src, "t").unwrap();
        let attr = f.blocks[0].body.attr("name").unwrap();
        match &attr.value {
            Expr::Str(parts, _) => match &parts[1] {
                TemplatePart::Interp(e) => {
                    // `var.who` sits on line 2 of the file
                    assert_eq!(e.span().start.line, 2);
                    assert!(e.span().start.col > 10);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_blocks() {
        let src = r#"
resource "aws_vm" "v" {
  lifecycle {
    prevent_destroy = true
  }
  tags = { env = "prod" }
}
"#;
        let f = parse(src, "t").unwrap();
        let b = &f.blocks[0];
        assert!(b.body.block("lifecycle").is_some());
        assert!(b.body.attr("tags").is_some());
    }

    #[test]
    fn parse_errors_have_spans() {
        let err = parse("resource \"a\" \"b\" { x = }", "t").unwrap_err();
        assert!(err.has_errors());
        assert!(err.items[0].span.start.line >= 1);
        assert!(parse("resource {", "t").is_err());
        assert!(parse_expr("1 +", "t").is_err() || parse_expr("1 +", "t").is_ok());
    }

    #[test]
    fn empty_file_and_empty_block() {
        let f = parse("", "t").unwrap();
        assert!(f.blocks.is_empty());
        let f = parse("locals {}", "t").unwrap();
        assert_eq!(f.blocks.len(), 1);
        assert!(f.blocks[0].body.attrs.is_empty());
    }
}
