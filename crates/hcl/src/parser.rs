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
//! same parser on the interpolation source, then *remapping* the inner spans
//! into file coordinates so diagnostics still point at real lines.

use cloudless_types::{SourcePos, Span};

use crate::ast::{
    Attribute, BinOp, Block, BlockBody, Expr, File, MapKey, Reference, TemplatePart, UnaryOp,
};
use crate::diag::{Diagnostic, Diagnostics};
use crate::lexer::lex;
use crate::token::{StrPart, Token, TokenKind};

/// Deepest nesting of blocks and expressions a program may have. The
/// parser, every pass after it and `Drop` all recurse over the tree built
/// here, so this one cap keeps hostile input (200 kB of `[`) a diagnostic
/// where it would overflow the stack and abort the process. A level costs
/// about 10 kB of stack in an unoptimized build, so 64 of them fit a 2 MB
/// thread several times over; shipped programs nest under 10 deep.
const MAX_DEPTH: usize = 64;

/// Parse a full file.
pub fn parse(source: &str, filename: &str) -> Result<File, Diagnostics> {
    let mut p = Parser::new(lex(source, filename)?, filename, 0);
    let file = p.file();
    p.diags.into_result(file)
}

/// Parse a standalone expression (used for interpolations and by tests).
pub fn parse_expr(source: &str, filename: &str) -> Result<Expr, Diagnostics> {
    expr_at(source, filename, 0)
}

/// [`parse_expr`] for an expression already `depth` levels into a program.
fn expr_at(source: &str, filename: &str, depth: usize) -> Result<Expr, Diagnostics> {
    let mut p = Parser::new(lex(source, filename)?, filename, depth);
    let e = p.expr();
    if !p.at(&TokenKind::Eof) {
        let t = p.peek().clone();
        p.err(t.span, format!("unexpected {} after expression", t.kind));
    }
    p.diags.into_result(e)
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    filename: &'a str,
    diags: Diagnostics,
    /// Levels of the tree above the node being parsed.
    depth: usize,
    /// Set once [`MAX_DEPTH`] is hit: the rest of the input is not read.
    halted: bool,
}

/// Binary operators with their binding strength (higher binds tighter);
/// all are left-associative.
const BINARY_OPS: [(TokenKind, BinOp, u8); 13] = [
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

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Token>, filename: &'a str, depth: usize) -> Self {
        Parser {
            tokens,
            pos: 0,
            filename,
            diags: Diagnostics::new(),
            depth,
            halted: false,
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
            self.pos = self.tokens.len() - 1;
        }
        self.depth += 1;
        !self.halted
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn at(&self, k: &TokenKind) -> bool {
        self.peek_kind() == k
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, k: &TokenKind) -> bool {
        if self.at(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: TokenKind) -> Token {
        if self.at(&k) {
            self.bump()
        } else {
            let t = self.peek().clone();
            self.err(
                t.span,
                format!("expected {}, found {}", k.describe(), t.kind),
            );
            t
        }
    }

    fn err(&mut self, span: Span, msg: String) {
        if self.halted {
            return;
        }
        self.diags
            .push(Diagnostic::error("HCL002", self.filename, span, msg));
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
        let start = self.peek().span;
        let kind = match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                s
            }
            other => {
                self.err(start, format!("expected block keyword, found {other}"));
                return None;
            }
        };
        let mut labels = Vec::new();
        loop {
            match self.peek_kind().clone() {
                TokenKind::Str(parts) => {
                    let t = self.bump();
                    match plain_string(&parts) {
                        Some(s) => labels.push(s),
                        None => {
                            self.err(t.span, "block labels cannot contain interpolations".into())
                        }
                    }
                }
                TokenKind::Ident(s) => {
                    self.bump();
                    labels.push(s);
                }
                _ => break,
            }
        }
        self.expect(TokenKind::LBrace);
        let body = self.body();
        let end_tok = self.expect(TokenKind::RBrace);
        Some(Block {
            kind,
            labels,
            body,
            span: start.merge(end_tok.span),
        })
    }

    fn body(&mut self) -> BlockBody {
        let mut body = BlockBody::default();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            match self.peek_kind().clone() {
                TokenKind::Ident(name) => {
                    let name_tok = self.bump();
                    if self.eat(&TokenKind::Assign) {
                        let value = self.expr();
                        body.attrs.push(Attribute {
                            span: name_tok.span.merge(value.span()),
                            name,
                            value,
                        });
                    } else {
                        // nested block: rewind is unnecessary, parse labels+body here
                        let mut labels = Vec::new();
                        loop {
                            match self.peek_kind().clone() {
                                TokenKind::Str(parts) => {
                                    let t = self.bump();
                                    match plain_string(&parts) {
                                        Some(s) => labels.push(s),
                                        None => self.err(
                                            t.span,
                                            "block labels cannot contain interpolations".into(),
                                        ),
                                    }
                                }
                                TokenKind::Ident(s) => {
                                    self.bump();
                                    labels.push(s);
                                }
                                _ => break,
                            }
                        }
                        self.expect(TokenKind::LBrace);
                        let inner = if self.descend() {
                            self.body()
                        } else {
                            BlockBody::default()
                        };
                        self.depth -= 1;
                        let end = self.expect(TokenKind::RBrace);
                        body.blocks.push(Block {
                            kind: name,
                            labels,
                            body: inner,
                            span: name_tok.span.merge(end.span),
                        });
                    }
                }
                other => {
                    let t = self.peek().clone();
                    self.err(
                        t.span,
                        format!("expected attribute or block, found {other}"),
                    );
                    self.bump();
                }
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
                    let mut span = e.span().merge(end.span);
                    while self.at(&TokenKind::Dot) {
                        if let Some(Token {
                            kind: TokenKind::Ident(name),
                            span: s2,
                        }) = self.tokens.get(self.pos + 1).cloned()
                        {
                            self.bump(); // dot
                            self.bump(); // ident
                            parts.push(name);
                            span = span.merge(s2);
                        } else {
                            break;
                        }
                    }
                    e = Expr::Splat(Box::new(e), parts, span);
                    continue;
                }
                let idx = self.expr();
                let end = self.expect(TokenKind::RBracket);
                let span = e.span().merge(end.span);
                e = Expr::Index(Box::new(e), Box::new(idx), span);
            } else {
                // `.ident` traversal on an arbitrary base
                self.bump();
                match self.peek_kind().clone() {
                    TokenKind::Ident(name) => {
                        let t = self.bump();
                        let span = e.span().merge(t.span);
                        e = Expr::GetAttr(Box::new(e), name, span);
                    }
                    other => {
                        let t = self.peek().clone();
                        self.err(t.span, format!("expected attribute name, found {other}"));
                        break;
                    }
                }
            }
        }
        self.depth = entered;
        e
    }

    fn primary(&mut self) -> Expr {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::Number(n) => {
                self.bump();
                Expr::Num(n, t.span)
            }
            TokenKind::Str(ref parts) => {
                self.bump();
                self.template(parts, t.span)
            }
            TokenKind::Ident(ref s) => match s.as_str() {
                "true" => {
                    self.bump();
                    Expr::Bool(true, t.span)
                }
                "false" => {
                    self.bump();
                    Expr::Bool(false, t.span)
                }
                "null" => {
                    self.bump();
                    Expr::Null(t.span)
                }
                _ => {
                    self.bump();
                    if self.at(&TokenKind::LParen) {
                        self.call(s.clone(), t.span)
                    } else {
                        self.reference(s.clone(), t.span)
                    }
                }
            },
            TokenKind::LBracket => {
                self.bump();
                // list `for` comprehension
                if matches!(self.peek_kind(), TokenKind::Ident(s) if s == "for") {
                    return self.for_list(t.span);
                }
                let mut items = Vec::new();
                while !self.at(&TokenKind::RBracket) && !self.at(&TokenKind::Eof) {
                    items.push(self.expr());
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                let end = self.expect(TokenKind::RBracket);
                Expr::List(items, t.span.merge(end.span))
            }
            TokenKind::LBrace => {
                self.bump();
                // map `for` comprehension
                if matches!(self.peek_kind(), TokenKind::Ident(s) if s == "for") {
                    return self.for_map(t.span);
                }
                let mut entries = Vec::new();
                while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
                    let key = match self.peek_kind().clone() {
                        TokenKind::Ident(s) => {
                            self.bump();
                            MapKey::Ident(s)
                        }
                        TokenKind::Str(parts) => {
                            let kt = self.bump();
                            match plain_string(&parts) {
                                Some(s) => MapKey::Str(s),
                                None => {
                                    self.err(
                                        kt.span,
                                        "map keys cannot contain interpolations".into(),
                                    );
                                    MapKey::Str(String::new())
                                }
                            }
                        }
                        other => {
                            let pt = self.peek().clone();
                            self.err(pt.span, format!("expected map key, found {other}"));
                            self.bump();
                            continue;
                        }
                    };
                    if !self.eat(&TokenKind::Assign) {
                        self.expect(TokenKind::Colon);
                    }
                    let value = self.expr();
                    entries.push((key, value));
                    // comma separators are optional in map constructors
                    self.eat(&TokenKind::Comma);
                }
                let end = self.expect(TokenKind::RBrace);
                Expr::Map(entries, t.span.merge(end.span))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr();
                let end = self.expect(TokenKind::RParen);
                Expr::Paren(Box::new(inner), t.span.merge(end.span))
            }
            ref other => {
                self.err(t.span, format!("expected expression, found {other}"));
                self.bump();
                Expr::Null(t.span)
            }
        }
    }

    /// Shared header of both `for` forms: `for v in` / `for k, v in`.
    /// Returns `(index_var, var, collection)`.
    fn for_header(&mut self) -> (Option<String>, String, Expr) {
        self.bump(); // `for`
        let first = match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                s
            }
            other => {
                let t = self.peek().clone();
                self.err(t.span, format!("expected loop variable, found {other}"));
                "_".to_owned()
            }
        };
        let (index_var, var) = if self.eat(&TokenKind::Comma) {
            match self.peek_kind().clone() {
                TokenKind::Ident(s) => {
                    self.bump();
                    (Some(first), s)
                }
                other => {
                    let t = self.peek().clone();
                    self.err(t.span, format!("expected loop variable, found {other}"));
                    (Some(first), "_".to_owned())
                }
            }
        } else {
            (None, first)
        };
        match self.peek_kind().clone() {
            TokenKind::Ident(s) if s == "in" => {
                self.bump();
            }
            other => {
                let t = self.peek().clone();
                self.err(t.span, format!("expected 'in', found {other}"));
            }
        }
        let collection = self.expr();
        self.expect(TokenKind::Colon);
        (index_var, var, collection)
    }

    /// Optional trailing `if cond` of a `for` expression.
    fn for_cond(&mut self) -> Option<Box<Expr>> {
        if matches!(self.peek_kind(), TokenKind::Ident(s) if s == "if") {
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
            span: start.merge(end.span),
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
            span: start.merge(end.span),
        }
    }

    /// `name(arg, …)` — function call.
    fn call(&mut self, name: String, start: Span) -> Expr {
        self.expect(TokenKind::LParen);
        let mut args = Vec::new();
        while !self.at(&TokenKind::RParen) && !self.at(&TokenKind::Eof) {
            args.push(self.expr());
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let end = self.expect(TokenKind::RParen);
        Expr::Call(name, args, start.merge(end.span))
    }

    /// Greedy dotted reference: `a.b.c`. Stops at the first non-ident after
    /// a dot (so `a.b[0].c` parses as Index/GetAttr postfix on `a.b`).
    fn reference(&mut self, first: String, start: Span) -> Expr {
        let mut parts = vec![first];
        let mut span = start;
        while self.at(&TokenKind::Dot) {
            // lookahead: only consume if next-next is an ident
            if let Some(Token {
                kind: TokenKind::Ident(name),
                span: s2,
            }) = self.tokens.get(self.pos + 1).cloned()
            {
                self.bump(); // dot
                self.bump(); // ident
                parts.push(name);
                span = span.merge(s2);
            } else {
                break;
            }
        }
        Expr::Ref(Reference { parts }, span)
    }

    /// Build a template-string expression, recursively parsing
    /// interpolations and remapping their spans into file coordinates.
    fn template(&mut self, parts: &[StrPart], span: Span) -> Expr {
        let mut out = Vec::new();
        for p in parts {
            match p {
                StrPart::Lit(s) => out.push(TemplatePart::Lit(s.clone())),
                StrPart::Interp(src, interp_span) => {
                    match expr_at(src, self.filename, self.depth) {
                        Ok(mut e) => {
                            remap_spans(&mut e, interp_span.start);
                            out.push(TemplatePart::Interp(e));
                        }
                        Err(ds) => {
                            for mut d in ds {
                                d.span = remap_span(d.span, interp_span.start);
                                self.diags.push(d);
                            }
                            out.push(TemplatePart::Lit(String::new()));
                        }
                    }
                }
            }
        }
        Expr::Str(out, span)
    }
}

fn plain_string(parts: &[StrPart]) -> Option<String> {
    match parts {
        [] => Some(String::new()),
        [StrPart::Lit(s)] => Some(s.clone()),
        _ => None,
    }
}

/// Shift a span lexed at line 1/offset 0 so it is expressed in the
/// coordinates of the enclosing file, given the interpolation start.
fn remap_pos(p: SourcePos, base: SourcePos) -> SourcePos {
    SourcePos {
        line: base.line + p.line - 1,
        col: if p.line == 1 {
            base.col + p.col - 1
        } else {
            p.col
        },
        offset: base.offset + p.offset,
    }
}

fn remap_span(s: Span, base: SourcePos) -> Span {
    Span::new(remap_pos(s.start, base), remap_pos(s.end, base))
}

/// Recursively remap every span inside an expression.
fn remap_spans(e: &mut Expr, base: SourcePos) {
    let fix = |s: &mut Span| *s = remap_span(*s, base);
    match e {
        Expr::Null(s) | Expr::Bool(_, s) | Expr::Num(_, s) => fix(s),
        Expr::Str(parts, s) => {
            fix(s);
            for p in parts {
                if let TemplatePart::Interp(inner) = p {
                    remap_spans(inner, base);
                }
            }
        }
        Expr::List(items, s) => {
            fix(s);
            for i in items {
                remap_spans(i, base);
            }
        }
        Expr::Map(entries, s) => {
            fix(s);
            for (_, v) in entries {
                remap_spans(v, base);
            }
        }
        Expr::Ref(_, s) => fix(s),
        Expr::Index(a, b, s) => {
            fix(s);
            remap_spans(a, base);
            remap_spans(b, base);
        }
        Expr::GetAttr(a, _, s) => {
            fix(s);
            remap_spans(a, base);
        }
        Expr::Call(_, args, s) => {
            fix(s);
            for a in args {
                remap_spans(a, base);
            }
        }
        Expr::Unary(_, a, s) => {
            fix(s);
            remap_spans(a, base);
        }
        Expr::Binary(_, a, b, s) => {
            fix(s);
            remap_spans(a, base);
            remap_spans(b, base);
        }
        Expr::Cond(a, b, c, s) => {
            fix(s);
            remap_spans(a, base);
            remap_spans(b, base);
            remap_spans(c, base);
        }
        Expr::Paren(a, s) => {
            fix(s);
            remap_spans(a, base);
        }
        Expr::Splat(a, _, s) => {
            fix(s);
            remap_spans(a, base);
        }
        Expr::ForList {
            collection,
            body,
            cond,
            span,
            ..
        } => {
            fix(span);
            remap_spans(collection, base);
            remap_spans(body, base);
            if let Some(c) = cond {
                remap_spans(c, base);
            }
        }
        Expr::ForMap {
            collection,
            key,
            value,
            cond,
            span,
            ..
        } => {
            fix(span);
            remap_spans(collection, base);
            remap_spans(key, base);
            remap_spans(value, base);
            if let Some(c) = cond {
                remap_spans(c, base);
            }
        }
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
    fn interpolation_spans_remap_to_file() {
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
