//! Abstract syntax tree for the HCL subset.
//!
//! The shape mirrors HCL's own model: a file is a sequence of *blocks*
//! (`resource "aws_vm" "v" { … }`), each block body holds *attributes*
//! (`name = expr`) and nested blocks (`lifecycle { … }`). Expressions cover
//! the constructs used by real Terraform programs: literals, template
//! strings, references (`var.x`, `aws_vm.v.id`, `count.index`), operators,
//! conditionals, function calls, and list/map constructors.
//!
//! Every node carries a [`Span`] so later phases can report exact locations.

use cloudless_types::Span;

/// A parsed source file.
#[derive(Debug, Clone, PartialEq)]
pub struct File {
    /// Name used in diagnostics (not necessarily a filesystem path).
    pub filename: String,
    pub blocks: Vec<Block>,
}

/// A block: `kind "label0" "label1" { body }`.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub kind: String,
    pub labels: Vec<String>,
    pub body: BlockBody,
    pub span: Span,
}

impl Block {
    /// Label at position `i`, if present.
    pub fn label(&self, i: usize) -> Option<&str> {
        self.labels.get(i).map(String::as_str)
    }
}

/// The `{ … }` body of a block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockBody {
    pub attrs: Vec<Attribute>,
    pub blocks: Vec<Block>,
}

impl BlockBody {
    /// Find an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&Attribute> {
        self.attrs.iter().find(|a| a.name == name)
    }

    /// Find a nested block by kind.
    pub fn block(&self, kind: &str) -> Option<&Block> {
        self.blocks.iter().find(|b| b.kind == kind)
    }
}

/// An attribute assignment: `name = value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    pub name: String,
    pub value: Expr,
    pub span: Span,
}

/// A dotted reference such as `var.vmName`, `aws_network_interface.n1.id`,
/// `count.index` or `module.net.subnet_id`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reference {
    pub parts: Vec<String>,
}

impl Reference {
    pub fn new<S: Into<String>>(parts: impl IntoIterator<Item = S>) -> Self {
        Reference {
            parts: parts.into_iter().map(Into::into).collect(),
        }
    }

    /// First component (`var`, `local`, `data`, `count`, `each`, `module`,
    /// or a resource type name).
    pub fn root(&self) -> &str {
        &self.parts[0]
    }

    /// Render back to `a.b.c` form.
    pub fn dotted(&self) -> String {
        self.parts.join(".")
    }
}

/// One piece of a template string.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplatePart {
    Lit(String),
    Interp(Expr),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    /// Operator as written in source.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

/// Key of a map-constructor entry: `{ name = …, "quoted key" = … }`.
#[derive(Debug, Clone, PartialEq)]
pub enum MapKey {
    Ident(String),
    Str(String),
}

impl MapKey {
    pub fn as_str(&self) -> &str {
        match self {
            MapKey::Ident(s) | MapKey::Str(s) => s,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Null(Span),
    Bool(bool, Span),
    Num(f64, Span),
    /// A string template; a plain string is a single `Lit` part.
    Str(Vec<TemplatePart>, Span),
    List(Vec<Expr>, Span),
    Map(Vec<(MapKey, Expr)>, Span),
    /// Dotted reference (`var.x`, `aws_vm.v.id`…).
    Ref(Reference, Span),
    /// Indexing: `expr[index]`.
    Index(Box<Expr>, Box<Expr>, Span),
    /// Attribute access on a non-reference base: `(expr).attr`.
    GetAttr(Box<Expr>, String, Span),
    /// Function call: `name(args…)`.
    Call(String, Vec<Expr>, Span),
    Unary(UnaryOp, Box<Expr>, Span),
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// Ternary conditional `cond ? then : else`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>, Span),
    /// Parenthesized expression, kept for faithful re-rendering.
    Paren(Box<Expr>, Span),
    /// Splat: `base[*].a.b` — project an attribute path over every element
    /// of a list (a non-list base is treated as a 1-element list, like
    /// Terraform).
    Splat(Box<Expr>, Vec<String>, Span),
    /// List `for` comprehension: `[for x in coll : body if cond]`.
    ForList {
        var: String,
        /// Optional index/key variable: `[for i, x in coll : …]`.
        index_var: Option<String>,
        collection: Box<Expr>,
        body: Box<Expr>,
        cond: Option<Box<Expr>>,
        span: Span,
    },
    /// Map `for` comprehension: `{for k, v in coll : key => value if cond}`.
    ForMap {
        var: String,
        index_var: Option<String>,
        collection: Box<Expr>,
        key: Box<Expr>,
        value: Box<Expr>,
        cond: Option<Box<Expr>>,
        span: Span,
    },
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Null(s)
            | Expr::Bool(_, s)
            | Expr::Num(_, s)
            | Expr::Str(_, s)
            | Expr::List(_, s)
            | Expr::Map(_, s)
            | Expr::Ref(_, s)
            | Expr::Index(_, _, s)
            | Expr::GetAttr(_, _, s)
            | Expr::Call(_, _, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Cond(_, _, _, s)
            | Expr::Paren(_, s)
            | Expr::Splat(_, _, s) => *s,
            Expr::ForList { span, .. } | Expr::ForMap { span, .. } => *span,
        }
    }

    /// A plain (non-interpolated) string literal, if that is what this is.
    pub fn as_plain_str(&self) -> Option<&str> {
        match self {
            Expr::Str(parts, _) => match parts.as_slice() {
                [TemplatePart::Lit(s)] => Some(s),
                [] => Some(""),
                _ => None,
            },
            _ => None,
        }
    }

    /// Visit every [`Reference`] in this expression tree (including inside
    /// string interpolations), in source order.
    pub fn walk_refs<'a>(&'a self, f: &mut impl FnMut(&'a Reference, Span)) {
        match self {
            Expr::Null(_) | Expr::Bool(_, _) | Expr::Num(_, _) => {}
            Expr::Str(parts, _) => {
                for p in parts {
                    if let TemplatePart::Interp(e) = p {
                        e.walk_refs(f);
                    }
                }
            }
            Expr::List(items, _) => {
                for e in items {
                    e.walk_refs(f);
                }
            }
            Expr::Map(entries, _) => {
                for (_, e) in entries {
                    e.walk_refs(f);
                }
            }
            Expr::Ref(r, s) => f(r, *s),
            Expr::Index(base, idx, _) => {
                base.walk_refs(f);
                idx.walk_refs(f);
            }
            Expr::GetAttr(base, _, _) => base.walk_refs(f),
            Expr::Call(_, args, _) => {
                for a in args {
                    a.walk_refs(f);
                }
            }
            Expr::Unary(_, e, _) => e.walk_refs(f),
            Expr::Binary(_, l, r, _) => {
                l.walk_refs(f);
                r.walk_refs(f);
            }
            Expr::Cond(c, t, e, _) => {
                c.walk_refs(f);
                t.walk_refs(f);
                e.walk_refs(f);
            }
            Expr::Paren(e, _) => e.walk_refs(f),
            Expr::Splat(base, _, _) => base.walk_refs(f),
            Expr::ForList {
                collection,
                body,
                cond,
                ..
            } => {
                collection.walk_refs(f);
                body.walk_refs(f);
                if let Some(c) = cond {
                    c.walk_refs(f);
                }
            }
            Expr::ForMap {
                collection,
                key,
                value,
                cond,
                ..
            } => {
                collection.walk_refs(f);
                key.walk_refs(f);
                value.walk_refs(f);
                if let Some(c) = cond {
                    c.walk_refs(f);
                }
            }
        }
    }

    /// Collect all references in this expression.
    pub fn refs(&self) -> Vec<&Reference> {
        let mut out = Vec::new();
        self.walk_refs(&mut |r, _| out.push(r));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::synthetic()
    }

    #[test]
    fn reference_helpers() {
        let r = Reference::new(["aws_vm", "v", "id"]);
        assert_eq!(r.root(), "aws_vm");
        assert_eq!(r.dotted(), "aws_vm.v.id");
    }

    #[test]
    fn plain_str_detection() {
        let plain = Expr::Str(vec![TemplatePart::Lit("x".into())], sp());
        assert_eq!(plain.as_plain_str(), Some("x"));
        let empty = Expr::Str(vec![], sp());
        assert_eq!(empty.as_plain_str(), Some(""));
        let interp = Expr::Str(vec![TemplatePart::Interp(Expr::Num(1.0, sp()))], sp());
        assert_eq!(interp.as_plain_str(), None);
        assert_eq!(Expr::Num(1.0, sp()).as_plain_str(), None);
    }

    #[test]
    fn walk_refs_finds_nested() {
        // format("${var.a}", [local.b ? x.y.z : 1])
        let e = Expr::Call(
            "format".into(),
            vec![
                Expr::Str(
                    vec![TemplatePart::Interp(Expr::Ref(
                        Reference::new(["var", "a"]),
                        sp(),
                    ))],
                    sp(),
                ),
                Expr::List(
                    vec![Expr::Cond(
                        Box::new(Expr::Ref(Reference::new(["local", "b"]), sp())),
                        Box::new(Expr::Ref(Reference::new(["x", "y", "z"]), sp())),
                        Box::new(Expr::Num(1.0, sp())),
                        sp(),
                    )],
                    sp(),
                ),
            ],
            sp(),
        );
        let refs: Vec<String> = e.refs().iter().map(|r| r.dotted()).collect();
        assert_eq!(refs, vec!["var.a", "local.b", "x.y.z"]);
    }

    #[test]
    fn body_lookup() {
        let body = BlockBody {
            attrs: vec![Attribute {
                name: "size".into(),
                value: Expr::Num(4.0, sp()),
                span: sp(),
            }],
            blocks: vec![Block {
                kind: "lifecycle".into(),
                labels: vec![],
                body: BlockBody::default(),
                span: sp(),
            }],
        };
        assert!(body.attr("size").is_some());
        assert!(body.attr("nope").is_none());
        assert!(body.block("lifecycle").is_some());
        assert!(body.block("nope").is_none());
    }
}
