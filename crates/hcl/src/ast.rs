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

/// What the root of a [`Reference`] names: one of the namespaces, a
/// resource block, or a lone name. A `for` loop variable reads as a
/// resource (`x.id`) or a lone name (`x`) here; only a walk that knows the
/// bindings ([`Expr::walk_refs`]) tells it apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefKind<'a> {
    Var,
    Local,
    Count,
    Each,
    Data,
    Module,
    Path,
    Terraform,
    /// `type.name…`: a resource block.
    Resource {
        rtype: &'a str,
        name: &'a str,
    },
    /// One part that is no namespace.
    Lone,
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

    /// What the root names: the one rule for every reader of a reference.
    pub fn kind(&self) -> RefKind<'_> {
        match (self.root(), self.parts.get(1)) {
            ("var", _) => RefKind::Var,
            ("local", _) => RefKind::Local,
            ("count", _) => RefKind::Count,
            ("each", _) => RefKind::Each,
            ("data", _) => RefKind::Data,
            ("module", _) => RefKind::Module,
            ("path", _) => RefKind::Path,
            ("terraform", _) => RefKind::Terraform,
            (rtype, Some(name)) => RefKind::Resource { rtype, name },
            (_, None) => RefKind::Lone,
        }
    }

    /// Whether a `for` loop variable of this name hides it: every name but
    /// the scope namespaces (`var`, `local`, `count`, `each`), as the
    /// evaluator resolves them.
    fn shadowable(&self) -> bool {
        !matches!(
            self.kind(),
            RefKind::Var | RefKind::Local | RefKind::Count | RefKind::Each
        )
    }

    /// Render back to `a.b.c` form.
    pub fn dotted(&self) -> String {
        self.parts.join(".")
    }
}

/// One reference as [`Expr::walk_refs`] reads it.
#[derive(Debug, Clone, Copy)]
pub struct RefRead<'a> {
    /// What it reads: the reference as written, or, for a loop variable
    /// over a block (`s` in `[for s in aws_subnet.s : s.id]`), that block.
    pub reference: &'a Reference,
    /// Where `reference` is written: the loop's collection, for a read
    /// through a loop variable.
    pub span: Span,
    /// The index that selects an instance of a two-part reference
    /// (`aws_vpc.v[count.index]`); `None` for none or a splat.
    pub index: Option<&'a Expr>,
    /// The attribute it reads off the block: `id` in `aws_vpc.v.id`,
    /// `aws_vpc.v[0].id`, `aws_vpc.v[*].id` and `s.id` for `s` over
    /// `aws_vpc.v`.
    pub attr: Option<&'a str>,
}

/// A `for` loop variable in scope: the block it ranges over, when its
/// collection is one (`for s in aws_subnet.s`), and whether it was read.
struct Bound<'a> {
    name: &'a str,
    over: Option<(&'a Reference, Span)>,
    read: bool,
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

    /// Visit every reference this expression reads (including inside
    /// string interpolations), in source order, scoped as the evaluator
    /// scopes them: a `for` loop variable hides resource, `data`, `module`
    /// and lone names, never `var`, `local`, `count` or `each`. A loop
    /// variable over a block reads as that block's splat: `s.id` in
    /// `[for s in aws_subnet.s : s.id]` reads `aws_subnet.s` and `id`, as
    /// `aws_subnet.s[*].id` does; a loop over a block whose variable is
    /// never read reads the block whole, after its body.
    pub fn walk_refs<'a>(&'a self, f: &mut impl FnMut(RefRead<'a>)) {
        self.walk_scoped(&mut Vec::new(), f);
    }

    fn walk_scoped<'a>(&'a self, bound: &mut Vec<Bound<'a>>, f: &mut impl FnMut(RefRead<'a>)) {
        if let Expr::ForList {
            var,
            index_var,
            collection,
            ..
        }
        | Expr::ForMap {
            var,
            index_var,
            collection,
            ..
        } = self
        {
            return walk_for(self, var, index_var, collection, bound, f);
        }
        // what an index, a splat or an attribute after an index selects of
        let selected = match self {
            Expr::Splat(base, attrs, _) => Some((&**base, None, attrs.first())),
            Expr::Index(base, index, _) => Some((&**base, Some(&**index), None)),
            Expr::GetAttr(base, attr, _) => match &**base {
                Expr::Index(base, index, _) => Some((&**base, Some(&**index), Some(attr))),
                _ => None,
            },
            _ => None,
        };
        let (reference, span, index, attr) = match (self, selected) {
            (_, Some((Expr::Ref(r, s), index, attr))) if r.parts.len() == 2 => (r, *s, index, attr),
            (Expr::Ref(r, s), _) => (r, *s, None, r.parts.get(2)),
            _ => return self.for_each_child(&mut |e| e.walk_scoped(bound, f)),
        };
        let attr = attr.map(String::as_str);
        let loop_var = bound.iter_mut().rev().find(|b| b.name == reference.root());
        match loop_var.filter(|_| reference.shadowable()) {
            None => f(RefRead {
                reference,
                span,
                index,
                attr,
            }),
            Some(b) => {
                b.read = true;
                if let Some((over, at)) = b.over {
                    f(RefRead {
                        reference: over,
                        span: at,
                        index: None,
                        attr: reference.parts.get(1).map(String::as_str),
                    });
                }
            }
        }
        if let Some(index) = index {
            index.walk_scoped(bound, f);
        }
    }

    /// Visit each direct subexpression, in source order.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Null(_) | Expr::Bool(_, _) | Expr::Num(_, _) | Expr::Ref(_, _) => {}
            Expr::Str(parts, _) => {
                for p in parts {
                    if let TemplatePart::Interp(e) = p {
                        f(e);
                    }
                }
            }
            Expr::List(items, _) | Expr::Call(_, items, _) => items.iter().for_each(f),
            Expr::Map(entries, _) => entries.iter().for_each(|(_, e)| f(e)),
            Expr::Index(l, r, _) | Expr::Binary(_, l, r, _) => {
                f(l);
                f(r);
            }
            Expr::GetAttr(e, _, _)
            | Expr::Unary(_, e, _)
            | Expr::Paren(e, _)
            | Expr::Splat(e, _, _) => f(e),
            Expr::Cond(c, t, e, _) => {
                f(c);
                f(t);
                f(e);
            }
            Expr::ForList {
                collection,
                body,
                cond,
                ..
            } => {
                f(collection);
                f(body);
                cond.iter().for_each(|c| f(c));
            }
            Expr::ForMap {
                collection,
                key,
                value,
                cond,
                ..
            } => {
                f(collection);
                f(key);
                f(value);
                cond.iter().for_each(|c| f(c));
            }
        }
    }
}

/// The scoped walk of `for_expr`: its collection in the enclosing scope,
/// then the rest (body, key, value, condition) with the loop variables
/// bound.
fn walk_for<'a>(
    for_expr: &'a Expr,
    var: &'a str,
    index_var: &'a Option<String>,
    collection: &'a Expr,
    bound: &mut Vec<Bound<'a>>,
    f: &mut impl FnMut(RefRead<'a>),
) {
    let over = match collection {
        Expr::Ref(r, s) if r.parts.len() == 2 && matches!(r.kind(), RefKind::Resource { .. }) => {
            Some((r, *s)).filter(|(r, _)| !bound.iter().any(|b| b.name == r.root()))
        }
        _ => None,
    };
    if over.is_none() {
        collection.walk_scoped(bound, f);
    }
    let depth = bound.len();
    let names = index_var.iter().map(|iv| (iv.as_str(), None));
    for (name, over) in names.chain([(var, over)]) {
        bound.push(Bound {
            name,
            over,
            read: false,
        });
    }
    // the collection is the first child
    let mut scoped = false;
    for_expr.for_each_child(&mut |e| {
        if scoped {
            e.walk_scoped(bound, f);
        }
        scoped = true;
    });
    let unread = bound.last().is_some_and(|b| !b.read);
    bound.truncate(depth);
    if let (Some((reference, span)), true) = (over, unread) {
        f(RefRead {
            reference,
            span,
            index: None,
            attr: None,
        });
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
        let mut refs = Vec::new();
        e.walk_refs(&mut |read| refs.push(read.reference.dotted()));
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
