//! Program-level dataflow over the *un-expanded* HCL AST.
//!
//! The expander only evaluates code it instantiates: attributes of a block
//! whose `count` is zero, the dead arm of a conditional, a never-referenced
//! output — none of those are ever looked at, so `cloudless-validate`
//! (which sees expanded instances) cannot say anything about them. These
//! passes walk the raw [`Program`] instead:
//!
//! * **def-use** — unused variables/locals, references to undeclared
//!   definitions (including in dead code), duplicate definitions, module
//!   inputs the child never declares;
//! * **constant folding + intervals** — count/port/CIDR constraints checked
//!   even when written as expressions ([`cloudless_hcl::fold()`] resolves
//!   what it can; a small interval analysis bounds what it can't);
//! * **taint** — values of `sensitive = true` variables must not flow into
//!   plain outputs or logged plaintext attributes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cloudless_hcl::ast::{Attribute, Expr, Reference, TemplatePart};
use cloudless_hcl::eval::{DeferAll, Scope};
use cloudless_hcl::fold::{fold, Folded};
use cloudless_hcl::program::{ModuleLibrary, Program, ResourceBlock};
use cloudless_types::cidr::Cidr;
use cloudless_types::{PairMap, Span, Value};

use crate::report::Sink;

// ---------------------------------------------------------------- ref walk

/// Walk every [`Reference`] in `expr`, tracking `for`-comprehension
/// bindings so loop variables are not mistaken for references. (The AST's
/// own `walk_refs` is binding-blind, which is fine for dependency
/// extraction but would make the def-use pass report `x` in
/// `[for x in l : x.id]` as undefined.)
pub(crate) fn walk_refs_scoped<'a>(
    expr: &'a Expr,
    bound: &mut Vec<String>,
    f: &mut impl FnMut(&'a Reference, Span),
) {
    match expr {
        Expr::Null(_) | Expr::Bool(..) | Expr::Num(..) => {}
        Expr::Str(parts, _) => {
            for p in parts {
                if let TemplatePart::Interp(e) = p {
                    walk_refs_scoped(e, bound, f);
                }
            }
        }
        Expr::List(items, _) => {
            for e in items {
                walk_refs_scoped(e, bound, f);
            }
        }
        Expr::Map(entries, _) => {
            for (_, e) in entries {
                walk_refs_scoped(e, bound, f);
            }
        }
        Expr::Ref(r, span) => {
            if !bound.iter().any(|b| b == r.root()) {
                f(r, *span);
            }
        }
        Expr::Index(base, idx, _) => {
            walk_refs_scoped(base, bound, f);
            walk_refs_scoped(idx, bound, f);
        }
        Expr::GetAttr(base, _, _) => walk_refs_scoped(base, bound, f),
        Expr::Call(_, args, _) => {
            for a in args {
                walk_refs_scoped(a, bound, f);
            }
        }
        Expr::Unary(_, e, _) | Expr::Paren(e, _) => walk_refs_scoped(e, bound, f),
        Expr::Binary(_, l, r, _) => {
            walk_refs_scoped(l, bound, f);
            walk_refs_scoped(r, bound, f);
        }
        Expr::Cond(c, t, e, _) => {
            walk_refs_scoped(c, bound, f);
            walk_refs_scoped(t, bound, f);
            walk_refs_scoped(e, bound, f);
        }
        Expr::Splat(base, _, _) => walk_refs_scoped(base, bound, f),
        Expr::ForList {
            var,
            index_var,
            collection,
            body,
            cond,
            ..
        } => {
            walk_refs_scoped(collection, bound, f);
            let depth = bound.len();
            bound.push(var.clone());
            if let Some(iv) = index_var {
                bound.push(iv.clone());
            }
            walk_refs_scoped(body, bound, f);
            if let Some(c) = cond {
                walk_refs_scoped(c, bound, f);
            }
            bound.truncate(depth);
        }
        Expr::ForMap {
            var,
            index_var,
            collection,
            key,
            value,
            cond,
            ..
        } => {
            walk_refs_scoped(collection, bound, f);
            let depth = bound.len();
            bound.push(var.clone());
            if let Some(iv) = index_var {
                bound.push(iv.clone());
            }
            walk_refs_scoped(key, bound, f);
            walk_refs_scoped(value, bound, f);
            if let Some(c) = cond {
                walk_refs_scoped(c, bound, f);
            }
            bound.truncate(depth);
        }
    }
}

/// `type.name` of a block, rendered only when a finding names it.
#[derive(Clone, Copy)]
pub(crate) struct BlockId<'a>(pub &'a ResourceBlock);

impl fmt::Display for BlockId<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.0.rtype, self.0.name)
    }
}

/// Where an expression sits in a program, for messages: borrowed from the
/// declaration, and rendered only when a finding names it.
#[derive(Clone, Copy)]
pub(crate) enum Site<'a> {
    Local(&'a str),
    VarDefault(&'a str),
    Provider(&'a str),
    Data(&'a str, &'a str),
    Count(&'a ResourceBlock),
    ForEach(&'a ResourceBlock),
    Attr(&'a ResourceBlock, &'a str),
    ModuleInput(&'a str, &'a str),
    Output(&'a str),
}

impl fmt::Display for Site<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Local(name) => write!(f, "local.{name}"),
            Site::VarDefault(name) => write!(f, "variable {name:?} default"),
            Site::Provider(name) => write!(f, "provider {name:?}"),
            Site::Data(rtype, name) => write!(f, "data.{rtype}.{name}"),
            Site::Count(r) => write!(f, "{} count", BlockId(r)),
            Site::ForEach(r) => write!(f, "{} for_each", BlockId(r)),
            Site::Attr(r, attr) => write!(f, "{}.{attr}", BlockId(r)),
            Site::ModuleInput(module, input) => write!(f, "module.{module}.{input}"),
            Site::Output(name) => write!(f, "output {name:?}"),
        }
    }
}

/// Every (expression, where it sits) site of a program, in declaration order.
pub(crate) fn expr_sites(p: &Program) -> impl Iterator<Item = (&Expr, Site<'_>)> {
    sites(p, &p.resources)
}

/// The sites outside the resource blocks: what no block edit can touch.
pub(crate) fn outer_sites(p: &Program) -> impl Iterator<Item = (&Expr, Site<'_>)> {
    sites(p, &[])
}

fn sites<'a>(
    p: &'a Program,
    resources: &'a [ResourceBlock],
) -> impl Iterator<Item = (&'a Expr, Site<'a>)> {
    let locals = p.locals.iter().map(|l| (&l.value, Site::Local(&l.name)));
    let defaults = p.variables.iter().filter_map(|v| {
        let default = v.default.as_ref()?;
        Some((default, Site::VarDefault(&v.name)))
    });
    let providers = p.providers.iter().flat_map(|pr| {
        let attrs = pr.attrs.iter();
        attrs.map(move |a| (&a.value, Site::Provider(&pr.name)))
    });
    let data = p.data.iter().flat_map(|d| {
        let attrs = d.attrs.iter();
        attrs.map(move |a| (&a.value, Site::Data(&d.rtype, &d.name)))
    });
    let blocks = resources.iter().flat_map(|r| {
        let count = r.count.iter().map(move |c| (c, Site::Count(r)));
        let for_each = r.for_each.iter().map(move |fe| (fe, Site::ForEach(r)));
        let attrs = r
            .attrs
            .iter()
            .map(move |a| (&a.value, Site::Attr(r, &a.name)));
        count.chain(for_each).chain(attrs)
    });
    let inputs = p.modules.iter().flat_map(|m| {
        let inputs = m.inputs.iter();
        inputs.map(move |a| (&a.value, Site::ModuleInput(&m.name, &a.name)))
    });
    let outputs = p.outputs.iter().map(|o| (&o.value, Site::Output(&o.name)));
    (locals.chain(defaults).chain(providers).chain(data))
        .chain(blocks)
        .chain(inputs)
        .chain(outputs)
}

/// The expression sites of one resource block, in the order every pass
/// visits them: `count`, `for_each`, then each attribute value.
pub(crate) fn block_exprs(r: &ResourceBlock) -> impl Iterator<Item = &Expr> {
    r.count
        .iter()
        .chain(r.for_each.iter())
        .chain(r.attrs.iter().map(|a| &a.value))
}

// ---------------------------------------------------------------- def-use

/// The names a program declares, for the undeclared-reference check
/// (ANA103). Owned, so a cached [`LintEnv`] can outlive the program it was
/// built from; a lookup borrows the names it asks about.
#[derive(Default)]
pub(crate) struct Decls {
    vars: BTreeSet<String>,
    locals: BTreeSet<String>,
    modules: BTreeSet<String>,
    pub(crate) blocks: PairMap<()>,
}

/// The resource blocks a structural edit declares and retracts, staged on
/// top of the blocks a caller holds declared ([`DeclEdit::declares`]).
/// `(type, name)` pairs; an edit holds a handful.
#[derive(Debug, Default)]
pub struct DeclEdit {
    pub added: Vec<(String, String)>,
    pub removed: Vec<(String, String)>,
}

impl DeclEdit {
    /// Whether `rtype.name` is a declared resource block once this edit
    /// lands on the blocks `declared` says are.
    pub fn declares(&self, declared: impl Fn(&str, &str) -> bool, rtype: &str, name: &str) -> bool {
        let named = |(t, n): &(String, String)| t == rtype && n == name;
        self.added.iter().any(named) || (declared(rtype, name) && !self.removed.iter().any(named))
    }
}

impl Decls {
    fn of(p: &Program) -> Decls {
        let mut blocks = PairMap::new();
        for r in &p.resources {
            blocks.insert(&r.rtype, &r.name, ());
        }
        Decls {
            vars: p.variables.iter().map(|v| v.name.clone()).collect(),
            locals: p.locals.iter().map(|l| l.name.clone()).collect(),
            modules: p.modules.iter().map(|m| m.name.clone()).collect(),
            blocks,
        }
    }

    /// Whether a `depends_on`-style reference names a block `declared`
    /// says is declared (references too short to name one pass).
    pub(crate) fn has_block(&self, r: &Reference, declared: &dyn Fn(&str, &str) -> bool) -> bool {
        r.parts.len() < 2 || declared(&r.parts[0], &r.parts[1])
    }

    /// The ANA103 site check: what `r` names, when that thing is not
    /// declared (a resource block: when `declared` says it is not), plus
    /// the fix to suggest.
    pub(crate) fn undeclared(
        &self,
        r: &Reference,
        declared: &dyn Fn(&str, &str) -> bool,
    ) -> Option<(String, Option<&'static str>)> {
        let name = r.parts.get(1);
        match r.root() {
            "var" => name.filter(|n| !self.vars.contains(*n)).map(|n| {
                (
                    format!("variable var.{n}"),
                    Some("declare the variable (or fix the name)"),
                )
            }),
            "local" => name.filter(|n| !self.locals.contains(*n)).map(|n| {
                (
                    format!("local local.{n}"),
                    Some("declare the local (or fix the name)"),
                )
            }),
            // data sources may be resolver-provided without a block
            "count" | "each" | "path" | "terraform" | "data" => None,
            "module" => name
                .filter(|n| !self.modules.contains(*n))
                .map(|n| (format!("module module.{n}"), None)),
            _ => (!self.has_block(r, declared)).then(|| {
                (
                    format!(
                        "resource {}.{} — it would defer forever and the value silently never resolves",
                        r.parts[0], r.parts[1]
                    ),
                    Some("declare the resource (or fix the reference)"),
                )
            }),
        }
    }
}

pub(crate) fn pass_defuse(
    p: &Program,
    modules: &ModuleLibrary,
    decls: &Decls,
    sink: &mut Sink<'_>,
) {
    let file = &p.filename;
    let as_declared = &|rtype: &str, name: &str| decls.blocks.contains(rtype, name);

    // --- ANA104 duplicate definitions
    let mut vars: BTreeSet<&str> = BTreeSet::new();
    for v in &p.variables {
        if !vars.insert(&v.name) {
            sink.emit(
                "ANA104",
                file,
                v.span,
                format!(
                    "variable {:?} is defined more than once; the later definition silently wins",
                    v.name
                ),
                Some("remove or rename one of the definitions"),
            );
        }
    }
    let mut locals: BTreeSet<&str> = BTreeSet::new();
    for l in &p.locals {
        if !locals.insert(&l.name) {
            sink.emit(
                "ANA104",
                file,
                l.span,
                format!(
                    "local {:?} is defined more than once; the later definition silently wins",
                    l.name
                ),
                Some("remove or rename one of the definitions"),
            );
        }
    }
    let mut outputs: BTreeSet<&str> = BTreeSet::new();
    for o in &p.outputs {
        if !outputs.insert(&o.name) {
            sink.emit(
                "ANA104",
                file,
                o.span,
                format!("output {:?} is defined more than once", o.name),
                None,
            );
        }
    }
    let mut blocks: BTreeSet<(&str, &str)> = BTreeSet::new();
    for r in &p.resources {
        if !blocks.insert((&r.rtype, &r.name)) {
            sink.emit(
                "ANA104",
                file,
                r.span,
                format!("resource {}.{} is defined more than once", r.rtype, r.name),
                None,
            );
        }
    }

    // --- uses (and ANA103 undeclared references)
    let mut used_vars: BTreeSet<&str> = BTreeSet::new();
    let mut used_locals: BTreeSet<&str> = BTreeSet::new();
    for (expr, at) in expr_sites(p) {
        let mut bound = Vec::new();
        walk_refs_scoped(expr, &mut bound, &mut |r, span| {
            match (r.root(), r.parts.get(1)) {
                ("var", Some(name)) => {
                    used_vars.insert(name);
                }
                ("local", Some(name)) => {
                    used_locals.insert(name);
                }
                _ => {}
            }
            if let Some((what, hint)) = decls.undeclared(r, as_declared) {
                sink.emit(
                    "ANA103",
                    file,
                    span,
                    format!("{at} references undeclared {what}"),
                    hint,
                );
            }
        });
    }
    // depends_on lists are references without expressions around them
    for r in &p.resources {
        let undeclared = |d: &&Reference| !decls.has_block(d, as_declared);
        for dep in r.depends_on.iter().filter(undeclared) {
            sink.emit(
                "ANA103",
                file,
                r.span,
                format!(
                    "{}.{} depends_on names undeclared resource {}.{}",
                    r.rtype, r.name, dep.parts[0], dep.parts[1]
                ),
                None,
            );
        }
    }

    // --- ANA101/ANA102 unused definitions
    for v in &p.variables {
        if !used_vars.contains(v.name.as_str()) {
            sink.emit(
                "ANA101",
                file,
                v.span,
                format!("variable {:?} is declared but never referenced", v.name),
                Some("remove the declaration (dead configuration misleads readers)"),
            );
        }
    }
    for l in &p.locals {
        if !used_locals.contains(l.name.as_str()) {
            sink.emit(
                "ANA102",
                file,
                l.span,
                format!("local {:?} is declared but never referenced", l.name),
                Some("remove the definition"),
            );
        }
    }

    // --- ANA105 module inputs the child never declares (cross-module flow)
    for m in &p.modules {
        let Some(src) = modules.get(&m.source) else {
            continue;
        };
        let Ok(child) = cloudless_hcl::load(src, &m.source) else {
            continue; // unparseable modules are the expander's problem
        };
        let declared: BTreeSet<&str> = child.variables.iter().map(|v| v.name.as_str()).collect();
        for input in &m.inputs {
            if !declared.contains(input.name.as_str()) {
                sink.emit(
                    "ANA105",
                    file,
                    input.span,
                    format!(
                        "module {:?} does not declare an input named {:?}; the value is silently dropped",
                        m.name, input.name
                    ),
                    Some("declare the variable in the module or remove the input"),
                );
            }
        }
    }
}

// ------------------------------------------------- folding environment

/// Var defaults + locals folded to values where possible, for use as the
/// scope of further folds.
#[derive(Default)]
pub(crate) struct FoldEnv {
    vars: BTreeMap<String, Value>,
    locals: BTreeMap<String, Value>,
}

impl FoldEnv {
    fn build(p: &Program) -> FoldEnv {
        let mut env = FoldEnv::default();
        for v in &p.variables {
            if let Some(d) = &v.default {
                if let Folded::Known(val) = fold(d, &env.scope()) {
                    env.vars.insert(v.name.clone(), val);
                }
            }
        }
        // locals to a fixpoint (they may reference each other in any order)
        loop {
            let before = env.locals.len();
            for l in &p.locals {
                if env.locals.contains_key(&l.name) {
                    continue;
                }
                if let Folded::Known(val) = fold(&l.value, &env.scope()) {
                    env.locals.insert(l.name.clone(), val);
                }
            }
            if env.locals.len() == before {
                break;
            }
        }
        env
    }

    fn scope(&self) -> Scope<'_> {
        Scope {
            vars: &self.vars,
            locals: &self.locals,
            count_index: None,
            each: None,
            resolver: &DeferAll,
            bindings: Vec::new(),
        }
    }

    pub(crate) fn fold(&self, e: &Expr) -> Folded {
        fold(e, &self.scope())
    }
}

// ---------------------------------------------------------------- intervals

/// A numeric interval `[lo, hi]`; infinities mean unbounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    pub const FULL: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    fn point(v: f64) -> Interval {
        Interval { lo: v, hi: v }
    }

    fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    pub fn is_full(&self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }
}

/// Bound the numeric value of `expr` under `env`. Sound: the true value is
/// always inside the returned interval (unknowns widen to
/// [`Interval::FULL`]).
pub(crate) fn interval_of(expr: &Expr, p: &Program, env: &FoldEnv, depth: u32) -> Interval {
    if depth > 16 {
        return Interval::FULL;
    }
    if let Folded::Known(Value::Num(n)) = env.fold(expr) {
        return Interval::point(n);
    }
    match expr {
        Expr::Num(n, _) => Interval::point(*n),
        Expr::Paren(e, _) => interval_of(e, p, env, depth + 1),
        Expr::Unary(cloudless_hcl::ast::UnaryOp::Neg, e, _) => {
            let i = interval_of(e, p, env, depth + 1);
            Interval {
                lo: -i.hi,
                hi: -i.lo,
            }
        }
        Expr::Binary(op, l, r, _) => {
            use cloudless_hcl::ast::BinOp;
            let a = interval_of(l, p, env, depth + 1);
            let b = interval_of(r, p, env, depth + 1);
            match op {
                BinOp::Add => Interval {
                    lo: a.lo + b.lo,
                    hi: a.hi + b.hi,
                },
                BinOp::Sub => Interval {
                    lo: a.lo - b.hi,
                    hi: a.hi - b.lo,
                },
                BinOp::Mul => {
                    let products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for x in products {
                        if x.is_nan() {
                            return Interval::FULL;
                        }
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                    Interval { lo, hi }
                }
                _ => Interval::FULL,
            }
        }
        Expr::Cond(_, t, e, _) => {
            interval_of(t, p, env, depth + 1).hull(interval_of(e, p, env, depth + 1))
        }
        Expr::Ref(r, _) => match r.root() {
            // count.index ranges over 0..count — non-negative by construction
            "count" if r.parts.get(1).map(String::as_str) == Some("index") => Interval {
                lo: 0.0,
                hi: f64::INFINITY,
            },
            "local" => {
                let Some(name) = r.parts.get(1) else {
                    return Interval::FULL;
                };
                match p.locals.iter().find(|l| &l.name == name) {
                    Some(l) => interval_of(&l.value, p, env, depth + 1),
                    None => Interval::FULL,
                }
            }
            _ => Interval::FULL,
        },
        Expr::Call(name, args, _) if (name == "min" || name == "max") && !args.is_empty() => {
            let mut it = args.iter().map(|a| interval_of(a, p, env, depth + 1));
            let first = it.next().expect("nonempty");
            it.fold(first, |acc, i| {
                if name == "min" {
                    Interval {
                        lo: acc.lo.min(i.lo),
                        hi: acc.hi.min(i.hi),
                    }
                } else {
                    Interval {
                        lo: acc.lo.max(i.lo),
                        hi: acc.hi.max(i.hi),
                    }
                }
            })
        }
        _ => Interval::FULL,
    }
}

// ----------------------------------------------- fold / interval checks

const PORT_KEYS: &[&str] = &["port", "from_port", "to_port"];
const PORT_LIST_ATTRS: &[&str] = &["allow_ports", "ports"];
const CIDR_ATTRS: &[&str] = &["cidr_block", "address_space", "address_prefix"];

pub(crate) fn pass_consts(p: &Program, env: &FoldEnv, sink: &mut Sink<'_>) {
    for r in &p.resources {
        check_block_consts(r, p, env, &p.filename, sink);
    }
}

/// The fold/interval checks for one resource block (ANA201/202/203).
/// Shared by [`pass_consts`] and the incremental dirty-block recheck.
pub(crate) fn check_block_consts(
    r: &ResourceBlock,
    p: &Program,
    env: &FoldEnv,
    file: &str,
    sink: &mut Sink<'_>,
) {
    {
        let id = BlockId(r);

        // ANA201 — count must fold/bound to a non-negative integer
        if let Some(c) = &r.count {
            match env.fold(c) {
                Folded::Known(Value::Num(n)) => {
                    if n < 0.0 || n.fract() != 0.0 {
                        sink.emit(
                            "ANA201",
                            file,
                            c.span(),
                            format!(
                                "{id}: count folds to {n}, which is not a non-negative integer"
                            ),
                            None,
                        );
                    }
                }
                Folded::Known(v) if !v.is_null() && v.as_num().is_none() => {
                    sink.emit(
                        "ANA201",
                        file,
                        c.span(),
                        format!("{id}: count folds to a non-numeric value"),
                        None,
                    );
                }
                _ => {
                    let i = interval_of(c, p, env, 0);
                    if i.hi < 0.0 {
                        sink.emit(
                            "ANA201",
                            file,
                            c.span(),
                            format!(
                                "{id}: count is always negative (bounded to [{}, {}])",
                                i.lo, i.hi
                            ),
                            None,
                        );
                    }
                }
            }
        }

        // ANA202 / ANA203 — port and CIDR constraints through expressions
        for a in &r.attrs {
            check_ports(&a.name, &a.value, id, p, env, file, sink);
            if CIDR_ATTRS.contains(&a.name.as_str()) {
                if let Folded::Known(Value::Str(s)) = env.fold(&a.value) {
                    if let Err(e) = s.parse::<Cidr>() {
                        sink.emit(
                            "ANA203",
                            file,
                            a.value.span(),
                            format!(
                                "{id}.{}: folds to {s:?}, which is not a valid CIDR: {}",
                                a.name, e.0
                            ),
                            None,
                        );
                    }
                }
            }
        }
    }
}

/// Check one port-valued expression: a definite violation (the whole
/// interval is outside 0..=65535, or the folded constant is) is an error; a
/// finitely-bounded partial violation is a warning.
fn check_port_value(
    expr: &Expr,
    at: fmt::Arguments<'_>,
    p: &Program,
    env: &FoldEnv,
    file: &str,
    sink: &mut Sink<'_>,
) {
    match env.fold(expr) {
        Folded::Known(Value::Num(n)) => {
            if !(0.0..=65535.0).contains(&n) || n.fract() != 0.0 {
                sink.emit(
                    "ANA202",
                    file,
                    expr.span(),
                    format!("{at}: port folds to {n}, outside 0..=65535"),
                    None,
                );
            }
        }
        Folded::Known(_) => {}
        Folded::Unknown => {
            let i = interval_of(expr, p, env, 0);
            if i.is_full() {
                return;
            }
            if i.hi < 0.0 || i.lo > 65535.0 {
                sink.emit(
                    "ANA202",
                    file,
                    expr.span(),
                    format!(
                        "{at}: port is bounded to [{}, {}], entirely outside 0..=65535",
                        i.lo, i.hi
                    ),
                    None,
                );
            } else if (i.lo < 0.0 && i.lo.is_finite()) || (i.hi > 65535.0 && i.hi.is_finite()) {
                sink.emit_at(
                    "ANA202",
                    cloudless_hcl::Severity::Warning,
                    file,
                    expr.span(),
                    format!(
                        "{at}: port may fall outside 0..=65535 (bounded to [{}, {}])",
                        i.lo, i.hi
                    ),
                    None,
                );
            }
        }
    }
}

/// Recursively find port-valued expressions under an attribute.
fn check_ports(
    attr: &str,
    value: &Expr,
    id: BlockId<'_>,
    p: &Program,
    env: &FoldEnv,
    file: &str,
    sink: &mut Sink<'_>,
) {
    if PORT_KEYS.contains(&attr) {
        check_port_value(value, format_args!("{id}.{attr}"), p, env, file, sink);
        return;
    }
    if PORT_LIST_ATTRS.contains(&attr) {
        if let Expr::List(items, _) = value {
            for item in items {
                check_port_value(item, format_args!("{id}.{attr}[]"), p, env, file, sink);
            }
        }
        return;
    }
    // nested maps (e.g. `ingress = [{ port = … }]`, or nested blocks the
    // program analyzer flattened into list-of-maps attributes)
    match value {
        Expr::List(items, _) => {
            for item in items {
                check_ports(attr, item, id, p, env, file, sink);
            }
        }
        Expr::Map(entries, _) => {
            for (k, v) in entries {
                if PORT_KEYS.contains(&k.as_str()) {
                    let at = format_args!("{id}.{attr}.{}", k.as_str());
                    check_port_value(v, at, p, env, file, sink);
                }
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------- taint

/// Attributes whose values routinely end up in logs, consoles, tags views
/// and API listings — plaintext sinks for sensitive data.
const LOG_SINKS: &[&str] = &[
    "name",
    "tags",
    "description",
    "labels",
    "user_data",
    "bucket",
];

/// Which variables and locals carry a `sensitive = true` value.
#[derive(Default)]
pub(crate) struct Taint {
    vars: BTreeSet<String>,
    locals: BTreeSet<String>,
}

impl Taint {
    fn of(p: &Program) -> Taint {
        let mut taint = Taint {
            vars: p
                .variables
                .iter()
                .filter(|v| v.sensitive)
                .map(|v| v.name.clone())
                .collect(),
            locals: BTreeSet::new(),
        };
        // propagate through locals to a fixpoint
        while !taint.vars.is_empty() {
            let newly: Vec<String> = p
                .locals
                .iter()
                .filter(|l| !taint.locals.contains(&l.name) && taint.reaches(&l.value))
                .map(|l| l.name.clone())
                .collect();
            if newly.is_empty() {
                break;
            }
            taint.locals.extend(newly);
        }
        taint
    }

    /// Whether `expr` reads a sensitive variable, directly or via a local.
    fn reaches(&self, expr: &Expr) -> bool {
        let mut tainted = false;
        let mut bound = Vec::new();
        walk_refs_scoped(expr, &mut bound, &mut |r, _| {
            tainted |= match (r.root(), r.parts.get(1)) {
                ("var", Some(n)) => self.vars.contains(n),
                ("local", Some(n)) => self.locals.contains(n),
                _ => false,
            };
        });
        tainted
    }

    /// The ANA302 sink test: the logged plaintext attributes of `r` that a
    /// sensitive value flows into.
    pub(crate) fn leaks<'a>(
        &'a self,
        r: &'a ResourceBlock,
    ) -> impl Iterator<Item = &'a Attribute> + 'a {
        r.attrs
            .iter()
            .filter(move |a| LOG_SINKS.contains(&a.name.as_str()) && self.reaches(&a.value))
    }
}

pub(crate) fn pass_taint(p: &Program, taint: &Taint, sink: &mut Sink<'_>) {
    let file = &p.filename;
    if taint.vars.is_empty() {
        return;
    }

    // ANA301 — sensitive values reaching plain outputs
    for o in &p.outputs {
        if taint.reaches(&o.value) {
            sink.emit(
                "ANA301",
                file,
                o.span,
                format!(
                    "output {:?} exposes a sensitive variable in plaintext (outputs are printed and stored in state)",
                    o.name
                ),
                Some("do not output sensitive values"),
            );
        }
    }

    // ANA302 — sensitive values in logged attributes
    for r in &p.resources {
        for a in taint.leaks(r) {
            sink.emit(
                "ANA302",
                file,
                a.span,
                format!(
                    "{}.{}.{}: a sensitive variable flows into a logged plaintext attribute",
                    r.rtype, r.name, a.name
                ),
                Some("pass the secret through a dedicated secret attribute or drop the reference"),
            );
        }
    }
}

/// The program-wide context every pass reads: the fold environment, the
/// taint sets and the declared names. [`crate::lint_program`] builds one
/// per run; the incremental pipeline caches it, which stays sound while
/// only resource blocks change (variables, locals, outputs and modules live
/// in other chunks): a body edit leaves it as it is, and which resource
/// blocks are declared the pipeline says itself, a [`DeclEdit`] staged on
/// top of its own names.
#[derive(Default)]
pub struct LintEnv {
    pub(crate) fold: FoldEnv,
    pub(crate) taint: Taint,
    pub(crate) decls: Decls,
}

impl LintEnv {
    pub fn build(p: &Program) -> LintEnv {
        LintEnv {
            fold: FoldEnv::build(p),
            taint: Taint::of(p),
            decls: Decls::of(p),
        }
    }
}
