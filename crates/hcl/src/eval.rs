//! Expression evaluation.
//!
//! Evaluation happens in two phases, mirroring Terraform's plan/apply split:
//!
//! 1. **Plan time** — variables, locals and already-known data are available,
//!    but *computed* attributes of resources that have not been created yet
//!    (e.g. `aws_network_interface.n1.id`) are not. The [`Resolver`] returns
//!    `Ok(None)` for those, which surfaces as [`EvalError::Deferred`]; the
//!    program expander then records the whole attribute as deferred.
//! 2. **Apply time** — `cloudless-deploy` re-evaluates deferred attributes
//!    with a resolver backed by live state, where every dependency has been
//!    created, so `Deferred` no longer occurs.
//!
//! All errors carry the source span of the sub-expression that failed.

use std::collections::BTreeMap;
use std::fmt;

use cloudless_types::{Span, Value};

use crate::ast::{BinOp, Expr, RefKind, Reference, TemplatePart, UnaryOp};
use crate::funcs;

/// Resolves references that live outside the lexical scope: resources
/// (`aws_vm.v.id`), data sources (`data.aws_region.current.name`) and module
/// outputs (`module.net.subnet_id`).
pub trait Resolver {
    /// * `Ok(Some(v))` — the reference is known now.
    /// * `Ok(None)` — the reference is legitimate but its value is computed
    ///   at apply time (plan must defer).
    /// * `Err(msg)` — the reference does not exist.
    fn resolve(&self, reference: &Reference) -> Result<Option<Value>, String>;
}

/// A resolver that knows nothing — every resource reference defers. Useful
/// for pure plan-time evaluation tests.
pub struct DeferAll;

impl Resolver for DeferAll {
    fn resolve(&self, _reference: &Reference) -> Result<Option<Value>, String> {
        Ok(None)
    }
}

/// A resolver backed by a static map from dotted reference to value.
#[derive(Default)]
pub struct MapResolver {
    entries: BTreeMap<String, Value>,
}

impl MapResolver {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, dotted: impl Into<String>, v: Value) -> &mut Self {
        self.entries.insert(dotted.into(), v);
        self
    }
}

impl Resolver for MapResolver {
    fn resolve(&self, reference: &Reference) -> Result<Option<Value>, String> {
        // Longest-prefix match so `aws_vm.v` can resolve to a map and the
        // remaining parts traverse into it.
        let parts = &reference.parts;
        for take in (1..=parts.len()).rev() {
            let key = parts[..take].join(".");
            if let Some(v) = self.entries.get(&key) {
                let mut cur = v.clone();
                for p in &parts[take..] {
                    match cur.get(p) {
                        Some(next) => cur = next.clone(),
                        None => {
                            return Err(format!(
                                "reference {} has no attribute {p:?}",
                                reference.dotted()
                            ))
                        }
                    }
                }
                return Ok(Some(cur));
            }
        }
        Ok(None)
    }
}

/// Lexical evaluation scope.
pub struct Scope<'a> {
    /// `var.*` values.
    pub vars: &'a BTreeMap<String, Value>,
    /// `local.*` values.
    pub locals: &'a BTreeMap<String, Value>,
    /// `count.index`, when expanding a `count` block.
    pub count_index: Option<u32>,
    /// (`each.key`, `each.value`), when expanding a `for_each` block.
    pub each: Option<(String, Value)>,
    /// External resolver for resource/data/module references.
    pub resolver: &'a dyn Resolver,
    /// Loop-variable bindings introduced by `for` expressions, innermost
    /// last (shadowing wins).
    pub bindings: Vec<(String, Value)>,
}

impl<'a> Scope<'a> {
    /// A scope with only a resolver (no vars/locals/iteration).
    pub fn bare(resolver: &'a dyn Resolver) -> Scope<'a> {
        static EMPTY: once_empty::Empty = once_empty::Empty;
        Scope {
            vars: EMPTY.map(),
            locals: EMPTY.map(),
            count_index: None,
            each: None,
            resolver,
            bindings: Vec::new(),
        }
    }

    /// A child scope with extra loop-variable bindings.
    fn with_bindings(&self, extra: Vec<(String, Value)>) -> Scope<'a> {
        let mut bindings = self.bindings.clone();
        bindings.extend(extra);
        Scope {
            vars: self.vars,
            locals: self.locals,
            count_index: self.count_index,
            each: self.each.clone(),
            resolver: self.resolver,
            bindings,
        }
    }

    /// Look up a loop-variable binding (innermost first).
    fn binding(&self, name: &str) -> Option<&Value> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

/// Trick to hand out `&'static BTreeMap` for empty scopes without lazy
/// statics: an empty map constructed once per call site would not live long
/// enough, so keep a single leaked instance.
mod once_empty {
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    use cloudless_types::Value;

    pub struct Empty;

    impl Empty {
        pub fn map(&self) -> &'static BTreeMap<String, Value> {
            static MAP: OnceLock<BTreeMap<String, Value>> = OnceLock::new();
            MAP.get_or_init(BTreeMap::new)
        }
    }
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The expression references a value only known at apply time.
    Deferred { reference: Reference, span: Span },
    /// The reference does not exist at all.
    UnknownRef {
        reference: Reference,
        span: Span,
        reason: String,
    },
    /// Type mismatch or bad operand.
    Type { message: String, span: Span },
    /// Function call failed.
    Func { message: String, span: Span },
    /// `count.index` / `each.*` used outside a count/for_each block.
    NoIteration { what: &'static str, span: Span },
    /// Division by zero.
    DivByZero { span: Span },
}

impl EvalError {
    /// The source span of the failing sub-expression.
    pub fn span(&self) -> Span {
        match self {
            EvalError::Deferred { span, .. }
            | EvalError::UnknownRef { span, .. }
            | EvalError::Type { span, .. }
            | EvalError::Func { span, .. }
            | EvalError::NoIteration { span, .. }
            | EvalError::DivByZero { span } => *span,
        }
    }

    /// Whether this is the benign plan-time "value not yet known" case.
    pub fn is_deferred(&self) -> bool {
        matches!(self, EvalError::Deferred { .. })
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Deferred { reference, .. } => {
                write!(
                    f,
                    "value of {} is not known until apply",
                    reference.dotted()
                )
            }
            EvalError::UnknownRef {
                reference, reason, ..
            } => {
                write!(f, "unknown reference {}: {reason}", reference.dotted())
            }
            EvalError::Type { message, .. } => f.write_str(message),
            EvalError::Func { message, .. } => f.write_str(message),
            EvalError::NoIteration { what, .. } => {
                write!(
                    f,
                    "{what} may only be used inside a block with that construct"
                )
            }
            EvalError::DivByZero { .. } => f.write_str("division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluate `expr` under `scope`.
pub fn eval(expr: &Expr, scope: &Scope<'_>) -> Result<Value, EvalError> {
    match expr {
        Expr::Null(_) => Ok(Value::Null),
        Expr::Bool(b, _) => Ok(Value::Bool(*b)),
        Expr::Num(n, _) => Ok(Value::Num(*n)),
        Expr::Str(parts, _) => eval_template(parts, scope),
        Expr::List(items, _) => {
            let mut out = Vec::with_capacity(items.len());
            for i in items {
                out.push(eval(i, scope)?);
            }
            Ok(Value::List(out))
        }
        Expr::Map(entries, _) => {
            let mut out = BTreeMap::new();
            for (k, v) in entries {
                out.insert(k.as_str().to_owned(), eval(v, scope)?);
            }
            Ok(Value::Map(out))
        }
        Expr::Ref(r, span) => eval_ref(r, *span, scope),
        Expr::Index(base, idx, span) => {
            let b = eval(base, scope)?;
            let i = eval(idx, scope)?;
            index_value(&b, &i, *span)
        }
        Expr::GetAttr(base, name, span) => {
            let b = eval(base, scope)?;
            match b.get(name) {
                Some(v) => Ok(v.clone()),
                None => Err(EvalError::Type {
                    message: format!("value of kind {} has no attribute {name:?}", b.kind()),
                    span: *span,
                }),
            }
        }
        Expr::Call(name, args, span) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, scope)?);
            }
            funcs::call(name, &vals).map_err(|e| EvalError::Func {
                message: e.0,
                span: *span,
            })
        }
        Expr::Unary(op, e, span) => {
            let v = eval(e, scope)?;
            match op {
                UnaryOp::Not => Ok(Value::Bool(!v.truthy())),
                UnaryOp::Neg => match v.as_num() {
                    Some(n) => Ok(Value::Num(-n)),
                    None => Err(EvalError::Type {
                        message: format!("cannot negate {}", v.kind()),
                        span: *span,
                    }),
                },
            }
        }
        Expr::Binary(op, l, r, span) => eval_binary(*op, l, r, *span, scope),
        Expr::Cond(c, t, e, _) => {
            if eval(c, scope)?.truthy() {
                eval(t, scope)
            } else {
                eval(e, scope)
            }
        }
        Expr::Paren(e, _) => eval(e, scope),
        Expr::Splat(base, parts, span) => {
            let b = eval(base, scope)?;
            // Terraform semantics: a non-list base becomes a 1-element list;
            // null becomes an empty list.
            let items: Vec<Value> = match b {
                Value::List(v) => v,
                Value::Null => vec![],
                other => vec![other],
            };
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let mut cur = item;
                for p in parts {
                    match cur.get(p) {
                        Some(v) => cur = v.clone(),
                        None => {
                            return Err(EvalError::Type {
                                message: format!(
                                    "splat element of kind {} has no attribute {p:?}",
                                    cur.kind()
                                ),
                                span: *span,
                            })
                        }
                    }
                }
                out.push(cur);
            }
            Ok(Value::List(out))
        }
        Expr::ForList {
            var,
            index_var,
            collection,
            body,
            cond,
            span,
        } => {
            let mut out = Vec::new();
            for (idx, val) in for_iterations(collection, scope, *span)? {
                let mut bindings = vec![(var.clone(), val)];
                if let Some(iv) = index_var {
                    bindings.insert(0, (iv.clone(), idx));
                }
                let child = scope.with_bindings(bindings);
                if let Some(c) = cond {
                    if !eval(c, &child)?.truthy() {
                        continue;
                    }
                }
                out.push(eval(body, &child)?);
            }
            Ok(Value::List(out))
        }
        Expr::ForMap {
            var,
            index_var,
            collection,
            key,
            value,
            cond,
            span,
        } => {
            let mut out = BTreeMap::new();
            for (idx, val) in for_iterations(collection, scope, *span)? {
                let mut bindings = vec![(var.clone(), val)];
                if let Some(iv) = index_var {
                    bindings.insert(0, (iv.clone(), idx));
                }
                let child = scope.with_bindings(bindings);
                if let Some(c) = cond {
                    if !eval(c, &child)?.truthy() {
                        continue;
                    }
                }
                // a number or bool key is converted as `tostring` converts it
                let k = match eval(key, &child)? {
                    k @ (Value::Str(_) | Value::Num(_) | Value::Bool(_)) => k.interpolate(),
                    k => {
                        return Err(EvalError::Type {
                            message: format!(
                                "for-expression key must be a string, got {}",
                                k.kind()
                            ),
                            span: *span,
                        })
                    }
                };
                out.insert(k, eval(value, &child)?);
            }
            Ok(Value::Map(out))
        }
    }
}

/// The (index-or-key, value) iteration sequence of a `for` collection.
fn for_iterations(
    collection: &Expr,
    scope: &Scope<'_>,
    span: Span,
) -> Result<Vec<(Value, Value)>, EvalError> {
    match eval(collection, scope)? {
        Value::List(items) => Ok(items
            .into_iter()
            .enumerate()
            .map(|(i, v)| (Value::from(i), v))
            .collect()),
        Value::Map(m) => Ok(m.into_iter().map(|(k, v)| (Value::from(k), v)).collect()),
        other => Err(EvalError::Type {
            message: format!("cannot iterate over {}", other.kind()),
            span,
        }),
    }
}

fn eval_template(parts: &[TemplatePart], scope: &Scope<'_>) -> Result<Value, EvalError> {
    // A template that is exactly one interpolation yields the value itself
    // (so `nic_ids = ["${aws_nic.n1.id}"]` keeps non-string values intact).
    if let [TemplatePart::Interp(e)] = parts {
        return eval(e, scope);
    }
    let mut out = String::new();
    for p in parts {
        match p {
            TemplatePart::Lit(s) => out.push_str(s),
            TemplatePart::Interp(e) => out.push_str(&eval(e, scope)?.interpolate()),
        }
    }
    Ok(Value::Str(out))
}

fn eval_ref(r: &Reference, span: Span, scope: &Scope<'_>) -> Result<Value, EvalError> {
    let unknown = |reason: String| EvalError::UnknownRef {
        reference: r.clone(),
        span,
        reason,
    };
    match r.kind() {
        RefKind::Var => {
            let name = r
                .parts
                .get(1)
                .ok_or_else(|| unknown("missing variable name".into()))?;
            let base = scope
                .vars
                .get(name)
                .ok_or_else(|| unknown(format!("variable {name:?} is not declared")))?;
            traverse(base, &r.parts[2..], r, span)
        }
        RefKind::Local => {
            let name = r
                .parts
                .get(1)
                .ok_or_else(|| unknown("missing local name".into()))?;
            let base = scope
                .locals
                .get(name)
                .ok_or_else(|| unknown(format!("local {name:?} is not declared")))?;
            traverse(base, &r.parts[2..], r, span)
        }
        RefKind::Count => {
            if r.parts.get(1).map(String::as_str) == Some("index") {
                match scope.count_index {
                    Some(i) => Ok(Value::from(i as i64)),
                    None => Err(EvalError::NoIteration {
                        what: "count.index",
                        span,
                    }),
                }
            } else {
                Err(unknown("only count.index is supported".into()))
            }
        }
        RefKind::Each => {
            let (k, v) = scope.each.as_ref().ok_or(EvalError::NoIteration {
                what: "each.key / each.value",
                span,
            })?;
            match r.parts.get(1).map(String::as_str) {
                Some("key") => traverse(&Value::from(k.clone()), &r.parts[2..], r, span),
                Some("value") => traverse(v, &r.parts[2..], r, span),
                _ => Err(unknown("expected each.key or each.value".into())),
            }
        }
        // loop variables shadow everything below
        _ if scope.binding(r.root()).is_some() => {
            let base = scope.binding(r.root()).expect("checked").clone();
            traverse(&base, &r.parts[1..], r, span)
        }
        // data sources, module outputs and resource attributes go through
        // the external resolver
        _ => match scope.resolver.resolve(r) {
            Ok(Some(v)) => Ok(v),
            Ok(None) => Err(EvalError::Deferred {
                reference: r.clone(),
                span,
            }),
            Err(reason) => Err(unknown(reason)),
        },
    }
}

fn traverse(base: &Value, rest: &[String], r: &Reference, span: Span) -> Result<Value, EvalError> {
    let mut cur = base.clone();
    for p in rest {
        match cur.get(p) {
            Some(v) => cur = v.clone(),
            None => {
                return Err(EvalError::Type {
                    message: format!(
                        "{}: value of kind {} has no attribute {p:?}",
                        r.dotted(),
                        cur.kind()
                    ),
                    span,
                })
            }
        }
    }
    Ok(cur)
}

fn index_value(base: &Value, idx: &Value, span: Span) -> Result<Value, EvalError> {
    match (base, idx) {
        (Value::List(items), Value::Num(n)) => {
            let i = *n as i64;
            if i < 0 || i as usize >= items.len() {
                Err(EvalError::Type {
                    message: format!("index {i} out of bounds for list of length {}", items.len()),
                    span,
                })
            } else {
                Ok(items[i as usize].clone())
            }
        }
        (Value::Map(m), Value::Str(k)) => m.get(k).cloned().ok_or_else(|| EvalError::Type {
            message: format!("map has no key {k:?}"),
            span,
        }),
        (b, i) => Err(EvalError::Type {
            message: format!("cannot index {} with {}", b.kind(), i.kind()),
            span,
        }),
    }
}

fn eval_binary(
    op: BinOp,
    l: &Expr,
    r: &Expr,
    span: Span,
    scope: &Scope<'_>,
) -> Result<Value, EvalError> {
    // Short-circuit logic first.
    match op {
        BinOp::And => {
            let lv = eval(l, scope)?;
            if !lv.truthy() {
                return Ok(Value::Bool(false));
            }
            return Ok(Value::Bool(eval(r, scope)?.truthy()));
        }
        BinOp::Or => {
            let lv = eval(l, scope)?;
            if lv.truthy() {
                return Ok(Value::Bool(true));
            }
            return Ok(Value::Bool(eval(r, scope)?.truthy()));
        }
        _ => {}
    }
    let lv = eval(l, scope)?;
    let rv = eval(r, scope)?;
    let type_err = |msg: String| EvalError::Type { message: msg, span };
    match op {
        BinOp::Eq => Ok(Value::Bool(lv == rv)),
        BinOp::NotEq => Ok(Value::Bool(lv != rv)),
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let (a, b) = match (&lv, &rv) {
                (Value::Num(a), Value::Num(b)) => (*a, *b),
                _ => {
                    return Err(type_err(format!(
                        "cannot compare {} with {}",
                        lv.kind(),
                        rv.kind()
                    )))
                }
            };
            let out = match op {
                BinOp::Lt => a < b,
                BinOp::LtEq => a <= b,
                BinOp::Gt => a > b,
                BinOp::GtEq => a >= b,
                _ => unreachable!(),
            };
            Ok(Value::Bool(out))
        }
        BinOp::Add => match (&lv, &rv) {
            (Value::Num(a), Value::Num(b)) => Ok(Value::Num(a + b)),
            (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
            _ => Err(type_err(format!(
                "cannot add {} and {}",
                lv.kind(),
                rv.kind()
            ))),
        },
        BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let (a, b) = match (&lv, &rv) {
                (Value::Num(a), Value::Num(b)) => (*a, *b),
                _ => {
                    return Err(type_err(format!(
                        "operator '{}' needs numbers, got {} and {}",
                        op.symbol(),
                        lv.kind(),
                        rv.kind()
                    )))
                }
            };
            match op {
                BinOp::Sub => Ok(Value::Num(a - b)),
                BinOp::Mul => Ok(Value::Num(a * b)),
                BinOp::Div => {
                    if b == 0.0 {
                        Err(EvalError::DivByZero { span })
                    } else {
                        Ok(Value::Num(a / b))
                    }
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        Err(EvalError::DivByZero { span })
                    } else {
                        Ok(Value::Num(a % b))
                    }
                }
                _ => unreachable!(),
            }
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use cloudless_types::value::vmap;

    fn eval_src(src: &str, scope: &Scope<'_>) -> Result<Value, EvalError> {
        let e = parse_expr(src, "test").expect("parse");
        eval(&e, scope)
    }

    fn scope_with_vars(vars: BTreeMap<String, Value>) -> (BTreeMap<String, Value>, DeferAll) {
        (vars, DeferAll)
    }

    #[test]
    fn arithmetic_and_precedence() {
        let s = Scope::bare(&DeferAll);
        assert_eq!(eval_src("1 + 2 * 3", &s).unwrap(), Value::Num(7.0));
        assert_eq!(eval_src("(1 + 2) * 3", &s).unwrap(), Value::Num(9.0));
        assert_eq!(eval_src("7 % 3", &s).unwrap(), Value::Num(1.0));
        assert_eq!(eval_src("10 / 4", &s).unwrap(), Value::Num(2.5));
        assert!(matches!(
            eval_src("1 / 0", &s),
            Err(EvalError::DivByZero { .. })
        ));
        assert!(matches!(
            eval_src("1 % 0", &s),
            Err(EvalError::DivByZero { .. })
        ));
    }

    #[test]
    fn string_concat_and_compare() {
        let s = Scope::bare(&DeferAll);
        assert_eq!(eval_src(r#""a" + "b""#, &s).unwrap(), Value::from("ab"));
        assert_eq!(eval_src(r#""a" == "a""#, &s).unwrap(), Value::Bool(true));
        assert_eq!(eval_src("1 < 2", &s).unwrap(), Value::Bool(true));
        assert!(eval_src(r#""a" < "b""#, &s).is_err());
        assert!(eval_src(r#""a" + 1"#, &s).is_err());
    }

    #[test]
    fn logic_short_circuits() {
        let s = Scope::bare(&DeferAll);
        // RHS would error (unknown ref) but short-circuit avoids evaluating it
        assert_eq!(
            eval_src("false && var.missing", &s).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_src("true || var.missing", &s).unwrap(),
            Value::Bool(true)
        );
        assert!(eval_src("true && var.missing", &s).is_err());
        assert_eq!(eval_src("!false", &s).unwrap(), Value::Bool(true));
    }

    #[test]
    fn conditional_lazy() {
        let s = Scope::bare(&DeferAll);
        assert_eq!(
            eval_src(r#"true ? "yes" : var.missing"#, &s).unwrap(),
            Value::from("yes")
        );
        assert_eq!(eval_src("2 > 1 ? 1 : 2", &s).unwrap(), Value::Num(1.0));
    }

    #[test]
    fn variables_and_locals() {
        let vars: BTreeMap<String, Value> = [
            ("name".to_owned(), Value::from("web")),
            (
                "net".to_owned(),
                vmap([("cidr", Value::from("10.0.0.0/16"))]),
            ),
        ]
        .into();
        let locals: BTreeMap<String, Value> = [("n".to_owned(), Value::from(3i64))].into();
        let s = Scope {
            vars: &vars,
            locals: &locals,
            count_index: None,
            each: None,
            resolver: &DeferAll,
            bindings: Vec::new(),
        };
        assert_eq!(eval_src("var.name", &s).unwrap(), Value::from("web"));
        assert_eq!(
            eval_src("var.net.cidr", &s).unwrap(),
            Value::from("10.0.0.0/16")
        );
        assert_eq!(eval_src("local.n * 2", &s).unwrap(), Value::Num(6.0));
        assert!(matches!(
            eval_src("var.nope", &s),
            Err(EvalError::UnknownRef { .. })
        ));
        assert!(eval_src("var.name.deeper", &s).is_err());
    }

    #[test]
    fn count_and_each() {
        let (vars, r) = scope_with_vars(BTreeMap::new());
        let locals = BTreeMap::new();
        let mut s = Scope {
            vars: &vars,
            locals: &locals,
            count_index: Some(2),
            each: Some(("eu".to_owned(), vmap([("cidr", Value::from("x"))]))),
            resolver: &r,
            bindings: Vec::new(),
        };
        assert_eq!(eval_src("count.index", &s).unwrap(), Value::Num(2.0));
        assert_eq!(eval_src("each.key", &s).unwrap(), Value::from("eu"));
        assert_eq!(eval_src("each.value.cidr", &s).unwrap(), Value::from("x"));
        s.count_index = None;
        s.each = None;
        assert!(matches!(
            eval_src("count.index", &s),
            Err(EvalError::NoIteration { .. })
        ));
        assert!(matches!(
            eval_src("each.key", &s),
            Err(EvalError::NoIteration { .. })
        ));
    }

    #[test]
    fn resource_refs_defer_or_resolve() {
        let s = Scope::bare(&DeferAll);
        let err = eval_src("aws_network_interface.n1.id", &s).unwrap_err();
        assert!(err.is_deferred());

        let mut mr = MapResolver::new();
        mr.insert(
            "aws_network_interface.n1",
            vmap([("id", Value::from("nic-42"))]),
        );
        let s = Scope::bare(&mr);
        assert_eq!(
            eval_src("aws_network_interface.n1.id", &s).unwrap(),
            Value::from("nic-42")
        );
        assert!(matches!(
            eval_src("aws_network_interface.n1.nope", &s),
            Err(EvalError::UnknownRef { .. })
        ));
    }

    #[test]
    fn template_single_interp_preserves_type() {
        let mut mr = MapResolver::new();
        mr.insert("aws_vm.v", vmap([("ports", Value::from(vec![80i64, 443]))]));
        let s = Scope::bare(&mr);
        assert_eq!(
            eval_src(r#""${aws_vm.v.ports}""#, &s).unwrap(),
            Value::from(vec![80i64, 443])
        );
        // mixed template coerces to string
        assert_eq!(
            eval_src(r#""p=${aws_vm.v.ports[0]}""#, &s).unwrap(),
            Value::from("p=80")
        );
    }

    #[test]
    fn indexing() {
        let s = Scope::bare(&DeferAll);
        assert_eq!(eval_src("[1, 2, 3][1]", &s).unwrap(), Value::Num(2.0));
        assert_eq!(eval_src(r#"{a = 1}["a"]"#, &s).unwrap(), Value::Num(1.0));
        assert!(eval_src("[1][5]", &s).is_err());
        assert!(eval_src(r#"{a = 1}["b"]"#, &s).is_err());
        assert!(eval_src(r#"5[0]"#, &s).is_err());
    }

    #[test]
    fn function_call_errors_carry_span() {
        let s = Scope::bare(&DeferAll);
        let err = eval_src(r#"  lookup({}, "k")"#, &s).unwrap_err();
        match err {
            EvalError::Func { span, .. } => assert_eq!(span.start.col, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn builtin_through_eval() {
        let s = Scope::bare(&DeferAll);
        assert_eq!(
            eval_src(r#"join("-", ["a", "b"])"#, &s).unwrap(),
            Value::from("a-b")
        );
        assert_eq!(
            eval_src(
                r#"cidrsubnet("10.0.0.0/16", 8, count.index)"#,
                &Scope {
                    count_index: Some(3),
                    ..Scope::bare(&DeferAll)
                }
            )
            .unwrap(),
            Value::from("10.0.3.0/24")
        );
    }
}
