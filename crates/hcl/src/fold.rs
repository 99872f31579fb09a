//! Constant folding: a *partial* evaluator over [`Expr`].
//!
//! [`crate::eval::eval`] is all-or-nothing: the moment any subexpression
//! defers (references a not-yet-created resource) the whole expression
//! defers, even when its value does not actually depend on the unknown
//! part. This module folds what it can *around* unknowns:
//!
//! * `false && aws_vm.v.flag` folds to `false` (short circuit),
//! * `true || aws_vm.v.flag` folds to `true`,
//! * `cond ? x : x` folds to `x` when both arms fold to the same value,
//! * `unknown == unknown` stays [`Folded::Unknown`] — no guessing.
//!
//! Consumers: the `cloudless-analyze` dataflow passes (checking count/port/
//! CIDR constraints written as expressions) and `cloudless-validate`'s
//! password-flag rule (resolving deferred `admin_password` values whose
//! deferral turns out to be dead code).

use cloudless_types::Value;

use crate::ast::{BinOp, Expr};
use crate::eval::{eval, EvalError, Scope};

/// Result of partially evaluating an expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Folded {
    /// The expression has exactly this value, regardless of any deferred
    /// references it may syntactically contain.
    Known(Value),
    /// The value genuinely depends on something unresolvable right now.
    Unknown,
}

impl Folded {
    /// The folded value, if any.
    pub fn known(self) -> Option<Value> {
        match self {
            Folded::Known(v) => Some(v),
            Folded::Unknown => None,
        }
    }
}

/// Fold `expr` as far as the scope allows. Errors other than deferral
/// (type errors, unknown functions…) also yield [`Folded::Unknown`]: the
/// caller is doing best-effort analysis, not evaluation, so "this will
/// error" and "I can't tell" are treated alike.
pub fn fold(expr: &Expr, scope: &Scope<'_>) -> Folded {
    match eval(expr, scope) {
        Ok(v) => Folded::Known(v),
        Err(EvalError::Deferred { .. }) | Err(EvalError::UnknownRef { .. }) => {
            fold_structurally(expr, scope)
        }
        Err(_) => Folded::Unknown,
    }
}

/// Structural fallback used when direct evaluation defers: recurse into the
/// operator shapes whose results can be determined by a subset of operands.
fn fold_structurally(expr: &Expr, scope: &Scope<'_>) -> Folded {
    match expr {
        Expr::Paren(inner, _) => fold(inner, scope),
        Expr::Binary(BinOp::And, lhs, rhs, _) => {
            // false on either side wins, independent of the other side
            match (fold(lhs, scope), fold(rhs, scope)) {
                (Folded::Known(Value::Bool(false)), _) | (_, Folded::Known(Value::Bool(false))) => {
                    Folded::Known(Value::Bool(false))
                }
                _ => Folded::Unknown,
            }
        }
        Expr::Binary(BinOp::Or, lhs, rhs, _) => {
            // true on either side wins
            match (fold(lhs, scope), fold(rhs, scope)) {
                (Folded::Known(Value::Bool(true)), _) | (_, Folded::Known(Value::Bool(true))) => {
                    Folded::Known(Value::Bool(true))
                }
                _ => Folded::Unknown,
            }
        }
        Expr::Cond(cond, then, els, _) => match fold(cond, scope) {
            Folded::Known(Value::Bool(true)) => fold(then, scope),
            Folded::Known(Value::Bool(false)) => fold(els, scope),
            _ => {
                // unknown condition: if both arms agree the value is known
                let t = fold(then, scope);
                let e = fold(els, scope);
                match (t, e) {
                    (Folded::Known(a), Folded::Known(b)) if a == b => Folded::Known(a),
                    _ => Folded::Unknown,
                }
            }
        },
        _ => Folded::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::DeferAll;
    use crate::parser::parse_expr;

    fn fold_src(src: &str) -> Folded {
        let e = parse_expr(src, "t.tf").expect("parse");
        fold(&e, &Scope::bare(&DeferAll))
    }

    #[test]
    fn plain_constants_fold() {
        assert_eq!(fold_src("1 + 2"), Folded::Known(Value::from(3.0)));
        assert_eq!(fold_src("\"a${1+1}\""), Folded::Known(Value::from("a2")));
    }

    #[test]
    fn deferred_references_stay_unknown() {
        assert_eq!(fold_src("aws_vm.v.id"), Folded::Unknown);
        assert_eq!(fold_src("aws_vm.v.id == \"x\""), Folded::Unknown);
    }

    #[test]
    fn short_circuit_through_unknowns() {
        assert_eq!(
            fold_src("false && aws_vm.v.flag"),
            Folded::Known(Value::Bool(false))
        );
        assert_eq!(
            fold_src("aws_vm.v.flag && false"),
            Folded::Known(Value::Bool(false))
        );
        assert_eq!(
            fold_src("true || aws_vm.v.flag"),
            Folded::Known(Value::Bool(true))
        );
        assert_eq!(fold_src("true && aws_vm.v.flag"), Folded::Unknown);
    }

    #[test]
    fn conditional_with_agreeing_arms() {
        assert_eq!(
            fold_src("aws_vm.v.flag ? \"x\" : \"x\""),
            Folded::Known(Value::from("x"))
        );
        assert_eq!(fold_src("aws_vm.v.flag ? \"x\" : \"y\""), Folded::Unknown);
        // known condition selects the live arm even when the dead arm defers
        assert_eq!(
            fold_src("1 == 1 ? \"pw\" : aws_kv.k.secret"),
            Folded::Known(Value::from("pw"))
        );
    }

    #[test]
    fn nested_parens() {
        assert_eq!(
            fold_src("(false && aws_vm.v.flag)"),
            Folded::Known(Value::Bool(false))
        );
    }
}
