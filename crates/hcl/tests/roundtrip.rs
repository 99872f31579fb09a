//! Property tests: rendering and re-parsing must preserve program meaning,
//! and a value written back as code reads back as that value.

use cloudless_hcl::ast::{Expr, MapKey, TemplatePart};
use cloudless_hcl::eval::{eval, DeferAll, Scope};
use cloudless_hcl::parser::parse_expr;
use cloudless_hcl::render::render_expr;
use cloudless_hcl::value_to_expr;
use cloudless_types::{Span, Value};
use proptest::prelude::*;

/// Map keys of every shape: identifiers, a leading digit, the keyword that
/// opens a comprehension, nothing, and any printable text.
fn arb_key() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z_][a-zA-Z0-9_]{0,6}",
        "[0-9][a-z0-9]{0,4}",
        Just("for".to_owned()),
        Just(String::new()),
        "\\PC{0,10}",
    ]
}

/// Whether a map anywhere in `e` sets one key twice.
fn repeats_a_key(e: &Expr) -> bool {
    match e {
        Expr::List(items, _) => items.iter().any(repeats_a_key),
        Expr::Map(entries, _) => {
            let keys: std::collections::BTreeSet<_> =
                entries.iter().map(|(k, _)| k.as_str()).collect();
            keys.len() < entries.len() || entries.iter().any(|(_, v)| repeats_a_key(v))
        }
        Expr::Cond(c, t, f, _) => [c, t, f].iter().any(|e| repeats_a_key(e)),
        _ => false,
    }
}

/// Strategy for arbitrary *evaluable* expressions (no references, so they
/// can be evaluated without a scope).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let sp = Span::synthetic();
    let leaf = prop_oneof![
        Just(Expr::Null(sp)),
        any::<bool>().prop_map(move |b| Expr::Bool(b, sp)),
        // keep numbers integral and small so arithmetic stays exact
        (-100i64..100).prop_map(move |n| Expr::Num(n as f64, sp)),
        "[a-z0-9 _-]{0,12}".prop_map(move |s| Expr::Str(vec![TemplatePart::Lit(s)], sp)),
    ];
    leaf.prop_recursive(3, 24, 4, move |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4)
                .prop_map(move |items| Expr::List(items, sp)),
            proptest::collection::vec(("[a-z][a-z0-9_]{0,6}", inner.clone()), 0..3).prop_map(
                move |entries| {
                    Expr::Map(
                        entries
                            .into_iter()
                            .map(|(k, v)| (MapKey::Ident(k), v))
                            .collect(),
                        sp,
                    )
                }
            ),
            proptest::collection::vec((arb_key(), inner.clone()), 0..3).prop_map(move |entries| {
                let entries = entries.into_iter().map(|(k, v)| (MapKey::Str(k), v));
                Expr::Map(entries.collect(), sp)
            }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(move |(c, t, f)| {
                Expr::Cond(Box::new(c), Box::new(t), Box::new(f), sp)
            }),
        ]
    })
}

/// Arbitrary values: any finite number, any printable text, any map key.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<f64>().prop_map(Value::Num),
        (-1000i64..1000).prop_map(|n| Value::Num(n as f64)),
        "\\PC{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::btree_map(arb_key(), inner, 0..4).prop_map(Value::Map),
        ]
    })
}

proptest! {
    /// What `value_to_expr` makes of a value renders to text that parses
    /// and evaluates back to that value.
    #[test]
    fn a_value_written_as_code_reads_back(v in arb_value()) {
        let rendered = render_expr(&value_to_expr(&v));
        let reparsed = parse_expr(&rendered, "rt")
            .unwrap_or_else(|d| panic!("rendered value must re-parse: {d}\nsource: {rendered}"));
        let back = eval(&reparsed, &Scope::bare(&DeferAll));
        prop_assert_eq!(back.as_ref().ok(), Some(&v), "through {}", rendered);
    }

    /// render → parse → eval gives the same value as evaluating directly;
    /// a map that sets one key twice renders to text the parser refuses
    /// (`HCL046`).
    #[test]
    fn render_parse_eval_round_trip(e in arb_expr()) {
        let scope = Scope::bare(&DeferAll);
        let direct = eval(&e, &scope);
        let rendered = render_expr(&e);
        if repeats_a_key(&e) {
            let refused = parse_expr(&rendered, "rt").err();
            let codes: Option<Vec<_>> = refused.map(|d| d.iter().map(|d| d.code.clone()).collect());
            prop_assert!(
                codes.as_ref().is_some_and(|c| c.iter().all(|c| c == "HCL046")),
                "{:?} ({})",
                codes,
                rendered
            );
        } else {
            let reparsed = parse_expr(&rendered, "rt")
                .unwrap_or_else(|d| panic!("rendered source must re-parse: {d}\nsource: {rendered}"));
            let via_text = eval(&reparsed, &scope);
            match (direct, via_text) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "value changed through render: {}", rendered),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "divergence through render: {:?} vs {:?} ({})", a, b, rendered),
            }
        }
    }
}

#[test]
fn map_with_quoted_keys_round_trips() {
    let src = r#"{ "us-east-1" = 1, plain = 2 }"#;
    let e = parse_expr(src, "t").unwrap();
    let rendered = render_expr(&e);
    let e2 = parse_expr(&rendered, "t").unwrap();
    let scope = Scope::bare(&DeferAll);
    assert_eq!(eval(&e, &scope).unwrap(), eval(&e2, &scope).unwrap());
}
