//! Canonical rendering of the AST back to HCL source text.
//!
//! The porting tool (§3.1) *generates* programs as ASTs and needs to emit
//! readable HCL; round-tripping (`parse(render(f)) == f` modulo spans) is
//! covered by property tests. Formatting follows `terraform fmt`
//! conventions: two-space indent, attributes aligned per block, one blank
//! line between top-level blocks.
//!
//! Everything that writes values back as code — the porters, reconcile's
//! adoption, the synthesizer — turns them into literals with
//! [`value_to_expr`] and names into labels with [`sanitize_ident`], so what
//! they emit is what this renderer and the parser read back.

use std::fmt::Write as _;

use cloudless_types::{Span, Value};

use crate::ast::{BinOp, Block, Expr, File, MapKey, TemplatePart, UnaryOp};

/// A [`Value`] as the literal expression that evaluates to it. A map key is
/// written bare only where the identifier rule changes nothing but its case,
/// and is not `for`, which would open a comprehension; any other is quoted.
pub fn value_to_expr(v: &Value) -> Expr {
    let sp = Span::synthetic();
    match v {
        Value::Null => Expr::Null(sp),
        Value::Bool(b) => Expr::Bool(*b, sp),
        Value::Num(n) => Expr::Num(*n, sp),
        Value::Str(s) => Expr::Str(vec![TemplatePart::Lit(s.clone())], sp),
        Value::List(items) => Expr::List(items.iter().map(value_to_expr).collect(), sp),
        Value::Map(m) => {
            let key = |k: &String| {
                if k != "for" && sanitize_ident(k).eq_ignore_ascii_case(k) {
                    MapKey::Ident(k.clone())
                } else {
                    MapKey::Str(k.clone())
                }
            };
            Expr::Map(
                m.iter().map(|(k, v)| (key(k), value_to_expr(v))).collect(),
                sp,
            )
        }
    }
}

/// `s` as an identifier, the one rule for every generated label: each
/// character but an ASCII letter or digit becomes `_`, the result is
/// lowercase, and one that is empty or starts with a digit gains an `r`.
pub fn sanitize_ident(s: &str) -> String {
    let mut out: String = s
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, 'r');
    }
    out
}

/// Render a whole file.
pub fn render_file(file: &File) -> String {
    let mut out = String::new();
    for (i, b) in file.blocks.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        render_block(b, 0, &mut out);
    }
    out
}

/// Render a single block at the given indent level.
pub fn render_block(block: &Block, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let _ = write!(out, "{pad}{}", block.kind);
    for l in &block.labels {
        let _ = write!(out, " {l:?}");
    }
    if block.body.attrs.is_empty() && block.body.blocks.is_empty() {
        out.push_str(" {}\n");
        return;
    }
    out.push_str(" {\n");
    render_body(block, indent, out);
    let _ = writeln!(out, "{pad}}}");
}

fn render_body(block: &Block, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    // Align '=' within the run of attributes, like terraform fmt.
    let widest = block
        .body
        .attrs
        .iter()
        .map(|a| a.name.len())
        .max()
        .unwrap_or(0);
    for a in &block.body.attrs {
        let _ = writeln!(
            out,
            "{pad}{:width$} = {}",
            a.name,
            render_expr(&a.value),
            width = widest
        );
    }
    for (i, b) in block.body.blocks.iter().enumerate() {
        if i > 0 || !block.body.attrs.is_empty() {
            out.push('\n');
        }
        render_block(b, indent + 1, out);
    }
}

/// Render an expression.
pub fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Null(_) => "null".to_owned(),
        Expr::Bool(b, _) => b.to_string(),
        Expr::Num(n, _) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                format!("{}", *n as i64)
            } else {
                n.to_string()
            }
        }
        Expr::Str(parts, _) => {
            let mut s = String::from("\"");
            for p in parts {
                match p {
                    TemplatePart::Lit(text) => push_escaped(text, &mut s),
                    TemplatePart::Interp(inner) => {
                        let _ = write!(s, "${{{}}}", render_expr(inner));
                    }
                }
            }
            s.push('"');
            s
        }
        Expr::List(items, _) => {
            let inner: Vec<String> = items.iter().map(render_expr).collect();
            format!("[{}]", inner.join(", "))
        }
        Expr::Map(entries, _) => {
            if entries.is_empty() {
                return "{}".to_owned();
            }
            let inner: Vec<String> = entries
                .iter()
                .map(|(k, v)| {
                    let key = match k {
                        MapKey::Ident(s) => s.clone(),
                        MapKey::Str(s) => {
                            let mut quoted = String::from("\"");
                            push_escaped(s, &mut quoted);
                            quoted + "\""
                        }
                    };
                    format!("{key} = {}", render_expr(v))
                })
                .collect();
            format!("{{ {} }}", inner.join(", "))
        }
        Expr::Ref(r, _) => r.dotted(),
        Expr::Index(base, idx, _) => format!("{}[{}]", render_expr(base), render_expr(idx)),
        Expr::GetAttr(base, name, _) => format!("{}.{name}", render_expr(base)),
        Expr::Call(name, args, _) => {
            let inner: Vec<String> = args.iter().map(render_expr).collect();
            format!("{name}({})", inner.join(", "))
        }
        Expr::Unary(op, inner, _) => {
            let sym = match op {
                UnaryOp::Not => "!",
                UnaryOp::Neg => "-",
            };
            format!("{sym}{}", render_expr(inner))
        }
        Expr::Binary(op, l, r, _) => {
            format!(
                "{} {} {}",
                render_sub(l, *op),
                op.symbol(),
                render_sub(r, *op)
            )
        }
        Expr::Cond(c, t, f, _) => {
            // Parenthesize nested ternaries so re-parsing cannot re-associate.
            let wrap = |e: &Expr| match e {
                Expr::Cond(..) => format!("({})", render_expr(e)),
                _ => render_expr(e),
            };
            format!("{} ? {} : {}", wrap(c), wrap(t), wrap(f))
        }
        Expr::Paren(inner, _) => format!("({})", render_expr(inner)),
        Expr::Splat(base, parts, _) => {
            let mut s = format!("{}[*]", render_expr(base));
            for p in parts {
                s.push('.');
                s.push_str(p);
            }
            s
        }
        Expr::ForList {
            var,
            index_var,
            collection,
            body,
            cond,
            ..
        } => {
            let vars = match index_var {
                Some(i) => format!("{i}, {var}"),
                None => var.clone(),
            };
            let mut s = format!(
                "[for {vars} in {} : {}",
                render_expr(collection),
                render_expr(body)
            );
            if let Some(c) = cond {
                s.push_str(&format!(" if {}", render_expr(c)));
            }
            s.push(']');
            s
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
            let vars = match index_var {
                Some(i) => format!("{i}, {var}"),
                None => var.clone(),
            };
            let mut s = format!(
                "{{for {vars} in {} : {} => {}",
                render_expr(collection),
                render_expr(key),
                render_expr(value)
            );
            if let Some(c) = cond {
                s.push_str(&format!(" if {}", render_expr(c)));
            }
            s.push('}');
            s
        }
    }
}

/// Parenthesize nested binaries of *different* operators so rendering never
/// changes precedence on re-parse.
fn render_sub(e: &Expr, parent: BinOp) -> String {
    match e {
        Expr::Binary(op, ..) if *op != parent => format!("({})", render_expr(e)),
        Expr::Cond(..) => format!("({})", render_expr(e)),
        _ => render_expr(e),
    }
}

fn push_escaped(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '$' => out.push_str("\\$"), // avoid accidental `${` interpolation
            other => out.push(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    fn round_trip_expr(src: &str) -> String {
        let e = parse_expr(src, "t").expect("parse");
        render_expr(&e)
    }

    #[test]
    fn literals() {
        assert_eq!(round_trip_expr("null"), "null");
        assert_eq!(round_trip_expr("true"), "true");
        assert_eq!(round_trip_expr("42"), "42");
        assert_eq!(round_trip_expr("4.5"), "4.5");
        assert_eq!(round_trip_expr(r#""hi""#), "\"hi\"");
    }

    #[test]
    fn collections_and_refs() {
        assert_eq!(round_trip_expr("[1, 2]"), "[1, 2]");
        assert_eq!(round_trip_expr("{a = 1}"), "{ a = 1 }");
        assert_eq!(round_trip_expr("var.name"), "var.name");
        assert_eq!(round_trip_expr("aws_subnet.s[0].id"), "aws_subnet.s[0].id");
        assert_eq!(
            round_trip_expr("join(\"-\", [var.a])"),
            "join(\"-\", [var.a])"
        );
    }

    #[test]
    fn template_rendering() {
        assert_eq!(round_trip_expr(r#""vm-${var.n}-x""#), r#""vm-${var.n}-x""#);
    }

    #[test]
    fn operator_nesting_preserves_meaning() {
        // (1 + 2) * 3 must keep its parens on render
        let rendered = round_trip_expr("(1 + 2) * 3");
        let reparsed = parse_expr(&rendered, "t").unwrap();
        let scope = crate::eval::Scope::bare(&crate::eval::DeferAll);
        assert_eq!(
            crate::eval::eval(&reparsed, &scope).unwrap(),
            cloudless_types::Value::Num(9.0)
        );
    }

    #[test]
    fn block_rendering_and_reparse() {
        let src = r#"
resource "aws_virtual_machine" "vm1" {
  name    = var.vmName
  nic_ids = [aws_network_interface.n1.id]

  lifecycle {
    prevent_destroy = true
  }
}
"#;
        let f = parse(src, "t").unwrap();
        let rendered = render_file(&f);
        // renders with aligned '='
        assert!(rendered.contains("name    = var.vmName"));
        // and re-parses to the same structure (modulo spans)
        let f2 = parse(&rendered, "t").unwrap();
        assert_eq!(f2.blocks.len(), 1);
        assert_eq!(f2.blocks[0].labels, f.blocks[0].labels);
        assert_eq!(f2.blocks[0].body.attrs.len(), f.blocks[0].body.attrs.len());
        assert!(f2.blocks[0].body.block("lifecycle").is_some());
    }

    #[test]
    fn empty_block_renders_compact() {
        let f = parse(r#"data "aws_region" "current" {}"#, "t").unwrap();
        assert_eq!(render_file(&f), "data \"aws_region\" \"current\" {}\n");
    }

    #[test]
    fn escapes_survive_round_trip() {
        let src = r#"resource "t" "n" { v = "a\"b\\c\nd" }"#;
        let f = parse(src, "t").unwrap();
        let rendered = render_file(&f);
        let f2 = parse(&rendered, "t").unwrap();
        assert_eq!(
            f2.blocks[0].body.attr("v").unwrap().value.as_plain_str(),
            f.blocks[0].body.attr("v").unwrap().value.as_plain_str()
        );
    }
}
