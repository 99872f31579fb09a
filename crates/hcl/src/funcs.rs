//! Built-in functions of the expression language.
//!
//! A pragmatic subset of Terraform's standard library: the string, numeric,
//! collection and CIDR helpers that real-world IaC modules lean on. Each
//! function validates its argument kinds and arity and reports precise
//! errors; the evaluator attaches the call-site span.

use std::collections::BTreeMap;

use cloudless_types::Value;

/// Error from a built-in function (message only; the evaluator adds spans).
#[derive(Debug, Clone, PartialEq)]
pub struct FuncError(pub String);

impl std::fmt::Display for FuncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FuncError {}

type R = Result<Value, FuncError>;

fn err(msg: impl Into<String>) -> FuncError {
    FuncError(msg.into())
}

fn arity(name: &str, args: &[Value], n: usize) -> Result<(), FuncError> {
    if args.len() != n {
        Err(err(format!(
            "{name} expects {n} argument(s), got {}",
            args.len()
        )))
    } else {
        Ok(())
    }
}

fn want_str<'a>(name: &str, v: &'a Value, pos: usize) -> Result<&'a str, FuncError> {
    v.as_str().ok_or_else(|| {
        err(format!(
            "{name}: argument {pos} must be a string, got {}",
            v.kind()
        ))
    })
}

fn want_num(name: &str, v: &Value, pos: usize) -> Result<f64, FuncError> {
    v.as_num().ok_or_else(|| {
        err(format!(
            "{name}: argument {pos} must be a number, got {}",
            v.kind()
        ))
    })
}

fn want_list<'a>(name: &str, v: &'a Value, pos: usize) -> Result<&'a [Value], FuncError> {
    v.as_list().ok_or_else(|| {
        err(format!(
            "{name}: argument {pos} must be a list, got {}",
            v.kind()
        ))
    })
}

fn want_map<'a>(
    name: &str,
    v: &'a Value,
    pos: usize,
) -> Result<&'a BTreeMap<String, Value>, FuncError> {
    v.as_map().ok_or_else(|| {
        err(format!(
            "{name}: argument {pos} must be a map, got {}",
            v.kind()
        ))
    })
}

/// All built-in function names (used by validation and code completion).
pub const BUILTINS: &[&str] = &[
    "abs",
    "ceil",
    "cidrhost",
    "cidrsubnet",
    "coalesce",
    "concat",
    "contains",
    "distinct",
    "element",
    "endswith",
    "flatten",
    "floor",
    "format",
    "join",
    "keys",
    "length",
    "lookup",
    "lower",
    "max",
    "merge",
    "min",
    "range",
    "replace",
    "reverse",
    "slice",
    "sort",
    "split",
    "startswith",
    "substr",
    "sum",
    "title",
    "tonumber",
    "tostring",
    "trimprefix",
    "trimspace",
    "trimsuffix",
    "upper",
    "values",
    "zipmap",
];

/// Dispatch a built-in function call.
pub fn call(name: &str, args: &[Value]) -> R {
    match name {
        "length" => {
            arity(name, args, 1)?;
            let n = match &args[0] {
                Value::Str(s) => s.chars().count(),
                Value::List(v) => v.len(),
                Value::Map(m) => m.len(),
                other => {
                    return Err(err(format!(
                        "length: expected string, list or map, got {}",
                        other.kind()
                    )))
                }
            };
            Ok(Value::from(n))
        }
        "upper" => {
            arity(name, args, 1)?;
            Ok(Value::from(want_str(name, &args[0], 1)?.to_uppercase()))
        }
        "lower" => {
            arity(name, args, 1)?;
            Ok(Value::from(want_str(name, &args[0], 1)?.to_lowercase()))
        }
        "title" => {
            arity(name, args, 1)?;
            let s = want_str(name, &args[0], 1)?;
            let mut out = String::with_capacity(s.len());
            let mut at_word_start = true;
            for c in s.chars() {
                if at_word_start {
                    out.extend(c.to_uppercase());
                } else {
                    out.push(c);
                }
                at_word_start = c.is_whitespace();
            }
            Ok(Value::from(out))
        }
        "trimspace" => {
            arity(name, args, 1)?;
            Ok(Value::from(want_str(name, &args[0], 1)?.trim()))
        }
        "trimprefix" => {
            arity(name, args, 2)?;
            let s = want_str(name, &args[0], 1)?;
            let prefix = want_str(name, &args[1], 2)?;
            Ok(Value::from(s.strip_prefix(prefix).unwrap_or(s)))
        }
        "trimsuffix" => {
            arity(name, args, 2)?;
            let s = want_str(name, &args[0], 1)?;
            let suffix = want_str(name, &args[1], 2)?;
            Ok(Value::from(s.strip_suffix(suffix).unwrap_or(s)))
        }
        "startswith" => {
            arity(name, args, 2)?;
            Ok(Value::Bool(
                want_str(name, &args[0], 1)?.starts_with(want_str(name, &args[1], 2)?),
            ))
        }
        "endswith" => {
            arity(name, args, 2)?;
            Ok(Value::Bool(
                want_str(name, &args[0], 1)?.ends_with(want_str(name, &args[1], 2)?),
            ))
        }
        "sum" => {
            arity(name, args, 1)?;
            let list = want_list(name, &args[0], 1)?;
            let mut total = 0.0;
            for (i, v) in list.iter().enumerate() {
                total += want_num(name, v, i + 1)?;
            }
            Ok(Value::Num(total))
        }
        "slice" => {
            arity(name, args, 3)?;
            let list = want_list(name, &args[0], 1)?;
            let start = want_num(name, &args[1], 2)? as usize;
            let end = want_num(name, &args[2], 3)? as usize;
            if start > end || end > list.len() {
                return Err(err(format!(
                    "slice: range {start}..{end} invalid for list of length {}",
                    list.len()
                )));
            }
            Ok(Value::List(list[start..end].to_vec()))
        }
        "join" => {
            arity(name, args, 2)?;
            let sep = want_str(name, &args[0], 1)?;
            let list = want_list(name, &args[1], 2)?;
            let parts: Vec<String> = list.iter().map(Value::interpolate).collect();
            Ok(Value::from(parts.join(sep)))
        }
        "split" => {
            arity(name, args, 2)?;
            let sep = want_str(name, &args[0], 1)?;
            let s = want_str(name, &args[1], 2)?;
            let parts: Vec<Value> = if sep.is_empty() {
                s.chars().map(|c| Value::from(c.to_string())).collect()
            } else {
                s.split(sep).map(Value::from).collect()
            };
            Ok(Value::List(parts))
        }
        "replace" => {
            arity(name, args, 3)?;
            let s = want_str(name, &args[0], 1)?;
            let from = want_str(name, &args[1], 2)?;
            let to = want_str(name, &args[2], 3)?;
            Ok(Value::from(s.replace(from, to)))
        }
        "substr" => {
            arity(name, args, 3)?;
            let s = want_str(name, &args[0], 1)?;
            let off = want_num(name, &args[1], 2)? as usize;
            let len = want_num(name, &args[2], 3)?;
            let chars: Vec<char> = s.chars().collect();
            if off > chars.len() {
                return Err(err(format!("substr: offset {off} beyond string length")));
            }
            let end = if len < 0.0 {
                chars.len()
            } else {
                (off + len as usize).min(chars.len())
            };
            Ok(Value::from(chars[off..end].iter().collect::<String>()))
        }
        "format" => {
            if args.is_empty() {
                return Err(err("format expects at least 1 argument"));
            }
            let fmt = want_str(name, &args[0], 1)?;
            format_impl(fmt, &args[1..])
        }
        "concat" => {
            let mut out = Vec::new();
            for (i, a) in args.iter().enumerate() {
                out.extend_from_slice(want_list(name, a, i + 1)?);
            }
            Ok(Value::List(out))
        }
        "element" => {
            arity(name, args, 2)?;
            let list = want_list(name, &args[0], 1)?;
            if list.is_empty() {
                return Err(err("element: list is empty"));
            }
            let i = want_num(name, &args[1], 2)? as usize;
            Ok(list[i % list.len()].clone()) // Terraform wraps around
        }
        "contains" => {
            arity(name, args, 2)?;
            let list = want_list(name, &args[0], 1)?;
            Ok(Value::Bool(list.contains(&args[1])))
        }
        "flatten" => {
            arity(name, args, 1)?;
            let list = want_list(name, &args[0], 1)?;
            let mut out = Vec::new();
            flatten_into(list, &mut out);
            Ok(Value::List(out))
        }
        "distinct" => {
            arity(name, args, 1)?;
            let list = want_list(name, &args[0], 1)?;
            let mut out: Vec<Value> = Vec::new();
            for v in list {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Ok(Value::List(out))
        }
        "sort" => {
            arity(name, args, 1)?;
            let list = want_list(name, &args[0], 1)?;
            let mut strs = Vec::with_capacity(list.len());
            for (i, v) in list.iter().enumerate() {
                strs.push(want_str(name, v, i + 1)?.to_owned());
            }
            strs.sort();
            Ok(Value::List(strs.into_iter().map(Value::Str).collect()))
        }
        "reverse" => {
            arity(name, args, 1)?;
            let mut list = want_list(name, &args[0], 1)?.to_vec();
            list.reverse();
            Ok(Value::List(list))
        }
        "lookup" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(err("lookup expects 2 or 3 arguments"));
            }
            let m = want_map(name, &args[0], 1)?;
            let k = want_str(name, &args[1], 2)?;
            match m.get(k) {
                Some(v) => Ok(v.clone()),
                None => match args.get(2) {
                    Some(default) => Ok(default.clone()),
                    None => Err(err(format!("lookup: key {k:?} not found and no default"))),
                },
            }
        }
        "keys" => {
            arity(name, args, 1)?;
            let m = want_map(name, &args[0], 1)?;
            Ok(Value::List(m.keys().cloned().map(Value::Str).collect()))
        }
        "values" => {
            arity(name, args, 1)?;
            let m = want_map(name, &args[0], 1)?;
            Ok(Value::List(m.values().cloned().collect()))
        }
        "merge" => {
            let mut out = BTreeMap::new();
            for (i, a) in args.iter().enumerate() {
                for (k, v) in want_map(name, a, i + 1)? {
                    out.insert(k.clone(), v.clone());
                }
            }
            Ok(Value::Map(out))
        }
        "zipmap" => {
            arity(name, args, 2)?;
            let ks = want_list(name, &args[0], 1)?;
            let vs = want_list(name, &args[1], 2)?;
            if ks.len() != vs.len() {
                return Err(err(format!(
                    "zipmap: {} keys but {} values",
                    ks.len(),
                    vs.len()
                )));
            }
            let mut out = BTreeMap::new();
            for (k, v) in ks.iter().zip(vs) {
                out.insert(want_str(name, k, 1)?.to_owned(), v.clone());
            }
            Ok(Value::Map(out))
        }
        "min" | "max" => {
            if args.is_empty() {
                return Err(err(format!("{name} expects at least 1 argument")));
            }
            let mut best = want_num(name, &args[0], 1)?;
            for (i, a) in args.iter().enumerate().skip(1) {
                let n = want_num(name, a, i + 1)?;
                best = if name == "min" {
                    best.min(n)
                } else {
                    best.max(n)
                };
            }
            Ok(Value::Num(best))
        }
        "abs" => {
            arity(name, args, 1)?;
            Ok(Value::Num(want_num(name, &args[0], 1)?.abs()))
        }
        "ceil" => {
            arity(name, args, 1)?;
            Ok(Value::Num(want_num(name, &args[0], 1)?.ceil()))
        }
        "floor" => {
            arity(name, args, 1)?;
            Ok(Value::Num(want_num(name, &args[0], 1)?.floor()))
        }
        "range" => {
            let (start, end, step) = match args.len() {
                1 => (0.0, want_num(name, &args[0], 1)?, 1.0),
                2 => (
                    want_num(name, &args[0], 1)?,
                    want_num(name, &args[1], 2)?,
                    1.0,
                ),
                3 => (
                    want_num(name, &args[0], 1)?,
                    want_num(name, &args[1], 2)?,
                    want_num(name, &args[2], 3)?,
                ),
                _ => return Err(err("range expects 1..3 arguments")),
            };
            if step == 0.0 {
                return Err(err("range: step must be non-zero"));
            }
            let mut out = Vec::new();
            let mut x = start;
            while (step > 0.0 && x < end) || (step < 0.0 && x > end) {
                out.push(Value::Num(x));
                x += step;
                if out.len() > 1_000_000 {
                    return Err(err("range: too many elements"));
                }
            }
            Ok(Value::List(out))
        }
        "coalesce" => {
            for a in args {
                if !a.is_null() && *a != Value::Str(String::new()) {
                    return Ok(a.clone());
                }
            }
            Err(err("coalesce: all arguments are null or empty"))
        }
        "tostring" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::from(s.clone())),
                Value::Num(_) | Value::Bool(_) => Ok(Value::from(args[0].interpolate())),
                other => Err(err(format!("tostring: cannot convert {}", other.kind()))),
            }
        }
        "tonumber" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Num(n) => Ok(Value::Num(*n)),
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| err(format!("tonumber: invalid number {s:?}"))),
                other => Err(err(format!("tonumber: cannot convert {}", other.kind()))),
            }
        }
        "cidrsubnet" => {
            arity(name, args, 3)?;
            let prefix = want_str(name, &args[0], 1)?;
            let newbits = want_num(name, &args[1], 2)? as u32;
            let netnum = want_num(name, &args[2], 3)? as u32;
            cidr_subnet(prefix, newbits, netnum).map(Value::from)
        }
        "cidrhost" => {
            arity(name, args, 2)?;
            let prefix = want_str(name, &args[0], 1)?;
            let hostnum = want_num(name, &args[1], 2)? as u32;
            cidr_host(prefix, hostnum).map(Value::from)
        }
        other => Err(err(format!("unknown function {other:?}"))),
    }
}

fn flatten_into(list: &[Value], out: &mut Vec<Value>) {
    for v in list {
        match v {
            Value::List(inner) => flatten_into(inner, out),
            other => out.push(other.clone()),
        }
    }
}

/// Minimal printf: `%s` (interpolated), `%d` (integer), `%f` (float), `%%`.
fn format_impl(fmt: &str, args: &[Value]) -> R {
    let mut out = String::new();
    let mut it = fmt.chars().peekable();
    let mut next = 0usize;
    while let Some(c) = it.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('%') => out.push('%'),
            Some(spec @ ('s' | 'd' | 'f')) => {
                let a = args
                    .get(next)
                    .ok_or_else(|| err(format!("format: missing argument for %{spec}")))?;
                next += 1;
                match spec {
                    's' => out.push_str(&a.interpolate()),
                    'd' => {
                        let n = a.as_num().ok_or_else(|| {
                            err(format!("format: %d needs a number, got {}", a.kind()))
                        })?;
                        out.push_str(&format!("{}", n as i64));
                    }
                    'f' => {
                        let n = a.as_num().ok_or_else(|| {
                            err(format!("format: %f needs a number, got {}", a.kind()))
                        })?;
                        out.push_str(&format!("{n:.6}"));
                    }
                    _ => unreachable!(),
                }
            }
            Some(other) => return Err(err(format!("format: unsupported verb %{other}"))),
            None => return Err(err("format: trailing %")),
        }
    }
    if next < args.len() {
        return Err(err(format!(
            "format: {} unused argument(s)",
            args.len() - next
        )));
    }
    Ok(Value::from(out))
}

/// `cidrsubnet("10.0.0.0/16", 8, 2)` → `"10.0.2.0/24"`.
fn cidr_subnet(prefix: &str, newbits: u32, netnum: u32) -> Result<String, FuncError> {
    let block: cloudless_types::cidr::Cidr = prefix
        .parse()
        .map_err(|e| err(format!("cidrsubnet: {e}")))?;
    block
        .subnet(newbits, netnum)
        .map(|c| c.to_string())
        .map_err(|e| err(format!("cidrsubnet: {e}")))
}

/// `cidrhost("10.0.2.0/24", 5)` → `"10.0.2.5"`.
fn cidr_host(prefix: &str, hostnum: u32) -> Result<String, FuncError> {
    let block: cloudless_types::cidr::Cidr =
        prefix.parse().map_err(|e| err(format!("cidrhost: {e}")))?;
    block
        .host(hostnum)
        .map(cloudless_types::cidr::format_addr)
        .map_err(|e| err(format!("cidrhost: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::value::vmap;

    fn s(x: &str) -> Value {
        Value::from(x)
    }

    fn n(x: f64) -> Value {
        Value::Num(x)
    }

    #[test]
    fn string_functions() {
        assert_eq!(call("upper", &[s("ab")]).unwrap(), s("AB"));
        assert_eq!(call("lower", &[s("AB")]).unwrap(), s("ab"));
        assert_eq!(
            call("title", &[s("hello cloud world")]).unwrap(),
            s("Hello Cloud World")
        );
        assert_eq!(call("trimspace", &[s("  x ")]).unwrap(), s("x"));
        assert_eq!(
            call("replace", &[s("a-b-c"), s("-"), s("_")]).unwrap(),
            s("a_b_c")
        );
        assert_eq!(
            call("substr", &[s("cloudless"), n(0.0), n(5.0)]).unwrap(),
            s("cloud")
        );
        assert_eq!(
            call("substr", &[s("cloudless"), n(5.0), n(-1.0)]).unwrap(),
            s("less")
        );
    }

    #[test]
    fn join_and_split_invert() {
        let list = Value::from(vec!["a", "b", "c"]);
        let joined = call("join", &[s(","), list.clone()]).unwrap();
        assert_eq!(joined, s("a,b,c"));
        assert_eq!(call("split", &[s(","), joined]).unwrap(), list);
    }

    #[test]
    fn format_verbs() {
        assert_eq!(
            call("format", &[s("vm-%s-%d"), s("web"), n(3.0)]).unwrap(),
            s("vm-web-3")
        );
        assert_eq!(call("format", &[s("100%%")]).unwrap(), s("100%"));
        assert!(call("format", &[s("%s")]).is_err()); // missing arg
        assert!(call("format", &[s("x"), s("extra")]).is_err()); // unused arg
        assert!(call("format", &[s("%q"), s("x")]).is_err()); // bad verb
    }

    #[test]
    fn collection_functions() {
        let l = Value::from(vec![3i64, 1, 2]);
        assert_eq!(call("length", std::slice::from_ref(&l)).unwrap(), n(3.0));
        assert_eq!(call("length", &[s("héllo")]).unwrap(), n(5.0));
        assert_eq!(call("element", &[l.clone(), n(1.0)]).unwrap(), n(1.0));
        // element wraps
        assert_eq!(call("element", &[l.clone(), n(4.0)]).unwrap(), n(1.0));
        assert_eq!(
            call("contains", &[l.clone(), n(2.0)]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(call("contains", &[l, n(9.0)]).unwrap(), Value::Bool(false));
        let nested = Value::List(vec![
            Value::from(vec![1i64, 2]),
            Value::List(vec![Value::from(vec![3i64])]),
            n(4.0),
        ]);
        assert_eq!(
            call("flatten", &[nested]).unwrap(),
            Value::from(vec![1i64, 2, 3, 4])
        );
        assert_eq!(
            call("distinct", &[Value::from(vec![1i64, 2, 1, 3])]).unwrap(),
            Value::from(vec![1i64, 2, 3])
        );
        assert_eq!(
            call("sort", &[Value::from(vec!["b", "a"])]).unwrap(),
            Value::from(vec!["a", "b"])
        );
        assert_eq!(
            call("reverse", &[Value::from(vec![1i64, 2])]).unwrap(),
            Value::from(vec![2i64, 1])
        );
    }

    #[test]
    fn map_functions() {
        let m = vmap([("a", n(1.0)), ("b", n(2.0))]);
        assert_eq!(call("lookup", &[m.clone(), s("a")]).unwrap(), n(1.0));
        assert_eq!(
            call("lookup", &[m.clone(), s("z"), n(9.0)]).unwrap(),
            n(9.0)
        );
        assert!(call("lookup", &[m.clone(), s("z")]).is_err());
        assert_eq!(
            call("keys", std::slice::from_ref(&m)).unwrap(),
            Value::from(vec!["a", "b"])
        );
        assert_eq!(
            call("values", std::slice::from_ref(&m)).unwrap(),
            Value::List(vec![n(1.0), n(2.0)])
        );
        let m2 = vmap([("b", n(9.0)), ("c", n(3.0))]);
        assert_eq!(
            call("merge", &[m, m2]).unwrap(),
            vmap([("a", n(1.0)), ("b", n(9.0)), ("c", n(3.0))])
        );
        assert_eq!(
            call(
                "zipmap",
                &[Value::from(vec!["x", "y"]), Value::from(vec![1i64, 2])]
            )
            .unwrap(),
            vmap([("x", n(1.0)), ("y", n(2.0))])
        );
        assert!(call("zipmap", &[Value::from(vec!["x"]), Value::List(vec![])]).is_err());
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(call("min", &[n(3.0), n(1.0), n(2.0)]).unwrap(), n(1.0));
        assert_eq!(call("max", &[n(3.0), n(1.0)]).unwrap(), n(3.0));
        assert_eq!(call("abs", &[n(-4.0)]).unwrap(), n(4.0));
        assert_eq!(call("ceil", &[n(1.2)]).unwrap(), n(2.0));
        assert_eq!(call("floor", &[n(1.8)]).unwrap(), n(1.0));
        assert_eq!(
            call("range", &[n(3.0)]).unwrap(),
            Value::List(vec![n(0.0), n(1.0), n(2.0)])
        );
        assert_eq!(
            call("range", &[n(1.0), n(7.0), n(3.0)]).unwrap(),
            Value::List(vec![n(1.0), n(4.0)])
        );
        assert!(call("range", &[n(0.0), n(1.0), n(0.0)]).is_err());
    }

    #[test]
    fn conversions_and_coalesce() {
        assert_eq!(call("tostring", &[n(4.0)]).unwrap(), s("4"));
        assert_eq!(call("tonumber", &[s(" 4.5 ")]).unwrap(), n(4.5));
        assert!(call("tonumber", &[s("x")]).is_err());
        assert_eq!(
            call("coalesce", &[Value::Null, s(""), s("hit")]).unwrap(),
            s("hit")
        );
        assert!(call("coalesce", &[Value::Null]).is_err());
    }

    #[test]
    fn cidr_functions() {
        assert_eq!(
            call("cidrsubnet", &[s("10.0.0.0/16"), n(8.0), n(2.0)]).unwrap(),
            s("10.0.2.0/24")
        );
        assert_eq!(
            call("cidrsubnet", &[s("192.168.0.0/24"), n(4.0), n(15.0)]).unwrap(),
            s("192.168.0.240/28")
        );
        assert!(call("cidrsubnet", &[s("10.0.0.0/30"), n(8.0), n(0.0)]).is_err());
        assert!(call("cidrsubnet", &[s("10.0.0.0/16"), n(2.0), n(4.0)]).is_err());
        assert_eq!(
            call("cidrhost", &[s("10.0.2.0/24"), n(5.0)]).unwrap(),
            s("10.0.2.5")
        );
        assert!(call("cidrhost", &[s("10.0.2.0/30"), n(9.0)]).is_err());
        assert!(call("cidrhost", &[s("not-a-cidr"), n(1.0)]).is_err());
    }

    #[test]
    fn trim_and_affix_functions() {
        assert_eq!(
            call("trimprefix", &[s("vm-web"), s("vm-")]).unwrap(),
            s("web")
        );
        assert_eq!(call("trimprefix", &[s("web"), s("vm-")]).unwrap(), s("web"));
        assert_eq!(
            call("trimsuffix", &[s("web.tf"), s(".tf")]).unwrap(),
            s("web")
        );
        assert_eq!(
            call("startswith", &[s("aws_vpc"), s("aws_")]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            call("startswith", &[s("gcp_vpc"), s("aws_")]).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            call("endswith", &[s("main.tf"), s(".tf")]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn sum_and_slice() {
        assert_eq!(
            call("sum", &[Value::from(vec![1i64, 2, 3])]).unwrap(),
            n(6.0)
        );
        assert_eq!(call("sum", &[Value::List(vec![])]).unwrap(), n(0.0));
        assert!(call("sum", &[Value::from(vec!["x"])]).is_err());
        assert_eq!(
            call("slice", &[Value::from(vec![1i64, 2, 3, 4]), n(1.0), n(3.0)]).unwrap(),
            Value::from(vec![2i64, 3])
        );
        assert!(call("slice", &[Value::from(vec![1i64]), n(0.0), n(5.0)]).is_err());
        assert!(call("slice", &[Value::from(vec![1i64]), n(1.0), n(0.0)]).is_err());
    }

    #[test]
    fn unknown_function() {
        assert!(call("no_such_fn", &[]).is_err());
    }

    #[test]
    fn builtins_list_is_sorted_and_dispatches() {
        let mut sorted = BUILTINS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, BUILTINS, "keep BUILTINS sorted");
        // every listed builtin must dispatch (not hit the unknown arm)
        for name in BUILTINS {
            let e = call(name, &[]);
            if let Err(FuncError(msg)) = &e {
                assert!(
                    !msg.starts_with("unknown function"),
                    "{name} listed but not dispatched"
                );
            }
        }
    }
}
