//! Splat and `for` expressions: parsing, evaluation, rendering, and use in
//! full programs.

use std::collections::BTreeMap;

use cloudless::cloud::Catalog;
use cloudless::validate::{validate, ValidationLevel};
use cloudless_hcl::eval::{eval, DeferAll, MapResolver, Scope};
use cloudless_hcl::parser::parse_expr;
use cloudless_hcl::program::{expand, ModuleLibrary, Program};
use cloudless_hcl::render::render_expr;
use cloudless_types::value::vmap;
use cloudless_types::Value;

fn eval_with(src: &str, vars: BTreeMap<String, Value>) -> Value {
    let e = parse_expr(src, "t").expect("parse");
    let locals = BTreeMap::new();
    let scope = Scope {
        vars: &vars,
        locals: &locals,
        count_index: None,
        each: None,
        resolver: &DeferAll,
        bindings: Vec::new(),
    };
    eval(&e, &scope).expect("eval")
}

fn vars(entries: Vec<(&str, Value)>) -> BTreeMap<String, Value> {
    entries
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

// ---------- splat ----------

#[test]
fn splat_projects_attribute_over_list() {
    let subnets = Value::List(vec![
        vmap([
            ("id", Value::from("sn-0")),
            ("cidr", Value::from("10.0.0.0/24")),
        ]),
        vmap([
            ("id", Value::from("sn-1")),
            ("cidr", Value::from("10.0.1.0/24")),
        ]),
    ]);
    let v = eval_with("var.subnets[*].id", vars(vec![("subnets", subnets)]));
    assert_eq!(v, Value::from(vec!["sn-0", "sn-1"]));
}

#[test]
fn splat_on_scalar_wraps_and_on_null_is_empty() {
    let one = vmap([("id", Value::from("only"))]);
    assert_eq!(
        eval_with("var.x[*].id", vars(vec![("x", one)])),
        Value::from(vec!["only"])
    );
    assert_eq!(
        eval_with("var.x[*]", vars(vec![("x", Value::Null)])),
        Value::List(vec![])
    );
}

#[test]
fn splat_resolves_through_resource_references() {
    let mut r = MapResolver::new();
    r.insert(
        "aws_subnet.s",
        Value::List(vec![
            vmap([("id", Value::from("sn-a"))]),
            vmap([("id", Value::from("sn-b"))]),
        ]),
    );
    let e = parse_expr("aws_subnet.s[*].id", "t").unwrap();
    let scope = Scope::bare(&r);
    assert_eq!(eval(&e, &scope).unwrap(), Value::from(vec!["sn-a", "sn-b"]));
}

#[test]
fn splat_renders_round_trip() {
    let e = parse_expr("aws_subnet.s[*].id", "t").unwrap();
    assert_eq!(render_expr(&e), "aws_subnet.s[*].id");
}

// ---------- for-list ----------

#[test]
fn for_list_maps_and_filters() {
    let v = eval_with(
        r#"[for n in var.nums : n * 2 if n > 1]"#,
        vars(vec![("nums", Value::from(vec![1i64, 2, 3]))]),
    );
    assert_eq!(v, Value::List(vec![Value::Num(4.0), Value::Num(6.0)]));
}

#[test]
fn for_list_binds_index_and_value() {
    let v = eval_with(
        r#"[for i, s in var.names : "${i}-${s}"]"#,
        vars(vec![("names", Value::from(vec!["a", "b"]))]),
    );
    assert_eq!(v, Value::from(vec!["0-a", "1-b"]));
}

#[test]
fn for_list_over_map_iterates_values_with_keys() {
    let m = vmap([("x", Value::from(1i64)), ("y", Value::from(2i64))]);
    let v = eval_with(
        r#"[for k, val in var.m : "${k}=${val}"]"#,
        vars(vec![("m", m)]),
    );
    assert_eq!(v, Value::from(vec!["x=1", "y=2"]));
}

// ---------- for-map ----------

#[test]
fn for_map_builds_lookup_tables() {
    let subnets = Value::List(vec![
        vmap([
            ("name", Value::from("a")),
            ("cidr", Value::from("10.0.0.0/24")),
        ]),
        vmap([
            ("name", Value::from("b")),
            ("cidr", Value::from("10.0.1.0/24")),
        ]),
    ]);
    let v = eval_with(
        r#"{for s in var.subnets : s.name => s.cidr}"#,
        vars(vec![("subnets", subnets)]),
    );
    assert_eq!(
        v,
        vmap([
            ("a", Value::from("10.0.0.0/24")),
            ("b", Value::from("10.0.1.0/24")),
        ])
    );
}

#[test]
fn for_map_with_condition() {
    let v = eval_with(
        r#"{for k, n in var.m : k => n if n > 10}"#,
        vars(vec![(
            "m",
            vmap([("lo", Value::from(5i64)), ("hi", Value::from(50i64))]),
        )]),
    );
    assert_eq!(v, vmap([("hi", Value::from(50i64))]));
}

#[test]
fn nested_for_with_shadowing() {
    // inner `x` shadows outer `x`
    let v = eval_with(
        r#"[for x in var.outer : [for x in var.inner : x][0] + x]"#,
        vars(vec![
            ("outer", Value::from(vec![10i64, 20])),
            ("inner", Value::from(vec![100i64])),
        ]),
    );
    assert_eq!(v, Value::List(vec![Value::Num(110.0), Value::Num(120.0)]));
}

#[test]
fn non_string_map_key_is_an_error() {
    let e = parse_expr(r#"{for n in var.nums : n => n}"#, "t").unwrap();
    let binding = vars(vec![("nums", Value::from(vec![1i64]))]);
    let locals = BTreeMap::new();
    let scope = Scope {
        vars: &binding,
        locals: &locals,
        count_index: None,
        each: None,
        resolver: &DeferAll,
        bindings: Vec::new(),
    };
    assert!(eval(&e, &scope).is_err());
}

// ---------- in full programs ----------

#[test]
fn program_uses_splat_and_for_in_resources() {
    let src = r#"
variable "zones" { default = ["a", "b", "c"] }
locals {
  upper_zones = [for z in var.zones : upper(z)]
  zone_map    = {for i, z in var.zones : z => i}
}
resource "aws_subnet" "s" {
  count      = 3
  vpc_id     = aws_vpc.v.id
  cidr_block = cidrsubnet("10.0.0.0/16", 8, count.index)
}
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_load_balancer" "lb" {
  name       = "lb"
  subnet_ids = aws_subnet.s[*].id
}
output "zones_upper" { value = local.upper_zones }
output "zone_of_b" { value = local.zone_map["b"] }
"#;
    let program = Program::from_file(cloudless_hcl::parse(src, "t").unwrap()).unwrap();
    let manifest = expand(
        &program,
        &BTreeMap::new(),
        &ModuleLibrary::new(),
        &MapResolver::new(),
    )
    .expect("expand");
    assert_eq!(manifest.instances.len(), 5);
    // the splat defers (subnet ids unknown) and records the dependency
    let lb = manifest
        .instance(&"aws_load_balancer.lb".parse().unwrap())
        .unwrap();
    assert_eq!(lb.deferred.len(), 1);
    assert_eq!(lb.depends_on.len(), 3, "depends on all three subnets");
    // locals with for-expressions evaluated at plan time
    match manifest.outputs.get("zones_upper") {
        Some(cloudless_hcl::program::OutputValue::Known(v)) => {
            assert_eq!(*v, Value::from(vec!["A", "B", "C"]));
        }
        other => panic!("{other:?}"),
    }
    match manifest.outputs.get("zone_of_b") {
        Some(cloudless_hcl::program::OutputValue::Known(v)) => {
            assert_eq!(*v, Value::from(1i64));
        }
        other => panic!("{other:?}"),
    }
}

/// A load balancer over a fleet of subnets, which reads them as `read`
/// says, expanded with every resource deferred.
fn fleet_read_by(read: &str) -> cloudless_hcl::Manifest {
    let src = format!(
        r#"
resource "aws_vpc" "v" {{ cidr_block = "10.0.0.0/16" }}
resource "aws_subnet" "s" {{
  for_each   = {{ a = "10.0.0.0/24", b = "10.0.1.0/24" }}
  vpc_id     = aws_vpc.v.id
  cidr_block = each.value
}}
resource "aws_load_balancer" "lb" {{
  name       = "lb"
  subnet_ids = {read}
}}
"#
    );
    let program = Program::from_file(cloudless_hcl::parse(&src, "t").unwrap()).unwrap();
    let modules = ModuleLibrary::new();
    expand(&program, &BTreeMap::new(), &modules, &DeferAll).expect("expand")
}

#[test]
fn a_for_over_a_block_reads_as_its_splat() {
    let lb = "aws_load_balancer.lb".parse().unwrap();
    let verdicts = |m: &cloudless_hcl::Manifest| {
        let report = validate(m, &Catalog::standard(), ValidationLevel::CloudRules, None);
        let found = report.diagnostics.items.iter();
        found
            .map(|d| (d.code.clone(), d.message.clone()))
            .collect::<Vec<_>>()
    };
    for (splat, comprehension, codes) in [
        (
            "aws_subnet.s[*].id",
            "[for s in aws_subnet.s : s.id]",
            &[][..],
        ),
        (
            "aws_subnet.s[*].id",
            "[for k, s in aws_subnet.s : s.id if k != \"c\"]",
            &[],
        ),
        (
            "aws_subnet.s[*]",
            "[for s in aws_subnet.s : s]",
            &["VAL206"],
        ),
        (
            "aws_vpc.v[*].id",
            "[for v in aws_vpc.v : v.id]",
            &["VAL205"],
        ),
    ] {
        let (by_splat, by_for) = (fleet_read_by(splat), fleet_read_by(comprehension));
        let (a, b) = (
            by_splat.instance(&lb).unwrap(),
            by_for.instance(&lb).unwrap(),
        );
        assert_eq!(
            a.deferred[0].waiting_on, b.deferred[0].waiting_on,
            "{comprehension}"
        );
        assert_eq!(a.depends_on, b.depends_on, "{comprehension}");
        let verdict = verdicts(&by_for);
        assert_eq!(verdicts(&by_splat), verdict, "{comprehension}");
        let found: Vec<&str> = verdict.iter().map(|(code, _)| code.as_str()).collect();
        assert_eq!(found, codes, "{comprehension}");
    }
}

#[test]
fn for_each_driven_by_for_expression() {
    let src = r#"
variable "envs" { default = ["dev", "prod"] }
resource "aws_s3_bucket" "b" {
  for_each = [for e in var.envs : "bucket-${e}"]
  bucket   = each.key
}
"#;
    let program = Program::from_file(cloudless_hcl::parse(src, "t").unwrap()).unwrap();
    let manifest = expand(
        &program,
        &BTreeMap::new(),
        &ModuleLibrary::new(),
        &MapResolver::new(),
    )
    .expect("expand");
    assert_eq!(manifest.instances.len(), 2);
    assert!(manifest
        .instance(&"aws_s3_bucket.b[\"bucket-dev\"]".parse().unwrap())
        .is_some());
}

#[test]
fn render_round_trips_for_expressions() {
    for src in [
        r#"[for x in var.l : x + 1]"#,
        r#"[for i, x in var.l : "${i}" if x > 0]"#,
        r#"{for k, v in var.m : k => v if v}"#,
        r#"aws_subnet.s[*].id"#,
    ] {
        let e = parse_expr(src, "t").unwrap();
        let rendered = render_expr(&e);
        let e2 = parse_expr(&rendered, "t").unwrap_or_else(|d| panic!("re-parse {rendered}: {d}"));
        assert_eq!(render_expr(&e2), rendered, "{src}");
    }
}
