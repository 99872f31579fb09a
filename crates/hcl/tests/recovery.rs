//! Parser error recovery and span accuracy.
//!
//! The lint engine and the validator both hang their diagnostics on parser
//! spans, so these must be byte-exact against the original source — and a
//! single malformed construct must not swallow the rest of the file.

use cloudless_hcl::ast::Expr;
use cloudless_hcl::parse;
use cloudless_hcl::program::Program;

/// Slice the source by a span's byte offsets.
fn slice(src: &str, span: cloudless_types::Span) -> &str {
    &src[span.start.offset as usize..span.end.offset as usize]
}

#[test]
fn unterminated_string_points_at_the_opening_quote() {
    let src = "resource \"aws_vpc\" \"v\" {\n  name = \"oops\n}\n";
    let diags = parse(src, "t.tf").expect_err("must be rejected");
    let d = diags
        .iter()
        .find(|d| d.message.contains("unterminated string literal"))
        .expect("unterminated string reported");
    assert_eq!(d.code, "HCL001");
    assert_eq!(d.span.start.line, 2);
    // the span starts exactly at the opening quote of `"oops`
    let quote = src.find("\"oops").unwrap() as u32;
    assert_eq!(d.span.start.offset, quote);
    assert_eq!(d.span.start.col, 10);
}

#[test]
fn unterminated_block_comment_is_reported() {
    let src = "/* never closed\nresource \"aws_vpc\" \"v\" {}\n";
    let diags = parse(src, "t.tf").expect_err("must be rejected");
    let d = diags.iter().next().unwrap();
    assert_eq!(d.code, "HCL001");
    assert!(d.message.contains("unterminated block comment"));
    assert_eq!(d.span.start.offset, 0);
}

#[test]
fn stray_tokens_do_not_swallow_the_rest_of_the_file() {
    // two junk top-level tokens around a perfectly good block: the parser
    // must report *both* and still notice the block in between
    let src = "123\nresource \"aws_vpc\" \"v\" { cidr_block = \"10.0.0.0/16\" }\n456\n";
    let diags = parse(src, "t.tf").expect_err("junk is rejected");
    let errors: Vec<_> = diags
        .iter()
        .filter(|d| d.message.contains("expected block keyword"))
        .collect();
    assert_eq!(errors.len(), 2, "both stray tokens reported: {diags:?}");
    assert_eq!(errors[0].span.start.line, 1);
    assert_eq!(errors[1].span.start.line, 3);
    for e in errors {
        assert_eq!(e.code, "HCL002");
    }
}

#[test]
fn missing_brace_is_an_error_not_a_hang() {
    let src = "resource \"aws_vpc\" \"v\"\n";
    let diags = parse(src, "t.tf").expect_err("must be rejected");
    assert!(diags
        .iter()
        .any(|d| d.code == "HCL002" && d.message.contains("expected")));
}

#[test]
fn multi_error_file_reports_each_malformed_attribute() {
    // two attributes with missing right-hand sides in two separate blocks
    let src = "resource \"aws_vpc\" \"a\" {\n  cidr_block =\n}\nresource \"aws_vpc\" \"b\" {\n  cidr_block =\n}\n";
    let diags = parse(src, "t.tf").expect_err("must be rejected");
    let lines: Vec<u32> = diags.iter().map(|d| d.span.start.line).collect();
    assert!(
        diags.iter().count() >= 2,
        "one bad attribute must not mask the next: {diags:?}"
    );
    assert!(lines.iter().any(|&l| l <= 3), "first block reported");
    assert!(lines.iter().any(|&l| l >= 4), "second block reported");
}

#[test]
fn attribute_spans_are_byte_exact() {
    let src = r#"resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  name       = "core"
}
resource "aws_subnet" "app" {
  vpc_id = aws_vpc.main.id
}
"#;
    let program = Program::from_file(parse(src, "t.tf").unwrap()).unwrap();

    let vpc = program.resource("aws_vpc", "main").unwrap();
    let cidr = vpc.attrs.iter().find(|a| a.name == "cidr_block").unwrap();
    assert_eq!(slice(src, cidr.span), "cidr_block = \"10.0.0.0/16\"");

    let subnet = program.resource("aws_subnet", "app").unwrap();
    let vpc_id = subnet.attrs.iter().find(|a| a.name == "vpc_id").unwrap();
    assert_eq!(slice(src, vpc_id.span), "vpc_id = aws_vpc.main.id");
    // the expression's own span covers exactly the reference text
    assert_eq!(slice(src, vpc_id.value.span()), "aws_vpc.main.id");
}

#[test]
fn reference_spans_inside_templates_are_exact() {
    let src = "resource \"aws_virtual_machine\" \"web\" {\n  name = \"web-${var.env}\"\n}\n";
    let program = Program::from_file(parse(src, "t.tf").unwrap()).unwrap();
    let vm = program.resource("aws_virtual_machine", "web").unwrap();
    let name = vm.attrs.iter().find(|a| a.name == "name").unwrap();
    let mut ref_spans = Vec::new();
    name.value.walk_refs(&mut |read| {
        ref_spans.push((read.reference.dotted(), read.span));
    });
    assert_eq!(ref_spans.len(), 1);
    let (dotted, span) = &ref_spans[0];
    assert_eq!(dotted, "var.env");
    assert_eq!(span.start.line, 2);
    // interpolation spans are remapped into file coordinates: the span
    // must land inside the `${...}` hole of the template
    let hole = src.find("${var.env}").unwrap() as u32;
    assert!(
        span.start.offset > hole && span.end.offset <= hole + 10,
        "span {span:?} must sit inside the interpolation at byte {hole}"
    );
}

#[test]
fn block_spans_cover_the_whole_block() {
    let src = "resource \"aws_vpc\" \"v\" {\n  cidr_block = \"10.0.0.0/16\"\n}\n";
    let file = parse(src, "t.tf").unwrap();
    let span = file.blocks[0].span;
    let text = slice(src, span);
    assert!(text.starts_with("resource"));
    assert!(text.trim_end().ends_with('}'));
}

#[test]
fn number_and_operator_expressions_keep_spans() {
    let src = "locals {\n  port = 8000 + 443\n}\n";
    let program = Program::from_file(parse(src, "t.tf").unwrap()).unwrap();
    let port = program.locals.iter().find(|l| l.name == "port").unwrap();
    match &port.value {
        Expr::Binary(..) => {}
        other => panic!("expected binary op, got {other:?}"),
    }
    assert_eq!(slice(src, port.value.span()), "8000 + 443");
}
