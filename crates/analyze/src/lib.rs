//! `cloudless-analyze` — a dataflow lint engine over IaC programs and plan
//! graphs.
//!
//! The paper's §3.2 argues that declarative cloud programs deserve the same
//! static treatment compilers give ordinary code: the management plane
//! should reject programs whose *dataflow* is wrong before any cloud API is
//! called, not discover the problem mid-apply. The validate pipeline checks
//! each *expanded instance* against schemas and cloud rules; this crate
//! checks the *program* — code the expander never evaluates (count-disabled
//! blocks, dead conditional arms, unreferenced outputs), properties that
//! only exist before expansion (def-use chains, sensitivity provenance),
//! and hazards of the plan graph itself (cycles the planner silently
//! drops, write-write races, dangling dependencies).
//!
//! Entry points: [`lint_program`] for an analyzed [`Program`],
//! [`lint_source`] for raw HCL text. Both return a [`LintReport`] of
//! [`Finding`]s that reuse `cloudless-hcl`'s diagnostic type, so lint
//! results render through the exact same span pretty-printer as parse and
//! validation errors.

#![forbid(unsafe_code)]

pub mod alias;
pub mod blast;
pub mod concurrency;
pub mod dataflow;
pub mod hazards;
pub mod incremental;
pub mod lockorder;
pub mod report;
pub mod rules;

pub use concurrency::{analyze_manifest, AnalysisOutcome, AnalysisStats, BlastRequest, InstGraph};
pub use report::{Finding, LintReport};
pub use rules::{rule, LintConfig, RuleInfo, RULES};

use cloudless_hcl::program::{ModuleLibrary, Program};
use cloudless_hcl::Diagnostics;

/// How the converge pipeline treats lint findings before planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintGate {
    /// Do not run the analyzer at all.
    Off,
    /// Refuse to plan when any error-level finding exists (default).
    #[default]
    DenyErrors,
    /// Refuse to plan on warnings too.
    DenyWarnings,
}

impl LintGate {
    /// The lint configuration this gate implies, or `None` for [`Off`].
    ///
    /// [`Off`]: LintGate::Off
    pub fn config(&self) -> Option<LintConfig> {
        match self {
            LintGate::Off => None,
            LintGate::DenyErrors => Some(LintConfig::default()),
            LintGate::DenyWarnings => Some(LintConfig {
                fail_on: cloudless_hcl::Severity::Warning,
                ..LintConfig::default()
            }),
        }
    }
}

/// Run every pass over an analyzed program.
pub fn lint_program(program: &Program, modules: &ModuleLibrary, config: &LintConfig) -> LintReport {
    lint_program_in(program, modules, config, &dataflow::LintEnv::build(program))
}

/// [`lint_program`] under an environment the caller already built from
/// `program` (the incremental pipeline keeps it for later per-block checks).
pub fn lint_program_in(
    program: &Program,
    modules: &ModuleLibrary,
    config: &LintConfig,
    env: &dataflow::LintEnv,
) -> LintReport {
    let mut sink = report::Sink::new(config);
    dataflow::pass_defuse(program, modules, &env.decls, &mut sink);
    dataflow::pass_consts(program, &env.fold, &mut sink);
    dataflow::pass_taint(program, &env.taint, &mut sink);
    hazards::pass_hazards(program, &env.fold, &mut sink);
    // Also lint the bodies of modules we can load, so defects inside child
    // modules are reported (against the module's own source name).
    for m in &program.modules {
        let Some(src) = modules.get(&m.source) else {
            continue;
        };
        let Ok(child) = cloudless_hcl::load(src, &m.source) else {
            continue;
        };
        // Inputs passed by the caller count as "used" variable declarations
        // in the child: don't re-run defuse unused-variable naively.
        let mut child_sink = report::Sink::new(config);
        let env = dataflow::LintEnv::build(&child);
        dataflow::pass_consts(&child, &env.fold, &mut child_sink);
        dataflow::pass_taint(&child, &env.taint, &mut child_sink);
        hazards::pass_hazards(&child, &env.fold, &mut child_sink);
        sink.report.findings.extend(child_sink.report.findings);
        sink.report.suppressed += child_sink.report.suppressed;
    }
    sink.report
}

/// Parse + analyze + lint raw HCL source. Parse/classify failures are
/// returned as `Err` (they are not lint findings — the program has to exist
/// before it can be analyzed).
pub fn lint_source(
    source: &str,
    filename: &str,
    modules: &ModuleLibrary,
    config: &LintConfig,
) -> Result<LintReport, Diagnostics> {
    let program = cloudless_hcl::load(source, filename)?;
    Ok(lint_program(&program, modules, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_hcl::Severity;

    fn lint(src: &str) -> LintReport {
        lint_source(
            src,
            "main.tf",
            &ModuleLibrary::new(),
            &LintConfig::default(),
        )
        .expect("parses")
    }

    fn codes(r: &LintReport) -> Vec<&str> {
        r.findings
            .iter()
            .map(|f| f.diagnostic.code.as_str())
            .collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let r = lint(
            r#"
            variable "region" { default = "us-east-1" }
            resource "aws_s3_bucket" "b" {
              bucket = "logs"
              region = var.region
            }
            output "bucket" { value = aws_s3_bucket.b.bucket }
            "#,
        );
        assert!(r.is_clean(), "unexpected findings: {:?}", codes(&r));
    }

    #[test]
    fn unused_variable_and_local() {
        let r = lint(
            r#"
            variable "unused" { default = 1 }
            locals { dead = 2 }
            resource "aws_s3_bucket" "b" { bucket = "x" }
            "#,
        );
        assert_eq!(codes(&r), vec!["ANA101", "ANA102"]);
        assert_eq!(r.findings[0].rule, "unused-variable");
    }

    #[test]
    fn undefined_reference_in_count_disabled_block() {
        // count = 0 means the expander never evaluates the body — validate
        // can't see this, analyze can.
        let r = lint(
            r#"
            resource "aws_virtual_machine" "vm" {
              count = 0
              name  = var.typo
            }
            "#,
        );
        assert!(codes(&r).contains(&"ANA103"), "got {:?}", codes(&r));
    }

    #[test]
    fn dead_output_reports_undeclared_resource() {
        let r = lint(r#"output "ip" { value = aws_virtual_machine.gone.ip }"#);
        assert_eq!(codes(&r), vec!["ANA103"]);
    }

    #[test]
    fn duplicate_local_is_flagged() {
        let r = lint(
            r#"
            locals { a = 1 }
            locals { a = 2 }
            resource "aws_s3_bucket" "b" { bucket = local.a }
            "#,
        );
        assert!(codes(&r).contains(&"ANA104"));
    }

    #[test]
    fn folded_port_out_of_range() {
        let r = lint(
            r#"
            locals { base = 65000 }
            resource "aws_security_group" "sg" {
              count = 0
              name  = "sg"
              ingress { port = local.base + 1000 }
            }
            "#,
        );
        assert!(codes(&r).contains(&"ANA202"), "got {:?}", codes(&r));
    }

    #[test]
    fn folded_count_negative() {
        let r = lint(
            r#"
            locals { replicas = 2 }
            resource "aws_virtual_machine" "vm" {
              count = local.replicas - 5
              name  = "vm"
            }
            "#,
        );
        assert!(codes(&r).contains(&"ANA201"), "got {:?}", codes(&r));
    }

    #[test]
    fn folded_cidr_invalid() {
        let r = lint(
            r#"
            locals { net = "10.0.0" }
            resource "aws_subnet" "s" {
              name       = "s"
              cidr_block = "${local.net}/24"
            }
            "#,
        );
        assert!(codes(&r).contains(&"ANA203"), "got {:?}", codes(&r));
    }

    #[test]
    fn sensitive_variable_reaching_output_and_name() {
        let r = lint(
            r#"
            variable "db_password" {
              default   = "hunter2"
              sensitive = true
            }
            locals { conn = "postgres://admin:${var.db_password}@db" }
            resource "aws_virtual_machine" "vm" {
              name = "vm-${var.db_password}"
            }
            output "conn" { value = local.conn }
            "#,
        );
        let c = codes(&r);
        assert!(c.contains(&"ANA301"), "got {c:?}");
        assert!(c.contains(&"ANA302"), "got {c:?}");
    }

    #[test]
    fn reference_cycle_detected() {
        let r = lint(
            r#"
            resource "aws_virtual_machine" "a" { name = aws_virtual_machine.b.name }
            resource "aws_virtual_machine" "b" { name = aws_virtual_machine.a.name }
            "#,
        );
        assert!(codes(&r).contains(&"ANA401"), "got {:?}", codes(&r));
    }

    #[test]
    fn self_reference_detected() {
        let r = lint(r#"resource "aws_virtual_machine" "a" { name = aws_virtual_machine.a.id }"#);
        let c = codes(&r);
        assert!(c.contains(&"ANA404"), "got {c:?}");
        assert!(
            !c.contains(&"ANA401"),
            "self-loop is not a generic cycle: {c:?}"
        );
    }

    #[test]
    fn write_write_conflict_detected() {
        let r = lint(
            r#"
            resource "aws_virtual_machine" "a" { name = "web" region = "us-east-1" }
            resource "aws_virtual_machine" "b" { name = "web" region = "us-east-1" }
            "#,
        );
        assert!(codes(&r).contains(&"ANA402"), "got {:?}", codes(&r));
    }

    #[test]
    fn dangling_dependency_on_count_zero_block() {
        let r = lint(
            r#"
            variable "enabled" { default = false }
            resource "aws_network" "net" {
              count = var.enabled ? 1 : 0
              name  = "net"
            }
            resource "aws_virtual_machine" "vm" {
              name       = "vm"
              network_id = aws_network.net.id
            }
            "#,
        );
        assert!(codes(&r).contains(&"ANA403"), "got {:?}", codes(&r));
    }

    #[test]
    fn allow_list_suppresses() {
        let cfg = LintConfig {
            allow: vec!["unused-variable".into(), "unused-local".into()],
            ..LintConfig::default()
        };
        let r = lint_source(
            r#"
            variable "unused" { default = 1 }
            resource "aws_s3_bucket" "b" { bucket = "x" }
            "#,
            "main.tf",
            &ModuleLibrary::new(),
            &cfg,
        )
        .expect("parses");
        assert!(r.is_clean());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn deny_escalates_warning_to_error() {
        let cfg = LintConfig {
            deny: vec!["ANA101".into()],
            ..LintConfig::default()
        };
        let r = lint_source(
            r#"
            variable "unused" { default = 1 }
            resource "aws_s3_bucket" "b" { bucket = "x" }
            "#,
            "main.tf",
            &ModuleLibrary::new(),
            &cfg,
        )
        .expect("parses");
        assert_eq!(r.count(Severity::Error), 1);
        assert!(r.fails(&cfg));
    }

    #[test]
    fn unknown_module_input_flagged() {
        let mut lib = ModuleLibrary::new();
        lib.insert(
            "./mod/net",
            r#"
            variable "cidr" { default = "10.0.0.0/16" }
            resource "aws_network" "n" { name = "n" cidr_block = var.cidr }
            "#,
        );
        let r = lint_source(
            r#"
            module "net" {
              source = "./mod/net"
              cidr   = "10.1.0.0/16"
              typo   = true
            }
            "#,
            "main.tf",
            &lib,
            &LintConfig::default(),
        )
        .expect("parses");
        assert_eq!(codes(&r), vec!["ANA105"]);
    }

    #[test]
    fn lint_gate_configs() {
        assert!(LintGate::Off.config().is_none());
        assert_eq!(
            LintGate::DenyErrors.config().unwrap().fail_on,
            Severity::Error
        );
        assert_eq!(
            LintGate::DenyWarnings.config().unwrap().fail_on,
            Severity::Warning
        );
    }
}
