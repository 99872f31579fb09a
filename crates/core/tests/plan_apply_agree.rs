//! The plan a reviewer approves is the plan `converge` admits: on twin
//! engines, [`Cloudless::plan`] and [`Cloudless::converge`] accept the same
//! programs with the same plan text and refuse the same programs with the
//! same diagnostics — and `plan` does so without touching cloud or state.

use std::path::Path;

use cloudless::cloud::CloudConfig;
use cloudless::types::ResourceAddr;
use cloudless::{Cloudless, Config, ConvergeError};

/// One program, the estate it meets, and how it is run.
struct Case {
    name: String,
    /// Converged on both twins first.
    deployed: Option<String>,
    program: String,
    targets: Vec<ResourceAddr>,
    monthly_budget: Option<f64>,
    /// A diagnostic code the refusal must carry; `None` = agreement only.
    refused_with: Option<&'static str>,
}

impl Case {
    fn new(name: &str, program: &str) -> Case {
        Case {
            name: name.to_owned(),
            deployed: None,
            program: program.to_owned(),
            targets: Vec::new(),
            monthly_budget: None,
            refused_with: None,
        }
    }

    fn engine(&self) -> Cloudless {
        let mut engine = Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            ..Config::default()
        });
        if let Some(source) = &self.deployed {
            let out = engine.converge(source).expect("the estate deploys");
            assert!(out.apply.all_ok(), "{}", self.name);
        }
        if let Some(monthly_budget) = self.monthly_budget {
            let policy = cloudless::policy::BudgetPolicy { monthly_budget };
            engine.controller_mut().register(Box::new(policy));
        }
        engine
    }
}

/// The verdict, comparably: the plan text, or the refusal's variant and
/// diagnostic codes.
fn verdict(result: Result<String, ConvergeError>) -> Result<String, (&'static str, Vec<String>)> {
    result.map_err(|err| match err {
        ConvergeError::Frontend(d) => ("frontend", d.items.into_iter().map(|d| d.code).collect()),
        ConvergeError::Lint(r) => {
            let codes = r.findings.into_iter().map(|f| f.diagnostic.code);
            ("lint", codes.collect())
        }
        ConvergeError::Validation(r) => {
            let codes = r.diagnostics.items.into_iter().map(|d| d.code);
            ("validation", codes.collect())
        }
        ConvergeError::PolicyDenied(actions) => {
            ("policy", actions.iter().map(|a| format!("{a:?}")).collect())
        }
        ConvergeError::State(e) => ("state", vec![e.to_string()]),
    })
}

fn shipped(dir: &Path, cases: &mut Vec<Case>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            shipped(&path, cases);
        } else if path.extension().is_some_and(|ext| ext == "tf") {
            let source = std::fs::read_to_string(&path).expect("program reads");
            cases.push(Case::new(&path.display().to_string(), &source));
        }
    }
}

const CHAIN: &str = r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_virtual_machine" "web" {
  count     = 2
  name      = "web-${count.index}"
  subnet_id = aws_subnet.app.id
}
resource "aws_s3_bucket" "extra" { bucket = "extra" }
"#;

fn protected_vpcs(count: usize, net: u8) -> String {
    format!(
        r#"resource "aws_vpc" "v" {{
  count      = {count}
  cidr_block = "10.${{count.index + {net}}}.0.0/16"
  lifecycle {{
    prevent_destroy = true
  }}
}}
"#
    )
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/hcl");
    shipped(&corpus, &mut cases);
    assert!(cases.len() >= 15, "the shipped corpus was not found");

    cases.push(Case {
        refused_with: Some("ANA302"),
        ..Case::new(
            "a secret in a logged attribute and a plain output",
            r#"
variable "db_password" {
  default   = "hunter2"
  sensitive = true
}
resource "aws_virtual_machine" "vm" { name = "vm-${var.db_password}" }
output "conn" { value = "postgres://admin:${var.db_password}@db" }
"#,
        )
    });
    cases.push(Case {
        refused_with: Some("ANA401"),
        ..Case::new(
            "two buckets naming each other",
            r#"
resource "aws_s3_bucket" "a" { bucket = aws_s3_bucket.b.bucket }
resource "aws_s3_bucket" "b" { bucket = aws_s3_bucket.a.bucket }
"#,
        )
    });
    cases.push(Case {
        deployed: Some(protected_vpcs(2, 0)),
        refused_with: Some("LIF001"),
        ..Case::new("a protected VPC replaced", &protected_vpcs(2, 8))
    });
    // the deleted instance is no longer in the program, so there is no
    // lifecycle block left to consult: both halves let it go
    cases.push(Case {
        deployed: Some(protected_vpcs(2, 0)),
        ..Case::new(
            "a protected VPC dropped from its count",
            &protected_vpcs(1, 0),
        )
    });
    cases.push(Case {
        // two machines are $140 a month
        monthly_budget: Some(50.0),
        refused_with: Some("Deny"),
        ..Case::new("over budget", CHAIN)
    });
    cases.push(Case {
        targets: vec!["aws_subnet.app".parse().expect("address")],
        ..Case::new("one target and its closure", CHAIN)
    });
    cases.push(Case {
        deployed: Some(CHAIN.replace("10.0.1.0/24", "10.0.2.0/24")),
        ..Case::new("an edit over a deployed estate", CHAIN)
    });
    cases
}

#[test]
fn plan_and_converge_agree_on_every_program() {
    for case in cases() {
        let mut planner = case.engine();
        let (calls, versions) = (planner.cloud().total_api_calls(), planner.history().len());
        let state = planner.state().to_json();
        let planned = planner.plan(&case.program, &case.targets);
        assert_eq!(planner.cloud().total_api_calls(), calls, "{}", case.name);
        assert_eq!(planner.history().len(), versions, "{}", case.name);
        assert_eq!(planner.state().to_json(), state, "{}", case.name);

        let converged = case
            .engine()
            .converge_targeted(&case.program, &case.targets);
        let planned = verdict(planned.map(|p| p.plan_text));
        let converged = verdict(converged.map(|c| c.plan_text));
        assert_eq!(planned, converged, "{}", case.name);

        match (case.refused_with, &planned) {
            (None, _) => {}
            (Some(code), Err((_, codes))) => assert!(
                codes.iter().any(|c| c.contains(code)),
                "{}: {codes:?}",
                case.name
            ),
            (Some(code), Ok(text)) => panic!("{}: wanted {code}, planned\n{text}", case.name),
        }
    }
}
