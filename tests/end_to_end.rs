//! Cross-crate integration: full lifecycle flows through the public
//! `cloudless` facade.

use cloudless::cloud::CloudConfig;
use cloudless::deploy::Strategy;
use cloudless::hcl::program::ModuleLibrary;
use cloudless::types::Value;
use cloudless::{Cloudless, Config, ConvergeError};

fn engine() -> Cloudless {
    Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    })
}

#[test]
fn create_update_destroy_cycle() {
    let mut e = engine();
    // create
    let v1 = e
        .converge(
            r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "a" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_virtual_machine" "w" {
  count     = 3
  name      = "w-${count.index}"
  subnet_id = aws_subnet.a.id
}
"#,
        )
        .expect("v1");
    assert!(v1.apply.all_ok());
    assert_eq!(e.state().len(), 5);
    assert_eq!(e.cloud().records().len(), 5);

    // shrink the fleet
    let v2 = e
        .converge(
            r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "a" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_virtual_machine" "w" {
  count     = 1
  name      = "w-${count.index}"
  subnet_id = aws_subnet.a.id
}
"#,
        )
        .expect("v2");
    assert!(v2.apply.all_ok());
    assert_eq!(v2.apply.ops_submitted, 2, "two deletes only");
    assert_eq!(e.state().len(), 3);

    // destroy everything
    let v3 = e.converge("").expect("empty config destroys");
    assert!(v3.apply.all_ok());
    assert!(e.state().is_empty());
    assert!(e.cloud().records().is_empty());
    assert_eq!(e.history().len(), 3);
}

#[test]
fn all_strategies_agree_on_final_state() {
    let src = r#"
resource "azure_resource_group" "rg" {
  name     = "it"
  location = "westeurope"
}
resource "azure_virtual_network" "net" {
  name           = "net"
  resource_group = azure_resource_group.rg.id
  address_space  = "10.0.0.0/16"
}
resource "azure_subnet" "s" {
  name           = "s"
  vnet_id        = azure_virtual_network.net.id
  address_prefix = "10.0.1.0/24"
}
resource "azure_network_interface" "nic" {
  count     = 2
  name      = "nic-${count.index}"
  location  = "westeurope"
  subnet_id = azure_subnet.s.id
}
resource "azure_virtual_machine" "vm" {
  count    = 2
  name     = "vm-${count.index}"
  location = "westeurope"
  nic_ids  = [azure_network_interface.nic[count.index].id]
}
"#;
    let mut snapshots = Vec::new();
    for strategy in [
        Strategy::Sequential,
        Strategy::TerraformWalk { parallelism: 10 },
        Strategy::CriticalPath { max_in_flight: 64 },
    ] {
        let mut e = Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            strategy,
            ..Config::default()
        });
        let out = e.converge(src).expect("deploys");
        assert!(
            out.apply.all_ok(),
            "{}: {:?}",
            strategy.name(),
            out.apply.errors()
        );
        // project addresses + managed attrs (ids differ across runs)
        let mut shape: Vec<(String, Option<String>)> = e
            .state()
            .resources()
            .values()
            .map(|r| {
                (
                    r.addr.to_string(),
                    r.attr("name").and_then(Value::as_str).map(str::to_owned),
                )
            })
            .collect();
        shape.sort();
        snapshots.push(shape);
    }
    assert_eq!(snapshots[0], snapshots[1]);
    assert_eq!(snapshots[1], snapshots[2]);
}

#[test]
fn modules_deploy_through_facade() {
    let mut modules = ModuleLibrary::new();
    modules.insert(
        "modules/bucket-set",
        r#"
variable "prefix" {}
resource "aws_s3_bucket" "b" {
  for_each = ["raw", "curated"]
  bucket   = "${var.prefix}-${each.key}"
}
output "count" { value = 2 }
"#,
    );
    let mut e = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        modules,
        ..Config::default()
    });
    let out = e
        .converge(
            r#"
module "lake" {
  source = "modules/bucket-set"
  prefix = "acme"
}
"#,
        )
        .expect("module deploys");
    assert!(out.apply.all_ok());
    assert_eq!(e.state().len(), 2);
    assert!(e
        .state()
        .get(&"module.lake.aws_s3_bucket.b[\"raw\"]".parse().unwrap())
        .is_some());
}

#[test]
fn partial_failure_keeps_consistent_state() {
    // second bucket collides on a unique name at the cloud level; state
    // must record exactly what exists
    let mut e = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        validation_level: cloudless::validate::ValidationLevel::Schema,
        ..Config::default()
    });
    e.cloud_mut()
        .out_of_band_create(
            "someone-else",
            "aws_s3_bucket",
            "us-east-1",
            [("bucket".to_owned(), Value::from("taken"))].into(),
        )
        .unwrap();
    let out = e
        .converge(
            r#"
resource "aws_s3_bucket" "ok" { bucket = "fresh" }
resource "aws_s3_bucket" "clash" { bucket = "taken" }
"#,
        )
        .expect("apply proceeds");
    assert!(!out.apply.all_ok());
    assert_eq!(out.apply.failures(), 1);
    assert_eq!(e.state().len(), 1, "only the successful bucket is recorded");
    assert_eq!(out.explanations.len(), 1);
    assert!(out.explanations[0].root_cause.contains("already taken"));
}

#[test]
fn validation_error_never_reaches_cloud() {
    // a foldable bad CIDR is refused even earlier, by the lint gate
    let mut e = engine();
    let err = e
        .converge(r#"resource "aws_vpc" "v" { cidr_block = "not-a-cidr" }"#)
        .unwrap_err();
    assert!(matches!(err, ConvergeError::Lint(_)));
    assert_eq!(e.cloud().total_api_calls(), 0);

    // a cross-resource defect the lint cannot see still stops at validation
    let mut e = engine();
    let err = e
        .converge(
            r#"
resource "azure_network_interface" "nic" {
  name     = "nic"
  location = "westeurope"
}
resource "azure_virtual_machine" "vm" {
  name     = "vm"
  location = "eastus"
  nic_ids  = [azure_network_interface.nic.id]
}
"#,
        )
        .unwrap_err();
    assert!(matches!(err, ConvergeError::Validation(_)));
    assert_eq!(e.cloud().total_api_calls(), 0);
}

#[test]
fn frontend_error_reports_spans() {
    let mut e = engine();
    let err = e.converge("resource \"aws_vpc\" {").unwrap_err();
    match err {
        ConvergeError::Frontend(diags) => {
            assert!(diags.has_errors());
        }
        other => panic!("{other:?}"),
    }
}
