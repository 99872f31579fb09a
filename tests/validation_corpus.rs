//! Integration: the §3.2 claim end to end — every cloud-level constraint in
//! the simulator has a compile-time twin, so no seeded misconfiguration
//! reaches the cloud, and removing the validator makes the same programs
//! fail at deploy time with opaque errors the translator can decode.

use cloudless::cloud::CloudConfig;
use cloudless::validate::ValidationLevel;
use cloudless::{Cloudless, Config, ConvergeError};

struct Case {
    name: &'static str,
    src: &'static str,
    /// Expected compile-time code at CloudRules level.
    val_code: &'static str,
    /// Expected cloud error code when validation is bypassed.
    cloud_code: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "vm/nic region mismatch",
        src: r#"
resource "azure_network_interface" "n" {
  name     = "n"
  location = "westeurope"
}
resource "azure_virtual_machine" "vm" {
  name     = "vm"
  location = "eastus"
  nic_ids  = [azure_network_interface.n.id]
}
"#,
        val_code: "VAL301",
        cloud_code: "NicNotFound",
    },
    Case {
        name: "password without opt-in",
        src: r#"
resource "azure_network_interface" "n" {
  name     = "n"
  location = "westeurope"
}
resource "azure_virtual_machine" "vm" {
  name           = "vm"
  location       = "westeurope"
  nic_ids        = [azure_network_interface.n.id]
  admin_password = "hunter2"
}
"#,
        val_code: "VAL302",
        cloud_code: "OSProvisioningClientError",
    },
    Case {
        name: "peering overlap",
        src: r#"
resource "azure_resource_group" "rg" {
  name     = "rg"
  location = "westeurope"
}
resource "azure_virtual_network" "a" {
  name           = "a"
  resource_group = azure_resource_group.rg.id
  address_space  = "10.0.0.0/16"
}
resource "azure_virtual_network" "b" {
  name           = "b"
  resource_group = azure_resource_group.rg.id
  address_space  = "10.0.0.0/17"
}
resource "azure_vnet_peering" "p" {
  vnet_id        = azure_virtual_network.a.id
  remote_vnet_id = azure_virtual_network.b.id
}
"#,
        val_code: "VAL303",
        cloud_code: "VnetAddressSpaceOverlaps",
    },
    Case {
        name: "subnet outside vpc",
        src: r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "172.16.0.0/24"
}
"#,
        val_code: "VAL304",
        cloud_code: "InvalidSubnetRange",
    },
];

#[test]
fn validator_catches_each_case_with_the_right_code() {
    for case in CASES {
        let mut e = Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            ..Config::default()
        });
        match e.converge(case.src) {
            Err(ConvergeError::Validation(report)) => {
                assert!(
                    report
                        .diagnostics
                        .items
                        .iter()
                        .any(|d| d.code == case.val_code),
                    "{}: expected {}, got:\n{}",
                    case.name,
                    case.val_code,
                    report.diagnostics
                );
            }
            other => panic!("{}: expected validation error, got {other:?}", case.name),
        }
        assert_eq!(e.cloud().total_api_calls(), 0, "{}", case.name);
    }
}

#[test]
fn without_validator_the_cloud_rejects_with_opaque_codes() {
    for case in CASES {
        let mut e = Cloudless::new(Config {
            cloud: CloudConfig::exact(),
            validation_level: ValidationLevel::Schema, // §2.1 baseline-ish
            ..Config::default()
        });
        let out = e.converge(case.src).expect("apply runs");
        assert!(!out.apply.all_ok(), "{} must fail at deploy", case.name);
        let errors = out.apply.errors();
        assert!(
            errors.iter().any(|(_, err)| err.code == case.cloud_code),
            "{}: expected {}, got {:?}",
            case.name,
            case.cloud_code,
            errors
        );
        // and the explanation decodes it back to a localized root cause
        assert!(
            out.explanations.iter().all(|ex| ex.is_localized()),
            "{}: explanations must be localized",
            case.name
        );
    }
}

#[test]
fn compile_time_catch_saves_virtual_provisioning_time() {
    // deploy-time failure of the NIC case burns the NIC's provisioning time
    // before the VM error surfaces; compile-time catch burns nothing
    let case = &CASES[0];
    let mut baseline = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        validation_level: ValidationLevel::Schema,
        ..Config::default()
    });
    let out = baseline.converge(case.src).expect("apply runs");
    assert!(out.apply.makespan().millis() > 0);

    let mut cloudless = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });
    assert!(cloudless.converge(case.src).is_err());
    assert_eq!(cloudless.cloud().now().millis(), 0);
}

/// Programs the cloud accepts, which the validator must accept as they
/// are: a reference names the instance it reads, so a subnet is held to the
/// VPC of its own index and an indexed `.id` selects an attribute; a `for`
/// over a block reads that block's instances, as its splat does.
const ACCEPTED: &[(&str, &str)] = &[
    ("subnet in the second of two vpcs", SECOND_VPC),
    (
        "one subnet per vpc",
        include_str!("../examples/hcl/fleet.tf"),
    ),
    (
        "a load balancer over a fleet's subnets",
        include_str!("../examples/hcl/fleet_ids.tf"),
    ),
    ("a bucket named for every vpc", FOR_VPCS),
    ("a load balancer over a for of subnets", FOR_SUBNETS),
    ("a for with a key over a for_each block", FOR_KEYED),
];

const FOR_VPCS: &str = r#"
resource "aws_vpc" "v" {
  count      = 2
  cidr_block = "10.${count.index}.0.0/16"
}
resource "aws_s3_bucket" "b" {
  bucket = join("-", [for x in aws_vpc.v : x.id])
}
"#;

const FOR_SUBNETS: &str = r#"
resource "aws_vpc" "v" {
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "s" {
  count      = 2
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.${count.index}.0/24"
}
resource "aws_load_balancer" "lb" {
  name       = "lb"
  subnet_ids = [for s in aws_subnet.s : s.id]
}
"#;

const FOR_KEYED: &str = r#"
resource "aws_vpc" "v" {
  for_each   = { a = "10.0.0.0/16", b = "10.1.0.0/16" }
  cidr_block = each.value
}
resource "aws_s3_bucket" "b" {
  bucket = join("-", [for k, v in aws_vpc.v : v.id])
}
"#;

const SECOND_VPC: &str = r#"
resource "aws_vpc" "v" {
  count      = 2
  cidr_block = "10.${count.index}.0.0/16"
}
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v[1].id
  cidr_block = "10.1.1.0/24"
}
"#;

fn at_cloud_rules() -> Cloudless {
    Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        validation_level: ValidationLevel::CloudRules,
        ..Config::default()
    })
}

#[test]
fn indexed_references_are_accepted_and_converge() {
    for (name, src) in ACCEPTED {
        let out = at_cloud_rules().converge(src).expect(name);
        let findings = &out.validation.diagnostics;
        assert!(findings.items.is_empty(), "{name}:\n{findings}");
        assert!(out.apply.all_ok(), "{name}: {:?}", out.apply.errors());
    }
}

/// A subnet that reads `v[1]` is held to `v[1]` alone: its CIDR, inside
/// `v[0]`, is refused as outside `v[1]`, and nothing else is said of it.
#[test]
fn an_indexed_reference_is_held_to_the_instance_it_reads() {
    let src = SECOND_VPC.replace("10.1.1.0/24", "10.0.1.0/24");
    let mut e = at_cloud_rules();
    let Err(ConvergeError::Validation(report)) = e.converge(&src) else {
        panic!("the subnet outside v[1] is refused");
    };
    let found: Vec<_> = (report.diagnostics.items.iter())
        .map(|d| (d.code.as_str(), d.message.as_str()))
        .collect();
    assert_eq!(
        found,
        [(
            "VAL304",
            "aws_subnet.s: CIDR 10.0.1.0/24 is outside the parent network aws_vpc.v[1] (10.1.0.0/16)"
        )],
    );
    assert_eq!(e.cloud().total_api_calls(), 0);
}
