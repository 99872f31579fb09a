//! Integration: cloud → port → program → plan must converge to no-ops, and
//! the ported program must be adoptable by the engine.

use cloudless::cloud::CloudConfig;
use cloudless::deploy::diff::{diff, Action};
use cloudless::deploy::resolver::DataResolver;
use cloudless::hcl::program::{expand, ModuleLibrary, Program};
use cloudless::port::optimized_port;
use cloudless::state::{DeployedResource, LogStore, Snapshot};
use cloudless::types::{SimTime, Value};
use cloudless::{Cloudless, Config};
use std::collections::BTreeMap;

/// Build infra with the engine, then pretend we lost the state file and
/// must re-import from the cloud.
#[test]
fn lost_state_recovered_by_port() {
    let mut e = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });
    e.converge(
        r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_virtual_machine" "web" {
  count         = 4
  name          = "web-${count.index}"
  subnet_id     = aws_subnet.app.id
  instance_type = "t3.micro"
}
"#,
    )
    .expect("deploy");
    let catalog = e.cloud().catalog().clone();

    // "lose" the state; all that remains is the cloud
    let records: Vec<_> = e.cloud().records().values().cloned().collect();
    let ported = optimized_port(&records, &catalog);
    let text = cloudless::hcl::render_file(&ported.file);

    // the ported program expands…
    let program = Program::from_file(cloudless::hcl::parse(&text, "imported.tf").unwrap())
        .unwrap_or_else(|d| panic!("{d}\n{text}"));
    let manifest = expand(
        &program,
        &BTreeMap::new(),
        &ModuleLibrary::new(),
        &DataResolver::new(),
    )
    .unwrap_or_else(|d| panic!("{d}\n{text}"));
    assert_eq!(manifest.instances.len(), records.len());

    // …rebuild the state from the id→addr mapping (the "import" step)…
    let mut state = Snapshot::new();
    for r in &records {
        state.put(DeployedResource {
            addr: ported.address_of[&r.id].clone(),
            rtype: r.rtype.clone(),
            id: r.id.clone(),
            region: r.region.clone(),
            attrs: r.attrs.clone(),
            depends_on: vec![],
            created_at: SimTime::ZERO,
        });
    }
    let _store = LogStore::in_memory_seeded(state.clone());

    // …and the plan against the imported state is empty: nothing would be
    // churned by adopting the generated program
    let changes = diff(&manifest, &state, &catalog, &DataResolver::new());
    for c in &changes {
        assert_eq!(c.action, Action::NoOp, "{}: {:?}", c.addr, c.action);
    }
}

/// The ported program must also *validate* cleanly — generated code goes
/// through the same §3.2 gauntlet as hand-written code.
#[test]
fn ported_programs_validate() {
    let mut e = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });
    e.converge(
        r#"
resource "azure_resource_group" "rg" {
  name     = "prod"
  location = "westeurope"
}
resource "azure_storage_account" "store" {
  for_each       = ["alpha", "beta"]
  name           = "acct${each.key}"
  resource_group = azure_resource_group.rg.id
  location       = "westeurope"
}
"#,
    )
    .expect("deploy");
    let catalog = e.cloud().catalog().clone();
    let records: Vec<_> = e.cloud().records().values().cloned().collect();
    let ported = optimized_port(&records, &catalog);
    let text = cloudless::hcl::render_file(&ported.file);

    let planned = Cloudless::new(Config::default())
        .plan(&text, &[])
        .unwrap_or_else(|e| panic!("{e}\n{text}"));
    let report = planned.validation;
    assert!(report.ok(), "{}\n{text}", report.diagnostics);
}

/// Attribute values survive the port byte-for-byte (no lossy rendering).
#[test]
fn ported_attrs_are_lossless() {
    let mut e = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });
    e.converge(
        r##"
resource "aws_virtual_machine" "odd" {
  name      = "we\"ird-näme"
  user_data = "#!/bin/sh\necho hi\t\$HOME"
  tags      = { env = "prod", "key-with-dash" = "v" }
}
"##,
    )
    .expect("deploy");
    let catalog = e.cloud().catalog().clone();
    let records: Vec<_> = e.cloud().records().values().cloned().collect();
    let ported = optimized_port(&records, &catalog);
    let text = cloudless::hcl::render_file(&ported.file);
    let planned = Cloudless::new(Config::default())
        .plan(&text, &[])
        .unwrap_or_else(|e| panic!("{e}\n{text}"));
    let inst = &planned.manifest.instances[0];
    assert_eq!(inst.attrs.get("name"), Some(&Value::from("we\"ird-näme")));
    assert_eq!(
        inst.attrs.get("user_data"),
        Some(&Value::from("#!/bin/sh\necho hi\t$HOME"))
    );
    assert_eq!(
        inst.attrs.get("tags").and_then(|t| t.get("key-with-dash")),
        Some(&Value::from("v"))
    );
}

/// Differential check closing the reconciler loop from the *other* side:
/// after `reconcile` folds out-of-band drift into the program, a fresh
/// `port` import of the patched estate must be structurally identical to
/// the patched program's own expansion — same resource multiset, same
/// managed attribute values. Two independent paths, one answer.
#[test]
fn port_of_reconciled_estate_matches_patched_program() {
    let mut e = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });
    let src = r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "data" { bucket = "diff-data" }
resource "aws_s3_bucket" "logs" { bucket = "diff-logs" }
"#;
    e.converge(src).expect("deploy");

    // drift: a hand-edit and a rogue create
    let data = e
        .state()
        .get(&"aws_s3_bucket.data".parse().unwrap())
        .unwrap()
        .id
        .clone();
    e.cloud_mut()
        .out_of_band_update(
            "cowboy",
            &data,
            [("bucket".to_owned(), Value::from("diff-data-edited"))].into(),
        )
        .unwrap();
    e.cloud_mut()
        .out_of_band_create(
            "cowboy",
            "aws_s3_bucket",
            "us-east-1",
            [("bucket".to_owned(), Value::from("diff-stray"))].into(),
        )
        .unwrap();

    let report = e.reconcile(src, false).expect("reconcile");
    assert!(report.converged);

    // path A: expand the patched program
    let program =
        Program::from_file(cloudless::hcl::parse(&report.patched_source, "main.tf").unwrap())
            .unwrap_or_else(|d| panic!("{d}\n{}", report.patched_source));
    let patched = expand(
        &program,
        &BTreeMap::new(),
        &ModuleLibrary::new(),
        &DataResolver::new(),
    )
    .unwrap();

    // path B: port-import the reconciled estate from the cloud
    let catalog = e.cloud().catalog().clone();
    let records: Vec<_> = e.cloud().records().values().cloned().collect();
    let ported = optimized_port(&records, &catalog);
    let text = cloudless::hcl::render_file(&ported.file);
    let imported = Cloudless::new(Config::default())
        .plan(&text, &[])
        .unwrap_or_else(|e| panic!("{e}\n{text}"))
        .manifest;

    // structural equality: same multiset of (rtype, managed attrs) —
    // addresses legitimately differ (the porter invents its own labels)
    let shape = |m: &cloudless::hcl::program::Manifest| -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = m
            .instances
            .iter()
            .map(|i| {
                let schema = catalog.get(&i.rtype()).expect("known type");
                let managed: BTreeMap<&String, &Value> = i
                    .attrs
                    .iter()
                    .filter(|(k, _)| schema.attr(k).map(|a| !a.computed).unwrap_or(false))
                    .collect();
                (i.rtype().to_string(), format!("{managed:?}"))
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        shape(&patched),
        shape(&imported),
        "patched program:\n{}\nported program:\n{text}",
        report.patched_source
    );
    assert_eq!(patched.instances.len(), records.len());
}
