//! The full Figure 1(b) lifecycle on one web-app infrastructure:
//!
//! develop → validate (catch a §3.2 bug at compile time) → deploy →
//! out-of-band drift → log-native detection (§3.5) → policy reaction
//! (§3.6) → incremental update (§3.3) → rollback via the time machine
//! (§3.4).
//!
//! ```text
//! cargo run --example lifecycle
//! ```

use cloudless::cloud::CloudConfig;
use cloudless::policy::builtin::DriftResponsePolicy;
use cloudless::types::Value;
use cloudless::{Cloudless, Config, ConvergeError};

const BROKEN: &str = r#"
resource "azure_resource_group" "rg" {
  name     = "prod"
  location = "westeurope"
}
resource "azure_network_interface" "nic" {
  name     = "web-nic"
  location = "westeurope"
}
resource "azure_virtual_machine" "web" {
  name     = "web"
  location = "eastus"                      # ← not where the NIC lives!
  nic_ids  = [azure_network_interface.nic.id]
}
"#;

const V1: &str = r#"
resource "azure_resource_group" "rg" {
  name     = "prod"
  location = "westeurope"
}
resource "azure_network_interface" "nic" {
  name     = "web-nic"
  location = "westeurope"
}
resource "azure_virtual_machine" "web" {
  name     = "web"
  location = "westeurope"
  size     = "Standard_D2s"
  nic_ids  = [azure_network_interface.nic.id]
}
"#;

/// V2 only resizes the VM — the incremental path should touch nothing else.
const V2: &str = r#"
resource "azure_resource_group" "rg" {
  name     = "prod"
  location = "westeurope"
}
resource "azure_network_interface" "nic" {
  name     = "web-nic"
  location = "westeurope"
}
resource "azure_virtual_machine" "web" {
  name     = "web"
  location = "westeurope"
  size     = "Standard_D16s"
  nic_ids  = [azure_network_interface.nic.id]
}
"#;

fn main() {
    let mut engine = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });
    engine
        .controller_mut()
        .register(Box::new(DriftResponsePolicy));

    // -- validate: the paper's region-mismatch bug dies at compile time --
    println!("== 1. validating a buggy program (paper §3.2 example) ==");
    match engine.converge(BROKEN) {
        Err(ConvergeError::Validation(report)) => {
            println!("{}", report.diagnostics);
            println!(
                "(caught before any cloud op; API calls so far: {})\n",
                engine.cloud().total_api_calls()
            );
        }
        other => panic!("expected validation failure, got {other:?}"),
    }

    // -- deploy the fixed program --
    println!("== 2. deploying the fixed program ==");
    let v1 = engine.converge(V1).expect("v1 deploys");
    println!(
        "applied {} resources in {} (virtual)\n",
        engine.state().len(),
        v1.apply.makespan()
    );

    // -- drift happens --
    println!("== 3. a legacy script mutates the VM out of band (§3.5) ==");
    let vm_id = engine
        .state()
        .get(&"azure_virtual_machine.web".parse().unwrap())
        .unwrap()
        .id
        .clone();
    engine
        .cloud_mut()
        .out_of_band_update(
            "legacy-script",
            &vm_id,
            [("size".to_owned(), Value::from("Standard_B1ls"))].into(),
        )
        .unwrap();

    let (report, actions) = engine.watch_drift();
    for ev in &report.events {
        println!(
            "drift: {:?} on {} by {:?} (lag {})",
            ev.kind,
            ev.addr.as_ref().map(|a| a.to_string()).unwrap_or_default(),
            ev.principal.as_deref().unwrap_or("?"),
            ev.lag()
        );
    }
    for a in &actions {
        println!("policy action: {a:?}");
    }
    println!(
        "(log-native detection used {} resource API calls)\n",
        report.api_calls
    );

    // reconcile: re-converging stomps the drift (state must refresh first)
    engine.refresh().expect("refresh commits");
    let reconciled = engine.converge(V1).expect("reconcile");
    println!(
        "re-applied {} change(s) to stomp the drift\n",
        reconciled.apply.ops_submitted
    );

    // -- incremental update --
    println!("== 4. resizing the VM (v2) ==");
    let calls_before = engine.cloud().total_api_calls();
    let checkpoint = engine.history().latest().unwrap().serial;
    let v2 = engine.converge(V2).expect("v2 applies");
    println!(
        "update ops: {} (API calls {}), makespan {}\n",
        v2.apply.ops_submitted,
        engine.cloud().total_api_calls() - calls_before,
        v2.apply.makespan()
    );

    // -- rollback --
    println!("== 5. rolling back to the checkpoint (time machine §3.4) ==");
    let plan = engine.plan_rollback_to(checkpoint).expect("checkpoint");
    println!(
        "rollback plan: {} in-place revert(s), {} redeployment(s)",
        plan.reverts(),
        plan.redeployments()
    );
    engine.execute_rollback(&plan).expect("rollback executes");
    let size = engine
        .state()
        .get(&"azure_virtual_machine.web".parse().unwrap())
        .unwrap()
        .attr("size")
        .cloned();
    println!("VM size after rollback: {}", size.unwrap());
    println!(
        "\nlifecycle complete; {} checkpoints recorded",
        engine.history().len()
    );
}
