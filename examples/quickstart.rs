//! Quickstart: deploy the paper's Figure 2 program end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Parses the exact HCL snippet from the paper, validates it at the
//! cloud-rules level, plans, applies against the simulated cloud, and shows
//! the resulting state — including the apply-time resolution of the
//! deferred `nic_ids` reference.

use cloudless::cloud::CloudConfig;
use cloudless::{Cloudless, Config};

/// Figure 2 of the paper (with a concrete region pin via provider config).
const FIGURE2: &str = include_str!("hcl/quickstart.tf");

fn main() {
    let mut engine = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });

    println!("=== program (paper Figure 2) ===\n{FIGURE2}");

    let outcome = engine.converge(FIGURE2).expect("Figure 2 deploys cleanly");

    println!("=== plan ===\n{}", outcome.plan_text);
    println!(
        "=== apply ({}) ===\nvirtual makespan: {}   ops: {}   all ok: {}",
        outcome.apply.strategy,
        outcome.apply.makespan(),
        outcome.apply.ops_submitted,
        outcome.apply.all_ok()
    );

    println!("\n=== resulting state ===");
    for (addr, rec) in engine.state().resources() {
        println!("  {addr}  ->  {}  ({})", rec.id, rec.region);
    }

    let vm = engine
        .state()
        .get(&"aws_virtual_machine.vm1".parse().unwrap())
        .expect("vm deployed");
    println!(
        "\nthe VM's nic_ids resolved at apply time to: {}",
        vm.attr("nic_ids").expect("nic_ids recorded")
    );
    println!(
        "total cloud API calls: {}",
        engine.cloud().total_api_calls()
    );
}
