//! Whole-system determinism: identical seeds ⇒ byte-identical worlds.
//! Everything downstream (the experiment tables, the time machine, CLI
//! sessions) relies on this.

use cloudless::cloud::CloudConfig;
use cloudless::{Cloudless, Config};

const SRC: &str = r#"
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet("10.0.0.0/16", 8, 3)
}
resource "aws_virtual_machine" "web" {
  count     = 3
  name      = "web-${count.index}"
  subnet_id = aws_subnet.app.id
}
output "subnet_id" { value = aws_subnet.app.id }
"#;

fn world(seed: u64, jitter: bool) -> (String, String) {
    let cloud = if jitter {
        CloudConfig {
            rate_limit: None,
            ..CloudConfig::default()
        }
    } else {
        CloudConfig::exact()
    };
    let mut e = Cloudless::new(Config {
        cloud,
        seed,
        ..Config::default()
    });
    let out = e.converge(SRC).expect("converge");
    assert!(out.apply.all_ok());
    let state_json = e.state().to_json();
    let records_json = serde_json::to_string_pretty(e.cloud().export_records()).unwrap();
    (state_json, records_json)
}

#[test]
fn same_seed_same_world_exact_latencies() {
    let (s1, r1) = world(42, false);
    let (s2, r2) = world(42, false);
    assert_eq!(s1, s2);
    assert_eq!(r1, r2);
}

#[test]
fn same_seed_same_world_with_jitter() {
    // jittered latencies draw from the seeded RNG — still deterministic
    let (s1, r1) = world(42, true);
    let (s2, r2) = world(42, true);
    assert_eq!(s1, s2);
    assert_eq!(r1, r2);
}

#[test]
fn different_seed_same_structure() {
    // ids may differ across seeds, but addresses and managed attrs agree
    let (s1, _) = world(1, true);
    let (s2, _) = world(2, true);
    let a: cloudless::state::Snapshot = cloudless::state::Snapshot::from_json(&s1).unwrap();
    let b: cloudless::state::Snapshot = cloudless::state::Snapshot::from_json(&s2).unwrap();
    assert_eq!(a.addrs(), b.addrs());
    for (ra, rb) in a.resources().values().zip(b.resources().values()) {
        assert_eq!(ra.attr("name"), rb.attr("name"));
        assert_eq!(ra.region, rb.region);
    }
}

#[test]
fn outage_storm_reconcile_is_byte_reproducible() {
    // the fault schedule draws from its own RNG stream (decoupled from the
    // latency model), so an outage-storm scenario — faults injected while
    // the reconciler's re-converge is running — replays byte-for-byte
    use cloudless_bench::scenarios::{generate, Family};
    let run = || {
        let sc = generate(Family::OutageStorm, 42);
        let out = sc.run();
        assert!(out.converged, "storm reconcile must still converge");
        (out.patched_source, out.apply_ops, out.iterations)
    };
    let (src_a, ops_a, it_a) = run();
    let (src_b, ops_b, it_b) = run();
    assert_eq!(src_a, src_b, "patched program must be byte-identical");
    assert_eq!(ops_a, ops_b, "retry/fault schedule must replay exactly");
    assert_eq!(it_a, it_b);

    // and the full world state agrees too
    let world = |seed: u64| {
        let sc = generate(Family::OutageStorm, seed);
        let mut e = sc.stage();
        if let Some((plan, fault_seed)) = &sc.reconcile_faults {
            e.cloud_mut().set_fault_plan(*plan);
            e.cloud_mut().set_fault_seed(*fault_seed);
        }
        e.reconcile(&sc.source, false).expect("reconcile");
        (
            e.state().to_json(),
            serde_json::to_string_pretty(e.cloud().export_records()).unwrap(),
        )
    };
    let (s1, r1) = world(7);
    let (s2, r2) = world(7);
    assert_eq!(s1, s2);
    assert_eq!(r1, r2);
}
