//! The paper's §3.6 policy example, live: "scale out the number of VPN
//! gateways and attached tunnels if traffic throughput is close to their
//! capacity."
//!
//! A diurnal traffic trace (with a lunchtime burst) drives a
//! [`ThresholdScalePolicy`] watching gateway throughput. Every scaling
//! action is realized by regenerating the program with the new `count` and
//! re-converging — policies *evolve the IaC program*, they don't poke the
//! cloud directly.
//!
//! ```text
//! cargo run --example autoscaler
//! ```
//!
//! [`ThresholdScalePolicy`]: cloudless::policy::ThresholdScalePolicy

use cloudless::cloud::CloudConfig;
use cloudless::policy::{Action, ThresholdScalePolicy};
use cloudless::types::{SimDuration, SimTime};
use cloudless::{Cloudless, Config};
use cloudless_bench::telemetry::TraceGen;

const CAPACITY_MBPS: f64 = 1000.0;

fn program(gateways: usize, tunnels_per_gw: usize) -> String {
    format!(
        r#"
resource "aws_vpc" "edge" {{ cidr_block = "10.0.0.0/16" }}
resource "aws_vpn_gateway" "gw" {{
  count         = {gateways}
  vpc_id        = aws_vpc.edge.id
  name          = "edge-gw-${{count.index}}"
  capacity_mbps = {CAPACITY_MBPS}
}}
resource "aws_vpn_tunnel" "tun" {{
  count      = {}
  gateway_id = aws_vpn_gateway.gw[count.index % {gateways}].id
  peer_ip    = "198.51.100.${{count.index}}"
}}
"#,
        gateways * tunnels_per_gw
    )
}

fn main() {
    let mut engine = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });

    let mut gateways = 2usize;
    const TUNNELS_PER_GW: usize = 2;
    engine
        .converge(&program(gateways, TUNNELS_PER_GW))
        .expect("initial deploy");
    println!("initial fleet: {gateways} gateways\n");

    // the policy: scale between 1 and 8 gateways on throughput utilization
    let mut policy = ThresholdScalePolicy::new(
        "aws_vpn_gateway.gw",
        "throughput_mbps",
        CAPACITY_MBPS,
        gateways,
    );
    policy.max_instances = 8;
    engine.controller_mut().register(Box::new(policy));

    // demand: diurnal around 1.2 Gbps with an 11:00–13:00 surge to 3×
    let trace = TraceGen::new(1_200.0, 42).with_burst(
        SimTime(11 * 3_600_000),
        SimDuration::from_mins(120),
        3.0,
    );

    println!(
        "{:>6} {:>14} {:>10} {:>9}  action",
        "hour", "demand(mbps)", "capacity", "util"
    );
    let mut scale_events = 0;
    for half_hour in 0..48u64 {
        let t = SimTime(half_hour * 1_800_000);
        engine.cloud_mut().advance_to(t);
        let demand = trace.demand(t);
        let actions = engine.observe_metric("aws_vpn_gateway.gw[0]", "throughput_mbps", demand);
        let capacity = gateways as f64 * CAPACITY_MBPS;
        let mut note = String::new();
        for a in actions {
            if let Action::ScaleBlock { to, reason, .. } = a {
                scale_events += 1;
                note = format!("scale {gateways} → {to}: {reason}");
                gateways = to;
                // realize the action by evolving the program
                let out = engine
                    .converge(&program(gateways, TUNNELS_PER_GW))
                    .expect("scale apply");
                assert!(out.apply.all_ok(), "{:?}", out.apply.errors());
            }
        }
        if half_hour % 2 == 0 || !note.is_empty() {
            println!(
                "{:>5}h {:>14.0} {:>10.0} {:>8.0}%  {note}",
                half_hour / 2,
                demand,
                capacity,
                100.0 * demand / capacity
            );
        }
    }
    println!(
        "\n{scale_events} scaling action(s); final fleet: {gateways} gateways, {} resources total",
        engine.state().len()
    );
    println!(
        "every action is in the audit log: {} entries",
        engine.controller_mut().audit().len()
    );
}
