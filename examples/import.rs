//! Porting a ClickOps deployment to IaC (§3.1).
//!
//! A "pre-IaC enterprise" builds infrastructure directly through cloud API
//! calls (no IaC state). We then port it two ways — the Terraformer-style
//! naive dump and the cloudless optimizer — and compare the generated
//! programs on the paper's code-quality axes.
//!
//! ```text
//! cargo run --example import
//! ```

use cloudless::cloud::{ApiOp, ApiRequest, Cloud, CloudConfig, OpOutcome, ResourceRecord};
use cloudless::port::{metrics, optimized_port};
use cloudless::types::value::attrs;
use cloudless::types::{Region, ResourceTypeName, Value};
use cloudless_bench::experiments::e7_port::naive_port;

/// Build a fleet the way a ClickOps admin would: one API call at a time.
fn clickops_build(cloud: &mut Cloud) -> Vec<ResourceRecord> {
    let mut create = |rtype: &str, region: &str, a: cloudless::types::Attrs| -> String {
        let done = cloud
            .submit_and_settle(ApiRequest::new(
                ApiOp::Create {
                    rtype: ResourceTypeName::new(rtype),
                    region: Region::new(region),
                    attrs: a,
                },
                "clickops-admin",
            ))
            .expect("front door accepts");
        match done.outcome {
            OpOutcome::Created { id, .. } => id.to_string(),
            other => panic!("create failed: {other:?}"),
        }
    };

    let vpc = create(
        "aws_vpc",
        "us-east-1",
        attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
    );
    let subnet = create(
        "aws_subnet",
        "us-east-1",
        attrs([
            ("vpc_id", Value::from(vpc.as_str())),
            ("cidr_block", Value::from("10.0.1.0/24")),
        ]),
    );
    // a hand-built fleet of 6 identical web servers
    for i in 0..6 {
        create(
            "aws_virtual_machine",
            "us-east-1",
            attrs([
                ("name", Value::from(format!("web-{i}"))),
                ("instance_type", Value::from("t3.micro")),
                ("subnet_id", Value::from(subnet.as_str())),
            ]),
        );
    }
    // three buckets named by hand
    for name in ["logs", "media", "backups"] {
        create(
            "aws_s3_bucket",
            "us-east-1",
            attrs([("bucket", Value::from(name))]),
        );
    }
    cloud.records().values().cloned().collect()
}

fn main() {
    let mut cloud = Cloud::new(CloudConfig::exact(), 7);
    let records = clickops_build(&mut cloud);
    println!(
        "ClickOps deployment: {} live resources, built with {} API calls\n",
        records.len(),
        cloud.total_api_calls()
    );

    let catalog = cloud.catalog().clone();
    let naive = naive_port(&records, &catalog);
    let optimized = optimized_port(&records, &catalog);

    let naive_metrics = metrics::measure(&naive);
    let opt_metrics = metrics::measure(&optimized.file);

    println!("=== naive port (Terraformer-style) ===");
    println!("{}", cloudless::hcl::render_file(&naive));
    println!("=== optimized port (cloudless) ===");
    println!("{}", cloudless::hcl::render_file(&optimized.file));

    println!("=== code-quality comparison (§3.1 / experiment E7) ===");
    println!(
        "{:<24} {:>8} {:>8} {:>11} {:>12} {:>8}",
        "port", "lines", "blocks", "redundancy", "abstraction", "quality"
    );
    for (name, m) in [("naive", &naive_metrics), ("optimized", &opt_metrics)] {
        println!(
            "{:<24} {:>8} {:>8} {:>10.0}% {:>11.0}% {:>8.1}",
            name,
            m.lines,
            m.blocks,
            m.redundancy() * 100.0,
            m.abstraction() * 100.0,
            metrics::quality_score(m)
        );
    }
    println!(
        "\nthe optimizer recovered {} reference(s) and compacted {} instance(s)",
        opt_metrics.references, opt_metrics.compacted_instances
    );
}
