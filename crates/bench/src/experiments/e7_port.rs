//! E7 — porting quality: naive dump vs. structural optimizer (§3.1).
//!
//! Claim: "The resulting IaC programs usually lack clear structures … the
//! corresponding IaC program should use compact structures such as count
//! and for_each instead of a straight enumeration … many of its cloud-level
//! attributes could be removed when porting to the IaC level."
//!
//! Fleets of increasing size are built ClickOps-style (raw API calls, no
//! IaC), then ported both ways. Quality metrics per DESIGN.md; fidelity is
//! asserted by round-trip (generated program diffs to all-no-ops against
//! the imported state).
//!
//! The naive side is [`naive_port`], the Terraformer/Aztfy-style baseline
//! the paper criticizes, kept here because no product path ports that way.

use std::collections::BTreeSet;

use cloudless::cloud::{Catalog, CloudConfig, ResourceRecord};
use cloudless::deploy::diff::{diff, Action};
use cloudless::deploy::resolver::DataResolver;
use cloudless::hcl::ast::{Attribute, Block, BlockBody, File};
use cloudless::hcl::value_to_expr;
use cloudless::port::{label_for, metrics, optimized_port};
use cloudless::state::{DeployedResource, Snapshot};
use cloudless::types::Span;

use crate::table::{f, pct, Table};
use crate::workloads::clickops_fleet;
use crate::SEED;

/// Port `records` the naive way: one `resource` block per record, in id
/// order, every attribute a program may set dumped verbatim, references
/// left as hardcoded id strings — the "lacks clear structures" output.
pub fn naive_port(records: &[ResourceRecord], catalog: &Catalog) -> File {
    let sp = Span::synthetic();
    let mut taken = BTreeSet::new();
    let mut sorted: Vec<&ResourceRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.id.cmp(&b.id));
    let blocks = sorted.into_iter().map(|record| {
        let label = label_for(record, &mut taken);
        let schema = catalog.get(&record.rtype);
        // even the naive tool keeps to what the API accepts back, or its
        // output would not even apply
        let settable = record
            .attrs
            .iter()
            .filter(|(name, _)| schema.is_some_and(|s| s.settable(name).is_some()));
        let attrs = settable.map(|(name, value)| Attribute {
            name: name.clone(),
            value: value_to_expr(value),
            span: sp,
        });
        Block {
            kind: "resource".to_owned(),
            labels: vec![record.rtype.as_str().to_owned(), label],
            body: BlockBody {
                attrs: attrs.collect(),
                blocks: vec![],
            },
            span: sp,
        }
    });
    File {
        filename: "imported.tf".to_owned(),
        blocks: blocks.collect(),
    }
}

struct PortOutcome {
    lines: usize,
    blocks: usize,
    redundancy: f64,
    abstraction: f64,
    quality: f64,
    round_trips: bool,
}

fn measure(groups: usize, replicas: usize, optimized: bool) -> PortOutcome {
    let mut cloud = super::experiment_cloud(CloudConfig::exact(), SEED);
    let records = clickops_fleet(&mut cloud, groups, replicas);
    let catalog = cloud.catalog().clone();

    let (file, address_of) = if optimized {
        let r = optimized_port(&records, &catalog);
        (r.file, Some(r.address_of))
    } else {
        (naive_port(&records, &catalog), None)
    };
    let m = metrics::measure(&file);

    // round-trip fidelity (only checkable when we know the id→addr mapping)
    let round_trips = match address_of {
        None => false, // the naive port leaves hardcoded ids; no mapping
        Some(map) => {
            let text = cloudless::hcl::render_file(&file);
            let manifest = super::manifest_of(&text);
            let mut state = Snapshot::new();
            for r in &records {
                state.put(DeployedResource {
                    addr: map[&r.id].clone(),
                    rtype: r.rtype.clone(),
                    id: r.id.clone(),
                    region: r.region.clone(),
                    attrs: r.attrs.clone(),
                    depends_on: vec![],
                    created_at: cloudless::types::SimTime::ZERO,
                });
            }
            diff(&manifest, &state, &catalog, &DataResolver::new())
                .iter()
                .all(|c| c.action == Action::NoOp)
        }
    };

    PortOutcome {
        lines: m.lines,
        blocks: m.blocks,
        redundancy: m.redundancy(),
        abstraction: m.abstraction(),
        quality: metrics::quality_score(&m),
        round_trips,
    }
}

/// Module-shaped workload: `stacks` ClickOps-built app stacks, each
/// vpc + subnet + vm with per-stack name prefixes.
fn clickops_stacks(
    cloud: &mut cloudless::cloud::Cloud,
    stacks: usize,
) -> Vec<cloudless::cloud::ResourceRecord> {
    use cloudless::cloud::{ApiOp, ApiRequest, OpOutcome};
    use cloudless::types::value::attrs;
    use cloudless::types::{Region, ResourceTypeName, Value};
    let mut create = |rtype: &str, a: cloudless::types::Attrs| -> String {
        let done = cloud
            .submit_and_settle(ApiRequest::new(
                ApiOp::Create {
                    rtype: ResourceTypeName::new(rtype),
                    region: Region::new("us-east-1"),
                    attrs: a,
                },
                "clickops",
            ))
            .expect("create accepted");
        match done.outcome {
            OpOutcome::Created { id, .. } => id.to_string(),
            other => panic!("create failed: {other:?}"),
        }
    };
    for i in 0..stacks {
        let app = format!("team{i}");
        let vpc = create(
            "aws_vpc",
            attrs([
                ("name", Value::from(format!("{app}-net"))),
                ("cidr_block", Value::from("10.0.0.0/16")),
            ]),
        );
        let sn = create(
            "aws_subnet",
            attrs([
                ("name", Value::from(format!("{app}-web"))),
                ("vpc_id", Value::from(vpc.as_str())),
                ("cidr_block", Value::from("10.0.1.0/24")),
            ]),
        );
        create(
            "aws_virtual_machine",
            attrs([
                ("name", Value::from(format!("{app}-srv"))),
                ("subnet_id", Value::from(sn.as_str())),
                ("instance_type", Value::from("t3.micro")),
            ]),
        );
    }
    cloud.records().values().cloned().collect()
}

/// Module-extraction row: repeated heterogeneous stacks.
fn measure_modules(stacks: usize) -> (PortOutcome, usize, usize) {
    use cloudless::port::extract_modules;
    let mut cloud = super::experiment_cloud(CloudConfig::exact(), SEED);
    let records = clickops_stacks(&mut cloud, stacks);
    let catalog = cloud.catalog().clone();
    let port = extract_modules(&records, &catalog);
    // metrics over root file + module sources (total text the user reads)
    let mut m = metrics::measure(&port.file);
    let mut defs_lines = 0usize;
    for i in 1..=port.module_defs {
        let src = port
            .modules
            .get(&format!("modules/stack_{i}"))
            .expect("module source");
        defs_lines += src.lines().filter(|l| !l.trim().is_empty()).count();
    }
    m.lines += defs_lines;
    m.instances = records.len();

    // fidelity
    let text = cloudless::hcl::render_file(&port.file);
    let program =
        cloudless::hcl::program::Program::from_file(cloudless::hcl::parse(&text, "r").unwrap())
            .unwrap();
    let manifest = cloudless::hcl::program::expand(
        &program,
        &std::collections::BTreeMap::new(),
        &port.modules,
        &DataResolver::new(),
    )
    .expect("expand");
    let mut state = Snapshot::new();
    for r in &records {
        state.put(DeployedResource {
            addr: port.address_of[&r.id].clone(),
            rtype: r.rtype.clone(),
            id: r.id.clone(),
            region: r.region.clone(),
            attrs: r.attrs.clone(),
            depends_on: vec![],
            created_at: cloudless::types::SimTime::ZERO,
        });
    }
    let round_trips = diff(&manifest, &state, &catalog, &DataResolver::new())
        .iter()
        .all(|c| c.action == Action::NoOp);
    (
        PortOutcome {
            lines: m.lines,
            blocks: m.blocks + port.module_defs,
            redundancy: m.redundancy(),
            abstraction: port.module_calls as f64 * 3.0 / records.len() as f64,
            quality: metrics::quality_score(&m),
            round_trips,
        },
        port.module_defs,
        port.module_calls,
    )
}

pub fn run() -> String {
    let mut t = Table::new(
        "E7 — porting ClickOps fleets to IaC (quality per §3.1 metrics)",
        &[
            "fleet (groups×replicas)",
            "port",
            "lines",
            "blocks",
            "redundancy",
            "abstraction",
            "quality",
            "round-trips",
        ],
    );
    for &(groups, replicas) in &[(1usize, 5usize), (4, 5), (5, 10)] {
        for optimized in [false, true] {
            let o = measure(groups, replicas, optimized);
            t.row(vec![
                format!("{groups}×{replicas} (+fabric)"),
                if optimized { "optimized" } else { "naive" }.to_string(),
                o.lines.to_string(),
                o.blocks.to_string(),
                pct(o.redundancy),
                pct(o.abstraction),
                f(o.quality),
                if o.round_trips {
                    "yes".into()
                } else {
                    "n/a".into()
                },
            ]);
        }
    }
    // module extraction on repeated heterogeneous stacks
    for &stacks in &[3usize, 6] {
        // naive baseline over the same records
        let mut cloud = super::experiment_cloud(CloudConfig::exact(), SEED);
        let records = clickops_stacks(&mut cloud, stacks);
        let naive_file = naive_port(&records, &cloud.catalog().clone());
        let nm = metrics::measure(&naive_file);
        t.row(vec![
            format!("{stacks} app stacks (vpc+subnet+vm)"),
            "naive".to_string(),
            nm.lines.to_string(),
            nm.blocks.to_string(),
            pct(nm.redundancy()),
            pct(nm.abstraction()),
            f(metrics::quality_score(&nm)),
            "n/a".into(),
        ]);
        let (o, defs, calls) = measure_modules(stacks);
        t.row(vec![
            format!("{stacks} app stacks (vpc+subnet+vm)"),
            format!("modules ({defs} def, {calls} calls)"),
            o.lines.to_string(),
            o.blocks.to_string(),
            pct(o.redundancy),
            pct(o.abstraction),
            f(o.quality),
            if o.round_trips {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "\n(the optimizer compacts replica groups into counted blocks, extracts\n\
         repeated heterogeneous stacks into modules, recovers references from\n\
         raw ids, and prunes computed attributes; 'round-trips' = the generated\n\
         program diffs to all-no-ops against the imported state.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless::types::value::attrs;
    use cloudless::types::{Region, ResourceId, ResourceTypeName, SimTime, Value};

    fn record(id: &str, rtype: &str, a: cloudless::types::Attrs) -> ResourceRecord {
        ResourceRecord {
            id: ResourceId::new(id),
            rtype: ResourceTypeName::new(rtype),
            region: Region::new("us-east-1"),
            attrs: a,
            created_at: SimTime::ZERO,
            updated_at: SimTime::ZERO,
        }
    }

    #[test]
    fn naive_port_emits_one_block_per_record() {
        let records = vec![
            record(
                "aws-v-0001",
                "aws_vpc",
                attrs([
                    ("cidr_block", Value::from("10.0.0.0/16")),
                    ("id", Value::from("aws-v-0001")),
                ]),
            ),
            record(
                "aws-sb-0002",
                "aws_s3_bucket",
                attrs([
                    ("bucket", Value::from("logs")),
                    ("id", Value::from("aws-sb-0002")),
                    ("arn", Value::from("arn:sim:aws:us-east-1:aws-sb-0002")),
                    ("bogus_attribute", Value::from("x")),
                ]),
            ),
        ];
        let file = naive_port(&records, &Catalog::standard());
        assert_eq!(file.blocks.len(), 2);
        // computed (id, arn) and undeclared attrs are skipped; the rest
        // dumped verbatim
        let bucket = file
            .blocks
            .iter()
            .find(|b| b.labels[0] == "aws_s3_bucket")
            .unwrap();
        assert!(bucket.body.attr("bucket").is_some());
        for skipped in ["id", "arn", "bogus_attribute"] {
            assert!(bucket.body.attr(skipped).is_none(), "{skipped}");
        }
        // output re-parses
        let text = cloudless::hcl::render_file(&file);
        assert!(cloudless::hcl::parse(&text, "t").is_ok(), "{text}");
    }

    #[test]
    fn labels_are_sanitized_and_unique() {
        let bucket = |id, name| record(id, "aws_s3_bucket", attrs([("bucket", Value::from(name))]));
        let records = vec![
            bucket("x-1", "my-logs"),
            bucket("x-2", "my-logs"),
            bucket("x-3", "42weird name!"),
        ];
        let file = naive_port(&records, &Catalog::standard());
        let labels: Vec<&str> = file.blocks.iter().map(|b| b.labels[1].as_str()).collect();
        assert_eq!(labels, ["my_logs", "my_logs_2", "r42weird_name_"]);
    }

    #[test]
    fn references_stay_hardcoded() {
        // the baseline's defining flaw
        let records = vec![
            record(
                "vpc-1",
                "aws_vpc",
                attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
            ),
            record(
                "sn-1",
                "aws_subnet",
                attrs([
                    ("vpc_id", Value::from("vpc-1")),
                    ("cidr_block", Value::from("10.0.1.0/24")),
                ]),
            ),
        ];
        let file = naive_port(&records, &Catalog::standard());
        let subnet = file
            .blocks
            .iter()
            .find(|b| b.labels[0] == "aws_subnet")
            .unwrap();
        let vpc_id = subnet.body.attr("vpc_id").unwrap();
        assert_eq!(vpc_id.value.as_plain_str(), Some("vpc-1"));
    }

    #[test]
    fn optimizer_dominates_naive_on_every_metric() {
        let naive = measure(4, 5, false);
        let opt = measure(4, 5, true);
        assert!(opt.lines < naive.lines);
        assert!(opt.blocks < naive.blocks);
        assert!(opt.redundancy <= naive.redundancy);
        assert!(opt.abstraction > naive.abstraction);
        assert!(opt.quality > naive.quality + 10.0);
    }

    #[test]
    fn optimized_ports_round_trip() {
        for &(g, r) in &[(1usize, 5usize), (4, 5)] {
            let o = measure(g, r, true);
            assert!(o.round_trips, "{g}x{r} must round-trip");
        }
    }

    #[test]
    fn optimizer_scales_sublinearly() {
        let small = measure(1, 5, true);
        let large = measure(1, 20, true);
        // 4× the replicas, roughly constant program size (one counted block)
        assert!(large.lines <= small.lines + 2);
    }
}
