//! E2 — incremental updates vs. full replan (§3.3).
//!
//! Claim: "even a single resource update will trigger expensive queries on
//! all cloud-level resource state and recomputation of the deployment plan
//! from the ground up … By identifying the 'impact scope' of a deployment
//! change, we can confine the changes to a significantly smaller resource
//! subgraph."

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

use cloudless::cloud::CloudConfig;
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{diff, full_refresh, scoped_refresh, Plan, PlannedChange, Strategy};
use cloudless::hcl::program::ModuleLibrary;
use cloudless::obs::{NullRecorder, Recorder};
use cloudless::pipeline::{IncrementalPipeline, PipelineCtx};
use cloudless::state::Snapshot;
use cloudless::types::{ResourceAddr, SimDuration};
use cloudless::validate::ValidationLevel;
use cloudless::LintGate;

use crate::table::{ratio, Table};
use crate::SEED;

/// Fleet: shared fabric + `n` VMs; the delta changes `k` VMs' instance
/// type.
fn fleet(n: usize, instance_type: &str, changed: usize) -> String {
    let mut out = String::from(
        r#"resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
"#,
    );
    // `changed` VMs get the new type, the rest keep the old one; emitting
    // them as separate blocks makes the delta size explicit
    let _ = writeln!(
        out,
        "resource \"aws_virtual_machine\" \"hot\" {{\n  count = {changed}\n  name = \"hot-${{count.index}}\"\n  subnet_id = aws_subnet.app.id\n  instance_type = \"{instance_type}\"\n}}"
    );
    let _ = writeln!(
        out,
        "resource \"aws_virtual_machine\" \"cold\" {{\n  count = {}\n  name = \"cold-${{count.index}}\"\n  subnet_id = aws_subnet.app.id\n  instance_type = \"t3.micro\"\n}}",
        n - changed
    );
    out
}

struct Cell {
    reads: u64,
    time: SimDuration,
    plan_len: usize,
}

/// E2 runs with the standard API rate limit: refresh cost in *time* only
/// materializes when reads contend for API tokens, which is exactly the
/// regime the paper describes (§3.5 rate limiting, §3.3 expensive queries).
fn e2_cloud_config() -> cloudless::cloud::CloudConfig {
    let mut config = CloudConfig::exact();
    config.rate_limit = Some(cloudless::cloud::RateLimit::standard());
    config
}

pub fn run() -> String {
    let mut t = Table::new(
        "E2 — single update turnaround: full replan vs. impact-scoped incremental",
        &[
            "fleet size",
            "delta",
            "full: reads",
            "full: time",
            "inc: reads",
            "inc: time",
            "reads saved",
            "speedup",
        ],
    );
    for &n in &[50usize, 200, 1000] {
        for &k in &[1usize, 5, 25] {
            if k >= n {
                continue;
            }
            let (full, inc) = measure(n, k);
            assert_eq!(full.plan_len, inc.plan_len, "same plan either way");
            t.row(vec![
                n.to_string(),
                format!("{k} vm(s)"),
                full.reads.to_string(),
                full.time.to_string(),
                inc.reads.to_string(),
                inc.time.to_string(),
                ratio(full.reads as f64, inc.reads.max(1) as f64),
                ratio(full.time.millis() as f64, inc.time.millis().max(1) as f64),
            ]);
        }
    }
    t.render()
}

fn measure(n: usize, k: usize) -> (Cell, Cell) {
    let old_src = fleet(n, "t3.micro", k);
    let new_src = fleet(n, "t3.large", k);
    let catalog = super::quota_raised_catalog();
    let data = DataResolver::new();

    // ---- full replan baseline ----
    let (_, mut cloud, mut state) = super::deploy(
        &old_src,
        Strategy::TerraformWalk { parallelism: 10 },
        e2_cloud_config(),
        SEED,
    );
    let new_m = super::manifest_of(&new_src);
    let start = cloud.now();
    let reads_before = cloud.total_api_calls();
    let refresh = full_refresh(&mut cloud, &mut state, "engine");
    let changes = diff(&new_m, &state, &catalog, &data);
    let plan = Plan::build(changes, &state, &catalog);
    let full = Cell {
        reads: cloud.total_api_calls() - reads_before,
        time: cloud.now().since(start),
        plan_len: plan.len(),
    };
    let _ = refresh;

    // ---- incremental: the warm front end names the impact scope ----
    let (_, mut cloud, state) = super::deploy(
        &old_src,
        Strategy::TerraformWalk { parallelism: 10 },
        e2_cloud_config(),
        SEED,
    );
    let (inputs, modules) = (BTreeMap::new(), ModuleLibrary::new());
    let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let mut pipeline = IncrementalPipeline::default();
    let mut replan = |source: &str, state: &Snapshot| -> Vec<PlannedChange> {
        let ctx = PipelineCtx {
            inputs: &inputs,
            modules: &modules,
            lint: LintGate::default(),
            level: ValidationLevel::CloudRules,
            data: &data,
            catalog: &catalog,
            state,
            miner: None,
            recorder: &recorder,
        };
        let out = pipeline.run(source, &ctx).expect("fleet program is clean");
        let actionable = out.changes.into_iter().filter(|c| !c.action.is_noop());
        actionable.collect()
    };
    replan(&old_src, &state); // the memo a long-lived engine holds
    let start = cloud.now();
    let reads_before = cloud.total_api_calls();
    // what the edit can change, and what those changes read: re-read only
    // that, then plan against what came back
    let mut scope: BTreeSet<ResourceAddr> = BTreeSet::new();
    for change in replan(&new_src, &state) {
        scope.extend(
            change
                .desired
                .iter()
                .flat_map(|d| d.depends_on.iter().cloned()),
        );
        scope.insert(change.addr);
    }
    let mut refreshed = Cow::Borrowed(&state);
    scoped_refresh(&mut cloud, &mut refreshed, "engine", scope);
    let state = refreshed.into_owned();
    let plan = Plan::build(replan(&new_src, &state), &state, &catalog);
    let inc = Cell {
        reads: cloud.total_api_calls() - reads_before,
        time: cloud.now().since(start),
        plan_len: plan.len(),
    };
    (full, inc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_strictly_cheaper() {
        let (full, inc) = measure(50, 1);
        assert!(
            inc.reads < full.reads / 5,
            "{} vs {}",
            inc.reads,
            full.reads
        );
        assert!(inc.time < full.time);
        assert_eq!(full.plan_len, inc.plan_len);
        assert_eq!(inc.plan_len, 1);
    }

    #[test]
    fn savings_grow_with_fleet_size() {
        let (full_small, inc_small) = measure(50, 1);
        let (full_large, inc_large) = measure(200, 1);
        let saving_small = full_small.reads as f64 / inc_small.reads.max(1) as f64;
        let saving_large = full_large.reads as f64 / inc_large.reads.max(1) as f64;
        assert!(saving_large > saving_small);
    }
}
