//! Seeded adversarial scenario generator for the drift reconciler.
//!
//! Every scenario is a pure function of `(family, seed)`: a base program,
//! a cloud configuration, and a script of out-of-band mutations, plus the
//! *oracle* — the minimal number of edit ops a perfect reconciler emits
//! for that script. [`Scenario::run`] deploys the base program through the
//! full [`Cloudless`] engine, replays the mutation script against the
//! simulated cloud, runs `reconcile`, and scores the result: did the loop
//! close (patched program re-plans to an empty diff), how many edit ops
//! did it spend versus the oracle, and how many repair iterations did the
//! lint/validate gate cost.
//!
//! Five families, each an operational war story the E-suite previously
//! never exercised:
//!
//! * [`Family::MultiRegionFailover`] — a region evacuation deletes one
//!   fleet wholesale while the surviving region's edge resources are
//!   hand-edited to absorb traffic;
//! * [`Family::OutageStorm`] — ordinary drift, but the reconcile's own
//!   re-converge runs under `FaultPlan::storm()` with a pinned fault seed
//!   (byte-reproducible thanks to the dedicated fault RNG stream);
//! * [`Family::QuotaExhaustion`] — rogue resources fill the quota to the
//!   brim and a managed resource is deleted: recreating it would exceed
//!   quota, so only *adopting* the deletion (and importing the rogues)
//!   closes the loop;
//! * [`Family::MassMigration`] — a large counted fleet is half-drained out
//!   of band while singletons are re-pointed;
//! * [`Family::ClickOpsSprawl`] — the classic: a pile of console-created
//!   strays plus hand-edits on managed singletons.

use cloudless::cloud::{CloudConfig, FaultPlan};
use cloudless::types::value::attrs;
use cloudless::types::{Attrs, Value};
use cloudless::{Cloudless, Config};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The five adversarial families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    MultiRegionFailover,
    OutageStorm,
    QuotaExhaustion,
    MassMigration,
    ClickOpsSprawl,
}

impl Family {
    pub const ALL: [Family; 5] = [
        Family::MultiRegionFailover,
        Family::OutageStorm,
        Family::QuotaExhaustion,
        Family::MassMigration,
        Family::ClickOpsSprawl,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Family::MultiRegionFailover => "multi-region failover",
            Family::OutageStorm => "provider outage storm",
            Family::QuotaExhaustion => "quota exhaustion",
            Family::MassMigration => "mass migration",
            Family::ClickOpsSprawl => "clickops sprawl",
        }
    }
}

/// One scripted out-of-band mutation.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Delete the managed resource at this address.
    Delete(String),
    /// Update attributes of the managed resource at this address.
    Update(String, Attrs),
    /// Create an unmanaged resource behind the program's back.
    Rogue {
        rtype: String,
        region: String,
        attrs: Attrs,
    },
}

/// A fully-specified adversarial scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub family: Family,
    pub seed: u64,
    /// The IaC program the estate was deployed from.
    pub source: String,
    /// Cloud substrate configuration (quota squeezes, etc.).
    pub cloud: CloudConfig,
    /// The out-of-band mutation script, replayed in order.
    pub mutations: Vec<Mutation>,
    /// Minimal edit-op count for this script (ground truth).
    pub oracle_ops: usize,
    /// Fault plan switched on *during* reconcile (outage storms), with the
    /// dedicated fault-stream seed that makes the schedule reproducible.
    pub reconcile_faults: Option<(FaultPlan, u64)>,
}

/// What happened when a scenario was run end to end.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    pub family: Family,
    pub seed: u64,
    /// The loop closed: reconcile succeeded and the patched program
    /// re-plans to an empty diff.
    pub converged: bool,
    /// Edit ops the reconciler emitted (after repair-loop drops).
    pub ops: usize,
    pub oracle_ops: usize,
    /// Validate-and-repair iterations used.
    pub iterations: usize,
    /// Ops dropped by the repair loop.
    pub dropped: usize,
    /// Cloud write operations the re-converge needed (adoption = 0).
    pub apply_ops: u64,
    /// The patched source (for differential checks).
    pub patched_source: String,
}

impl ScenarioOutcome {
    /// Patch minimality: emitted ops ÷ oracle ops (1.0 = perfect).
    pub fn minimality(&self) -> f64 {
        if self.oracle_ops == 0 {
            if self.ops == 0 {
                1.0
            } else {
                self.ops as f64
            }
        } else {
            self.ops as f64 / self.oracle_ops as f64
        }
    }
}

/// Generate the scenario for `(family, seed)`.
pub fn generate(family: Family, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CE4_A210);
    match family {
        Family::MultiRegionFailover => multi_region_failover(seed, &mut rng),
        Family::OutageStorm => outage_storm(seed, &mut rng),
        Family::QuotaExhaustion => quota_exhaustion(seed, &mut rng),
        Family::MassMigration => mass_migration(seed, &mut rng),
        Family::ClickOpsSprawl => clickops_sprawl(seed, &mut rng),
    }
}

/// The full suite: `per_family` seeded scenarios of every family.
pub fn suite(base_seed: u64, per_family: usize) -> Vec<Scenario> {
    let mut out = Vec::new();
    for family in Family::ALL {
        for i in 0..per_family {
            out.push(generate(family, base_seed.wrapping_add(i as u64)));
        }
    }
    out
}

fn multi_region_failover(seed: u64, rng: &mut StdRng) -> Scenario {
    // an east fleet, a west fleet, and two singleton edge resources
    let east = rng.gen_range(3..6);
    let west = rng.gen_range(2..4);
    let source = format!(
        r#"
resource "aws_vpc" "net" {{ cidr_block = "10.0.0.0/16" }}
resource "aws_virtual_machine" "east" {{
  count = {east}
  name  = "east-${{count.index}}"
}}
resource "aws_virtual_machine" "west" {{
  count = {west}
  name  = "west-${{count.index}}"
}}
resource "aws_s3_bucket" "failover_log" {{ bucket = "failover-log" }}
resource "aws_s3_bucket" "dns_map" {{ bucket = "dns-map" }}
"#
    );
    // the east region is evacuated wholesale; the ops team hand-edits both
    // edge singletons to carry the traffic
    let mut mutations: Vec<Mutation> = (0..east)
        .map(|i| Mutation::Delete(format!("aws_virtual_machine.east[{i}]")))
        .collect();
    mutations.push(Mutation::Update(
        "aws_s3_bucket.failover_log".into(),
        attrs([("bucket", Value::from(format!("failover-log-active-{seed}")))]),
    ));
    mutations.push(Mutation::Update(
        "aws_s3_bucket.dns_map".into(),
        attrs([("bucket", Value::from("dns-map-west"))]),
    ));
    Scenario {
        family: Family::MultiRegionFailover,
        seed,
        source,
        cloud: CloudConfig::exact(),
        mutations,
        // one SetCount collapses the whole evacuation; one SetAttr per
        // hand-edited singleton
        oracle_ops: 3,
        reconcile_faults: None,
    }
}

fn outage_storm(seed: u64, rng: &mut StdRng) -> Scenario {
    let fleet = rng.gen_range(4..7);
    let killed = rng.gen_range(1..3usize);
    let source = format!(
        r#"
resource "aws_vpc" "net" {{ cidr_block = "10.0.0.0/16" }}
resource "aws_virtual_machine" "app" {{
  count = {fleet}
  name  = "app-${{count.index}}"
}}
resource "aws_s3_bucket" "state" {{ bucket = "app-state" }}
"#
    );
    // the outage takes instances with it, and the reconcile itself must
    // run while the provider is still storming
    let mut mutations: Vec<Mutation> = (0..killed)
        .map(|i| Mutation::Delete(format!("aws_virtual_machine.app[{i}]")))
        .collect();
    mutations.push(Mutation::Update(
        "aws_s3_bucket.state".into(),
        attrs([("bucket", Value::from("app-state-dr"))]),
    ));
    Scenario {
        family: Family::OutageStorm,
        seed,
        source,
        cloud: CloudConfig::exact(),
        mutations,
        // one SetCount + one SetAttr
        oracle_ops: 2,
        reconcile_faults: Some((FaultPlan::storm(), seed ^ 0xFA17)),
    }
}

fn quota_exhaustion(seed: u64, rng: &mut StdRng) -> Scenario {
    let rogues = rng.gen_range(2..4usize);
    let managed = 2usize;
    let source = r#"
resource "aws_s3_bucket" "data" { bucket = "managed-data" }
resource "aws_s3_bucket" "logs" { bucket = "managed-logs" }
"#
    .to_owned();
    // a managed bucket is deleted and rogue buckets immediately squat the
    // freed quota: recreating the deletion would exceed quota, so the only
    // way to a zero-diff plan is adopting the deletion and importing the
    // strays
    let mut cloud = CloudConfig::exact();
    cloud
        .quota_overrides
        .insert("aws_s3_bucket".into(), (managed + rogues) as u32);
    let mut mutations = vec![Mutation::Delete("aws_s3_bucket.logs".into())];
    mutations.extend((0..rogues + 1).map(|i| Mutation::Rogue {
        rtype: "aws_s3_bucket".into(),
        region: "us-east-1".into(),
        attrs: attrs([("bucket", Value::from(format!("squatter-{seed}-{i}")))]),
    }));
    Scenario {
        family: Family::QuotaExhaustion,
        seed,
        source,
        cloud,
        mutations,
        // one AddBlock per rogue + one RemoveBlock for the deleted singleton
        oracle_ops: rogues + 2,
        reconcile_faults: None,
    }
}

fn mass_migration(seed: u64, rng: &mut StdRng) -> Scenario {
    let fleet: u32 = rng.gen_range(8..12);
    // victims sit at even indexes, so the highest touched index is
    // 2 * (drained - 1) — keep it inside the fleet
    let drained = rng.gen_range(3..=(fleet as usize).div_ceil(2).min(5));
    let source = format!(
        r#"
resource "aws_vpc" "net" {{ cidr_block = "10.0.0.0/16" }}
resource "aws_virtual_machine" "workers" {{
  count = {fleet}
  name  = "worker-${{count.index}}"
}}
resource "aws_s3_bucket" "queue" {{ bucket = "job-queue" }}
resource "aws_s3_bucket" "results" {{ bucket = "job-results" }}
"#
    );
    // half the fleet is drained into the new platform; both singletons are
    // re-pointed at it
    let mut mutations: Vec<Mutation> = (0..drained)
        .map(|i| Mutation::Delete(format!("aws_virtual_machine.workers[{}]", i * 2)))
        .collect();
    mutations.push(Mutation::Update(
        "aws_s3_bucket.queue".into(),
        attrs([("bucket", Value::from(format!("job-queue-v2-{seed}")))]),
    ));
    mutations.push(Mutation::Update(
        "aws_s3_bucket.results".into(),
        attrs([("bucket", Value::from("job-results-v2"))]),
    ));
    Scenario {
        family: Family::MassMigration,
        seed,
        source,
        cloud: CloudConfig::exact(),
        mutations,
        // one SetCount + two SetAttr
        oracle_ops: 3,
        reconcile_faults: None,
    }
}

fn clickops_sprawl(seed: u64, rng: &mut StdRng) -> Scenario {
    let rogues = rng.gen_range(3..6usize);
    let edits = rng.gen_range(1..3usize);
    let source = r#"
resource "aws_vpc" "net" { cidr_block = "10.0.0.0/16" }
resource "aws_s3_bucket" "a" { bucket = "estate-a" }
resource "aws_s3_bucket" "b" { bucket = "estate-b" }
resource "aws_s3_bucket" "c" { bucket = "estate-c" }
"#
    .to_owned();
    let mut mutations: Vec<Mutation> = (0..rogues)
        .map(|i| Mutation::Rogue {
            rtype: "aws_s3_bucket".into(),
            region: "us-east-1".into(),
            attrs: attrs([("bucket", Value::from(format!("sprawl-{seed}-{i}")))]),
        })
        .collect();
    for (i, label) in ["a", "b"].iter().enumerate().take(edits) {
        mutations.push(Mutation::Update(
            format!("aws_s3_bucket.{label}"),
            attrs([("bucket", Value::from(format!("estate-{label}-edited-{i}")))]),
        ));
    }
    Scenario {
        family: Family::ClickOpsSprawl,
        seed,
        source,
        cloud: CloudConfig::exact(),
        mutations,
        // one AddBlock per rogue + one SetAttr per edit
        oracle_ops: rogues + edits,
        reconcile_faults: None,
    }
}

impl Scenario {
    /// Build the engine, deploy the base estate, replay the mutation
    /// script. Returns the engine ready for `reconcile`.
    pub fn stage(&self) -> Cloudless {
        let mut engine = Cloudless::new(Config {
            cloud: self.cloud.clone(),
            seed: self.seed,
            ..Config::default()
        });
        engine
            .converge(&self.source)
            .unwrap_or_else(|e| panic!("{:?} base deploy failed: {e}", self.family));
        for m in &self.mutations {
            match m {
                Mutation::Delete(addr) => {
                    let id = engine
                        .state()
                        .get(&addr.parse().expect("scenario addr"))
                        .unwrap_or_else(|| panic!("{addr} not deployed"))
                        .id
                        .clone();
                    engine
                        .cloud_mut()
                        .out_of_band_delete("scenario", &id)
                        .expect("scripted delete");
                }
                Mutation::Update(addr, new_attrs) => {
                    let id = engine
                        .state()
                        .get(&addr.parse().expect("scenario addr"))
                        .unwrap_or_else(|| panic!("{addr} not deployed"))
                        .id
                        .clone();
                    engine
                        .cloud_mut()
                        .out_of_band_update("scenario", &id, new_attrs.clone())
                        .expect("scripted update");
                }
                Mutation::Rogue {
                    rtype,
                    region,
                    attrs,
                } => {
                    engine
                        .cloud_mut()
                        .out_of_band_create("scenario", rtype, region, attrs.clone())
                        .expect("scripted rogue create");
                }
            }
        }
        engine
    }

    /// Run the closed loop end to end and score it.
    pub fn run(&self) -> ScenarioOutcome {
        let mut engine = self.stage();
        if let Some((plan, fault_seed)) = &self.reconcile_faults {
            engine.cloud_mut().set_fault_plan(*plan);
            engine.cloud_mut().set_fault_seed(*fault_seed);
        }
        match engine.reconcile(&self.source, false) {
            Ok(r) => ScenarioOutcome {
                family: self.family,
                seed: self.seed,
                converged: r.converged,
                ops: r.plan.ops.len(),
                oracle_ops: self.oracle_ops,
                iterations: r.iterations,
                dropped: r.dropped.len(),
                apply_ops: r.apply.map(|a| a.ops_submitted).unwrap_or(0),
                patched_source: r.patched_source,
            },
            Err(_) => ScenarioOutcome {
                family: self.family,
                seed: self.seed,
                converged: false,
                ops: 0,
                oracle_ops: self.oracle_ops,
                iterations: 0,
                dropped: 0,
                apply_ops: 0,
                patched_source: String::new(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_families() {
        let s = suite(crate::SEED, 2);
        assert_eq!(s.len(), 10);
        for family in Family::ALL {
            assert_eq!(s.iter().filter(|sc| sc.family == family).count(), 2);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for family in Family::ALL {
            let a = generate(family, 7);
            let b = generate(family, 7);
            assert_eq!(a.source, b.source);
            assert_eq!(a.oracle_ops, b.oracle_ops);
            assert_eq!(format!("{:?}", a.mutations), format!("{:?}", b.mutations));
        }
    }

    #[test]
    fn every_family_converges_at_seed_42() {
        for family in Family::ALL {
            let sc = generate(family, crate::SEED);
            let out = sc.run();
            assert!(
                out.converged,
                "{} (seed {}) did not converge",
                family.name(),
                sc.seed
            );
            assert_eq!(
                out.ops,
                out.oracle_ops,
                "{}: {} ops vs oracle {}",
                family.name(),
                out.ops,
                out.oracle_ops
            );
        }
    }

    #[test]
    fn quota_exhaustion_cannot_be_solved_by_recreating() {
        // sanity-check the squeeze: a plain converge (overwrite semantics)
        // must fail to recreate the deleted bucket, while reconcile closes
        // the loop by adoption
        let sc = generate(Family::QuotaExhaustion, crate::SEED);
        let mut engine = sc.stage();
        engine.refresh().expect("refresh commits");
        let out = engine.converge(&sc.source).expect("plan admitted");
        assert!(
            !out.apply.all_ok(),
            "recreate should breach the squeezed quota"
        );
        let out = sc.run();
        assert!(out.converged);
        assert_eq!(out.apply_ops, 0, "adoption needs zero cloud writes");
    }

    #[test]
    fn outage_storm_is_reproducible() {
        let sc = generate(Family::OutageStorm, crate::SEED);
        let a = sc.run();
        let b = sc.run();
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.apply_ops, b.apply_ops);
        assert_eq!(a.patched_source, b.patched_source);
    }
}
