//! A replace is two steps, and whatever goes wrong goes wrong in one of
//! them: {destroy-first, create-before-destroy} × {transient fault, deadline
//! cancel} × {first step, second step}. The op that goes out again is the
//! failed step's — never the other half, never `StateInconsistent` — and
//! when the node lands there is exactly one live resource and one state
//! entry, with the old id gone. When the budget runs out instead, what is
//! left is what the steps that landed made.

use std::collections::{BTreeMap, BTreeSet};

use cloudless_cloud::{Catalog, Cloud, CloudConfig, FaultPlan};
use cloudless_deploy::resolver::DataResolver;
use cloudless_deploy::{
    diff, DeadlinePolicy, Executor, NodeResult, Plan, ResiliencePolicy, Strategy as ExecStrategy,
};
use cloudless_hcl::program::{expand, Manifest, ModuleLibrary, Program};
use cloudless_obs::{FieldValue, FlightRecorder};
use cloudless_state::Snapshot;
use cloudless_types::{ResourceAddr, SimDuration, Value};
use proptest::prelude::*;

const ADDR: &str = "aws_db_instance.db";

/// `engine` forces a new resource.
fn db(engine: &str, cbd: bool) -> Manifest {
    let lifecycle = if cbd {
        "lifecycle {\n    create_before_destroy = true\n  }"
    } else {
        ""
    };
    let src = format!(
        "resource \"aws_db_instance\" \"db\" {{\n  name = \"db\"\n  engine = \"{engine}\"\n  {lifecycle}\n}}"
    );
    let p = Program::from_file(cloudless_hcl::parse(&src, "main.tf").unwrap()).unwrap();
    let data = DataResolver::new();
    expand(&p, &BTreeMap::new(), &ModuleLibrary::new(), &data).unwrap()
}

/// How often each step of the replace went to the cloud, and how it ended.
#[derive(Debug)]
struct Seen {
    first: usize,
    second: usize,
    ok: bool,
}

/// Build the instance on a healthy cloud, then replace it under faults
/// drawn from `seed`, with `budget` attempts (and as many timeouts).
fn replace_under(cbd: bool, hang: bool, budget: u32, seed: u64) -> Seen {
    let catalog = Catalog::standard();
    let data = DataResolver::new();
    let addr: ResourceAddr = ADDR.parse().unwrap();
    let mut cloud = Cloud::new(CloudConfig::exact(), 7);
    let mut state = Snapshot::new();
    let plan = Plan::build(
        diff(&db("postgres15", cbd), &state, &catalog, &data),
        &state,
        &catalog,
    );
    let healthy = Executor::new(ExecStrategy::Sequential, &data);
    assert!(healthy.apply(&plan, &mut cloud, &mut state).all_ok());
    let old_id = state.get(&addr).unwrap().id.clone();

    cloud.set_fault_plan(if hang {
        FaultPlan {
            transient_failure_rate: 0.0,
            hang_rate: 0.5,
            hang_factor: 10.0,
            ..FaultPlan::none()
        }
    } else {
        FaultPlan {
            transient_failure_rate: 0.5,
            hang_rate: 0.0,
            hang_factor: 1.0,
            ..FaultPlan::none()
        }
    });
    cloud.set_fault_seed(seed);
    let recorder = FlightRecorder::shared(4096);
    cloud.set_recorder(recorder.clone());
    let mut policy = ResiliencePolicy::standard();
    policy.retry.max_attempts_per_node = budget;
    policy.retry.max_timeouts_per_node = budget;
    policy.deadline = DeadlinePolicy::EstimateFactor {
        factor: 2.0,
        floor: SimDuration::ZERO,
    };
    let plan = Plan::build(
        diff(&db("postgres16", cbd), &state, &catalog, &data),
        &state,
        &catalog,
    );
    assert_eq!(plan.len(), 1);
    let exec = Executor::new(ExecStrategy::Sequential, &data).with_resilience(policy);
    let report = exec.apply(&plan, &mut cloud, &mut state);
    let case = format!("cbd {cbd}, hang {hang}, budget {budget}, seed {seed}");

    // the ops the cloud was sent, in order: the first step until it lands,
    // then the second
    let verbs: Vec<String> = recorder
        .events()
        .iter()
        .filter(|e| (e.component, e.name) == ("cloud", "submit"))
        .filter_map(|e| e.fields.iter().find(|(k, _)| *k == "op"))
        .map(|(_, v)| match v {
            FieldValue::Str(verb) => verb.clone(),
            other => panic!("{case}: op verb {other:?}"),
        })
        .collect();
    let (one, two) = if cbd {
        ("create", "delete")
    } else {
        ("delete", "create")
    };
    let first = verbs.iter().take_while(|v| *v == one).count();
    let second = verbs.len() - first;
    assert!(first >= 1, "{case}: {verbs:?}");
    assert!(verbs[first..].iter().all(|v| v == two), "{case}: {verbs:?}");
    let stats = report.node_stats[ADDR];
    assert_eq!(stats.attempts as usize, verbs.len(), "{case}");
    // every op either landed, was retried, or was the last straw
    let landed = usize::from(second > 0) + usize::from(report.all_ok());
    assert_eq!(
        (stats.retries + stats.timeouts) as usize + landed + usize::from(!report.all_ok()),
        verbs.len(),
        "{case}"
    );
    assert_eq!(report.results.len(), 1, "{case}");

    let live = |id| cloud.records().contains_key(id);
    let in_state = state.get(&addr).map(|rec| rec.id.clone());
    match &report.results[ADDR] {
        NodeResult::Ok => {
            assert!(second >= 1, "{case}");
            let new_id = in_state.expect("one state entry");
            assert_ne!(new_id, old_id, "{case}");
            assert_eq!((state.len(), cloud.records().len()), (1, 1), "{case}");
            assert!(live(&new_id) && !live(&old_id), "{case}");
            let engine = cloud.records()[&new_id].attrs.get("engine");
            assert_eq!(engine, Some(&Value::from("postgres16")), "{case}");
        }
        NodeResult::Failed {
            error, timed_out, ..
        } => {
            assert_ne!(error.code, "StateInconsistent", "{case}: {error:?}");
            assert!(error.retryable, "{case}: {error:?}");
            assert_eq!(*timed_out, hang, "{case}");
            match (second, cbd) {
                // nothing landed: the old resource, still recorded
                (0, _) => {
                    assert_eq!(in_state.as_ref(), Some(&old_id), "{case}");
                    assert_eq!(cloud.records().len(), 1, "{case}");
                    assert!(live(&old_id), "{case}");
                }
                // destroyed, not recreated
                (_, false) => {
                    assert!(in_state.is_none() && cloud.records().is_empty(), "{case}");
                }
                // created, the old one not destroyed: state holds the new
                // resource, and the old one is live and unrecorded
                (_, true) => {
                    let new_id = in_state.expect("the create landed");
                    assert_ne!(new_id, old_id, "{case}");
                    assert_eq!((state.len(), cloud.records().len()), (1, 2), "{case}");
                    assert!(live(&new_id) && live(&old_id), "{case}");
                }
            }
        }
        skipped => panic!("{case}: {skipped:?}"),
    }
    Seen {
        first,
        second,
        ok: report.all_ok(),
    }
}

proptest! {
    #[test]
    fn a_retry_resubmits_the_step_that_failed(
        cbd in any::<bool>(),
        hang in any::<bool>(),
        budget in 1u32..8,
        seed in any::<u64>(),
    ) {
        replace_under(cbd, hang, budget, seed);
    }
}

/// Every cell of the sweep is reached by a small seed, so the property
/// above is not vacuous: each step retried and then landed, under each
/// kind of fault and each order, and each order running out of budget in
/// its second step. (Destroy-first, transient, second step is the
/// inverted-retry-phase regression: the create must be retried, not the
/// delete of a record that is gone.)
#[test]
fn every_step_of_every_order_is_retried_and_exhausted() {
    let mut seen = BTreeSet::new();
    for cbd in [false, true] {
        for hang in [false, true] {
            for seed in 0..40 {
                for budget in [3, 6] {
                    let s = replace_under(cbd, hang, budget, seed);
                    if s.ok && s.first > 1 {
                        seen.insert((cbd, hang, "first step retried"));
                    }
                    if s.ok && s.second > 1 {
                        seen.insert((cbd, hang, "second step retried"));
                    }
                    if !s.ok && s.second > 0 {
                        seen.insert((cbd, hang, "second step exhausted"));
                    }
                }
            }
        }
    }
    let cells = [
        "first step retried",
        "second step retried",
        "second step exhausted",
    ];
    let missing: Vec<_> = [false, true]
        .into_iter()
        .flat_map(|cbd| [false, true].map(|hang| (cbd, hang)))
        .flat_map(|(cbd, hang)| cells.map(|cell| (cbd, hang, cell)))
        .filter(|cell| !seen.contains(cell))
        .collect();
    assert!(missing.is_empty(), "never reached: {missing:?}");
}
