//! Property tests on the cloud substrate: rate-limiter invariants and
//! whole-engine sanity under random operation sequences.

use cloudless_cloud::latency::TokenBucket;
use cloudless_cloud::{ApiOp, ApiRequest, Cloud, CloudConfig, FaultPlan, OpOutcome};
use cloudless_types::{Attrs, Region, ResourceTypeName, SimTime, Value};
use proptest::prelude::*;

proptest! {
    /// Admission times are monotone in arrival order and never precede the
    /// request.
    #[test]
    fn token_bucket_admissions_are_monotone(
        capacity in 1u32..20,
        refill in 0.5f64..50.0,
        arrivals in proptest::collection::vec(0u64..10_000, 1..60),
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut bucket = TokenBucket::new(capacity, refill);
        let mut last_start = SimTime::ZERO;
        for t in sorted {
            let arrive = SimTime(t);
            let start = bucket.admit(arrive);
            prop_assert!(start >= arrive, "admitted before arrival");
            prop_assert!(start >= last_start, "admissions went backwards");
            last_start = start;
        }
    }

    /// The long-run admitted rate never exceeds the refill rate (plus the
    /// initial burst).
    #[test]
    fn token_bucket_respects_rate(
        capacity in 1u32..10,
        refill in 1.0f64..20.0,
        n in 10usize..80,
    ) {
        let mut bucket = TokenBucket::new(capacity, refill);
        // everyone arrives at t=0; the k-th admission beyond the burst must
        // wait at least (k / refill) seconds
        let mut last = SimTime::ZERO;
        for i in 0..n {
            last = bucket.admit(SimTime::ZERO);
            let beyond_burst = (i as i64) - (capacity as i64) + 1;
            if beyond_burst > 0 {
                let min_ms = (beyond_burst as f64 / refill * 1000.0) as u64;
                prop_assert!(
                    last.millis() + 1 >= min_ms,
                    "op {i} admitted at {} < min {min_ms}",
                    last.millis()
                );
            }
        }
        prop_assert!(last.millis() > 0 || n <= capacity as usize);
    }

    /// Random bucket-create workloads: the engine never panics, each op
    /// either lands (record exists) or fails (record absent), and the
    /// record count equals the number of successful creates minus deletes.
    #[test]
    fn engine_accounting_is_consistent(
        seed in 0u64..1000,
        names in proptest::collection::vec("[a-z]{1,6}", 1..20),
        fail_rate in 0.0f64..0.3,
    ) {
        let mut config = CloudConfig::exact();
        config.faults = FaultPlan {
            transient_failure_rate: fail_rate,
            hang_rate: 0.0,
            hang_factor: 1.0,
            ..FaultPlan::none()
        };
        let mut cloud = Cloud::new(config, seed);
        let mut expected_live = std::collections::BTreeSet::new();
        for name in &names {
            let mut attrs = Attrs::new();
            attrs.insert("bucket".into(), Value::from(name.clone()));
            let done = cloud
                .submit_and_settle(ApiRequest::new(
                    ApiOp::Create {
                        rtype: ResourceTypeName::new("aws_s3_bucket"),
                        region: Region::new("us-east-1"),
                        attrs,
                    },
                    "prop",
                ))
                .expect("front door accepts");
            match done.outcome {
                OpOutcome::Created { id, .. } => {
                    prop_assert!(cloud.records().contains_key(&id));
                    expected_live.insert(id);
                }
                OpOutcome::Failed(e) => {
                    // duplicate names or injected faults only
                    prop_assert!(
                        e.code == "BucketAlreadyExists" || e.retryable,
                        "unexpected failure {e}"
                    );
                }
                other => prop_assert!(false, "unexpected outcome {other:?}"),
            }
        }
        prop_assert_eq!(cloud.records().len(), expected_live.len());
        // every live record is queryable through the API
        for id in expected_live {
            let done = cloud
                .submit_and_settle(ApiRequest::new(ApiOp::Read { id: id.clone() }, "prop"))
                .expect("read accepted");
            let read_ok = matches!(done.outcome, OpOutcome::ReadOk { .. });
            prop_assert!(read_ok);
        }
    }

    /// The activity log grows by exactly one entry per successful mutation
    /// and records monotonically non-decreasing timestamps.
    #[test]
    fn activity_log_is_append_only_and_ordered(
        seed in 0u64..500,
        n in 1usize..15,
    ) {
        let mut cloud = Cloud::new(CloudConfig::exact(), seed);
        for i in 0..n {
            let mut attrs = Attrs::new();
            attrs.insert("bucket".into(), Value::from(format!("b{i}")));
            let _ = cloud.submit_and_settle(ApiRequest::new(
                ApiOp::Create {
                    rtype: ResourceTypeName::new("aws_s3_bucket"),
                    region: Region::new("us-east-1"),
                    attrs,
                },
                "prop",
            ));
        }
        let log = cloud.activity().all();
        prop_assert_eq!(log.len(), n);
        for w in log.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
            prop_assert!(w[0].seq < w[1].seq);
        }
    }
}
