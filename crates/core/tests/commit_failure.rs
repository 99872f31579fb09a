//! The commit path returns errors and loses no work: a state log that
//! refuses an append surfaces as a typed error (never a panic), and the
//! engine keeps the refused snapshot and commits it before it does anything
//! else (a retry never applies the same work twice). `rollback_exec.rs`
//! holds the same for an infrastructure rollback. A refused append leaves
//! the log as it was, and a refused checkpoint fails no commit.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use cloudless::state::{fsck_bytes, LogDevice, LogStore, MemDevice};
use cloudless::{Cloudless, ConvergeError};
use common::{config, flaky_engine, FlakyDevice, NoCheckpointDevice, TearingDevice, SRC};

/// An engine over a fresh log on `device`.
fn engine_over(device: impl LogDevice + 'static) -> Cloudless {
    let (store, _) = LogStore::open_device(Box::new(device)).expect("fresh log opens");
    Cloudless::with_store(config(), store, Default::default())
}

/// `logged` is a clean log whose head is `engine`'s state. Returns its
/// checkpoint lag.
fn assert_logs(logged: Vec<u8>, engine: &Cloudless) -> usize {
    assert!(
        fsck_bytes(&logged).clean(),
        "{}",
        fsck_bytes(&logged).render()
    );
    let (reopened, recovery) =
        LogStore::open_device(Box::new(MemDevice::from_bytes(logged))).expect("log reopens");
    assert_eq!(recovery.torn_bytes_dropped, 0);
    assert_eq!(reopened.current().to_json(), engine.state().to_json());
    reopened.checkpoint_lag()
}

#[test]
fn a_failed_append_is_an_error_and_a_retry_commits_without_reapplying() {
    let (mut engine, healthy, bytes) = flaky_engine();

    healthy.store(false, Ordering::SeqCst);
    let err = engine.converge(SRC).expect_err("the commit cannot land");
    assert!(matches!(err, ConvergeError::State(_)), "{err}");
    assert!(err.to_string().contains("no space left"), "{err}");
    assert!(engine.state().is_empty(), "nothing was committed");
    assert_eq!(engine.history().len(), 0);
    assert_eq!(engine.cloud().records().len(), 1, "the apply itself ran");
    // while the log stays down every operation stops at the same commit,
    // before it reads or writes the cloud
    let calls = engine.cloud().total_api_calls();
    assert!(matches!(engine.converge(SRC), Err(ConvergeError::State(_))));
    assert!(engine.refresh().is_err());
    assert_eq!(engine.cloud().total_api_calls(), calls);

    healthy.store(true, Ordering::SeqCst);
    let planned = |e: &Cloudless| {
        let metrics = e.metrics().expect("a flight recorder keeps metrics");
        metrics.counter("pipeline.instances_planned")
    };
    let before = planned(&engine);
    let out = engine.converge(SRC).expect("a healthy device commits");
    // the refused snapshot went in first, so the retry had nothing to do;
    // its commit settled the plan cache, so the retry planned nothing
    assert_eq!(out.apply.ops_submitted, 0, "{}", out.plan_text);
    assert_eq!(planned(&engine) - before, 0, "the late commit settled");
    assert_eq!(engine.state().len(), 1);
    assert_eq!(
        engine.cloud().records().len(),
        1,
        "nothing was created twice"
    );
    assert_eq!(
        engine.history().len(),
        2,
        "the refused version, then the retry's"
    );

    // what reached the device is a valid log of exactly that state: the
    // failed commit left no half-remembered blob behind
    let logged = bytes.lock().expect("test mutex").clone();
    assert!(fsck_bytes(&logged).clean(), "{:?}", fsck_bytes(&logged));
    let (reopened, recovery) =
        LogStore::open_device(Box::new(MemDevice::from_bytes(logged))).expect("log reopens");
    assert_eq!(recovery.torn_bytes_dropped, 0);
    assert_eq!(reopened.current().to_json(), engine.state().to_json());
}

#[test]
fn a_retry_of_the_same_content_frames_its_blobs_again() {
    // store-level: the commit that failed and the retry carry the *same*
    // resource body, so the retry must not dedup against the failed one
    let bytes = Arc::new(Mutex::new(Vec::new()));
    let healthy = Arc::new(AtomicBool::new(true));
    let device = FlakyDevice {
        bytes: Arc::clone(&bytes),
        healthy: Arc::clone(&healthy),
    };
    let (mut store, _) = LogStore::open_device(Box::new(device)).expect("fresh log opens");
    let mut engine = Cloudless::new(config());
    engine.converge(SRC).expect("deploys in memory");
    let target = engine.state().clone();

    healthy.store(false, Ordering::SeqCst);
    let meta = || cloudless::state::CommitMeta::bare("adopt");
    assert!(store.commit_snapshot(&target, meta()).is_err());
    healthy.store(true, Ordering::SeqCst);
    store
        .commit_snapshot(&target, meta())
        .expect("retry commits");

    let logged = bytes.lock().expect("test mutex").clone();
    let (reopened, _) =
        LogStore::open_device(Box::new(MemDevice::from_bytes(logged))).expect("log reopens");
    assert_eq!(reopened.current().resources(), target.resources());
}

/// A refused commit leaves the engine without a sync point: the refresh
/// after it reads every managed resource, not only the ones the log names.
#[test]
fn the_refresh_after_a_refused_commit_reads_every_resource() {
    let (mut engine, healthy, _) = flaky_engine();
    let two = format!("{SRC}resource \"aws_s3_bucket\" \"b\" {{ bucket = \"b\" }}\n");
    assert!(engine.converge(&two).expect("deploys").apply.all_ok());
    assert_eq!(
        engine.refresh().expect("commits").reads,
        2,
        "a store engine starts unsynced"
    );
    assert_eq!(
        engine.refresh().expect("commits").reads,
        0,
        "then reads what the log names"
    );

    healthy.store(false, Ordering::SeqCst);
    let renamed = two.replace("bucket = \"b\"", "bucket = \"b2\"");
    let err = engine
        .converge(&renamed)
        .expect_err("the commit cannot land");
    assert!(matches!(err, ConvergeError::State(_)), "{err}");
    healthy.store(true, Ordering::SeqCst);
    assert_eq!(engine.refresh().expect("commits").reads, 2);
}

#[test]
fn a_half_written_append_is_cut_back_before_the_log_grows_again() {
    // the device cuts the torn half back at once, or only once it is healthy
    for stuck in [false, true] {
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let healthy = Arc::new(AtomicBool::new(true));
        let flaky = FlakyDevice {
            bytes: Arc::clone(&bytes),
            healthy: Arc::clone(&healthy),
        };
        let mut engine = engine_over(TearingDevice { flaky, stuck });

        healthy.store(false, Ordering::SeqCst);
        let err = engine.converge(SRC).expect_err("the commit cannot land");
        assert!(matches!(err, ConvergeError::State(_)), "{err}");
        healthy.store(true, Ordering::SeqCst);
        let out = engine.converge(SRC).expect("a healthy device commits");
        assert_eq!(out.apply.ops_submitted, 0, "{}", out.plan_text);
        assert_eq!(engine.history().len(), 2);

        let logged = bytes.lock().expect("test mutex").clone();
        assert_logs(logged, &engine);
    }
}

#[test]
fn a_refused_checkpoint_fails_no_commit_and_stays_due() {
    let bytes = Arc::new(Mutex::new(Vec::new()));
    let mut engine = engine_over(NoCheckpointDevice(Arc::clone(&bytes)));
    // 70 blocks: the first version's 70 puts make a checkpoint due
    let program: String = (0..70)
        .map(|i| format!("resource \"aws_s3_bucket\" \"b{i}\" {{ bucket = \"b-{i}\" }}\n"))
        .collect();
    let out = engine.converge(&program).expect("version 1 landed");
    assert!(out.apply.all_ok(), "{:?}", out.apply.errors());
    assert_eq!(engine.history().len(), 1, "no duplicate of version 1");
    assert_eq!(engine.state().len(), 70);
    // the next commit tries the fold again, and is not failed by it either
    let out = engine.converge(&program).expect("version 2 lands");
    assert_eq!(out.apply.ops_submitted, 0, "{}", out.plan_text);
    assert_eq!(engine.history().len(), 2);
    assert_eq!(engine.store().checkpoint_lag(), 2);

    let logged = bytes.lock().expect("test mutex").clone();
    assert_eq!(assert_logs(logged, &engine), 2);
}
