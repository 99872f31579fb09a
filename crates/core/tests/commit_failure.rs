//! The commit path returns errors and loses no work: a state log that
//! refuses an append surfaces as a typed error (never a panic), the engine
//! keeps the refused snapshot and commits it before it does anything else
//! (a retry never applies the same work twice), and a rollback that fails
//! midway still commits the steps it already executed against the cloud.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use cloudless::cloud::CloudConfig;
use cloudless::state::{fsck_bytes, LogDevice, LogStore, MemDevice, StoreError};
use cloudless::types::Value;
use cloudless::{Cloudless, Config, ConvergeError};

/// A log device whose appends fail while `healthy` is off. The bytes are
/// shared so the test can re-open what actually reached the "disk".
struct FlakyDevice {
    bytes: Arc<Mutex<Vec<u8>>>,
    healthy: Arc<AtomicBool>,
}

impl LogDevice for FlakyDevice {
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        Ok(self.bytes.lock().expect("test mutex").clone())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        if !self.healthy.load(Ordering::SeqCst) {
            return Err(StoreError::Io(std::io::Error::other(
                "no space left on device",
            )));
        }
        self.bytes
            .lock()
            .expect("test mutex")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.bytes
            .lock()
            .expect("test mutex")
            .truncate(len as usize);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        *self.bytes.lock().expect("test mutex") = bytes.to_vec();
        Ok(())
    }
}

fn config() -> Config {
    Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    }
}

const SRC: &str = r#"resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
}
"#;

/// An engine over a log device that fails while `healthy` is off, plus the
/// bytes that reached the device.
fn flaky_engine() -> (Cloudless, Arc<AtomicBool>, Arc<Mutex<Vec<u8>>>) {
    let bytes = Arc::new(Mutex::new(Vec::new()));
    let healthy = Arc::new(AtomicBool::new(true));
    let device = FlakyDevice {
        bytes: Arc::clone(&bytes),
        healthy: Arc::clone(&healthy),
    };
    let (store, _) = LogStore::open_device(Box::new(device)).expect("fresh log opens");
    let engine = Cloudless::with_store(config(), store, Default::default());
    (engine, healthy, bytes)
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
    let out = engine.converge(SRC).expect("a healthy device commits");
    // the refused snapshot went in first, so the retry had nothing to do
    assert_eq!(out.apply.ops_submitted, 0, "{}", out.plan_text);
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
    assert_eq!(reopened.current().resources, target.resources);
}

/// Deploy two machines at two sizes, plan the rollback to the first, then
/// pull the second step's resource out from under it.
fn rollback_with_a_doomed_second_step(engine: &mut Cloudless) -> cloudless::deploy::RollbackPlan {
    let v = |size: &str| {
        format!(
            r#"resource "aws_virtual_machine" "a" {{
  name          = "a"
  instance_type = "{size}"
}}
resource "aws_virtual_machine" "b" {{
  name          = "b"
  instance_type = "{size}"
}}
"#
        )
    };
    engine.converge(&v("t3.micro")).expect("v1");
    let checkpoint = engine.history().latest().expect("v1 committed").serial;
    engine.converge(&v("m5.large")).expect("v2");
    let plan = engine.plan_rollback_to(checkpoint).expect("plans");
    assert_eq!(plan.reverts(), 2);
    let b = "aws_virtual_machine.b".parse().expect("address");
    let b_id = engine.state().get(&b).expect("b deployed").id.clone();
    engine
        .cloud_mut()
        .out_of_band_delete("intern", &b_id)
        .expect("deletes");
    plan
}

fn size(engine: &Cloudless, name: &str) -> Option<Value> {
    let addr = format!("aws_virtual_machine.{name}")
        .parse()
        .expect("address");
    let deployed = engine.state().get(&addr).expect("still managed");
    deployed.attr("instance_type").cloned()
}

#[test]
fn a_rollback_that_fails_midway_commits_the_steps_it_ran() {
    let mut engine = Cloudless::new(config());
    let plan = rollback_with_a_doomed_second_step(&mut engine);
    let versions = engine.history().len();
    engine
        .execute_rollback(&plan)
        .expect_err("the second revert has nothing to update");
    // the first revert reached the cloud, so it must be in state as well
    assert_eq!(size(&engine, "a"), Some(Value::from("t3.micro")));
    assert_eq!(size(&engine, "b"), Some(Value::from("m5.large")));
    assert_eq!(engine.history().len(), versions + 1);
}

#[test]
fn a_rollback_whose_step_and_commit_both_fail_reports_both_and_commits_later() {
    let (mut engine, healthy, _) = flaky_engine();
    let plan = rollback_with_a_doomed_second_step(&mut engine);
    let versions = engine.history().len();
    healthy.store(false, Ordering::SeqCst);
    let err = engine.execute_rollback(&plan).expect_err("both fail");
    let (step, commit) = (err.split_once("; the steps before it are not committed yet: "))
        .unwrap_or_else(|| panic!("{err}"));
    assert!(
        !step.is_empty() && commit.contains("no space left"),
        "{err}"
    );
    assert_eq!(engine.history().len(), versions);

    healthy.store(true, Ordering::SeqCst);
    engine
        .refresh()
        .expect("commits the first revert, then refreshes");
    assert_eq!(size(&engine, "a"), Some(Value::from("t3.micro")));
    let log: Vec<_> = engine.history().iter().map(|v| &v.message).collect();
    assert!(
        log.iter().any(|m| m.contains("stopped at a failed step")),
        "{log:?}"
    );
}
