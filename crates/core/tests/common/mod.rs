//! Shared by the commit-path suites: an engine over a state log that can
//! be made to refuse appends, and two devices that fail the way a full disk
//! does — part of an append written, or only a checkpoint refused.
#![allow(dead_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use cloudless::cloud::CloudConfig;
use cloudless::obs::FlightRecorder;
use cloudless::state::{LogDevice, LogStore, StoreError};
use cloudless::{Cloudless, Config};

/// A log device whose appends fail while `healthy` is off. The bytes are
/// shared so the test can re-open what actually reached the "disk".
pub struct FlakyDevice {
    pub bytes: Arc<Mutex<Vec<u8>>>,
    pub healthy: Arc<AtomicBool>,
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

/// A [`FlakyDevice`] whose refused appends first write half their bytes,
/// as `write_all` does when the disk fills mid-write; a `stuck` one refuses
/// to truncate too while it is unhealthy.
pub struct TearingDevice {
    pub flaky: FlakyDevice,
    pub stuck: bool,
}

impl TearingDevice {
    fn healthy(&self) -> bool {
        self.flaky.healthy.load(Ordering::SeqCst)
    }
}

impl LogDevice for TearingDevice {
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        self.flaky.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        if !self.healthy() {
            let half = &bytes[..bytes.len() / 2];
            self.flaky
                .bytes
                .lock()
                .expect("test mutex")
                .extend_from_slice(half);
        }
        self.flaky.append(bytes)
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        if self.stuck && !self.healthy() {
            return Err(StoreError::Io(std::io::Error::other("device busy")));
        }
        self.flaky.truncate(len)
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.flaky.replace(bytes)
    }
}

/// A log device that refuses every append carrying a checkpoint record and
/// takes every other.
pub struct NoCheckpointDevice(pub Arc<Mutex<Vec<u8>>>);

impl LogDevice for NoCheckpointDevice {
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        Ok(self.0.lock().expect("test mutex").clone())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        if String::from_utf8_lossy(bytes).contains("{\"Checkpoint\"") {
            return Err(StoreError::Io(std::io::Error::other(
                "no space left on device",
            )));
        }
        self.0.lock().expect("test mutex").extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.0.lock().expect("test mutex").truncate(len as usize);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        *self.0.lock().expect("test mutex") = bytes.to_vec();
        Ok(())
    }
}

pub fn config() -> Config {
    Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    }
}

pub const SRC: &str = r#"resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
}
"#;

/// An engine over a log device that fails while `healthy` is off, plus the
/// bytes that reached the device. Its recorder keeps metrics.
pub fn flaky_engine() -> (Cloudless, Arc<AtomicBool>, Arc<Mutex<Vec<u8>>>) {
    let bytes = Arc::new(Mutex::new(Vec::new()));
    let healthy = Arc::new(AtomicBool::new(true));
    let device = FlakyDevice {
        bytes: Arc::clone(&bytes),
        healthy: Arc::clone(&healthy),
    };
    let (store, _) = LogStore::open_device(Box::new(device)).expect("fresh log opens");
    let config = Config {
        recorder: FlightRecorder::shared(16),
        ..config()
    };
    let engine = Cloudless::with_store(config, store, Default::default());
    (engine, healthy, bytes)
}
