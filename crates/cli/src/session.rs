//! Session persistence: the CLI's world lives in a session directory.
//!
//! Log-native sessions hold `state.log` (the append-only delta log — the
//! source of truth for state *and* version history), a `state.json`
//! mirror of the current snapshot (kept for interop/inspection), and
//! `cloud.json` (live simulated resources). Legacy sessions have only
//! `state.json`; they load transparently (state without history) and can
//! be upgraded in place with `cloudless state migrate <dir>`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cloudless::cloud::{CloudConfig, ResourceRecord};
use cloudless::deploy::ResiliencePolicy;
use cloudless::obs::{MetricsSnapshot, NullRecorder, Recorder};
use cloudless::state::{rename_synced, sync_parent, LogStore, Snapshot};
use cloudless::types::ResourceId;
use cloudless::{Cloudless, Config};

/// A session directory: `state.log` + `state.json` + `cloud.json`.
pub struct Session {
    dir: PathBuf,
}

impl Session {
    pub fn init(dir: &str) -> Result<Session, String> {
        let path = PathBuf::from(dir);
        std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let s = Session { dir: path };
        if s.state_path().exists() {
            return Err(format!("{dir} already holds a session"));
        }
        std::fs::write(s.state_path(), Snapshot::new().to_json()).map_err(|e| e.to_string())?;
        // new sessions are log-native from the first commit
        LogStore::open_file(&s.log_path()).map_err(|e| e.to_string())?;
        std::fs::write(s.cloud_path(), "{}").map_err(|e| e.to_string())?;
        // starter program for the quickstart path
        let starter = s.dir.join("main.tf");
        if !starter.exists() {
            std::fs::write(
                &starter,
                "resource \"aws_vpc\" \"main\" {\n  cidr_block = \"10.0.0.0/16\"\n}\n",
            )
            .map_err(|e| e.to_string())?;
        }
        Ok(s)
    }

    pub fn load(dir: &str) -> Result<Session, String> {
        let path = PathBuf::from(dir);
        let s = Session { dir: path };
        if !s.state_path().exists() {
            return Err(format!(
                "{dir} is not a session (run `cloudless init {dir}` first)"
            ));
        }
        Ok(s)
    }

    fn state_path(&self) -> PathBuf {
        self.dir.join("state.json")
    }

    /// The delta log (absent in legacy, pre-migration sessions).
    pub fn log_path(&self) -> PathBuf {
        self.dir.join("state.log")
    }

    fn cloud_path(&self) -> PathBuf {
        self.dir.join("cloud.json")
    }

    fn metrics_path(&self) -> PathBuf {
        self.dir.join("metrics.json")
    }

    /// Reconstruct the engine from the persisted world. `instrumented` is
    /// what `apply` and `drift` add: the resilience policy from the CLI's
    /// `--retries` / `--deadline-factor` flags and an
    /// observability recorder threaded through every layer (cloud,
    /// executor, locks, drift); everything else runs on the defaults.
    pub fn engine(
        &self,
        instrumented: Option<(ResiliencePolicy, Arc<dyn Recorder>)>,
    ) -> Result<Cloudless, String> {
        let (resilience, recorder) =
            instrumented.unwrap_or_else(|| (ResiliencePolicy::standard(), Arc::new(NullRecorder)));
        let cloud_text = std::fs::read_to_string(self.cloud_path()).map_err(|e| e.to_string())?;
        let records: BTreeMap<ResourceId, ResourceRecord> =
            serde_json::from_str(&cloud_text).map_err(|e| format!("cloud.json corrupt: {e}"))?;
        let config = Config {
            cloud: CloudConfig::exact(),
            resilience,
            recorder,
            ..Config::default()
        };
        if self.log_path().exists() {
            // log-native: the delta log is the source of truth; a torn
            // final record (crash mid-commit) is truncated and persisted
            let (store, recovery) =
                LogStore::open_file(&self.log_path()).map_err(|e| e.to_string())?;
            if recovery.torn_bytes_dropped > 0 {
                eprintln!(
                    "state.log: recovered torn final record ({} byte(s) dropped)",
                    recovery.torn_bytes_dropped
                );
            }
            return Ok(Cloudless::with_store(config, store, records));
        }
        // legacy layout: full-JSON snapshot, no version history
        let state_text = std::fs::read_to_string(self.state_path()).map_err(|e| e.to_string())?;
        let state =
            Snapshot::from_json(&state_text).map_err(|e| format!("state.json corrupt: {e}"))?;
        Ok(Cloudless::with_session(config, state, records))
    }

    /// Persist the metrics snapshot of the last instrumented command;
    /// `cloudless metrics` renders it.
    pub fn save_metrics(&self, snapshot: &MetricsSnapshot) -> Result<(), String> {
        let json = serde_json::to_string_pretty(snapshot).map_err(|e| e.to_string())?;
        replace(&self.metrics_path(), &json)
    }

    /// The metrics snapshot of the last instrumented command, if any.
    pub fn load_metrics(&self) -> Result<Option<MetricsSnapshot>, String> {
        let path = self.metrics_path();
        if !path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let snapshot =
            serde_json::from_str(&text).map_err(|e| format!("metrics.json corrupt: {e}"))?;
        Ok(Some(snapshot))
    }

    /// Persist the engine's world back to disk. A log-native session's
    /// commits already landed in `state.log` as they happened; this
    /// refreshes the `state.json` mirror and the cloud's records.
    pub fn save(&self, engine: &Cloudless) -> Result<(), String> {
        replace(&self.state_path(), &engine.state().to_json())?;
        let records = engine.cloud().export_records();
        let json = serde_json::to_string_pretty(records).map_err(|e| e.to_string())?;
        replace(&self.cloud_path(), &json)
    }
}

/// Replace a session file whole: a sibling temp file, synced and renamed
/// over it, then the directory synced (as the state log's compaction does).
/// A crash mid-write leaves the old file and a temp file nothing reads —
/// `cloud.json` is the simulator's cloud itself, so a torn or empty one is
/// a lost cloud.
fn replace(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    rename_synced(path, &tmp, text.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    sync_parent(path).map_err(|e| {
        format!(
            "wrote {} but cannot sync its directory: {e}",
            path.display()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_leftover_temp_file_is_ignored_on_load_and_replaced_on_save() {
        let dir = std::env::temp_dir().join(format!("cloudless-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::init(dir.to_str().expect("utf8 tmp path")).expect("init");
        // what a crash in the middle of the last save left behind
        let leftovers = ["state.json.tmp", "cloud.json.tmp", "metrics.json.tmp"];
        for name in leftovers {
            std::fs::write(dir.join(name), "{\"half\": [").expect("write");
        }

        let mut engine = session.engine(None).expect("loads past the temp files");
        assert!(session.load_metrics().expect("no metrics yet").is_none());
        let program = "resource \"aws_vpc\" \"main\" {\n  cidr_block = \"10.0.0.0/16\"\n}\n";
        assert!(engine.converge(program).expect("applies").apply.all_ok());
        session.save(&engine).expect("save");
        session
            .save_metrics(&MetricsSnapshot::default())
            .expect("save metrics");

        for name in leftovers {
            assert!(!dir.join(name).exists(), "{name} was renamed over its file");
        }
        let reloaded = session.engine(None).expect("reloads");
        assert_eq!(reloaded.cloud().export_records().len(), 1);
        assert_eq!(reloaded.state().len(), 1);
        assert!(session.load_metrics().expect("metrics").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
