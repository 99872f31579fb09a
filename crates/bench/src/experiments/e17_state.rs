//! E17 — log-structured state store vs legacy full-snapshot versioning.
//!
//! The [`cloudless::state::LogStore`] claims commit, rollback, and
//! version-to-version diff costs proportional to the *delta*, with one
//! content-addressed copy of each resource revision on disk. The legacy
//! store paid O(world) per version: every commit re-serialized the full
//! snapshot JSON, every rollback re-parsed one, and every diff compared
//! two materialized worlds.
//!
//! This experiment seeds a large synthetic world, then drives a long
//! sequence of small-delta versions through the log store, timing its
//! native operations on the host clock. The legacy comparators are
//! *sampled* (a handful of runs, minimum kept) — actually committing 10k
//! full-JSON versions of a 1M-resource world would serialize terabytes —
//! but each sample performs exactly the work the old store did once per
//! operation: `Snapshot::to_json` (commit), `Snapshot::from_json`
//! (rollback restore), and a full two-world attribute comparison (diff).
//!
//! The full tier is the acceptance scenario: 1M resources × 10k versions
//! at 10 changed resources per version. Results land in the committed
//! `BENCH_*.json` (`state` section) and `scripts/check_bench.sh` enforces
//! ≥10× floors on every speedup plus the bytes-per-version ratio, so a
//! regression back toward O(world) state management fails CI.
//!
//! Like E14/E16, E17 is excluded from `exp all` and the experiment
//! snapshot: wall-clock numbers are machine-dependent.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cloudless::state::{
    CommitMeta, DeployedResource, LogDevice, LogStore, Snapshot, StateDelta, StoreError,
};
use cloudless::types::{ResourceId, SimTime, Value};
use serde::{Deserialize, Serialize};

/// One measured workload: log-store operation costs vs sampled legacy
/// (full-snapshot) comparators, milliseconds on the host clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatePoint {
    /// Named workload (e.g. `state-1m`).
    pub workload: String,
    /// Resources in the seeded world.
    pub resources: usize,
    /// Delta versions committed after the seed.
    pub versions: usize,
    /// Resources changed per version.
    pub delta: usize,
    /// Log store: mean per-version commit (encode delta + append + fold).
    pub commit_ms: f64,
    /// Log store: one rollback across `versions/100` versions (undo walk
    /// + inverse-delta commit).
    pub rollback_ms: f64,
    /// Log store: version-to-version diff across 10 versions.
    pub diff_ms: f64,
    /// Log store: appended bytes per version (blobs + version record).
    pub bytes_per_version: f64,
    /// Legacy: full-snapshot JSON serialization, the old per-commit cost.
    pub legacy_commit_ms: f64,
    /// Legacy: full-snapshot JSON parse, the old rollback-restore cost.
    pub legacy_rollback_ms: f64,
    /// Legacy: full two-world managed-attribute comparison.
    pub legacy_diff_ms: f64,
    /// Legacy: full snapshot JSON size, the old per-version disk cost.
    pub legacy_bytes_per_version: f64,
    /// Session open: `LogStore::open_device` over the finished log (scan,
    /// replay, materialize the live world). 0 in reports that predate it.
    #[serde(default)]
    pub open_ms: f64,
    /// Session save: `Snapshot::to_json` of the live world, the
    /// `state.json` mirror every apply rewrites. 0 in reports that predate
    /// it.
    #[serde(default)]
    pub export_ms: f64,
    /// One-block apply on this world, mean of ten: clone the head, replace
    /// one resource, `commit_snapshot` it with a 10 000-block program that
    /// differs from the previous version's in one block. 0 in reports that
    /// predate it.
    #[serde(default)]
    pub apply_ms: f64,
    /// Log bytes the first of those applies appended (its program has no
    /// earlier version to be an edit of, in either store).
    #[serde(default)]
    pub first_apply_bytes: f64,
    /// Log bytes each of the nine after it appended, mean.
    #[serde(default)]
    pub apply_bytes: f64,
}

impl StatePoint {
    pub fn commit_speedup(&self) -> f64 {
        ratio(self.legacy_commit_ms, self.commit_ms)
    }

    pub fn rollback_speedup(&self) -> f64 {
        ratio(self.legacy_rollback_ms, self.rollback_ms)
    }

    pub fn diff_speedup(&self) -> f64 {
        ratio(self.legacy_diff_ms, self.diff_ms)
    }

    /// How many times smaller a delta version is than a full snapshot.
    pub fn bytes_ratio(&self) -> f64 {
        ratio(self.legacy_bytes_per_version, self.bytes_per_version)
    }
}

fn ratio(legacy: f64, log: f64) -> f64 {
    if log > 0.0 {
        legacy / log
    } else {
        f64::INFINITY
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A memory device whose bytes outlive the store appending to them, so the
/// finished log can be opened a second time.
#[derive(Clone, Default)]
struct SharedLog(Arc<Mutex<Vec<u8>>>);

impl SharedLog {
    fn bytes(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.0.lock().expect("no holder of the log bytes panics")
    }
}

impl LogDevice for SharedLog {
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        Ok(self.bytes().clone())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.bytes().extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.bytes().truncate(len as usize);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        *self.bytes() = bytes.to_vec();
        Ok(())
    }
}

/// Synthetic resource `i` at revision `rev`. Revisions change one
/// attribute, so each touched resource contributes exactly one new blob.
fn resource(i: usize, rev: u64) -> DeployedResource {
    DeployedResource {
        addr: format!("aws_virtual_machine.fleet[{i}]")
            .parse()
            .expect("addr"),
        id: ResourceId(format!("i-{i:08x}")),
        rtype: "aws_virtual_machine".into(),
        region: "us-east-1".into(),
        attrs: [
            ("name".to_owned(), Value::from(format!("vm-{i}"))),
            ("instance_type".to_owned(), Value::from("t3.micro")),
            ("user_data".to_owned(), Value::from(format!("rev-{rev}"))),
        ]
        .into(),
        depends_on: Vec::new(),
        created_at: SimTime::ZERO,
    }
}

/// Minimum of `samples` runs of `f` (legacy comparators are sampled, not
/// committed `versions` times — see the module docs).
fn sample_min<T>(samples: u32, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let (mut best_ms, mut out) = f();
    for _ in 1..samples.max(1) {
        let (t, v) = f();
        if t < best_ms {
            best_ms = t;
            out = v;
        }
    }
    (best_ms, out)
}

/// Legacy comparator, half one: resources of `a` whose address `b` lacks.
fn only_in<'a>(a: &'a Snapshot, b: &Snapshot) -> Vec<&'a DeployedResource> {
    a.resources()
        .iter()
        .filter(|(k, _)| !b.resources().contains_key(*k))
        .map(|(_, v)| v.as_ref())
        .collect()
}

/// Legacy comparator, half two: addresses present in both snapshots whose
/// attributes differ — a walk over the whole world per diff.
fn changed_between<'a>(
    a: &'a Snapshot,
    b: &'a Snapshot,
) -> Vec<(&'a DeployedResource, &'a DeployedResource)> {
    a.resources()
        .iter()
        .filter_map(|(k, mine)| {
            b.resources()
                .get(k)
                .filter(|theirs| theirs.attrs != mine.attrs)
                .map(|theirs| (mine.as_ref(), theirs.as_ref()))
        })
        .collect()
}

/// Measure one workload: seed `n` resources, commit `versions` deltas of
/// `delta` resources each, then time rollback/diff and the legacy
/// comparators.
pub fn measure(name: &str, n: usize, versions: usize, delta: usize) -> StatePoint {
    assert!(versions >= 10, "diff window needs at least 10 versions");
    let log = SharedLog::default();
    let (mut store, _) = LogStore::open_device(Box::new(log.clone())).expect("empty log opens");
    let mut world = Snapshot::new();
    for i in 0..n {
        world.put(resource(i, 0));
    }
    store
        .commit_snapshot(&world, CommitMeta::bare("seed world"))
        .expect("seed commit");
    drop(world);
    let seed_bytes = store.log_bytes();

    // the delta sequence: each version touches `delta` fresh resources
    // (round-robin over the world), the regime where history length and
    // world size are independent axes
    let mut commit_total = 0.0;
    for v in 0..versions {
        let mut d = StateDelta::default();
        for k in 0..delta {
            d.puts.push(resource((v * delta + k) % n, v as u64 + 1));
        }
        let t = Instant::now();
        store
            .commit(d, CommitMeta::bare("bench delta"))
            .expect("delta commit");
        commit_total += ms(t);
    }
    let commit_ms = commit_total / versions as f64;
    let bytes_per_version = (store.log_bytes() - seed_bytes) as f64 / versions as f64;

    // O(delta) diff: the last 10 versions, walking only their records
    let head = store.serial();
    let t = Instant::now();
    let diff = store.diff_versions(head - 10, head).expect("diff");
    let diff_ms = ms(t);
    assert!(
        diff.changed.len() >= delta,
        "diff window must see the deltas"
    );

    // legacy diff comparator needs the pre-rollback worlds; materialize
    // the older one outside the timed region
    let old_world = store.snapshot_at(head - 10).expect("addressable");
    let new_world = store.current().clone();

    // O(delta) rollback: undo-walk versions/100 versions and commit the
    // inverse delta
    let back = (versions as u64 / 100).max(1);
    let t = Instant::now();
    let rolled = store
        .rollback_to(head - back, CommitMeta::bare("bench rollback"))
        .expect("rollback");
    let rollback_ms = ms(t);
    assert!(
        rolled.is_some(),
        "rollback across {back} versions changes state"
    );

    // ---- legacy comparators: the O(world) costs the old store paid per
    // operation, sampled on this world size
    let (legacy_commit_ms, json) = sample_min(3, || {
        let t = Instant::now();
        let json = new_world.to_json();
        (ms(t), json)
    });
    let legacy_bytes_per_version = json.len() as f64;
    let (legacy_rollback_ms, restored) = sample_min(3, || {
        let t = Instant::now();
        let snap = Snapshot::from_json(&json).expect("legacy snapshot parses");
        (ms(t), snap)
    });
    assert_eq!(restored.len(), n);
    let (legacy_diff_ms, legacy_changed) = sample_min(3, || {
        let t = Instant::now();
        let changed = changed_between(&old_world, &new_world).len()
            + only_in(&old_world, &new_world).len()
            + only_in(&new_world, &old_world).len();
        (ms(t), changed)
    });
    assert!(legacy_changed >= delta, "legacy diff must see the deltas");
    drop((old_world, new_world, restored, json));

    // ---- session I/O: what every process pays around its one commit
    let head = store.current().clone();
    drop(store);
    let (open_ms, reopened) = sample_min(3, || {
        let t = Instant::now();
        let (store, recovery) = LogStore::open_device(Box::new(log.clone())).expect("log reopens");
        assert_eq!(recovery.torn_bytes_dropped, 0);
        (ms(t), store)
    });
    assert_eq!(reopened.current(), &head, "reopen replays to the head");
    drop(head);
    let (export_ms, _) = sample_min(3, || {
        let t = Instant::now();
        let json = reopened.current().to_json();
        (ms(t), json.len())
    });

    // ---- the back half of a one-block apply, after everything above so
    // the log those measured is the log they always measured
    let mut store = reopened;
    let mut program = crate::workloads::random_layered(10_000, crate::SEED);
    let mut apply_total = 0.0;
    let mut appended = Vec::new();
    for k in 0..10 {
        let marker = format!("\"r-{}\"", 500 * k + 7);
        program = program.replacen(&marker, &format!("{marker}\n  tags = \"v{k}\""), 1);
        let meta = CommitMeta {
            config_source: Some(program.clone()),
            ..CommitMeta::bare("bench apply")
        };
        let before = store.log_bytes();
        let t = Instant::now();
        let mut state = store.current().clone();
        state.put(resource(k, u64::MAX - k as u64));
        store.commit_snapshot(&state, meta).expect("apply commit");
        drop(state);
        apply_total += ms(t);
        appended.push((store.log_bytes() - before) as f64);
    }
    let apply_bytes = appended[1..].iter().sum::<f64>() / 9.0;

    StatePoint {
        workload: name.to_owned(),
        resources: n,
        versions,
        delta,
        commit_ms,
        rollback_ms,
        diff_ms,
        bytes_per_version,
        legacy_commit_ms,
        legacy_rollback_ms,
        legacy_diff_ms,
        legacy_bytes_per_version,
        open_ms,
        export_ms,
        apply_ms: apply_total / 10.0,
        first_apply_bytes: appended[0],
        apply_bytes,
    }
}

/// Run the state-store trajectory for a tier. The full tier is the
/// acceptance scenario: 1M resources × 10k versions, 10 changed per
/// version.
pub fn run(tier: &str) -> Vec<StatePoint> {
    let sizes: Vec<(&str, usize, usize, usize)> = match tier {
        "full" => vec![
            ("state-100k", 100_000, 1_000, 10),
            ("state-1m", 1_000_000, 10_000, 10),
        ],
        _ => vec![("state-100k", 100_000, 1_000, 10)],
    };
    sizes
        .into_iter()
        .map(|(name, n, versions, delta)| measure(name, n, versions, delta))
        .collect()
}

/// Render a human-readable table (not part of the experiment snapshot —
/// the numbers are machine-dependent).
pub fn render(points: &[StatePoint]) -> String {
    use crate::table::Table;
    let mut t = Table::new(
        "E17 — log-structured store vs legacy full snapshots (host-dependent)",
        &[
            "workload",
            "world",
            "versions×delta",
            "commit",
            "rollback",
            "diff",
            "bytes/version",
            "open",
            "export",
            "one-block apply",
        ],
    );
    for p in points {
        t.row(vec![
            p.workload.clone(),
            p.resources.to_string(),
            format!("{}×{}", p.versions, p.delta),
            format!(
                "{:.3}ms vs {:.1}ms ({:.0}x)",
                p.commit_ms,
                p.legacy_commit_ms,
                p.commit_speedup()
            ),
            format!(
                "{:.2}ms vs {:.1}ms ({:.0}x)",
                p.rollback_ms,
                p.legacy_rollback_ms,
                p.rollback_speedup()
            ),
            format!(
                "{:.3}ms vs {:.1}ms ({:.0}x)",
                p.diff_ms,
                p.legacy_diff_ms,
                p.diff_speedup()
            ),
            format!(
                "{:.0}B vs {:.0}B ({:.0}x)",
                p.bytes_per_version,
                p.legacy_bytes_per_version,
                p.bytes_ratio()
            ),
            format!("{:.1}ms", p.open_ms),
            format!("{:.1}ms", p.export_ms),
            format!(
                "{:.2}ms, {:.0}B (first {:.0}B)",
                p.apply_ms, p.apply_bytes, p.first_apply_bytes
            ),
        ]);
    }
    t.render()
}

/// Session-I/O regressions of `pr` against `baseline`: `open_ms` and
/// `export_ms` more than `tolerance` slower on the same workload. A
/// baseline value under `floor_ms` is skipped — timer noise, or a report
/// that predates the field.
pub fn regressions(
    baseline: &[StatePoint],
    pr: &[StatePoint],
    tolerance: f64,
    floor_ms: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    for b in baseline {
        let Some(p) = pr.iter().find(|p| p.workload == b.workload) else {
            continue;
        };
        for (stage, base, new) in [
            ("open", b.open_ms, p.open_ms),
            ("export", b.export_ms, p.export_ms),
        ] {
            if base >= floor_ms && new > base * (1.0 + tolerance) {
                out.push(format!(
                    "{} / {stage}: {new:.1}ms vs baseline {base:.1}ms (+{:.0}%, tolerance {:.0}%)",
                    b.workload,
                    (new / base - 1.0) * 100.0,
                    tolerance * 100.0,
                ));
            }
        }
    }
    out
}

/// Absolute floors `scripts/check_bench.sh` enforces on the candidate
/// report: every log-store operation must beat its legacy comparator by
/// ≥10×, and a delta version must be ≥10× smaller on disk than a full
/// snapshot. Workloads absent from the report (smoke tiers, pre-E17
/// baselines) are skipped, mirroring [`super::e16_replan::speedup_gates`].
pub fn state_gates(points: &[StatePoint]) -> Vec<String> {
    const FLOOR: f64 = 10.0;
    let mut out = Vec::new();
    for workload in ["state-100k", "state-1m"] {
        let Some(p) = points.iter().find(|p| p.workload == workload) else {
            continue;
        };
        let checks = [
            (
                "commit",
                p.commit_speedup(),
                p.commit_ms,
                p.legacy_commit_ms,
            ),
            (
                "rollback",
                p.rollback_speedup(),
                p.rollback_ms,
                p.legacy_rollback_ms,
            ),
            ("diff", p.diff_speedup(), p.diff_ms, p.legacy_diff_ms),
            (
                "bytes/version",
                p.bytes_ratio(),
                p.bytes_per_version,
                p.legacy_bytes_per_version,
            ),
        ];
        // ROADMAP item 7: a one-resource delta with a one-block program
        // edit appends under 64 KiB (0 = a report that predates the row)
        if p.apply_bytes >= 65_536.0 {
            out.push(format!(
                "{workload}: a one-block apply appends {:.0} bytes to the log, over 64 KiB",
                p.apply_bytes
            ));
        }
        for (op, speedup, log_cost, legacy_cost) in checks {
            if speedup < FLOOR {
                out.push(format!(
                    "{workload}: log-store {op} only {speedup:.1}x better than legacy \
                     ({log_cost:.3} vs {legacy_cost:.1}), floor is {FLOOR:.0}x"
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_round_trips_through_json() {
        let point = measure("state-tiny", 200, 20, 3);
        assert_eq!(point.resources, 200);
        assert_eq!(point.versions, 20);
        assert!(point.commit_ms > 0.0 && point.legacy_commit_ms > 0.0);
        assert!(point.open_ms > 0.0 && point.export_ms > 0.0);
        assert!(point.bytes_per_version > 0.0);
        assert!(point.apply_ms > 0.0 && point.first_apply_bytes > 1e6);
        assert!(point.apply_bytes < 65_536.0, "{point:?}");
        // at 200 resources a full snapshot still dwarfs a 3-resource delta
        assert!(point.bytes_ratio() > 3.0, "{point:?}");
        let json = serde_json::to_string(&vec![point.clone()]).unwrap();
        let back: Vec<StatePoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, vec![point]);
    }

    #[test]
    fn gates_flag_slow_stores_and_pass_fast_ones() {
        let mk = |commit_ms: f64| StatePoint {
            workload: "state-100k".into(),
            resources: 100_000,
            versions: 1_000,
            delta: 10,
            commit_ms,
            rollback_ms: 1.0,
            diff_ms: 0.1,
            bytes_per_version: 3_000.0,
            legacy_commit_ms: 500.0,
            legacy_rollback_ms: 800.0,
            legacy_diff_ms: 100.0,
            legacy_bytes_per_version: 30_000_000.0,
            open_ms: 900.0,
            export_ms: 300.0,
            apply_ms: 2.0,
            first_apply_bytes: 1_100_000.0,
            apply_bytes: 1_000.0,
        };
        assert!(
            state_gates(&[mk(1.0)]).is_empty(),
            "500x passes the 10x floor"
        );
        let flagged = state_gates(&[mk(100.0)]);
        assert_eq!(flagged.len(), 1, "5x commit fails: {flagged:?}");
        assert!(flagged[0].contains("commit"), "{flagged:?}");
        let heavy = StatePoint {
            apply_bytes: 1_100_000.0,
            ..mk(1.0)
        };
        let flagged = state_gates(&[heavy]);
        assert!(
            flagged.len() == 1 && flagged[0].contains("64 KiB"),
            "{flagged:?}"
        );
        // a report without the gated workloads (smoke tiers, old baselines)
        // passes vacuously
        assert!(state_gates(&[]).is_empty());

        // session I/O is gated against the baseline, not a floor
        let slower = StatePoint {
            open_ms: 1_200.0,
            ..mk(1.0)
        };
        let (fast, slower) = ([mk(1.0)], [slower]);
        let flagged = regressions(&fast, &slower, 0.2, 5.0);
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert!(flagged[0].contains("open"), "{flagged:?}");
        assert!(regressions(&slower, &fast, 0.2, 5.0).is_empty());
        // a baseline that predates the fields reads 0 and gates nothing
        let old: Vec<StatePoint> = serde_json::from_str(
            r#"[{"workload":"state-100k","resources":100000,"versions":1000,"delta":10,
                "commit_ms":1.0,"rollback_ms":1.0,"diff_ms":0.1,"bytes_per_version":3000.0,
                "legacy_commit_ms":500.0,"legacy_rollback_ms":800.0,"legacy_diff_ms":100.0,
                "legacy_bytes_per_version":30000000.0}]"#,
        )
        .unwrap();
        assert_eq!((old[0].open_ms, old[0].apply_bytes), (0.0, 0.0));
        assert!(state_gates(&old).is_empty());
        assert!(regressions(&old, &fast, 0.2, 5.0).is_empty());
    }
}
