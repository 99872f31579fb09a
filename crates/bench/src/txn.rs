//! Optimistic transactions over the golden state — the fourth arm of
//! experiment E3, kept with the harness because no production path
//! schedules through it (the engine serializes on per-resource locks).
//!
//! §3.4 asks for "transaction mechanisms for atomic updates while
//! guaranteeing isolation. Updates are scheduled based on the logical state
//! and locks in the database, and only later applied to the physical
//! infrastructure."
//!
//! [`TxnManager`] implements per-resource versioned, first-committer-wins
//! optimistic concurrency: a [`Transaction`] records the version of every
//! resource it reads or stages a write for; commit re-validates those
//! versions under the manager's mutex and either applies all staged writes
//! atomically or fails with [`TxnError::Conflict`], in which case the caller
//! retries on fresh state. Disjoint transactions never conflict — the
//! transactional analogue of the per-resource lock.

use std::collections::BTreeMap;

use cloudless_types::ResourceAddr;
use parking_lot::Mutex;

use cloudless_state::{DeployedResource, Snapshot};

/// A staged write.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // Put carries the payload by design
enum Write {
    Put(DeployedResource),
    Delete(ResourceAddr),
}

/// Transaction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// Another transaction committed a conflicting change first.
    Conflict { addr: String },
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Conflict { addr } => {
                write!(
                    f,
                    "transaction conflict on {addr}: state changed since read"
                )
            }
        }
    }
}

impl std::error::Error for TxnError {}

/// An in-progress transaction. Created by [`TxnManager::begin`]; all reads
/// go through [`TxnManager::read`] so versions are captured.
#[derive(Debug, Default)]
pub struct Transaction {
    /// Versions observed, keyed by rendered address.
    observed: BTreeMap<String, u64>,
    writes: BTreeMap<String, Write>,
}

impl Transaction {
    /// Stage an upsert.
    pub fn put(&mut self, r: DeployedResource) {
        self.writes.insert(r.addr.to_string(), Write::Put(r));
    }

    /// Stage a delete.
    pub fn delete(&mut self, addr: &ResourceAddr) {
        self.writes
            .insert(addr.to_string(), Write::Delete(addr.clone()));
    }

    /// Number of staged writes.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// The addresses this transaction touches (reads + writes) — usable as
    /// a lock scope for pessimistic execution.
    pub fn footprint(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .observed
            .keys()
            .chain(self.writes.keys())
            .cloned()
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

struct Inner {
    snapshot: Snapshot,
    /// Version per rendered address; absent means version 0 (never written).
    versions: BTreeMap<String, u64>,
    commits: u64,
    conflicts: u64,
}

/// The transactional golden-state manager.
pub struct TxnManager {
    inner: Mutex<Inner>,
}

impl TxnManager {
    pub fn new(initial: Snapshot) -> Self {
        TxnManager {
            inner: Mutex::new(Inner {
                snapshot: initial,
                versions: BTreeMap::new(),
                commits: 0,
                conflicts: 0,
            }),
        }
    }

    /// Start a transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::default()
    }

    /// Read a resource, recording its version in the transaction.
    /// Staged writes in the same transaction are visible (read-your-writes).
    pub fn read(&self, txn: &mut Transaction, addr: &ResourceAddr) -> Option<DeployedResource> {
        let key = addr.to_string();
        if let Some(w) = txn.writes.get(&key) {
            return match w {
                Write::Put(r) => Some(r.clone()),
                Write::Delete(_) => None,
            };
        }
        let inner = self.inner.lock();
        let version = inner.versions.get(&key).copied().unwrap_or(0);
        txn.observed.insert(key.clone(), version);
        inner.snapshot.get_str(&key).cloned()
    }

    /// Validate and apply. First committer wins; conflicting transactions
    /// fail and must retry from fresh reads.
    pub fn commit(&self, txn: Transaction) -> Result<u64, TxnError> {
        let mut inner = self.inner.lock();
        // Validate everything observed *and* everything blindly written.
        for key in txn.observed.keys().chain(txn.writes.keys()) {
            let current = inner.versions.get(key).copied().unwrap_or(0);
            let expected = txn.observed.get(key).copied();
            match expected {
                Some(seen) if seen != current => {
                    inner.conflicts += 1;
                    return Err(TxnError::Conflict { addr: key.clone() });
                }
                Some(_) => {}
                None => {
                    // Blind write: conflicts if someone wrote since this txn
                    // began are undetectable without a read — require that
                    // blind writes target version-0 (fresh) addresses.
                    if current != 0 && txn.writes.contains_key(key) {
                        inner.conflicts += 1;
                        return Err(TxnError::Conflict { addr: key.clone() });
                    }
                }
            }
        }
        // Apply atomically.
        for (key, w) in &txn.writes {
            match w {
                Write::Put(r) => inner.snapshot.put(r.clone()),
                Write::Delete(addr) => {
                    inner.snapshot.remove(addr);
                }
            }
            *inner.versions.entry(key.clone()).or_insert(0) += 1;
        }
        inner.snapshot.serial += 1;
        inner.commits += 1;
        Ok(inner.snapshot.serial)
    }

    /// Current snapshot (clone).
    pub fn snapshot(&self) -> Snapshot {
        self.inner.lock().snapshot.clone()
    }

    /// (commits, conflicts) so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.commits, inner.conflicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::{Region, ResourceId, SimTime, Value};

    fn res(addr: &str, id: &str, name: &str) -> DeployedResource {
        let addr: ResourceAddr = addr.parse().unwrap();
        DeployedResource {
            rtype: addr.rtype.clone(),
            id: ResourceId::new(id),
            region: Region::new("us-east-1"),
            attrs: [("name".to_owned(), Value::from(name))].into(),
            depends_on: vec![],
            created_at: SimTime::ZERO,
            addr,
        }
    }

    fn addr(s: &str) -> ResourceAddr {
        s.parse().unwrap()
    }

    #[test]
    fn commit_applies_atomically() {
        let mgr = TxnManager::new(Snapshot::new());
        let mut t = mgr.begin();
        t.put(res("aws_vpc.v", "vpc-1", "v"));
        t.put(res("aws_subnet.s", "sn-1", "s"));
        let serial = mgr.commit(t).expect("commit");
        assert_eq!(serial, 1);
        let snap = mgr.snapshot();
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn read_your_writes() {
        let mgr = TxnManager::new(Snapshot::new());
        let mut t = mgr.begin();
        t.put(res("aws_vpc.v", "vpc-1", "v"));
        assert_eq!(
            mgr.read(&mut t, &addr("aws_vpc.v")).unwrap().id.as_str(),
            "vpc-1"
        );
        t.delete(&addr("aws_vpc.v"));
        assert!(mgr.read(&mut t, &addr("aws_vpc.v")).is_none());
    }

    #[test]
    fn first_committer_wins() {
        let mgr = TxnManager::new(Snapshot::new());
        let mut seed = mgr.begin();
        seed.put(res("aws_vpc.v", "vpc-1", "old"));
        mgr.commit(seed).unwrap();

        // two txns read the same resource
        let mut t1 = mgr.begin();
        let mut t2 = mgr.begin();
        mgr.read(&mut t1, &addr("aws_vpc.v")).unwrap();
        mgr.read(&mut t2, &addr("aws_vpc.v")).unwrap();
        t1.put(res("aws_vpc.v", "vpc-1", "t1"));
        t2.put(res("aws_vpc.v", "vpc-1", "t2"));

        assert!(mgr.commit(t1).is_ok());
        let err = mgr.commit(t2).unwrap_err();
        assert!(matches!(err, TxnError::Conflict { ref addr } if addr == "aws_vpc.v"));
        // retry on fresh state succeeds
        let mut t3 = mgr.begin();
        mgr.read(&mut t3, &addr("aws_vpc.v")).unwrap();
        t3.put(res("aws_vpc.v", "vpc-1", "t2-retry"));
        assert!(mgr.commit(t3).is_ok());
        let (commits, conflicts) = mgr.stats();
        assert_eq!(commits, 3);
        assert_eq!(conflicts, 1);
    }

    #[test]
    fn disjoint_txns_do_not_conflict() {
        let mgr = TxnManager::new(Snapshot::new());
        let mut t1 = mgr.begin();
        let mut t2 = mgr.begin();
        mgr.read(&mut t1, &addr("aws_vpc.a"));
        mgr.read(&mut t2, &addr("aws_vpc.b"));
        t1.put(res("aws_vpc.a", "vpc-a", "a"));
        t2.put(res("aws_vpc.b", "vpc-b", "b"));
        assert!(mgr.commit(t1).is_ok());
        assert!(mgr.commit(t2).is_ok());
        assert_eq!(mgr.snapshot().len(), 2);
    }

    #[test]
    fn blind_write_to_existing_resource_conflicts() {
        let mgr = TxnManager::new(Snapshot::new());
        let mut seed = mgr.begin();
        seed.put(res("aws_vpc.v", "vpc-1", "old"));
        mgr.commit(seed).unwrap();
        // no read, direct overwrite → rejected (version unknown)
        let mut blind = mgr.begin();
        blind.put(res("aws_vpc.v", "vpc-1", "blind"));
        assert!(mgr.commit(blind).is_err());
    }

    #[test]
    fn delete_bumps_version_and_conflicts_readers() {
        let mgr = TxnManager::new(Snapshot::new());
        let mut seed = mgr.begin();
        seed.put(res("aws_vpc.v", "vpc-1", "v"));
        mgr.commit(seed).unwrap();

        let mut reader = mgr.begin();
        mgr.read(&mut reader, &addr("aws_vpc.v")).unwrap();

        let mut deleter = mgr.begin();
        mgr.read(&mut deleter, &addr("aws_vpc.v")).unwrap();
        deleter.delete(&addr("aws_vpc.v"));
        mgr.commit(deleter).unwrap();

        reader.put(res("aws_vpc.v", "vpc-1", "stale"));
        assert!(mgr.commit(reader).is_err());
        assert!(mgr.snapshot().is_empty());
    }

    #[test]
    fn footprint_lists_touched_addresses() {
        let mgr = TxnManager::new(Snapshot::new());
        let mut t = mgr.begin();
        mgr.read(&mut t, &addr("aws_vpc.a"));
        t.put(res("aws_subnet.b", "sn-1", "b"));
        assert_eq!(t.footprint(), vec!["aws_subnet.b", "aws_vpc.a"]);
        assert_eq!(t.write_count(), 1);
    }

    #[test]
    fn concurrent_commits_from_threads() {
        use std::sync::Arc;
        let mgr = Arc::new(TxnManager::new(Snapshot::new()));
        std::thread::scope(|s| {
            for i in 0..8 {
                let mgr = mgr.clone();
                s.spawn(move || {
                    for j in 0..25 {
                        loop {
                            let mut t = mgr.begin();
                            let a = format!("aws_vm.t{i}_{j}");
                            mgr.read(&mut t, &addr(&a));
                            t.put(res(&a, &format!("vm-{i}-{j}"), "x"));
                            if mgr.commit(t).is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(mgr.snapshot().len(), 200);
        let (commits, _) = mgr.stats();
        assert_eq!(commits, 200);
    }
}
