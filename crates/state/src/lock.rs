//! The lock manager: per-resource locks (cloudless).
//!
//! §3.4: "Existing tools simply lock the entire cloud infrastructure for
//! modifications at any scale, restricting the potential for parallel
//! updates. … if we provide per-resource locks, mutual exclusion needs only
//! arise when the same resource is being updated by different DevOps teams.
//! Furthermore, a per-resource lock still allows them to execute updates on
//! other resources without having to wait for all concurrent updates to
//! settle."
//!
//! [`ResourceLockManager`] is the cloudless design. The baselines it is
//! measured against (today's Terraform-style global lock, a fair variant)
//! live with experiment E3 in `cloudless-bench` and implement the same
//! [`LockManager`], so E3 swaps them under identical workloads. These are
//! real thread synchronization primitives (`parking_lot`), not simulations
//! — the concurrency experiments run on actual OS threads.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cloudless_obs::{Event, Recorder};
use cloudless_types::{ResourceAddr, SimTime};
use parking_lot::{Condvar, Mutex};

/// What a lock request covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockScope {
    /// The whole infrastructure.
    All,
    /// A specific set of resources.
    Resources(BTreeSet<ResourceAddr>),
}

impl LockScope {
    /// Convenience constructor from an iterator of addresses.
    pub fn of(addrs: impl IntoIterator<Item = ResourceAddr>) -> Self {
        LockScope::Resources(addrs.into_iter().collect())
    }

    /// Whether two scopes conflict (must be mutually exclusive).
    pub fn conflicts(&self, other: &LockScope) -> bool {
        match (self, other) {
            (LockScope::All, _) | (_, LockScope::All) => true,
            (LockScope::Resources(a), LockScope::Resources(b)) => {
                // iterate the smaller set
                let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                small.iter().any(|x| large.contains(x))
            }
        }
    }
}

/// RAII guard; releases its scope on drop.
pub struct LockGuard {
    release: Option<Box<dyn FnOnce() + Send>>,
}

impl LockGuard {
    /// A guard that runs `release` when dropped.
    pub fn new(release: impl FnOnce() + Send + 'static) -> Self {
        LockGuard {
            release: Some(Box::new(release)),
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        if let Some(f) = self.release.take() {
            f();
        }
    }
}

/// Contention statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Total successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to block first.
    pub contended: u64,
}

/// Common interface of the lock designs.
pub trait LockManager: Send + Sync {
    /// Block until the scope can be held; returns the guard.
    fn acquire(&self, scope: LockScope) -> LockGuard;

    /// Try without blocking.
    fn try_acquire(&self, scope: LockScope) -> Option<LockGuard>;

    /// Name for benchmark tables.
    fn name(&self) -> &'static str;

    /// Contention statistics so far.
    fn stats(&self) -> LockStats;
}

// ---------------------------------------------------------------------------
// Per-resource lock manager (cloudless)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ResourceLockState {
    /// Rendered addresses currently held.
    held: BTreeSet<String>,
    /// Whether an `All` lock is held.
    all_held: bool,
}

impl ResourceLockState {
    fn can_admit(&self, scope: &LockScope) -> bool {
        if self.all_held {
            return false;
        }
        match scope {
            LockScope::All => self.held.is_empty(),
            LockScope::Resources(addrs) => {
                addrs.iter().all(|a| !self.held.contains(&a.to_string()))
            }
        }
    }

    fn admit(&mut self, scope: &LockScope) {
        match scope {
            LockScope::All => self.all_held = true,
            LockScope::Resources(addrs) => {
                for a in addrs {
                    self.held.insert(a.to_string());
                }
            }
        }
    }

    fn release(&mut self, scope: &LockScope) {
        match scope {
            LockScope::All => self.all_held = false,
            LockScope::Resources(addrs) => {
                for a in addrs {
                    self.held.remove(&a.to_string());
                }
            }
        }
    }
}

/// The cloudless per-resource lock manager: disjoint scopes proceed in
/// parallel; overlapping scopes serialize on exactly the contested
/// resources.
#[derive(Default)]
pub struct ResourceLockManager {
    state: Mutex<ResourceLockState>,
    cv: Condvar,
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

impl ResourceLockManager {
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(ResourceLockManager::default())
    }
}

impl LockManager for std::sync::Arc<ResourceLockManager> {
    fn acquire(&self, scope: LockScope) -> LockGuard {
        let mut st = self.state.lock();
        if !st.can_admit(&scope) {
            self.contended.fetch_add(1, Ordering::Relaxed);
            while !st.can_admit(&scope) {
                self.cv.wait(&mut st);
            }
        }
        st.admit(&scope);
        drop(st);
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        let me = self.clone();
        LockGuard::new(move || {
            let mut st = me.state.lock();
            st.release(&scope);
            drop(st);
            me.cv.notify_all();
        })
    }

    fn try_acquire(&self, scope: LockScope) -> Option<LockGuard> {
        let mut st = self.state.lock();
        if !st.can_admit(&scope) {
            return None;
        }
        st.admit(&scope);
        drop(st);
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        let me = self.clone();
        Some(LockGuard::new(move || {
            let mut st = me.state.lock();
            st.release(&scope);
            drop(st);
            me.cv.notify_all();
        }))
    }

    fn name(&self) -> &'static str {
        "per-resource-lock"
    }

    fn stats(&self) -> LockStats {
        LockStats {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Observed lock manager (obs instrumentation)
// ---------------------------------------------------------------------------

/// Transparent wrapper adding observability to any [`LockManager`]:
/// acquire *wait* and guard *hold* times flow into the recorder as
/// `lock.wait_us` / `lock.hold_us` histograms plus per-acquire events.
///
/// Locks guard real OS threads, so both measurements are wall-clock
/// microseconds; the events carry `SimTime::ZERO` as their virtual
/// timestamp (there is no meaningful virtual time on this path — the
/// wall-clock `wall_ns` stamp orders them in exports).
pub struct ObservedLockManager<M> {
    inner: M,
    obs: Arc<dyn Recorder>,
}

impl<M: LockManager> ObservedLockManager<M> {
    pub fn new(inner: M, obs: Arc<dyn Recorder>) -> Self {
        ObservedLockManager { inner, obs }
    }

    fn observe_guard(
        &self,
        guard: LockGuard,
        scope_size: usize,
        wait: std::time::Duration,
    ) -> LockGuard {
        self.obs.counter("lock.acquisitions", 1);
        self.obs.observe("lock.wait_us", wait.as_micros() as f64);
        if self.obs.enabled() {
            self.obs.record(
                Event::instant("lock", "acquire", SimTime::ZERO)
                    .field("scope_size", scope_size)
                    .field("wait_us", wait.as_micros() as u64),
            );
        }
        let obs = Arc::clone(&self.obs);
        let held_from = Instant::now();
        // Wrap the release so the hold time lands in the registry when the
        // caller drops the guard.
        LockGuard::new(move || {
            drop(guard);
            obs.observe("lock.hold_us", held_from.elapsed().as_micros() as f64);
        })
    }
}

fn scope_size(scope: &LockScope) -> usize {
    match scope {
        LockScope::All => 0,
        LockScope::Resources(addrs) => addrs.len(),
    }
}

impl<M: LockManager> LockManager for ObservedLockManager<M> {
    fn acquire(&self, scope: LockScope) -> LockGuard {
        let size = scope_size(&scope);
        let t0 = Instant::now();
        let guard = self.inner.acquire(scope);
        self.observe_guard(guard, size, t0.elapsed())
    }

    fn try_acquire(&self, scope: LockScope) -> Option<LockGuard> {
        let size = scope_size(&scope);
        let guard = self.inner.try_acquire(scope)?;
        Some(self.observe_guard(guard, size, std::time::Duration::ZERO))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> LockStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> ResourceAddr {
        s.parse().unwrap()
    }

    fn scope(names: &[&str]) -> LockScope {
        LockScope::of(names.iter().map(|s| addr(s)))
    }

    #[test]
    fn scope_conflicts() {
        let a = scope(&["aws_vpc.a", "aws_subnet.b"]);
        let b = scope(&["aws_subnet.b"]);
        let c = scope(&["aws_vm.c"]);
        assert!(a.conflicts(&b));
        assert!(!a.conflicts(&c));
        assert!(LockScope::All.conflicts(&c));
        assert!(c.conflicts(&LockScope::All));
    }

    #[test]
    fn resource_lock_allows_disjoint() {
        let m = ResourceLockManager::new();
        let g1 = m.try_acquire(scope(&["aws_vpc.a"])).expect("free");
        // disjoint proceeds
        let g2 = m.try_acquire(scope(&["aws_vm.z"])).expect("disjoint ok");
        // overlapping blocks
        assert!(m.try_acquire(scope(&["aws_vpc.a", "aws_db.d"])).is_none());
        drop(g1);
        let g3 = m
            .try_acquire(scope(&["aws_vpc.a", "aws_db.d"]))
            .expect("freed");
        drop(g2);
        drop(g3);
        assert_eq!(m.stats().acquisitions, 3);
    }

    #[test]
    fn all_scope_excludes_everything() {
        let m = ResourceLockManager::new();
        let g = m.try_acquire(LockScope::All).expect("free");
        assert!(m.try_acquire(scope(&["aws_vm.z"])).is_none());
        assert!(m.try_acquire(LockScope::All).is_none());
        drop(g);
        let g1 = m.try_acquire(scope(&["aws_vm.z"])).expect("free again");
        // All waits while any resource lock is held
        assert!(m.try_acquire(LockScope::All).is_none());
        drop(g1);
        assert!(m.try_acquire(LockScope::All).is_some());
    }

    #[test]
    fn blocking_acquire_wakes_on_release() {
        use std::sync::Arc;
        let m = ResourceLockManager::new();
        let g = m.acquire(scope(&["aws_vpc.a"]));
        let m2 = m.clone();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done2 = done.clone();
        let t = std::thread::spawn(move || {
            let _g = m2.acquire(scope(&["aws_vpc.a"]));
            done2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!done.load(Ordering::SeqCst), "must be blocked");
        drop(g);
        t.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        assert_eq!(m.stats().contended, 1);
    }

    #[test]
    fn parallel_disjoint_throughput() {
        // 8 threads × disjoint scopes: with per-resource locks all can hold
        // simultaneously at some point; mainly we assert no deadlock and all
        // complete.
        let m = ResourceLockManager::new();
        std::thread::scope(|s| {
            for i in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for j in 0..50 {
                        let _g = m.acquire(scope(&[&format!("aws_vm.t{i}_{j}")]));
                    }
                });
            }
        });
        assert_eq!(m.stats().acquisitions, 400);
        assert_eq!(m.stats().contended, 0, "disjoint scopes never contend");
    }

    #[test]
    fn observed_manager_is_transparent_and_measures() {
        use cloudless_obs::FlightRecorder;
        let rec = FlightRecorder::shared(64);
        let m =
            ObservedLockManager::new(ResourceLockManager::new(), rec.clone() as Arc<dyn Recorder>);
        assert_eq!(m.name(), "per-resource-lock");
        let g = m.acquire(scope(&["aws_vpc.a", "aws_vm.b"]));
        // overlapping try fails through the wrapper, without recording
        assert!(m.try_acquire(scope(&["aws_vpc.a"])).is_none());
        // disjoint try succeeds through the wrapper
        let g2 = m.try_acquire(scope(&["aws_db.c"])).expect("disjoint");
        drop(g2);
        drop(g);
        assert_eq!(m.stats().acquisitions, 2);
        let snap = rec.metrics().unwrap();
        assert_eq!(snap.counter("lock.acquisitions"), 2);
        assert_eq!(snap.histogram("lock.wait_us").unwrap().count, 2);
        // both guards dropped → both holds observed
        assert_eq!(snap.histogram("lock.hold_us").unwrap().count, 2);
        // one acquire event per successful acquisition
        let acquires = rec
            .events()
            .iter()
            .filter(|e| e.component == "lock" && e.name == "acquire")
            .count();
        assert_eq!(acquires, 2);
    }

    #[test]
    fn contended_overlap_is_safe() {
        // All threads fight over one hot resource while also touching their
        // own; the critical sections must never overlap on the hot resource.
        use std::sync::atomic::AtomicU32;
        let m = ResourceLockManager::new();
        let in_critical = AtomicU32::new(0);
        std::thread::scope(|s| {
            for i in 0..6 {
                let m = m.clone();
                let in_critical = &in_critical;
                s.spawn(move || {
                    for _ in 0..30 {
                        let _g = m.acquire(scope(&["aws_vpc.hot", &format!("aws_vm.t{i}")]));
                        let now = in_critical.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(now, 0, "mutual exclusion violated");
                        in_critical.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(m.stats().acquisitions, 180);
    }
}
