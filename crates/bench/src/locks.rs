//! The lock managers experiment E3 measures the production
//! [`ResourceLockManager`] against, kept with the harness because no
//! production path locks through them.
//!
//! §3.4: "Existing tools simply lock the entire cloud infrastructure for
//! modifications at any scale, restricting the potential for parallel
//! updates." [`GlobalLock`] models that Terraform-style state lock;
//! [`FairResourceLockManager`] is the scheduling-strategy ablation. Both
//! implement [`LockManager`], so E3 swaps them under identical workloads.
//!
//! [`ResourceLockManager`]: cloudless_state::ResourceLockManager

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cloudless_state::lock::LockStats;
use cloudless_state::{LockGuard, LockManager, LockScope};
use parking_lot::{Condvar, Mutex};

// ---------------------------------------------------------------------------
// Global lock (baseline)
// ---------------------------------------------------------------------------

/// Terraform-style whole-infrastructure lock: every update serializes,
/// regardless of what it touches.
#[derive(Clone, Default)]
pub struct GlobalLock(Arc<GlobalState>);

#[derive(Default)]
struct GlobalState {
    held: Mutex<bool>,
    cv: Condvar,
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

impl GlobalLock {
    pub fn new() -> Self {
        Self::default()
    }
}

impl LockManager for GlobalLock {
    fn acquire(&self, _scope: LockScope) -> LockGuard {
        let mut held = self.0.held.lock();
        if *held {
            self.0.contended.fetch_add(1, Ordering::Relaxed);
            while *held {
                self.0.cv.wait(&mut held);
            }
        }
        *held = true;
        self.0.acquisitions.fetch_add(1, Ordering::Relaxed);
        let me = self.clone();
        LockGuard::new(move || {
            let mut held = me.0.held.lock();
            *held = false;
            me.0.cv.notify_all();
        })
    }

    fn try_acquire(&self, _scope: LockScope) -> Option<LockGuard> {
        let mut held = self.0.held.lock();
        if *held {
            return None;
        }
        *held = true;
        self.0.acquisitions.fetch_add(1, Ordering::Relaxed);
        let me = self.clone();
        Some(LockGuard::new(move || {
            let mut held = me.0.held.lock();
            *held = false;
            me.0.cv.notify_all();
        }))
    }

    fn name(&self) -> &'static str {
        "global-lock"
    }

    fn stats(&self) -> LockStats {
        LockStats {
            acquisitions: self.0.acquisitions.load(Ordering::Relaxed),
            contended: self.0.contended.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Fair per-resource lock manager (scheduling-strategy ablation, §3.4)
// ---------------------------------------------------------------------------

/// Like [`cloudless_state::ResourceLockManager`], but *fair*: requests are
/// admitted in arrival order, and a later request may not overtake an
/// earlier one it conflicts with — bounding wait times at some throughput cost
/// ("different lock scheduling strategies can be developed for different
/// update goals", §3.4). A later *disjoint* request may still proceed.
#[derive(Clone, Default)]
pub struct FairResourceLockManager(Arc<FairShared>);

#[derive(Default)]
struct FairShared {
    state: Mutex<FairState>,
    cv: Condvar,
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

#[derive(Default)]
struct FairState {
    /// Scopes currently held.
    held: Vec<LockScope>,
    /// Tickets of requests currently waiting, in arrival order.
    queue: Vec<(u64, LockScope)>,
    next_ticket: u64,
}

impl FairState {
    /// May `ticket` (already in the queue) be admitted now? It must not
    /// conflict with held locks nor with any *earlier* queued request.
    fn may_admit(&self, ticket: u64, scope: &LockScope) -> bool {
        let earlier = self.queue.iter().filter(|(t, _)| *t < ticket);
        let mut ahead = self.held.iter().chain(earlier.map(|(_, scope)| scope));
        ahead.all(|other| !other.conflicts(scope))
    }

    fn release(&mut self, scope: &LockScope) {
        if let Some(i) = self.held.iter().position(|held| held == scope) {
            self.held.swap_remove(i);
        }
    }
}

impl FairResourceLockManager {
    pub fn new() -> Self {
        Self::default()
    }
}

impl LockManager for FairResourceLockManager {
    fn acquire(&self, scope: LockScope) -> LockGuard {
        let mut st = self.0.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push((ticket, scope.clone()));
        if !st.may_admit(ticket, &scope) {
            self.0.contended.fetch_add(1, Ordering::Relaxed);
            while !st.may_admit(ticket, &scope) {
                self.0.cv.wait(&mut st);
            }
        }
        st.queue.retain(|(t, _)| *t != ticket);
        st.held.push(scope.clone());
        drop(st);
        self.0.acquisitions.fetch_add(1, Ordering::Relaxed);
        // waking others: removing ourselves from the queue may unblock
        // disjoint later requests
        self.0.cv.notify_all();
        let me = self.clone();
        LockGuard::new(move || {
            let mut st = me.0.state.lock();
            st.release(&scope);
            drop(st);
            me.0.cv.notify_all();
        })
    }

    fn try_acquire(&self, scope: LockScope) -> Option<LockGuard> {
        let mut st = self.0.state.lock();
        // fairness: refuse if any waiter conflicts, even if the resources
        // themselves are free
        let next = st.next_ticket;
        if !st.may_admit(next, &scope) {
            return None;
        }
        st.held.push(scope.clone());
        drop(st);
        self.0.acquisitions.fetch_add(1, Ordering::Relaxed);
        let me = self.clone();
        Some(LockGuard::new(move || {
            let mut st = me.0.state.lock();
            st.release(&scope);
            drop(st);
            me.0.cv.notify_all();
        }))
    }

    fn name(&self) -> &'static str {
        "fair-resource-lock"
    }

    fn stats(&self) -> LockStats {
        LockStats {
            acquisitions: self.0.acquisitions.load(Ordering::Relaxed),
            contended: self.0.contended.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(names: &[&str]) -> LockScope {
        LockScope::of(names.iter().map(|s| s.parse().unwrap()))
    }

    #[test]
    fn global_lock_serializes_everything() {
        let m = GlobalLock::new();
        let g = m.try_acquire(scope(&["aws_vpc.a"])).expect("free");
        // even a disjoint scope is blocked
        assert!(m.try_acquire(scope(&["aws_vm.z"])).is_none());
        drop(g);
        assert!(m.try_acquire(scope(&["aws_vm.z"])).is_some());
    }

    #[test]
    fn fair_lock_preserves_arrival_order_on_conflicts() {
        use std::sync::atomic::AtomicUsize;
        let m = FairResourceLockManager::new();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = m.acquire(scope(&["aws_vpc.hot"]));
        let started = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..4 {
            let m2 = m.clone();
            let order = order.clone();
            let started = started.clone();
            handles.push(std::thread::spawn(move || {
                // serialize arrival order
                while started.load(Ordering::SeqCst) != i {
                    std::thread::yield_now();
                }
                started.fetch_add(1, Ordering::SeqCst);
                // give the ticket time to enqueue before the next arrival
                let _g = m2.acquire(scope(&["aws_vpc.hot"]));
                order.lock().push(i);
            }));
            // wait until thread i has actually queued (its ticket taken)
            while m.0.state.lock().queue.len() != i + 1 {
                std::thread::yield_now();
            }
        }
        drop(g);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![0, 1, 2, 3], "FIFO admission");
    }

    #[test]
    fn fair_lock_admits_disjoint_despite_waiters() {
        let m = FairResourceLockManager::new();
        let g = m.try_acquire(scope(&["aws_vpc.hot"])).expect("free");
        // a disjoint scope goes through even while hot is held
        let d = m.try_acquire(scope(&["aws_vm.cold"])).expect("disjoint ok");
        drop(d);
        drop(g);
        assert_eq!(m.stats().acquisitions, 2);
    }
}
