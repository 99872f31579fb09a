//! E3 — concurrent updates: global lock vs. per-resource locks vs.
//! optimistic transactions (§3.4).
//!
//! Claim: "Existing tools simply lock the entire cloud infrastructure for
//! modifications at any scale, restricting the potential for parallel
//! updates … per-resource locks … allow teams to execute updates on other
//! resources without having to wait for all concurrent updates to settle."
//!
//! Real OS threads: each of `T` teams performs `U` updates, each touching
//! `K` resources drawn from a pool of `N`, holding its lock for a small
//! critical section that stands in for the control-plane round trip.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use cloudless::state::{LockManager, LockScope, ResourceLockManager, Snapshot};
use cloudless::types::{ResourceAddr, ResourceTypeName};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::locks::{FairResourceLockManager, GlobalLock};
use crate::table::{f, ratio, Table};
use crate::txn::TxnManager;
use crate::SEED;

const UPDATES_PER_TEAM: usize = 30;
const TOUCH: usize = 3;
const POOL: usize = 100;
/// Simulated control-plane latency inside the critical section.
const HOLD: Duration = Duration::from_micros(300);

fn addr(i: usize) -> ResourceAddr {
    ResourceAddr::root(
        ResourceTypeName::new("aws_virtual_machine"),
        format!("r{i}"),
    )
}

/// Draw a touch set; `hotspot` makes all teams contend on resource 0.
fn touch_set(rng: &mut StdRng, hotspot: bool) -> Vec<ResourceAddr> {
    let mut set: Vec<usize> = Vec::new();
    if hotspot {
        set.push(0);
    }
    while set.len() < TOUCH {
        let r = rng.gen_range(0..POOL);
        if !set.contains(&r) {
            set.push(r);
        }
    }
    set.into_iter().map(addr).collect()
}

/// (total wall time, contended count, max single-acquisition wait)
fn run_locked(manager: &dyn LockManager, teams: usize, hotspot: bool) -> (Duration, u64, Duration) {
    let started = Instant::now();
    let max_wait = Mutex::new(Duration::ZERO);
    std::thread::scope(|s| {
        for team in 0..teams {
            let max_wait = &max_wait;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(SEED + team as u64);
                let mut local_max = Duration::ZERO;
                for _ in 0..UPDATES_PER_TEAM {
                    let scope = LockScope::of(touch_set(&mut rng, hotspot));
                    let t0 = Instant::now();
                    let _guard = manager.acquire(scope);
                    local_max = local_max.max(t0.elapsed());
                    std::thread::sleep(HOLD);
                }
                let mut m = max_wait.lock().unwrap_or_else(PoisonError::into_inner);
                *m = (*m).max(local_max);
            });
        }
    });
    let elapsed = started.elapsed();
    let wait = *max_wait.lock().unwrap_or_else(PoisonError::into_inner);
    (elapsed, manager.stats().contended, wait)
}

fn run_txn(teams: usize, hotspot: bool) -> (Duration, u64) {
    let mgr = Arc::new(TxnManager::new(Snapshot::new()));
    let started = Instant::now();
    std::thread::scope(|s| {
        for team in 0..teams {
            let mgr = mgr.clone();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(SEED + team as u64);
                for u in 0..UPDATES_PER_TEAM {
                    let touches = touch_set(&mut rng, hotspot);
                    loop {
                        let mut txn = mgr.begin();
                        for a in &touches {
                            let _ = mgr.read(&mut txn, a);
                        }
                        std::thread::sleep(HOLD);
                        for a in &touches {
                            txn.put(cloudless::state::DeployedResource {
                                addr: a.clone(),
                                rtype: a.rtype.clone(),
                                id: cloudless::types::ResourceId::new(format!("vm-{team}-{u}")),
                                region: cloudless::types::Region::new("us-east-1"),
                                attrs: Default::default(),
                                depends_on: vec![],
                                created_at: cloudless::types::SimTime::ZERO,
                            });
                        }
                        if mgr.commit(txn).is_ok() {
                            break;
                        }
                    }
                }
            });
        }
    });
    let (_, conflicts) = mgr.stats();
    (started.elapsed(), conflicts)
}

pub fn run() -> String {
    let mut out = String::new();
    for hotspot in [false, true] {
        let title = if hotspot {
            "E3 — concurrent team updates, one hot resource shared by all teams"
        } else {
            "E3 — concurrent team updates, mostly-disjoint touch sets"
        };
        let mut t = Table::new(
            title,
            &[
                "teams",
                "global lock",
                "per-resource",
                "fair per-res",
                "optimistic txn",
                "speedup (res/global)",
                "max wait (res)",
                "max wait (fair)",
                "txn conflicts",
            ],
        );
        for &teams in &[2usize, 4, 8] {
            let global = GlobalLock::new();
            let (g_time, _g_contended, _) = run_locked(&global, teams, hotspot);
            let per_res = ResourceLockManager::new();
            let (r_time, _r_contended, r_wait) = run_locked(&per_res, teams, hotspot);
            let fair = FairResourceLockManager::new();
            let (fair_time, _, fair_wait) = run_locked(&fair, teams, hotspot);
            let (x_time, x_conflicts) = run_txn(teams, hotspot);
            t.row(vec![
                teams.to_string(),
                format!("{:.1}ms", g_time.as_secs_f64() * 1e3),
                format!("{:.1}ms", r_time.as_secs_f64() * 1e3),
                format!("{:.1}ms", fair_time.as_secs_f64() * 1e3),
                format!("{:.1}ms", x_time.as_secs_f64() * 1e3),
                ratio(g_time.as_secs_f64(), r_time.as_secs_f64()),
                format!("{:.1}ms", r_wait.as_secs_f64() * 1e3),
                format!("{:.1}ms", fair_wait.as_secs_f64() * 1e3),
                f(x_conflicts as f64),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_resource_beats_global_on_disjoint_sets() {
        let global = GlobalLock::new();
        let (g, _, _) = run_locked(&global, 8, false);
        let per_res = ResourceLockManager::new();
        let (r, r_contended, _) = run_locked(&per_res, 8, false);
        // 8 teams, mostly disjoint: per-resource should be much faster
        assert!(r < g, "per-resource {:?} should beat global {:?}", r, g);
        // and contention should be far below the global lock's total
        assert!(r_contended < (8 * UPDATES_PER_TEAM) as u64 / 2);
    }

    #[test]
    fn hotspot_degrades_per_resource_toward_global() {
        let per_res = ResourceLockManager::new();
        let (_, contended, _) = run_locked(&per_res, 4, true);
        assert!(contended > 0, "hotspot must cause contention");
    }

    #[test]
    fn fair_lock_completes_and_bounds_waits() {
        let fair = FairResourceLockManager::new();
        let (_, _, fair_wait) = run_locked(&fair, 8, true);
        // everyone finished; the max wait is finite and small in absolute
        // terms (the critical sections total ~72ms of hold time here)
        assert!(fair_wait < Duration::from_secs(5));
        assert_eq!(fair.stats().acquisitions, 8 * UPDATES_PER_TEAM as u64);
    }

    #[test]
    fn txn_conflicts_only_under_contention() {
        let (_, disjoint_conflicts) = run_txn(4, false);
        let (_, hotspot_conflicts) = run_txn(4, true);
        assert!(hotspot_conflicts > disjoint_conflicts);
    }
}
