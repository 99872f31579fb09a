//! Two pieces of work side by side: the one parallel primitive of the
//! workspace.
//!
//! [`join`] runs `a` on a scoped helper thread while the caller runs `b`
//! when the host gives this process a second core. On one core, and when
//! the helper cannot be spawned, it runs `a` and then `b` on the caller. The
//! two halves share nothing they write, so the results are the same values
//! on either schedule, and a panic in either half is the caller's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{self, Builder};

/// Helper threads [`join`] has spawned in this process.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// How many helper threads [`join`] has spawned in this process: none on a
/// host that gives it one core, whatever it ran.
pub fn helpers_spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// Run `a` and `b`, side by side when the host gives this process two
/// cores, else `a` and then `b`. The cores are asked each time: affinity
/// can change under a running process, and the question is cheap next to
/// the work.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    let cores = thread::available_parallelism().map_or(1, usize::from);
    join_on((cores > 1).then(Builder::new), a, b)
}

/// [`join`] on a helper built by `helper`, or inline when there is none or
/// it cannot be spawned.
fn join_on<A, B, RA, RB>(helper: Option<Builder>, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    let Some(helper) = helper else {
        return (a(), b());
    };
    // `a` waits here for the helper to take it: a spawn that fails leaves
    // it, and hands `b` back, to run inline
    let mut a = Some(a);
    let beside = thread::scope(|s| {
        let task = &mut a;
        let Ok(handle) = helper.spawn_scoped(s, move || task.take().map(|a| a())) else {
            return Err(b);
        };
        SPAWNED.fetch_add(1, Ordering::Relaxed);
        let rb = b();
        let ra = handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        Ok((ra.expect("a spawned helper takes `a`"), rb))
    });
    match (beside, a) {
        (Ok(both), _) => both,
        (Err(b), Some(a)) => (a(), b()),
        (Err(_), None) => unreachable!("only a spawned helper takes `a`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Which thread ran each half, and the order the halves ran in.
    fn traced(helper: Option<Builder>) -> ((ThreadId, ThreadId), Vec<&'static str>) {
        let order = Mutex::new(Vec::new());
        let ran = |half| {
            order.lock().expect("no half panics").push(half);
            thread::current().id()
        };
        let ids = join_on(helper, || ran("a"), || ran("b"));
        (ids, order.into_inner().expect("no half panics"))
    }

    #[test]
    fn one_worker_runs_a_then_b_inline() {
        let caller = thread::current().id();
        assert_eq!(traced(None), ((caller, caller), vec!["a", "b"]));
    }

    #[test]
    fn a_helper_that_cannot_be_spawned_leaves_the_work_inline() {
        // no address space holds a 1 PiB stack: the spawn fails at once
        let doomed = Builder::new().stack_size(1 << 50);
        let caller = thread::current().id();
        assert_eq!(traced(Some(doomed)), ((caller, caller), vec!["a", "b"]));
    }

    #[test]
    fn a_spawned_helper_runs_a_beside_the_caller() {
        let spawned = helpers_spawned();
        let ((a, b), mut order) = traced(Some(Builder::new()));
        assert_ne!(a, thread::current().id());
        assert_eq!(b, thread::current().id());
        order.sort_unstable();
        assert_eq!(order, ["a", "b"]);
        assert!(helpers_spawned() > spawned);
    }

    #[test]
    fn a_panic_on_either_side_is_the_callers() {
        let helper = catch_unwind(|| join_on(Some(Builder::new()), || panic!("helper"), || 1));
        let payload = helper.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper"));
        let caller = catch_unwind(|| join_on(Some(Builder::new()), || 1, || panic!("caller")));
        let payload = caller.expect_err("the caller's own panic unwinds");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller"));
        assert!(catch_unwind(|| join_on(None, || panic!("inline"), || 1)).is_err());
    }
}
