//! Fault injection for the simulated control plane.
//!
//! §3.3 names "retries in case of resource hanging or failure" as a
//! first-class scheduling constraint, and §3.4/§3.5 are entirely about
//! things going wrong mid-flight. [`FaultPlan`] injects two failure modes,
//! both seeded and deterministic:
//!
//! * **transient failures** — the op completes with a retryable
//!   `InternalServerError`-style [`crate::CloudError`];
//! * **hangs** — the op takes `hang_factor ×` its sampled latency (the
//!   "resource hanging" case; schedulers and retry policies must tolerate
//!   it);
//! * **failed reads** — a `Read` completes with the same retryable error,
//!   so a refresh learns nothing about that resource this time.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that a mutation op fails transiently.
    pub transient_failure_rate: f64,
    /// Probability that an op hangs (slow-path latency).
    pub hang_rate: f64,
    /// Latency multiplier applied to hanging ops.
    pub hang_factor: f64,
    /// Probability that a read fails transiently.
    pub read_failure_rate: f64,
}

impl Default for FaultPlan {
    /// Mild background noise: 1% transient failures, 2% hangs at 8×.
    fn default() -> Self {
        FaultPlan {
            transient_failure_rate: 0.01,
            hang_rate: 0.02,
            hang_factor: 8.0,
            read_failure_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// No injected faults — the default for experiments that measure
    /// scheduling effects in isolation.
    pub fn none() -> Self {
        FaultPlan {
            transient_failure_rate: 0.0,
            hang_rate: 0.0,
            hang_factor: 1.0,
            read_failure_rate: 0.0,
        }
    }

    /// A hostile plan for failure-handling tests.
    pub fn chaotic() -> Self {
        FaultPlan {
            transient_failure_rate: 0.15,
            hang_rate: 0.10,
            hang_factor: 10.0,
            read_failure_rate: 0.0,
        }
    }

    /// A provider outage in progress: transient failures dominate and a
    /// sizable fraction of ops hang badly. Used by the E11 resilience
    /// experiment — immediate-retry executors routinely exhaust their
    /// budgets under this plan.
    pub fn storm() -> Self {
        FaultPlan {
            transient_failure_rate: 0.30,
            hang_rate: 0.10,
            hang_factor: 12.0,
            read_failure_rate: 0.0,
        }
    }

    /// Decide the fate of one mutation op.
    pub fn roll(&self, rng: &mut impl Rng) -> FaultOutcome {
        if self.transient_failure_rate > 0.0 && rng.gen_bool(self.transient_failure_rate) {
            return FaultOutcome::TransientFailure;
        }
        if self.hang_rate > 0.0 && rng.gen_bool(self.hang_rate) {
            return FaultOutcome::Hang;
        }
        FaultOutcome::Normal
    }

    /// Decide the fate of one read: it fails or it does not. A plan whose
    /// reads cannot fail draws nothing, so adding reads to a run leaves the
    /// faults its mutations roll where they were.
    pub fn roll_read(&self, rng: &mut impl Rng) -> FaultOutcome {
        if self.read_failure_rate > 0.0 && rng.gen_bool(self.read_failure_rate) {
            return FaultOutcome::TransientFailure;
        }
        FaultOutcome::Normal
    }
}

/// Per-op fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    Normal,
    TransientFailure,
    Hang,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_plan_is_always_normal() {
        let plan = FaultPlan::none();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(plan.roll(&mut rng), FaultOutcome::Normal);
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan {
            transient_failure_rate: 0.2,
            hang_rate: 0.2,
            hang_factor: 5.0,
            ..FaultPlan::none()
        };
        let mut rng = StdRng::seed_from_u64(42);
        let mut fails = 0;
        let mut hangs = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            match plan.roll(&mut rng) {
                FaultOutcome::TransientFailure => fails += 1,
                FaultOutcome::Hang => hangs += 1,
                FaultOutcome::Normal => {}
            }
        }
        let fail_rate = fails as f64 / N as f64;
        // hang is rolled only on non-failed ops: expected ≈ 0.8 * 0.2 = 0.16
        let hang_rate = hangs as f64 / N as f64;
        assert!((0.17..0.23).contains(&fail_rate), "fail rate {fail_rate}");
        assert!((0.13..0.19).contains(&hang_rate), "hang rate {hang_rate}");
    }

    #[test]
    fn deterministic_under_seed() {
        let plan = FaultPlan::chaotic();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| plan.roll(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
