//! Resilience policies for the plan executor (§3.3/§3.4).
//!
//! §3.3 lists "retries in case of resource hanging or failure" as a
//! first-class scheduling constraint. This module packages the three
//! mechanisms the executor uses to survive a misbehaving provider, plus the
//! knobs that tune them:
//!
//! * [`RetryPolicy`] — exponential backoff with deterministic seeded
//!   jitter, a per-node attempt budget and an optional per-apply retry
//!   budget (replacing the old hard-wired immediate retry ×3);
//! * [`DeadlinePolicy`] — per-op deadlines in sim time, derived from the
//!   catalog's duration estimates, after which a hung op is cancelled and
//!   rescheduled;
//! * [`CircuitBreaker`] — a per-provider breaker that sheds new
//!   submissions while a provider's recent error rate is above threshold,
//!   and half-opens with a single probe after a cooldown.
//!
//! Everything is deterministic: jitter comes from an [`StdRng`] seeded by
//! [`ResiliencePolicy::seed`], and all clocks are virtual.

use std::collections::VecDeque;

use cloudless_types::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// Retry budget and backoff shape.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum submission attempts per node for retryable *failures*
    /// (first attempt included). 1 disables failure retries entirely.
    pub max_attempts_per_node: u32,
    /// Maximum deadline-timeout retries per node. Hangs are not failures —
    /// they consume this separate, usually more generous, budget.
    pub max_timeouts_per_node: u32,
    /// Optional cap on total retries across one whole apply; once spent,
    /// further retryable failures become terminal.
    pub max_retries_per_apply: Option<u64>,
    /// Delay before the first retry.
    pub base_backoff: SimDuration,
    /// Backoff growth factor per subsequent retry of the same node.
    pub multiplier: f64,
    /// Upper bound on any single backoff delay (pre-jitter).
    pub max_backoff: SimDuration,
    /// Jitter half-width as a fraction of the delay: the delay is scaled
    /// by a factor drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// The seed executor's behavior: up to 3 immediate retries, no jitter.
    pub fn immediate() -> Self {
        RetryPolicy {
            max_attempts_per_node: 4,
            max_timeouts_per_node: 4,
            max_retries_per_apply: None,
            base_backoff: SimDuration::ZERO,
            multiplier: 1.0,
            max_backoff: SimDuration::ZERO,
            jitter: 0.0,
        }
    }

    /// Backoff before retry number `retry_index` (0-based) of a node.
    /// Deterministic for a given RNG state.
    pub fn backoff(&self, retry_index: u32, rng: &mut StdRng) -> SimDuration {
        if self.base_backoff == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let exp = self.multiplier.powi(retry_index.min(30) as i32);
        let raw =
            (self.base_backoff.millis() as f64 * exp).min(self.max_backoff.millis().max(1) as f64);
        let factor = if self.jitter > 0.0 {
            1.0 + self.jitter * (rng.gen_range(0.0..1.0) * 2.0 - 1.0)
        } else {
            1.0
        };
        SimDuration::from_millis((raw * factor).round().max(0.0) as u64)
    }
}

/// How long an op may run before the executor cancels and reschedules it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlinePolicy {
    /// No deadlines: hung ops run to (slow) completion, as the seed
    /// executor did.
    None,
    /// Deadline = `factor ×` the catalog's duration estimate for the node,
    /// never below `floor`. The clock starts when the provider admits the
    /// op, so rate-limit queueing does not count against it.
    EstimateFactor { factor: f64, floor: SimDuration },
    /// The same fixed deadline for every op.
    Fixed(SimDuration),
}

impl DeadlinePolicy {
    /// The allowed run time for an op with the given catalog estimate.
    pub fn allowance(&self, estimate: SimDuration) -> Option<SimDuration> {
        match *self {
            DeadlinePolicy::None => None,
            DeadlinePolicy::EstimateFactor { factor, floor } => {
                let scaled = estimate.mul_f64(factor.max(1.0));
                Some(if scaled.millis() < floor.millis() {
                    floor
                } else {
                    scaled
                })
            }
            DeadlinePolicy::Fixed(d) => Some(d),
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Rolling window of most recent op outcomes considered.
    pub window: usize,
    /// Open when `failures / window_len >= failure_threshold`.
    pub failure_threshold: f64,
    /// Outcomes needed in the window before the breaker may trip.
    pub min_samples: usize,
    /// How long an open breaker sheds load before half-opening.
    pub cooldown: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 20,
            failure_threshold: 0.5,
            min_samples: 10,
            cooldown: SimDuration::from_secs(30),
        }
    }
}

/// Breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; outcomes are sampled into the window.
    Closed,
    /// Shedding all submissions until `until`.
    Open { until: SimTime },
    /// One probe allowed through; its outcome decides reopen vs. close.
    HalfOpen { probing: bool },
}

impl BreakerState {
    /// Stable short name for logs, metrics, and trace events.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen { .. } => "half-open",
        }
    }
}

/// A per-provider circuit breaker over a rolling outcome window.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Recent outcomes, `true` = failure.
    window: VecDeque<bool>,
    trips: u64,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            window: VecDeque::new(),
            trips: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether a submission at `now` would be admitted. Does not change
    /// state — pair with [`CircuitBreaker::on_submit`] once the caller
    /// commits to submitting.
    pub fn would_admit(&self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open { until } => now >= until,
            BreakerState::HalfOpen { probing } => !probing,
        }
    }

    /// Record that a submission was made at `now`. An open breaker past
    /// its cooldown half-opens and treats this submission as the probe, as
    /// does a half-open one whose slot is free: `true` when it is the probe.
    pub fn on_submit(&mut self, now: SimTime) -> bool {
        let probe = match self.state {
            BreakerState::Closed => false,
            BreakerState::Open { until } => now >= until,
            BreakerState::HalfOpen { probing } => !probing,
        };
        if probe {
            self.state = BreakerState::HalfOpen { probing: true };
        }
        probe
    }

    /// The probe never reached the provider (the front door refused the
    /// request), so it will have no outcome: the slot is free again.
    pub fn on_refused(&mut self) {
        if self.state == (BreakerState::HalfOpen { probing: true }) {
            self.state = BreakerState::HalfOpen { probing: false };
        }
    }

    /// Record an op outcome at `now` (`ok = false` covers both provider
    /// failures and client-side deadline cancellations).
    pub fn on_outcome(&mut self, now: SimTime, ok: bool) {
        match self.state {
            BreakerState::Closed => {
                self.window.push_back(!ok);
                while self.window.len() > self.config.window {
                    self.window.pop_front();
                }
                if self.window.len() >= self.config.min_samples.max(1) {
                    let failures = self.window.iter().filter(|&&f| f).count();
                    let rate = failures as f64 / self.window.len() as f64;
                    if rate >= self.config.failure_threshold {
                        self.trip(now);
                    }
                }
            }
            BreakerState::HalfOpen { .. } => {
                if ok {
                    self.state = BreakerState::Closed;
                    self.window.clear();
                } else {
                    self.trip(now);
                }
            }
            // outcome of an op submitted before the trip — ignore
            BreakerState::Open { .. } => {}
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.trips += 1;
        self.state = BreakerState::Open {
            until: now + self.config.cooldown,
        };
        self.window.clear();
    }

    /// When a currently-open breaker will next admit a probe.
    pub fn next_probe_at(&self) -> Option<SimTime> {
        match self.state {
            BreakerState::Open { until } => Some(until),
            _ => None,
        }
    }
}

/// The full resilience configuration of one apply.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    pub retry: RetryPolicy,
    pub deadline: DeadlinePolicy,
    /// `None` disables circuit breaking.
    pub breaker: Option<BreakerConfig>,
    /// Seed of the backoff-jitter RNG (independent of the cloud's seed, so
    /// retry schedules are reproducible on their own).
    pub seed: u64,
}

impl ResiliencePolicy {
    /// The resilient default: exponential backoff with jitter, deadlines
    /// at 4× the catalog estimate, and per-provider circuit breaking.
    pub fn standard() -> Self {
        ResiliencePolicy {
            retry: RetryPolicy {
                max_attempts_per_node: 6,
                max_timeouts_per_node: 8,
                max_retries_per_apply: None,
                base_backoff: SimDuration::from_secs(1),
                multiplier: 2.0,
                max_backoff: SimDuration::from_secs(60),
                jitter: 0.5,
            },
            deadline: DeadlinePolicy::EstimateFactor {
                factor: 4.0,
                floor: SimDuration::from_secs(30),
            },
            breaker: Some(BreakerConfig::default()),
            seed: 7,
        }
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..ResiliencePolicy::standard().retry
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.backoff(0, &mut rng).millis(), 1_000);
        assert_eq!(p.backoff(1, &mut rng).millis(), 2_000);
        assert_eq!(p.backoff(2, &mut rng).millis(), 4_000);
        // capped at max_backoff
        assert_eq!(p.backoff(20, &mut rng).millis(), 60_000);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = ResiliencePolicy::standard().retry;
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|i| p.backoff(i % 5, &mut rng).millis())
                .collect::<Vec<_>>()
        };
        let a = draw(9);
        assert_eq!(a, draw(9), "same seed, same schedule");
        assert_ne!(a, draw(10), "different seed, different schedule");
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..5u32 {
            let nominal = 1_000.0 * 2.0f64.powi(i as i32);
            let got = p.backoff(i, &mut rng).millis() as f64;
            assert!(
                (nominal * 0.5..=nominal * 1.5).contains(&got),
                "retry {i}: {got} outside ±50% of {nominal}"
            );
        }
    }

    #[test]
    fn immediate_policy_has_zero_delay() {
        let p = RetryPolicy::immediate();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..4 {
            assert_eq!(p.backoff(i, &mut rng), SimDuration::ZERO);
        }
    }

    #[test]
    fn deadline_allowance_scales_and_floors() {
        let d = DeadlinePolicy::EstimateFactor {
            factor: 4.0,
            floor: SimDuration::from_secs(30),
        };
        // small estimate hits the floor
        assert_eq!(
            d.allowance(SimDuration::from_secs(5)),
            Some(SimDuration::from_secs(30))
        );
        // large estimate scales
        assert_eq!(
            d.allowance(SimDuration::from_mins(10)),
            Some(SimDuration::from_mins(40))
        );
        assert_eq!(
            DeadlinePolicy::None.allowance(SimDuration::from_secs(5)),
            None
        );
        assert_eq!(
            DeadlinePolicy::Fixed(SimDuration::from_secs(9)).allowance(SimDuration::from_mins(10)),
            Some(SimDuration::from_secs(9))
        );
    }

    #[test]
    fn breaker_trips_cools_down_and_half_opens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            window: 4,
            failure_threshold: 0.5,
            min_samples: 4,
            cooldown: SimDuration::from_secs(10),
        });
        let t = SimTime(1_000);
        assert!(b.would_admit(t));
        // 2 ok, 2 failures → 50% of a full window → trips
        b.on_outcome(t, true);
        b.on_outcome(t, true);
        b.on_outcome(t, false);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_outcome(t, false);
        assert_eq!(b.trips(), 1);
        assert!(!b.would_admit(SimTime(5_000)), "open sheds load");
        assert_eq!(b.next_probe_at(), Some(SimTime(11_000)));
        // past cooldown: one probe admitted, others shed
        let later = SimTime(11_000);
        assert!(b.would_admit(later));
        b.on_submit(later);
        assert_eq!(b.state(), BreakerState::HalfOpen { probing: true });
        assert!(!b.would_admit(later), "only one probe in flight");
        // probe fails → reopen with a fresh cooldown
        b.on_outcome(SimTime(12_000), false);
        assert_eq!(b.trips(), 2);
        assert_eq!(b.next_probe_at(), Some(SimTime(22_000)));
        // probe succeeds → closed, window reset
        b.on_submit(SimTime(22_000));
        b.on_outcome(SimTime(23_000), true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.would_admit(SimTime(23_000)));
    }

    #[test]
    fn a_refused_probe_frees_the_slot_and_only_the_probe_does() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            min_samples: 1,
            ..BreakerConfig::default()
        });
        b.on_outcome(SimTime::ZERO, false);
        let later = b.next_probe_at().expect("open");
        assert!(!b.on_submit(SimTime::ZERO), "a retry under an open breaker");
        assert!(b.on_submit(later), "the first submission past the cooldown");
        assert!(!b.on_submit(later), "a retry beside the probe");
        assert!(!b.would_admit(later));
        b.on_refused();
        assert!(b.would_admit(later), "the next ready node is the probe");
        assert!(b.on_submit(later));
        b.on_outcome(later, true);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_refused();
        assert_eq!(b.state(), BreakerState::Closed, "nothing to give back");
    }

    #[test]
    fn breaker_needs_min_samples_before_tripping() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            window: 10,
            failure_threshold: 0.5,
            min_samples: 5,
            cooldown: SimDuration::from_secs(10),
        });
        let t = SimTime::ZERO;
        for _ in 0..4 {
            b.on_outcome(t, false); // 100% failures but < min_samples
        }
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_outcome(t, false);
        assert!(matches!(b.state(), BreakerState::Open { .. }));
    }
}
