//! Jittered exponential backoff for connection retry.
//!
//! Replaces the runtime's original fixed dial backoff: each failed attempt
//! doubles the delay (clamped to a cap), then jitters it uniformly into
//! `[delay/2, delay]` so a cohort of dialers that failed together does not
//! retry in lockstep. After `max_attempts` consecutive failures
//! [`Backoff::next_delay`] returns `None`, letting the caller switch to a
//! low-frequency probation probe instead of hammering a dead peer.
//!
//! A successful connection does **not** clear the failure streak by itself:
//! a flapping peer that accepts the handshake and dies a moment later would
//! otherwise reset the schedule to the base rung on every flap, turning the
//! exponential backoff into a fixed-rate hammer. Instead the caller reports
//! [`Backoff::connected`] / [`Backoff::disconnected`] transitions, and
//! [`Backoff::maybe_reset`] clears the streak only after the link has been
//! continuously healthy for a full [`BackoffPolicy::probation_window_us`].

use rand::rngs::StdRng;
use rand::Rng;

/// Tunable backoff parameters. Time is plain microseconds on whatever
/// clock the caller runs (wall clock on sockets, virtual time in the
/// simulator), so the same schedule serves both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry (pre-jitter, µs).
    pub base_us: u64,
    /// Upper bound on the pre-jitter delay (µs).
    pub cap_us: u64,
    /// Consecutive failures after which `next_delay` returns `None`.
    pub max_attempts: u32,
    /// How long (µs) a connection must stay continuously healthy before
    /// [`Backoff::maybe_reset`] clears the failure streak. A single
    /// successful dial inside this window keeps the escalated schedule.
    pub probation_window_us: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_us: 10_000,
            cap_us: 500_000,
            max_attempts: 10,
            probation_window_us: 2_000_000,
        }
    }
}

/// Per-peer retry state driven by a [`BackoffPolicy`].
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: BackoffPolicy,
    attempts: u32,
    /// When the current unbroken healthy stretch began, if connected.
    healthy_since: Option<u64>,
}

impl Backoff {
    /// Fresh state: the next failure is attempt 1.
    pub fn new(policy: BackoffPolicy) -> Self {
        Backoff {
            policy,
            attempts: 0,
            healthy_since: None,
        }
    }

    /// Records a failure and returns how long (µs) to wait before retrying,
    /// or `None` once `max_attempts` consecutive failures have accumulated.
    ///
    /// The pre-jitter delay for attempt `i` (1-based) is
    /// `min(base * 2^(i-1), cap)`; the returned delay is uniform in
    /// `[delay/2, delay]`.
    pub fn next_delay(&mut self, rng: &mut StdRng) -> Option<u64> {
        self.healthy_since = None; // a failure breaks any healthy stretch
        if self.attempts >= self.policy.max_attempts {
            return None;
        }
        self.attempts += 1;
        let upper = self
            .policy
            .base_us
            .saturating_mul(1 << (self.attempts - 1).min(20))
            .min(self.policy.cap_us);
        let lower = upper / 2;
        Some(if upper > lower {
            rng.random_range(lower..=upper)
        } else {
            upper
        })
    }

    /// Clears the failure streak unconditionally. Callers that want the
    /// flap-resistant behaviour should report [`Backoff::connected`] and
    /// poll [`Backoff::maybe_reset`] instead.
    pub fn reset(&mut self) {
        self.attempts = 0;
        self.healthy_since = None;
    }

    /// Marks the link healthy as of `now_us`. An already-running healthy
    /// stretch is preserved (reconnection bookkeeping may report the same
    /// connection more than once).
    pub fn connected(&mut self, now_us: u64) {
        self.healthy_since.get_or_insert(now_us);
    }

    /// Marks the link down: any healthy stretch in progress is voided, so
    /// the escalated schedule survives a connect-then-die flap even if the
    /// teardown is noticed before the next dial failure.
    pub fn disconnected(&mut self) {
        self.healthy_since = None;
    }

    /// Clears the failure streak — and returns `true` — only once the link
    /// has been continuously healthy for the policy's probation window.
    /// Until then the escalated delay schedule stays in force.
    pub fn maybe_reset(&mut self, now_us: u64) -> bool {
        let earned = self
            .healthy_since
            .is_some_and(|t| now_us.saturating_sub(t) >= self.policy.probation_window_us);
        if earned {
            self.reset();
        }
        earned
    }

    /// Consecutive failures recorded since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The policy this state was built with.
    pub fn policy(&self) -> BackoffPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const MS: u64 = 1_000;

    fn policy() -> BackoffPolicy {
        BackoffPolicy {
            base_us: 10 * MS,
            cap_us: 160 * MS,
            max_attempts: 6,
            probation_window_us: 500 * MS,
        }
    }

    #[test]
    fn delays_grow_exponentially_within_jitter_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut b = Backoff::new(policy());
        // Pre-jitter schedule: 10, 20, 40, 80, 160, 160 (capped).
        let expected_ms = [10u64, 20, 40, 80, 160, 160];
        for (i, &exp_ms) in expected_ms.iter().enumerate() {
            let d = b
                .next_delay(&mut rng)
                .unwrap_or_else(|| panic!("attempt {} should still retry", i + 1));
            let exp = exp_ms * MS;
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {}: delay {d} outside [{}, {exp}]",
                i + 1,
                exp / 2,
            );
        }
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = Backoff::new(policy());
        for _ in 0..6 {
            assert!(b.next_delay(&mut rng).is_some());
        }
        assert_eq!(b.attempts(), 6);
        assert!(b.next_delay(&mut rng).is_none());
        assert!(b.next_delay(&mut rng).is_none(), "stays exhausted");
    }

    #[test]
    fn reset_restarts_the_schedule() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = Backoff::new(policy());
        for _ in 0..6 {
            b.next_delay(&mut rng);
        }
        assert!(b.next_delay(&mut rng).is_none());
        b.reset();
        assert_eq!(b.attempts(), 0);
        let d = b.next_delay(&mut rng).expect("retries again after reset");
        assert!(d <= 10 * MS, "back to the base rung");
    }

    #[test]
    fn jitter_is_deterministic_under_a_fixed_seed() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(1234);
            let mut b = Backoff::new(policy());
            let mut out = Vec::new();
            while let Some(d) = b.next_delay(&mut rng) {
                out.push(d);
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_dial_success_does_not_reset_the_schedule() {
        // Regression: a flapping peer used to get the base delay back after
        // every momentary connect, defeating the exponential schedule.
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = Backoff::new(policy());
        for _ in 0..4 {
            b.next_delay(&mut rng);
        }
        assert_eq!(b.attempts(), 4);
        let t0 = 7 * MS;
        b.connected(t0);
        assert!(
            !b.maybe_reset(t0 + 100 * MS),
            "inside the probation window the streak must survive"
        );
        assert_eq!(b.attempts(), 4);
        // The flap: next failure continues on the escalated rung (attempt 5
        // → pre-jitter 160ms, far above the 10ms base).
        let d = b.next_delay(&mut rng).unwrap();
        assert!(
            d >= 80 * MS,
            "delay {d} fell back toward the base rung after one flap"
        );
    }

    #[test]
    fn full_probation_window_earns_the_reset() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = Backoff::new(policy());
        for _ in 0..5 {
            b.next_delay(&mut rng);
        }
        let t0 = 7 * MS;
        b.connected(t0);
        // connected() again mid-window must not restart the stretch.
        b.connected(t0 + 400 * MS);
        assert!(b.maybe_reset(t0 + 500 * MS));
        assert_eq!(b.attempts(), 0);
        let d = b.next_delay(&mut rng).unwrap();
        assert!(d <= 10 * MS, "back to the base rung");
    }

    #[test]
    fn disconnect_voids_the_healthy_stretch() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = Backoff::new(policy());
        b.next_delay(&mut rng);
        let t0 = 7 * MS;
        b.connected(t0);
        b.disconnected();
        assert!(
            !b.maybe_reset(t0 + 10_000 * MS),
            "a voided stretch never earns the reset, however much time passes"
        );
        // Reconnecting starts a fresh stretch from its own instant.
        b.connected(t0 + 10_000 * MS);
        assert!(!b.maybe_reset(t0 + 10_000 * MS + 499 * MS));
        assert!(b.maybe_reset(t0 + 10_000 * MS + 500 * MS));
    }

    #[test]
    fn jitter_actually_varies_across_seeds() {
        let sample = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            Backoff::new(policy()).next_delay(&mut rng).unwrap()
        };
        let distinct: std::collections::BTreeSet<u64> = (0..16).map(sample).collect();
        assert!(distinct.len() > 1, "jitter should depend on the RNG");
    }
}
