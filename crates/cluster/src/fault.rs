//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is a *schedule*, not a random process: every decision —
//! whether a given transmission attempt is dropped, duplicated, or
//! corrupted — is a pure hash of `(seed, from, to, tag, seq, attempt)`.
//! Two runs with the same plan see the identical fault sequence regardless
//! of thread interleaving, which is what lets the recovery tests assert
//! bit-identical results and exact retry counts.
//!
//! The plan models three failure classes:
//!
//! * **Message loss / corruption / duplication** — per-attempt coin flips
//!   with the configured probabilities. A corrupted attempt is modeled as
//!   detected by the receiver and handled like a loss (the intact
//!   retransmission is what gets delivered), so faults cost time and
//!   traffic but never change results.
//! * **Node crashes** — `crashed_mask` marks whole ranks as down before the
//!   operation starts. A crashed rank receives traffic but never
//!   acknowledges it; the dispatcher's probe times out after `max_retries`
//!   attempts and the task is redispatched to a survivor.
//! * **Detection parameters** — `timeout` bounds each wait for an
//!   acknowledgement and `max_retries` bounds retransmissions before a
//!   peer is declared dead.

use std::time::Duration;

/// The outcome of one transmission-attempt coin flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// The attempt reaches the receiver's queue at all.
    pub deliver: bool,
    /// A second copy of the attempt also arrives (delivered attempts only).
    pub duplicate: bool,
    /// The delivered bytes are damaged in flight (the receiver discards them).
    pub corrupt: bool,
}

impl FaultDecision {
    /// True when this attempt arrives intact and will be acknowledged.
    pub fn arrives_intact(&self) -> bool {
        self.deliver && !self.corrupt
    }
}

/// Seeded, per-rank schedule of injected faults. `Copy` so it rides inside
/// [`ClusterConfig`](crate::ClusterConfig) without breaking its `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Root of every fault decision hash.
    pub seed: u64,
    /// Probability an attempt is lost in flight.
    pub drop_prob: f64,
    /// Probability a delivered attempt arrives twice.
    pub dup_prob: f64,
    /// Probability a delivered attempt arrives damaged.
    pub corrupt_prob: f64,
    /// Bit `r` set means rank `r` is crashed for the whole operation.
    /// Supports ranks 0..64, far beyond the simulated shapes.
    pub crashed_mask: u64,
    /// Retransmissions before a silent peer is declared down.
    pub max_retries: u32,
    /// How long each wait for an acknowledgement lasts.
    pub timeout: Duration,
}

impl FaultPlan {
    /// The no-fault plan: every probability zero, nobody crashed. This is
    /// the default everywhere; with it, every message is delivered on its
    /// first attempt and no fault decision is drawn.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            corrupt_prob: 0.0,
            crashed_mask: 0,
            max_retries: 8,
            timeout: Duration::from_millis(20),
        }
    }

    /// A fault-free plan carrying `seed`, ready for builder calls.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::none() }
    }

    /// Set the per-attempt drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Set the per-attempt duplication probability.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.dup_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Set the per-attempt corruption probability.
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corrupt_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Mark `rank` as crashed.
    pub fn with_crash(mut self, rank: usize) -> Self {
        assert!(rank < 64, "crashed_mask covers ranks 0..64");
        self.crashed_mask |= 1 << rank;
        self
    }

    /// Set the retransmission budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Set the per-acknowledgement wait.
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.timeout = t;
        self
    }

    /// True when any fault can actually occur. Inactive plans cost nothing:
    /// the dispatcher draws no decision for them.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.crashed_mask != 0
    }

    /// Whether `rank` is scheduled as crashed.
    pub fn crashed(&self, rank: usize) -> bool {
        rank < 64 && (self.crashed_mask >> rank) & 1 == 1
    }

    /// The fault decision for one transmission attempt. Pure: depends only
    /// on the plan and the attempt's coordinates.
    pub fn decide(
        &self,
        from: usize,
        to: usize,
        tag: u32,
        seq: u64,
        attempt: u32,
    ) -> FaultDecision {
        let base = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(mix(from as u64))
            .wrapping_add(mix((to as u64) << 20))
            .wrapping_add(mix((tag as u64) << 40))
            .wrapping_add(mix(seq.wrapping_mul(0x2545_f491_4f6c_dd1d)))
            .wrapping_add(mix(attempt as u64 ^ 0xdead_beef));
        FaultDecision {
            deliver: unit(mix(base ^ 0x01)) >= self.drop_prob,
            duplicate: unit(mix(base ^ 0x02)) < self.dup_prob,
            corrupt: unit(mix(base ^ 0x03)) < self.corrupt_prob,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// splitmix64 finalizer: avalanche `x` into 64 well-mixed bits.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map 64 hash bits to a uniform f64 in [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::seeded(42).with_drop(0.3).with_duplication(0.1).with_corruption(0.1);
        for attempt in 0..16 {
            let a = plan.decide(0, 3, 7, 21, attempt);
            let b = plan.decide(0, 3, 7, 21, attempt);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn decisions_vary_with_every_coordinate() {
        let plan = FaultPlan::seeded(1).with_drop(0.5);
        let base: Vec<bool> = (0..64).map(|s| plan.decide(0, 1, 0, s, 0).deliver).collect();
        let other_seed: Vec<bool> = (0..64)
            .map(|s| FaultPlan::seeded(2).with_drop(0.5).decide(0, 1, 0, s, 0).deliver)
            .collect();
        let other_attempt: Vec<bool> =
            (0..64).map(|s| plan.decide(0, 1, 0, s, 1).deliver).collect();
        assert_ne!(base, other_seed, "seed must perturb the schedule");
        assert_ne!(base, other_attempt, "attempt number must perturb the schedule");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::seeded(7).with_drop(0.25);
        let dropped = (0..4000).filter(|&s| !plan.decide(0, 1, 0, s, 0).deliver).count();
        let rate = dropped as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "observed drop rate {rate}");
    }

    #[test]
    fn none_is_inactive_and_crash_flags_work() {
        assert!(!FaultPlan::none().is_active());
        let plan = FaultPlan::seeded(0).with_crash(2);
        assert!(plan.is_active());
        assert!(plan.crashed(2));
        assert!(!plan.crashed(1));
        assert!(!plan.crashed(63));
    }

    #[test]
    fn zero_probability_always_delivers() {
        let plan = FaultPlan::seeded(9);
        for s in 0..256 {
            let d = plan.decide(1, 0, 5, s, 0);
            assert!(d.arrives_intact() && !d.duplicate);
        }
    }
}
