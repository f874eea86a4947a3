//! Fault specification and the deterministic schedule generated from it.

use tmc_omeganet::LinkId;
use tmc_simcore::SimRng;

use crate::error::FaultError;

/// Bounded retry with exponential backoff, in **simulated** cycles.
///
/// A transaction whose message path is blocked times out and retries up to
/// `max_retries` times; attempt `k` (zero-based) backs off
/// `backoff_base << k` cycles before probing again. Outages heal at op
/// granularity, so retries against a hard outage exhaust deterministically
/// and the engine falls back to graceful degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the first timeout (≤ 32).
    pub max_retries: u32,
    /// Base backoff in simulated cycles (attempt `k` waits `base << k`).
    pub backoff_base: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: 8,
        }
    }
}

impl RetryPolicy {
    /// Largest shift applied by [`RetryPolicy::backoff_cycles`]. Attempts
    /// past this clamp to `backoff_base << BACKOFF_SHIFT_CAP`: any higher
    /// shift would make `1u64 << attempt` undefined behavior territory
    /// (shift ≥ 64) long before the simulated-cycle budget matters, and
    /// `validate` already bounds `max_retries` to the same cap.
    pub const BACKOFF_SHIFT_CAP: u32 = 32;

    /// Backoff before (zero-based) retry `attempt`. The shift is clamped at
    /// [`RetryPolicy::BACKOFF_SHIFT_CAP`] and the multiply saturates, so
    /// absurd attempt counts (or an absurd base) can neither overflow nor
    /// panic — they pin at the cap.
    pub fn backoff_cycles(self, attempt: u32) -> u64 {
        self.backoff_base
            .saturating_mul(1u64 << attempt.min(Self::BACKOFF_SHIFT_CAP))
    }
}

/// One concrete fault, ready to fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A network link goes out of service until op `heal_at`; every route
    /// crossing it is unreachable in the meantime.
    LinkDown {
        /// The dead link.
        link: LinkId,
        /// First op at which the link carries traffic again.
        heal_at: u64,
    },
    /// A cache stops answering until op `heal_at`; the engine quarantines
    /// it (flush + present-vector scrub) and serves its processor uncached.
    CacheStall {
        /// The stalled cache.
        cache: usize,
        /// First op at which the cache answers again.
        heal_at: u64,
    },
    /// The next protocol message is lost in the network and must be
    /// retransmitted (its route is billed twice).
    MsgDrop,
    /// The next protocol message is duplicated in flight (billed twice;
    /// the protocol's transactions are idempotent at the receiver).
    MsgDup,
    /// The next protocol message is delayed by `cycles` of simulated time.
    MsgDelay {
        /// Added latency in simulated cycles.
        cycles: u64,
    },
    /// A single bit of a resident cache line flips; the engine models
    /// detection + repair (ECC scrub in place, or a refetch from the
    /// owning cache).
    BitFlip {
        /// The affected cache.
        cache: usize,
        /// Deterministic selector for which resident line is hit.
        pick: u64,
    },
    /// The next `count` ownership offers (replacement case 5b) are
    /// negatively acknowledged; handoff still terminates on the final
    /// candidate.
    HandoffNak {
        /// Offers to refuse.
        count: usize,
    },
}

/// A fault and the simulated op index at which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Op index (1-based public-transaction count) at which the fault fires.
    pub at: u64,
    /// What fires.
    pub kind: FaultKind,
}

/// Most faults a spec may schedule: the plan is generated up front, one
/// entry per fault.
const MAX_COUNT: usize = 1 << 20;

/// Largest horizon, mean outage and backoff base. Far beyond any run, and
/// small enough that the generator's `2 * mean_outage`, `at + outage` and
/// `4 * backoff_base` cannot overflow.
const MAX_SPAN: u64 = 1 << 48;

/// Seed-driven fault campaign parameters.
///
/// Lives in `tmc_core::SystemConfig` so every engine can see (and, for the
/// sharded/baseline engines, explicitly reject) fault-enabled configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed for the schedule (and nothing else — workloads seed separately).
    pub seed: u64,
    /// Total faults to schedule. Zero means an empty plan: the injector
    /// never fires and the run is bit-identical to a fault-free one.
    pub count: usize,
    /// Op-index window `1..=horizon` over which fire times are drawn.
    pub horizon: u64,
    /// Mean outage length in ops for link-down and cache-stall faults
    /// (durations are drawn uniformly from `1..=2*mean_outage`).
    pub mean_outage: u64,
    /// Timeout/retry behavior for transactions that hit an outage.
    pub retry: RetryPolicy,
}

impl FaultSpec {
    /// A small default campaign: 8 faults over 4096 ops, mean outage 64
    /// ops, default retry policy.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            count: 8,
            horizon: 4096,
            mean_outage: 64,
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the number of faults to schedule.
    pub fn count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Sets the op window over which faults fire.
    pub fn horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the mean outage length in ops.
    pub fn mean_outage(mut self, ops: u64) -> Self {
        self.mean_outage = ops;
        self
    }

    /// Sets the retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Checks the spec for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::BadSpec`] for a zero horizon or zero mean
    /// outage with a nonzero fault count, an excessive retry count, more
    /// than 2²⁰ faults, or a horizon, mean outage or backoff base above
    /// 2⁴⁸.
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.count > MAX_COUNT {
            return Err(FaultError::BadSpec(format!(
                "count {} exceeds the supported bound of {MAX_COUNT}",
                self.count
            )));
        }
        for (name, value) in [
            ("horizon", self.horizon),
            ("mean_outage", self.mean_outage),
            ("backoff_base", self.retry.backoff_base),
        ] {
            if value > MAX_SPAN {
                return Err(FaultError::BadSpec(format!(
                    "{name} {value} exceeds the supported bound of {MAX_SPAN}"
                )));
            }
        }
        if self.count > 0 && self.horizon == 0 {
            return Err(FaultError::BadSpec(
                "horizon must be >= 1 when faults are scheduled".into(),
            ));
        }
        if self.count > 0 && self.mean_outage == 0 {
            return Err(FaultError::BadSpec(
                "mean_outage must be >= 1 when faults are scheduled".into(),
            ));
        }
        if self.retry.max_retries > 32 {
            return Err(FaultError::BadSpec(format!(
                "max_retries {} exceeds the supported bound of 32",
                self.retry.max_retries
            )));
        }
        Ok(())
    }
}

/// The deterministic schedule generated from a [`FaultSpec`]: scheduled
/// faults sorted by fire op (ties keep generation order).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
    retry: RetryPolicy,
}

impl FaultPlan {
    /// Generates the schedule for a machine with `ports` network ports and
    /// link layers `0..=link_layers` (i.e. `m + 1` layers for an m-stage
    /// omega network). Deterministic in `spec` alone: the spec seed is
    /// forked into decorrelated streams for fire times and fault shapes.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::BadSpec`] if `spec` fails
    /// [`FaultSpec::validate`] or `ports` is zero.
    pub fn generate(spec: &FaultSpec, ports: usize, link_layers: u32) -> Result<Self, FaultError> {
        spec.validate()?;
        if ports == 0 {
            return Err(FaultError::BadSpec("ports must be >= 1".into()));
        }
        let base = SimRng::seed_from(spec.seed);
        let mut when = base.fork(0x5eed_0001);
        let mut what = base.fork(0x5eed_0002);
        let mut faults = Vec::with_capacity(spec.count);
        for _ in 0..spec.count {
            let at = when.gen_range(1..=spec.horizon.max(1));
            let outage = what.gen_range(1..=2 * spec.mean_outage.max(1));
            let kind = match what.gen_range(0u32..7) {
                0 => FaultKind::LinkDown {
                    link: LinkId {
                        layer: what.gen_range(0..=link_layers),
                        line: what.gen_range(0..ports),
                    },
                    heal_at: at + outage,
                },
                1 => FaultKind::CacheStall {
                    cache: what.gen_range(0..ports),
                    heal_at: at + outage,
                },
                2 => FaultKind::MsgDrop,
                3 => FaultKind::MsgDup,
                4 => FaultKind::MsgDelay {
                    cycles: what.gen_range(1..=4 * spec.retry.backoff_base.max(1)),
                },
                5 => FaultKind::BitFlip {
                    cache: what.gen_range(0..ports),
                    pick: what.next_u64(),
                },
                _ => FaultKind::HandoffNak {
                    count: what.gen_range(1..=3usize),
                },
            };
            faults.push(ScheduledFault { at, kind });
        }
        // Stable sort: equal fire ops keep generation order, so the
        // schedule is a pure function of the spec.
        faults.sort_by_key(|f| f.at);
        Ok(FaultPlan {
            faults,
            retry: spec.retry,
        })
    }

    /// An empty plan (never fires).
    pub fn empty() -> Self {
        FaultPlan {
            faults: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The schedule, sorted by fire op.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// The retry policy the engine should apply.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let spec = FaultSpec::new(7).count(32).horizon(1000);
        let a = FaultPlan::generate(&spec, 16, 4).unwrap();
        let b = FaultPlan::generate(&spec, 16, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        let c = FaultPlan::generate(&FaultSpec::new(8).count(32).horizon(1000), 16, 4).unwrap();
        assert_ne!(a, c, "different seeds must give different schedules");
    }

    #[test]
    fn schedule_is_sorted_and_in_bounds() {
        let spec = FaultSpec::new(99).count(64).horizon(500).mean_outage(10);
        let plan = FaultPlan::generate(&spec, 8, 3).unwrap();
        let mut last = 0;
        for f in plan.faults() {
            assert!(f.at >= 1 && f.at <= 500);
            assert!(f.at >= last, "schedule must be sorted");
            last = f.at;
            match f.kind {
                FaultKind::LinkDown { link, heal_at } => {
                    assert!(link.layer <= 3 && link.line < 8);
                    assert!(heal_at > f.at);
                }
                FaultKind::CacheStall { cache, heal_at } => {
                    assert!(cache < 8);
                    assert!(heal_at > f.at);
                }
                FaultKind::MsgDelay { cycles } => assert!(cycles >= 1),
                FaultKind::HandoffNak { count } => assert!((1..=3).contains(&count)),
                FaultKind::MsgDrop | FaultKind::MsgDup | FaultKind::BitFlip { .. } => {}
            }
        }
    }

    #[test]
    fn zero_count_gives_an_empty_plan() {
        let spec = FaultSpec::new(1).count(0);
        let plan = FaultPlan::generate(&spec, 4, 2).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        assert!(FaultSpec::new(1).horizon(0).validate().is_err());
        assert!(FaultSpec::new(1).mean_outage(0).validate().is_err());
        let bad = FaultSpec::new(1).retry(RetryPolicy {
            max_retries: 33,
            backoff_base: 1,
        });
        assert!(bad.validate().is_err());
        // All three are fine with a zero fault count (except retries).
        assert!(FaultSpec::new(1).count(0).horizon(0).validate().is_ok());
    }

    /// Each of these fields once reached the generator unchecked: a huge
    /// count asked `Vec::with_capacity` for it (a capacity-overflow panic
    /// or an out-of-memory abort), and a huge horizon, mean outage or
    /// backoff base overflowed `at + outage`, `2 * mean_outage` or
    /// `4 * backoff_base` (a panic in debug builds).
    #[test]
    fn generation_rejects_fields_beyond_their_bounds() {
        let retry = |backoff_base| RetryPolicy {
            max_retries: 3,
            backoff_base,
        };
        for spec in [
            FaultSpec::new(1).count(usize::MAX),
            FaultSpec::new(1).count(MAX_COUNT + 1),
            FaultSpec::new(1).horizon(u64::MAX),
            FaultSpec::new(1).mean_outage(u64::MAX),
            FaultSpec::new(1).retry(retry(u64::MAX)),
            FaultSpec::new(1).retry(retry(MAX_SPAN + 1)),
        ] {
            assert!(
                matches!(
                    FaultPlan::generate(&spec, 8, 3),
                    Err(FaultError::BadSpec(_))
                ),
                "{spec:?} was accepted"
            );
        }
        let widest = FaultSpec::new(1)
            .count(64)
            .horizon(MAX_SPAN)
            .mean_outage(MAX_SPAN)
            .retry(retry(MAX_SPAN));
        let plan = FaultPlan::generate(&widest, 8, 3).unwrap();
        assert_eq!(plan.len(), 64);
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let r = RetryPolicy {
            max_retries: 3,
            backoff_base: 8,
        };
        assert_eq!(r.backoff_cycles(0), 8);
        assert_eq!(r.backoff_cycles(1), 16);
        assert_eq!(r.backoff_cycles(2), 32);
        assert!(r.backoff_cycles(200) >= r.backoff_cycles(32));
    }

    #[test]
    fn backoff_clamps_at_the_cap_for_huge_attempts() {
        let r = RetryPolicy {
            max_retries: 32,
            backoff_base: 8,
        };
        let cap = r.backoff_cycles(RetryPolicy::BACKOFF_SHIFT_CAP);
        assert_eq!(cap, 8u64 << 32);
        // Attempt ≥ 64 would be a shift-overflow panic without the clamp.
        assert_eq!(r.backoff_cycles(64), cap);
        assert_eq!(r.backoff_cycles(200), cap);
        assert_eq!(r.backoff_cycles(u32::MAX), cap);
        // A saturating base cannot overflow the multiply either.
        let huge = RetryPolicy {
            max_retries: 1,
            backoff_base: u64::MAX,
        };
        assert_eq!(huge.backoff_cycles(64), u64::MAX);
        assert_eq!(huge.backoff_cycles(0), u64::MAX);
    }
}
