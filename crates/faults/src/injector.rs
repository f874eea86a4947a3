//! The runtime side of a fault plan: which outages are active *now*,
//! which message faults are pending, and when things heal.

use std::collections::VecDeque;

use tmc_omeganet::LinkId;

use crate::plan::{FaultKind, FaultPlan, RetryPolicy, ScheduledFault};

/// A transient per-message fault, consumed by the engine's send path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFault {
    /// The message is lost; the sender retransmits (route billed twice).
    Drop,
    /// The message is duplicated in flight (route billed twice).
    Duplicate,
    /// The message is delayed by this many cycles. The engine keeps no
    /// simulated time: it counts the delay and changes nothing else.
    Delay(u64),
}

/// Advances through a [`FaultPlan`] in simulated op order, tracking active
/// link outages, cache stalls and pending message faults.
///
/// The engine calls [`FaultInjector::advance`] once per public transaction;
/// everything the injector reports is a pure function of the plan and the
/// op sequence, so runs are reproducible bit for bit.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
    op: u64,
    down_links: Vec<(LinkId, u64)>,
    stalled: Vec<(usize, u64)>,
    pending_msgs: VecDeque<MsgFault>,
    injected: u64,
}

impl FaultInjector {
    /// Wraps a generated plan, positioned before op 1.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            cursor: 0,
            op: 0,
            down_links: Vec::new(),
            stalled: Vec::new(),
            pending_msgs: VecDeque::new(),
            injected: 0,
        }
    }

    /// Moves simulated time forward to `op` (monotone): expires outages
    /// whose heal op has passed, activates every scheduled fault with
    /// `at <= op`, and returns the newly fired faults so the engine can
    /// count and trace them.
    pub fn advance(&mut self, op: u64) -> Vec<ScheduledFault> {
        debug_assert!(op >= self.op, "ops must advance monotonically");
        self.op = op;
        if !self.down_links.is_empty() {
            self.down_links.retain(|&(_, heal)| heal > op);
        }
        if !self.stalled.is_empty() {
            self.stalled.retain(|&(_, heal)| heal > op);
        }
        let mut fired = Vec::new();
        while let Some(&f) = self.plan.faults().get(self.cursor) {
            if f.at > op {
                break;
            }
            self.cursor += 1;
            self.injected += 1;
            match f.kind {
                FaultKind::LinkDown { link, heal_at } => {
                    if heal_at > op && !self.link_is_down(link) {
                        self.down_links.push((link, heal_at));
                    }
                }
                FaultKind::CacheStall { cache, heal_at } => {
                    if heal_at > op && !self.cache_stalled(cache) {
                        self.stalled.push((cache, heal_at));
                    }
                }
                FaultKind::MsgDrop => self.pending_msgs.push_back(MsgFault::Drop),
                FaultKind::MsgDup => self.pending_msgs.push_back(MsgFault::Duplicate),
                FaultKind::MsgDelay { cycles } => {
                    self.pending_msgs.push_back(MsgFault::Delay(cycles))
                }
                // Bit flips and handoff NAKs carry no injector-side state;
                // the engine acts on the returned schedule entry.
                FaultKind::BitFlip { .. } | FaultKind::HandoffNak { .. } => {}
            }
            fired.push(f);
        }
        fired
    }

    /// Whether `link` is currently out of service.
    pub fn link_is_down(&self, link: LinkId) -> bool {
        self.down_links.iter().any(|&(l, _)| l == link)
    }

    /// Whether any link is currently out of service (cheap gate for the
    /// engine's multicast NACK scan).
    pub fn any_link_down(&self) -> bool {
        !self.down_links.is_empty()
    }

    /// The op at which `link` heals, if it is currently down.
    pub fn link_heal_at(&self, link: LinkId) -> Option<u64> {
        self.down_links
            .iter()
            .find(|&&(l, _)| l == link)
            .map(|&(_, heal)| heal)
    }

    /// Whether `cache` is currently stalled.
    pub fn cache_stalled(&self, cache: usize) -> bool {
        self.stalled.iter().any(|&(c, _)| c == cache)
    }

    /// Pops the next pending per-message fault, if any. The engine applies
    /// it to the next protocol message it sends.
    pub fn take_msg_fault(&mut self) -> Option<MsgFault> {
        self.pending_msgs.pop_front()
    }

    /// Whether any per-message fault is waiting to be applied.
    pub fn has_pending_msg_faults(&self) -> bool {
        !self.pending_msgs.is_empty()
    }

    /// True when nothing is active or pending — the engine's license to
    /// skip all fault handling for this op (future scheduled faults are
    /// still picked up by the next [`FaultInjector::advance`]).
    pub fn is_idle(&self) -> bool {
        self.down_links.is_empty() && self.stalled.is_empty() && self.pending_msgs.is_empty()
    }

    /// Faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total faults in the plan.
    pub fn plan_len(&self) -> usize {
        self.plan.len()
    }

    /// The plan's retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.plan.retry()
    }

    /// Captures the injector's dynamic state for a checkpoint. The plan
    /// itself is *not* part of the state: it is a pure function of the
    /// `FaultSpec`, so a resuming process regenerates it and re-attaches
    /// via [`FaultInjector::restore`].
    pub fn state(&self) -> InjectorState {
        InjectorState {
            cursor: self.cursor,
            op: self.op,
            down_links: self.down_links.clone(),
            stalled: self.stalled.clone(),
            pending_msgs: self.pending_msgs.iter().copied().collect(),
            injected: self.injected,
        }
    }

    /// Rebuilds an injector mid-flight from a regenerated `plan` and the
    /// dynamic `state` captured by [`FaultInjector::state`].
    ///
    /// Returns `None` (instead of panicking) when the state is inconsistent
    /// with the plan — a cursor past the schedule end, which can only come
    /// from a corrupted or mismatched checkpoint.
    pub fn restore(plan: FaultPlan, state: InjectorState) -> Option<Self> {
        if state.cursor > plan.len() {
            return None;
        }
        Some(FaultInjector {
            plan,
            cursor: state.cursor,
            op: state.op,
            down_links: state.down_links,
            stalled: state.stalled,
            pending_msgs: state.pending_msgs.into_iter().collect(),
            injected: state.injected,
        })
    }
}

/// The dynamic half of a [`FaultInjector`], as captured by
/// [`FaultInjector::state`] — everything a checkpoint must persist beyond
/// the (regenerable) plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectorState {
    /// Index of the next scheduled fault to fire.
    pub cursor: usize,
    /// Last op passed to [`FaultInjector::advance`].
    pub op: u64,
    /// Active link outages as `(link, heal_at)`.
    pub down_links: Vec<(LinkId, u64)>,
    /// Active cache stalls as `(cache, heal_at)`.
    pub stalled: Vec<(usize, u64)>,
    /// Per-message faults not yet consumed, in queue order.
    pub pending_msgs: Vec<MsgFault>,
    /// Faults fired so far.
    pub injected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;

    #[test]
    fn outages_activate_and_heal_on_schedule() {
        let mut inj = FaultInjector::new(FaultPlan::empty());
        assert!(inj.is_idle());
        assert!(inj.advance(1).is_empty());

        // Hand-build a plan through the generator for a seed that is known
        // to include every kind (count is large enough to cover all 7).
        let spec = FaultSpec::new(3).count(64).horizon(64).mean_outage(4);
        let plan = FaultPlan::generate(&spec, 8, 3).unwrap();
        let mut inj = FaultInjector::new(plan.clone());
        let mut fired_total = 0;
        for op in 1..=200 {
            let fired = inj.advance(op);
            fired_total += fired.len();
            for f in &fired {
                if let FaultKind::LinkDown { link, heal_at } = f.kind {
                    if heal_at > op {
                        assert!(inj.link_is_down(link));
                        assert_eq!(inj.link_heal_at(link), Some(heal_at));
                    }
                }
            }
        }
        assert_eq!(fired_total, plan.len());
        assert_eq!(inj.injected(), plan.len() as u64);
        // Every outage in the plan healed within the horizon + 2*outage.
        assert!(!inj.any_link_down());
        assert!(inj.is_idle() || inj.has_pending_msg_faults());
    }

    #[test]
    fn advance_is_deterministic() {
        let spec = FaultSpec::new(11).count(32).horizon(100);
        let run = || {
            let plan = FaultPlan::generate(&spec, 16, 4).unwrap();
            let mut inj = FaultInjector::new(plan);
            let mut log = Vec::new();
            for op in 1..=150 {
                log.push(inj.advance(op));
                while let Some(f) = inj.take_msg_fault() {
                    log.push(vec![]);
                    let _ = f;
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn state_roundtrip_resumes_mid_plan() {
        let spec = FaultSpec::new(21).count(48).horizon(100).mean_outage(16);
        let plan = FaultPlan::generate(&spec, 8, 3).unwrap();
        let mut live = FaultInjector::new(plan.clone());
        for op in 1..=40 {
            live.advance(op);
        }
        let state = live.state();
        let mut resumed = FaultInjector::restore(plan.clone(), state).unwrap();
        for op in 41..=200 {
            assert_eq!(live.advance(op), resumed.advance(op));
            loop {
                let (a, b) = (live.take_msg_fault(), resumed.take_msg_fault());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
        assert_eq!(live.injected(), resumed.injected());
        assert_eq!(live.state(), resumed.state());
        // A cursor past the schedule end is rejected, not trusted.
        let mut bad = live.state();
        bad.cursor = plan.len() + 1;
        assert!(FaultInjector::restore(plan, bad).is_none());
    }

    #[test]
    fn msg_faults_queue_in_order() {
        let spec = FaultSpec::new(5).count(40).horizon(10);
        let plan = FaultPlan::generate(&spec, 8, 3).unwrap();
        let mut inj = FaultInjector::new(plan);
        inj.advance(10);
        let mut drained = 0;
        while inj.take_msg_fault().is_some() {
            drained += 1;
        }
        assert!(drained > 0, "40 faults over 10 ops must include msg faults");
        assert!(!inj.has_pending_msg_faults());
    }
}
