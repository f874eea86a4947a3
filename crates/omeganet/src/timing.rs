//! Optional latency model with per-link contention.
//!
//! The paper evaluates communication *cost* (bits × links) only; latency is
//! implementation dependent. For the latency extension experiments we add a
//! simple store-and-forward model: each hop transmits the message over the
//! link at a fixed link bandwidth, waits out any earlier transmission still
//! holding the link, then pays a fixed switch traversal latency. This is
//! enough to expose the contention differences between the multicast
//! schemes (scheme 1 loads shared early links n times; scheme 2 once).

use tmc_simcore::SimTime;

use crate::destset::DestSet;
use crate::error::NetError;
use crate::multicast::SchemeChoice;
use crate::topology::{LinkId, Omega, PortId};

/// Link/switch timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingModel {
    /// Cycles to traverse one switch (added after every non-final hop).
    pub switch_latency: u64,
    /// Link bandwidth in bits per cycle.
    pub bits_per_cycle: u64,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            switch_latency: 1,
            bits_per_cycle: 16,
        }
    }
}

impl TimingModel {
    /// Cycles to clock `bits` onto a link (at least one).
    pub fn xmit_cycles(&self, bits: u64) -> u64 {
        bits.div_ceil(self.bits_per_cycle).max(1)
    }
}

/// Tracks when each physical link next becomes free.
///
/// # Example
///
/// ```
/// use tmc_omeganet::{LinkSchedule, Omega, TimingModel};
/// use tmc_simcore::SimTime;
///
/// let net = Omega::new(3)?;
/// let model = TimingModel::default();
/// let mut sched = LinkSchedule::new(&net);
/// let first = sched.timed_unicast(&net, model, 0, 5, 64, SimTime::ZERO);
/// // A second identical message contends on the same links and lands later.
/// let second = sched.timed_unicast(&net, model, 0, 5, 64, SimTime::ZERO);
/// assert!(second > first);
/// # Ok::<(), tmc_omeganet::NetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LinkSchedule {
    next_free: Vec<Vec<SimTime>>,
}

impl LinkSchedule {
    /// Creates an all-idle schedule shaped for `net`.
    pub fn new(net: &Omega) -> Self {
        LinkSchedule {
            next_free: vec![vec![SimTime::ZERO; net.ports()]; net.link_layers() as usize],
        }
    }

    fn occupy(&mut self, link: LinkId, ready: SimTime, xmit: u64) -> SimTime {
        let slot = &mut self.next_free[link.layer as usize][link.line];
        let start = ready.max(*slot);
        let done = start + xmit;
        *slot = done;
        done
    }

    /// Sends one `bits`-bit message from `src` to `dst` departing at
    /// `depart`; returns its arrival time. Header (routing-tag) bits are
    /// charged per the scheme-1 per-layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn timed_unicast(
        &mut self,
        net: &Omega,
        model: TimingModel,
        src: PortId,
        dst: PortId,
        bits: u64,
        depart: SimTime,
    ) -> SimTime {
        let m = net.stages();
        let mut t = depart;
        for link in net.route(src, dst) {
            let size = bits + (m - link.layer) as u64;
            let done = self.occupy(link, t, model.xmit_cycles(size));
            t = if link.layer == m {
                done
            } else {
                done + model.switch_latency
            };
        }
        t
    }

    /// Multicasts with `scheme` and returns per-destination arrival times
    /// (ascending destination order).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyDestSet`] / [`NetError::SizeMismatch`] /
    /// [`NetError::PortOutOfRange`] as appropriate.
    #[allow(clippy::too_many_arguments)] // mirrors the untimed multicast API plus time
    pub fn timed_multicast(
        &mut self,
        net: &Omega,
        model: TimingModel,
        scheme: SchemeChoice,
        src: PortId,
        dests: &DestSet,
        bits: u64,
        depart: SimTime,
    ) -> Result<Vec<(PortId, SimTime)>, NetError> {
        net.check_port(src)?;
        dests.check_net(net)?;
        if dests.is_empty() {
            return Err(NetError::EmptyDestSet);
        }
        let m = net.stages();
        let mut arrivals: Vec<(PortId, SimTime)> = match scheme {
            SchemeChoice::Replicated => dests
                .iter()
                .map(|d| (d, self.timed_unicast(net, model, src, d, bits, depart)))
                .collect(),
            SchemeChoice::BitVector => {
                let n_ports = net.ports() as u64;
                let mut out = Vec::with_capacity(dests.len());
                let link0 = LinkId {
                    layer: 0,
                    line: src,
                };
                let t0 = self.occupy(link0, depart, model.xmit_cycles(bits + n_ports))
                    + model.switch_latency;
                let all: Vec<PortId> = dests.iter().collect();
                let mut work = vec![(0u32, src, all, t0)];
                while let Some((stage, line, subset, t)) = work.pop() {
                    let sw = net.shuffle(line) >> 1;
                    let (zeros, ones): (Vec<PortId>, Vec<PortId>) = subset
                        .into_iter()
                        .partition(|&d| net.routing_bit(d, stage) == 0);
                    for (bit, group) in [(0usize, zeros), (1usize, ones)] {
                        if group.is_empty() {
                            continue;
                        }
                        let out_line = (sw << 1) | bit;
                        let layer = stage + 1;
                        let size = bits + (n_ports >> layer);
                        let done = self.occupy(
                            LinkId {
                                layer,
                                line: out_line,
                            },
                            t,
                            model.xmit_cycles(size),
                        );
                        if layer == m {
                            out.push((out_line, done));
                        } else {
                            work.push((stage + 1, out_line, group, done + model.switch_latency));
                        }
                    }
                }
                out
            }
            SchemeChoice::BroadcastTag => {
                let (anchor, free_mask) = match dests.subcube_spec() {
                    Some(spec) => spec,
                    None => {
                        let (anchor, l) = dests
                            .enclosing_low_subcube()
                            .expect("dests verified nonempty");
                        (anchor, (1usize << l) - 1)
                    }
                };
                let mut out = Vec::new();
                let link0 = LinkId {
                    layer: 0,
                    line: src,
                };
                let t0 = self.occupy(link0, depart, model.xmit_cycles(bits + 2 * m as u64))
                    + model.switch_latency;
                let mut work = vec![(0u32, src, t0)];
                while let Some((stage, line, t)) = work.pop() {
                    let sw = net.shuffle(line) >> 1;
                    let bit_pos = m - 1 - stage;
                    let broadcast = free_mask >> bit_pos & 1 == 1;
                    let wanted: &[usize] = if broadcast {
                        &[0, 1]
                    } else if anchor >> bit_pos & 1 == 1 {
                        &[1]
                    } else {
                        &[0]
                    };
                    for &bit in wanted {
                        let out_line = (sw << 1) | bit;
                        let layer = stage + 1;
                        let size = bits + 2 * (m - layer) as u64;
                        let done = self.occupy(
                            LinkId {
                                layer,
                                line: out_line,
                            },
                            t,
                            model.xmit_cycles(size),
                        );
                        if layer == m {
                            out.push((out_line, done));
                        } else {
                            work.push((stage + 1, out_line, done + model.switch_latency));
                        }
                    }
                }
                out
            }
        };
        arrivals.sort_unstable();
        Ok(arrivals)
    }

    /// Forgets all occupancy (all links idle at time zero).
    pub fn reset(&mut self) {
        for row in &mut self.next_free {
            row.fill(SimTime::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_unicast_latency_is_path_time() {
        let net = Omega::new(3).unwrap();
        let model = TimingModel {
            switch_latency: 2,
            bits_per_cycle: 8,
        };
        let mut s = LinkSchedule::new(&net);
        let arrive = s.timed_unicast(&net, model, 0, 7, 16, SimTime::ZERO);
        // Hop sizes 19, 18, 17, 16 bits -> 3, 3, 3, 2 cycles + 3 switch
        // traversals of 2 cycles.
        assert_eq!(arrive, SimTime::new(3 + 2 + 3 + 2 + 3 + 2 + 2));
    }

    #[test]
    fn contention_serializes_shared_links() {
        let net = Omega::new(3).unwrap();
        let model = TimingModel::default();
        let mut s = LinkSchedule::new(&net);
        let a = s.timed_unicast(&net, model, 2, 6, 64, SimTime::ZERO);
        let b = s.timed_unicast(&net, model, 2, 6, 64, SimTime::ZERO);
        let mut fresh = LinkSchedule::new(&net);
        let solo = fresh.timed_unicast(&net, model, 2, 6, 64, SimTime::ZERO);
        assert_eq!(a, solo);
        assert!(b > a, "second message must queue behind the first");
    }

    #[test]
    fn disjoint_paths_do_not_interact() {
        let net = Omega::new(3).unwrap();
        let model = TimingModel::default();
        let mut s = LinkSchedule::new(&net);
        // 0->0 and 7->7 share no links in an omega network.
        let a = s.timed_unicast(&net, model, 0, 0, 64, SimTime::ZERO);
        let b = s.timed_unicast(&net, model, 7, 7, 64, SimTime::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn multicast_reaches_everyone_once() {
        let net = Omega::new(4).unwrap();
        let model = TimingModel::default();
        let d = DestSet::from_ports(16, [1usize, 6, 11, 12]).unwrap();
        for scheme in [SchemeChoice::Replicated, SchemeChoice::BitVector] {
            let mut s = LinkSchedule::new(&net);
            let arr = s
                .timed_multicast(&net, model, scheme, 3, &d, 32, SimTime::ZERO)
                .unwrap();
            let ports: Vec<_> = arr.iter().map(|&(p, _)| p).collect();
            assert_eq!(ports, vec![1, 6, 11, 12], "{scheme:?}");
        }
        let cube = DestSet::subcube(16, 8, 2).unwrap();
        let mut s = LinkSchedule::new(&net);
        let arr = s
            .timed_multicast(
                &net,
                model,
                SchemeChoice::BroadcastTag,
                3,
                &cube,
                32,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(arr.len(), 4);
    }

    #[test]
    fn bitvector_beats_replication_under_contention() {
        // A wide multicast from one source: scheme 1 re-sends over the
        // shared first link n times, scheme 2 once. The slowest scheme-2
        // delivery must finish no later than the slowest scheme-1 delivery.
        let net = Omega::new(5).unwrap();
        let model = TimingModel::default();
        let d = DestSet::all(32);
        let mut s1 = LinkSchedule::new(&net);
        let slow1 = s1
            .timed_multicast(
                &net,
                model,
                SchemeChoice::Replicated,
                0,
                &d,
                128,
                SimTime::ZERO,
            )
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .max()
            .unwrap();
        let mut s2 = LinkSchedule::new(&net);
        let slow2 = s2
            .timed_multicast(
                &net,
                model,
                SchemeChoice::BitVector,
                0,
                &d,
                128,
                SimTime::ZERO,
            )
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .max()
            .unwrap();
        assert!(slow2 < slow1);
    }

    #[test]
    fn reset_clears_occupancy() {
        let net = Omega::new(3).unwrap();
        let model = TimingModel::default();
        let mut s = LinkSchedule::new(&net);
        let first = s.timed_unicast(&net, model, 1, 4, 64, SimTime::ZERO);
        s.reset();
        let again = s.timed_unicast(&net, model, 1, 4, 64, SimTime::ZERO);
        assert_eq!(first, again);
    }
}
