//! Omega networks of a×a switches — the paper's generalization.
//!
//! §3 of the paper restricts the exposition to 2×2 switches "even if the
//! results can be generalized to other topologies of multistage networks
//! with other switches". This module carries out that generalization for
//! power-of-two switch radices `a = 2^g`: an `N = a^m` network with `m`
//! stages of `N/a` switches, destination-tag routing consuming one base-`a`
//! digit (`g` bits) per stage, and the scheme-1/scheme-2 multicasts. (Wen's
//! scheme 3 is defined in terms of 2×2 broadcast bits; it stays on
//! [`crate::Omega`].)

use crate::destset::DestSet;
use crate::error::NetError;
use crate::multicast::{CastReceipt, SchemeChoice};
use crate::topology::{LinkId, PortId};
use crate::traffic::TrafficMatrix;

/// An `N×N` omega network of `a×a` switches, `a = 2^g`, `N = a^m`.
///
/// # Example
///
/// ```
/// use tmc_omeganet::aary::AryOmega;
///
/// let net = AryOmega::new(3, 2)?; // 4x4 switches, 3 stages: N = 64
/// assert_eq!(net.ports(), 64);
/// assert_eq!(net.stages(), 3);
/// let path = net.route(5, 42);
/// assert_eq!(path.last().unwrap().line, 42);
/// # Ok::<(), tmc_omeganet::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AryOmega {
    /// Number of stages (base-`a` digits of a port number).
    m: u32,
    /// log₂ of the switch radix.
    g: u32,
    n: usize,
}

impl AryOmega {
    /// Creates a network with `m` stages of `2^g × 2^g` switches.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadStageCount`] unless `1 ≤ m`, `1 ≤ g` and
    /// `m·g ≤ 16` (at most 2¹⁶ ports, as for [`crate::Omega`]).
    pub fn new(m: u32, g: u32) -> Result<Self, NetError> {
        if m == 0 || g == 0 || m * g > 16 {
            return Err(NetError::BadStageCount { m: m * g });
        }
        Ok(AryOmega {
            m,
            g,
            n: 1usize << (m * g),
        })
    }

    /// Number of stages `m = log_a N`.
    pub fn stages(&self) -> u32 {
        self.m
    }

    /// Switch radix `a = 2^g`.
    pub fn radix(&self) -> usize {
        1 << self.g
    }

    /// Number of ports `N = a^m`.
    pub fn ports(&self) -> usize {
        self.n
    }

    /// Bits per routing digit, `g = log₂ a`.
    pub fn digit_bits(&self) -> u32 {
        self.g
    }

    /// The perfect a-shuffle: rotate the base-`a` digit string left by one
    /// digit (`g` bits).
    #[inline]
    pub fn shuffle(&self, line: usize) -> usize {
        let total = self.m * self.g;
        ((line << self.g) | (line >> (total - self.g))) & (self.n - 1)
    }

    /// The routing digit used at `stage` for destination `dst` (most
    /// significant digit first).
    #[inline]
    pub fn routing_digit(&self, dst: PortId, stage: u32) -> usize {
        (dst >> (self.g * (self.m - 1 - stage))) & (self.radix() - 1)
    }

    /// The unique path from `src` to `dst` as `m + 1` [`LinkId`]s.
    ///
    /// # Panics
    ///
    /// Panics if either port is out of range.
    pub fn route(&self, src: PortId, dst: PortId) -> Vec<LinkId> {
        assert!(src < self.n && dst < self.n, "port out of range");
        let mut links = Vec::with_capacity(self.m as usize + 1);
        links.push(LinkId {
            layer: 0,
            line: src,
        });
        let mut line = src;
        for stage in 0..self.m {
            line = self.shuffle(line);
            let sw = line >> self.g;
            line = (sw << self.g) | self.routing_digit(dst, stage);
            links.push(LinkId {
                layer: stage + 1,
                line,
            });
        }
        debug_assert_eq!(line, dst);
        links
    }

    /// A traffic matrix shaped for this network.
    pub fn traffic_matrix(&self) -> TrafficMatrix {
        TrafficMatrix::with_shape(self.m as usize + 1, self.n)
    }

    /// Scheme 1 on an a-ary network: one tagged unicast per destination;
    /// the tag at layer `j` holds `m − j` digits of `g` bits.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyDestSet`] / [`NetError::SizeMismatch`] /
    /// [`NetError::PortOutOfRange`] as for the 2×2 network.
    pub fn cast_replicated(
        &self,
        src: PortId,
        dests: &DestSet,
        payload_bits: u64,
        traffic: &mut TrafficMatrix,
    ) -> Result<CastReceipt, NetError> {
        self.validate(src, dests)?;
        let mut cost = 0;
        let mut links = 0;
        let mut delivered = Vec::with_capacity(dests.len());
        for dst in dests.iter() {
            for link in self.route(src, dst) {
                let bits = payload_bits + ((self.m - link.layer) * self.g) as u64;
                traffic.add(link, bits);
                cost += bits;
                links += 1;
            }
            delivered.push(dst);
        }
        debug_assert_eq!(cost, self.cost_replicated(dests.len() as u64, payload_bits));
        Ok(CastReceipt {
            scheme: SchemeChoice::Replicated,
            delivered,
            cost_bits: cost,
            links_crossed: links,
        })
    }

    /// Scheme 2 on an a-ary network: the N-bit vector splits `a` ways at
    /// each switch; the subvector at layer `j` holds `N/a^j` bits.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyDestSet`] / [`NetError::SizeMismatch`] /
    /// [`NetError::PortOutOfRange`] as for the 2×2 network.
    pub fn cast_bitvector(
        &self,
        src: PortId,
        dests: &DestSet,
        payload_bits: u64,
        traffic: &mut TrafficMatrix,
    ) -> Result<CastReceipt, NetError> {
        self.validate(src, dests)?;
        let n_ports = self.n as u64;
        let mut cost = 0u64;
        let mut links = 0usize;
        let mut delivered = Vec::with_capacity(dests.len());

        let bits0 = payload_bits + n_ports;
        traffic.add(
            LinkId {
                layer: 0,
                line: src,
            },
            bits0,
        );
        cost += bits0;
        links += 1;

        let all: Vec<PortId> = dests.iter().collect();
        let mut work: Vec<(u32, usize, Vec<PortId>)> = vec![(0, src, all)];
        while let Some((stage, line, subset)) = work.pop() {
            let sw = self.shuffle(line) >> self.g;
            let mut groups: Vec<Vec<PortId>> = vec![Vec::new(); self.radix()];
            for d in subset {
                groups[self.routing_digit(d, stage)].push(d);
            }
            for (digit, group) in groups.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let out_line = (sw << self.g) | digit;
                let layer = stage + 1;
                let bits = payload_bits + (n_ports >> (self.g * layer));
                traffic.add(
                    LinkId {
                        layer,
                        line: out_line,
                    },
                    bits,
                );
                cost += bits;
                links += 1;
                if layer == self.m {
                    debug_assert_eq!(group, vec![out_line]);
                    delivered.push(out_line);
                } else {
                    work.push((layer, out_line, group));
                }
            }
        }
        delivered.sort_unstable();
        debug_assert_eq!(cost, self.cost_bitvector(dests, payload_bits));
        Ok(CastReceipt {
            scheme: SchemeChoice::BitVector,
            delivered,
            cost_bits: cost,
            links_crossed: links,
        })
    }

    /// Exact scheme-1 cost: `n · Σ_{j=0}^{m} (M + (m−j)·g)`.
    pub fn cost_replicated(&self, n: u64, payload: u64) -> u64 {
        let m = self.m as u64;
        let g = self.g as u64;
        n * ((m + 1) * payload + g * m * (m + 1) / 2)
    }

    /// Exact scheme-2 cost for a destination set (source independent).
    pub fn cost_bitvector(&self, dests: &DestSet, payload: u64) -> u64 {
        let n_ports = self.n as u64;
        let mut cost = payload + n_ports;
        let mut prefixes: Vec<usize> = dests.iter().collect();
        for j in (1..=self.m).rev() {
            let shift = self.g * (self.m - j);
            prefixes.dedup_by_key(|d| *d >> shift);
            cost += prefixes.len() as u64 * (payload + (n_ports >> (self.g * j)));
        }
        cost
    }

    fn validate(&self, src: PortId, dests: &DestSet) -> Result<(), NetError> {
        if src >= self.n {
            return Err(NetError::PortOutOfRange {
                port: src,
                n_ports: self.n,
            });
        }
        if dests.n_ports() != self.n {
            return Err(NetError::SizeMismatch {
                set_ports: dests.n_ports(),
                net_ports: self.n,
            });
        }
        if dests.is_empty() {
            return Err(NetError::EmptyDestSet);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Omega;

    #[test]
    fn radix_2_matches_the_binary_network() {
        let ary = AryOmega::new(4, 1).unwrap();
        let bin = Omega::new(4).unwrap();
        assert_eq!(ary.ports(), bin.ports());
        for src in 0..16 {
            for dst in 0..16 {
                assert_eq!(ary.route(src, dst), bin.route(src, dst));
            }
        }
        let dests = DestSet::from_ports(16, [1usize, 7, 9, 14]).unwrap();
        let mut ta = ary.traffic_matrix();
        let mut tb = TrafficMatrix::new(&bin);
        let ra = ary.cast_bitvector(3, &dests, 20, &mut ta).unwrap();
        let rb = bin
            .multicast(
                crate::multicast::SchemeKind::BitVector,
                3,
                &dests,
                20,
                &mut tb,
            )
            .unwrap();
        assert_eq!(ra, rb);
        assert_eq!(ta, tb);
        let ra = {
            let mut t = ary.traffic_matrix();
            ary.cast_replicated(3, &dests, 20, &mut t).unwrap()
        };
        let rb = {
            let mut t = TrafficMatrix::new(&bin);
            bin.multicast(
                crate::multicast::SchemeKind::Replicated,
                3,
                &dests,
                20,
                &mut t,
            )
            .unwrap()
        };
        assert_eq!(ra, rb);
    }

    #[test]
    fn routes_land_for_all_radices() {
        for (m, g) in [(2u32, 2u32), (3, 2), (2, 3), (4, 2), (2, 4)] {
            let net = AryOmega::new(m, g).unwrap();
            for src in (0..net.ports()).step_by(7) {
                for dst in (0..net.ports()).step_by(5) {
                    let path = net.route(src, dst);
                    assert_eq!(path.len() as u32, m + 1);
                    assert_eq!(path[0].line, src);
                    assert_eq!(path.last().unwrap().line, dst);
                }
            }
        }
    }

    #[test]
    fn bitvector_delivers_exact_set_any_radix() {
        let net = AryOmega::new(3, 2).unwrap(); // N = 64, 4x4 switches
        let dests = DestSet::from_ports(64, [0usize, 17, 18, 40, 63]).unwrap();
        let mut t = net.traffic_matrix();
        let r = net.cast_bitvector(9, &dests, 20, &mut t).unwrap();
        assert_eq!(r.delivered, vec![0, 17, 18, 40, 63]);
        assert_eq!(r.cost_bits, t.total_bits());
    }

    #[test]
    fn higher_radix_shortens_paths_and_cheapens_unicasts() {
        // N = 256 as 8 stages of 2x2 or 4 stages of 4x4 or 2 stages of
        // 16x16: fewer stages means fewer link crossings per message.
        let dests = DestSet::from_ports(256, [200usize]).unwrap();
        let mut costs = Vec::new();
        for (m, g) in [(8u32, 1u32), (4, 2), (2, 4)] {
            let net = AryOmega::new(m, g).unwrap();
            assert_eq!(net.ports(), 256);
            let mut t = net.traffic_matrix();
            let r = net.cast_replicated(3, &dests, 100, &mut t).unwrap();
            costs.push(r.cost_bits);
        }
        assert!(costs[0] > costs[1] && costs[1] > costs[2], "{costs:?}");
    }

    #[test]
    fn wide_multicast_vector_costs_drop_with_radix() {
        // The full-broadcast bit-vector cost also falls with radix: fewer
        // layers each carrying the (same-sized) subvectors.
        let all = DestSet::all(256);
        let mut costs = Vec::new();
        for (m, g) in [(8u32, 1u32), (4, 2)] {
            let net = AryOmega::new(m, g).unwrap();
            costs.push(net.cost_bitvector(&all, 20));
        }
        assert!(costs[1] < costs[0], "{costs:?}");
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(AryOmega::new(0, 2).is_err());
        assert!(AryOmega::new(3, 0).is_err());
        assert!(AryOmega::new(9, 2).is_err()); // 2^18 ports
        let net = AryOmega::new(2, 2).unwrap();
        let foreign = DestSet::all(8);
        let mut t = net.traffic_matrix();
        assert!(matches!(
            net.cast_bitvector(0, &foreign, 20, &mut t),
            Err(NetError::SizeMismatch { .. })
        ));
        assert!(matches!(
            net.cast_replicated(99, &DestSet::all(16), 20, &mut t),
            Err(NetError::PortOutOfRange { .. })
        ));
    }
}
