//! The paper's three multicast schemes, plus the combined scheme (eq. 8).
//!
//! All three schemes are implemented twice over:
//!
//! * a *traversal* ([`Omega::multicast_into`]) that walks the switch tree
//!   exactly as hardware would, charging every crossed link in a
//!   [`TrafficMatrix`] as it goes and writing who received the message into
//!   a caller-owned buffer. There is one traversal per scheme; it keeps its
//!   pending switches on a fixed-size stack (one per stage, `m ≤ 16`) and
//!   allocates nothing, so a cast's host cost is `O(links it crosses)` —
//!   the paper's own cost argument (eqs. 2–8) — never `O(N·log N)`.
//!   [`Omega::multicast`] is the same walk wrapped into a [`CastReceipt`].
//! * an exact *cost function* ([`Omega::multicast_cost`]) that computes the
//!   same total in `O(n·m)` without touching a matrix — used by the combined
//!   scheme to pick the cheapest option per cast, which is precisely the
//!   selection the paper proposes in §5 ("hardware mechanisms could then use
//!   the contents of these registers … to determine which of the schemes to
//!   use").
//!
//! A unicast is scheme 1 with one destination. [`Omega::charge_unicast`]
//! bills it straight off the routing digits and returns the cost; there is
//! no receipt, because the one receiver is the destination.
//!
//! Scheme semantics (§3):
//!
//! 1. **Replicated unicasts** (scheme 1): one destination-tag-routed message
//!    per destination; at layer `j` a message carries `M + (m − j)` bits.
//! 2. **Bit-vector routing** (scheme 2, the paper's novel scheme): the
//!    N-bit present vector is the routing tag; each switch splits the vector
//!    and forwards halves only where a destination bit is set. At layer `j`
//!    a message carries `M + N/2^j` bits.
//! 3. **Broadcast-tag routing** (scheme 3, Wen 1976): a `2m`-bit tag
//!    `b₀…b_{m−1} d₀…d_{m−1}`; `bᵢ = 1` broadcasts at stage `i`. Only
//!    destination sets forming a subcube are addressable; at layer `j` a
//!    message carries `M + 2(m − j)` bits.

use crate::destset::DestSet;
use crate::error::NetError;
use crate::topology::{LinkId, Omega, PortId};
use crate::traffic::TrafficMatrix;

/// Which multicast scheme to use for a cast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Scheme 1: one routed unicast per destination.
    Replicated,
    /// Scheme 2: present-flag bit-vector routing.
    BitVector,
    /// Scheme 3: broadcast-tag routing (destinations are widened to the
    /// enclosing low-bit subcube when they do not already form one).
    BroadcastTag,
    /// Scheme 4 (eq. 8): evaluate all three and use the cheapest.
    Combined,
}

/// The concrete scheme a cast actually used (resolves [`SchemeKind::Combined`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeChoice {
    /// Scheme 1 ran.
    Replicated,
    /// Scheme 2 ran.
    BitVector,
    /// Scheme 3 ran.
    BroadcastTag,
}

/// Outcome of one multicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CastReceipt {
    /// The scheme that was actually used.
    pub scheme: SchemeChoice,
    /// Ports that received the payload, ascending. For scheme 3 on a
    /// non-subcube destination set this is a strict superset of the request
    /// (the enclosing subcube); receivers without a matching cache line
    /// simply ignore the message.
    pub delivered: Vec<PortId>,
    /// Total bits charged across all links — the cast's contribution to CC.
    pub cost_bits: u64,
    /// Number of link traversals (messages × hops).
    pub links_crossed: usize,
}

impl Omega {
    /// Bills a `src`→`dst` unicast of `payload_bits` into `traffic` and
    /// returns its total cost. This is scheme 1 with one destination, and
    /// every unicast of every engine is billed here: per-stage link charges
    /// are computed straight from the routing digits (`payload + (m −
    /// layer)` tag bits at layer `layer`), and no link list or receipt is
    /// ever materialized.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PortOutOfRange`] for invalid ports.
    #[inline]
    pub fn charge_unicast(
        &self,
        src: PortId,
        dst: PortId,
        payload_bits: u64,
        traffic: &mut TrafficMatrix,
    ) -> Result<u64, NetError> {
        self.check_port(src)?;
        self.check_port(dst)?;
        let m = self.stages() as u64;
        let mut cost = 0;
        for link in self.route_iter(src, dst) {
            let bits = payload_bits + (m - link.layer as u64);
            traffic.add(link, bits);
            cost += bits;
        }
        Ok(cost)
    }

    /// Total cost of a unicast without billing any link: destination-tag
    /// routes always cross `m + 1` layers, so the cost is closed-form and
    /// destination-independent — `(m+1)·payload + m(m+1)/2`.
    #[inline]
    pub fn unicast_cost(&self, payload_bits: u64) -> u64 {
        self.cost_replicated(1, payload_bits)
    }

    /// The first out-of-service link (per `is_down`) on the unique route
    /// from `src` to `dst`, or `None` when the whole path is up. The network
    /// bills routes, not outcomes: a caller modelling outages asks this
    /// before or after [`Omega::charge_unicast`] and decides itself whether
    /// a blocked message is retried, queued or dropped.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PortOutOfRange`] for invalid ports.
    pub fn first_down_link(
        &self,
        src: PortId,
        dst: PortId,
        is_down: impl Fn(LinkId) -> bool,
    ) -> Result<Option<LinkId>, NetError> {
        self.check_port(src)?;
        self.check_port(dst)?;
        Ok(self.route_iter(src, dst).find(|&l| is_down(l)))
    }

    /// Charges the prefix of the `src`→`dst` route strictly below
    /// `stop_layer` — the links a probe message crosses before running into
    /// a dead link at `stop_layer` — and returns the bits billed. Used by
    /// retry/timeout modeling: each failed attempt still occupies the live
    /// upstream links.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PortOutOfRange`] for invalid ports.
    pub fn unicast_prefix(
        &self,
        src: PortId,
        dst: PortId,
        payload_bits: u64,
        stop_layer: u32,
        traffic: &mut TrafficMatrix,
    ) -> Result<u64, NetError> {
        self.check_port(src)?;
        self.check_port(dst)?;
        let m = self.stages() as u64;
        let mut cost = 0;
        for link in self.route_iter(src, dst) {
            if link.layer >= stop_layer {
                break;
            }
            let bits = payload_bits + (m - link.layer as u64);
            traffic.add(link, bits);
            cost += bits;
        }
        Ok(cost)
    }

    /// Multicasts `payload_bits` from `src` to `dests` using `kind`,
    /// charging every crossed link in `traffic`. This is
    /// [`Omega::multicast_into`] with a freshly allocated receipt; callers
    /// that cast repeatedly keep a delivered buffer and call that instead.
    ///
    /// # Errors
    ///
    /// * [`NetError::EmptyDestSet`] if `dests` is empty,
    /// * [`NetError::SizeMismatch`] if `dests` was built for another size,
    /// * [`NetError::PortOutOfRange`] if `src` is invalid.
    pub fn multicast(
        &self,
        kind: SchemeKind,
        src: PortId,
        dests: &DestSet,
        payload_bits: u64,
        traffic: &mut TrafficMatrix,
    ) -> Result<CastReceipt, NetError> {
        let mut delivered = Vec::new();
        let mut bill = Bill::new(traffic, None);
        let scheme = self.walk(kind, src, dests, payload_bits, &mut bill, &mut delivered)?;
        Ok(CastReceipt {
            scheme,
            delivered,
            cost_bits: bill.cost,
            links_crossed: bill.links,
        })
    }

    /// The traversal behind [`Omega::multicast`], into caller-owned
    /// buffers: every crossed link is charged to `traffic` as the walk
    /// reaches it, the receiving ports are written to `delivered` (cleared
    /// first; ascending) and the resolved scheme and total cost come back by
    /// value. Nothing is allocated beyond what `delivered` and `record` need
    /// to grow.
    ///
    /// When `record` is supplied the cast's nonzero per-link charges are
    /// appended to it in `(layer, line)` order, one entry per link: scheme 1
    /// crosses the source link once per destination, and those charges come
    /// back merged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Omega::multicast`]. On error nothing is charged,
    /// `delivered` is left empty and `record` untouched.
    #[allow(clippy::too_many_arguments)]
    pub fn multicast_into(
        &self,
        kind: SchemeKind,
        src: PortId,
        dests: &DestSet,
        payload_bits: u64,
        traffic: &mut TrafficMatrix,
        delivered: &mut Vec<PortId>,
        record: Option<&mut Vec<(LinkId, u64)>>,
    ) -> Result<(SchemeChoice, u64), NetError> {
        let mut bill = Bill::new(traffic, record);
        let scheme = self.walk(kind, src, dests, payload_bits, &mut bill, delivered)?;
        bill.settle();
        Ok((scheme, bill.cost))
    }

    /// Validates the cast, resolves [`SchemeKind::Combined`] and runs the
    /// one traversal of the chosen scheme.
    fn walk(
        &self,
        kind: SchemeKind,
        src: PortId,
        dests: &DestSet,
        payload: u64,
        bill: &mut Bill<'_>,
        delivered: &mut Vec<PortId>,
    ) -> Result<SchemeChoice, NetError> {
        delivered.clear();
        self.check_port(src)?;
        dests.check_net(self)?;
        if dests.is_empty() {
            return Err(NetError::EmptyDestSet);
        }
        let scheme = match kind {
            SchemeKind::Replicated => SchemeChoice::Replicated,
            SchemeKind::BitVector => SchemeChoice::BitVector,
            SchemeKind::BroadcastTag => SchemeChoice::BroadcastTag,
            SchemeKind::Combined => self.cheapest_scheme(dests, payload),
        };
        match scheme {
            SchemeChoice::Replicated => self.cast_replicated(src, dests, payload, bill, delivered),
            SchemeChoice::BitVector => self.cast_bitvector(src, dests, payload, bill, delivered),
            SchemeChoice::BroadcastTag => {
                self.cast_broadcast_tag(src, dests, payload, bill, delivered)
            }
        }
        debug_assert!(delivered.is_sorted(), "delivery order is ascending");
        Ok(scheme)
    }

    /// Exact communication cost of casting `payload_bits` to `dests` with
    /// `kind`, without performing the cast. Source-independent: the cost of
    /// every scheme depends only on the destination structure.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Omega::multicast`].
    pub fn multicast_cost(
        &self,
        kind: SchemeKind,
        dests: &DestSet,
        payload_bits: u64,
    ) -> Result<u64, NetError> {
        dests.check_net(self)?;
        if dests.is_empty() {
            return Err(NetError::EmptyDestSet);
        }
        Ok(match kind {
            SchemeKind::Replicated => self.cost_replicated(dests.len() as u64, payload_bits),
            SchemeKind::BitVector => self.cost_bitvector(dests, payload_bits),
            SchemeKind::BroadcastTag => self.cost_broadcast_tag(dests, payload_bits),
            SchemeKind::Combined => {
                let choice = self.cheapest_scheme(dests, payload_bits);
                let concrete = match choice {
                    SchemeChoice::Replicated => SchemeKind::Replicated,
                    SchemeChoice::BitVector => SchemeKind::BitVector,
                    SchemeChoice::BroadcastTag => SchemeKind::BroadcastTag,
                };
                self.multicast_cost(concrete, dests, payload_bits)?
            }
        })
    }

    /// The cheapest concrete scheme for this destination set and payload —
    /// the selection rule of the combined scheme (eq. 8), using exact costs.
    pub fn cheapest_scheme(&self, dests: &DestSet, payload_bits: u64) -> SchemeChoice {
        let c1 = self.cost_replicated(dests.len() as u64, payload_bits);
        let c2 = self.cost_bitvector(dests, payload_bits);
        let c3 = self.cost_broadcast_tag(dests, payload_bits);
        // Ties break toward the simpler scheme, matching the paper's
        // preference order in Tables 3 and 4 (1 before 2 before 3).
        if c1 <= c2 && c1 <= c3 {
            SchemeChoice::Replicated
        } else if c2 <= c3 {
            SchemeChoice::BitVector
        } else {
            SchemeChoice::BroadcastTag
        }
    }

    // ------------------------------------------------------------------
    // Exact cost functions.
    // ------------------------------------------------------------------

    fn cost_replicated(&self, n: u64, payload: u64) -> u64 {
        let m = self.stages() as u64;
        // n · Σ_{j=0}^{m} (payload + m − j)
        n * ((m + 1) * payload + m * (m + 1) / 2)
    }

    fn cost_bitvector(&self, dests: &DestSet, payload: u64) -> u64 {
        let m = self.stages();
        let n_ports = self.ports() as u64;
        // Layer 0: one message with the full N-bit vector.
        let mut cost = payload + n_ports;
        // Layer j ≥ 1: one message per distinct j-bit destination prefix,
        // carrying an N/2^j-bit subvector. One ascending word-wise pass
        // histograms, for each adjacent member pair, the highest bit where
        // they differ; the number of distinct j-bit prefixes is then
        // 1 + (pairs differing at bit m−j or above) — no per-layer dedup
        // pass and no allocation.
        let mut splits = [0u64; 16];
        let mut prev: Option<usize> = None;
        for d in dests.iter() {
            if let Some(p) = prev {
                let top = usize::BITS - 1 - (p ^ d).leading_zeros();
                splits[top as usize] += 1;
            }
            prev = Some(d);
        }
        let mut distinct = 1u64;
        for j in 1..=m {
            distinct += splits[(m - j) as usize];
            cost += distinct * (payload + (n_ports >> j));
        }
        cost
    }

    fn cost_broadcast_tag(&self, dests: &DestSet, payload: u64) -> u64 {
        let m = self.stages();
        let free_mask = match dests.subcube_spec() {
            Some((_, mask)) => mask,
            None => {
                let (_, l) = dests
                    .enclosing_low_subcube()
                    .expect("dests verified nonempty");
                (1usize << l) - 1
            }
        };
        let mut cost = 0u64;
        let mut active = 1u64;
        for j in 0..=m {
            cost += active * (payload + 2 * (m - j) as u64);
            if j < m {
                // Stage j broadcasts when the bit it consumes (m−1−j) is free.
                if free_mask >> (m - 1 - j) & 1 == 1 {
                    active *= 2;
                }
            }
        }
        cost
    }

    // ------------------------------------------------------------------
    // Traversals.
    // ------------------------------------------------------------------

    fn cast_replicated(
        &self,
        src: PortId,
        dests: &DestSet,
        payload: u64,
        bill: &mut Bill<'_>,
        delivered: &mut Vec<PortId>,
    ) {
        let m = self.stages() as u64;
        for dst in dests.iter() {
            for link in self.route_iter(src, dst) {
                bill.charge(link, payload + (m - link.layer as u64));
            }
            delivered.push(dst);
        }
        debug_assert_eq!(bill.cost, self.cost_replicated(dests.len() as u64, payload));
    }

    fn cast_bitvector(
        &self,
        src: PortId,
        dests: &DestSet,
        payload: u64,
        bill: &mut Bill<'_>,
        delivered: &mut Vec<PortId>,
    ) {
        let m = self.stages();
        let n_ports = self.ports() as u64;

        // Layer 0: source port into its stage-0 switch, full vector.
        let layer0 = LinkId {
            layer: 0,
            line: src,
        };
        bill.charge(layer0, payload + n_ports);

        // Depth-first walk of the routing tree. A switch reached at stage
        // `s` with accumulated destination bits `prefix` covers exactly the
        // ports in `[prefix << (m−s), (prefix+1) << (m−s))`, so "does any
        // destination continue through this output?" is a word-level range
        // probe on the destination bitmap instead of a per-port partition.
        // The upper output is stacked first, so the lower subtree is walked
        // first and ports are delivered in ascending order.
        let mut work = WorkStack::new((0, src, 0));
        while let Some((stage, line, prefix)) = work.pop() {
            if stage == m {
                debug_assert_eq!(line, prefix);
                delivered.push(line);
                continue;
            }
            let sw = self.shuffle(line) >> 1;
            let span = m - stage - 1;
            let layer = stage + 1;
            for bit in [1usize, 0] {
                let child = (prefix << 1) | bit;
                let lo = child << span;
                if !dests.any_in_range(lo, lo + (1usize << span)) {
                    continue;
                }
                let out_line = (sw << 1) | bit;
                bill.charge(
                    LinkId {
                        layer,
                        line: out_line,
                    },
                    payload + (n_ports >> layer),
                );
                work.push((layer, out_line, child));
            }
        }
        debug_assert_eq!(bill.cost, self.cost_bitvector(dests, payload));
    }

    fn cast_broadcast_tag(
        &self,
        src: PortId,
        dests: &DestSet,
        payload: u64,
        bill: &mut Bill<'_>,
        delivered: &mut Vec<PortId>,
    ) {
        let m = self.stages();
        // Widen to a subcube when needed: the enclosing low-bit subcube is
        // the set an allocator placing tasks adjacently would address.
        let (anchor, free_mask) = match dests.subcube_spec() {
            Some(spec) => spec,
            None => {
                let (anchor, l) = dests
                    .enclosing_low_subcube()
                    .expect("dests verified nonempty");
                (anchor, (1usize << l) - 1)
            }
        };

        let layer0 = LinkId {
            layer: 0,
            line: src,
        };
        bill.charge(layer0, payload + 2 * m as u64);

        // Same walk order as scheme 2: upper output stacked first, so the
        // subcube's ports come out ascending. The third field is unused.
        let mut work = WorkStack::new((0, src, 0));
        while let Some((stage, line, _)) = work.pop() {
            if stage == m {
                delivered.push(line);
                continue;
            }
            let sw = self.shuffle(line) >> 1;
            let bit_pos = m - 1 - stage;
            let wanted_bits: &[usize] = if free_mask >> bit_pos & 1 == 1 {
                &[1, 0]
            } else if anchor >> bit_pos & 1 == 1 {
                &[1]
            } else {
                &[0]
            };
            let layer = stage + 1;
            for &bit in wanted_bits {
                let out_line = (sw << 1) | bit;
                bill.charge(
                    LinkId {
                        layer,
                        line: out_line,
                    },
                    payload + 2 * (m - layer) as u64,
                );
                work.push((layer, out_line, 0));
            }
        }
        debug_assert_eq!(bill.cost, self.cost_broadcast_tag(dests, payload));
    }
}

/// Where one walk's charges go: straight into the caller's ledger and, when
/// the caller wants them listed, onto the tail of `record`.
struct Bill<'a> {
    traffic: &'a mut TrafficMatrix,
    record: Option<&'a mut Vec<(LinkId, u64)>>,
    /// Length of `record` when the walk began; entries past it are this
    /// cast's.
    mark: usize,
    cost: u64,
    links: usize,
}

impl<'a> Bill<'a> {
    fn new(traffic: &'a mut TrafficMatrix, record: Option<&'a mut Vec<(LinkId, u64)>>) -> Self {
        Bill {
            mark: record.as_ref().map_or(0, |r| r.len()),
            traffic,
            record,
            cost: 0,
            links: 0,
        }
    }

    #[inline]
    fn charge(&mut self, link: LinkId, bits: u64) {
        self.traffic.add(link, bits);
        self.cost += bits;
        self.links += 1;
        // A link that carried no bits (scheme 1's last hop with an empty
        // payload) was crossed but is not listed.
        if let (Some(record), true) = (&mut self.record, bits > 0) {
            record.push((link, bits));
        }
    }

    /// Puts this cast's recorded charges into `(layer, line)` order and
    /// merges repeated links (scheme 1 crosses shared links once per
    /// destination), in place.
    fn settle(&mut self) {
        let Some(record) = &mut self.record else {
            return;
        };
        record[self.mark..].sort_unstable_by_key(|&(link, _)| link);
        let mut kept = self.mark;
        for i in self.mark + 1..record.len() {
            if record[i].0 == record[kept].0 {
                record[kept].1 += record[i].1;
            } else {
                kept += 1;
                record[kept] = record[i];
            }
        }
        record.truncate(kept + 1);
    }
}

/// Most stages a network may have ([`Omega::new`] enforces it).
const MAX_STAGES: usize = 16;

/// The pending `(stage, line, prefix)` nodes of a depth-first tree walk.
/// A walk holds at most one waiting sibling per stage plus the two outputs
/// just stacked, so `MAX_STAGES + 1` slots always suffice.
struct WorkStack {
    nodes: [(u32, usize, usize); MAX_STAGES + 1],
    len: usize,
}

impl WorkStack {
    fn new(root: (u32, usize, usize)) -> Self {
        let mut nodes = [(0, 0, 0); MAX_STAGES + 1];
        nodes[0] = root;
        WorkStack { nodes, len: 1 }
    }

    #[inline]
    fn push(&mut self, node: (u32, usize, usize)) {
        self.nodes[self.len] = node;
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<(u32, usize, usize)> {
        self.len = self.len.checked_sub(1)?;
        Some(self.nodes[self.len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(m: u32) -> (Omega, TrafficMatrix) {
        let net = Omega::new(m).unwrap();
        let t = TrafficMatrix::new(&net);
        (net, t)
    }

    #[test]
    fn unicast_matches_scheme1_per_hop_sizes() {
        let (net, mut t) = setup(3);
        let cost = net.charge_unicast(5, 2, 20, &mut t).unwrap();
        // Layers carry M+3, M+2, M+1, M+0.
        assert_eq!(cost, 20 * 4 + 3 + 2 + 1);
        assert_eq!(cost, net.unicast_cost(20));
        assert_eq!(t.total_bits(), cost);
        assert_eq!(t.links_used(), 4);
        for (link, bits) in net.route(5, 2).into_iter().zip([23, 22, 21, 20]) {
            assert_eq!(t.link_bits(link), bits);
        }
        // One destination, scheme 1: the same charges a cast leaves.
        let mut cast = TrafficMatrix::new(&net);
        let d = DestSet::from_ports(8, [2usize]).unwrap();
        let r = net
            .multicast(SchemeKind::Replicated, 5, &d, 20, &mut cast)
            .unwrap();
        assert_eq!((r.cost_bits, &r.delivered[..]), (cost, &[2][..]));
        assert_eq!(cast, t);
        assert!(net.charge_unicast(5, 8, 20, &mut t).is_err());
        assert_eq!(t.total_bits(), cost, "a rejected unicast charges nothing");
    }

    #[test]
    fn checked_unicast_reports_dead_links_without_charging() {
        // The check-then-send idiom of the fault paths: ask for the first
        // dead link, and charge the route only when there is none.
        let (net, mut t) = setup(3);
        let dead = net.route(5, 2)[2];
        let hit = net.first_down_link(5, 2, |l| l == dead).unwrap();
        assert_eq!((hit, dead.layer), (Some(dead), 2));
        // Nothing was billed: asking about the route charges no link.
        assert_eq!(t.total_bits(), 0);
        // With the link back up the route is clear and sending bills it.
        assert_eq!(net.first_down_link(5, 2, |_| false).unwrap(), None);
        let cost = net.charge_unicast(5, 2, 20, &mut t).unwrap();
        assert_eq!(cost, 20 * 4 + 3 + 2 + 1);
        assert_eq!((t.total_bits(), t.link_bits(dead)), (cost, 20 + 1));
    }

    #[test]
    fn first_down_link_finds_the_earliest_outage() {
        let (net, _) = setup(3);
        let route = net.route(1, 6);
        let down = [route[1], route[3]];
        let hit = net
            .first_down_link(1, 6, |l| down.contains(&l))
            .unwrap()
            .unwrap();
        assert_eq!(hit, route[1]);
        assert_eq!(net.first_down_link(1, 6, |_| false).unwrap(), None);
        assert!(net.first_down_link(1, 99, |_| false).is_err());
    }

    #[test]
    fn unicast_prefix_charges_only_links_below_the_stop_layer() {
        let (net, mut t) = setup(3);
        // Probe halted at layer 2: layers 0 and 1 carry M+3 and M+2 bits.
        let cost = net.unicast_prefix(5, 2, 20, 2, &mut t).unwrap();
        assert_eq!(cost, (20 + 3) + (20 + 2));
        assert_eq!(t.total_bits(), cost);
        // Stop layer 0 charges nothing; stop layer m+1 matches a full unicast.
        t.clear();
        assert_eq!(net.unicast_prefix(5, 2, 20, 0, &mut t).unwrap(), 0);
        let full = net.unicast_prefix(5, 2, 20, 4, &mut t).unwrap();
        assert_eq!(full, 20 * 4 + 3 + 2 + 1);
    }

    #[test]
    fn replicated_cost_is_linear_in_destinations() {
        let (net, mut t) = setup(4);
        let d1 = DestSet::from_ports(16, [3usize]).unwrap();
        let d4 = DestSet::from_ports(16, [3usize, 5, 9, 12]).unwrap();
        let c1 = net
            .multicast(SchemeKind::Replicated, 0, &d1, 20, &mut t)
            .unwrap()
            .cost_bits;
        t.clear();
        let c4 = net
            .multicast(SchemeKind::Replicated, 0, &d4, 20, &mut t)
            .unwrap()
            .cost_bits;
        assert_eq!(c4, 4 * c1);
    }

    #[test]
    fn bitvector_delivers_exactly_the_requested_set() {
        let (net, mut t) = setup(3);
        // The paper's Figure 4 example: N=8, destinations {0, 2, 3, 6}.
        let d = DestSet::from_ports(8, [0usize, 2, 3, 6]).unwrap();
        for src in 0..8 {
            t.clear();
            let r = net
                .multicast(SchemeKind::BitVector, src, &d, 20, &mut t)
                .unwrap();
            assert_eq!(r.delivered, vec![0, 2, 3, 6], "src {src}");
            assert_eq!(r.cost_bits, t.total_bits());
        }
    }

    #[test]
    fn bitvector_layer_sizes_follow_the_paper_table() {
        let (net, mut t) = setup(3);
        let d = DestSet::all(8);
        net.multicast(SchemeKind::BitVector, 0, &d, 10, &mut t)
            .unwrap();
        // Full broadcast: 1, 2, 4, 8 active links carrying M+8, M+4, M+2, M+1.
        assert_eq!(t.layer_bits(0), 10 + 8);
        assert_eq!(t.layer_bits(1), 2 * (10 + 4));
        assert_eq!(t.layer_bits(2), 4 * (10 + 2));
        assert_eq!(t.layer_bits(3), 8 * (10 + 1));
    }

    #[test]
    fn broadcast_tag_on_aligned_subcube() {
        let (net, mut t) = setup(3);
        let d = DestSet::subcube(8, 4, 1).unwrap(); // {4, 5}
        let r = net
            .multicast(SchemeKind::BroadcastTag, 1, &d, 20, &mut t)
            .unwrap();
        assert_eq!(r.delivered, vec![4, 5]);
        // Layers: 1·(M+6), 1·(M+4), 1·(M+2) — fork at last stage — 2·(M+0).
        assert_eq!(r.cost_bits, (20 + 6) + (20 + 4) + (20 + 2) + 2 * 20);
    }

    #[test]
    fn broadcast_tag_widens_non_subcubes() {
        let (net, mut t) = setup(3);
        let d = DestSet::from_ports(8, [1usize, 2]).unwrap(); // not a subcube
        let r = net
            .multicast(SchemeKind::BroadcastTag, 0, &d, 20, &mut t)
            .unwrap();
        // Enclosing low subcube of {1, 2} is {0, 1, 2, 3}.
        assert_eq!(r.delivered, vec![0, 1, 2, 3]);
    }

    #[test]
    fn broadcast_tag_handles_general_subcubes() {
        let (net, mut t) = setup(4);
        let d = DestSet::from_ports(16, [1usize, 3, 9, 11]).unwrap();
        let r = net
            .multicast(SchemeKind::BroadcastTag, 7, &d, 8, &mut t)
            .unwrap();
        assert_eq!(r.delivered, vec![1, 3, 9, 11]);
    }

    #[test]
    fn cost_functions_match_traversals() {
        let (net, _) = setup(4);
        let cases = [
            DestSet::from_ports(16, [0usize]).unwrap(),
            DestSet::from_ports(16, [0usize, 15]).unwrap(),
            DestSet::adjacent(16, 4, 4).unwrap(),
            DestSet::worst_case_spread(16, 8).unwrap(),
            DestSet::all(16),
        ];
        for d in &cases {
            for kind in [
                SchemeKind::Replicated,
                SchemeKind::BitVector,
                SchemeKind::BroadcastTag,
            ] {
                let mut t = TrafficMatrix::new(&net);
                let r = net.multicast(kind, 3, d, 20, &mut t).unwrap();
                assert_eq!(
                    r.cost_bits,
                    net.multicast_cost(kind, d, 20).unwrap(),
                    "{kind:?} {d:?}"
                );
                assert_eq!(r.cost_bits, t.total_bits());
            }
        }
    }

    #[test]
    fn combined_picks_the_minimum() {
        let (net, mut t) = setup(5);
        let d = DestSet::adjacent(32, 0, 16).unwrap();
        let costs = [
            net.multicast_cost(SchemeKind::Replicated, &d, 20).unwrap(),
            net.multicast_cost(SchemeKind::BitVector, &d, 20).unwrap(),
            net.multicast_cost(SchemeKind::BroadcastTag, &d, 20)
                .unwrap(),
        ];
        let r = net
            .multicast(SchemeKind::Combined, 0, &d, 20, &mut t)
            .unwrap();
        assert_eq!(r.cost_bits, *costs.iter().min().unwrap());
    }

    #[test]
    fn multicast_into_appends_merged_charges_in_link_order() {
        let (net, mut t) = setup(3);
        let d = DestSet::from_ports(8, [2usize, 3, 6]).unwrap();
        let earlier = (LinkId { layer: 3, line: 7 }, 9);
        let mut record = vec![earlier];
        let mut delivered = vec![99];
        let (scheme, cost) = net
            .multicast_into(
                SchemeKind::Replicated,
                5,
                &d,
                20,
                &mut t,
                &mut delivered,
                Some(&mut record),
            )
            .unwrap();
        assert_eq!(
            (scheme, &delivered[..]),
            (SchemeChoice::Replicated, &[2, 3, 6][..])
        );
        assert_eq!(record[0], earlier, "what was there stays in front");
        let charges = &record[1..];
        // Three routes of four links share the source link, and two of them
        // (to ports 2 and 3) part only at the last stage.
        assert_eq!(charges[0], (LinkId { layer: 0, line: 5 }, 3 * 23));
        assert_eq!(charges.len(), 3 * 4 - 2 - 2);
        assert!(charges.is_sorted_by_key(|&(link, _)| link));
        assert_eq!(charges.iter().map(|&(_, b)| b).sum::<u64>(), cost);
        for &(link, bits) in charges {
            assert_eq!(t.link_bits(link), bits);
        }

        // A rejected cast charges nothing, empties `delivered` and leaves
        // `record` alone.
        let before = record.clone();
        let err = net.multicast_into(
            SchemeKind::Combined,
            5,
            &DestSet::empty(8),
            20,
            &mut t,
            &mut delivered,
            Some(&mut record),
        );
        assert_eq!(err, Err(NetError::EmptyDestSet));
        assert!(delivered.is_empty());
        assert_eq!((record, t.total_bits()), (before, cost));
    }

    #[test]
    fn empty_destinations_rejected() {
        let (net, mut t) = setup(3);
        let d = DestSet::empty(8);
        assert_eq!(
            net.multicast(SchemeKind::BitVector, 0, &d, 20, &mut t),
            Err(NetError::EmptyDestSet)
        );
        assert_eq!(
            net.multicast_cost(SchemeKind::Combined, &d, 20),
            Err(NetError::EmptyDestSet)
        );
    }

    #[test]
    fn size_mismatch_rejected() {
        let (net, mut t) = setup(3);
        let d = DestSet::all(16);
        assert!(matches!(
            net.multicast(SchemeKind::BitVector, 0, &d, 20, &mut t),
            Err(NetError::SizeMismatch { .. })
        ));
    }
}
