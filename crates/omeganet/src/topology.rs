//! Omega network topology: perfect-shuffle wiring and destination-tag
//! routing.
//!
//! Following the paper (§3) we model an N×N omega network of 2×2 switches:
//! `m = log₂ N` stages, `N/2` switches per stage, a perfect shuffle
//! preceding every stage. Stages are numbered `0..m`; the paper additionally
//! speaks of "links to stage i" for `i = 0..=m`, where *layer* `m` is the
//! final hop into the destinations. We adopt that numbering: a message
//! traverses `m + 1` link layers, each layer containing `N` links.
//!
//! Routing is Lawrie's destination-tag scheme: with the destination written
//! `D = ⟨d₀ d₁ … d_{m−1}⟩` (d₀ the most significant bit), stage `i` sends the
//! message out of switch output `dᵢ` and strips that bit from the tag.

use crate::destset::DestSet;
use crate::error::NetError;

/// A network port number in `0..N`.
///
/// Cache `i` and memory module `i` of the simulated machine both attach to
/// port `i`; the type is a plain alias because ports appear pervasively in
/// index positions.
pub type PortId = usize;

/// Identifies one physical link: `layer` in `0..=m`, `line` in `0..N`.
///
/// * Layer `0` is the wire from input port `line` into its stage-0 switch.
/// * Layer `i` (for `1 ≤ i ≤ m−1`) is the wire leaving output line `line` of
///   stage `i−1` (the perfect shuffle permutes which stage-`i` switch input
///   it feeds, but it is the same physical wire).
/// * Layer `m` is the wire from the last stage into output port `line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId {
    /// Link layer, `0..=m`.
    pub layer: u32,
    /// Line number within the layer, `0..N`.
    pub line: usize,
}

/// Lazily yields the links of one unicast route, layer 0 first — the
/// allocation-free form of [`Omega::route`]. Built by [`Omega::route_iter`];
/// self-contained (it copies the network's shape), so it borrows nothing.
#[derive(Debug, Clone)]
pub struct RouteIter {
    m: u32,
    mask: usize,
    line: usize,
    dst: PortId,
    layer: u32,
}

impl Iterator for RouteIter {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        if self.layer > self.m {
            return None;
        }
        let layer = self.layer;
        if layer > 0 {
            // Perfect shuffle into stage `layer − 1`, then exit on the
            // destination-tag bit that stage consumes.
            let stage = layer - 1;
            let shuffled = ((self.line << 1) | (self.line >> (self.m - 1))) & self.mask;
            self.line = (shuffled & !1) | ((self.dst >> (self.m - 1 - stage)) & 1);
            if layer == self.m {
                debug_assert_eq!(
                    self.line, self.dst,
                    "destination-tag routing must land on dst"
                );
            }
        }
        self.layer += 1;
        Some(LinkId {
            layer,
            line: self.line,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.m + 1 - self.layer) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RouteIter {}

/// An N×N omega network of 2×2 switches.
///
/// # Example
///
/// ```
/// use tmc_omeganet::Omega;
///
/// let net = Omega::new(3)?; // N = 8
/// assert_eq!(net.ports(), 8);
/// assert_eq!(net.stages(), 3);
/// let path = net.route(5, 2);
/// assert_eq!(path.len(), 4);             // m + 1 link layers
/// assert_eq!(path[0].line, 5);           // leaves the source port
/// assert_eq!(path.last().unwrap().line, 2); // arrives at the destination
/// # Ok::<(), tmc_omeganet::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Omega {
    m: u32,
    n: usize,
}

impl Omega {
    /// Creates an omega network with `m` stages (`N = 2^m` ports).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadStageCount`] unless `1 ≤ m ≤ 16`; beyond 2¹⁶
    /// ports the per-link traffic matrix would dominate memory for no
    /// experimental gain (the paper evaluates up to N = 2048).
    pub fn new(m: u32) -> Result<Self, NetError> {
        if !(1..=16).contains(&m) {
            return Err(NetError::BadStageCount { m });
        }
        Ok(Omega { m, n: 1usize << m })
    }

    /// Creates a network with at least `ports` ports (next power of two).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadStageCount`] if the resulting stage count is
    /// outside `1..=16`.
    pub fn with_ports(ports: usize) -> Result<Self, NetError> {
        let m = ports.next_power_of_two().trailing_zeros().max(1);
        Omega::new(m)
    }

    /// Number of stages `m = log₂ N`.
    pub fn stages(&self) -> u32 {
        self.m
    }

    /// Number of ports `N`.
    pub fn ports(&self) -> usize {
        self.n
    }

    /// Number of link layers a message crosses, `m + 1`.
    pub fn link_layers(&self) -> u32 {
        self.m + 1
    }

    /// Validates that `port < N`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PortOutOfRange`] otherwise.
    pub fn check_port(&self, port: PortId) -> Result<(), NetError> {
        if port < self.n {
            Ok(())
        } else {
            Err(NetError::PortOutOfRange {
                port,
                n_ports: self.n,
            })
        }
    }

    /// The perfect shuffle: rotate the `m`-bit line number left by one.
    #[inline]
    pub fn shuffle(&self, line: usize) -> usize {
        ((line << 1) | (line >> (self.m - 1))) & (self.n - 1)
    }

    /// Routing bit used at stage `stage` for destination `dst`: `d_stage`,
    /// i.e. bit `m − 1 − stage` of the destination (MSB first).
    #[inline]
    pub fn routing_bit(&self, dst: PortId, stage: u32) -> usize {
        (dst >> (self.m - 1 - stage)) & 1
    }

    /// The unique path from `src` to `dst`, as `m + 1` [`LinkId`]s,
    /// layer 0 first.
    ///
    /// This form allocates a fresh `Vec` per call and is kept for cold
    /// paths (tests, diagnostics). Hot callers use [`Omega::route_iter`] (no allocation) or
    /// [`Omega::route_into`] (caller-provided scratch).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range (use [`Omega::check_port`]
    /// to validate untrusted input first).
    pub fn route(&self, src: PortId, dst: PortId) -> Vec<LinkId> {
        let mut links = Vec::with_capacity(self.m as usize + 1);
        self.route_into(src, dst, &mut links);
        links
    }

    /// Appends the `src`→`dst` path to `links` without allocating beyond
    /// the scratch vector's capacity — the `multicast_into` idiom for
    /// unicast routes.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn route_into(&self, src: PortId, dst: PortId, links: &mut Vec<LinkId>) {
        links.extend(self.route_iter(src, dst));
    }

    /// Iterates the `src`→`dst` path layer by layer, computing each link
    /// from the routing digits — no link list is ever materialized. This
    /// is the hot-path form behind every billed unicast.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    ///
    /// # Example
    ///
    /// ```
    /// use tmc_omeganet::Omega;
    ///
    /// let net = Omega::new(3)?;
    /// let collected: Vec<_> = net.route_iter(2, 6).collect();
    /// assert_eq!(collected, net.route(2, 6));
    /// # Ok::<(), tmc_omeganet::NetError>(())
    /// ```
    pub fn route_iter(&self, src: PortId, dst: PortId) -> RouteIter {
        assert!(src < self.n && dst < self.n, "port out of range");
        RouteIter {
            m: self.m,
            mask: self.n - 1,
            line: src,
            dst,
            layer: 0,
        }
    }

    /// The switch (stage, index) a layer-`layer` link feeds, or `None` for
    /// the final layer (which feeds an output port).
    pub fn link_feeds_switch(&self, link: LinkId) -> Option<(u32, usize)> {
        if link.layer >= self.m {
            return None;
        }
        // The wire is shuffled into the stage it feeds.
        let in_line = self.shuffle(link.line);
        Some((link.layer, in_line >> 1))
    }

    /// The set of switches reached at each stage when multicasting from
    /// `src` to `dests` — the "binary tree" view of Figure 3 in the paper.
    ///
    /// Element `s` of the result lists the distinct switch indices active at
    /// stage `s`, in ascending order.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::SizeMismatch`] if `dests` was built for another
    /// network size, or [`NetError::PortOutOfRange`] if `src` is invalid.
    pub fn tree_view(&self, src: PortId, dests: &DestSet) -> Result<Vec<Vec<usize>>, NetError> {
        self.check_port(src)?;
        dests.check_net(self)?;
        let mut stages: Vec<Vec<usize>> = Vec::with_capacity(self.m as usize);
        for _ in 0..self.m {
            stages.push(Vec::new());
        }
        for dst in dests.iter() {
            let mut line = src;
            for stage in 0..self.m {
                line = self.shuffle(line);
                let sw = line >> 1;
                if !stages[stage as usize].contains(&sw) {
                    stages[stage as usize].push(sw);
                }
                line = (sw << 1) | self.routing_bit(dst, stage);
            }
        }
        for s in &mut stages {
            s.sort_unstable();
        }
        Ok(stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_sizes() {
        assert_eq!(Omega::new(0), Err(NetError::BadStageCount { m: 0 }));
        assert_eq!(Omega::new(17), Err(NetError::BadStageCount { m: 17 }));
        assert!(Omega::new(1).is_ok());
        assert!(Omega::new(16).is_ok());
    }

    #[test]
    fn with_ports_rounds_up() {
        assert_eq!(Omega::with_ports(8).unwrap().ports(), 8);
        assert_eq!(Omega::with_ports(9).unwrap().ports(), 16);
        assert_eq!(Omega::with_ports(1).unwrap().ports(), 2);
    }

    #[test]
    fn shuffle_is_rotate_left() {
        let net = Omega::new(3).unwrap();
        assert_eq!(net.shuffle(0b001), 0b010);
        assert_eq!(net.shuffle(0b100), 0b001);
        assert_eq!(net.shuffle(0b110), 0b101);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        for m in 1..=6 {
            let net = Omega::new(m).unwrap();
            let mut seen = vec![false; net.ports()];
            for line in 0..net.ports() {
                let s = net.shuffle(line);
                assert!(!seen[s]);
                seen[s] = true;
            }
        }
    }

    #[test]
    fn route_reaches_destination_for_all_pairs() {
        for m in 1..=5 {
            let net = Omega::new(m).unwrap();
            for src in 0..net.ports() {
                for dst in 0..net.ports() {
                    let path = net.route(src, dst);
                    assert_eq!(path.len(), m as usize + 1);
                    assert_eq!(
                        path[0],
                        LinkId {
                            layer: 0,
                            line: src
                        }
                    );
                    assert_eq!(
                        *path.last().unwrap(),
                        LinkId {
                            layer: m,
                            line: dst
                        }
                    );
                    for (i, link) in path.iter().enumerate() {
                        assert_eq!(link.layer as usize, i);
                        assert!(link.line < net.ports());
                    }
                }
            }
        }
    }

    #[test]
    fn route_iter_matches_route_for_all_pairs() {
        for m in 1..=5 {
            let net = Omega::new(m).unwrap();
            for src in 0..net.ports() {
                for dst in 0..net.ports() {
                    let it = net.route_iter(src, dst);
                    assert_eq!(it.len(), m as usize + 1);
                    let lazy: Vec<LinkId> = it.collect();
                    assert_eq!(lazy, net.route(src, dst), "m={m} {src}->{dst}");
                    let mut scratch = Vec::new();
                    net.route_into(src, dst, &mut scratch);
                    assert_eq!(scratch, lazy);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "port out of range")]
    fn route_iter_validates_ports() {
        let _ = Omega::new(2).unwrap().route_iter(0, 4);
    }

    #[test]
    fn routes_from_different_sources_converge_only_by_suffix() {
        // After stage i the low i+1 bits of the line are destination bits, so
        // two sources' paths to the same destination must share the final
        // link and may share earlier ones only when lines coincide.
        let net = Omega::new(4).unwrap();
        let a = net.route(3, 9);
        let b = net.route(12, 9);
        assert_eq!(a.last(), b.last());
        assert_ne!(a[0], b[0]);
    }

    #[test]
    fn link_feeds_switch_matches_route() {
        let net = Omega::new(3).unwrap();
        let path = net.route(5, 2);
        // Layer-0 link from port 5 feeds the switch that the shuffled line
        // 5 -> 3 belongs to: switch 1 of stage 0.
        assert_eq!(net.link_feeds_switch(path[0]), Some((0, 0b011 >> 1)));
        // The final layer feeds a port, not a switch.
        assert_eq!(net.link_feeds_switch(path[3]), None);
    }

    #[test]
    fn tree_view_covers_all_switches_for_full_broadcast() {
        let net = Omega::new(3).unwrap();
        let all = DestSet::all(net.ports());
        let tree = net.tree_view(0, &all).unwrap();
        // Figure 3: a full broadcast reaches 1, then 2, then 4 switches.
        assert_eq!(tree[0].len(), 1);
        assert_eq!(tree[1].len(), 2);
        assert_eq!(tree[2].len(), 4);
    }

    #[test]
    fn tree_view_single_destination_is_a_path() {
        let net = Omega::new(4).unwrap();
        let one = DestSet::from_ports(16, [11usize]).unwrap();
        let tree = net.tree_view(6, &one).unwrap();
        assert!(tree.iter().all(|s| s.len() == 1));
    }
}
