//! Per-link traffic accounting.
//!
//! The paper's communication-cost metric (eq. 1) is "the amount of
//! information that has to pass each link summed over all links":
//! `CC = Σ_{i=0}^{m} Lᵢ`. A [`TrafficMatrix`] records exactly that — bits per
//! physical link, grouped into the `m + 1` link layers of the topology — so
//! measured totals are directly comparable to the paper's closed forms.

use crate::topology::{LinkId, Omega};

/// Bits transferred over every link of an omega network.
///
/// # Example
///
/// ```
/// use tmc_omeganet::{LinkId, Omega, TrafficMatrix};
///
/// let net = Omega::new(2)?;
/// let mut t = TrafficMatrix::new(&net);
/// for link in net.route(0, 3) {
///     t.add(link, 10);
/// }
/// assert_eq!(t.total_bits(), 30);            // 3 layers × 10 bits
/// assert_eq!(t.layer_bits(0), 10);
/// assert_eq!(t.link_bits(LinkId { layer: 0, line: 0 }), 10);
/// # Ok::<(), tmc_omeganet::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMatrix {
    /// `bits[layer][line]`.
    bits: Vec<Vec<u64>>,
    n_ports: usize,
}

impl TrafficMatrix {
    /// Creates an all-zero matrix shaped for `net`.
    pub fn new(net: &Omega) -> Self {
        TrafficMatrix::with_shape(net.link_layers() as usize, net.ports())
    }

    /// Creates an all-zero matrix with an explicit shape (`layers` link
    /// layers of `lines` links each) — for non-2×2 topologies such as
    /// [`crate::aary::AryOmega`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_shape(layers: usize, lines: usize) -> Self {
        assert!(layers > 0 && lines > 0, "matrix must have a nonzero shape");
        TrafficMatrix {
            bits: vec![vec![0; lines]; layers],
            n_ports: lines,
        }
    }

    /// Network size this matrix is shaped for.
    pub fn n_ports(&self) -> usize {
        self.n_ports
    }

    /// Number of link layers (`m + 1`).
    pub fn layers(&self) -> usize {
        self.bits.len()
    }

    /// Records `bits` crossing `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of shape for this matrix.
    #[inline]
    pub fn add(&mut self, link: LinkId, bits: u64) {
        self.bits[link.layer as usize][link.line] += bits;
    }

    /// Bits recorded on one link.
    pub fn link_bits(&self, link: LinkId) -> u64 {
        self.bits[link.layer as usize][link.line]
    }

    /// Total bits over all links of one layer — the paper's `Lᵢ`.
    pub fn layer_bits(&self, layer: u32) -> u64 {
        self.bits[layer as usize].iter().sum()
    }

    /// Total bits over all links — the paper's `CC` (eq. 1).
    pub fn total_bits(&self) -> u64 {
        self.bits.iter().flatten().sum()
    }

    /// The most loaded link and its bit count, or `None` if no traffic.
    pub fn hottest_link(&self) -> Option<(LinkId, u64)> {
        let mut best: Option<(LinkId, u64)> = None;
        for (layer, row) in self.bits.iter().enumerate() {
            for (line, &b) in row.iter().enumerate() {
                if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                    best = Some((
                        LinkId {
                            layer: layer as u32,
                            line,
                        },
                        b,
                    ));
                }
            }
        }
        best
    }

    /// Number of links that carried any traffic.
    pub fn links_used(&self) -> usize {
        self.bits.iter().flatten().filter(|&&b| b > 0).count()
    }

    /// Zeroes every link.
    pub fn clear(&mut self) {
        for row in &mut self.bits {
            row.fill(0);
        }
    }

    /// Adds every cell of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices have different shapes.
    pub fn merge(&mut self, other: &TrafficMatrix) {
        assert_eq!(self.n_ports, other.n_ports, "traffic matrix shape mismatch");
        for (mine, theirs) in self.bits.iter_mut().zip(&other.bits) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }

    /// Per-layer totals `L₀..L_m`, a compact profile for reports.
    pub fn layer_profile(&self) -> Vec<u64> {
        (0..self.layers() as u32)
            .map(|l| self.layer_bits(l))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Omega;

    fn net() -> Omega {
        Omega::new(3).unwrap()
    }

    #[test]
    fn totals_sum_layers_and_links() {
        let n = net();
        let mut t = TrafficMatrix::new(&n);
        t.add(LinkId { layer: 0, line: 1 }, 5);
        t.add(LinkId { layer: 0, line: 2 }, 7);
        t.add(LinkId { layer: 3, line: 7 }, 11);
        assert_eq!(t.layer_bits(0), 12);
        assert_eq!(t.layer_bits(1), 0);
        assert_eq!(t.layer_bits(3), 11);
        assert_eq!(t.total_bits(), 23);
        assert_eq!(t.links_used(), 3);
        assert_eq!(t.layer_profile(), vec![12, 0, 0, 11]);
    }

    #[test]
    fn hottest_link_and_clear() {
        let n = net();
        let mut t = TrafficMatrix::new(&n);
        assert_eq!(t.hottest_link(), None);
        t.add(LinkId { layer: 1, line: 4 }, 9);
        t.add(LinkId { layer: 2, line: 0 }, 3);
        assert_eq!(t.hottest_link(), Some((LinkId { layer: 1, line: 4 }, 9)));
        t.clear();
        assert_eq!(t.total_bits(), 0);
    }

    #[test]
    fn merge_adds_cellwise() {
        let n = net();
        let mut a = TrafficMatrix::new(&n);
        let mut b = TrafficMatrix::new(&n);
        a.add(LinkId { layer: 0, line: 0 }, 1);
        b.add(LinkId { layer: 0, line: 0 }, 2);
        b.add(LinkId { layer: 2, line: 5 }, 4);
        a.merge(&b);
        assert_eq!(a.link_bits(LinkId { layer: 0, line: 0 }), 3);
        assert_eq!(a.total_bits(), 7);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_different_shapes() {
        let mut a = TrafficMatrix::new(&Omega::new(2).unwrap());
        let b = TrafficMatrix::new(&Omega::new(3).unwrap());
        a.merge(&b);
    }
}
