//! Destination sets for multicast, with the constructors used by the
//! paper's analysis.

use std::fmt;

use crate::error::NetError;
use crate::topology::{Omega, PortId};

/// Members a sparse set holds inline before promoting to a heap bitmap.
const SMALL_CAP: usize = 12;

/// Largest network whose ports fit the inline `u16` member list. One short
/// of `1 << 16`: the list pads unused slots with `u16::MAX`, so that value
/// must never be a legal port.
const SMALL_MAX_PORTS: usize = (1 << 16) - 1;

/// Storage for a [`DestSet`]. The variant is a *canonical* function of
/// `(n_ports, len)`:
///
/// * `Inline` — networks of up to 64 ports: a single word, as before.
/// * `Small` — networks of 65..=65535 ports holding at most [`SMALL_CAP`]
///   members: a sorted inline `u16` list padded with `u16::MAX`. Sparse
///   sharer sets (the overwhelmingly common case at N = 128..1024) never
///   touch the heap.
/// * `Bitmap` — everything denser: a multi-word heap bitmap.
///
/// Because the variant depends only on the network size and the member
/// count, equal sets always share a representation, so the derived
/// `PartialEq`/`Hash` (used by the multicast memo cache) stay consistent
/// across promotion and demotion.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline(u64),
    Small([u16; SMALL_CAP]),
    Bitmap(Vec<u64>),
}

/// Whether a set of `len` members in an `n_ports` network uses `Small`.
#[inline]
fn small_fits(n_ports: usize, len: usize) -> bool {
    n_ports > 64 && n_ports <= SMALL_MAX_PORTS && len <= SMALL_CAP
}

/// Bits `lo..hi` of a word (`hi − lo ≤ 64`, `hi ≤ 64`).
#[inline]
fn range_mask(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo < hi && hi <= 64);
    let width = hi - lo;
    if width == 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << lo
    }
}

/// A set of destination ports for a multicast, sized for a specific network.
///
/// Iteration is always in ascending port order. Sets for networks of at most
/// 64 ports live in a single inline `u64`; larger networks keep sparse sets
/// (up to 12 members) in an inline sorted list and only dense sets on the
/// heap — no allocation on the multicast fast path at any supported N. The
/// constructors mirror the destination placements the paper analyzes:
///
/// * [`DestSet::adjacent`] — `n` consecutive ports (tasks allocated to
///   adjacent processors, §3.3–3.4),
/// * [`DestSet::worst_case_spread`] — `n` ports splitting the routing tree at
///   the earliest stages (the scheme-2 worst case of eq. 3),
/// * [`DestSet::subcube`] — an aligned 2^l subcube (the only sets scheme 3
///   can address).
///
/// # Example
///
/// ```
/// use tmc_omeganet::DestSet;
///
/// let d = DestSet::adjacent(16, 4, 4)?;
/// assert_eq!(d.iter().collect::<Vec<_>>(), [4, 5, 6, 7]);
/// assert!(d.is_subcube());
/// # Ok::<(), tmc_omeganet::NetError>(())
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct DestSet {
    repr: Repr,
    n_ports: usize,
    len: usize,
}

impl Clone for DestSet {
    fn clone(&self) -> Self {
        DestSet {
            repr: self.repr.clone(),
            n_ports: self.n_ports,
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Reuse an existing heap bitmap's capacity: callers that key a memo
        // table by DestSet re-clone the same shapes over and over.
        self.n_ports = source.n_ports;
        self.len = source.len;
        match (&mut self.repr, &source.repr) {
            (Repr::Bitmap(dst), Repr::Bitmap(src)) => {
                dst.clear();
                dst.extend_from_slice(src);
            }
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl DestSet {
    /// Creates an empty set for an `n_ports`-port network.
    ///
    /// # Panics
    ///
    /// Panics if `n_ports` is zero.
    pub fn empty(n_ports: usize) -> Self {
        assert!(n_ports > 0, "network must have at least one port");
        let repr = if n_ports <= 64 {
            Repr::Inline(0)
        } else if small_fits(n_ports, 0) {
            Repr::Small([u16::MAX; SMALL_CAP])
        } else {
            Repr::Bitmap(vec![0; n_ports.div_ceil(64)])
        };
        DestSet {
            repr,
            n_ports,
            len: 0,
        }
    }

    /// Creates the full set `{0, …, n_ports−1}` in `O(n_ports / 64)`: whole
    /// words are filled directly, plus a masked tail word.
    pub fn all(n_ports: usize) -> Self {
        assert!(n_ports > 0, "network must have at least one port");
        if n_ports <= 64 {
            return DestSet {
                repr: Repr::Inline(range_mask(0, n_ports)),
                n_ports,
                len: n_ports,
            };
        }
        // n_ports > 64 > SMALL_CAP members: always a bitmap.
        let mut words = vec![0u64; n_ports.div_ceil(64)];
        let full_words = n_ports / 64;
        let tail_bits = n_ports % 64;
        for w in &mut words[..full_words] {
            *w = u64::MAX;
        }
        if tail_bits > 0 {
            words[full_words] = (1u64 << tail_bits) - 1;
        }
        DestSet {
            repr: Repr::Bitmap(words),
            n_ports,
            len: n_ports,
        }
    }

    /// Creates a set from an iterator of ports.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PortOutOfRange`] if any port is `≥ n_ports`.
    pub fn from_ports<I>(n_ports: usize, ports: I) -> Result<Self, NetError>
    where
        I: IntoIterator<Item = PortId>,
    {
        let mut set = DestSet::empty(n_ports);
        for p in ports {
            if p >= n_ports {
                return Err(NetError::PortOutOfRange { port: p, n_ports });
            }
            set.insert(p);
        }
        Ok(set)
    }

    /// `n` consecutive ports starting at `base` — the "neighbors" placement.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PortOutOfRange`] if `base + n` exceeds the
    /// network size.
    pub fn adjacent(n_ports: usize, base: PortId, n: usize) -> Result<Self, NetError> {
        if base + n > n_ports {
            return Err(NetError::PortOutOfRange {
                port: base + n.saturating_sub(1),
                n_ports,
            });
        }
        DestSet::from_ports(n_ports, base..base + n)
    }

    /// `n` ports spread maximally: `{i·N/n : i in 0..n}` for a power-of-two
    /// `n`. These destinations differ in their most significant bits, so a
    /// scheme-2 multicast forks at every one of the first `log₂ n` stages —
    /// the worst case assumed by eq. 3 of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyDestSet`] if `n == 0` and
    /// [`NetError::PortOutOfRange`] if `n > n_ports`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `n_ports` is not a power of two.
    pub fn worst_case_spread(n_ports: usize, n: usize) -> Result<Self, NetError> {
        assert!(n_ports.is_power_of_two(), "N must be a power of two");
        if n == 0 {
            return Err(NetError::EmptyDestSet);
        }
        assert!(n.is_power_of_two(), "n must be a power of two");
        if n > n_ports {
            return Err(NetError::PortOutOfRange {
                port: n - 1,
                n_ports,
            });
        }
        let stride = n_ports / n;
        DestSet::from_ports(n_ports, (0..n).map(|i| i * stride))
    }

    /// An aligned subcube: all ports agreeing with `base` outside the `l`
    /// low bit positions. Size `2^l`; exactly the sets addressable by
    /// scheme 3 when tasks sit on adjacent processors.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PortOutOfRange`] if `base ≥ n_ports`.
    ///
    /// # Panics
    ///
    /// Panics if `n_ports` is not a power of two or `2^l > n_ports`.
    pub fn subcube(n_ports: usize, base: PortId, l: u32) -> Result<Self, NetError> {
        assert!(n_ports.is_power_of_two(), "N must be a power of two");
        assert!(
            (1usize << l) <= n_ports,
            "subcube of 2^{l} ports exceeds the network"
        );
        if base >= n_ports {
            return Err(NetError::PortOutOfRange {
                port: base,
                n_ports,
            });
        }
        let anchor = base & !((1usize << l) - 1);
        DestSet::from_ports(n_ports, (0..(1usize << l)).map(|low| anchor | low))
    }

    /// Network size this set was built for.
    pub fn n_ports(&self) -> usize {
        self.n_ports
    }

    /// Number of destinations in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rebuilds `self.repr` as a heap bitmap regardless of density. Only
    /// meaningful for `Small` (Inline never coexists with Bitmap at one
    /// `n_ports`).
    fn promote(&mut self) {
        if let Repr::Small(list) = &self.repr {
            let mut words = vec![0u64; self.n_ports.div_ceil(64)];
            for &p in &list[..self.len] {
                words[p as usize / 64] |= 1u64 << (p as usize % 64);
            }
            self.repr = Repr::Bitmap(words);
        }
    }

    /// Rebuilds a bitmap that has shrunk back to `SMALL_CAP` members as an
    /// inline list, keeping the representation canonical in `(n_ports, len)`.
    fn demote(&mut self) {
        if let Repr::Bitmap(words) = &self.repr {
            debug_assert!(small_fits(self.n_ports, self.len));
            let mut list = [u16::MAX; SMALL_CAP];
            let mut i = 0;
            for (wi, &word) in words.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    list[i] = (wi * 64 + bit) as u16;
                    i += 1;
                }
            }
            debug_assert_eq!(i, self.len);
            self.repr = Repr::Small(list);
        }
    }

    /// Adds `port` to the set. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    #[inline]
    pub fn insert(&mut self, port: PortId) -> bool {
        assert!(port < self.n_ports, "port {port} out of range");
        match &mut self.repr {
            Repr::Inline(w) => {
                let bit = 1u64 << port;
                let fresh = *w & bit == 0;
                if fresh {
                    *w |= bit;
                    self.len += 1;
                }
                fresh
            }
            Repr::Small(list) => {
                let mut i = 0;
                while i < self.len && (list[i] as usize) < port {
                    i += 1;
                }
                if i < self.len && list[i] as usize == port {
                    return false;
                }
                if self.len < SMALL_CAP {
                    for j in (i..self.len).rev() {
                        list[j + 1] = list[j];
                    }
                    list[i] = port as u16;
                } else {
                    self.promote();
                    let Repr::Bitmap(words) = &mut self.repr else {
                        unreachable!("promote yields a bitmap")
                    };
                    words[port / 64] |= 1u64 << (port % 64);
                }
                self.len += 1;
                true
            }
            Repr::Bitmap(words) => {
                let word = &mut words[port / 64];
                let bit = 1u64 << (port % 64);
                let fresh = *word & bit == 0;
                if fresh {
                    *word |= bit;
                    self.len += 1;
                }
                fresh
            }
        }
    }

    /// Removes `port` from the set. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, port: PortId) -> bool {
        if port >= self.n_ports {
            return false;
        }
        match &mut self.repr {
            Repr::Inline(w) => {
                let bit = 1u64 << port;
                let present = *w & bit != 0;
                if present {
                    *w &= !bit;
                    self.len -= 1;
                }
                present
            }
            Repr::Small(list) => {
                let Some(i) = list[..self.len].iter().position(|&p| p as usize == port) else {
                    return false;
                };
                for j in i..self.len - 1 {
                    list[j] = list[j + 1];
                }
                list[self.len - 1] = u16::MAX;
                self.len -= 1;
                true
            }
            Repr::Bitmap(words) => {
                let word = &mut words[port / 64];
                let bit = 1u64 << (port % 64);
                let present = *word & bit != 0;
                if present {
                    *word &= !bit;
                    self.len -= 1;
                    if small_fits(self.n_ports, self.len) {
                        self.demote();
                    }
                }
                present
            }
        }
    }

    /// Whether `port` is in the set.
    #[inline]
    pub fn contains(&self, port: PortId) -> bool {
        if port >= self.n_ports {
            return false;
        }
        match &self.repr {
            Repr::Inline(w) => w & (1 << port) != 0,
            Repr::Small(list) => {
                for &p in &list[..self.len] {
                    let p = p as usize;
                    if p >= port {
                        return p == port;
                    }
                }
                false
            }
            Repr::Bitmap(words) => words[port / 64] & (1 << (port % 64)) != 0,
        }
    }

    /// Whether any member lies in `lo..hi` — a word-level range probe, used
    /// by the bit-vector multicast traversal to test whether a switch's
    /// subtree covers a destination without enumerating ports.
    pub fn any_in_range(&self, lo: PortId, hi: PortId) -> bool {
        let hi = hi.min(self.n_ports);
        if lo >= hi {
            return false;
        }
        match &self.repr {
            Repr::Inline(w) => w & range_mask(lo, hi) != 0,
            Repr::Small(list) => list[..self.len]
                .iter()
                .any(|&p| (lo..hi).contains(&(p as usize))),
            Repr::Bitmap(words) => {
                let (w0, w1) = (lo / 64, (hi - 1) / 64);
                if w0 == w1 {
                    return words[w0] & range_mask(lo % 64, (hi - 1) % 64 + 1) != 0;
                }
                if words[w0] & range_mask(lo % 64, 64) != 0 {
                    return true;
                }
                if words[w1] & range_mask(0, (hi - 1) % 64 + 1) != 0 {
                    return true;
                }
                words[w0 + 1..w1].iter().any(|&w| w != 0)
            }
        }
    }

    /// Adds every member of `other` to `self` — word-parallel when both
    /// sides are bitmaps.
    ///
    /// # Panics
    ///
    /// Panics if the sets were built for different network sizes.
    pub fn union_with(&mut self, other: &DestSet) {
        assert_eq!(self.n_ports, other.n_ports, "DestSet size mismatch");
        match &other.repr {
            Repr::Inline(ow) => {
                let Repr::Inline(w) = &mut self.repr else {
                    unreachable!("same n_ports implies same word layout")
                };
                *w |= ow;
                self.len = w.count_ones() as usize;
            }
            Repr::Small(list) => {
                for &p in &list[..other.len] {
                    self.insert(p as usize);
                }
            }
            Repr::Bitmap(ow) => {
                // other has > SMALL_CAP members, so the union does too.
                self.promote();
                let Repr::Bitmap(words) = &mut self.repr else {
                    unreachable!("promote yields a bitmap")
                };
                let mut len = 0;
                for (w, o) in words.iter_mut().zip(ow) {
                    *w |= o;
                    len += w.count_ones() as usize;
                }
                self.len = len;
            }
        }
    }

    /// Removes every member of `other` from `self` — word-parallel when both
    /// sides are bitmaps.
    ///
    /// # Panics
    ///
    /// Panics if the sets were built for different network sizes.
    pub fn difference_with(&mut self, other: &DestSet) {
        assert_eq!(self.n_ports, other.n_ports, "DestSet size mismatch");
        match &other.repr {
            Repr::Inline(ow) => {
                let Repr::Inline(w) = &mut self.repr else {
                    unreachable!("same n_ports implies same word layout")
                };
                *w &= !ow;
                self.len = w.count_ones() as usize;
            }
            Repr::Small(olist) => {
                let olist = *olist;
                let olen = other.len;
                for &p in &olist[..olen] {
                    self.remove(p as usize);
                }
            }
            Repr::Bitmap(ow) => match &mut self.repr {
                Repr::Small(list) => {
                    let mut out = 0;
                    for i in 0..self.len {
                        let p = list[i];
                        if ow[p as usize / 64] & (1u64 << (p as usize % 64)) == 0 {
                            list[out] = p;
                            out += 1;
                        }
                    }
                    for slot in &mut list[out..self.len] {
                        *slot = u16::MAX;
                    }
                    self.len = out;
                }
                Repr::Bitmap(words) => {
                    let mut len = 0;
                    for (w, o) in words.iter_mut().zip(ow) {
                        *w &= !o;
                        len += w.count_ones() as usize;
                    }
                    self.len = len;
                    if small_fits(self.n_ports, self.len) {
                        self.demote();
                    }
                }
                Repr::Inline(_) => unreachable!("same n_ports implies same word layout"),
            },
        }
    }

    /// Whether the sets share at least one member — word-parallel when both
    /// sides are bitmaps.
    ///
    /// # Panics
    ///
    /// Panics if the sets were built for different network sizes.
    pub fn intersects(&self, other: &DestSet) -> bool {
        assert_eq!(self.n_ports, other.n_ports, "DestSet size mismatch");
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => a & b != 0,
            (Repr::Bitmap(a), Repr::Bitmap(b)) => a.iter().zip(b).any(|(x, y)| x & y != 0),
            (Repr::Inline(_), Repr::Bitmap(_)) | (Repr::Bitmap(_), Repr::Inline(_)) => {
                unreachable!("same n_ports implies same word layout")
            }
            (Repr::Small(list), other_set) | (other_set, Repr::Small(list)) => {
                let len = if matches!(self.repr, Repr::Small(_)) {
                    self.len
                } else {
                    other.len
                };
                let probe = |p: usize| match other_set {
                    Repr::Inline(w) => w & (1 << p) != 0,
                    Repr::Small(l) => l.contains(&(p as u16)),
                    Repr::Bitmap(ws) => ws[p / 64] & (1 << (p % 64)) != 0,
                };
                list[..len].iter().any(|&p| probe(p as usize))
            }
        }
    }

    /// Whether every member of `other` is in `self` — word-parallel when
    /// both sides are bitmaps.
    ///
    /// # Panics
    ///
    /// Panics if the sets were built for different network sizes.
    pub fn contains_all(&self, other: &DestSet) -> bool {
        assert_eq!(self.n_ports, other.n_ports, "DestSet size mismatch");
        if other.len > self.len {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => b & !a == 0,
            (Repr::Bitmap(a), Repr::Bitmap(b)) => a.iter().zip(b).all(|(x, y)| y & !x == 0),
            _ => other.iter().all(|p| self.contains(p)),
        }
    }

    /// Iterates over member ports in ascending order.
    #[inline]
    pub fn iter(&self) -> DestIter<'_> {
        DestIter {
            state: match &self.repr {
                Repr::Inline(w) => IterState::Words {
                    words: std::slice::from_ref(w),
                    wi: 0,
                    rest: *w,
                },
                Repr::Small(list) => IterState::List {
                    list: &list[..self.len],
                    i: 0,
                },
                Repr::Bitmap(words) => IterState::Words {
                    words,
                    wi: 0,
                    rest: words[0],
                },
            },
        }
    }

    /// Validates that this set matches the network's size.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::SizeMismatch`] on mismatch.
    pub fn check_net(&self, net: &Omega) -> Result<(), NetError> {
        if self.n_ports == net.ports() {
            Ok(())
        } else {
            Err(NetError::SizeMismatch {
                set_ports: self.n_ports,
                net_ports: net.ports(),
            })
        }
    }

    /// Whether the members form an aligned subcube (including singletons and
    /// the full set). Empty sets are not subcubes.
    pub fn is_subcube(&self) -> bool {
        self.subcube_spec().is_some()
    }

    /// If the members form a subcube, returns `(anchor, free_mask)`: the
    /// common bits and a mask of the positions that vary. General subcubes
    /// (any free-bit positions) are recognized, not only low-bit-aligned
    /// ones.
    pub fn subcube_spec(&self) -> Option<(PortId, usize)> {
        if self.is_empty() || !self.len.is_power_of_two() {
            return None;
        }
        let mut iter = self.iter();
        let first = iter.next().expect("nonempty");
        let mut free_mask = 0usize;
        for p in self.iter() {
            free_mask |= p ^ first;
        }
        if free_mask.count_ones() != self.len.trailing_zeros() {
            return None;
        }
        // All 2^l combinations of free bits must be present; since we have
        // exactly 2^l distinct members all differing from `first` only in
        // free positions, membership is guaranteed by counting — but verify
        // anchor bits to be safe against duplicates (impossible in a set).
        let anchor = first & !free_mask;
        for p in self.iter() {
            if p & !free_mask != anchor {
                return None;
            }
        }
        Some((anchor, free_mask))
    }

    /// The smallest aligned low-bit subcube containing the whole set:
    /// returns `(anchor, l)` with the set contained in
    /// `{anchor .. anchor + 2^l}`. Used when upgrading an arbitrary set to a
    /// scheme-3-addressable superset.
    ///
    /// Returns `None` for an empty set.
    pub fn enclosing_low_subcube(&self) -> Option<(PortId, u32)> {
        let first = self.iter().next()?;
        let mut diff = 0usize;
        for p in self.iter() {
            diff |= p ^ first;
        }
        let l = if diff == 0 {
            0
        } else {
            usize::BITS - diff.leading_zeros()
        };
        Some((first & !((1usize << l) - 1), l))
    }
}

enum IterState<'a> {
    Words {
        words: &'a [u64],
        wi: usize,
        rest: u64,
    },
    List {
        list: &'a [u16],
        i: usize,
    },
}

/// Ascending iterator over a [`DestSet`]'s members: word-wise
/// `trailing_zeros` extraction over bitmap storage, a plain scan over the
/// inline sorted list. No allocation either way.
pub struct DestIter<'a> {
    state: IterState<'a>,
}

impl Iterator for DestIter<'_> {
    type Item = PortId;

    #[inline]
    fn next(&mut self) -> Option<PortId> {
        match &mut self.state {
            IterState::Words { words, wi, rest } => loop {
                if *rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    *rest &= *rest - 1;
                    return Some(*wi * 64 + bit);
                }
                *wi += 1;
                if *wi >= words.len() {
                    return None;
                }
                *rest = words[*wi];
            },
            IterState::List { list, i } => {
                let p = list.get(*i)?;
                *i += 1;
                Some(*p as usize)
            }
        }
    }
}

impl fmt::Debug for DestSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DestSet(N={}, {{", self.n_ports)?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}})")
    }
}

impl<'a> IntoIterator for &'a DestSet {
    type Item = PortId;
    type IntoIter = DestIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = DestSet::empty(128);
        assert!(s.insert(0));
        assert!(s.insert(127));
        assert!(!s.insert(127));
        assert_eq!(s.len(), 2);
        assert!(s.contains(0));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn small_sets_use_inline_storage() {
        let mut s = DestSet::empty(64);
        assert!(matches!(s.repr, Repr::Inline(_)));
        assert!(s.insert(63));
        assert!(s.contains(63));
        assert!(!s.contains(62));
        // Sparse sets beyond 64 ports stay inline too — as a sorted list.
        let mut big = DestSet::empty(65);
        assert!(matches!(big.repr, Repr::Small(_)));
        for p in 0..SMALL_CAP {
            big.insert(p * 5);
        }
        assert!(matches!(big.repr, Repr::Small(_)));
        // Only past SMALL_CAP members does the heap bitmap appear.
        big.insert(64);
        assert!(matches!(big.repr, Repr::Bitmap(_)));
    }

    #[test]
    fn promotion_and_demotion_round_trip() {
        let mut s = DestSet::empty(1024);
        let members: Vec<usize> = (0..SMALL_CAP + 3).map(|i| i * 71).collect();
        for &p in &members {
            assert!(s.insert(p));
        }
        assert!(matches!(s.repr, Repr::Bitmap(_)));
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
        // Shrink back: representation demotes and stays equal to a set
        // built small from scratch (canonical repr ⇒ consistent Eq/Hash).
        for &p in &members[SMALL_CAP..] {
            assert!(s.remove(p));
        }
        assert!(matches!(s.repr, Repr::Small(_)));
        let rebuilt = DestSet::from_ports(1024, members[..SMALL_CAP].iter().copied()).unwrap();
        assert_eq!(s, rebuilt);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |d: &DestSet| {
            let mut h = DefaultHasher::new();
            d.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&s), hash(&rebuilt));
    }

    #[test]
    fn iter_is_sorted_across_words() {
        let s = DestSet::from_ports(256, [200usize, 3, 64, 65, 199]).unwrap();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, [3, 64, 65, 199, 200]);
    }

    #[test]
    fn from_ports_rejects_out_of_range() {
        assert_eq!(
            DestSet::from_ports(8, [8usize]),
            Err(NetError::PortOutOfRange {
                port: 8,
                n_ports: 8
            })
        );
    }

    #[test]
    fn adjacent_and_bounds() {
        let s = DestSet::adjacent(8, 6, 2).unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), [6, 7]);
        assert!(DestSet::adjacent(8, 6, 3).is_err());
        assert_eq!(DestSet::adjacent(8, 0, 0).unwrap().len(), 0);
    }

    #[test]
    fn all_fills_whole_words_and_tail() {
        // Inline, exactly one word, word-boundary and odd sizes.
        for n in [1usize, 5, 63, 64] {
            let s = DestSet::all(n);
            assert_eq!(s.len(), n);
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        }
        // Heap: multiple words plus a masked tail.
        for n in [65usize, 128, 130, 1024] {
            let s = DestSet::all(n);
            assert_eq!(s.len(), n);
            assert_eq!(s.iter().count(), n);
            assert!(s.contains(n - 1));
            assert!(!s.contains(n));
            assert_eq!(s.iter().last(), Some(n - 1));
        }
    }

    #[test]
    fn any_in_range_matches_iteration() {
        for n in [16usize, 64, 65, 256, 1024] {
            let s = DestSet::from_ports(n, [0usize, 5, n / 2, n - 1]).unwrap();
            for lo in 0..n.min(80) {
                for hi in lo..=n.min(80) {
                    let want = s.iter().any(|p| p >= lo && p < hi);
                    assert_eq!(s.any_in_range(lo, hi), want, "N={n} [{lo},{hi})");
                }
            }
            // Ranges straddling and past the end clamp.
            assert!(s.any_in_range(n - 1, n + 100));
            assert!(!s.any_in_range(n, n + 100));
        }
        // Dense bitmap with interior whole-word gaps.
        let s = DestSet::from_ports(512, [10usize, 400]).unwrap();
        let dense = DestSet::all(512);
        assert!(!s.any_in_range(11, 400));
        assert!(s.any_in_range(11, 401));
        assert!(dense.any_in_range(64, 128));
    }

    #[test]
    fn union_and_difference_match_reference() {
        for n in [16usize, 64, 65, 128, 1024] {
            let a: Vec<usize> = (0..n).step_by(3).collect();
            let b: Vec<usize> = (0..n).step_by(5).collect();
            let sa = DestSet::from_ports(n, a.iter().copied()).unwrap();
            let sb = DestSet::from_ports(n, b.iter().copied()).unwrap();

            let mut u = sa.clone();
            u.union_with(&sb);
            let mut want: Vec<usize> = a.iter().chain(&b).copied().collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(u.iter().collect::<Vec<_>>(), want, "N={n} union");
            assert_eq!(u.len(), want.len());

            let mut d = sa.clone();
            d.difference_with(&sb);
            let want: Vec<usize> = a.iter().copied().filter(|p| !b.contains(p)).collect();
            assert_eq!(d.iter().collect::<Vec<_>>(), want, "N={n} difference");
            assert_eq!(d.len(), want.len());

            assert!(sa.intersects(&sb)); // both contain 0
            assert!(u.contains_all(&sa) && u.contains_all(&sb));
            assert!(!d.intersects(&sb));
        }
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let big = DestSet::all(1024);
        let small = DestSet::from_ports(1024, [1usize, 900]).unwrap();
        let mut target = DestSet::empty(1024);
        target.clone_from(&big);
        assert_eq!(target, big);
        target.clone_from(&small);
        assert_eq!(target, small);
        let mut inline = DestSet::empty(16);
        inline.clone_from(&DestSet::all(16));
        assert_eq!(inline, DestSet::all(16));
    }

    #[test]
    fn worst_case_spread_has_maximal_prefixes() {
        let s = DestSet::worst_case_spread(16, 4).unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 4, 8, 12]);
        // Top two bits all distinct.
        let tops: Vec<_> = s.iter().map(|p| p >> 2).collect();
        assert_eq!(tops, [0, 1, 2, 3]);
        assert!(DestSet::worst_case_spread(16, 0).is_err());
        assert!(DestSet::worst_case_spread(16, 32).is_err());
    }

    #[test]
    fn subcube_construction_and_recognition() {
        let s = DestSet::subcube(32, 13, 2).unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), [12, 13, 14, 15]);
        assert!(s.is_subcube());
        assert_eq!(s.subcube_spec(), Some((12, 0b11)));

        // A general (non-low-aligned) subcube is still recognized.
        let g = DestSet::from_ports(16, [1usize, 3, 9, 11]).unwrap();
        assert_eq!(g.subcube_spec(), Some((1, 0b1010)));

        // Not a subcube: wrong structure despite power-of-two size.
        let bad = DestSet::from_ports(16, [0usize, 1, 2, 4]).unwrap();
        assert!(!bad.is_subcube());

        // Size not a power of two.
        let odd = DestSet::from_ports(16, [0usize, 1, 2]).unwrap();
        assert!(!odd.is_subcube());

        // Singleton and full set are subcubes.
        assert!(DestSet::from_ports(8, [5usize]).unwrap().is_subcube());
        assert!(DestSet::all(8).is_subcube());
        assert!(!DestSet::empty(8).is_subcube());

        // Subcube detection crosses the small/bitmap boundary at big N.
        let wide = DestSet::subcube(1024, 512, 4).unwrap();
        assert_eq!(wide.subcube_spec(), Some((512, 0b1111)));
        let sparse = DestSet::from_ports(1024, [5usize, 517]).unwrap();
        assert_eq!(sparse.subcube_spec(), Some((5, 512)));
    }

    #[test]
    fn enclosing_low_subcube_is_tight() {
        let s = DestSet::from_ports(64, [17usize, 18, 22]).unwrap();
        let (anchor, l) = s.enclosing_low_subcube().unwrap();
        assert_eq!((anchor, l), (16, 3));
        let singleton = DestSet::from_ports(64, [9usize]).unwrap();
        assert_eq!(singleton.enclosing_low_subcube(), Some((9, 0)));
        assert_eq!(DestSet::empty(64).enclosing_low_subcube(), None);
    }

    #[test]
    fn debug_lists_members() {
        let s = DestSet::from_ports(8, [1usize, 4]).unwrap();
        assert_eq!(format!("{s:?}"), "DestSet(N=8, {1, 4})");
    }
}
