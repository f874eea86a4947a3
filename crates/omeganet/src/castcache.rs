//! Memoization of multicast traversals, for the casts that repeat.
//!
//! Protocol traffic is bimodal. An owner updating a stable sharing set
//! sends an identical `(scheme, source, destinations, payload)` cast on
//! every write, and replaying its recorded per-link charges beats walking
//! the routing tree again. A big machine under capacity pressure instead
//! announces each ownership change to a set nobody casts to again, and a
//! memo entry for it is pure cost. A [`CastCache`] therefore bills a cast
//! one of three ways, all through [`Omega::multicast_into`] and all
//! leaving the ledger, the delivered ports and the recorded charges
//! bit-identical:
//!
//! * **walk** — the first sighting of a key goes straight through the
//!   allocation-free traversal into the caller's buffers. Nothing is
//!   cloned, inserted or allocated; the cache only remembers a 32-bit tag
//!   of the key's hash in a direct-mapped *sighting table*.
//! * **admit** — a key whose tag is still in the sighting table is being
//!   seen again: it is walked once more with its charges recorded, and the
//!   outcome is memoized.
//! * **replay** — every later sighting finds the memo with one probe and
//!   adds the recorded charges, `O(links touched)` with no tree walk.
//!
//! Every path costs the host `O(links the cast crosses)`; none depends on
//! the machine size. Keys are hashed once per cast with a fixed in-tree
//! hash, so the cache's own counters repeat exactly from run to run.

use std::hash::{Hash, Hasher};

use crate::destset::DestSet;
use crate::error::NetError;
use crate::multicast::{SchemeChoice, SchemeKind};
use crate::topology::{LinkId, Omega, PortId};
use crate::traffic::TrafficMatrix;

/// Memo entries held before the memo is flushed wholesale.
const MAX_ENTRIES: usize = 1 << 16;

/// Slots of the direct-mapped sighting table (a power of two; 128 KiB of
/// tags, allocated on the first cast).
const SIGHTING_SLOTS: usize = 1 << 15;

/// A memoized cast: the key it answers to and the traversal's outcome.
#[derive(Clone)]
struct Memo {
    hash: u64,
    kind: SchemeKind,
    src: PortId,
    payload_bits: u64,
    dests: DestSet,
    scheme: SchemeChoice,
    cost_bits: u64,
    delivered: Box<[PortId]>,
    /// Per-link charges in `(layer, line)` order, one entry per link.
    charges: Box<[(LinkId, u64)]>,
}

/// How a [`CastCache`] has billed its casts so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CastStats {
    /// Casts answered from the memo.
    pub replayed: u64,
    /// First sightings, walked straight into the caller's buffers.
    pub walked: u64,
    /// Second sightings, walked with recording and memoized.
    pub admitted: u64,
    /// Casts currently memoized.
    pub entries: usize,
    /// Times the memo reached its entry bound and was dropped wholesale.
    pub flushes: u64,
}

/// A memo table for [`Omega::multicast_into`] results, admitting a cast on
/// its second sighting (see the [module docs](self)).
///
/// Keys are `(scheme, source, destination set, payload)`.
///
/// # Example
///
/// ```
/// use tmc_omeganet::{CastCache, DestSet, Omega, SchemeKind, TrafficMatrix};
///
/// let net = Omega::new(4)?;
/// let dests = DestSet::adjacent(net.ports(), 0, 4)?;
/// let mut cache = CastCache::new();
/// let mut t = TrafficMatrix::new(&net);
/// let mut delivered = Vec::new();
/// let mut cast = |cache: &mut CastCache, t: &mut TrafficMatrix| {
///     cache.multicast_into(&net, SchemeKind::BitVector, 9, &dests, 64, t, &mut delivered, None)
/// };
/// let first = cast(&mut cache, &mut t)?; // walked
/// let second = cast(&mut cache, &mut t)?; // walked again and memoized
/// let third = cast(&mut cache, &mut t)?; // replayed
/// assert_eq!((first, second), (second, third));
/// assert_eq!(t.total_bits(), 3 * first.1);
/// assert_eq!((cache.hits(), cache.misses()), (1, 2));
/// let stats = cache.stats();
/// assert_eq!((stats.walked, stats.admitted, stats.replayed), (1, 1, 1));
/// # Ok::<(), tmc_omeganet::NetError>(())
/// ```
#[derive(Clone, Default)]
pub struct CastCache {
    /// Memoized casts, in admission order.
    memos: Vec<Memo>,
    /// Open-addressed index over `memos`, keyed by the key hash: a slot
    /// holds a memo's position plus one, `0` when free. Its length is a
    /// power of two kept at least twice `memos.len()`; entries leave only
    /// by a wholesale flush, so linear probing needs no tombstones.
    index: Vec<u32>,
    /// Direct-mapped table of hash tags of keys seen but not memoized;
    /// `0` marks a free slot. Empty until the first cast.
    sighted: Vec<u32>,
    /// Reused buffer a memoizing walk records its charges into.
    recorded: Vec<(LinkId, u64)>,
    replayed: u64,
    walked: u64,
    admitted: u64,
    flushes: u64,
}

impl CastCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CastCache::default()
    }

    /// [`Omega::multicast_into`] with repeats memoized: the delivered ports
    /// are written into the caller's reusable `delivered` buffer (cleared
    /// first), the per-link charges are appended to `record` when one is
    /// supplied — in `(layer, line)` order, one entry per link — and the
    /// resolved scheme and cost come back by value. The outcome and the
    /// traffic added to `traffic` are bit-identical whether the cast was
    /// walked, admitted or replayed. This is the protocol hot path: a walk
    /// and a replay allocate nothing.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetError`] from the underlying cast (empty set,
    /// size mismatch, out-of-range source). Errors are not cached;
    /// `delivered` is left empty and nothing is appended to `record`.
    #[allow(clippy::too_many_arguments)]
    pub fn multicast_into(
        &mut self,
        net: &Omega,
        kind: SchemeKind,
        src: PortId,
        dests: &DestSet,
        payload_bits: u64,
        traffic: &mut TrafficMatrix,
        delivered: &mut Vec<PortId>,
        record: Option<&mut Vec<(LinkId, u64)>>,
    ) -> Result<(SchemeChoice, u64), NetError> {
        let hash = key_hash(kind, src, payload_bits, dests);
        if let Some(at) = self.find(hash, kind, src, payload_bits, dests) {
            self.replayed += 1;
            let memo = &self.memos[at];
            for &(link, bits) in &*memo.charges {
                traffic.add(link, bits);
            }
            delivered.clear();
            delivered.extend_from_slice(&memo.delivered);
            if let Some(out) = record {
                out.extend_from_slice(&memo.charges);
            }
            return Ok((memo.scheme, memo.cost_bits));
        }

        let slot = hash as usize & (SIGHTING_SLOTS - 1);
        // Never 0, the free-slot mark. Another key with the same slot and
        // tag is merely admitted one sighting early: the memo itself
        // compares whole keys.
        let tag = (hash >> 32) as u32 | 1;
        if self.sighted.get(slot) != Some(&tag) {
            let outcome =
                net.multicast_into(kind, src, dests, payload_bits, traffic, delivered, record)?;
            if self.sighted.is_empty() {
                self.sighted = vec![0; SIGHTING_SLOTS];
            }
            self.sighted[slot] = tag;
            self.walked += 1;
            return Ok(outcome);
        }

        self.recorded.clear();
        let (scheme, cost_bits) = net.multicast_into(
            kind,
            src,
            dests,
            payload_bits,
            traffic,
            delivered,
            Some(&mut self.recorded),
        )?;
        if let Some(out) = record {
            out.extend_from_slice(&self.recorded);
        }
        self.admitted += 1;
        self.insert(Memo {
            hash,
            kind,
            src,
            payload_bits,
            dests: dests.clone(),
            scheme,
            cost_bits,
            delivered: delivered.as_slice().into(),
            charges: self.recorded.as_slice().into(),
        });
        Ok((scheme, cost_bits))
    }

    /// Where in `memos` this key is, if it has been admitted.
    fn find(
        &self,
        hash: u64,
        kind: SchemeKind,
        src: PortId,
        payload_bits: u64,
        dests: &DestSet,
    ) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let at = self.index[slot].checked_sub(1)? as usize;
            let memo = &self.memos[at];
            if memo.hash == hash
                && memo.src == src
                && memo.payload_bits == payload_bits
                && memo.kind == kind
                && memo.dests == *dests
            {
                return Some(at);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Memoizes a cast `find` has just missed.
    fn insert(&mut self, memo: Memo) {
        if self.memos.len() >= MAX_ENTRIES {
            self.memos.clear();
            self.index.clear();
            self.flushes += 1;
        }
        self.memos.push(memo);
        if self.memos.len() * 2 > self.index.len() {
            let slots = (self.index.len() * 2).max(16);
            self.index.clear();
            self.index.resize(slots, 0);
            for at in 0..self.memos.len() {
                self.index_memo(at);
            }
        } else {
            self.index_memo(self.memos.len() - 1);
        }
    }

    /// Enters `memos[at]` into the first free index slot on its probe path.
    fn index_memo(&mut self, at: usize) {
        let mask = self.index.len() - 1;
        let mut slot = self.memos[at].hash as usize & mask;
        while self.index[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.index[slot] = at as u32 + 1;
    }

    /// Number of casts answered from the memo so far.
    pub fn hits(&self) -> u64 {
        self.replayed
    }

    /// Number of full traversals so far: first sightings walked plus second
    /// sightings admitted.
    pub fn misses(&self) -> u64 {
        self.walked + self.admitted
    }

    /// How the casts so far were billed, and what the memo holds.
    pub fn stats(&self) -> CastStats {
        CastStats {
            replayed: self.replayed,
            walked: self.walked,
            admitted: self.admitted,
            entries: self.memos.len(),
            flushes: self.flushes,
        }
    }

    /// Number of distinct casts currently memoized.
    pub fn len(&self) -> usize {
        self.memos.len()
    }

    /// Whether nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.memos.is_empty()
    }

    /// Back to a new cache: drops every memoized cast and the sighting
    /// table and zeroes every counter.
    pub fn clear(&mut self) {
        *self = CastCache::new();
    }
}

impl std::fmt::Debug for CastCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.stats(), f)
    }
}

/// The hash that places a key in the memo index and the sighting table.
fn key_hash(kind: SchemeKind, src: PortId, payload_bits: u64, dests: &DestSet) -> u64 {
    let mut hasher = KeyHasher(kind as u64);
    hasher.write_u64(src as u64);
    hasher.write_u64(payload_bits);
    dests.hash(&mut hasher);
    hasher.finish()
}

/// A fixed, unkeyed word-at-a-time hash (multiply–rotate per word, a
/// splitmix64 finalizer so every output bit depends on every input bit).
/// Keys come from the simulator itself, never from outside the program,
/// so there is no adversary to key against — and an unkeyed hash makes the
/// cache's counters reproducible.
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one cast did: `(scheme, cost, delivered, recorded charges,
    /// ledger)`.
    type Billed = (
        SchemeChoice,
        u64,
        Vec<PortId>,
        Vec<(LinkId, u64)>,
        TrafficMatrix,
    );

    /// One cast through `cache` into a fresh ledger.
    fn cast(
        cache: &mut CastCache,
        net: &Omega,
        kind: SchemeKind,
        src: PortId,
        dests: &DestSet,
        payload: u64,
    ) -> Billed {
        let mut t = TrafficMatrix::new(net);
        let (mut delivered, mut rec) = (Vec::new(), Vec::new());
        let (scheme, cost) = cache
            .multicast_into(
                net,
                kind,
                src,
                dests,
                payload,
                &mut t,
                &mut delivered,
                Some(&mut rec),
            )
            .unwrap();
        (scheme, cost, delivered, rec, t)
    }

    fn billed(cache: &CastCache) -> (u64, u64, u64) {
        let s = cache.stats();
        (s.walked, s.admitted, s.replayed)
    }

    #[test]
    fn replay_matches_direct_cast_for_every_scheme() {
        let net = Omega::new(5).unwrap();
        let sets = [
            DestSet::adjacent(32, 4, 7).unwrap(),
            DestSet::worst_case_spread(32, 8).unwrap(),
            DestSet::subcube(32, 9, 3).unwrap(),
            DestSet::from_ports(32, [0usize, 13, 14, 31]).unwrap(),
        ];
        let mut cache = CastCache::new();
        for kind in [
            SchemeKind::Replicated,
            SchemeKind::BitVector,
            SchemeKind::BroadcastTag,
            SchemeKind::Combined,
        ] {
            for dests in &sets {
                for pass in 0..3 {
                    let mut direct = TrafficMatrix::new(&net);
                    let want = net.multicast(kind, 3, dests, 44, &mut direct).unwrap();
                    let (scheme, cost, delivered, _, via) =
                        cast(&mut cache, &net, kind, 3, dests, 44);
                    assert_eq!(
                        (scheme, cost, delivered),
                        (want.scheme, want.cost_bits, want.delivered),
                        "pass {pass}"
                    );
                    assert_eq!(via, direct, "pass {pass}: full matrix must match");
                }
            }
        }
        // Each key: walked, admitted, replayed.
        let keys = 4 * sets.len() as u64;
        assert_eq!(billed(&cache), (keys, keys, keys));
        assert_eq!((cache.hits(), cache.misses()), (keys, 2 * keys));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let net = Omega::new(3).unwrap();
        let d = DestSet::adjacent(8, 0, 4).unwrap();
        let mut cache = CastCache::new();
        for _ in 0..3 {
            let a = cast(&mut cache, &net, SchemeKind::Replicated, 0, &d, 10);
            let b = cast(&mut cache, &net, SchemeKind::Replicated, 0, &d, 20);
            let c = cast(&mut cache, &net, SchemeKind::Replicated, 1, &d, 10);
            assert_ne!(a.1, b.1);
            assert_eq!(a.2, c.2);
            assert_ne!(a.3, c.3, "another source crosses other links");
        }
        assert_eq!(billed(&cache), (3, 3, 3));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn shrunken_dest_set_is_a_distinct_key() {
        // The protocol shrinks a block's sharer set when copies are
        // invalidated (e.g. a DW -> GR mode switch); the memo key holds
        // the full DestSet, so the smaller cast must be walked and recost
        // rather than replay the old full-set charges.
        let net = Omega::new(3).unwrap();
        let full = DestSet::from_ports(8, [1usize, 2, 3]).unwrap();
        let one = DestSet::from_ports(8, [1usize]).unwrap();
        let mut cache = CastCache::new();
        for _ in 0..2 {
            cast(&mut cache, &net, SchemeKind::Replicated, 0, &full, 64);
        }
        assert_eq!(billed(&cache), (1, 1, 0));
        let a = cast(&mut cache, &net, SchemeKind::Replicated, 0, &full, 64);
        let b = cast(&mut cache, &net, SchemeKind::Replicated, 0, &one, 64);
        assert!(b.1 < a.1, "smaller set must cost less");
        assert_eq!(b.2, vec![1]);
        assert_eq!(billed(&cache), (2, 1, 1));
    }

    #[test]
    fn errors_pass_through_uncached() {
        let net = Omega::new(3).unwrap();
        let empty = DestSet::empty(8);
        let mut cache = CastCache::new();
        let mut t = TrafficMatrix::new(&net);
        let (mut delivered, mut rec) = (vec![7], Vec::new());
        for _ in 0..3 {
            assert_eq!(
                cache.multicast_into(
                    &net,
                    SchemeKind::BitVector,
                    0,
                    &empty,
                    10,
                    &mut t,
                    &mut delivered,
                    Some(&mut rec),
                ),
                Err(NetError::EmptyDestSet)
            );
            assert!(delivered.is_empty() && rec.is_empty());
        }
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CastStats::default());
        assert!(cache.sighted.is_empty(), "no table before the first cast");
        assert_eq!(t.total_bits(), 0);
    }

    #[test]
    fn recorded_charges_match_traffic_on_miss_and_hit() {
        let net = Omega::new(4).unwrap();
        let d = DestSet::worst_case_spread(16, 4).unwrap();
        let mut cache = CastCache::new();
        for pass in 0..3 {
            let (_, cost, _, rec, t) = cast(&mut cache, &net, SchemeKind::Combined, 2, &d, 33);
            let rec_total: u64 = rec.iter().map(|&(_, bits)| bits).sum();
            assert_eq!(rec_total, cost, "pass {pass}");
            assert_eq!(rec_total, t.total_bits(), "pass {pass}");
            for &(link, bits) in &rec {
                assert_eq!(t.link_bits(link), bits, "pass {pass}");
            }
            // Charges come back sorted by (layer, line) on every path.
            assert!(rec.is_sorted_by_key(|&(l, _)| l), "pass {pass}");
        }
        assert_eq!(billed(&cache), (1, 1, 1));
    }

    #[test]
    fn multicast_into_matches_recording_on_miss_and_hit() {
        // With and without a record buffer, on every billing path, the
        // outcome is the one a new cache gives with recording on.
        let net = Omega::new(4).unwrap();
        let d = DestSet::worst_case_spread(16, 8).unwrap();
        let mut cache = CastCache::new();
        let mut delivered = Vec::new();
        let want = cast(&mut CastCache::new(), &net, SchemeKind::Combined, 5, &d, 21);
        for pass in 0..6 {
            let mut t = TrafficMatrix::new(&net);
            let mut rec = Vec::new();
            let record = (pass % 2 == 0).then_some(&mut rec);
            let (scheme, cost) = cache
                .multicast_into(
                    &net,
                    SchemeKind::Combined,
                    5,
                    &d,
                    21,
                    &mut t,
                    &mut delivered,
                    record,
                )
                .unwrap();
            assert_eq!((scheme, cost), (want.0, want.1), "pass {pass}");
            assert_eq!(delivered, want.2, "pass {pass}");
            assert_eq!(t, want.4, "pass {pass}: full matrix must match");
            if pass % 2 == 0 {
                assert_eq!(rec, want.3, "pass {pass}");
            }
        }
        assert_eq!(billed(&cache), (1, 1, 4));
    }

    #[test]
    fn clear_resets_counters() {
        let net = Omega::new(2).unwrap();
        let d = DestSet::all(4);
        let mut cache = CastCache::new();
        for _ in 0..3 {
            cast(&mut cache, &net, SchemeKind::Replicated, 0, &d, 8);
        }
        assert_eq!((billed(&cache), cache.len()), ((1, 1, 1), 1));
        cache.clear();
        assert_eq!(cache.stats(), CastStats::default());
        // The sighting table went too: the key starts over as a first
        // sighting instead of being admitted at once.
        cast(&mut cache, &net, SchemeKind::Replicated, 0, &d, 8);
        assert_eq!(billed(&cache), (1, 0, 0));
    }

    #[test]
    fn sighting_slot_collision_never_crosses_keys() {
        // Two keys that share a sighting slot evict each other's tag, so
        // alternating them is walked every time; once one is memoized the
        // other still gets its own walk, admission and charges.
        let net = Omega::new(3).unwrap();
        let d = DestSet::from_ports(8, [1usize, 6]).unwrap();
        let slot = |payload| {
            key_hash(SchemeKind::BitVector, 2, payload, &d) as usize & (SIGHTING_SLOTS - 1)
        };
        let other = (1..).find(|&p| slot(p) == slot(0)).unwrap();
        let want_a = cast(&mut CastCache::new(), &net, SchemeKind::BitVector, 2, &d, 0);
        let want_b = cast(
            &mut CastCache::new(),
            &net,
            SchemeKind::BitVector,
            2,
            &d,
            other,
        );
        assert_ne!(want_a.3, want_b.3);

        let mut cache = CastCache::new();
        for _ in 0..3 {
            let a = cast(&mut cache, &net, SchemeKind::BitVector, 2, &d, 0);
            let b = cast(&mut cache, &net, SchemeKind::BitVector, 2, &d, other);
            assert_eq!((a, b), (want_a.clone(), want_b.clone()));
        }
        assert_eq!(billed(&cache), (6, 0, 0));
        // A, A: admitted. Then B, B, B and A again: both live in the memo.
        for _ in 0..2 {
            let a = cast(&mut cache, &net, SchemeKind::BitVector, 2, &d, 0);
            assert_eq!(a, want_a);
        }
        for _ in 0..3 {
            let b = cast(&mut cache, &net, SchemeKind::BitVector, 2, &d, other);
            assert_eq!(b, want_b);
        }
        let a = cast(&mut cache, &net, SchemeKind::BitVector, 2, &d, 0);
        assert_eq!(a, want_a);
        assert_eq!(billed(&cache), (8, 2, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn memo_index_grows_and_flush_starts_over() {
        let net = Omega::new(3).unwrap();
        let d = DestSet::from_ports(8, [0usize, 5]).unwrap();
        let mut cache = CastCache::new();
        let mut t = TrafficMatrix::new(&net);
        let mut delivered = Vec::new();
        let mut cast = |cache: &mut CastCache, payload: u64| {
            cache
                .multicast_into(
                    &net,
                    SchemeKind::Replicated,
                    1,
                    &d,
                    payload,
                    &mut t,
                    &mut delivered,
                    None,
                )
                .unwrap()
        };
        // Admit MAX_ENTRIES keys (two sightings each), through every index
        // doubling; all of them replay afterwards.
        let keys = MAX_ENTRIES as u64;
        for payload in 0..keys {
            cast(&mut cache, payload);
            cast(&mut cache, payload);
        }
        for payload in (0..keys).step_by(97) {
            let before = cache.hits();
            assert_eq!(cast(&mut cache, payload).1, net.unicast_cost(payload) * 2);
            assert_eq!(cache.hits(), before + 1, "payload {payload}");
        }
        assert_eq!((cache.len(), cache.stats().flushes), (MAX_ENTRIES, 0));
        // One more admission flushes the memo wholesale.
        cast(&mut cache, keys);
        cast(&mut cache, keys);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.flushes), (1, 1));
        assert_eq!(stats.admitted, keys + 1);
    }
}
