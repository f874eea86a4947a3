//! Whole-system protocol invariants.
//!
//! [`System::check_invariants`] sweeps every block known to any component
//! and verifies the structural guarantees the protocol is supposed to
//! maintain. Tests call it after every transaction. Its cost follows the
//! state it inspects, not the machine size: one pass over the `R` resident
//! cache lines and the block-store entries, an `O(R log R)` sort of
//! `(block, cache)` pairs, and one walk over the groups — an empty cache or
//! an unwritten region of the address space costs nothing. The owner
//! table adds one mark per entry it has ever handed out, about the peak
//! number of owned blocks, and no sort.

use tmc_memsys::{BlockAddr, CacheArray};

use crate::error::InvariantViolation;
use crate::home::{Baseline, Home};
use crate::state::{CacheLine, Mode, OwnerEntry, OwnerState, OwnerTable, Validity};
use crate::system::System;

/// The owner-table half of the sweep: every owned line names a distinct
/// live entry, and every live entry is named by an owned line — so live
/// entries, owned lines and block-store owners are as many. A sweep
/// claims each block's owner line as it meets it and finishes with the
/// count.
struct EntryClaims {
    /// Per table slot: [`EntryClaims::FREE`], [`EntryClaims::CLAIMED`], or
    /// 0 for a live entry no owned line has named yet.
    marks: Vec<u8>,
    claimed: usize,
}

impl EntryClaims {
    const FREE: u8 = 1;
    const CLAIMED: u8 = 2;

    /// Marks the table's free entries; an entry freed twice is a
    /// violation.
    fn new(table: &OwnerTable) -> Result<Self, InvariantViolation> {
        let mut marks = vec![0; table.slots()];
        for &e in table.free_list() {
            match marks.get_mut(e as usize) {
                Some(mark) if *mark == 0 => *mark = Self::FREE,
                _ => {
                    return Err(InvariantViolation {
                        what: format!(
                            "owner table: free list names entry {e} twice or past the table"
                        ),
                    })
                }
            }
        }
        Ok(EntryClaims { marks, claimed: 0 })
    }

    /// Claims the entry `owner`'s line of `block` names and returns the
    /// owner state it holds.
    fn claim<'t>(
        &mut self,
        table: &'t OwnerTable,
        block: BlockAddr,
        owner: usize,
        entry: OwnerEntry,
    ) -> Result<&'t OwnerState, InvariantViolation> {
        let fail = |why: &str| {
            Err(InvariantViolation {
                what: format!("{block}: owner C{owner}'s line names entry {entry}, {why}"),
            })
        };
        let (Some(mark), Some(state)) = (self.marks.get_mut(entry as usize), table.get(entry))
        else {
            return fail("past the owner table");
        };
        match *mark {
            Self::FREE => fail("which is free"),
            Self::CLAIMED => fail("which another owned line holds"),
            _ => {
                *mark = Self::CLAIMED;
                self.claimed += 1;
                Ok(state)
            }
        }
    }

    /// Every live entry was claimed: none leaked.
    fn finish(self, table: &OwnerTable) -> Result<(), InvariantViolation> {
        if table.live() == self.claimed {
            return Ok(());
        }
        Err(InvariantViolation {
            what: format!(
                "owner table: {} live entries for {} owned lines",
                table.live(),
                self.claimed
            ),
        })
    }
}

impl System {
    /// Verifies the protocol's structural invariants:
    ///
    /// 1. the block store and the unique Owned line agree for every block;
    /// 2. a valid non-owner copy implies an owner exists (no orphans);
    /// 3. only the owner's copy may be modified;
    /// 4. distributed-write mode: the present vector equals the exact set
    ///    of caches holding valid copies, and every copy's data equals the
    ///    owner's;
    /// 5. global-read mode: no other valid copy exists, and every present
    ///    flag (beyond the owner) points at a cache holding an *invalid*
    ///    entry for the block;
    /// 6. each owned line names a distinct live owner-table entry, and the
    ///    table holds as many live entries as there are owned lines (and
    ///    so block-store owners).
    ///
    /// A baseline machine ([`System::baseline`]) is checked against its
    /// home directory instead: every line is a plain copy, the home's
    /// sharer set is exactly the set of caches holding one, a writer holds
    /// one (under write-invalidate it is the only holder, under
    /// update-only every copy equals it), and with no writer every copy
    /// equals memory.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] found.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |what: String| Err(InvariantViolation { what });
        if let Some(home) = self.home.as_deref() {
            return self.check_home(home);
        }

        let resident = self.resident_lines();
        let mut stored_owners = self.store.iter().peekable();
        let mut claims = EntryClaims::new(&self.owners)?;

        let mut owners: Vec<usize> = Vec::new();
        let mut valid_holders: Vec<usize> = Vec::new();
        let mut invalid_holders: Vec<usize> = Vec::new();
        let mut rest = &resident[..];
        loop {
            // The next block any component knows about.
            let block = match (rest.first(), stored_owners.peek()) {
                (Some(&(b, ..)), Some(&(s, _))) => b.min(s),
                (Some(&(b, ..)), None) => b,
                (None, Some(&(s, _))) => s,
                (None, None) => return claims.finish(&self.owners),
            };
            let held = rest.iter().take_while(|&&(b, ..)| b == block).count();
            let (group, tail) = rest.split_at(held);
            rest = tail;
            let stored = stored_owners
                .next_if(|&(s, _)| s == block)
                .map(|(_, c)| c.port());

            owners.clear();
            valid_holders.clear();
            invalid_holders.clear();
            let mut owner_line: Option<&CacheLine> = None;
            for &(_, c, line) in group {
                match line.validity {
                    Validity::Owned => {
                        owners.push(c);
                        valid_holders.push(c);
                        owner_line = Some(line);
                    }
                    Validity::UnOwned => valid_holders.push(c),
                    Validity::Invalid => invalid_holders.push(c),
                }
                if line.modified && !line.is_owned() {
                    return fail(format!("{block}: non-owner C{c} has the modified bit set"));
                }
            }

            if owners.len() > 1 {
                return fail(format!("{block}: multiple owners {owners:?}"));
            }
            match (owners.first().copied(), stored) {
                (Some(o), Some(s)) if o != s => {
                    return fail(format!(
                        "{block}: block store says C{s} but C{o} holds the owned line"
                    ));
                }
                (Some(o), None) => {
                    return fail(format!(
                        "{block}: C{o} owns the block but the block store entry is invalid"
                    ));
                }
                (None, Some(s)) => {
                    return fail(format!(
                        "{block}: block store names C{s} but no cache holds an owned line"
                    ));
                }
                _ => {}
            }

            let (Some(owner), Some(line)) = (owners.first().copied(), owner_line) else {
                // Unowned block: no valid copies may survive.
                if let Some(&c) = valid_holders.first() {
                    return fail(format!(
                        "{block}: orphan valid copy at C{c} with no owner anywhere"
                    ));
                }
                continue;
            };
            let state = claims.claim(&self.owners, block, owner, line.entry)?;

            if !state.present.contains(owner) {
                return fail(format!(
                    "{block}: owner C{owner}'s own present flag is clear"
                ));
            }

            match line.mode {
                Mode::DistributedWrite => {
                    if !state.present.iter().eq(valid_holders.iter().copied()) {
                        let present: Vec<usize> = state.present.iter().collect();
                        return fail(format!(
                            "{block} (DW): present vector {present:?} != valid copies {valid_holders:?}"
                        ));
                    }
                    for &(_, c, copy) in group {
                        if copy.is_valid() && copy.data != line.data {
                            return fail(format!(
                                "{block} (DW): C{c}'s copy diverges from owner C{owner}'s data"
                            ));
                        }
                    }
                }
                Mode::GlobalRead => {
                    if let Some(&c) = valid_holders.iter().find(|&&c| c != owner) {
                        return fail(format!(
                            "{block} (GR): C{c} holds a valid copy besides owner C{owner}"
                        ));
                    }
                    for p in state.present.iter().filter(|&p| p != owner) {
                        if !invalid_holders.contains(&p) {
                            return fail(format!(
                                "{block} (GR): present flag for C{p} but it holds no invalid entry"
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Every resident line, grouped by block with caches ascending.
    fn resident_lines(&self) -> Vec<(BlockAddr, usize, &CacheLine)> {
        let mut resident: Vec<(BlockAddr, usize, &CacheLine)> =
            Vec::with_capacity(self.caches.iter().map(CacheArray::len).sum());
        for (c, cache) in self.caches.iter().enumerate() {
            resident.extend(cache.iter().map(|(block, line)| (block, c, line)));
        }
        resident.sort_unstable_by_key(|&(block, c, _)| (block, c));
        resident
    }

    /// A baseline machine's invariants, per block any cache or the home
    /// knows about:
    ///
    /// 1. every line is a plain valid copy, and the block store is empty;
    /// 2. the home's sharer set is exactly the set of caches holding a
    ///    copy;
    /// 3. a writer holds a copy; under write-invalidate it is the only
    ///    holder, under update-only every copy equals the writer's;
    /// 4. with no writer, every copy equals memory.
    fn check_home(&self, home: &Home) -> Result<(), InvariantViolation> {
        let fail = |what: String| Err(InvariantViolation { what });
        if let Some((block, c)) = self.store.iter().next() {
            return fail(format!("{block}: a baseline's block store names {c}"));
        }
        let resident = self.resident_lines();
        let mut entries = home.table.iter().peekable();
        let mut holders: Vec<usize> = Vec::new();
        let mut rest = &resident[..];
        loop {
            let block = match (rest.first(), entries.peek()) {
                (Some(&(b, ..)), Some(&(e, _))) => b.min(e),
                (Some(&(b, ..)), None) => b,
                (None, Some(&(e, _))) => e,
                (None, None) => return Ok(()),
            };
            let held = rest.iter().take_while(|&&(b, ..)| b == block).count();
            let (group, tail) = rest.split_at(held);
            rest = tail;
            let entry = home.table.get(block);
            entries.next_if(|&(e, _)| e == block);

            holders.clear();
            for &(_, c, line) in group {
                if line.validity != Validity::UnOwned || line.modified {
                    return fail(format!("{block}: C{c}'s line is not a plain copy"));
                }
                holders.push(c);
            }
            if !entry.sharers.iter().eq(holders.iter().copied()) {
                let sharers: Vec<usize> = entry.sharers.iter().collect();
                return fail(format!(
                    "{block}: home sharers {sharers:?} != copies {holders:?}"
                ));
            }
            let newest = match entry.writer {
                Some(w) => {
                    if !holders.contains(&w) {
                        return fail(format!("{block}: writer C{w} holds no copy"));
                    }
                    if home.protocol == Baseline::DirectoryInvalidate && holders != [w] {
                        return fail(format!(
                            "{block}: writer C{w} is not the only holder of {holders:?}"
                        ));
                    }
                    let line = group.iter().find(|&&(_, c, _)| c == w).expect("held");
                    line.2.data.words()
                }
                None => self.memory.read_block(block),
            };
            for &(_, c, line) in group {
                if line.data.words() != newest {
                    return fail(format!("{block}: C{c}'s copy is stale"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use tmc_memsys::{BlockData, CacheGeometry, CacheId, WordAddr};
    use tmc_simcore::SimRng;

    use super::*;
    use crate::config::{ModePolicy, SystemConfig};

    impl System {
        /// The sweep as it was before it followed resident state: every
        /// known block probed in every cache. Kept as the reference the
        /// production sweep must agree with, violation for violation.
        fn check_invariants_reference(&self) -> Result<(), InvariantViolation> {
            let fail = |what: String| Err(InvariantViolation { what });

            let mut blocks: BTreeSet<BlockAddr> = self.store.iter().map(|(b, _)| b).collect();
            for cache in &self.caches {
                blocks.extend(cache.iter().map(|(b, _)| b));
            }
            let mut claims = EntryClaims::new(&self.owners)?;

            for block in blocks {
                let mut owners: Vec<usize> = Vec::new();
                let mut valid_holders: Vec<usize> = Vec::new();
                let mut invalid_holders: Vec<usize> = Vec::new();
                for (c, cache) in self.caches.iter().enumerate() {
                    if let Some(line) = cache.peek(block) {
                        match line.validity {
                            Validity::Owned => {
                                owners.push(c);
                                valid_holders.push(c);
                            }
                            Validity::UnOwned => valid_holders.push(c),
                            Validity::Invalid => invalid_holders.push(c),
                        }
                        if line.modified && !line.is_owned() {
                            return fail(format!(
                                "{block}: non-owner C{c} has the modified bit set"
                            ));
                        }
                    }
                }

                if owners.len() > 1 {
                    return fail(format!("{block}: multiple owners {owners:?}"));
                }
                let stored = self.store.owner(block).map(|c| c.port());
                match (owners.first().copied(), stored) {
                    (Some(o), Some(s)) if o != s => {
                        return fail(format!(
                            "{block}: block store says C{s} but C{o} holds the owned line"
                        ));
                    }
                    (Some(o), None) => {
                        return fail(format!(
                            "{block}: C{o} owns the block but the block store entry is invalid"
                        ));
                    }
                    (None, Some(s)) => {
                        return fail(format!(
                            "{block}: block store names C{s} but no cache holds an owned line"
                        ));
                    }
                    _ => {}
                }

                let Some(owner) = owners.first().copied() else {
                    if let Some(&c) = valid_holders.first() {
                        return fail(format!(
                            "{block}: orphan valid copy at C{c} with no owner anywhere"
                        ));
                    }
                    continue;
                };

                let line = self.caches[owner].peek(block).expect("owner line exists");
                let state = claims.claim(&self.owners, block, owner, line.entry)?;
                if !state.present.contains(owner) {
                    return fail(format!(
                        "{block}: owner C{owner}'s own present flag is clear"
                    ));
                }

                match line.mode {
                    Mode::DistributedWrite => {
                        let present: Vec<usize> = state.present.iter().collect();
                        if present != valid_holders {
                            return fail(format!(
                                "{block} (DW): present vector {present:?} != valid copies {valid_holders:?}"
                            ));
                        }
                        for &c in &valid_holders {
                            let copy = self.caches[c].peek(block).expect("listed");
                            if copy.data != line.data {
                                return fail(format!(
                                    "{block} (DW): C{c}'s copy diverges from owner C{owner}'s data"
                                ));
                            }
                        }
                    }
                    Mode::GlobalRead => {
                        if let Some(&c) = valid_holders.iter().find(|&&c| c != owner) {
                            return fail(format!(
                                "{block} (GR): C{c} holds a valid copy besides owner C{owner}"
                            ));
                        }
                        for p in state.present.iter().filter(|&p| p != owner) {
                            if !invalid_holders.contains(&p) {
                                return fail(format!(
                                    "{block} (GR): present flag for C{p} but it holds no invalid entry"
                                ));
                            }
                        }
                    }
                }
            }
            claims.finish(&self.owners)
        }
    }

    const DW: WordAddr = WordAddr::new(0x40);
    const GR: WordAddr = WordAddr::new(0x80);

    /// A healthy 4-cache machine with one block per mode: `DW` owned by C0
    /// in distributed-write mode with valid copies at C1 and C2, and `GR`
    /// owned by C3 in global-read mode with an invalid entry at C1.
    fn machine() -> (System, BlockAddr, BlockAddr) {
        let mut sys = System::new(SystemConfig::new(4)).unwrap();
        sys.write(0, DW, 7).unwrap();
        sys.set_mode(0, DW, Mode::DistributedWrite).unwrap();
        sys.read(1, DW).unwrap();
        sys.read(2, DW).unwrap();
        sys.write(3, GR, 9).unwrap();
        sys.read(1, GR).unwrap();
        let (dw, gr) = (sys.cfg.spec.block_of(DW), sys.cfg.spec.block_of(GR));
        assert!(sys.caches[0].peek(dw).unwrap().is_owned());
        assert_eq!(sys.caches[2].peek(dw).unwrap().validity, Validity::UnOwned);
        assert_eq!(sys.caches[1].peek(gr).unwrap().validity, Validity::Invalid);
        assert_eq!(sys.caches[3].peek(gr).unwrap().mode, Mode::GlobalRead);
        sys.check_invariants().unwrap();
        (sys, dw, gr)
    }

    /// Corrupts a healthy machine and returns the violation both sweeps
    /// report (asserting they report the same one).
    fn violation(corrupt: impl FnOnce(&mut System, BlockAddr, BlockAddr)) -> String {
        let (mut sys, dw, gr) = machine();
        corrupt(&mut sys, dw, gr);
        let got = sys.check_invariants();
        assert_eq!(got, sys.check_invariants_reference());
        got.unwrap_err().what
    }

    #[test]
    fn two_owners() {
        let what = violation(|sys, dw, _| {
            sys.caches[1].peek_mut(dw).unwrap().validity = Validity::Owned;
        });
        assert_eq!(what, "b0x10: multiple owners [0, 1]");
    }

    #[test]
    fn block_store_names_another_cache() {
        let what = violation(|sys, dw, _| sys.store.set_owner(dw, CacheId(2)));
        assert_eq!(
            what,
            "b0x10: block store says C2 but C0 holds the owned line"
        );
    }

    #[test]
    fn owner_without_store_entry() {
        let what = violation(|sys, dw, _| sys.store.clear(dw));
        assert_eq!(
            what,
            "b0x10: C0 owns the block but the block store entry is invalid"
        );
    }

    #[test]
    fn store_entry_without_owner() {
        // A block no cache holds at all: only the store knows it.
        let what = violation(|sys, _, _| sys.store.set_owner(BlockAddr::new(0x15), CacheId(1)));
        assert_eq!(
            what,
            "b0x15: block store names C1 but no cache holds an owned line"
        );
    }

    #[test]
    fn orphan_valid_copy() {
        let what = violation(|sys, dw, _| {
            sys.caches[0].remove(dw);
            sys.store.clear(dw);
        });
        assert_eq!(
            what,
            "b0x10: orphan valid copy at C1 with no owner anywhere"
        );
    }

    /// The owner state `c`'s line of `block` names.
    fn owner_state(sys: &mut System, c: usize, block: BlockAddr) -> &mut OwnerState {
        let entry = sys.caches[c].peek(block).unwrap().entry;
        &mut sys.owners[entry]
    }

    #[test]
    fn owner_present_flag_clear() {
        let what = violation(|sys, dw, _| {
            owner_state(sys, 0, dw).present.remove(0);
        });
        assert_eq!(what, "b0x10: owner C0's own present flag is clear");
    }

    #[test]
    fn dw_present_vector_misses_a_holder() {
        let what = violation(|sys, dw, _| {
            owner_state(sys, 0, dw).present.remove(2);
        });
        assert_eq!(
            what,
            "b0x10 (DW): present vector [0, 1] != valid copies [0, 1, 2]"
        );
    }

    #[test]
    fn dw_copy_data_diverges() {
        let what = violation(|sys, dw, _| {
            sys.caches[2].peek_mut(dw).unwrap().data.set_word(0, 0xBAD);
        });
        assert_eq!(what, "b0x10 (DW): C2's copy diverges from owner C0's data");
    }

    #[test]
    fn gr_second_valid_copy() {
        let what = violation(|sys, _, gr| {
            sys.caches[1].peek_mut(gr).unwrap().validity = Validity::UnOwned;
        });
        assert_eq!(what, "b0x20 (GR): C1 holds a valid copy besides owner C3");
    }

    #[test]
    fn gr_present_flag_without_invalid_entry() {
        let what = violation(|sys, _, gr| {
            owner_state(sys, 3, gr).present.insert(2);
        });
        assert_eq!(
            what,
            "b0x20 (GR): present flag for C2 but it holds no invalid entry"
        );
    }

    #[test]
    fn two_owners_share_an_entry() {
        let what = violation(|sys, dw, gr| {
            let shared = sys.caches[0].peek(dw).unwrap().entry;
            sys.caches[3].peek_mut(gr).unwrap().entry = shared;
        });
        assert_eq!(
            what,
            "b0x20: owner C3's line names entry 0, which another owned line holds"
        );
    }

    #[test]
    fn an_entry_leaked_on_a_handoff() {
        // A handoff that gave the new owner a copy of the state in a fresh
        // entry, and never freed the entry it came from.
        let what = violation(|sys, dw, _| {
            let state = owner_state(sys, 0, dw).clone();
            let fresh = sys.owners.take(state);
            sys.caches[0].peek_mut(dw).unwrap().entry = fresh;
        });
        assert_eq!(what, "owner table: 3 live entries for 2 owned lines");
    }

    #[test]
    fn an_owner_on_a_freed_entry() {
        let what = violation(|sys, _, gr| {
            let entry = sys.caches[3].peek(gr).unwrap().entry;
            sys.owners.free(entry);
        });
        assert_eq!(what, "b0x20: owner C3's line names entry 1, which is free");
    }

    #[test]
    fn modified_bit_on_non_owner() {
        let what = violation(|sys, dw, _| {
            sys.caches[1].peek_mut(dw).unwrap().modified = true;
        });
        assert_eq!(what, "b0x10: non-owner C1 has the modified bit set");
    }

    /// A random machine: small caches so replacement runs, a mix of reads,
    /// writes and mode switches over a footprint a few times the capacity.
    fn random_machine(rng: &mut SimRng) -> System {
        let n = 1usize << rng.gen_range(1..=4u32);
        let policy = match rng.gen_range(0..3u32) {
            0 => ModePolicy::Fixed(Mode::DistributedWrite),
            1 => ModePolicy::Fixed(Mode::GlobalRead),
            _ => ModePolicy::Adaptive { window: 4 },
        };
        let cfg = SystemConfig::new(n)
            .geometry(CacheGeometry::new(2, 2))
            .mode_policy(policy);
        let mut sys = System::new(cfg).unwrap();
        for _ in 0..rng.gen_range(0..120usize) {
            let proc = rng.gen_range(0..n);
            let addr = WordAddr::new(rng.gen_range(0..48u64));
            match rng.gen_range(0..8u32) {
                0..=3 => drop(sys.read(proc, addr).unwrap()),
                4..=6 => sys.write(proc, addr, rng.next_u64()).unwrap(),
                _ => {
                    let mode = if rng.gen_bool(0.5) {
                        Mode::DistributedWrite
                    } else {
                        Mode::GlobalRead
                    };
                    // Only the owner may switch; a refusal changes nothing.
                    let _ = sys.set_mode(proc, addr, mode);
                }
            }
        }
        sys
    }

    /// Flips one field of one resident line, or one block-store entry.
    fn corrupt_one_field(sys: &mut System, rng: &mut SimRng) {
        let n = sys.caches.len();
        let resident: Vec<(usize, BlockAddr)> = sys
            .caches
            .iter()
            .enumerate()
            .flat_map(|(c, cache)| cache.iter().map(move |(b, _)| (c, b)))
            .collect();
        let Some(&(c, block)) = rng.choose(&resident) else {
            sys.store
                .set_owner(BlockAddr::new(rng.gen_range(0..8u64)), CacheId(0));
            return;
        };
        let other = rng.gen_range(0..n);
        let line = sys.caches[c].peek_mut(block).unwrap();
        let state = line.is_owned().then_some(line.entry);
        match rng.gen_range(0..7u32) {
            0 => {
                line.validity = match line.validity {
                    Validity::Owned => Validity::UnOwned,
                    Validity::UnOwned => Validity::Invalid,
                    Validity::Invalid => Validity::Owned,
                }
            }
            1 => line.modified = !line.modified,
            2 => {
                // A line that owns nothing has no present vector to flip.
                if let Some(entry) = state {
                    let present = &mut sys.owners[entry].present;
                    if !present.remove(other) {
                        present.insert(other);
                    }
                }
            }
            3 => line.data.set_word(0, line.data.word(0) ^ 1),
            4 => {
                line.mode = match line.mode {
                    Mode::DistributedWrite => Mode::GlobalRead,
                    Mode::GlobalRead => Mode::DistributedWrite,
                }
            }
            5 => sys.store.clear(block),
            _ => sys.store.set_owner(block, CacheId(other as u16)),
        }
    }

    #[test]
    fn sweep_agrees_with_reference_on_random_machines() {
        let mut rng = SimRng::seed_from(0x1A7_5EED);
        let mut violations = 0;
        for _ in 0..300 {
            let mut sys = random_machine(&mut rng);
            assert_eq!(sys.check_invariants(), Ok(()));
            assert_eq!(sys.check_invariants_reference(), Ok(()));
            corrupt_one_field(&mut sys, &mut rng);
            let got = sys.check_invariants();
            assert_eq!(got, sys.check_invariants_reference());
            violations += usize::from(got.is_err());
        }
        // Most single-field corruptions break an invariant (a few are
        // benign, e.g. a data flip on an invalid entry).
        assert!(violations >= 150, "only {violations} of 300 detected");
    }

    /// A baseline machine with block 0 shared by C0 and C1 and block 1
    /// written by C2, checked after `corrupt`.
    fn baseline_violation(protocol: Baseline, corrupt: impl FnOnce(&mut System)) -> String {
        let cfg = SystemConfig::new(4).block_spec(tmc_memsys::BlockSpec::new(0));
        let mut sys = System::baseline(cfg, protocol).unwrap();
        sys.write(0, WordAddr::new(0), 7).unwrap();
        sys.read(1, WordAddr::new(0)).unwrap();
        sys.write(2, WordAddr::new(1), 9).unwrap();
        assert_eq!(sys.check_invariants(), Ok(()));
        corrupt(&mut sys);
        sys.check_invariants().unwrap_err().what
    }

    fn home(sys: &mut System) -> &mut Home {
        sys.home.as_deref_mut().unwrap()
    }

    #[test]
    fn baseline_home_violations_are_caught() {
        let (b0, b1) = (BlockAddr::new(0), BlockAddr::new(1));
        let dir = Baseline::DirectoryInvalidate;
        let what = baseline_violation(dir, |sys| {
            home(sys).table.entry(b0).sharers.remove(1);
        });
        assert_eq!(what, "b0x0: home sharers [0] != copies [0, 1]");
        let what = baseline_violation(dir, |sys| home(sys).table.entry(b0).writer = Some(0));
        assert_eq!(what, "b0x0: writer C0 is not the only holder of [0, 1]");
        let what = baseline_violation(dir, |sys| home(sys).table.entry(b1).writer = Some(3));
        assert_eq!(what, "b0x1: writer C3 holds no copy");
        // Update-only: a writer shares, but every copy must match it.
        let upd = Baseline::UpdateOnly;
        let what = baseline_violation(upd, |sys| {
            home(sys).table.entry(b0).writer = Some(0);
            sys.caches[1].peek_mut(b0).unwrap().data.set_word(0, 8);
        });
        assert_eq!(what, "b0x0: C1's copy is stale");
        // No writer: memory must be current.
        let what = baseline_violation(dir, |sys| home(sys).table.entry(b1).writer = None);
        assert_eq!(what, "b0x1: C2's copy is stale");
        let what = baseline_violation(upd, |sys| {
            sys.caches[3].insert(b1, CacheLine::copy(BlockData::zeroed(1)));
        });
        assert_eq!(what, "b0x1: home sharers [2] != copies [2, 3]");
        let what = baseline_violation(dir, |sys| sys.store.set_owner(b0, CacheId(0)));
        assert_eq!(what, "b0x0: a baseline's block store names C0");
    }
}
