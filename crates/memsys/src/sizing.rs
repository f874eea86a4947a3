//! Message-size accounting.
//!
//! The paper's cost analysis treats the message size `M` as a parameter; the
//! network then adds routing-tag bits per stage. `MsgSizing` is where a
//! simulated system states how many payload bits each protocol message
//! carries. The network layer ([`tmc-omeganet`]) adds tag bits itself, so
//! these sizes are pure payload.
//!
//! [`tmc-omeganet`]: ../tmc_omeganet/index.html

/// Payload sizes for every message family a protocol can send.
///
/// # Example
///
/// ```
/// use tmc_memsys::MsgSizing;
///
/// let s = MsgSizing::default();
/// // A block transfer carries the address, control bits and the data words.
/// assert_eq!(
///     s.block_transfer_bits(),
///     s.control_bits + s.addr_bits + (s.block_words as u64) * s.word_bits
/// );
/// // The paper's distributed state field: N + log2(N) + 4 bits.
/// assert_eq!(s.state_field_bits(64), 64 + 6 + 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgSizing {
    /// Bits of a block identification (address).
    pub addr_bits: u64,
    /// Bits per data word.
    pub word_bits: u64,
    /// Words per block.
    pub block_words: usize,
    /// Opcode/framing bits on every message.
    pub control_bits: u64,
}

impl Default for MsgSizing {
    /// A small, paper-plausible configuration: 32-bit addresses and words,
    /// 4-word blocks, 4 control bits.
    fn default() -> Self {
        MsgSizing {
            addr_bits: 32,
            word_bits: 32,
            block_words: 4,
            control_bits: 4,
        }
    }
}

impl MsgSizing {
    /// Bits of one whole block of data.
    pub fn block_data_bits(&self) -> u64 {
        self.block_words as u64 * self.word_bits
    }

    /// Bits of the word offset within a block.
    pub fn offset_bits(&self) -> u64 {
        (usize::BITS - (self.block_words - 1).leading_zeros()).max(1) as u64
    }

    /// The paper's per-line state field for an `n_caches`-cache machine:
    /// V + O + M + DW (4 bits) + present vector (`n_caches` bits) +
    /// OWNER (`log₂ n_caches` bits).
    pub fn state_field_bits(&self, n_caches: usize) -> u64 {
        assert!(
            n_caches.is_power_of_two(),
            "cache count must be a power of two"
        );
        4 + n_caches as u64 + n_caches.trailing_zeros() as u64
    }

    /// A request carrying only an address (load request, ownership request,
    /// presence-clear, replacement notice).
    pub fn request_bits(&self) -> u64 {
        self.control_bits + self.addr_bits
    }

    /// A single-datum reply (global-read mode).
    pub fn datum_bits(&self) -> u64 {
        self.control_bits + self.word_bits
    }

    /// A whole-block transfer (load reply, write-back).
    pub fn block_transfer_bits(&self) -> u64 {
        self.control_bits + self.addr_bits + self.block_data_bits()
    }

    /// A state-field transfer (ownership handover without data).
    pub fn state_transfer_bits(&self, n_caches: usize) -> u64 {
        self.control_bits + self.addr_bits + self.state_field_bits(n_caches)
    }

    /// A block + state-field transfer (ownership handover with data).
    pub fn block_and_state_bits(&self, n_caches: usize) -> u64 {
        self.block_transfer_bits() + self.state_field_bits(n_caches)
    }

    /// A distributed write: address, word offset and the new value.
    pub fn update_bits(&self) -> u64 {
        self.control_bits + self.addr_bits + self.offset_bits() + self.word_bits
    }

    /// An invalidation (address only).
    pub fn invalidate_bits(&self) -> u64 {
        self.request_bits()
    }

    /// A new-owner announcement: address plus the owner id.
    pub fn new_owner_bits(&self, n_caches: usize) -> u64 {
        assert!(
            n_caches.is_power_of_two(),
            "cache count must be a power of two"
        );
        self.control_bits + self.addr_bits + n_caches.trailing_zeros() as u64
    }

    /// A bare acknowledgement (positive or negative).
    pub fn ack_bits(&self) -> u64 {
        self.control_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let s = MsgSizing::default();
        assert_eq!(s.block_data_bits(), 128);
        assert_eq!(s.offset_bits(), 2);
        assert_eq!(s.request_bits(), 36);
        assert_eq!(s.datum_bits(), 36);
        assert_eq!(s.block_transfer_bits(), 164);
        assert_eq!(s.update_bits(), 4 + 32 + 2 + 32);
        assert_eq!(s.ack_bits(), 4);
    }

    #[test]
    fn state_field_matches_paper_formula() {
        let s = MsgSizing::default();
        for n in [2usize, 16, 256, 1024] {
            assert_eq!(
                s.state_field_bits(n),
                4 + n as u64 + (n as u64).trailing_zeros() as u64
            );
        }
        assert_eq!(s.new_owner_bits(1024), 4 + 32 + 10);
        assert_eq!(
            s.block_and_state_bits(16),
            s.block_transfer_bits() + s.state_field_bits(16)
        );
        assert_eq!(s.state_transfer_bits(16), 36 + s.state_field_bits(16));
    }

    #[test]
    fn single_word_blocks_still_have_an_offset_bit() {
        let s = MsgSizing {
            block_words: 1,
            ..MsgSizing::default()
        };
        assert_eq!(s.offset_bits(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn state_field_rejects_odd_cache_counts() {
        MsgSizing::default().state_field_bits(12);
    }
}
