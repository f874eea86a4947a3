//! Block payloads.
//!
//! Blocks carry real word values so every protocol in the workspace can be
//! checked for *value-level* coherence against the program-order oracle, not
//! just for state-machine plausibility.
//!
//! A [`BlockData`] keeps up to four words inline, the paper's block: 40
//! bytes with the length, which a cache line carries by value. The five
//! benchmark workloads, the golden scenarios and the paper outputs use
//! 4-word blocks. The conformance fuzzer draws 8-word blocks in about one
//! case in four, and one corpus reproducer and a few tests use them too.
//! A block of more than four words spills to the heap, so each fill,
//! transfer and clone of it allocates (docs/PERFORMANCE.md, "A cache line
//! as §5 lays it out", measures what that costs).

/// The data portion of one block: `words_per_block` 64-bit words.
///
/// # Example
///
/// ```
/// use tmc_memsys::BlockData;
///
/// let mut b = BlockData::zeroed(4);
/// b.set_word(2, 0xdead);
/// assert_eq!(b.word(2), 0xdead);
/// assert_eq!(b.word(0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockData {
    words: Words,
}

/// Words a block stores inline: the paper's 4-word block (the default
/// spec), so the protocol hot path — block fills, ownership transfers,
/// writebacks — copies a fixed array instead of allocating. Larger blocks
/// (8 words in about a quarter of the fuzzer's cases) spill to the heap.
const INLINE_WORDS: usize = 4;

/// The representation is canonical in the word count: `len ≤ INLINE_WORDS`
/// is always `Inline` (unused tail slots zeroed), so the derived
/// `PartialEq`/`Hash` agree with value equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline { words: [u64; INLINE_WORDS], len: u8 },
    Heap(Vec<u64>),
}

impl BlockData {
    /// A block of `words` zeroed words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn zeroed(words: usize) -> Self {
        assert!(words > 0, "a block holds at least one word");
        BlockData {
            words: if words <= INLINE_WORDS {
                Words::Inline {
                    words: [0; INLINE_WORDS],
                    len: words as u8,
                }
            } else {
                Words::Heap(vec![0; words])
            },
        }
    }

    /// A block initialized by copying a word slice — allocation-free for
    /// inline-sized blocks, which makes it the right fill constructor on
    /// the protocol hot path.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty.
    pub fn from_slice(words: &[u64]) -> Self {
        assert!(!words.is_empty(), "a block holds at least one word");
        if words.len() <= INLINE_WORDS {
            let mut inline = [0u64; INLINE_WORDS];
            inline[..words.len()].copy_from_slice(words);
            BlockData {
                words: Words::Inline {
                    words: inline,
                    len: words.len() as u8,
                },
            }
        } else {
            BlockData {
                words: Words::Heap(words.to_vec()),
            }
        }
    }

    /// A block initialized from explicit words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty.
    pub fn from_words(words: Vec<u64>) -> Self {
        assert!(!words.is_empty(), "a block holds at least one word");
        if words.len() <= INLINE_WORDS {
            let mut inline = [0u64; INLINE_WORDS];
            inline[..words.len()].copy_from_slice(&words);
            BlockData {
                words: Words::Inline {
                    words: inline,
                    len: words.len() as u8,
                },
            }
        } else {
            BlockData {
                words: Words::Heap(words),
            }
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        match &self.words {
            Words::Inline { len, .. } => *len as usize,
            Words::Heap(v) => v.len(),
        }
    }

    /// Always false: blocks are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reads the word at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    pub fn word(&self, offset: usize) -> u64 {
        self.words()[offset]
    }

    /// Writes the word at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    pub fn set_word(&mut self, offset: usize, value: u64) {
        let len = self.len();
        match &mut self.words {
            Words::Inline { words, .. } => {
                assert!(offset < len, "word offset out of range");
                words[offset] = value;
            }
            Words::Heap(v) => v[offset] = value,
        }
    }

    /// All words, in offset order.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline { words, len } => &words[..*len as usize],
            Words::Heap(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_then_written() {
        let mut b = BlockData::zeroed(8);
        assert_eq!(b.len(), 8);
        assert!(b.words().iter().all(|&w| w == 0));
        b.set_word(7, 42);
        assert_eq!(b.word(7), 42);
    }

    #[test]
    fn from_words_preserves_content() {
        let b = BlockData::from_words(vec![1, 2, 3]);
        assert_eq!(b.words(), &[1, 2, 3]);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn rejects_empty_blocks() {
        BlockData::zeroed(0);
    }
}
