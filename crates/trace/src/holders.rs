//! Lightweight MOSI holder tracking used by the generator.
//!
//! The generator keeps its own view of which caches hold each block so
//! the miss stream it emits is *coherence-consistent*: a processor never
//! "misses" on a block it demonstrably still holds with sufficient
//! permission (unless the generator deliberately models an eviction).
//! This mirrors, in miniature, the global MOSI tracking that
//! `dsp-coherence` performs downstream, but stays private to trace
//! generation so the crate graph remains a clean DAG. Blocks are indexed
//! densely (see the generator), so the state lives in flat zero-allocated
//! arrays: only the pages of blocks the stream touches become resident.

use dsp_types::{AccessKind, DestSet, NodeId, Owner};

/// Who currently holds a block, from the generator's point of view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Holders {
    /// The owner (cache in M/O, or memory).
    pub owner: Owner,
    /// Caches holding Shared copies (excluding the owner).
    pub sharers: DestSet,
}

/// Holders of blocks `0..blocks`: each block's owner (0 = memory,
/// `n + 1` = the cache of node `n`) and its sharer bitmask of `words`
/// words (bit *i* of word *i / 64* = node *i*).
#[derive(Debug)]
pub(crate) struct HolderTable {
    owners: Vec<u16>,
    sharers: Vec<u64>,
    words: usize,
}

impl HolderTable {
    /// A table of `blocks` memory-owned blocks on a `nodes`-node machine.
    pub(crate) fn new(blocks: usize, nodes: usize) -> Self {
        let words = nodes.div_ceil(64);
        HolderTable {
            owners: vec![0; blocks],
            sharers: vec![0; blocks * words],
            words,
        }
    }

    /// The positions of `block`'s sharer words in `sharers`.
    fn row(&self, block: usize) -> std::ops::Range<usize> {
        block * self.words..(block + 1) * self.words
    }

    /// The cache owning `block`, or `None` if memory owns it.
    pub(crate) fn owner(&self, block: usize) -> Option<NodeId> {
        let code = usize::from(self.owners[block]);
        code.checked_sub(1).map(NodeId::new)
    }

    /// Whether `node` holds any copy of `block`.
    pub(crate) fn can_read(&self, block: usize, node: NodeId) -> bool {
        let i = node.index();
        self.owner(block) == Some(node)
            || self.sharers[self.row(block)][i / 64] >> (i % 64) & 1 != 0
    }

    /// The holders of `block`.
    pub(crate) fn get(&self, block: usize) -> Holders {
        let mut words = [0; 4];
        words[..self.words].copy_from_slice(&self.sharers[self.row(block)]);
        Holders {
            owner: self.owner(block).map_or(Owner::Memory, Owner::Node),
            sharers: DestSet::from_words(words),
        }
    }

    /// Applies a miss by `node` with `kind` to `block` (MOSI, with
    /// implicit eviction of the requester's stale copy, since a miss
    /// implies the requester no longer holds it):
    ///
    /// * Load: requester joins the sharers; an owner that is not the
    ///   requester demotes M to O, an owning requester wrote back first.
    /// * Store: requester becomes the M owner; all other copies die.
    pub(crate) fn apply(&mut self, block: usize, node: NodeId, kind: AccessKind) {
        let (i, code, row) = (node.index(), node.index() as u16 + 1, self.row(block));
        match kind {
            AccessKind::Load => {
                if self.owners[block] == code {
                    self.owners[block] = 0;
                }
                self.sharers[row][i / 64] |= 1 << (i % 64);
            }
            AccessKind::Store => {
                self.owners[block] = code;
                self.sharers[row].fill(0);
            }
        }
    }
}
