//! The set-associative cache structure.

use dsp_types::{BlockAddr, SetAssoc};

use crate::config::CacheConfig;

/// A set-associative, LRU cache indexed by block address, tracking which
/// blocks are present.
///
/// This structure moves no data and keeps no coherence state: the
/// global tracker owns every block's MOSI state and decides whether an
/// evicted line is written back. The cache decides only *which* line a
/// fill evicts. Lines live in a [`SetAssoc`] store, the same structure
/// behind the finite predictor tables.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    lines: SetAssoc<()>,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        SetAssocCache {
            lines: SetAssoc::new(config.num_sets() as usize, config.ways()),
        }
    }

    /// Makes `block` present and most recently used, returning the LRU
    /// line its set evicted if the set was full.
    pub fn fill(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let key = block.number();
        if self.lines.get(key).is_some() {
            return None;
        }
        self.lines.insert(key, ()).map(BlockAddr::new)
    }

    /// Drops `block` (an external invalidation), returning whether it
    /// was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        self.lines.remove(block.number())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 8 blocks, 2-way, 64B: 4 sets.
        SetAssocCache::new(CacheConfig::new(512, 2, 64))
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Blocks 0, 4, 8 all map to set 0 (4 sets).
        assert_eq!(c.fill(b(0)), None);
        assert_eq!(c.fill(b(4)), None);
        assert_eq!(c.fill(b(0)), None, "a refill refreshes recency"); // 4 is LRU
        assert_eq!(c.fill(b(8)), Some(b(4)));
        assert!(!c.invalidate(b(4)));
        assert!(c.invalidate(b(0)) && c.invalidate(b(8)));
    }

    #[test]
    fn invalidate_drops_only_present_lines() {
        let mut c = small();
        c.fill(b(1));
        assert!(c.invalidate(b(1)));
        assert!(!c.invalidate(b(1)));
        // Set 1 is empty again: two fills evict nothing.
        assert_eq!(c.fill(b(5)), None);
        assert_eq!(c.fill(b(9)), None);
    }

    #[test]
    fn victim_block_address_reconstruction() {
        let mut c = small();
        // 1003, 1007, 1011 all map to set 3 (block % 4): 2 ways.
        c.fill(b(1003));
        c.fill(b(1007));
        assert_eq!(c.fill(b(1011)), Some(b(1003)));
    }
}
