//! Cache geometry configuration.

use serde::{Deserialize, Serialize};

use dsp_types::BLOCK_BYTES;

/// Geometry of one cache: capacity, associativity, block size.
///
/// # Example
///
/// ```
/// use dsp_cache::CacheConfig;
///
/// let l2 = CacheConfig::isca03_l2();
/// assert_eq!(l2.capacity_bytes(), 4 << 20);
/// assert_eq!(l2.ways(), 4);
/// assert_eq!(l2.num_sets(), 16384);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    capacity_bytes: u64,
    ways: usize,
    block_bytes: u64,
}

impl CacheConfig {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless capacity and block size are powers of two, the
    /// associativity is nonzero, and the capacity holds at least one
    /// full set.
    pub fn new(capacity_bytes: u64, ways: usize, block_bytes: u64) -> Self {
        assert!(
            capacity_bytes.is_power_of_two(),
            "capacity must be a power of two"
        );
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(ways > 0, "associativity must be nonzero");
        assert!(
            capacity_bytes >= block_bytes * ways as u64,
            "capacity smaller than one set"
        );
        CacheConfig {
            capacity_bytes,
            ways,
            block_bytes,
        }
    }

    /// Paper Table 4 L2: 4 MB, 4-way, 64 B blocks.
    pub fn isca03_l2() -> Self {
        CacheConfig::new(4 << 20, 4, BLOCK_BYTES)
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_bytes / self.block_bytes
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.capacity_blocks() / self.ways as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca03_l2_matches_table4() {
        let l2 = CacheConfig::isca03_l2();
        assert_eq!(l2.capacity_bytes(), 4 * 1024 * 1024);
        assert_eq!(l2.ways(), 4);
        assert_eq!(l2.block_bytes(), 64);
        assert_eq!(l2.capacity_blocks(), 65536);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_capacity() {
        let _ = CacheConfig::new(3000, 4, 64);
    }

    #[test]
    #[should_panic(expected = "smaller than one set")]
    fn rejects_capacity_below_one_set() {
        let _ = CacheConfig::new(128, 4, 64);
    }
}
