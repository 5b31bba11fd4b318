//! Property-based tests of the set-associative cache against a naive
//! reference model.
//!
//! The cache keeps presence only, so the model compares the victims of
//! fills and the presence of blocks, which an invalidation reports. Writebacks are the coherence
//! tracker's decision; `crates/sim/tests/l2_evictions.rs` pins them.

use std::collections::HashMap;

use proptest::prelude::*;

use dsp_cache::{CacheConfig, SetAssocCache};
use dsp_types::BlockAddr;

/// A deliberately naive reference: explicit per-set LRU lists, sharing
/// no code with the real implementation.
struct ReferenceCache {
    ways: usize,
    sets: u64,
    lru: HashMap<u64, Vec<u64>>, // set -> blocks, most recent last
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        ReferenceCache {
            ways: config.ways(),
            sets: config.num_sets(),
            lru: HashMap::new(),
        }
    }

    fn set(&mut self, block: u64) -> &mut Vec<u64> {
        self.lru.entry(block % self.sets).or_default()
    }

    fn fill(&mut self, block: u64) -> Option<u64> {
        let ways = self.ways;
        let list = self.set(block);
        if let Some(i) = list.iter().position(|b| *b == block) {
            list.remove(i);
            list.push(block);
            return None;
        }
        let victim = (list.len() >= ways).then(|| list.remove(0));
        list.push(block);
        victim
    }

    fn invalidate(&mut self, block: u64) -> bool {
        let list = self.set(block);
        let present = list.contains(&block);
        list.retain(|b| *b != block);
        present
    }
}

#[derive(Clone, Debug)]
enum Op {
    Fill(u64),
    Invalidate(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..64).prop_map(Op::Fill),
            (0u64..64).prop_map(Op::Invalidate),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The real cache behaves exactly like the reference model: same
    /// victims, same presence.
    #[test]
    fn matches_reference_model(ops in ops()) {
        // 16 blocks, 2-way, 64B: small enough to stress replacement.
        let config = CacheConfig::new(1024, 2, 64);
        let mut real = SetAssocCache::new(config);
        let mut reference = ReferenceCache::new(config);
        for op in ops {
            match op {
                Op::Fill(b) => {
                    let real_victim = real.fill(BlockAddr::new(b)).map(|v| v.number());
                    prop_assert_eq!(real_victim, reference.fill(b));
                }
                Op::Invalidate(b) => {
                    prop_assert_eq!(real.invalidate(BlockAddr::new(b)), reference.invalidate(b));
                }
            }
        }
        // Invalidating every block reads out the final contents.
        for b in 0..64 {
            prop_assert_eq!(real.invalidate(BlockAddr::new(b)), reference.invalidate(b));
        }
    }

    /// The cache never exceeds its capacity, and a fill always leaves
    /// its block present.
    #[test]
    fn capacity_invariant(ops in ops()) {
        let config = CacheConfig::new(512, 4, 64); // 8 blocks
        let mut cache = SetAssocCache::new(config);
        for op in ops {
            match op {
                Op::Fill(b) => {
                    let block = BlockAddr::new(b);
                    let _ = cache.fill(block);
                    // Present: invalidation finds it, and refilling the
                    // freed way puts it back as most recently used.
                    prop_assert!(cache.invalidate(block));
                    prop_assert_eq!(cache.fill(block), None);
                }
                Op::Invalidate(b) => {
                    let _ = cache.invalidate(BlockAddr::new(b));
                }
            }
        }
        let held = (0..64)
            .filter(|&b| cache.invalidate(BlockAddr::new(b)))
            .count();
        prop_assert!(held as u64 <= config.capacity_blocks());
    }
}
