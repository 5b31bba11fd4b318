//! The seed `HashMap`-backed tracker, kept as the semantic reference.
//!
//! [`ReferenceTracker`] preserves the original implementation of
//! [`CoherenceTracker`](crate::CoherenceTracker) byte for byte in
//! behavior: block state in a `std::collections::HashMap` (SipHash) and
//! the original classify → state → entry probe sequence in `access`.
//! It exists for the equivalence property tests, which assert the fast
//! open-addressing tracker is observationally equivalent to this model
//! across arbitrary access/evict sequences.
//!
//! Protocol semantics (the `reconcile` function) are shared with the
//! fast tracker, so the two can only diverge in state storage — which
//! is exactly the part the equivalence tests pin down.

use std::collections::HashMap;

use dsp_types::{BlockAddr, DestSet, NodeId, Owner, ReqType, SystemConfig};

use crate::miss::MissInfo;
use crate::tracker::{reconcile, BlockState, Eviction, TrackerStats};

/// `HashMap`-backed MOSI tracker with the seed lookup sequence.
///
/// See [`CoherenceTracker`](crate::CoherenceTracker) for the semantics;
/// this type mirrors its API.
#[derive(Clone, Debug)]
pub struct ReferenceTracker<const W: usize = 4> {
    num_nodes: usize,
    blocks: HashMap<u64, BlockState<W>>,
    stats: TrackerStats,
}

impl<const W: usize> ReferenceTracker<W> {
    /// Creates a tracker for systems described by `config`.
    pub fn new(config: &SystemConfig) -> Self {
        ReferenceTracker {
            num_nodes: config.num_nodes(),
            blocks: HashMap::new(),
            stats: TrackerStats::default(),
        }
    }

    /// Number of nodes in the system.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Current state of `block`.
    pub fn state(&self, block: BlockAddr) -> BlockState<W> {
        self.blocks
            .get(&block.number())
            .copied()
            .unwrap_or_default()
    }

    /// Number of blocks with recorded state.
    pub fn tracked_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> TrackerStats {
        self.stats
    }

    /// Classifies the miss without mutating state.
    pub fn classify(&self, requester: NodeId, req: ReqType, block: BlockAddr) -> MissInfo<W> {
        let state = self.state(block);
        let (owner_before, sharers_before, was_upgrade) = reconcile(state, requester, req);
        MissInfo {
            block,
            requester,
            req,
            home: block.home(self.num_nodes),
            owner_before,
            sharers_before,
            was_upgrade,
        }
    }

    /// Classifies the miss and applies the MOSI transition, probing the
    /// map three times (classify → state → entry) exactly as the seed
    /// implementation did.
    pub fn access(&mut self, requester: NodeId, req: ReqType, block: BlockAddr) -> MissInfo<W> {
        let info = self.classify(requester, req, block);
        let stale = self.state(block);
        if stale.owner == Owner::Node(requester) && !info.was_upgrade {
            self.stats.implicit_writebacks += 1;
        }
        let entry = self.blocks.entry(block.number()).or_default();
        match req {
            ReqType::GetShared => {
                entry.owner = info.owner_before;
                entry.sharers = info.sharers_before.with(requester);
                if let Owner::Node(o) = entry.owner {
                    entry.sharers.remove(o);
                }
            }
            ReqType::GetExclusive => {
                entry.owner = Owner::Node(requester);
                entry.sharers = DestSet::empty();
            }
        }
        self.stats.misses += 1;
        if info.is_directory_indirection() {
            self.stats.directory_indirections += 1;
        }
        if info.is_cache_to_cache() {
            self.stats.cache_to_cache += 1;
        }
        if info.was_upgrade {
            self.stats.upgrades += 1;
        }
        info
    }

    /// Explicitly evicts `node`'s copy of `block`.
    pub fn evict(&mut self, node: NodeId, block: BlockAddr) -> Eviction {
        match self.blocks.get_mut(&block.number()) {
            None => Eviction::None,
            Some(entry) => {
                if entry.owner == Owner::Node(node) {
                    entry.owner = Owner::Memory;
                    Eviction::Writeback
                } else if entry.sharers.remove(node) {
                    Eviction::SilentDrop
                } else {
                    Eviction::None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_documented_semantics() {
        let mut t: ReferenceTracker = ReferenceTracker::new(&SystemConfig::isca03());
        let b = BlockAddr::new(0);
        t.access(NodeId::new(1), ReqType::GetExclusive, b);
        let info = t.access(NodeId::new(2), ReqType::GetShared, b);
        assert!(info.is_cache_to_cache());
        assert_eq!(t.state(b).owner, Owner::Node(NodeId::new(1)));
        assert_eq!(t.state(b).sharers, DestSet::single(NodeId::new(2)));
        assert_eq!(t.stats().misses, 2);
        assert_eq!(t.tracked_blocks(), 1);
        assert_eq!(t.num_nodes(), 16);
    }
}
