//! The global MOSI coherence state tracker.

use serde::{Deserialize, Serialize};

use dsp_types::{BlockAddr, DestSet, NodeId, Owner, ReqType, SystemConfig};

use crate::miss::MissInfo;
use crate::table::BlockStateTable;

/// Directory-style state of one block: the owner and the sharer set.
///
/// `owner == Memory` with sharers = blocks in S only; `owner == Node(p)`
/// with empty sharers = M at `p`; with sharers = O at `p`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockState<const W: usize = 4> {
    /// Current owner (data supplier).
    pub owner: Owner,
    /// Nodes holding Shared copies (never includes the owner).
    pub sharers: DestSet<W>,
}

impl<const W: usize> BlockState<W> {
    /// All nodes holding any copy.
    pub fn holders(&self) -> DestSet<W> {
        match self.owner {
            Owner::Memory => self.sharers,
            Owner::Node(n) => self.sharers.with(n),
        }
    }
}

/// Kind of copy an eviction removed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Eviction {
    /// The evicted copy was dirty (M/O): a writeback to home occurred.
    Writeback,
    /// The evicted copy was clean (S): silently dropped.
    SilentDrop,
    /// The node held no copy; nothing happened.
    None,
}

/// Aggregate statistics maintained by the tracker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackerStats {
    /// Total misses processed.
    pub misses: u64,
    /// Misses requiring at least one other cache to observe them.
    pub directory_indirections: u64,
    /// Misses whose data came from another cache.
    pub cache_to_cache: u64,
    /// Store misses where the requester still held a Shared copy.
    pub upgrades: u64,
    /// Implicit writebacks (a dirty block's owner missed on it again,
    /// implying its copy was evicted and written back).
    pub implicit_writebacks: u64,
}

/// Global MOSI coherence state over all blocks, evaluated at the
/// interconnect ordering point.
///
/// This is the protocol-independent substrate: the same transitions
/// underlie broadcast snooping, the directory protocol, and multicast
/// snooping (they differ in *who is told*, not in what the state
/// becomes). Blocks never touched are memory-owned with no sharers.
///
/// A processor that misses on a block it still "holds" according to the
/// tracker must have evicted its copy (the trace contains only misses),
/// so [`CoherenceTracker::access`] first reconciles the requester's
/// stale copy: a dirty copy is counted as an implicit writeback, a
/// shared copy as a silent drop — except that a store miss by a node
/// still recorded as a *sharer* is an **upgrade** (GETX from S), which
/// real protocols issue without data transfer.
#[derive(Clone, Debug)]
pub struct CoherenceTracker<const W: usize = 4> {
    num_nodes: usize,
    blocks: BlockStateTable<W>,
    stats: TrackerStats,
}

impl<const W: usize> CoherenceTracker<W> {
    /// Creates a tracker for systems described by `config`.
    pub fn new(config: &SystemConfig) -> Self {
        CoherenceTracker {
            num_nodes: config.num_nodes(),
            blocks: BlockStateTable::new(),
            stats: TrackerStats::default(),
        }
    }

    /// Creates a tracker presized for roughly `expected_blocks` distinct
    /// blocks.
    ///
    /// Identical behavior to [`CoherenceTracker::new`]; the block-state
    /// table just skips its growth rehashes while the estimate holds.
    /// The timing simulator passes a quarter of its total miss count,
    /// capped at 2^15 blocks: a deliberate underestimate (a bigger
    /// zeroed allocation per run costs more than the rehashes it would
    /// save), so some growth still happens during a run.
    pub fn with_block_capacity(config: &SystemConfig, expected_blocks: usize) -> Self {
        CoherenceTracker {
            num_nodes: config.num_nodes(),
            blocks: BlockStateTable::with_capacity(expected_blocks),
            stats: TrackerStats::default(),
        }
    }

    /// Number of nodes in the system.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Current state of `block`.
    #[inline]
    pub fn state(&self, block: BlockAddr) -> BlockState<W> {
        self.blocks.get(block.number()).unwrap_or_default()
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
    ///
    /// The returned [`MissInfo`] reflects the post-reconciliation
    /// pre-state (see type docs): the requester's stale copy has been
    /// notionally evicted, except for the upgrade case.
    pub fn classify(&self, requester: NodeId, req: ReqType, block: BlockAddr) -> MissInfo<W> {
        let reconciled = reconcile(self.state(block), requester, req);
        self.info_for(reconciled, requester, req, block)
    }

    /// Builds the [`MissInfo`] for an already-reconciled pre-state.
    fn info_for(
        &self,
        (owner_before, sharers_before, was_upgrade): (Owner, DestSet<W>, bool),
        requester: NodeId,
        req: ReqType,
        block: BlockAddr,
    ) -> MissInfo<W> {
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

    /// Classifies the miss and applies the MOSI transition.
    ///
    /// Runs one combined table lookup: the pre-state read and the
    /// post-transition write share a single probe of the block-state
    /// table.
    #[inline]
    pub fn access(&mut self, requester: NodeId, req: ReqType, block: BlockAddr) -> MissInfo<W> {
        let entry = self.blocks.get_or_insert_default(block.number());
        let stale = *entry;
        let reconciled = reconcile(stale, requester, req);
        let (owner_before, sharers_before, was_upgrade) = reconciled;
        match req {
            ReqType::GetShared => {
                // Owner keeps the block (M demotes to O); requester joins
                // the sharers. An owner identical to the requester was
                // reconciled to memory.
                let mut sharers = sharers_before.with(requester);
                if let Owner::Node(o) = owner_before {
                    sharers.remove(o);
                }
                entry.owner = owner_before;
                entry.sharers = sharers;
            }
            ReqType::GetExclusive => {
                entry.owner = Owner::Node(requester);
                entry.sharers = DestSet::empty();
            }
        }
        let info = self.info_for(reconciled, requester, req, block);
        // Stats for the reconciliation.
        if stale.owner == Owner::Node(requester) && !was_upgrade {
            self.stats.implicit_writebacks += 1;
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

    /// Explicitly evicts `node`'s copy of `block` (used by the timing
    /// simulator's finite caches).
    pub fn evict(&mut self, node: NodeId, block: BlockAddr) -> Eviction {
        match self.blocks.get_mut(block.number()) {
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

/// Reconciles the requester's stale copy out of the pre-state.
///
/// Returns `(owner_before, sharers_before, was_upgrade)` where the
/// requester appears in neither owner nor sharers — except that a store
/// by a current sharer is flagged as an upgrade (its S copy is
/// invalidated by its own GETX, not evicted beforehand).
///
/// Shared with [`crate::ReferenceTracker`] so the fast tracker and the
/// reference model can only diverge in their state storage, never in
/// protocol semantics.
pub(crate) fn reconcile<const W: usize>(
    state: BlockState<W>,
    requester: NodeId,
    req: ReqType,
) -> (Owner, DestSet<W>, bool) {
    let mut owner = state.owner;
    let mut sharers = state.sharers;
    let mut was_upgrade = false;
    if owner == Owner::Node(requester) {
        // The requester's dirty copy must have been evicted + written back.
        owner = Owner::Memory;
    }
    if sharers.contains(requester) {
        if req.is_exclusive() {
            was_upgrade = true;
        }
        sharers.remove(requester);
    }
    (owner, sharers, was_upgrade)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_types::AccessKind;

    fn tracker() -> CoherenceTracker {
        CoherenceTracker::new(&SystemConfig::isca03())
    }
    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    #[test]
    fn cold_read_is_memory_sourced() {
        let mut t = tracker();
        let info = t.access(n(1), ReqType::GetShared, b(0));
        assert_eq!(info.owner_before, Owner::Memory);
        assert!(!info.is_directory_indirection());
        assert_eq!(t.state(b(0)).sharers, DestSet::single(n(1)));
    }

    #[test]
    fn write_then_read_demotes_to_owned() {
        let mut t = tracker();
        t.access(n(1), ReqType::GetExclusive, b(0));
        assert_eq!(t.state(b(0)).owner, Owner::Node(n(1)));
        let info = t.access(n(2), ReqType::GetShared, b(0));
        assert!(info.is_cache_to_cache());
        let s = t.state(b(0));
        assert_eq!(
            s.owner,
            Owner::Node(n(1)),
            "MOSI: owner keeps supplying data"
        );
        assert_eq!(s.sharers, DestSet::single(n(2)));
    }

    #[test]
    fn write_invalidates_everyone() {
        let mut t = tracker();
        t.access(n(1), ReqType::GetExclusive, b(0));
        t.access(n(2), ReqType::GetShared, b(0));
        t.access(n(3), ReqType::GetShared, b(0));
        let info = t.access(n(4), ReqType::GetExclusive, b(0));
        assert_eq!(
            info.required_observers(),
            DestSet::from_iter([n(1), n(2), n(3)])
        );
        let s = t.state(b(0));
        assert_eq!(s.owner, Owner::Node(n(4)));
        assert!(s.sharers.is_empty());
    }

    #[test]
    fn upgrade_detected_for_sharer_store() {
        let mut t = tracker();
        t.access(n(1), ReqType::GetShared, b(0));
        t.access(n(2), ReqType::GetShared, b(0));
        let info = t.access(n(1), ReqType::GetExclusive, b(0));
        assert!(info.was_upgrade);
        // The other sharer must be invalidated; memory owns, so this is
        // an invalidation-only indirection, not a cache-to-cache miss.
        assert_eq!(info.required_observers(), DestSet::single(n(2)));
        assert!(!info.is_cache_to_cache());
        assert_eq!(t.stats().upgrades, 1);
    }

    #[test]
    fn owner_re_miss_counts_implicit_writeback() {
        let mut t = tracker();
        t.access(n(1), ReqType::GetExclusive, b(0));
        let info = t.access(n(1), ReqType::GetShared, b(0));
        assert_eq!(
            info.owner_before,
            Owner::Memory,
            "owner's copy was written back"
        );
        assert!(!info.is_cache_to_cache());
        assert_eq!(t.stats().implicit_writebacks, 1);
    }

    #[test]
    fn classify_does_not_mutate() {
        let mut t = tracker();
        t.access(n(1), ReqType::GetExclusive, b(0));
        let before = t.state(b(0));
        let _ = t.classify(n(2), ReqType::GetExclusive, b(0));
        assert_eq!(t.state(b(0)), before);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn explicit_evictions() {
        let mut t = tracker();
        t.access(n(1), ReqType::GetExclusive, b(0));
        t.access(n(2), ReqType::GetShared, b(0));
        assert_eq!(t.evict(n(2), b(0)), Eviction::SilentDrop);
        assert_eq!(t.evict(n(1), b(0)), Eviction::Writeback);
        assert_eq!(t.evict(n(1), b(0)), Eviction::None);
        let s = t.state(b(0));
        assert_eq!(s.owner, Owner::Memory);
        assert!(s.sharers.is_empty());
    }

    #[test]
    fn invariant_owner_not_in_sharers() {
        // Exercise a random-ish access mix and check the invariant.
        let mut t = tracker();
        let kinds = [AccessKind::Load, AccessKind::Store];
        for i in 0..1000u64 {
            let node = n((i % 7) as usize);
            let kind = kinds[(i % 3 == 0) as usize];
            let block = b(i % 13);
            t.access(node, kind.request(), block);
            let s = t.state(block);
            if let Owner::Node(o) = s.owner {
                assert!(
                    !s.sharers.contains(o),
                    "owner {o} also in sharers {}",
                    s.sharers
                );
            }
        }
        assert_eq!(t.stats().misses, 1000);
        assert_eq!(t.tracked_blocks(), 13);
    }

    #[test]
    fn stats_count_indirections() {
        let mut t = tracker();
        t.access(n(1), ReqType::GetExclusive, b(0)); // cold: no indirection
        t.access(n(2), ReqType::GetShared, b(0)); // c2c
        t.access(n(3), ReqType::GetShared, b(0)); // c2c
        let s = t.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.directory_indirections, 2);
        assert_eq!(s.cache_to_cache, 2);
    }

    #[test]
    fn holders_view() {
        let mut t = tracker();
        t.access(n(1), ReqType::GetExclusive, b(0));
        t.access(n(2), ReqType::GetShared, b(0));
        assert_eq!(t.state(b(0)).holders(), DestSet::from_iter([n(1), n(2)]));
    }
}
