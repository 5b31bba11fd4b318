//! The global MOSI coherence state tracker.

use serde::{Deserialize, Serialize};

use dsp_types::{BlockAddr, DestSet, NodeId, OpenTable, Owner, ReqType, SystemConfig};

use crate::miss::MissInfo;

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
///
/// # Block store
///
/// Block numbers are nearly dense (the trace generator draws each pool
/// as a contiguous run), so block state is indexed directly rather than
/// hashed. The store is paged: a page covers 2^8 consecutive block
/// numbers, and a small [`dsp_types::OpenTable`] maps `block >> 8` to
/// the page's position in two struct-of-arrays vectors, one owner code
/// (`u16`) and one sharer set (`DestSet<W>`) per block. Both vectors
/// grow one zero-filled page at a time, the first time a block of that
/// page is accessed. The owner code is 0 for a block no access has
/// touched, 1 for memory, and `n + 2` for node `n`; the 0 → non-zero
/// transitions are the tracked-block count. Every call makes one
/// directory probe, and pages are never removed.
///
/// Both choices were measured on the benchmark's trace replay. Pages
/// of 2^8 and 2^10 blocks ran equally fast, 2^6 about 3 % slower (a
/// larger directory); the 16-node timing workloads fill about 18 % of
/// each touched page at every size from 2^6 to 2^12, so the small page
/// costs nothing there and bounds a sparse trace at about 2.5 KB per
/// isolated block. An array-of-structs page (16-byte `BlockState`) ran
/// as fast as the 10-byte struct-of-arrays record at `W = 1`, but
/// raised peak memory by 1.7 MB on the 16-node timing workload.
#[derive(Clone, Debug)]
pub struct CoherenceTracker<const W: usize = 4> {
    num_nodes: usize,
    blocks: BlockStore<W>,
    /// Blocks some access has touched (owner code ≠ 0).
    tracked: usize,
    stats: TrackerStats,
}

/// log2 of the blocks per page of the [`BlockStore`].
const PAGE_BITS: u32 = 8;
/// Blocks per page.
const PAGE_BLOCKS: usize = 1 << PAGE_BITS;
/// Owner code of a block no access has touched (the zero fill).
const UNTOUCHED: u16 = 0;
/// Owner code of a memory-owned block.
const MEMORY: u16 = 1;

/// The owner code of `owner` (see the [`CoherenceTracker`] docs).
#[inline]
fn owner_code(owner: Owner) -> u16 {
    match owner {
        Owner::Memory => MEMORY,
        Owner::Node(n) => n.index() as u16 + 2,
    }
}

/// Paged, direct-indexed block state (see the [`CoherenceTracker`]
/// docs): block `b` lives at index `page(b >> PAGE_BITS) * PAGE_BLOCKS
/// + (b mod PAGE_BLOCKS)` of `owner` and `sharers`.
#[derive(Clone, Debug)]
struct BlockStore<const W: usize> {
    /// Page number (`block >> PAGE_BITS`) → the page's ordinal.
    pages: OpenTable<u32>,
    /// Owner code per block.
    owner: Vec<u16>,
    /// Sharer set per block.
    sharers: Vec<DestSet<W>>,
}

impl<const W: usize> BlockStore<W> {
    fn new() -> Self {
        BlockStore {
            pages: OpenTable::new(),
            owner: Vec::new(),
            sharers: Vec::new(),
        }
    }

    /// The index of `block`, if its page exists.
    #[inline]
    fn find(&self, block: u64) -> Option<usize> {
        let page = *self.pages.get(block >> PAGE_BITS)?;
        Some(Self::index(page, block))
    }

    /// The index of `block`, allocating its page first if needed.
    #[inline]
    fn find_or_insert(&mut self, block: u64) -> usize {
        let (page, inserted) = self.pages.get_or_insert_default(block >> PAGE_BITS);
        if inserted {
            *page = Self::add_page(&mut self.owner, &mut self.sharers);
        }
        Self::index(*page, block)
    }

    #[inline]
    fn index(page: u32, block: u64) -> usize {
        (page as usize) << PAGE_BITS | (block as usize & (PAGE_BLOCKS - 1))
    }

    /// Appends one zero-filled page and returns its ordinal.
    #[cold]
    fn add_page(owner: &mut Vec<u16>, sharers: &mut Vec<DestSet<W>>) -> u32 {
        let page = u32::try_from(owner.len() >> PAGE_BITS).expect("block store exceeds 2^32 pages");
        owner.resize(owner.len() + PAGE_BLOCKS, UNTOUCHED);
        sharers.resize(sharers.len() + PAGE_BLOCKS, DestSet::empty());
        page
    }
}

impl<const W: usize> CoherenceTracker<W> {
    /// Creates a tracker for systems described by `config`.
    pub fn new(config: &SystemConfig) -> Self {
        CoherenceTracker {
            num_nodes: config.num_nodes(),
            blocks: BlockStore::new(),
            tracked: 0,
            stats: TrackerStats::default(),
        }
    }

    /// Number of nodes in the system.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The owner an owner code stands for.
    #[inline]
    fn owner(&self, code: u16) -> Owner {
        debug_assert!(
            usize::from(code) < self.num_nodes + 2,
            "owner code {code} out of range for {} nodes",
            self.num_nodes
        );
        match code.checked_sub(2) {
            None => Owner::Memory,
            Some(n) => Owner::Node(NodeId::new_unchecked(n as u8)),
        }
    }

    /// The state stored at index `i` of the block store.
    #[inline]
    fn state_at(&self, i: usize) -> BlockState<W> {
        BlockState {
            owner: self.owner(self.blocks.owner[i]),
            sharers: self.blocks.sharers[i],
        }
    }

    /// Current state of `block`.
    #[inline]
    pub fn state(&self, block: BlockAddr) -> BlockState<W> {
        self.blocks
            .find(block.number())
            .map_or_else(BlockState::default, |i| self.state_at(i))
    }

    /// Number of blocks with recorded state.
    pub fn tracked_blocks(&self) -> usize {
        self.tracked
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
    /// Makes one page-directory probe: the pre-state read and the
    /// post-transition write share the block's store index.
    #[inline]
    pub fn access(&mut self, requester: NodeId, req: ReqType, block: BlockAddr) -> MissInfo<W> {
        let i = self.blocks.find_or_insert(block.number());
        let code = self.blocks.owner[i];
        let stale = self.state_at(i);
        let reconciled = reconcile(stale, requester, req);
        let (owner_before, sharers_before, was_upgrade) = reconciled;
        let (owner, sharers) = match req {
            // Owner keeps the block (M demotes to O); requester joins
            // the sharers. An owner identical to the requester was
            // reconciled to memory.
            ReqType::GetShared => {
                let mut sharers = sharers_before.with(requester);
                if let Owner::Node(o) = owner_before {
                    sharers.remove(o);
                }
                (owner_before, sharers)
            }
            ReqType::GetExclusive => (Owner::Node(requester), DestSet::empty()),
        };
        self.blocks.owner[i] = owner_code(owner);
        self.blocks.sharers[i] = sharers;
        self.tracked += usize::from(code == UNTOUCHED);
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
        let Some(i) = self.blocks.find(block.number()) else {
            return Eviction::None;
        };
        if self.blocks.owner[i] == owner_code(Owner::Node(node)) {
            self.blocks.owner[i] = MEMORY;
            Eviction::Writeback
        } else if self.blocks.sharers[i].remove(node) {
            Eviction::SilentDrop
        } else {
            Eviction::None
        }
    }
}

/// Reconciles the requester's stale copy out of the pre-state.
///
/// Returns `(owner_before, sharers_before, was_upgrade)` where the
/// requester appears in neither owner nor sharers — except that a store
/// by a current sharer is flagged as an upgrade (its S copy is
/// invalidated by its own GETX, not evicted beforehand).
fn reconcile<const W: usize>(
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
    fn evicting_an_untouched_block_of_a_live_page_tracks_nothing() {
        let mut t = tracker();
        t.access(n(1), ReqType::GetExclusive, b(0));
        // Block 1 shares block 0's page but was never accessed.
        assert_eq!(t.evict(n(1), b(1)), Eviction::None);
        assert_eq!(t.evict(n(2), b(1)), Eviction::None);
        assert_eq!(t.tracked_blocks(), 1);
        assert_eq!(t.state(b(1)), BlockState::default());
        // Its first access is still a cold, newly tracked miss.
        let info = t.access(n(2), ReqType::GetShared, b(1));
        assert_eq!(info.owner_before, Owner::Memory);
        assert_eq!(t.tracked_blocks(), 2);
        // A block on a page no access has reached, likewise.
        assert_eq!(t.evict(n(1), b(1 << 20)), Eviction::None);
        assert_eq!(t.tracked_blocks(), 2);
    }

    #[test]
    fn written_back_block_stays_tracked() {
        let mut t = tracker();
        t.access(n(3), ReqType::GetExclusive, b(300));
        assert_eq!(t.evict(n(3), b(300)), Eviction::Writeback);
        assert_eq!(t.state(b(300)), BlockState::default());
        assert_eq!(t.tracked_blocks(), 1);
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
