//! Property-based tests of the MOSI tracker and the multicast
//! sufficiency rules.

use std::collections::HashMap;

use proptest::prelude::*;

use dsp_coherence::{multicast, BlockState, CoherenceTracker, Eviction, MissInfo, TrackerStats};
use dsp_types::{BlockAddr, DestSet, NodeId, OpenTable, Owner, ReqType, SystemConfig};

const NODES: usize = 16;

/// The seed `HashMap`-backed tracker, kept as the semantic reference of
/// [`CoherenceTracker`].
///
/// Block state lives in a `std::collections::HashMap` (SipHash), and
/// `access` keeps the seed's classify → state → entry probe sequence.
/// It carries its own copy of the stale-copy reconciliation, so it is
/// an independent oracle of the protocol semantics as well as of the
/// state storage.
#[derive(Clone, Debug)]
struct ReferenceTracker<const W: usize = 4> {
    num_nodes: usize,
    blocks: HashMap<u64, BlockState<W>>,
    stats: TrackerStats,
}

impl<const W: usize> ReferenceTracker<W> {
    fn new(config: &SystemConfig) -> Self {
        ReferenceTracker {
            num_nodes: config.num_nodes(),
            blocks: HashMap::new(),
            stats: TrackerStats::default(),
        }
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn state(&self, block: BlockAddr) -> BlockState<W> {
        self.blocks
            .get(&block.number())
            .copied()
            .unwrap_or_default()
    }

    fn tracked_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn stats(&self) -> TrackerStats {
        self.stats
    }

    /// Removes the requester's stale copy from the pre-state: its dirty
    /// copy was written back, its shared copy dropped, except that a
    /// store by a sharer is an upgrade.
    fn reconcile(
        state: BlockState<W>,
        requester: NodeId,
        req: ReqType,
    ) -> (Owner, DestSet<W>, bool) {
        let mut owner = state.owner;
        let mut sharers = state.sharers;
        let mut was_upgrade = false;
        if owner == Owner::Node(requester) {
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

    fn classify(&self, requester: NodeId, req: ReqType, block: BlockAddr) -> MissInfo<W> {
        let state = self.state(block);
        let (owner_before, sharers_before, was_upgrade) = Self::reconcile(state, requester, req);
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
    /// map three times (classify → state → entry) as the seed did.
    fn access(&mut self, requester: NodeId, req: ReqType, block: BlockAddr) -> MissInfo<W> {
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

    fn evict(&mut self, node: NodeId, block: BlockAddr) -> Eviction {
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

#[derive(Clone, Debug)]
struct Access {
    node: usize,
    block: u64,
    exclusive: bool,
}

fn accesses() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec(
        (0usize..NODES, 0u64..32, any::<bool>()).prop_map(|(node, block, exclusive)| Access {
            node,
            block,
            exclusive,
        }),
        1..300,
    )
}

fn req(exclusive: bool) -> ReqType {
    if exclusive {
        ReqType::GetExclusive
    } else {
        ReqType::GetShared
    }
}

/// Blocks that exercise the tracker's paged store (256-block pages):
/// blocks straddling page boundaries, a dense run over three pages, the
/// trace generator's pool bases `(ci + 1) << 34`, and the extreme block
/// numbers.
fn paged_block() -> impl Strategy<Value = u64> {
    prop_oneof![
        (1u64..4, 0u64..8).prop_map(|(page, k)| page * 256 - 4 + k),
        0u64..768,
        (0u64..4, 0u64..4).prop_map(|(ci, k)| ((ci + 1) << 34) + k),
        Just(0u64),
        Just(u64::MAX),
        (0u64..4).prop_map(|k| u64::MAX - k),
    ]
}

/// Replays `(node, block, exclusive, evict)` steps on the tracker and
/// on the reference, both `W` words wide on a `nodes`-node system
/// (`node` is taken modulo `nodes`), and compares every observable
/// after every step.
fn check_against_reference<const W: usize>(nodes: usize, ops: &[(usize, u64, bool, bool)]) {
    let config = SystemConfig::builder()
        .num_nodes(nodes)
        .build()
        .expect("valid system size");
    let mut fast = CoherenceTracker::<W>::new(&config);
    let mut reference = ReferenceTracker::<W>::new(&config);
    for &(node, block, exclusive, evict) in ops {
        let (node, block) = (NodeId::new(node % nodes), BlockAddr::new(block));
        if evict {
            assert_eq!(fast.evict(node, block), reference.evict(node, block));
        } else {
            assert_eq!(
                fast.classify(node, req(exclusive), block),
                reference.classify(node, req(exclusive), block)
            );
            assert_eq!(
                fast.access(node, req(exclusive), block),
                reference.access(node, req(exclusive), block)
            );
        }
        assert_eq!(fast.state(block), reference.state(block));
        assert_eq!(fast.stats(), reference.stats());
        assert_eq!(fast.tracked_blocks(), reference.tracked_blocks());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tracker never produces a state in which the owner is also a
    /// sharer, nor a Modified owner coexisting with sharers after an
    /// exclusive request.
    #[test]
    fn owner_never_in_sharers(ops in accesses()) {
        let mut t: CoherenceTracker = CoherenceTracker::new(&SystemConfig::isca03());
        for op in &ops {
            t.access(NodeId::new(op.node), req(op.exclusive), BlockAddr::new(op.block));
            let s = t.state(BlockAddr::new(op.block));
            if let Owner::Node(o) = s.owner {
                prop_assert!(!s.sharers.contains(o), "owner {o} in sharers {}", s.sharers);
            }
            prop_assert!(s.sharers.is_subset(DestSet::broadcast(NODES)));
        }
    }

    /// After an exclusive access, the requester is the sole holder.
    #[test]
    fn exclusive_access_leaves_sole_owner(ops in accesses(), node in 0usize..NODES, block in 0u64..32) {
        let mut t: CoherenceTracker = CoherenceTracker::new(&SystemConfig::isca03());
        for op in &ops {
            t.access(NodeId::new(op.node), req(op.exclusive), BlockAddr::new(op.block));
        }
        t.access(NodeId::new(node), ReqType::GetExclusive, BlockAddr::new(block));
        let s = t.state(BlockAddr::new(block));
        prop_assert_eq!(s.owner, Owner::Node(NodeId::new(node)));
        prop_assert!(s.sharers.is_empty());
    }

    /// After a shared access, the requester can read the block.
    #[test]
    fn shared_access_grants_readability(ops in accesses(), node in 0usize..NODES, block in 0u64..32) {
        let mut t: CoherenceTracker = CoherenceTracker::new(&SystemConfig::isca03());
        for op in &ops {
            t.access(NodeId::new(op.node), req(op.exclusive), BlockAddr::new(op.block));
        }
        t.access(NodeId::new(node), ReqType::GetShared, BlockAddr::new(block));
        let s = t.state(BlockAddr::new(block));
        prop_assert!(s.holders().contains(NodeId::new(node)));
    }

    /// Sufficiency agrees with a brute-force oracle: a set is
    /// sufficient iff it contains requester, home, owner (if cached),
    /// and (for writes) every sharer.
    #[test]
    fn sufficiency_matches_oracle(ops in accesses(), mask in any::<u16>(), node in 0usize..NODES, block in 0u64..32, exclusive in any::<bool>()) {
        let mut t: CoherenceTracker = CoherenceTracker::new(&SystemConfig::isca03());
        for op in &ops {
            t.access(NodeId::new(op.node), req(op.exclusive), BlockAddr::new(op.block));
        }
        let info = t.classify(NodeId::new(node), req(exclusive), BlockAddr::new(block));
        let candidate = DestSet::from_bits(mask as u64);
        // Oracle.
        let mut needed = DestSet::single(info.requester).with(info.home);
        if let Owner::Node(o) = info.owner_before {
            if o != info.requester {
                needed.insert(o);
            }
        }
        if exclusive {
            needed |= info.sharers_before.without(info.requester);
        }
        prop_assert_eq!(info.is_sufficient(candidate), candidate.is_superset(needed));
    }

    /// Multicast accounting invariants: broadcast predictions never
    /// retry; any sufficient prediction costs at least the directory's
    /// message count; insufficiency always costs strictly more.
    #[test]
    fn multicast_accounting_invariants(ops in accesses(), mask in any::<u16>(), node in 0usize..NODES, block in 0u64..32, exclusive in any::<bool>()) {
        let mut t: CoherenceTracker = CoherenceTracker::new(&SystemConfig::isca03());
        for op in &ops {
            t.access(NodeId::new(op.node), req(op.exclusive), BlockAddr::new(op.block));
        }
        let info = t.classify(NodeId::new(node), req(exclusive), BlockAddr::new(block));
        let dir = multicast::directory(&info);
        let snoop = multicast::snooping(&info, NODES);
        prop_assert!(!snoop.indirection);
        prop_assert_eq!(snoop.request_messages, (NODES - 1) as u64);

        let predicted = DestSet::from_bits(mask as u64) & DestSet::broadcast(NODES);
        let out = multicast::evaluate(&info, predicted);
        if out.sufficient_first {
            prop_assert!(out.request_messages >= dir.request_messages);
            prop_assert_eq!(out.attempts, 1);
        } else {
            prop_assert_eq!(out.attempts, 2);
            prop_assert!(out.indirection);
            // The reissue reaches at least the requester.
            prop_assert!(out.request_messages >= 2);
        }
        // The broadcast prediction is always sufficient.
        let full = multicast::evaluate(&info, DestSet::broadcast(NODES));
        prop_assert!(full.sufficient_first);
    }

    /// The predictive-directory hybrid never beats the plain directory
    /// on messages while always matching or beating it on indirections.
    #[test]
    fn predictive_directory_invariants(ops in accesses(), mask in any::<u16>(), node in 0usize..NODES, block in 0u64..32, exclusive in any::<bool>()) {
        let mut t: CoherenceTracker = CoherenceTracker::new(&SystemConfig::isca03());
        for op in &ops {
            t.access(NodeId::new(op.node), req(op.exclusive), BlockAddr::new(op.block));
        }
        let info = t.classify(NodeId::new(node), req(exclusive), BlockAddr::new(block));
        let dir = multicast::directory(&info);
        let predicted = DestSet::from_bits(mask as u64) & DestSet::broadcast(NODES);
        let hybrid = multicast::directory_predicted(&info, predicted);
        prop_assert!(hybrid.request_messages >= dir.request_messages);
        prop_assert!(u64::from(hybrid.indirection) <= u64::from(dir.latency == multicast::LatencyClass::CacheIndirect));
        prop_assert_eq!(hybrid.attempts, 1);
    }

    /// The paged tracker is observationally equivalent to the
    /// seed HashMap-backed reference across arbitrary interleaved
    /// access/evict sequences: identical `MissInfo` per access,
    /// identical eviction outcomes, identical per-block state,
    /// statistics, and tracked-block counts throughout.
    #[test]
    fn fast_tracker_matches_hashmap_reference(
        ops in proptest::collection::vec(
            (0usize..NODES, 0u64..48, any::<bool>(), any::<bool>()),
            1..400,
        ),
    ) {
        let config = SystemConfig::isca03();
        let mut fast: CoherenceTracker = CoherenceTracker::new(&config);
        let mut reference: ReferenceTracker = ReferenceTracker::new(&config);
        for &(node, block, exclusive, evict) in &ops {
            let (node, block) = (NodeId::new(node), BlockAddr::new(block));
            if evict {
                prop_assert_eq!(fast.evict(node, block), reference.evict(node, block));
            } else {
                let a = fast.access(node, req(exclusive), block);
                let b = reference.access(node, req(exclusive), block);
                prop_assert_eq!(a, b);
                prop_assert_eq!(
                    fast.classify(node, req(exclusive), block),
                    reference.classify(node, req(exclusive), block)
                );
            }
            prop_assert_eq!(fast.state(block), reference.state(block));
            prop_assert_eq!(fast.stats(), reference.stats());
            prop_assert_eq!(fast.tracked_blocks(), reference.tracked_blocks());
        }
    }

    /// The paged store is observationally equivalent to the reference
    /// on blocks that cross pages, sit at pool bases, or take the
    /// extreme block numbers, at one word (16 and 64 nodes) and four
    /// words (256 nodes).
    #[test]
    fn paged_tracker_matches_hashmap_reference(
        ops in proptest::collection::vec(
            (0usize..256, paged_block(), any::<bool>(), any::<bool>()),
            1..400,
        ),
    ) {
        check_against_reference::<1>(16, &ops);
        check_against_reference::<1>(64, &ops);
        check_against_reference::<4>(256, &ops);
    }

    /// `classify` is `access` without the write: before every access of
    /// an arbitrary access/evict sequence, at both set widths, the
    /// classification equals what the access then returns, and taking it
    /// changes neither the block's state, the statistics, nor the
    /// tracked-block count. Replay makes
    /// one `access` per record on this fact.
    #[test]
    fn classify_predicts_access_without_mutating(
        ops in proptest::collection::vec(
            (0usize..NODES, 0u64..48, any::<bool>(), any::<bool>()),
            1..400,
        ),
    ) {
        fn check<const W: usize>(ops: &[(usize, u64, bool, bool)]) {
            let mut t = CoherenceTracker::<W>::new(&SystemConfig::isca03());
            for &(node, block, exclusive, evict) in ops {
                let (node, block) = (NodeId::new(node), BlockAddr::new(block));
                if evict {
                    t.evict(node, block);
                    continue;
                }
                let (state, stats, tracked) = (t.state(block), t.stats(), t.tracked_blocks());
                let classified = t.classify(node, req(exclusive), block);
                assert_eq!(t.state(block), state);
                assert_eq!(t.stats(), stats);
                assert_eq!(t.tracked_blocks(), tracked);
                assert_eq!(classified, t.access(node, req(exclusive), block));
            }
        }
        check::<1>(&ops);
        check::<4>(&ops);
    }

    /// `OpenTable` (the storage of the tracker's page directory and of
    /// the unbounded predictor tables), holding `BlockState` entries,
    /// agrees with `std::collections::HashMap` under adversarial keys
    /// (0, `u64::MAX`, stride patterns that collide after masking)
    /// across mixed reads, combined lookup-inserts, and in-place
    /// mutation.
    #[test]
    fn block_state_table_matches_hashmap(
        keys in proptest::collection::vec(
            prop_oneof![
                Just(0u64),
                Just(u64::MAX),
                any::<u64>(),
                (0u64..64).prop_map(|k| k << 32),
                (0u64..64).prop_map(|k| k.wrapping_mul(1024)),
            ],
            1..300,
        ),
    ) {
        let mut table: OpenTable<BlockState> = OpenTable::new();
        let mut reference = HashMap::new();
        for (i, &key) in keys.iter().enumerate() {
            match i % 3 {
                0 => {
                    let node = NodeId::new(i % NODES);
                    table.get_or_insert_default(key).0.sharers.insert(node);
                    reference
                        .entry(key)
                        .or_insert_with(BlockState::default)
                        .sharers
                        .insert(node);
                }
                1 => {
                    prop_assert_eq!(table.get(key), reference.get(&key));
                }
                _ => {
                    let node = NodeId::new(i % NODES);
                    let a = table.get_mut(key).map(|s| { s.owner = Owner::Node(node); *s });
                    let b = reference.get_mut(&key).map(|s| { s.owner = Owner::Node(node); *s });
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(table.len(), reference.len());
        }
        for (&key, state) in &reference {
            prop_assert_eq!(table.get(key), Some(state));
        }
        let mut ours: Vec<(u64, BlockState)> = table.iter().map(|(k, &s)| (k, s)).collect();
        let mut theirs: Vec<(u64, BlockState)> =
            reference.iter().map(|(&k, &s)| (k, s)).collect();
        ours.sort_by_key(|(k, _)| *k);
        theirs.sort_by_key(|(k, _)| *k);
        prop_assert_eq!(ours, theirs);
    }

    /// Eviction is idempotent and leaves the node without a copy.
    #[test]
    fn eviction_removes_holder(ops in accesses(), node in 0usize..NODES, block in 0u64..32) {
        let mut t: CoherenceTracker = CoherenceTracker::new(&SystemConfig::isca03());
        for op in &ops {
            t.access(NodeId::new(op.node), req(op.exclusive), BlockAddr::new(op.block));
        }
        t.evict(NodeId::new(node), BlockAddr::new(block));
        let s = t.state(BlockAddr::new(block));
        prop_assert!(!s.holders().contains(NodeId::new(node)));
        prop_assert_eq!(t.evict(NodeId::new(node), BlockAddr::new(block)), Eviction::None);
    }
}
