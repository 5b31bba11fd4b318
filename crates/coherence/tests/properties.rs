//! Property-based tests of the MOSI tracker and the multicast
//! sufficiency rules.

use proptest::prelude::*;

use dsp_coherence::{multicast, BlockStateTable, CoherenceTracker, ReferenceTracker};
use dsp_types::{BlockAddr, DestSet, NodeId, Owner, ReqType, SystemConfig};

const NODES: usize = 16;

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

    /// The open-addressing tracker is observationally equivalent to the
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
        let mut reference = ReferenceTracker::new(&config);
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

    /// The raw block-state table agrees with `std::collections::HashMap`
    /// under adversarial keys (0, `u64::MAX`, stride patterns that
    /// collide after masking) across mixed reads, combined
    /// lookup-inserts, and in-place mutation.
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
        let mut table = BlockStateTable::new();
        let mut reference = std::collections::HashMap::new();
        for (i, &key) in keys.iter().enumerate() {
            match i % 3 {
                0 => {
                    let node = NodeId::new(i % NODES);
                    table.get_or_insert_default(key).sharers.insert(node);
                    reference
                        .entry(key)
                        .or_insert_with(dsp_coherence::BlockState::default)
                        .sharers
                        .insert(node);
                }
                1 => {
                    prop_assert_eq!(table.get(key), reference.get(&key).copied());
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
        for (&key, &state) in &reference {
            prop_assert_eq!(table.get(key), Some(state));
        }
        let mut ours: Vec<(u64, dsp_coherence::BlockState)> = table.iter().collect();
        let mut theirs: Vec<(u64, dsp_coherence::BlockState)> =
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
        prop_assert_eq!(t.evict(NodeId::new(node), BlockAddr::new(block)), dsp_coherence::Eviction::None);
    }
}
