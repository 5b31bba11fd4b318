//! Property-based tests of the synthetic workload generators.

use std::collections::HashMap;

use proptest::prelude::*;

use dsp_trace::{ClassSpec, Holders, SharingClass, Workload, WorkloadSpec};
use dsp_types::{AccessKind, BlockAddr, DestSet, NodeId, Owner, SystemConfig};

/// Oracle for the generator's holder table: a hash map from block to
/// holders, updated with the MOSI rules the generator documents.
#[derive(Clone, Debug, Default)]
struct HolderMap {
    map: HashMap<u64, Holders>,
}

impl HolderMap {
    /// Creates an empty map (all blocks owned by memory).
    fn new() -> Self {
        HolderMap::default()
    }

    /// Current holders of `block` (memory-owned if never touched).
    fn get(&self, block: BlockAddr) -> Holders {
        self.map.get(&block.number()).copied().unwrap_or_default()
    }

    /// Whether no block has been touched yet.
    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Applies a miss by `node` with `kind` to `block`, returning the
    /// holders *before* the update.
    ///
    /// Rules (MOSI, with implicit eviction of the requester's stale
    /// copy, since a miss implies the requester no longer holds it):
    ///
    /// * Load: requester joins the sharers; an M owner demotes to O.
    /// * Store: requester becomes the M owner; all other copies die.
    fn apply(&mut self, node: NodeId, kind: AccessKind, block: BlockAddr) -> Holders {
        let entry = self.map.entry(block.number()).or_default();
        let before = *entry;
        // The requester missing implies any copy it held has been evicted.
        if entry.owner.node() == Some(node) {
            // Owner eviction wrote the dirty data back: memory owns again,
            // but other sharers keep their copies.
            entry.owner = Owner::Memory;
        }
        entry.sharers.remove(node);
        match kind {
            AccessKind::Load => {
                entry.sharers.insert(node);
            }
            AccessKind::Store => {
                entry.owner = Owner::Node(node);
                entry.sharers = DestSet::empty();
            }
        }
        before
    }

    /// Models an eviction of `node`'s copy of `block` (silent drop for a
    /// sharer, writeback for an owner).
    fn evict(&mut self, node: NodeId, block: BlockAddr) {
        if let Some(entry) = self.map.get_mut(&block.number()) {
            if entry.owner.node() == Some(node) {
                entry.owner = Owner::Memory;
            }
            entry.sharers.remove(node);
        }
    }
}

/// Whether `node` holds any copy, so it can satisfy a load without a
/// coherence request.
fn holds(h: &Holders, node: NodeId) -> bool {
    h.owner.node() == Some(node) || h.sharers.contains(node)
}

/// Whether `node` can satisfy a store without a coherence request (sole
/// modified owner).
fn can_write(h: &Holders, node: NodeId) -> bool {
    h.owner.node() == Some(node) && h.sharers.is_empty()
}

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn b(i: u64) -> BlockAddr {
    BlockAddr::new(i)
}

#[test]
fn untouched_block_is_memory_owned() {
    let map = HolderMap::new();
    let h = map.get(b(9));
    assert_eq!(h.owner, Owner::Memory);
    assert!(h.sharers.is_empty());
    assert!(map.is_empty());
}

#[test]
fn load_adds_sharer() {
    let mut map = HolderMap::new();
    map.apply(n(1), AccessKind::Load, b(0));
    let h = map.get(b(0));
    assert!(h.sharers.contains(n(1)));
    assert_eq!(h.owner, Owner::Memory);
}

#[test]
fn store_takes_ownership_and_invalidates() {
    let mut map = HolderMap::new();
    map.apply(n(1), AccessKind::Load, b(0));
    map.apply(n(2), AccessKind::Load, b(0));
    let before = map.apply(n(3), AccessKind::Store, b(0));
    assert_eq!(before.sharers.len(), 2);
    let h = map.get(b(0));
    assert_eq!(h.owner, Owner::Node(n(3)));
    assert!(h.sharers.is_empty());
}

#[test]
fn load_after_store_leaves_owner_dirty() {
    let mut map = HolderMap::new();
    map.apply(n(1), AccessKind::Store, b(0));
    map.apply(n(2), AccessKind::Load, b(0));
    let h = map.get(b(0));
    // MOSI: writer demotes M -> O but still owns (supplies data).
    assert_eq!(h.owner, Owner::Node(n(1)));
    assert!(h.sharers.contains(n(2)));
}

#[test]
fn re_miss_by_owner_implies_writeback() {
    let mut map = HolderMap::new();
    map.apply(n(1), AccessKind::Store, b(0));
    // P1 misses again on the same block: its copy must have been
    // evicted (written back), so the pre-state owner is memory.
    let before = map.apply(n(1), AccessKind::Load, b(0));
    assert_eq!(before.owner, Owner::Node(n(1)));
    let h = map.get(b(0));
    assert_eq!(h.owner, Owner::Memory);
    assert!(h.sharers.contains(n(1)));
}

#[test]
fn explicit_evict() {
    let mut map = HolderMap::new();
    map.apply(n(1), AccessKind::Store, b(0));
    map.evict(n(1), b(0));
    let h = map.get(b(0));
    assert_eq!(h.owner, Owner::Memory);
    assert!(!holds(&h, n(1)));
}

#[test]
fn permissions() {
    let mut map = HolderMap::new();
    map.apply(n(1), AccessKind::Store, b(0));
    let h = map.get(b(0));
    assert!(holds(&h, n(1)));
    assert!(can_write(&h, n(1)));
    assert!(!holds(&h, n(2)));
    map.apply(n(2), AccessKind::Load, b(0));
    let h = map.get(b(0));
    assert!(holds(&h, n(2)));
    assert!(
        !can_write(&h, n(1)),
        "owner with sharers cannot write silently"
    );
}

fn class_strategy() -> impl Strategy<Value = ClassSpec> {
    (
        prop_oneof![
            Just(SharingClass::Private),
            Just(SharingClass::ColdFootprint),
            Just(SharingClass::ReadShared),
            Just(SharingClass::Migratory),
            Just(SharingClass::ProducerConsumer),
            Just(SharingClass::ReadWriteShared),
        ],
        0.1f64..10.0, // miss weight
        2usize..40,   // macroblocks
        1usize..=16,  // group size
        0.0f64..=0.9, // write fraction
        0.0f64..=1.2, // zipf exponent
        1usize..100,  // pcs
    )
        .prop_map(
            |(class, miss_weight, macroblocks, group_size, write_frac, zipf, pcs)| ClassSpec {
                class,
                miss_weight,
                macroblocks,
                group_size,
                write_frac,
                zipf_exponent: zipf,
                pcs,
            },
        )
}

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    proptest::collection::vec(class_strategy(), 1..5)
        .prop_map(|classes| WorkloadSpec::new("prop", 16, 16, 3.0, classes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated record stays inside the spec's pools, nodes, and
    /// PC regions.
    #[test]
    fn records_stay_in_bounds(spec in spec_strategy(), seed in 0u64..1000) {
        let n_classes = spec.classes().len() as u64;
        for rec in spec.generator(seed).take(2_000) {
            prop_assert!(rec.requester.index() < 16);
            let pool = rec.block().number() >> 34;
            prop_assert!(pool >= 1 && pool <= n_classes, "block outside pools");
            prop_assert!(rec.pc.raw() >= 0x0040_0000);
        }
    }

    /// Generators are pure functions of (spec, seed).
    #[test]
    fn generation_is_deterministic(spec in spec_strategy(), seed in 0u64..1000) {
        let a: Vec<_> = spec.generator(seed).take(500).collect();
        let b: Vec<_> = spec.generator(seed).take(500).collect();
        prop_assert_eq!(a, b);
    }

    /// Sharing never exceeds the configured group size at macroblock
    /// granularity (private/cold classes are the degenerate group of 1).
    #[test]
    fn sharing_respects_group_bounds(spec in spec_strategy(), seed in 0u64..100) {
        let mut seen: HashMap<(u64, u64), std::collections::HashSet<usize>> = HashMap::new();
        for rec in spec.generator(seed).take(3_000) {
            let pool = rec.block().number() >> 34;
            let mb = rec.block().number() >> 4;
            seen.entry((pool, mb)).or_default().insert(rec.requester.index());
        }
        for ((pool, _), nodes) in seen {
            let class = &spec.classes()[(pool - 1) as usize];
            prop_assert!(
                nodes.len() <= class.group_size,
                "{} macroblock touched by {} nodes (group {})",
                class.class,
                nodes.len(),
                class.group_size
            );
        }
    }

    /// Migratory read-modify-write pairing: within one macroblock unit,
    /// a store always comes from the node that performed the unit's
    /// most recent load.
    #[test]
    fn migratory_store_follows_own_load(seed in 0u64..100, group in 2usize..=16) {
        let spec = WorkloadSpec::new(
            "mig",
            16,
            16,
            3.0,
            vec![ClassSpec {
                class: SharingClass::Migratory,
                miss_weight: 1.0,
                macroblocks: 6,
                group_size: group,
                write_frac: 0.5,
                zipf_exponent: 0.8,
                pcs: 8,
            }],
        );
        let mut last_load: HashMap<u64, NodeId> = HashMap::new();
        for rec in spec.generator(seed).take(3_000) {
            let unit = rec.block().number() >> 4;
            match rec.kind {
                AccessKind::Load => {
                    last_load.insert(unit, rec.requester);
                }
                AccessKind::Store => {
                    prop_assert_eq!(
                        last_load.get(&unit).copied(),
                        Some(rec.requester),
                        "store by a node that did not load unit {}",
                        unit
                    );
                }
            }
        }
    }

    /// Scaling preserves weights and group structure exactly.
    #[test]
    fn scaled_specs_preserve_mix(spec in spec_strategy(), factor in 0.05f64..4.0) {
        let scaled = spec.scaled(factor);
        prop_assert_eq!(spec.classes().len(), scaled.classes().len());
        for (a, b) in spec.classes().iter().zip(scaled.classes()) {
            prop_assert_eq!(a.miss_weight, b.miss_weight);
            prop_assert_eq!(a.group_size, b.group_size);
            prop_assert_eq!(a.class, b.class);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The generator's own holder table matches an independent replay of
    /// its emissions, for every preset on machines whose sharer rows
    /// take one word (16, 64 nodes) and four words (256 nodes). Blocks
    /// the stream never touched, and blocks outside every pool, read as
    /// memory-owned.
    #[test]
    fn holders_are_consistent_with_stream(seed in 0u64..1000) {
        for workload in Workload::ALL {
            for nodes in [16, 64, 256] {
                let config = SystemConfig::builder()
                    .num_nodes(nodes)
                    .build()
                    .expect("valid node count");
                let spec = WorkloadSpec::preset(workload, &config).scaled(1.0 / 512.0);
                let mut gen = spec.generator(seed);
                let mut replay = HolderMap::new();
                for _ in 0..2_000 {
                    let rec = gen.next().expect("infinite");
                    replay.apply(rec.requester, rec.kind, rec.block());
                }
                for &block in replay.map.keys() {
                    let block = BlockAddr::new(block);
                    prop_assert_eq!(
                        gen.holders_of(block),
                        replay.get(block),
                        "{} at {} nodes: divergent holders for {}",
                        workload,
                        nodes,
                        block
                    );
                }
                let untouched = (0..spec.classes().len() as u64 + 2)
                    .flat_map(|pool| [pool << 34, (pool << 34) + (1 << 33)])
                    .map(BlockAddr::new)
                    .filter(|block| !replay.map.contains_key(&block.number()));
                for block in untouched {
                    prop_assert_eq!(gen.holders_of(block), Holders::default());
                }
            }
        }
    }
}
