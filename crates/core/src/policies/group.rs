//! The Group policy (paper Table 3, column 3).
//!
//! Table 3 sizes a Group entry at "2N bits + 5 bits + tag": one 2-bit
//! saturating counter per node plus a 5-bit rollover counter. The
//! entry here is stored in that shape. Its N counters are *bit-sliced*
//! into two N-bit planes, `hi` and `lo`, each a [`DestSet`]: node i's
//! counter is `2·hi_i + lo_i`. Every operation the policy needs is then
//! a few word operations, independent of N:
//!
//! - an observation is a saturating increment of one bit position;
//! - a rollover decrements all N counters at once (`hi' = hi & lo`,
//!   `lo' = hi - lo`, where `-` is set difference);
//! - a prediction is `minimal | hi`, since `counter > 1` is exactly the
//!   high bit.
//!
//! An entry is a `Copy` value of `2·W` words plus a `u16`, stored inline
//! in the predictor table's arena (no per-entry heap block).

use dsp_types::{DestSet, NodeId, Owner, ReqType, SystemConfig};

use crate::counters::RolloverCounter;
use crate::events::{PredictQuery, TrainEvent};
use crate::index::Indexing;
use crate::policies::trains_on_other;
use crate::table::{Capacity, PredictorTable, TableStats};
use crate::DestSetPredictor;

/// One entry: N 2-bit saturating counters, bit-sliced into two planes,
/// plus a 5-bit rollover counter.
///
/// Node i's counter is `(hi_i, lo_i)`, i.e. `2·hi_i + lo_i`. Bits at or
/// above the system's node count are never set.
#[derive(Clone, Copy, Debug, Default)]
struct GroupEntry<const W: usize> {
    hi: DestSet<W>,
    lo: DestSet<W>,
    rollover: RolloverCounter<5>,
}

impl<const W: usize> GroupEntry<W> {
    /// Counts one observation of `node` and applies the train-down rule:
    /// every rollover of the 5-bit counter decrements all per-node
    /// counters, aging out inactive processors.
    #[inline]
    fn observe(&mut self, node: NodeId) {
        if self.lo.contains(node) {
            // 1 → 2 moves the bit up a plane; 3 saturates.
            if self.hi.insert(node) {
                self.lo.remove(node);
            }
        } else {
            // 0 → 1 and 2 → 3.
            self.lo.insert(node);
        }
        if self.rollover.increment() {
            // Saturating decrement of every counter: 3 → 2, 2 → 1,
            // 1 → 0, 0 → 0.
            let hi = self.hi;
            self.hi = hi & self.lo;
            self.lo = hi - self.lo;
        }
    }
}

/// Predicts the *recent sharing group* of a block: all nodes whose 2-bit
/// counter exceeds 1.
///
/// Targets systems where groups of processors (fewer than all) share
/// blocks and bandwidth is neither extremely limited nor plentiful —
/// e.g. large machines running partitioned or phase-structured work.
/// The rollover counter implements the paper's explicit "train down"
/// mechanism, which the original Sticky-Spatial predictor lacks.
///
/// Generic over the destination-set word width `W`, like every set in
/// the stack: an entry's counter planes are `DestSet<W>`s, so a ≤ 64-node
/// system stores and predicts with single-word operations.
#[derive(Debug)]
pub struct GroupPredictor<const W: usize = 4> {
    indexing: Indexing,
    table: PredictorTable<GroupEntry<W>>,
    num_nodes: usize,
}

impl<const W: usize> GroupPredictor<W> {
    /// Creates a Group predictor.
    pub fn new(indexing: Indexing, capacity: Capacity, config: &SystemConfig) -> Self {
        GroupPredictor {
            indexing,
            table: PredictorTable::new(capacity),
            num_nodes: config.num_nodes(),
        }
    }

    /// Table statistics.
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }
}

impl<const W: usize> DestSetPredictor<W> for GroupPredictor<W> {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        let key = self.indexing.key(query.block, query.pc);
        match self.table.lookup(key) {
            Some(entry) => query.minimal | entry.hi,
            None => query.minimal,
        }
    }

    fn train(&mut self, event: &TrainEvent<W>) {
        match *event {
            TrainEvent::DataResponse {
                block,
                pc,
                responder,
                minimal_sufficient,
                ..
            } => {
                if let Owner::Node(responder) = responder {
                    let key = self.indexing.key(block, pc);
                    self.table
                        .train(key, !minimal_sufficient, |e| e.observe(responder));
                }
            }
            TrainEvent::OtherRequest {
                block,
                requester,
                req,
            } => {
                if trains_on_other(self.indexing, req) {
                    let key = self.indexing.key(block, dsp_types::Pc::new(0));
                    self.table.train(key, false, |e| e.observe(requester));
                }
            }
            TrainEvent::Reissue { .. } => {}
        }
    }

    fn observes_other(&self, req: ReqType) -> bool {
        trains_on_other(self.indexing, req)
    }

    fn name(&self) -> String {
        "Group".to_string()
    }

    fn entry_payload_bits(&self) -> u64 {
        // "2N bits + 5 bits + tag".
        2 * self.num_nodes as u64 + 5
    }

    fn storage_bits(&self) -> u64 {
        match self.table.capacity() {
            Capacity::Unbounded => self.table.len() as u64 * self.entry_payload_bits(),
            Capacity::Finite { entries, .. } => {
                entries as u64 * (self.entry_payload_bits() + self.table.tag_bits())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::SatCounter2;
    use dsp_types::{BlockAddr, Pc};
    use proptest::prelude::*;

    fn config() -> SystemConfig {
        SystemConfig::isca03()
    }

    fn predictor() -> GroupPredictor {
        GroupPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config())
    }

    fn query(block: u64) -> PredictQuery {
        PredictQuery {
            block: BlockAddr::new(block),
            pc: Pc::new(0),
            requester: NodeId::new(0),
            req: ReqType::GetExclusive,
            minimal: DestSet::single(NodeId::new(0)).with(BlockAddr::new(block).home(16)),
        }
    }

    fn response_from(block: u64, node: usize) -> TrainEvent {
        TrainEvent::DataResponse {
            block: BlockAddr::new(block),
            pc: Pc::new(0),
            responder: Owner::Node(NodeId::new(node)),
            req: ReqType::GetShared,
            minimal_sufficient: false,
        }
    }

    fn external(block: u64, node: usize) -> TrainEvent {
        TrainEvent::OtherRequest {
            block: BlockAddr::new(block),
            requester: NodeId::new(node),
            req: ReqType::GetExclusive,
        }
    }

    #[test]
    fn members_join_after_two_observations() {
        let mut p = predictor();
        p.train(&response_from(3, 5));
        assert!(!p.predict(&query(3)).contains(NodeId::new(5)));
        p.train(&response_from(3, 5));
        assert!(p.predict(&query(3)).contains(NodeId::new(5)));
    }

    #[test]
    fn tracks_multiple_members() {
        let mut p = predictor();
        for node in [5, 7, 9] {
            p.train(&response_from(3, 5)); // allocation path via node 5
            p.train(&external(3, node));
            p.train(&external(3, node));
        }
        let set = p.predict(&query(3));
        for node in [5, 7, 9] {
            assert!(set.contains(NodeId::new(node)), "missing P{node} in {set}");
        }
    }

    #[test]
    fn rollover_trains_down_inactive_members() {
        let mut p = predictor();
        // Node 5 active early.
        p.train(&response_from(3, 5));
        p.train(&response_from(3, 5));
        assert!(p.predict(&query(3)).contains(NodeId::new(5)));
        // Then node 7 dominates for > 2 rollover periods (5-bit = 32).
        for _ in 0..70 {
            p.train(&external(3, 7));
        }
        let set = p.predict(&query(3));
        assert!(set.contains(NodeId::new(7)));
        assert!(
            !set.contains(NodeId::new(5)),
            "inactive node should be trained down by rollover: {set}"
        );
    }

    #[test]
    fn memory_responses_do_not_allocate() {
        let mut p = predictor();
        p.train(&TrainEvent::<4>::DataResponse {
            block: BlockAddr::new(3),
            pc: Pc::new(0),
            responder: Owner::Memory,
            req: ReqType::GetShared,
            minimal_sufficient: true,
        });
        assert_eq!(p.table_stats().allocations, 0);
    }

    #[test]
    fn shared_external_requests_ignored() {
        let mut p = predictor();
        p.train(&response_from(3, 5));
        p.train(&TrainEvent::<4>::OtherRequest {
            block: BlockAddr::new(3),
            requester: NodeId::new(9),
            req: ReqType::GetShared,
        });
        assert!(!p.predict(&query(3)).contains(NodeId::new(9)));
    }

    #[test]
    fn prediction_superset_of_minimal() {
        let mut p: GroupPredictor = GroupPredictor::new(
            Indexing::Macroblock { bytes: 1024 },
            Capacity::ISCA03,
            &config(),
        );
        p.train(&response_from(3, 5));
        p.train(&response_from(3, 5));
        let q = query(3);
        assert!(p.predict(&q).is_superset(q.minimal));
    }

    #[test]
    fn entry_size_matches_table3() {
        let p = predictor();
        // 16 nodes: 2*16 + 5 = 37 bits ("approximately 8 bytes" with tag).
        assert_eq!(p.entry_payload_bits(), 37);
        let finite: GroupPredictor =
            GroupPredictor::new(Indexing::DataBlock, Capacity::ISCA03, &config());
        let bytes_per_entry = finite.storage_bits() as f64 / 8192.0 / 8.0;
        assert!(
            (6.0..10.0).contains(&bytes_per_entry),
            "{bytes_per_entry} B/entry"
        );
        assert_eq!(p.name(), "Group");
        // The stored entry is the two counter planes plus the rollover
        // counter: 2 words + a u16 at one word per plane.
        assert!(std::mem::size_of::<GroupEntry<1>>() <= 3 * 8);
    }

    /// The entry as it was stored before bit-slicing: one byte-sized
    /// counter per node in a heap `Vec`, grown on first use. Kept as the
    /// oracle for [`GroupEntry`].
    #[derive(Default)]
    struct ReferenceGroupEntry {
        counters: Vec<SatCounter2>,
        rollover: RolloverCounter<5>,
    }

    impl ReferenceGroupEntry {
        fn observe(&mut self, node: NodeId, n: usize) {
            if self.counters.len() < n {
                self.counters.resize(n, SatCounter2::default());
            }
            self.counters[node.index()].increment();
            if self.rollover.increment() {
                for c in &mut self.counters {
                    c.decrement();
                }
            }
        }
    }

    /// Feeds one observation sequence over `n` nodes to a
    /// `GroupEntry<W>` and to the reference entry, comparing them after
    /// every observation. Each pick is either one of four fixed "hot"
    /// nodes (so counters saturate and decay) or a node drawn from all
    /// `n`.
    fn check_against_reference<const W: usize>(n: usize, picks: &[(bool, u16)]) {
        let hot = [0, n - 1, n / 2, 1 % n];
        let system = DestSet::<W>::broadcast(n);
        let mut entry = GroupEntry::<W>::default();
        let mut reference = ReferenceGroupEntry::default();
        for &(is_hot, x) in picks {
            let node = NodeId::new(if is_hot {
                hot[x as usize % hot.len()]
            } else {
                x as usize % n
            });
            entry.observe(node);
            reference.observe(node, n);
            let mut confident = DestSet::<W>::empty();
            for (i, counter) in reference.counters.iter().enumerate() {
                let i = NodeId::new(i);
                if counter.is_confident() {
                    confident.insert(i);
                }
                let planes = 2 * u8::from(entry.hi.contains(i)) + u8::from(entry.lo.contains(i));
                assert_eq!(planes, counter.get(), "n = {n}: counter of {i}");
            }
            assert_eq!(entry.hi, confident, "n = {n}: confident set");
            assert!(
                entry.hi.is_subset(system) && entry.lo.is_subset(system),
                "n = {n}: a bit at or above n is set"
            );
            assert_eq!(entry.rollover, reference.rollover);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bit-sliced entry is observationally the per-node counter
        /// vector, at both set widths and at the width boundaries.
        #[test]
        fn bit_sliced_entry_matches_reference(
            picks in proptest::collection::vec((any::<bool>(), any::<u16>()), 1..400)
        ) {
            for n in [1, 2, 16, 63, 64] {
                check_against_reference::<1>(n, &picks);
            }
            for n in [65, 200, 256] {
                check_against_reference::<4>(n, &picks);
            }
        }
    }

    /// Applies the history step drawn from the 48 random bits `r` to
    /// `p` (disjoint bit fields pick the step kind, block, node, request
    /// and sufficiency); a query step returns the prediction.
    fn history_step<const W: usize>(
        p: &mut GroupPredictor<W>,
        r: u64,
        nodes: usize,
    ) -> Option<DestSet<W>> {
        let block = BlockAddr::new((r & 0xffff) % 48);
        let node = NodeId::new(((r >> 16) & 0xff) as usize % nodes);
        let req = if (r >> 24) & 1 == 0 {
            ReqType::GetShared
        } else {
            ReqType::GetExclusive
        };
        match (r >> 32) % 3 {
            0 => {
                p.train(&TrainEvent::DataResponse {
                    block,
                    pc: Pc::new(0),
                    responder: Owner::Node(node),
                    req,
                    minimal_sufficient: (r >> 25) & 3 == 0,
                });
                None
            }
            1 => {
                p.train(&TrainEvent::OtherRequest {
                    block,
                    requester: node,
                    req,
                });
                None
            }
            _ => Some(p.predict(&PredictQuery {
                block,
                pc: Pc::new(0),
                requester: node,
                req,
                minimal: DestSet::single(node).with(block.home(nodes)),
            })),
        }
    }

    /// `GroupPredictor<1>` and `GroupPredictor<4>` make the same
    /// predictions on the same 16- and 64-node histories, unbounded and
    /// in a small table that evicts.
    #[test]
    fn widths_agree() {
        let small = Capacity::Finite {
            entries: 16,
            ways: 4,
        };
        for nodes in [16, 64] {
            let system = SystemConfig::builder()
                .num_nodes(nodes)
                .build()
                .expect("valid");
            for capacity in [Capacity::Unbounded, small] {
                let mut narrow = GroupPredictor::<1>::new(Indexing::DataBlock, capacity, &system);
                let mut wide = GroupPredictor::<4>::new(Indexing::DataBlock, capacity, &system);
                let mut state = 0x9e37_79b9_7f4a_7c15u64;
                let mut grown = 0;
                for _ in 0..20_000 {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let r = state >> 16;
                    let a = history_step(&mut narrow, r, nodes);
                    let b = history_step(&mut wide, r, nodes);
                    assert_eq!(
                        a.map(DestSet::resize::<4>),
                        b,
                        "{nodes} nodes, {capacity:?}"
                    );
                    grown += usize::from(b.is_some_and(|s| s.len() > 2));
                }
                assert!(
                    grown > 0,
                    "the history never predicted beyond the minimal set"
                );
            }
        }
    }
}
