//! The Owner policy (paper Table 3, column 1).

use dsp_types::{DestSet, NodeId, Owner, ReqType, SystemConfig};

use crate::events::{PredictQuery, TrainEvent};
use crate::index::Indexing;
use crate::policies::trains_on_other;
use crate::table::{Capacity, PredictorTable, TableStats};
use crate::DestSetPredictor;

/// One Owner entry: "Owner ID and Valid bit".
#[derive(Clone, Copy, Debug, Default)]
struct OwnerEntry {
    owner: Option<NodeId>,
}

/// Predicts that the *last observed owner* of a block must see the
/// request.
///
/// Targets pairwise sharing and bandwidth-limited systems: it adds at
/// most one node beyond the minimal set, independent of system size.
/// Training follows Table 3 exactly:
///
/// * data response from memory → clear valid;
/// * data response from a cache → record the responder as owner;
/// * observed external request for exclusive → record the requester;
/// * observed external request for shared → ignored.
///
/// # Example
///
/// ```
/// use dsp_core::policies::OwnerPredictor;
/// use dsp_core::{Capacity, DestSetPredictor, Indexing, PredictQuery, TrainEvent};
/// use dsp_types::{BlockAddr, DestSet, NodeId, Owner, Pc, ReqType, SystemConfig};
///
/// let config = SystemConfig::isca03();
/// let mut p = OwnerPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config);
/// let block = BlockAddr::new(4);
/// p.train(&TrainEvent::<4>::DataResponse {
///     block,
///     pc: Pc::new(0),
///     responder: Owner::Node(NodeId::new(9)),
///     req: ReqType::GetShared,
///     minimal_sufficient: false,
/// });
/// let q: PredictQuery = PredictQuery {
///     block,
///     pc: Pc::new(0),
///     requester: NodeId::new(0),
///     req: ReqType::GetShared,
///     minimal: DestSet::single(NodeId::new(0)),
/// };
/// assert!(p.predict(&q).contains(NodeId::new(9)));
/// ```
#[derive(Debug)]
pub struct OwnerPredictor {
    indexing: Indexing,
    table: PredictorTable<OwnerEntry>,
    num_nodes: usize,
}

impl OwnerPredictor {
    /// Creates an Owner predictor.
    pub fn new(indexing: Indexing, capacity: Capacity, config: &SystemConfig) -> Self {
        OwnerPredictor {
            indexing,
            table: PredictorTable::new(capacity),
            num_nodes: config.num_nodes(),
        }
    }

    /// Table statistics (lookups, hits, allocations, evictions).
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }
}

impl<const W: usize> DestSetPredictor<W> for OwnerPredictor {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        let key = self.indexing.key(query.block, query.pc);
        match self.table.lookup(key) {
            Some(OwnerEntry { owner: Some(owner) }) => query.minimal.with(*owner),
            _ => query.minimal,
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
                let key = self.indexing.key(block, pc);
                // Allocate only when the minimal set proved insufficient.
                self.table.train(key, !minimal_sufficient, |e| {
                    e.owner = match responder {
                        Owner::Memory => None,
                        Owner::Node(n) => Some(n),
                    };
                });
            }
            TrainEvent::OtherRequest {
                block,
                requester,
                req,
            } => {
                // External requests train existing entries but do not
                // allocate; PC-indexed predictors cannot see a foreign
                // PC, so the block's own address trains under PC
                // indexing only via data responses.
                if trains_on_other(self.indexing, req) {
                    let key = self.indexing.key(block, dsp_types::Pc::new(0));
                    self.table.train(key, false, |e| e.owner = Some(requester));
                }
            }
            TrainEvent::Reissue { .. } => {}
        }
    }

    fn observes_other(&self, req: ReqType) -> bool {
        trains_on_other(self.indexing, req)
    }

    fn name(&self) -> String {
        "Owner".to_string()
    }

    fn entry_payload_bits(&self) -> u64 {
        // "log2 N bits + 1 bit" — owner id plus valid.
        (usize::BITS - (self.num_nodes - 1).leading_zeros()) as u64 + 1
    }

    fn storage_bits(&self) -> u64 {
        match self.table.capacity() {
            Capacity::Unbounded => {
                self.table.len() as u64 * DestSetPredictor::<W>::entry_payload_bits(self)
            }
            Capacity::Finite { entries, .. } => {
                entries as u64
                    * (DestSetPredictor::<W>::entry_payload_bits(self) + self.table.tag_bits())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_types::{BlockAddr, Pc};

    fn config() -> SystemConfig {
        SystemConfig::isca03()
    }

    fn query(block: u64, req: ReqType) -> PredictQuery {
        PredictQuery {
            block: BlockAddr::new(block),
            pc: Pc::new(0x100),
            requester: NodeId::new(0),
            req,
            minimal: DestSet::single(NodeId::new(0)).with(BlockAddr::new(block).home(16)),
        }
    }

    fn response(block: u64, responder: Owner, minimal_sufficient: bool) -> TrainEvent {
        TrainEvent::DataResponse {
            block: BlockAddr::new(block),
            pc: Pc::new(0x100),
            responder,
            req: ReqType::GetShared,
            minimal_sufficient,
        }
    }

    #[test]
    fn untrained_returns_minimal() {
        let mut p = OwnerPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config());
        let q = query(5, ReqType::GetShared);
        assert_eq!(p.predict(&q), q.minimal);
    }

    #[test]
    fn cache_response_trains_owner() {
        let mut p = OwnerPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config());
        p.train(&response(5, Owner::Node(NodeId::new(7)), false));
        let q = query(5, ReqType::GetShared);
        assert_eq!(p.predict(&q), q.minimal.with(NodeId::new(7)));
    }

    #[test]
    fn memory_response_clears_valid() {
        let mut p = OwnerPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config());
        p.train(&response(5, Owner::Node(NodeId::new(7)), false));
        p.train(&response(5, Owner::Memory, false));
        let q = query(5, ReqType::GetShared);
        assert_eq!(
            p.predict(&q),
            q.minimal,
            "Table 3: memory response clears Valid"
        );
    }

    #[test]
    fn external_exclusive_request_takes_over_ownership() {
        let mut p = OwnerPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config());
        p.train(&response(5, Owner::Node(NodeId::new(7)), false));
        p.train(&TrainEvent::<4>::OtherRequest {
            block: BlockAddr::new(5),
            requester: NodeId::new(3),
            req: ReqType::GetExclusive,
        });
        let q = query(5, ReqType::GetShared);
        assert_eq!(p.predict(&q), q.minimal.with(NodeId::new(3)));
    }

    #[test]
    fn external_shared_request_ignored() {
        let mut p = OwnerPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config());
        p.train(&response(5, Owner::Node(NodeId::new(7)), false));
        p.train(&TrainEvent::<4>::OtherRequest {
            block: BlockAddr::new(5),
            requester: NodeId::new(3),
            req: ReqType::GetShared,
        });
        let q = query(5, ReqType::GetShared);
        assert_eq!(
            p.predict(&q),
            q.minimal.with(NodeId::new(7)),
            "Table 3: GETS ignored"
        );
    }

    #[test]
    fn no_allocation_when_minimal_sufficed() {
        let mut p = OwnerPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config());
        p.train(&response(5, Owner::Memory, true));
        assert_eq!(p.table_stats().allocations, 0);
        // External requests alone never allocate either.
        p.train(&TrainEvent::<4>::OtherRequest {
            block: BlockAddr::new(5),
            requester: NodeId::new(3),
            req: ReqType::GetExclusive,
        });
        assert_eq!(p.table_stats().allocations, 0);
    }

    #[test]
    fn macroblock_indexing_aggregates_neighbors() {
        let mut p = OwnerPredictor::new(
            Indexing::Macroblock { bytes: 1024 },
            Capacity::Unbounded,
            &config(),
        );
        // Train on block 0; predict on block 15 (same 1024B macroblock).
        p.train(&response(0, Owner::Node(NodeId::new(9)), false));
        let q = query(15, ReqType::GetShared);
        assert!(p.predict(&q).contains(NodeId::new(9)));
        // Block 16 is in the next macroblock: untrained.
        let q = query(16, ReqType::GetShared);
        assert_eq!(p.predict(&q), q.minimal);
    }

    #[test]
    fn prediction_includes_minimal_set() {
        let mut p = OwnerPredictor::new(Indexing::DataBlock, Capacity::ISCA03, &config());
        p.train(&response(5, Owner::Node(NodeId::new(7)), false));
        let q = query(5, ReqType::GetExclusive);
        assert!(p.predict(&q).is_superset(q.minimal));
    }

    #[test]
    fn entry_size_matches_table3() {
        let p = OwnerPredictor::new(Indexing::DataBlock, Capacity::ISCA03, &config());
        // 16 nodes: log2(16) + 1 = 5 bits payload.
        assert_eq!(DestSetPredictor::<4>::entry_payload_bits(&p), 5);
        // 8192 entries with ~31-bit tags: ~4.5 bytes/entry, "approximately
        // 4 bytes" in the paper.
        let bytes_per_entry = DestSetPredictor::<4>::storage_bits(&p) as f64 / 8192.0 / 8.0;
        assert!(
            (3.0..6.0).contains(&bytes_per_entry),
            "{bytes_per_entry} B/entry"
        );
        assert_eq!(DestSetPredictor::<4>::name(&p), "Owner");
    }
}
