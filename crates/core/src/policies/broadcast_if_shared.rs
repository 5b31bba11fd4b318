//! The Broadcast-If-Shared policy (paper Table 3, column 2).

use dsp_types::{DestSet, Owner, ReqType, SystemConfig};

use crate::counters::SatCounter2;
use crate::events::{PredictQuery, TrainEvent};
use crate::index::Indexing;
use crate::policies::trains_on_other;
use crate::table::{Capacity, PredictorTable, TableStats};
use crate::DestSetPredictor;

/// One entry: a single 2-bit saturating counter.
#[derive(Clone, Copy, Debug, Default)]
struct BisEntry {
    counter: SatCounter2,
}

/// Broadcasts when a block *appears shared*, otherwise sends the minimal
/// set.
///
/// Targets workloads where most shared data are widely shared, or where
/// bandwidth is plentiful: it performs comparably to broadcast snooping
/// while skipping the broadcast for data that is not shared. The 2-bit
/// counter is incremented on requests and responses from other
/// processors and decremented on responses from memory; the entry
/// predicts broadcast when the counter exceeds 1.
#[derive(Debug)]
pub struct BroadcastIfSharedPredictor<const W: usize = 4> {
    indexing: Indexing,
    table: PredictorTable<BisEntry>,
    broadcast: DestSet<W>,
}

impl<const W: usize> BroadcastIfSharedPredictor<W> {
    /// Creates a Broadcast-If-Shared predictor.
    pub fn new(indexing: Indexing, capacity: Capacity, config: &SystemConfig) -> Self {
        BroadcastIfSharedPredictor {
            indexing,
            table: PredictorTable::new(capacity),
            broadcast: DestSet::broadcast(config.num_nodes()),
        }
    }

    /// Table statistics.
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }
}

impl<const W: usize> DestSetPredictor<W> for BroadcastIfSharedPredictor<W> {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        let key = self.indexing.key(query.block, query.pc);
        match self.table.lookup(key) {
            Some(entry) if entry.counter.is_confident() => query.minimal | self.broadcast,
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
                self.table
                    .train(key, !minimal_sufficient, |e| match responder {
                        Owner::Memory => e.counter.decrement(),
                        Owner::Node(_) => e.counter.increment(),
                    });
            }
            TrainEvent::OtherRequest { block, req, .. } => {
                if trains_on_other(self.indexing, req) {
                    let key = self.indexing.key(block, dsp_types::Pc::new(0));
                    self.table.train(key, false, |e| e.counter.increment());
                }
            }
            TrainEvent::Reissue { .. } => {}
        }
    }

    fn observes_other(&self, req: ReqType) -> bool {
        trains_on_other(self.indexing, req)
    }

    fn name(&self) -> String {
        "Broadcast-If-Shared".to_string()
    }

    fn entry_payload_bits(&self) -> u64 {
        2
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
    use dsp_types::{BlockAddr, NodeId, Pc};

    fn config() -> SystemConfig {
        SystemConfig::isca03()
    }

    fn predictor() -> BroadcastIfSharedPredictor<4> {
        BroadcastIfSharedPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config())
    }

    fn query(block: u64) -> PredictQuery {
        PredictQuery {
            block: BlockAddr::new(block),
            pc: Pc::new(0),
            requester: NodeId::new(0),
            req: ReqType::GetShared,
            minimal: DestSet::single(NodeId::new(0)).with(BlockAddr::new(block).home(16)),
        }
    }

    fn cache_response(block: u64) -> TrainEvent {
        TrainEvent::DataResponse {
            block: BlockAddr::new(block),
            pc: Pc::new(0),
            responder: Owner::Node(NodeId::new(5)),
            req: ReqType::GetShared,
            minimal_sufficient: false,
        }
    }

    fn memory_response(block: u64) -> TrainEvent {
        TrainEvent::DataResponse {
            block: BlockAddr::new(block),
            pc: Pc::new(0),
            responder: Owner::Memory,
            req: ReqType::GetShared,
            minimal_sufficient: false,
        }
    }

    #[test]
    fn needs_two_signals_to_broadcast() {
        let mut p = predictor();
        p.train(&cache_response(7));
        assert_eq!(
            p.predict(&query(7)),
            query(7).minimal,
            "counter 1 is not confident"
        );
        p.train(&cache_response(7));
        assert_eq!(
            p.predict(&query(7)),
            DestSet::broadcast(16),
            "counter 2 broadcasts"
        );
    }

    #[test]
    fn memory_responses_train_down() {
        let mut p = predictor();
        p.train(&cache_response(7));
        p.train(&cache_response(7));
        p.train(&memory_response(7));
        assert_eq!(
            p.predict(&query(7)),
            query(7).minimal,
            "decremented below threshold"
        );
    }

    #[test]
    fn external_exclusive_requests_train_up() {
        let mut p = predictor();
        p.train(&cache_response(7)); // allocates at counter 1
        p.train(&TrainEvent::OtherRequest {
            block: BlockAddr::new(7),
            requester: NodeId::new(3),
            req: ReqType::GetExclusive,
        });
        assert_eq!(p.predict(&query(7)), DestSet::broadcast(16));
    }

    #[test]
    fn external_shared_requests_ignored() {
        let mut p = predictor();
        p.train(&cache_response(7));
        p.train(&TrainEvent::OtherRequest {
            block: BlockAddr::new(7),
            requester: NodeId::new(3),
            req: ReqType::GetShared,
        });
        assert_eq!(p.predict(&query(7)), query(7).minimal);
    }

    #[test]
    fn broadcast_includes_minimal() {
        let mut p = predictor();
        p.train(&cache_response(7));
        p.train(&cache_response(7));
        let q = query(7);
        assert!(p.predict(&q).is_superset(q.minimal));
    }

    #[test]
    fn entry_size_matches_table3() {
        let p = predictor();
        assert_eq!(p.entry_payload_bits(), 2, "Table 3: 2 bits + tag");
        assert_eq!(p.name(), "Broadcast-If-Shared");
    }
}
