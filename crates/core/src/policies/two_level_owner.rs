//! A two-level owner predictor (related work, Acacio et al.).

use dsp_types::{DestSet, NodeId, Owner, ReqType, SystemConfig};

use crate::counters::SatCounter2;
use crate::events::{PredictQuery, TrainEvent};
use crate::index::Indexing;
use crate::policies::trains_on_other;
use crate::table::{Capacity, PredictorTable, TableStats};
use crate::DestSetPredictor;

/// One entry: a candidate owner plus a confidence counter gating it.
#[derive(Clone, Copy, Debug, Default)]
struct TwoLevelEntry {
    owner: Option<NodeId>,
    confidence: SatCounter2,
}

/// Owner prediction with a confidence gate, in the style of Acacio et
/// al.'s two-level design (paper §6): the **first level** decides
/// *whether* to predict at all (a 2-bit confidence counter trained by
/// hits and misses of the second level), and the **second level** holds
/// *which* node is believed to own the block.
///
/// Compared to the paper's plain [`crate::policies::OwnerPredictor`],
/// the gate suppresses predictions while ownership is unstable (e.g.
/// active migratory rotation), trading a few extra indirections for
/// fewer wasted request messages.
#[derive(Debug)]
pub struct TwoLevelOwnerPredictor {
    indexing: Indexing,
    table: PredictorTable<TwoLevelEntry>,
    num_nodes: usize,
}

impl TwoLevelOwnerPredictor {
    /// Creates a two-level owner predictor.
    pub fn new(indexing: Indexing, capacity: Capacity, config: &SystemConfig) -> Self {
        TwoLevelOwnerPredictor {
            indexing,
            table: PredictorTable::new(capacity),
            num_nodes: config.num_nodes(),
        }
    }

    /// Table statistics.
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    fn observe(entry: &mut TwoLevelEntry, node: NodeId) {
        match entry.owner {
            Some(current) if current == node => entry.confidence.increment(),
            Some(_) => {
                // Wrong candidate: lose confidence before replacing, so
                // a single outlier does not flush a stable owner.
                if entry.confidence.get() == 0 {
                    entry.owner = Some(node);
                } else {
                    entry.confidence.decrement();
                }
            }
            None => {
                entry.owner = Some(node);
                entry.confidence.increment();
            }
        }
    }
}

impl<const W: usize> DestSetPredictor<W> for TwoLevelOwnerPredictor {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        let key = self.indexing.key(query.block, query.pc);
        match self.table.lookup(key) {
            Some(entry) if entry.confidence.is_confident() => match entry.owner {
                Some(owner) => query.minimal.with(owner),
                None => query.minimal,
            },
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
                        Owner::Memory => e.confidence.decrement(),
                        Owner::Node(n) => Self::observe(e, n),
                    });
            }
            TrainEvent::OtherRequest {
                block,
                requester,
                req,
            } => {
                if trains_on_other(self.indexing, req) {
                    let key = self.indexing.key(block, dsp_types::Pc::new(0));
                    self.table
                        .train(key, false, |e| Self::observe(e, requester));
                }
            }
            TrainEvent::Reissue { .. } => {}
        }
    }

    fn observes_other(&self, req: ReqType) -> bool {
        trains_on_other(self.indexing, req)
    }

    fn name(&self) -> String {
        "Two-Level Owner".to_string()
    }

    fn entry_payload_bits(&self) -> u64 {
        // Owner id + valid + 2-bit confidence.
        (usize::BITS - (self.num_nodes - 1).leading_zeros()) as u64 + 1 + 2
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

    fn predictor() -> TwoLevelOwnerPredictor {
        TwoLevelOwnerPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config())
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

    fn response_from(block: u64, node: usize) -> TrainEvent {
        TrainEvent::DataResponse {
            block: BlockAddr::new(block),
            pc: Pc::new(0),
            responder: Owner::Node(NodeId::new(node)),
            req: ReqType::GetShared,
            minimal_sufficient: false,
        }
    }

    #[test]
    fn gate_requires_confidence() {
        let mut p = predictor();
        p.train(&response_from(3, 5));
        assert_eq!(
            p.predict(&query(3)),
            query(3).minimal,
            "one observation is not confident"
        );
        p.train(&response_from(3, 5));
        assert!(
            p.predict(&query(3)).contains(NodeId::new(5)),
            "two observations open the gate"
        );
    }

    #[test]
    fn unstable_ownership_closes_the_gate() {
        let mut p = predictor();
        p.train(&response_from(3, 5));
        p.train(&response_from(3, 5));
        assert!(p.predict(&query(3)).contains(NodeId::new(5)));
        // Ownership churns: the gate should close rather than chase.
        p.train(&response_from(3, 7));
        p.train(&response_from(3, 9));
        let set = p.predict(&query(3));
        assert_eq!(
            set,
            query(3).minimal,
            "unstable owner must not be predicted: {set}"
        );
    }

    #[test]
    fn candidate_replaced_only_after_confidence_drains() {
        let mut p = predictor();
        p.train(&response_from(3, 5)); // owner=5, conf=1
        p.train(&response_from(3, 7)); // conf drains to 0, owner stays 5
        p.train(&response_from(3, 7)); // conf==0: owner replaced by 7, conf stays 0
        p.train(&response_from(3, 7)); // conf=1
        p.train(&response_from(3, 7)); // conf=2 -> confident
        assert!(p.predict(&query(3)).contains(NodeId::new(7)));
    }

    #[test]
    fn memory_responses_drain_confidence() {
        let mut p = predictor();
        p.train(&response_from(3, 5));
        p.train(&response_from(3, 5));
        p.train(&TrainEvent::<4>::DataResponse {
            block: BlockAddr::new(3),
            pc: Pc::new(0),
            responder: Owner::Memory,
            req: ReqType::GetShared,
            minimal_sufficient: true,
        });
        assert_eq!(p.predict(&query(3)), query(3).minimal);
    }

    #[test]
    fn external_exclusive_requests_train() {
        let mut p = predictor();
        p.train(&response_from(3, 5)); // allocate
        p.train(&TrainEvent::<4>::OtherRequest {
            block: BlockAddr::new(3),
            requester: NodeId::new(5),
            req: ReqType::GetExclusive,
        });
        assert!(p.predict(&query(3)).contains(NodeId::new(5)));
    }

    #[test]
    fn entry_size_adds_confidence_bits() {
        let p = predictor();
        assert_eq!(DestSetPredictor::<4>::entry_payload_bits(&p), 4 + 1 + 2);
        assert_eq!(DestSetPredictor::<4>::name(&p), "Two-Level Owner");
    }
}
