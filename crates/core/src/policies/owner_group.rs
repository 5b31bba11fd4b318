//! The Owner/Group hybrid policy (paper §3.3).

use dsp_types::{DestSet, ReqType, SystemConfig};

use crate::events::{PredictQuery, TrainEvent};
use crate::index::Indexing;
use crate::policies::{GroupPredictor, OwnerPredictor};
use crate::table::Capacity;
use crate::DestSetPredictor;

/// Uses a [`GroupPredictor`] for requests for exclusive and an
/// [`OwnerPredictor`] for requests for shared.
///
/// Targets stable sharing patterns under more limited bandwidth than
/// Group alone: because every member of a stable sharing set observes all
/// requests for exclusive, each member can track the current owner, so
/// requests for shared can be sent to just the predicted owner —
/// reducing bandwidth while keeping Group's accuracy for writes.
///
/// Generic over the destination-set word width `W`, which its Group
/// half stores its counter planes at.
#[derive(Debug)]
pub struct OwnerGroupPredictor<const W: usize = 4> {
    owner: OwnerPredictor,
    group: GroupPredictor<W>,
}

impl<const W: usize> OwnerGroupPredictor<W> {
    /// Creates an Owner/Group predictor; both halves share the indexing
    /// and capacity configuration.
    pub fn new(indexing: Indexing, capacity: Capacity, config: &SystemConfig) -> Self {
        OwnerGroupPredictor {
            owner: OwnerPredictor::new(indexing, capacity, config),
            group: GroupPredictor::new(indexing, capacity, config),
        }
    }
}

impl<const W: usize> DestSetPredictor<W> for OwnerGroupPredictor<W> {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        match query.req {
            ReqType::GetExclusive => self.group.predict(query),
            ReqType::GetShared => self.owner.predict(query),
        }
    }

    fn train(&mut self, event: &TrainEvent<W>) {
        self.owner.train(event);
        self.group.train(event);
    }

    fn observes_other(&self, req: ReqType) -> bool {
        DestSetPredictor::<W>::observes_other(&self.owner, req) || self.group.observes_other(req)
    }

    fn name(&self) -> String {
        "Owner/Group".to_string()
    }

    fn entry_payload_bits(&self) -> u64 {
        DestSetPredictor::<W>::entry_payload_bits(&self.owner) + self.group.entry_payload_bits()
    }

    fn storage_bits(&self) -> u64 {
        DestSetPredictor::<W>::storage_bits(&self.owner) + self.group.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_types::{BlockAddr, NodeId, Owner, Pc};

    fn config() -> SystemConfig {
        SystemConfig::isca03()
    }

    fn query(block: u64, req: ReqType) -> PredictQuery {
        PredictQuery {
            block: BlockAddr::new(block),
            pc: Pc::new(0),
            requester: NodeId::new(0),
            req,
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
    fn reads_use_owner_half() {
        let mut p: OwnerGroupPredictor =
            OwnerGroupPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config());
        // Train group membership for 5 and 7, with 7 as last owner.
        p.train(&response_from(3, 5));
        p.train(&response_from(3, 5));
        p.train(&external(3, 7));
        p.train(&external(3, 7));
        let read = p.predict(&query(3, ReqType::GetShared));
        // Owner half: only the latest owner (7) beyond the minimal set.
        assert!(read.contains(NodeId::new(7)));
        assert!(
            !read.contains(NodeId::new(5)),
            "reads should not multicast to the group"
        );
    }

    #[test]
    fn writes_use_group_half() {
        let mut p: OwnerGroupPredictor =
            OwnerGroupPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config());
        p.train(&response_from(3, 5));
        p.train(&response_from(3, 5));
        p.train(&external(3, 7));
        p.train(&external(3, 7));
        let write = p.predict(&query(3, ReqType::GetExclusive));
        assert!(write.contains(NodeId::new(5)));
        assert!(write.contains(NodeId::new(7)));
    }

    #[test]
    fn write_sets_at_least_as_large_as_read_sets() {
        let mut p: OwnerGroupPredictor =
            OwnerGroupPredictor::new(Indexing::DataBlock, Capacity::Unbounded, &config());
        for node in [2, 4, 6] {
            p.train(&response_from(9, node));
            p.train(&external(9, node));
        }
        let read = p.predict(&query(9, ReqType::GetShared));
        let write = p.predict(&query(9, ReqType::GetExclusive));
        assert!(write.len() >= read.len(), "read {read} vs write {write}");
    }

    #[test]
    fn storage_is_sum_of_halves() {
        let p: OwnerGroupPredictor =
            OwnerGroupPredictor::new(Indexing::DataBlock, Capacity::ISCA03, &config());
        assert_eq!(p.entry_payload_bits(), 5 + 37);
        assert!(p.storage_bits() > 0);
        assert_eq!(p.name(), "Owner/Group");
    }
}
