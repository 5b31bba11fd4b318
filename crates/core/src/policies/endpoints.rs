//! The two non-predicting endpoints of the design space.

use dsp_types::{DestSet, ReqType, SystemConfig};

use crate::events::{PredictQuery, TrainEvent};
use crate::DestSetPredictor;

/// Always predicts the maximal destination set — broadcast snooping's
/// "perfect accuracy at maximal bandwidth" corner of the design space.
#[derive(Clone, Debug)]
pub struct AlwaysBroadcastPredictor<const W: usize = 4> {
    broadcast: DestSet<W>,
}

impl<const W: usize> AlwaysBroadcastPredictor<W> {
    /// Creates the broadcast endpoint for `config`-sized systems.
    pub fn new(config: &SystemConfig) -> Self {
        AlwaysBroadcastPredictor {
            broadcast: DestSet::broadcast(config.num_nodes()),
        }
    }
}

impl<const W: usize> DestSetPredictor<W> for AlwaysBroadcastPredictor<W> {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        query.minimal | self.broadcast
    }

    fn train(&mut self, _event: &TrainEvent<W>) {}

    fn observes_other(&self, _req: ReqType) -> bool {
        false
    }

    fn name(&self) -> String {
        "Broadcast".to_string()
    }

    fn entry_payload_bits(&self) -> u64 {
        0
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

/// Always predicts the minimal destination set — the directory
/// protocol's "minimal bandwidth, maximal indirection" corner.
#[derive(Clone, Debug, Default)]
pub struct AlwaysMinimalPredictor;

impl AlwaysMinimalPredictor {
    /// Creates the minimal endpoint.
    pub fn new() -> Self {
        AlwaysMinimalPredictor
    }
}

impl<const W: usize> DestSetPredictor<W> for AlwaysMinimalPredictor {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        query.minimal
    }

    fn train(&mut self, _event: &TrainEvent<W>) {}

    fn observes_other(&self, _req: ReqType) -> bool {
        false
    }

    fn name(&self) -> String {
        "Minimal".to_string()
    }

    fn entry_payload_bits(&self) -> u64 {
        0
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_types::{BlockAddr, NodeId, Pc, ReqType};

    fn query() -> PredictQuery {
        PredictQuery {
            block: BlockAddr::new(1),
            pc: Pc::new(0),
            requester: NodeId::new(0),
            req: ReqType::GetShared,
            minimal: DestSet::single(NodeId::new(0)).with(NodeId::new(3)),
        }
    }

    #[test]
    fn broadcast_covers_everyone() {
        let mut p: AlwaysBroadcastPredictor =
            AlwaysBroadcastPredictor::new(&SystemConfig::isca03());
        assert_eq!(p.predict(&query()).len(), 16);
        assert_eq!(p.storage_bits(), 0);
        assert_eq!(p.name(), "Broadcast");
    }

    #[test]
    fn minimal_returns_exactly_minimal() {
        let mut p = AlwaysMinimalPredictor::new();
        let q = query();
        assert_eq!(p.predict(&q), q.minimal);
        assert_eq!(DestSetPredictor::<4>::storage_bits(&p), 0);
        assert_eq!(DestSetPredictor::<4>::name(&p), "Minimal");
    }

    #[test]
    fn training_is_a_no_op() {
        let mut b: AlwaysBroadcastPredictor =
            AlwaysBroadcastPredictor::new(&SystemConfig::isca03());
        let mut m = AlwaysMinimalPredictor::new();
        let e = TrainEvent::OtherRequest {
            block: BlockAddr::new(1),
            requester: NodeId::new(5),
            req: ReqType::GetExclusive,
        };
        b.train(&e);
        m.train(&e);
        let q = query();
        assert_eq!(b.predict(&q).len(), 16);
        assert_eq!(m.predict(&q), q.minimal);
    }
}
