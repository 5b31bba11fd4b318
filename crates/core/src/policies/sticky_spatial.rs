//! The Sticky-Spatial(k) predictor of Bilir et al. (paper §3.5).

use dsp_types::{DestSet, Owner, ReqType, SystemConfig};

use crate::events::{PredictQuery, TrainEvent};
use crate::index::Indexing;
use crate::DestSetPredictor;

/// The original multicast snooping predictor, reproduced as the prior-work
/// baseline for Figure 6(c).
///
/// Structurally unlike the paper's own policies:
///
/// * **untagged and direct-mapped** — the index selects an entry and the
///   tag is ignored, so aliasing blocks share (and pollute) entries;
/// * **"sticky"** — it only trains *up* (OR-ing nodes into a bitmask),
///   relying on aliasing overwrites rather than any train-down
///   mechanism;
/// * **"spatial"** — a prediction is the union of the indexed entry and
///   its `k` neighbor entries on each side, a cruder way of exploiting
///   spatial locality than macroblock indexing.
///
/// It trains by observing data responses and directory reissues (the
/// corrected destination set of a retry), per the original design.
#[derive(Debug)]
pub struct StickySpatialPredictor<const W: usize = 4> {
    entries: Vec<DestSet<W>>,
    span: usize,
    num_nodes: usize,
}

impl<const W: usize> StickySpatialPredictor<W> {
    /// Creates a Sticky-Spatial(`span`) predictor with `entries` slots
    /// (must be a power of two; the original used 4096).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, span: usize, config: &SystemConfig) -> Self {
        assert!(
            entries.is_power_of_two(),
            "entry count must be a power of two, got {entries}"
        );
        StickySpatialPredictor {
            entries: vec![DestSet::empty(); entries],
            span,
            num_nodes: config.num_nodes(),
        }
    }

    /// Number of direct-mapped slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no slots (never true — construction
    /// requires a power of two).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn slot(&self, key: u64) -> usize {
        (key as usize) & (self.entries.len() - 1)
    }

    fn train_up(&mut self, key: u64, nodes: DestSet<W>) {
        let slot = self.slot(key);
        self.entries[slot] |= nodes;
    }
}

impl<const W: usize> DestSetPredictor<W> for StickySpatialPredictor<W> {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        let key = Indexing::DataBlock.key(query.block, query.pc);
        let base = self.slot(key);
        let len = self.entries.len();
        let mut set = query.minimal;
        // Aggregate the entry and its k neighbors on each side
        // (wrapping), "restricting it to a direct-mapped implementation".
        for d in 0..=(2 * self.span) {
            let idx = (base + len + d - self.span) % len;
            set |= self.entries[idx];
        }
        set
    }

    fn train(&mut self, event: &TrainEvent<W>) {
        match *event {
            TrainEvent::DataResponse {
                block, responder, ..
            } => {
                if let Owner::Node(node) = responder {
                    let key = Indexing::DataBlock.key(block, dsp_types::Pc::new(0));
                    self.train_up(key, DestSet::single(node));
                }
            }
            TrainEvent::Reissue { block, corrected } => {
                let key = Indexing::DataBlock.key(block, dsp_types::Pc::new(0));
                self.train_up(key, corrected);
            }
            // Sticky-Spatial trains only on responses and retries from
            // the memory controller.
            TrainEvent::OtherRequest { .. } => {}
        }
    }

    fn observes_other(&self, _req: ReqType) -> bool {
        false
    }

    fn name(&self) -> String {
        format!("Sticky-Spatial({})", self.span)
    }

    fn entry_payload_bits(&self) -> u64 {
        self.num_nodes as u64
    }

    fn storage_bits(&self) -> u64 {
        // Untagged: N bits per slot.
        self.entries.len() as u64 * self.entry_payload_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_types::{BlockAddr, NodeId, Pc, ReqType};

    fn config() -> SystemConfig {
        SystemConfig::isca03()
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

    fn response(block: u64, node: usize) -> TrainEvent {
        TrainEvent::DataResponse {
            block: BlockAddr::new(block),
            pc: Pc::new(0),
            responder: Owner::Node(NodeId::new(node)),
            req: ReqType::GetShared,
            minimal_sufficient: false,
        }
    }

    #[test]
    fn trains_up_from_responses() {
        let mut p = StickySpatialPredictor::new(1024, 1, &config());
        p.train(&response(5, 9));
        assert!(p.predict(&query(5)).contains(NodeId::new(9)));
    }

    #[test]
    fn spatial_aggregation_reads_neighbors() {
        let mut p = StickySpatialPredictor::new(1024, 1, &config());
        p.train(&response(6, 9));
        // Blocks 5 and 7 index the neighbor slots of 6.
        assert!(p.predict(&query(5)).contains(NodeId::new(9)));
        assert!(p.predict(&query(7)).contains(NodeId::new(9)));
        // Block 8 is two slots away: out of span 1.
        assert!(!p.predict(&query(8)).contains(NodeId::new(9)));
    }

    #[test]
    fn never_trains_down() {
        let mut p = StickySpatialPredictor::new(1024, 0, &config());
        p.train(&response(5, 9));
        // A memory response does NOT clear anything (sticky).
        p.train(&TrainEvent::DataResponse {
            block: BlockAddr::new(5),
            pc: Pc::new(0),
            responder: Owner::Memory,
            req: ReqType::GetShared,
            minimal_sufficient: true,
        });
        assert!(p.predict(&query(5)).contains(NodeId::new(9)));
    }

    #[test]
    fn aliasing_pollutes_untagged_entries() {
        let mut p = StickySpatialPredictor::new(16, 0, &config());
        p.train(&response(3, 9));
        // Block 3 + 16 aliases to the same slot — and inherits P9.
        assert!(p.predict(&query(3 + 16)).contains(NodeId::new(9)));
    }

    #[test]
    fn reissue_trains_whole_corrected_set() {
        let mut p = StickySpatialPredictor::new(1024, 0, &config());
        let corrected = DestSet::from_iter([NodeId::new(2), NodeId::new(4), NodeId::new(6)]);
        p.train(&TrainEvent::Reissue {
            block: BlockAddr::new(5),
            corrected,
        });
        assert!(p.predict(&query(5)).is_superset(corrected));
    }

    #[test]
    fn external_requests_ignored() {
        let mut p = StickySpatialPredictor::new(1024, 1, &config());
        p.train(&TrainEvent::OtherRequest {
            block: BlockAddr::new(5),
            requester: NodeId::new(9),
            req: ReqType::GetExclusive,
        });
        assert!(!p.predict(&query(5)).contains(NodeId::new(9)));
    }

    #[test]
    fn storage_is_n_bits_per_slot() {
        let p: StickySpatialPredictor = StickySpatialPredictor::new(4096, 1, &config());
        assert_eq!(p.storage_bits(), 4096 * 16);
        assert_eq!(p.len(), 4096);
        assert_eq!(p.name(), "Sticky-Spatial(1)");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _: StickySpatialPredictor = StickySpatialPredictor::new(1000, 1, &config());
    }
}
