//! An adversarial random predictor for protocol stress testing.

use dsp_types::{DestSet, ReqType, SystemConfig};

use crate::events::{PredictQuery, TrainEvent};
use crate::DestSetPredictor;

/// Predicts a *uniformly random* destination set on every query.
///
/// Not a real policy: it exists to falsify the protocol layers. A
/// correct multicast snooping implementation must tolerate arbitrary
/// predictions — any insufficient set is caught by the home directory
/// and reissued, and the third attempt broadcasts — so the simulator
/// must complete every miss and never deadlock no matter what this
/// predictor returns. The stress suites in `dsp-sim` and the root
/// crate's integration tests run entire workloads through it.
///
/// Deterministic for a given seed (xorshift over the query identity),
/// so failures reproduce.
#[derive(Clone, Debug)]
pub struct RandomPredictor {
    seed: u64,
    state: u64,
    nodes: usize,
}

impl RandomPredictor {
    /// Creates a seeded random predictor for `config`-sized systems.
    pub fn new(seed: u64, config: &SystemConfig) -> Self {
        RandomPredictor {
            seed,
            state: seed | 1,
            nodes: config.num_nodes(),
        }
    }

    fn next_mask(&mut self, salt: u64) -> u64 {
        // xorshift64* keyed by query identity and call count.
        let mut x = self.state ^ salt.wrapping_mul(dsp_types::hash::FX_MIX) ^ self.seed;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl<const W: usize> DestSetPredictor<W> for RandomPredictor {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        let broadcast = DestSet::broadcast(self.nodes);
        let random = if self.nodes <= 64 {
            // One draw, as the predictor always did for paper-sized
            // systems (keeps existing seeded streams identical).
            DestSet::from_bits(self.next_mask(query.block.number()))
        } else {
            // Wider systems draw one mask word per set word so nodes
            // 64..=255 are stressed too.
            let mut words = [0u64; W];
            for w in &mut words {
                *w = self.next_mask(query.block.number());
            }
            DestSet::from_words(words)
        };
        query.minimal | (random & broadcast)
    }

    fn train(&mut self, _event: &TrainEvent<W>) {}

    fn observes_other(&self, _req: ReqType) -> bool {
        false
    }

    fn name(&self) -> String {
        "Random (stress)".to_string()
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

    fn query(block: u64) -> PredictQuery {
        PredictQuery {
            block: BlockAddr::new(block),
            pc: Pc::new(0),
            requester: NodeId::new(0),
            req: ReqType::GetShared,
            minimal: DestSet::single(NodeId::new(0)).with(BlockAddr::new(block).home(16)),
        }
    }

    #[test]
    fn always_superset_of_minimal() {
        let mut p = RandomPredictor::new(99, &SystemConfig::isca03());
        for b in 0..1000 {
            let q = query(b);
            assert!(p.predict(&q).is_superset(q.minimal));
        }
    }

    #[test]
    fn stays_within_the_system() {
        let cfg = SystemConfig::builder().num_nodes(5).build().expect("valid");
        let mut p = RandomPredictor::new(7, &cfg);
        let all = DestSet::broadcast(5);
        for b in 0..1000 {
            let mut q = query(b);
            q.minimal = DestSet::single(NodeId::new(0)).with(BlockAddr::new(b).home(5));
            assert!(p.predict(&q).is_subset(all));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let sys = SystemConfig::isca03();
        let mut a = RandomPredictor::new(5, &sys);
        let mut b = RandomPredictor::new(5, &sys);
        for blk in 0..100 {
            assert_eq!(a.predict(&query(blk)), b.predict(&query(blk)));
        }
        let mut c = RandomPredictor::new(6, &sys);
        let differs = (0..100).any(|blk| {
            RandomPredictor::new(5, &sys).predict(&query(blk)) != c.predict(&query(blk))
        });
        assert!(differs);
    }

    #[test]
    fn wide_systems_stress_upper_nodes() {
        let cfg = SystemConfig::builder()
            .num_nodes(256)
            .build()
            .expect("valid");
        let mut p = RandomPredictor::new(17, &cfg);
        let mut upper = DestSet::empty();
        for b in 0..200 {
            let mut q = query(b);
            q.minimal = DestSet::single(NodeId::new(0)).with(BlockAddr::new(b).home(256));
            let set = p.predict(&q);
            assert!(set.is_subset(DestSet::broadcast(256)));
            upper |= set - DestSet::broadcast(64);
        }
        assert!(
            upper.len() > 50,
            "random stress must reach nodes 64..=255, got {upper}"
        );
    }

    #[test]
    fn predictions_vary() {
        let mut p = RandomPredictor::new(3, &SystemConfig::isca03());
        let sets: std::collections::HashSet<u64> =
            (0..50).map(|b| p.predict(&query(b)).bits()).collect();
        assert!(
            sets.len() > 10,
            "random predictor should produce diverse sets"
        );
    }
}
