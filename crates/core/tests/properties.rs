//! Property-based tests over the predictor framework.
//!
//! Invariants checked for every policy under arbitrary interleavings of
//! queries and training events:
//!
//! 1. Predictions are always supersets of the minimal destination set.
//! 2. Predictions never name nodes outside the system.
//! 3. Finite tables never exceed their configured capacity.
//! 4. Predictors are deterministic: the same history yields the same
//!    prediction.
//! 5. `observes_other` keeps its contract: dropping every external
//!    request a predictor claims not to observe changes no prediction
//!    and no storage count.
//!
//! Invariants 1 and 2 run at the paper's 16 nodes and again at 256
//! nodes, the four-word destination-set shape of the `timing-wide`
//! benchmark workload.

use proptest::prelude::*;

use dsp_core::{Capacity, DestSetPredictor, Indexing, PredictQuery, PredictorConfig, TrainEvent};
use dsp_types::{BlockAddr, DestSet, NodeId, Owner, Pc, ReqType, SystemConfig};

const NODES: usize = 16;
/// The widest system: every word of a `DestSet<4>` is in use.
const WIDE_NODES: usize = 256;

fn all_configs() -> Vec<PredictorConfig> {
    let caps = [
        Capacity::Unbounded,
        Capacity::Finite {
            entries: 64,
            ways: 4,
        },
    ];
    let idx = [
        Indexing::DataBlock,
        Indexing::Macroblock { bytes: 256 },
        Indexing::Macroblock { bytes: 1024 },
        Indexing::ProgramCounter,
    ];
    let mut configs = Vec::new();
    for cap in caps {
        for ix in idx {
            configs.push(PredictorConfig::owner().indexing(ix).entries(cap));
            configs.push(
                PredictorConfig::broadcast_if_shared()
                    .indexing(ix)
                    .entries(cap),
            );
            configs.push(PredictorConfig::group().indexing(ix).entries(cap));
            configs.push(PredictorConfig::owner_group().indexing(ix).entries(cap));
            configs.push(PredictorConfig::two_level_owner().indexing(ix).entries(cap));
        }
    }
    configs.push(PredictorConfig::sticky_spatial(1));
    configs.push(
        PredictorConfig::sticky_spatial(2).entries(Capacity::Finite {
            entries: 64,
            ways: 1,
        }),
    );
    configs.push(PredictorConfig::always_broadcast());
    configs.push(PredictorConfig::always_minimal());
    configs.push(PredictorConfig::random(12345));
    configs
}

#[derive(Clone, Debug)]
enum Step {
    Query {
        block: u64,
        pc: u64,
        requester: usize,
        exclusive: bool,
    },
    Response {
        block: u64,
        pc: u64,
        responder: Option<usize>,
        exclusive: bool,
        sufficient: bool,
    },
    External {
        block: u64,
        requester: usize,
        exclusive: bool,
    },
    Reissue {
        block: u64,
        mask: u16,
    },
}

fn step_strategy(nodes: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..128, 0u64..64, 0usize..nodes, any::<bool>()).prop_map(
            |(block, pc, requester, exclusive)| Step::Query {
                block,
                pc: 0x1000 + pc * 4,
                requester,
                exclusive
            }
        ),
        (
            0u64..128,
            0u64..64,
            proptest::option::of(0usize..nodes),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(
                |(block, pc, responder, exclusive, sufficient)| Step::Response {
                    block,
                    pc: 0x1000 + pc * 4,
                    responder,
                    exclusive,
                    sufficient
                }
            ),
        (0u64..128, 0usize..nodes, any::<bool>()).prop_map(|(block, requester, exclusive)| {
            Step::External {
                block,
                requester,
                exclusive,
            }
        }),
        (0u64..128, any::<u16>()).prop_map(|(block, mask)| Step::Reissue { block, mask }),
    ]
}

fn req_type(exclusive: bool) -> ReqType {
    if exclusive {
        ReqType::GetExclusive
    } else {
        ReqType::GetShared
    }
}

/// Checks invariant 5 for every policy at width `W` on `nodes` nodes:
/// `steps` and the same steps without the external requests the
/// predictor does not observe give identical predictions at every
/// query and identical storage.
fn check_unobserved_are_no_ops<const W: usize>(steps: &[Step], nodes: usize) {
    let sys = SystemConfig::builder()
        .num_nodes(nodes)
        .build()
        .expect("valid node count");
    for config in all_configs() {
        let mut full = config.build_width::<W>(&sys);
        let mut filtered = config.build_width::<W>(&sys);
        let kept: Vec<Step> = steps
            .iter()
            .filter(|step| match **step {
                Step::External { exclusive, .. } => filtered.observes_other(req_type(exclusive)),
                _ => true,
            })
            .cloned()
            .collect();
        let expect = run_steps(full.as_mut(), steps, nodes);
        let got = run_steps(filtered.as_mut(), &kept, nodes);
        assert_eq!(
            expect,
            got,
            "{} at {nodes} nodes: a dropped unobserved request changed a prediction",
            config.label()
        );
        assert_eq!(
            full.storage_bits(),
            filtered.storage_bits(),
            "{} at {nodes} nodes: a dropped unobserved request changed storage",
            config.label()
        );
    }
}

fn run_steps<const W: usize>(
    predictor: &mut dyn DestSetPredictor<W>,
    steps: &[Step],
    nodes: usize,
) -> Vec<DestSet<W>> {
    let mut predictions = Vec::new();
    for step in steps {
        match *step {
            Step::Query {
                block,
                pc,
                requester,
                exclusive,
            } => {
                let block = BlockAddr::new(block);
                let requester = NodeId::new(requester);
                let minimal = DestSet::single(requester).with(block.home(nodes));
                let q = PredictQuery {
                    block,
                    pc: Pc::new(pc),
                    requester,
                    req: req_type(exclusive),
                    minimal,
                };
                let prediction = predictor.predict(&q);
                assert!(
                    prediction.is_superset(minimal),
                    "{}: prediction {prediction} lost minimal {minimal}",
                    predictor.name()
                );
                assert!(
                    prediction.is_subset(DestSet::broadcast(nodes)),
                    "{}: prediction {prediction} names nodes outside the system",
                    predictor.name()
                );
                predictions.push(prediction);
            }
            Step::Response {
                block,
                pc,
                responder,
                exclusive,
                sufficient,
            } => {
                predictor.train(&TrainEvent::DataResponse {
                    block: BlockAddr::new(block),
                    pc: Pc::new(pc),
                    responder: match responder {
                        None => Owner::Memory,
                        Some(n) => Owner::Node(NodeId::new(n)),
                    },
                    req: req_type(exclusive),
                    minimal_sufficient: sufficient,
                });
            }
            Step::External {
                block,
                requester,
                exclusive,
            } => {
                predictor.train(&TrainEvent::OtherRequest {
                    block: BlockAddr::new(block),
                    requester: NodeId::new(requester),
                    req: req_type(exclusive),
                });
            }
            Step::Reissue { block, mask } => {
                predictor.train(&TrainEvent::Reissue {
                    block: BlockAddr::new(block),
                    corrected: DestSet::from_bits(mask as u64),
                });
            }
        }
    }
    predictions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn predictions_are_superset_of_minimal_and_within_system(
        steps in proptest::collection::vec(step_strategy(NODES), 1..200)
    ) {
        let sys = SystemConfig::isca03();
        for config in all_configs() {
            let mut p = config.build(&sys);
            run_steps(p.as_mut(), &steps, NODES);
        }
    }

    /// Invariants 1 and 2 for every policy on a 256-node system, where
    /// requesters, responders and homes span all four set words.
    #[test]
    fn wide_predictions_are_superset_of_minimal_and_within_system(
        steps in proptest::collection::vec(step_strategy(WIDE_NODES), 1..200)
    ) {
        let sys = SystemConfig::builder()
            .num_nodes(WIDE_NODES)
            .build()
            .expect("valid node count");
        for config in all_configs() {
            let mut p = config.build(&sys);
            run_steps(p.as_mut(), &steps, WIDE_NODES);
        }
    }

    /// Invariant 5 at both simulator widths: one word at 16 and 64
    /// nodes, four words at 256.
    #[test]
    fn unobserved_external_requests_are_no_ops(
        steps in proptest::collection::vec(step_strategy(NODES), 1..200),
        steps_64 in proptest::collection::vec(step_strategy(64), 1..200),
        wide_steps in proptest::collection::vec(step_strategy(WIDE_NODES), 1..200),
    ) {
        check_unobserved_are_no_ops::<1>(&steps, NODES);
        check_unobserved_are_no_ops::<1>(&steps_64, 64);
        check_unobserved_are_no_ops::<4>(&wide_steps, WIDE_NODES);
    }

    #[test]
    fn predictors_are_deterministic(
        steps in proptest::collection::vec(step_strategy(NODES), 1..100)
    ) {
        let sys = SystemConfig::isca03();
        for config in [
            PredictorConfig::owner(),
            PredictorConfig::group(),
            PredictorConfig::owner_group(),
            PredictorConfig::broadcast_if_shared(),
            PredictorConfig::sticky_spatial(1),
        ] {
            let mut a = config.build(&sys);
            let mut b = config.build(&sys);
            let pa = run_steps(a.as_mut(), &steps, NODES);
            let pb = run_steps(b.as_mut(), &steps, NODES);
            prop_assert_eq!(pa, pb, "{} not deterministic", config.label());
        }
    }

    #[test]
    fn storage_accounting_is_monotonic_for_unbounded(
        steps in proptest::collection::vec(step_strategy(NODES), 1..100)
    ) {
        let sys = SystemConfig::isca03();
        let config = PredictorConfig::group().entries(Capacity::Unbounded);
        let mut p = config.build(&sys);
        let mut last = p.storage_bits();
        for chunk in steps.chunks(10) {
            run_steps(p.as_mut(), chunk, NODES);
            let now = p.storage_bits();
            prop_assert!(now >= last, "unbounded storage shrank: {last} -> {now}");
            last = now;
        }
    }
}
