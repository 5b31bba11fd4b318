//! Extending the framework: implement a custom destination-set
//! predictor against the public [`DestSetPredictor`] trait and race it
//! against the paper's policies.
//!
//! The custom policy here is "Owner-Pair": it remembers the *last two*
//! distinct owners of a block and multicasts to both — a middle ground
//! between Owner (one extra target) and Group (up to N).
//!
//! ```bash
//! cargo run --release --example custom_predictor
//! ```

use std::collections::HashMap;

use dsp::predictors::policies::OwnerPredictor;
use dsp::prelude::*;
use dsp_core::{Capacity as TableCapacity, Indexing as Ix};
use dsp_types::Owner;

/// Remembers the last two distinct owners per macroblock.
#[derive(Debug, Default)]
struct OwnerPairPredictor {
    entries: HashMap<u64, [Option<NodeId>; 2]>,
}

impl OwnerPairPredictor {
    fn key(block: BlockAddr) -> u64 {
        block.macroblock(1024).number()
    }

    fn observe(&mut self, block: BlockAddr, node: NodeId) {
        let entry = self.entries.entry(Self::key(block)).or_default();
        if entry[0] == Some(node) {
            return;
        }
        entry[1] = entry[0];
        entry[0] = Some(node);
    }
}

impl dsp::predictors::DestSetPredictor for OwnerPairPredictor {
    fn predict(&mut self, query: &PredictQuery) -> DestSet {
        let mut set = query.minimal;
        if let Some(entry) = self.entries.get(&Self::key(query.block)) {
            for owner in entry.iter().flatten() {
                set.insert(*owner);
            }
        }
        set
    }

    fn train(&mut self, event: &TrainEvent) {
        match *event {
            TrainEvent::DataResponse {
                block,
                responder: Owner::Node(node),
                ..
            } => {
                self.observe(block, node);
            }
            TrainEvent::OtherRequest {
                block,
                requester,
                req,
                ..
            } if req.is_exclusive() => {
                self.observe(block, requester);
            }
            _ => {}
        }
    }

    fn name(&self) -> String {
        "Owner-Pair (custom)".to_string()
    }

    fn entry_payload_bits(&self) -> u64 {
        2 * 5 // two owner ids + valid bits at 16 nodes
    }

    fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * self.entry_payload_bits()
    }
}

/// Evaluate any boxed predictor per node over a trace (a miniature
/// version of what `TradeoffEvaluator` does for built-in configs).
fn evaluate(
    config: &SystemConfig,
    trace: &[TraceRecord],
    warmup: usize,
    mut predictors: Vec<Box<dyn dsp::predictors::DestSetPredictor>>,
    label: &str,
) {
    use dsp::coherence::multicast;
    let mut tracker = CoherenceTracker::new(config);
    let (mut misses, mut messages, mut indirections) = (0u64, 0u64, 0u64);
    for (i, rec) in trace.iter().enumerate() {
        let info = tracker.access(rec.requester, rec.request(), rec.block());
        let query = PredictQuery {
            block: rec.block(),
            pc: rec.pc,
            requester: rec.requester,
            req: rec.request(),
            minimal: info.minimal_set(),
        };
        let predicted = predictors[rec.requester.index()].predict(&query);
        let outcome = multicast::evaluate(&info, predicted);
        if i >= warmup {
            misses += 1;
            messages += outcome.request_messages;
            indirections += u64::from(outcome.indirection);
        }
        let delivered = (predicted | info.minimal_set()).without(rec.requester);
        for node in delivered {
            predictors[node.index()].train(&TrainEvent::OtherRequest {
                block: rec.block(),
                requester: rec.requester,
                req: rec.request(),
            });
        }
        predictors[rec.requester.index()].train(&TrainEvent::DataResponse {
            block: rec.block(),
            pc: rec.pc,
            responder: info.owner_before,
            req: rec.request(),
            minimal_sufficient: info.is_sufficient(info.minimal_set()),
        });
    }
    println!(
        "{:<30} {:>14.2} {:>15.1}",
        label,
        messages as f64 / misses as f64,
        100.0 * indirections as f64 / misses as f64
    );
}

fn main() {
    let config = SystemConfig::isca03();
    let spec = WorkloadSpec::preset(Workload::BarnesHut, &config).scaled(1.0 / 16.0);
    let trace: Vec<TraceRecord> = spec.generator(3).take(120_000).collect();
    let n = config.num_nodes();
    let warmup = 20_000;

    println!("workload: {} (migratory-heavy)\n", spec.name());
    println!(
        "{:<30} {:>14} {:>15}",
        "predictor", "msgs/miss", "indirection %"
    );

    evaluate(
        &config,
        &trace,
        warmup,
        (0..n)
            .map(|_| {
                Box::new(OwnerPredictor::new(
                    Ix::Macroblock { bytes: 1024 },
                    TableCapacity::ISCA03,
                    &config,
                )) as Box<dyn dsp::predictors::DestSetPredictor>
            })
            .collect(),
        "Owner (paper)",
    );
    evaluate(
        &config,
        &trace,
        warmup,
        (0..n)
            .map(|_| {
                Box::new(OwnerPairPredictor::default())
                    as Box<dyn dsp::predictors::DestSetPredictor>
            })
            .collect(),
        "Owner-Pair (custom)",
    );
    println!(
        "\nOn migratory data, remembering two owners covers the common case \
         where ownership ping-pongs between pairs inside a larger rotation."
    );
}
