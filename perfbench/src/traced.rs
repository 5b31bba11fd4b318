//! The traced evaluation: the same cells as [`crate::workload::evaluate`],
//! with a span around every call into a layer, recorded from the
//! benchmark's own code.
//!
//! * Trace-driven cells replay the `TradeoffEvaluator` loop here, timing
//!   each `CoherenceTracker::classify`/`access`, `multicast::*` outcome,
//!   predictor `predict`, and training fan-out.
//! * Runtime cells build each `System` themselves, install a delegating
//!   timer on every predictor with `System::instrument_predictors`, and
//!   time the build and the `run_with_queue_stats` call.
//!
//! The replay and the instrumented simulations must reproduce the
//! untraced outputs exactly; the caller asserts it.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsp_analysis::{RuntimePoint, TradeoffPoint};
use dsp_bench::engine::{Cell, CellOutput, ExperimentPlan};
use dsp_coherence::{multicast, CoherenceTracker};
use dsp_core::{DestSetPredictor, PredictQuery, PredictorConfig, TrainEvent};
use dsp_sim::{ProtocolKind, SimConfig, SimReport, System, TargetSystem, TracePartition};
use dsp_trace::{TraceRecord, WorkloadSpec};
use dsp_types::{DestSet, SystemConfig};

use crate::workload::{cell_spec, Inputs};

/// Per-layer counts and busy nanoseconds, summed over traced evaluations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    pub classify_calls: u64,
    pub classify_ns: u64,
    pub access_calls: u64,
    pub access_ns: u64,
    pub evaluate_ns: u64,
    pub predict_calls: u64,
    pub predict_ns: u64,
    pub train_calls: u64,
    pub train_ns: u64,
    /// Predictions whose first destination set was sufficient.
    pub sufficient_first: u64,
    pub sim_predict_calls: u64,
    pub sim_train_events: u64,
    pub sim_train_batches: u64,
    /// Nanoseconds inside predictor calls made by the simulator.
    pub sim_core_ns: u64,
    pub sim_builds: u64,
    pub sim_build_ns: u64,
    pub sim_run_ns: u64,
    pub sim_events: u64,
    pub sim_promoted: u64,
    pub sim_retries: u64,
    pub sim_measured_misses: u64,
    pub messages: u64,
    pub bytes: u64,
    /// Nanoseconds inside per-cell spans.
    pub cells_ns: u64,
}

/// A duration in whole nanoseconds.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("span fits in u64 nanoseconds")
}

fn since(start: Instant) -> u64 {
    nanos(start.elapsed())
}

/// Evaluates every cell of `plan` with per-layer spans.
pub fn evaluate(plan: &ExperimentPlan, inputs: &Inputs, layers: &mut Layers) -> Vec<CellOutput> {
    plan.cells
        .iter()
        .map(|cell| {
            let start = Instant::now();
            let out = match cell {
                Cell::Baselines { config, .. } => {
                    let (snooping, directory) = replay_baselines(
                        config,
                        plan.scale.trace_warmup,
                        inputs.trace(plan, cell),
                        layers,
                    );
                    CellOutput::Baselines {
                        snooping,
                        directory,
                    }
                }
                Cell::Tradeoff {
                    config, predictor, ..
                } => CellOutput::Tradeoff(replay_tradeoff(
                    config,
                    plan.scale.trace_warmup,
                    inputs.trace(plan, cell),
                    predictor,
                    layers,
                )),
                Cell::Runtime { .. } => CellOutput::Runtime(simulate_cell(
                    plan,
                    cell,
                    inputs.partitions(plan, cell),
                    layers,
                )),
                other => panic!("cell kind outside the benchmark: {}", other.summary()),
            };
            layers.cells_ns += since(start);
            out
        })
        .collect()
}

/// Whether two cell outputs are equal, field for field.
pub fn same_output(a: &CellOutput, b: &CellOutput) -> bool {
    match (a, b) {
        (
            CellOutput::Baselines {
                snooping: s1,
                directory: d1,
            },
            CellOutput::Baselines {
                snooping: s2,
                directory: d2,
            },
        ) => s1 == s2 && d1 == d2,
        (CellOutput::Tradeoff(p1), CellOutput::Tradeoff(p2)) => p1 == p2,
        (CellOutput::Runtime(p1), CellOutput::Runtime(p2)) => p1 == p2,
        _ => false,
    }
}

fn empty_point(label: String) -> TradeoffPoint {
    TradeoffPoint {
        label,
        misses: 0,
        request_messages: 0,
        indirections: 0,
        insufficient_first: 0,
        cache_to_cache: 0,
        predictor_storage_bits: 0,
    }
}

/// `TradeoffEvaluator::run_baselines`, with the tracker and the
/// protocol-outcome calls timed.
fn replay_baselines(
    config: &SystemConfig,
    warmup: usize,
    trace: &[TraceRecord],
    l: &mut Layers,
) -> (TradeoffPoint, TradeoffPoint) {
    let n = config.num_nodes();
    let mut tracker: CoherenceTracker = CoherenceTracker::new(config);
    let mut snoop = empty_point("Broadcast Snooping".to_string());
    let mut dir = empty_point("Directory".to_string());
    for (i, rec) in trace.iter().enumerate() {
        let t = Instant::now();
        let info = tracker.access(rec.requester, rec.request(), rec.block());
        l.access_ns += since(t);
        l.access_calls += 1;
        if i < warmup {
            continue;
        }
        let t = Instant::now();
        let s = multicast::snooping(&info, n);
        let d = multicast::directory(&info);
        l.evaluate_ns += since(t);
        let c2c = u64::from(info.is_cache_to_cache());
        for (point, outcome) in [(&mut snoop, s), (&mut dir, d)] {
            point.misses += 1;
            point.request_messages += outcome.request_messages;
            point.indirections += u64::from(outcome.indirection);
            point.cache_to_cache += c2c;
        }
    }
    (snoop, dir)
}

/// `TradeoffEvaluator::run`, with the tracker, outcome, and predictor
/// calls timed.
fn replay_tradeoff(
    config: &SystemConfig,
    warmup: usize,
    trace: &[TraceRecord],
    predictor: &PredictorConfig,
    l: &mut Layers,
) -> TradeoffPoint {
    let n = config.num_nodes();
    let mut predictors: Vec<Box<dyn DestSetPredictor>> =
        (0..n).map(|_| predictor.build(config)).collect();
    let mut tracker: CoherenceTracker = CoherenceTracker::new(config);
    let mut point = empty_point(predictor.label());
    for (i, rec) in trace.iter().enumerate() {
        let me = rec.requester.index();
        let t = Instant::now();
        let info = tracker.classify(rec.requester, rec.request(), rec.block());
        l.classify_ns += since(t);
        l.classify_calls += 1;
        let query = PredictQuery {
            block: rec.block(),
            pc: rec.pc,
            requester: rec.requester,
            req: rec.request(),
            minimal: info.minimal_set(),
        };
        let t = Instant::now();
        let predicted = predictors[me].predict(&query);
        l.predict_ns += since(t);
        l.predict_calls += 1;
        let t = Instant::now();
        let outcome = multicast::evaluate(&info, predicted);
        l.evaluate_ns += since(t);
        l.sufficient_first += u64::from(outcome.sufficient_first);
        if i >= warmup {
            point.misses += 1;
            point.request_messages += outcome.request_messages;
            point.indirections += u64::from(outcome.indirection);
            point.insufficient_first += u64::from(!outcome.sufficient_first);
            point.cache_to_cache += u64::from(info.is_cache_to_cache());
        }
        let mut delivered = (predicted | info.minimal_set()).without(rec.requester);
        let reissue = (!outcome.sufficient_first).then(|| {
            let corrected = info.sufficient_set();
            delivered |= corrected.without(info.home);
            corrected
        });
        let external = TrainEvent::OtherRequest {
            block: rec.block(),
            requester: rec.requester,
            req: rec.request(),
        };
        let response = TrainEvent::DataResponse {
            block: rec.block(),
            pc: rec.pc,
            responder: info.owner_before,
            req: rec.request(),
            minimal_sufficient: info.is_sufficient(info.minimal_set()),
        };
        let t = Instant::now();
        if let Some(corrected) = reissue {
            predictors[me].train(&TrainEvent::Reissue {
                block: rec.block(),
                corrected,
            });
            l.train_calls += 1;
        }
        for node in delivered.without(rec.requester) {
            predictors[node.index()].train(&external);
            l.train_calls += 1;
        }
        predictors[me].train(&response);
        l.train_calls += 1;
        l.train_ns += since(t);
        let t = Instant::now();
        let _ = tracker.access(rec.requester, rec.request(), rec.block());
        l.access_ns += since(t);
        l.access_calls += 1;
    }
    point.predictor_storage_bits = predictors.iter().map(|p| p.storage_bits()).sum();
    point
}

/// Shared counters of the predictor timers inside one simulation.
#[derive(Debug, Default)]
struct CoreCounters {
    predict_calls: AtomicU64,
    train_events: AtomicU64,
    train_batches: AtomicU64,
    busy_ns: AtomicU64,
}

/// A predictor that times every call and delegates it unchanged.
#[derive(Debug)]
struct Timed<const W: usize> {
    inner: Box<dyn DestSetPredictor<W>>,
    counters: Arc<CoreCounters>,
}

impl<const W: usize> DestSetPredictor<W> for Timed<W> {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        let t = Instant::now();
        let set = self.inner.predict(query);
        self.counters.busy_ns.fetch_add(since(t), Relaxed);
        self.counters.predict_calls.fetch_add(1, Relaxed);
        set
    }

    fn train(&mut self, event: &TrainEvent<W>) {
        let t = Instant::now();
        self.inner.train(event);
        self.counters.busy_ns.fetch_add(since(t), Relaxed);
        self.counters.train_events.fetch_add(1, Relaxed);
    }

    fn train_batch(&mut self, events: &[TrainEvent<W>]) {
        let t = Instant::now();
        self.inner.train_batch(events);
        self.counters.busy_ns.fetch_add(since(t), Relaxed);
        self.counters
            .train_events
            .fetch_add(events.len() as u64, Relaxed);
        self.counters.train_batches.fetch_add(1, Relaxed);
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn entry_payload_bits(&self) -> u64 {
        self.inner.entry_payload_bits()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

/// One instrumented simulation at set width `W`.
fn simulate_one<const W: usize>(
    config: &SystemConfig,
    target: TargetSystem,
    spec: &WorkloadSpec,
    sim: SimConfig,
    partition: TracePartition,
    l: &mut Layers,
) -> SimReport {
    let counters = Arc::new(CoreCounters::default());
    let t = Instant::now();
    let mut system = System::<W>::with_partition(config, target, spec, sim, partition);
    system.instrument_predictors(|_, inner| {
        Box::new(Timed {
            inner,
            counters: Arc::clone(&counters),
        })
    });
    l.sim_build_ns += since(t);
    l.sim_builds += 1;
    let t = Instant::now();
    let (report, queue) = system.run_with_queue_stats();
    l.sim_run_ns += since(t);
    l.sim_events += queue.popped;
    l.sim_promoted += queue.promoted;
    l.sim_predict_calls += counters.predict_calls.load(Relaxed);
    l.sim_train_events += counters.train_events.load(Relaxed);
    l.sim_train_batches += counters.train_batches.load(Relaxed);
    l.sim_core_ns += counters.busy_ns.load(Relaxed);
    l.sim_retries += report.retries;
    l.sim_measured_misses += report.measured_misses;
    l.messages += report.traffic.total_messages();
    l.bytes += report.traffic.total_bytes();
    report
}

/// `RuntimeEvaluator::run_partitioned` for one runtime cell, building
/// and running each `System` here.
fn simulate_cell(
    plan: &ExperimentPlan,
    cell: &Cell,
    partitions: &[TracePartition],
    l: &mut Layers,
) -> Vec<RuntimePoint> {
    let Cell::Runtime {
        config,
        cpu,
        target,
        toxics,
        topology,
        protocols,
        ..
    } = cell
    else {
        panic!("not a runtime cell: {}", cell.summary());
    };
    let spec = cell_spec(plan, cell);
    let target = target.unwrap_or_else(TargetSystem::isca03_default);
    let mut all = vec![ProtocolKind::Snooping, ProtocolKind::Directory];
    all.extend(protocols.iter().copied());
    let reports: Vec<SimReport> = all
        .iter()
        .map(|&protocol| {
            let mut total = SimReport::default();
            for partition in partitions {
                let sim = SimConfig::new(protocol)
                    .cpu(*cpu)
                    .misses(plan.scale.sim_warmup, plan.scale.sim_measured)
                    .seed(partition.seed())
                    .toxics(toxics.clone().unwrap_or_else(|| plan.toxics.clone()))
                    .topology(topology.unwrap_or(plan.topology));
                let rep = match sim.width.words(config.num_nodes()) {
                    1 => simulate_one::<1>(config, target, &spec, sim, partition.clone(), l),
                    _ => simulate_one::<4>(config, target, &spec, sim, partition.clone(), l),
                };
                total.runtime_ns += rep.runtime_ns;
                total.measured_misses += rep.measured_misses;
                total.instructions += rep.instructions;
                total.traffic.merge(&rep.traffic);
                total.indirections += rep.indirections;
                total.retries += rep.retries;
                total.broadcast_fallbacks += rep.broadcast_fallbacks;
                total.cache_to_cache += rep.cache_to_cache;
                total.total_miss_latency_ns += rep.total_miss_latency_ns;
                total.latency_histogram.merge(&rep.latency_histogram);
                total.class_counts.merge(&rep.class_counts);
            }
            total.runtime_ns /= partitions.len() as u64;
            total
        })
        .collect();
    let dir_runtime = reports[1].runtime_ns.max(1) as f64;
    let snoop_traffic = reports[0].bytes_per_miss().max(1e-9);
    all.iter()
        .zip(reports)
        .map(|(protocol, report)| RuntimePoint {
            label: protocol.label(),
            normalized_runtime: 100.0 * report.runtime_ns as f64 / dir_runtime,
            normalized_traffic: 100.0 * report.bytes_per_miss() / snoop_traffic,
            report,
        })
        .collect()
}

/// Draws `spec`'s generator exactly as far as `TracePartition::build`
/// does for `(seed, n, quota)`, returning the records drawn: the
/// generator's share of the partition set-up, timed on its own.
pub fn draw_partition_records(spec: &WorkloadSpec, seed: u64, n: usize, quota: usize) -> u64 {
    let limit = (quota * n).saturating_mul(64);
    let mut filled = vec![0usize; n];
    let mut full = 0usize;
    let mut drawn = 0u64;
    for rec in spec.generator(seed) {
        drawn += 1;
        if drawn as usize > limit {
            break;
        }
        let slot = &mut filled[rec.requester.index()];
        if *slot < quota {
            *slot += 1;
            full += usize::from(*slot == quota);
            if full == n {
                break;
            }
        }
    }
    drawn
}
