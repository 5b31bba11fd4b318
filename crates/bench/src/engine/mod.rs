//! The sweep engine: declarative experiment plans executed as
//! streaming, resumable *sessions*.
//!
//! The paper's evaluation is a cross-product — predictor policy ×
//! workload × table size × indexing granularity × protocol — and every
//! table/figure driver used to walk its slice of that product serially,
//! regenerating the full synthetic trace for each cell. This module
//! factors the sweep into:
//!
//! * [`Cell`] — one unit of evaluation (a characterization, a pair of
//!   protocol baselines, one predictor tradeoff point, a timing-sim
//!   protocol set, or a model-checking run).
//! * [`ExperimentPlan`] — an ordered list of cells plus a render
//!   function that turns their outputs into [`TextTable`] rows. Every
//!   `table*`/`fig*` driver in [`crate::experiments`] is a plan
//!   declaration plus a row formatter.
//! * [`SweepSession`] ([`session`]) — executes a plan, or an explicit
//!   set of its cells (a fleet lease): each cell is identified by a
//!   stable content-hash [`CellId`] ([`shard`]), streamed out through
//!   [`CellSink`]s ([`sink`]) as it finishes, and optionally journaled
//!   to a checkpoint file ([`checkpoint`]) so a crashed run resumes from
//!   its last completed cell and the journals of N cell sets merge into
//!   one table byte-identical to a serial run.
//! * [`SweepRunner`] — the batch convenience wrapper: a whole-plan
//!   in-memory session per plan, sharing one trace cache and one
//!   timing-sim partition cache across plans (`repro all` generates
//!   each workload's trace once).
//!
//! # Determinism
//!
//! Output is byte-identical across thread counts, cell splits, and
//! crash/resume points:
//!
//! * every trace is produced by a generator seeded from the plan's
//!   fixed seed, never by a generator shared between cells or threads;
//! * each cell builds its own evaluator/tracker/predictor state, so a
//!   cell's output is a pure function of the plan — which is what makes
//!   journaled outputs safe to replay and journals safe to merge;
//! * rendering walks outputs in plan order on the calling thread,
//!   whether they come from slots filled in parallel, a checkpoint
//!   journal, a merge of several journals, or a fleet's WAL.
//!
//! ```
//! use dsp_bench::engine::SweepRunner;
//! use dsp_bench::{experiments, Scale};
//!
//! let scale = Scale::quick();
//! let plan = experiments::table2_plan(&scale);
//! let parallel = SweepRunner::new().run(&plan);
//! let serial = SweepRunner::serial().run(&experiments::table2_plan(&scale));
//! assert_eq!(parallel.to_csv(), serial.to_csv());
//! ```

pub mod checkpoint;
pub mod session;
pub mod shard;
pub mod sink;

pub use checkpoint::{fold_cells, merge_journals, read_jsonl, JsonlWriter};
pub use session::{SessionError, SessionReport, SweepSession};
pub use shard::{manifest_digest, CellId};
pub use sink::{CellRecord, CellSink, Collector, ProgressSink};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use dsp_analysis::{
    characterize_trace, CharacterizationReport, RuntimeEvaluator, RuntimePoint, TextTable,
    TradeoffEvaluator, TradeoffPoint,
};
use dsp_core::PredictorConfig;
use dsp_sim::{CpuModel, ProtocolKind, TargetSystem, TopologySpec, ToxicSpec, TracePartition};
use dsp_trace::{TraceRecord, Workload, WorkloadSpec};
use dsp_types::SystemConfig;
use dsp_verify::{check, Bug, CheckReport, ModelConfig};

use crate::scale::Scale;

/// One unit of evaluation inside an [`ExperimentPlan`].
///
/// Trace-driven cells (`Characterize`, `Baselines`, `Tradeoff`) share
/// one generated trace per distinct [`TraceKey`]; execution-driven and
/// model-checking cells generate their own inputs internally.
#[derive(Clone, Debug)]
pub enum Cell {
    /// Workload characterization (Table 2, Figures 2–4).
    Characterize {
        /// Simulated system.
        config: SystemConfig,
        /// Workload preset.
        workload: Workload,
    },
    /// The broadcast-snooping and directory endpoints (two rows).
    Baselines {
        /// Simulated system.
        config: SystemConfig,
        /// Workload preset.
        workload: Workload,
    },
    /// One predictor configuration's latency/bandwidth point.
    Tradeoff {
        /// Simulated system.
        config: SystemConfig,
        /// Workload preset.
        workload: Workload,
        /// Predictor under evaluation.
        predictor: PredictorConfig,
    },
    /// Timing simulation of snooping, directory, and extra protocols.
    Runtime {
        /// Simulated system.
        config: SystemConfig,
        /// Workload preset.
        workload: Workload,
        /// Processor model.
        cpu: CpuModel,
        /// Optional target-machine override (latencies, bandwidth).
        target: Option<TargetSystem>,
        /// Optional fault-injection override (falls back to the plan's
        /// chain).
        toxics: Option<ToxicSpec>,
        /// Optional network-shape override (falls back to the plan's
        /// topology).
        topology: Option<TopologySpec>,
        /// Protocols simulated after the two baselines.
        protocols: Vec<ProtocolKind>,
    },
    /// Explicit-state model check of the multicast protocol.
    Verify {
        /// Model size in nodes.
        nodes: usize,
        /// Injected bug, if any.
        bug: Option<Bug>,
    },
}

impl Cell {
    /// The workload driving this cell, if it is trace- or
    /// execution-driven.
    pub fn workload(&self) -> Option<Workload> {
        match self {
            Cell::Characterize { workload, .. }
            | Cell::Baselines { workload, .. }
            | Cell::Tradeoff { workload, .. }
            | Cell::Runtime { workload, .. } => Some(*workload),
            Cell::Verify { .. } => None,
        }
    }

    /// The system configuration the cell simulates, if any.
    pub fn config(&self) -> Option<SystemConfig> {
        match self {
            Cell::Characterize { config, .. }
            | Cell::Baselines { config, .. }
            | Cell::Tradeoff { config, .. }
            | Cell::Runtime { config, .. } => Some(*config),
            Cell::Verify { .. } => None,
        }
    }

    /// A short human-readable label for progress reporting.
    pub fn summary(&self) -> String {
        match self {
            Cell::Characterize { workload, .. } => format!("characterize {}", workload.name()),
            Cell::Baselines { workload, .. } => format!("baselines {}", workload.name()),
            Cell::Tradeoff {
                workload,
                predictor,
                ..
            } => format!("tradeoff {} [{}]", workload.name(), predictor.label()),
            Cell::Runtime {
                workload,
                protocols,
                ..
            } => format!(
                "runtime {} (+{} protocols)",
                workload.name(),
                protocols.len()
            ),
            Cell::Verify { nodes, bug } => match bug {
                None => format!("verify {nodes}-node"),
                Some(bug) => format!("verify {nodes}-node + {bug:?}"),
            },
        }
    }

    /// The trace this cell replays, if it is trace-driven.
    pub(crate) fn trace_key(&self, plan: &ExperimentPlan) -> Option<TraceKey> {
        match self {
            Cell::Characterize { config, workload }
            | Cell::Baselines { config, workload }
            | Cell::Tradeoff {
                config, workload, ..
            } => Some(TraceKey {
                workload: *workload,
                config: *config,
                footprint_bits: plan.scale.footprint.to_bits(),
                seed: plan.seed,
                len: plan.scale.trace_warmup + plan.scale.trace_measured,
            }),
            Cell::Runtime { .. } | Cell::Verify { .. } => None,
        }
    }
}

/// The output of one executed [`Cell`], in the same order as the plan's
/// cell list.
///
/// Serializes for the checkpoint journals: every payload round-trips
/// through the JSON layer exactly (integers verbatim, floats via
/// shortest-round-trip formatting), which is what makes a merged or
/// resumed table byte-identical to a freshly computed one.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum CellOutput {
    /// From [`Cell::Characterize`].
    Characterization(Box<CharacterizationReport>),
    /// From [`Cell::Baselines`].
    Baselines {
        /// Broadcast snooping endpoint.
        snooping: TradeoffPoint,
        /// Directory endpoint.
        directory: TradeoffPoint,
    },
    /// From [`Cell::Tradeoff`].
    Tradeoff(TradeoffPoint),
    /// From [`Cell::Runtime`]: snooping, directory, then the extras.
    Runtime(Vec<RuntimePoint>),
    /// From [`Cell::Verify`].
    Verify(CheckReport),
}

impl CellOutput {
    /// The characterization report; panics on a different variant.
    pub fn characterization(&self) -> &CharacterizationReport {
        match self {
            CellOutput::Characterization(r) => r,
            other => panic!("expected characterization output, got {other:?}"),
        }
    }

    /// The `(snooping, directory)` endpoints; panics otherwise.
    pub fn baselines(&self) -> (&TradeoffPoint, &TradeoffPoint) {
        match self {
            CellOutput::Baselines {
                snooping,
                directory,
            } => (snooping, directory),
            other => panic!("expected baseline output, got {other:?}"),
        }
    }

    /// The tradeoff point; panics on a different variant.
    pub fn tradeoff(&self) -> &TradeoffPoint {
        match self {
            CellOutput::Tradeoff(p) => p,
            other => panic!("expected tradeoff output, got {other:?}"),
        }
    }

    /// The runtime points; panics on a different variant.
    pub fn runtime(&self) -> &[RuntimePoint] {
        match self {
            CellOutput::Runtime(points) => points,
            other => panic!("expected runtime output, got {other:?}"),
        }
    }

    /// The model-checking report; panics on a different variant.
    pub fn verify(&self) -> &CheckReport {
        match self {
            CellOutput::Verify(r) => r,
            other => panic!("expected verify output, got {other:?}"),
        }
    }
}

/// Renders cell outputs (ordered by plan index) into table rows.
pub type RenderFn = Box<dyn Fn(&[Cell], &[CellOutput], &mut TextTable) + Send + Sync>;

/// A declarative experiment: title, columns, ordered cell grid, and a
/// render function mapping cell outputs to rows.
pub struct ExperimentPlan {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<&'static str>,
    /// Run-size parameters (footprint, warmup, measured, sim runs).
    pub scale: Scale,
    /// Base seed for trace generation and the timing simulator.
    pub seed: u64,
    /// Fault-injection chain for the plan's timing simulations (empty
    /// by default; [`Cell::Runtime`] cells may override per cell). The
    /// empty chain on the crossbar topology is byte-identical to the
    /// pre-toxic engine, which the golden suite pins.
    pub toxics: ToxicSpec,
    /// Network shape for the plan's timing simulations (the paper's
    /// crossbar by default; [`Cell::Runtime`] cells may override).
    pub topology: TopologySpec,
    /// The cells, in output order.
    pub cells: Vec<Cell>,
    render: RenderFn,
}

impl std::fmt::Debug for ExperimentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentPlan")
            .field("title", &self.title)
            .field("columns", &self.columns)
            .field("scale", &self.scale)
            .field("seed", &self.seed)
            .field("toxics", &self.toxics)
            .field("topology", &self.topology)
            .field("cells", &self.cells.len())
            .finish()
    }
}

impl ExperimentPlan {
    /// Creates an empty plan with the experiments' default seed.
    pub fn new(title: impl Into<String>, columns: &[&'static str], scale: &Scale) -> Self {
        ExperimentPlan {
            title: title.into(),
            columns: columns.to_vec(),
            scale: *scale,
            seed: crate::experiments::SEED,
            toxics: ToxicSpec::none(),
            topology: TopologySpec::Crossbar,
            cells: Vec::new(),
            render: Box::new(|_, _, _| {}),
        }
    }

    /// Sets the fault-injection chain for the plan's timing
    /// simulations. The empty chain must not change output —
    /// `golden_outputs.rs` pins every experiment golden with it set
    /// explicitly.
    #[must_use]
    pub fn toxics(mut self, toxics: ToxicSpec) -> Self {
        self.toxics = toxics;
        self
    }

    /// Selects the network shape for the plan's timing simulations.
    /// The explicit crossbar must not change output —
    /// `golden_outputs.rs` pins every experiment golden with it.
    #[must_use]
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Appends a cell, returning its plan index.
    pub fn push(&mut self, cell: Cell) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Appends many cells.
    pub fn extend(&mut self, cells: impl IntoIterator<Item = Cell>) {
        self.cells.extend(cells);
    }

    /// Sets the render function and returns the plan.
    #[must_use]
    pub fn render(
        mut self,
        f: impl Fn(&[Cell], &[CellOutput], &mut TextTable) + Send + Sync + 'static,
    ) -> Self {
        self.render = Box::new(f);
        self
    }

    /// Renders `outputs` (one per cell, in plan order) into the plan's
    /// table. This is the single formatting path every execution mode
    /// funnels through — parallel slots, resumed journals, merged
    /// journals, and a fleet's WAL produce byte-identical tables
    /// because they all end here with the same ordered outputs.
    pub fn render_outputs(&self, outputs: &[CellOutput]) -> TextTable {
        let mut table = TextTable::new(self.title.clone(), self.columns.iter().copied());
        (self.render)(&self.cells, outputs, &mut table);
        table
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Identity of one generated trace. Two cells with equal keys replay
/// the *same* `Arc<[TraceRecord]>`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceKey {
    /// Workload preset.
    pub workload: Workload,
    /// Full system configuration (node count, macroblock size, ...).
    pub config: SystemConfig,
    /// Footprint scale factor, as exact bits.
    pub footprint_bits: u64,
    /// Generator seed.
    pub seed: u64,
    /// Record count (warmup + measured).
    pub len: usize,
}

impl TraceKey {
    pub(crate) fn generate(&self) -> Arc<[TraceRecord]> {
        let spec = WorkloadSpec::preset(self.workload, &self.config)
            .scaled(f64::from_bits(self.footprint_bits));
        let records: Vec<TraceRecord> = spec.generator(self.seed).take(self.len).collect();
        Arc::from(records)
    }
}

/// Cache of generated traces, keyed by [`TraceKey`]. Shared (behind an
/// `Arc`) by every session a [`SweepRunner`] spawns, so traces persist
/// across plans run by the same runner (e.g. `repro all` generates each
/// workload's trace once).
#[derive(Debug, Default)]
pub struct TraceStore {
    traces: Mutex<Vec<(TraceKey, Arc<[TraceRecord]>)>>,
}

impl TraceStore {
    pub(crate) fn get(&self, key: &TraceKey) -> Option<Arc<[TraceRecord]>> {
        let traces = self.traces.lock().expect("trace store poisoned");
        traces
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, t)| Arc::clone(t))
    }

    /// Generates every missing key (in parallel when `threads > 1`) and
    /// inserts the results.
    pub(crate) fn ensure(&self, keys: &[TraceKey], threads: usize) {
        let missing: Vec<TraceKey> = {
            let traces = self.traces.lock().expect("trace store poisoned");
            keys.iter()
                .filter(|k| !traces.iter().any(|(have, _)| have == *k))
                .copied()
                .collect()
        };
        if missing.is_empty() {
            return;
        }
        let generated: Vec<Arc<[TraceRecord]>> =
            parallel_map(&missing, threads, |key| key.generate());
        let mut traces = self.traces.lock().expect("trace store poisoned");
        traces.extend(missing.into_iter().zip(generated));
    }

    pub(crate) fn len(&self) -> usize {
        self.traces.lock().expect("trace store poisoned").len()
    }
}

/// Identity of one set of timing-sim trace partitions: everything the
/// per-node programs depend on — and nothing they don't (the protocol
/// set, CPU model, and target machine all replay the same programs).
#[derive(Clone, Copy, Debug, PartialEq)]
struct PartitionKey {
    workload: Workload,
    config: SystemConfig,
    footprint_bits: u64,
    seed: u64,
    warmup: usize,
    measured: usize,
    runs: usize,
}

/// Cache of timing-sim [`TracePartition`] sets (one partition per
/// perturbed-seed repetition), shared across the [`Cell::Runtime`]
/// cells of a runner's sessions. Partitioning the miss stream costs a
/// sizeable fraction of short runs, so repeated cells over one
/// workload — every design point of the bandwidth sweep, say — stop
/// re-partitioning.
#[derive(Debug, Default)]
pub struct PartitionStore {
    inner: Mutex<Vec<(PartitionKey, Vec<TracePartition>)>>,
}

impl PartitionStore {
    /// Returns the cached partitions for `key`, building (outside the
    /// lock) and inserting them if absent. Builds are deterministic, so
    /// a racing duplicate build yields identical programs and either
    /// copy may win.
    fn get_or_build(
        &self,
        key: PartitionKey,
        build: impl FnOnce() -> Vec<TracePartition>,
    ) -> Vec<TracePartition> {
        {
            let cached = self.inner.lock().expect("partition store poisoned");
            if let Some((_, parts)) = cached.iter().find(|(k, _)| *k == key) {
                return parts.clone();
            }
        }
        let built = build();
        let mut cached = self.inner.lock().expect("partition store poisoned");
        if let Some((_, parts)) = cached.iter().find(|(k, _)| *k == key) {
            return parts.clone();
        }
        cached.push((key, built.clone()));
        built
    }

    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("partition store poisoned").len()
    }
}

/// Runs each index of `items` through `f` on a scoped worker pool,
/// returning outputs in input order. Panics in workers propagate.
pub(crate) fn parallel_map<T: Sync, O: Send + Sync>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> O + Sync,
) -> Vec<O> {
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<OnceLock<O>> = items.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                slots[i].set(out).map_err(|_| "slot filled twice").unwrap();
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker filled every slot"))
        .collect()
}

/// Executes one cell. The cell's output is a pure function of `(cell,
/// plan)`: `trace` and `partitions` are caches of deterministic
/// derivations, never sources of new state.
pub(crate) fn execute_cell(
    cell: &Cell,
    plan: &ExperimentPlan,
    trace: Option<Arc<[TraceRecord]>>,
    partitions: &PartitionStore,
) -> CellOutput {
    let scale = &plan.scale;
    match cell {
        Cell::Characterize { config, workload } => {
            let trace = trace.expect("characterize is trace-driven");
            let spec = WorkloadSpec::preset(*workload, config).scaled(scale.footprint);
            CellOutput::Characterization(Box::new(characterize_trace(
                trace.iter().copied(),
                spec.name(),
                spec.misses_per_kilo_instr(),
                config,
                scale.trace_warmup,
            )))
        }
        Cell::Baselines { config, .. } => {
            let trace = trace.expect("baselines are trace-driven");
            let eval = TradeoffEvaluator::new(config).warmup(scale.trace_warmup);
            let (snooping, directory) = eval.run_baselines(trace.iter().copied());
            CellOutput::Baselines {
                snooping,
                directory,
            }
        }
        Cell::Tradeoff {
            config, predictor, ..
        } => {
            let trace = trace.expect("tradeoff is trace-driven");
            let eval = TradeoffEvaluator::new(config).warmup(scale.trace_warmup);
            CellOutput::Tradeoff(eval.run(trace.iter().copied(), predictor))
        }
        Cell::Runtime {
            config,
            workload,
            cpu,
            target,
            toxics,
            topology,
            protocols,
        } => {
            let spec = WorkloadSpec::preset(*workload, config).scaled(scale.footprint);
            let mut eval = RuntimeEvaluator::new(config)
                .cpu(*cpu)
                .misses(scale.sim_warmup, scale.sim_measured)
                .runs(scale.sim_runs)
                .seed(plan.seed)
                .toxics(toxics.clone().unwrap_or_else(|| plan.toxics.clone()))
                .topology(topology.unwrap_or(plan.topology));
            if let Some(target) = target {
                eval = eval.target(*target);
            }
            let key = PartitionKey {
                workload: *workload,
                config: *config,
                footprint_bits: scale.footprint.to_bits(),
                seed: plan.seed,
                warmup: scale.sim_warmup,
                measured: scale.sim_measured,
                runs: scale.sim_runs.max(1),
            };
            let parts = partitions.get_or_build(key, || eval.partitions(&spec));
            CellOutput::Runtime(eval.run_partitioned(&spec, protocols, &parts))
        }
        Cell::Verify { nodes, bug } => {
            let mut model = ModelConfig::new(*nodes);
            if let Some(bug) = bug {
                model = model.with_bug(*bug);
            }
            CellOutput::Verify(check(&model))
        }
    }
}

/// Batch front-end over [`SweepSession`]: runs whole plans in memory
/// (whole plan, no checkpoint), sharing one trace cache and one
/// partition cache across every plan it executes.
#[derive(Debug)]
pub struct SweepRunner {
    threads: usize,
    store: Arc<TraceStore>,
    partitions: Arc<PartitionStore>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// A runner using all available hardware parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        SweepRunner::with_threads(threads)
    }

    /// A runner with an explicit worker count (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
            store: Arc::new(TraceStore::default()),
            partitions: Arc::new(PartitionStore::default()),
        }
    }

    /// A single-threaded runner (the reference for byte-identical
    /// output comparisons).
    pub fn serial() -> Self {
        SweepRunner::with_threads(1)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of distinct traces currently cached.
    pub fn cached_traces(&self) -> usize {
        self.store.len()
    }

    /// Number of distinct timing-sim partition sets currently cached.
    pub fn cached_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// A full-coverage in-memory session over `plan`, wired to this
    /// runner's thread count and shared caches. Callers needing a
    /// cell subset or checkpointing configure the returned session
    /// further.
    pub fn session<'p>(&self, plan: &'p ExperimentPlan) -> SweepSession<'p> {
        SweepSession::new(plan)
            .threads(self.threads)
            .stores(Arc::clone(&self.store), Arc::clone(&self.partitions))
    }

    /// Executes `plan` and renders its table.
    pub fn run(&self, plan: &ExperimentPlan) -> TextTable {
        plan.render_outputs(&self.run_cells(plan))
    }

    /// Executes `plan`'s cells without rendering, returning outputs
    /// ordered by plan index.
    pub fn run_cells(&self, plan: &ExperimentPlan) -> Vec<CellOutput> {
        self.session(plan)
            .run_collect()
            .expect("in-memory whole-plan session cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            footprint: 1.0 / 256.0,
            trace_warmup: 200,
            trace_measured: 1_000,
            sim_warmup: 20,
            sim_measured: 100,
            sim_runs: 1,
        }
    }

    fn small_plan(scale: &Scale) -> ExperimentPlan {
        let config = SystemConfig::isca03();
        let mut plan = ExperimentPlan::new("test", &["workload", "label", "msgs"], scale);
        for workload in [Workload::Oltp, Workload::Apache] {
            plan.push(Cell::Baselines { config, workload });
            plan.push(Cell::Tradeoff {
                config,
                workload,
                predictor: PredictorConfig::group(),
            });
        }
        plan.render(|cells, outputs, table| {
            for (cell, output) in cells.iter().zip(outputs) {
                let workload = cell.workload().expect("trace cell").name().to_string();
                match output {
                    CellOutput::Baselines {
                        snooping,
                        directory,
                    } => {
                        for point in [snooping, directory] {
                            table.row([
                                workload.clone(),
                                point.label.clone(),
                                point.request_messages.to_string(),
                            ]);
                        }
                    }
                    CellOutput::Tradeoff(point) => table.row([
                        workload,
                        point.label.clone(),
                        point.request_messages.to_string(),
                    ]),
                    other => panic!("unexpected output {other:?}"),
                }
            }
        })
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, 8, |x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial() {
        let scale = tiny();
        let serial = SweepRunner::serial().run(&small_plan(&scale));
        let parallel = SweepRunner::with_threads(8).run(&small_plan(&scale));
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_string(), parallel.to_string());
        assert_eq!(serial.len(), 6);
    }

    #[test]
    fn traces_are_shared_not_regenerated() {
        let scale = tiny();
        let runner = SweepRunner::new();
        let plan = small_plan(&scale);
        runner.run(&plan);
        // 4 trace-driven cells over 2 workloads -> 2 distinct traces.
        assert_eq!(runner.cached_traces(), 2);
        // A second run at the same scale reuses them.
        runner.run(&plan);
        assert_eq!(runner.cached_traces(), 2);
    }

    #[test]
    fn verify_cells_run_without_traces() {
        let scale = tiny();
        let mut plan = ExperimentPlan::new("verify", &["model", "verdict"], &scale);
        plan.push(Cell::Verify {
            nodes: 2,
            bug: None,
        });
        let plan = plan.render(|_, outputs, table| {
            let report = outputs[0].verify();
            table.row(["2-node".to_string(), report.violation.is_none().to_string()]);
        });
        let runner = SweepRunner::serial();
        let table = runner.run(&plan);
        assert_eq!(table.len(), 1);
        assert_eq!(runner.cached_traces(), 0);
        assert!(table.to_csv().contains("true"));
    }

    #[test]
    fn runtime_partitions_are_shared_across_cells() {
        let scale = tiny();
        let config = SystemConfig::isca03();
        let mut plan = ExperimentPlan::new("rt", &["label"], &scale);
        // Three Runtime cells over one workload (different protocol
        // sets, one with a target override): one partition set total.
        for protocols in [
            Vec::new(),
            vec![ProtocolKind::Multicast(PredictorConfig::owner())],
            vec![ProtocolKind::Multicast(PredictorConfig::group())],
        ] {
            plan.push(Cell::Runtime {
                config,
                workload: Workload::Oltp,
                cpu: CpuModel::Simple,
                target: (protocols.len() == 1).then(TargetSystem::isca03_default),
                toxics: None,
                topology: None,
                protocols,
            });
        }
        let runner = SweepRunner::serial();
        runner.run_cells(&plan);
        assert_eq!(runner.cached_partitions(), 1);
    }

    #[test]
    fn cell_output_round_trips_through_json() {
        let scale = tiny();
        // Every output variant a journal persists: the small plan's
        // baselines and tradeoff points, plus one characterization, one
        // timing-sim protocol set, and one model check that finds a
        // violation (its counterexample exercises the nested enums).
        let config = SystemConfig::isca03();
        let mut plan = small_plan(&scale);
        plan.push(Cell::Characterize {
            config,
            workload: Workload::Ocean,
        });
        plan.push(Cell::Runtime {
            config,
            workload: Workload::Oltp,
            cpu: CpuModel::Simple,
            target: None,
            toxics: None,
            topology: None,
            protocols: vec![ProtocolKind::Multicast(PredictorConfig::owner())],
        });
        plan.push(Cell::Verify {
            nodes: 2,
            bug: Some(Bug::AcceptInsufficient),
        });
        let outputs = SweepRunner::serial().run_cells(&plan);
        for output in &outputs {
            let json = serde_json::to_string(output).expect("serialize");
            let back: CellOutput = serde_json::from_str(&json).expect("deserialize");
            match (output, &back) {
                (CellOutput::Tradeoff(a), CellOutput::Tradeoff(b)) => assert_eq!(a, b),
                (
                    CellOutput::Baselines {
                        snooping: s1,
                        directory: d1,
                    },
                    CellOutput::Baselines {
                        snooping: s2,
                        directory: d2,
                    },
                ) => {
                    assert_eq!(s1, s2);
                    assert_eq!(d1, d2);
                }
                (CellOutput::Characterization(a), CellOutput::Characterization(b)) => {
                    assert_eq!(a.misses, b.misses);
                    assert_eq!(a.directory_indirections, b.directory_indirections);
                    assert_eq!(a.degree_misses, b.degree_misses);
                }
                (CellOutput::Runtime(a), CellOutput::Runtime(b)) => {
                    assert_eq!(a.len(), 3, "snooping, directory, one extra protocol");
                    assert_eq!(a, b, "RuntimePoint must round-trip exactly");
                }
                (CellOutput::Verify(a), CellOutput::Verify(b)) => {
                    assert_eq!(a.states_explored, b.states_explored);
                    assert_eq!(a.transitions, b.transitions);
                    let (va, vb) = (
                        a.violation.as_ref().expect("the injected bug is caught"),
                        b.violation.as_ref().expect("violation round-trips"),
                    );
                    assert_eq!(va.invariant, vb.invariant);
                    assert_eq!(va.state, vb.state);
                    assert_eq!(va.trace, vb.trace);
                }
                other => panic!("variant changed across round-trip: {other:?}"),
            }
        }
    }
}
