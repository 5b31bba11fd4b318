//! The benchmark's workloads: which experiment plans a run replays, how
//! their inputs are derived (set-up), and how the plans are evaluated.
//!
//! Set-up and evaluation call the same public functions the sweep
//! engine calls for these cells, one thread, no caches shared between
//! repetitions, so every repetition pays the whole cost a `repro` run
//! of the plan pays.

use dsp_analysis::{RuntimeEvaluator, TradeoffEvaluator};
use dsp_bench::engine::{Cell, CellOutput, ExperimentPlan};
use dsp_bench::{experiments, Scale};
use dsp_core::{Indexing, PredictorConfig};
use dsp_sim::{CpuModel, ProtocolKind, TopologySpec, TracePartition};
use dsp_trace::{TraceRecord, WorkloadSpec};
use dsp_types::SystemConfig;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `fig5` and `fig6c` plans: trace-driven replay only.
    Tradeoff,
    /// The `fig7` plan: 16-node timing simulation, simple CPU.
    Timing16,
    /// A 256-node crossbar cell and a 64-node faulty mesh cell.
    TimingWide,
}

/// Run size of a workload: the benchmark's own, or the smallest one
/// (for the smoke test).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Standard,
    /// The smallest size.
    Quick,
}

impl Size {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "standard" => Some(Size::Standard),
            "quick" => Some(Size::Quick),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Standard => "standard",
            Size::Quick => "quick",
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Tradeoff, Workload::Timing16, Workload::TimingWide];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tradeoff => "tradeoff",
            Workload::Timing16 => "timing-16",
            Workload::TimingWide => "timing-wide",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scale(self, size: Size) -> Scale {
        match (self, size) {
            (Workload::TimingWide, Size::Standard) => Scale {
                sim_warmup: 250,
                sim_measured: 1_000,
                sim_runs: 1,
                ..Scale::standard()
            },
            (Workload::TimingWide, Size::Quick) => Scale {
                sim_warmup: 20,
                sim_measured: 80,
                sim_runs: 1,
                ..Scale::quick()
            },
            (_, Size::Standard) => Scale::standard(),
            (_, Size::Quick) => Scale::quick(),
        }
    }

    /// The plans one repetition evaluates, seeded with `seed`.
    pub fn plans(self, size: Size, seed: u64) -> Vec<ExperimentPlan> {
        let scale = self.scale(size);
        let mut plans = match self {
            Workload::Tradeoff => vec![
                experiments::fig5_plan(&scale),
                experiments::fig6c_plan(&scale),
            ],
            Workload::Timing16 => vec![experiments::fig7_plan(&scale)],
            Workload::TimingWide => vec![timing_wide_plan(&scale)],
        };
        for plan in &mut plans {
            plan.seed = seed;
        }
        plans
    }
}

fn nodes(n: usize) -> SystemConfig {
    SystemConfig::builder()
        .num_nodes(n)
        .build()
        .expect("valid node count")
}

/// Two OLTP runtime cells far from the paper's 16-node crossbar: a
/// 256-node crossbar (four-word destination sets, 255-way training
/// fan-out) and a 64-node 8x8 mesh under the `severe` toxic chain with
/// the detailed CPU (modeled topology path, plural wheel slots, retries).
fn timing_wide_plan(scale: &Scale) -> ExperimentPlan {
    let mb = Indexing::Macroblock { bytes: 1024 };
    let protocols = vec![
        ProtocolKind::Multicast(PredictorConfig::owner_group().indexing(mb)),
        ProtocolKind::Multicast(PredictorConfig::broadcast_if_shared().indexing(mb)),
    ];
    let mut plan = ExperimentPlan::new(
        "Wide timing (OLTP): 256-node crossbar, 64-node mesh under severe toxics",
        &[
            "network",
            "protocol",
            "norm runtime",
            "norm traffic/miss",
            "avg miss ns",
            "indirections %",
            "retries/miss",
        ],
        scale,
    );
    plan.push(Cell::Runtime {
        config: nodes(256),
        workload: dsp_trace::Workload::Oltp,
        cpu: CpuModel::Simple,
        target: None,
        toxics: None,
        topology: None,
        protocols: protocols.clone(),
    });
    plan.push(Cell::Runtime {
        config: nodes(64),
        workload: dsp_trace::Workload::Oltp,
        cpu: CpuModel::Detailed { max_outstanding: 4 },
        target: None,
        toxics: Some(experiments::toxic_severity("severe")),
        topology: Some(TopologySpec::Mesh2d {
            cols: 8,
            link_ns: 15,
            hop_ns: 5,
        }),
        protocols,
    });
    plan.render(|cells, outputs, table| {
        for (cell, output) in cells.iter().zip(outputs) {
            let Cell::Runtime {
                config, topology, ..
            } = cell
            else {
                panic!("the wide plan holds only runtime cells");
            };
            let n = config.num_nodes();
            let network = format!(
                "{}/{n}",
                topology.unwrap_or(TopologySpec::Crossbar).label(n)
            );
            for point in output.runtime() {
                let misses = point.report.measured_misses.max(1) as f64;
                table.row([
                    network.clone(),
                    point.label.clone(),
                    dsp_analysis::fmt_f(point.normalized_runtime, 1),
                    dsp_analysis::fmt_f(point.normalized_traffic, 1),
                    dsp_analysis::fmt_f(point.report.avg_miss_latency_ns(), 0),
                    dsp_analysis::fmt_f(point.report.indirection_pct(), 1),
                    dsp_analysis::fmt_f(point.report.retries as f64 / misses, 2),
                ]);
            }
        }
    })
}

/// Identity of one replayed trace (the engine's trace-sharing key).
#[derive(Clone, Copy, Debug, PartialEq)]
struct TraceKey {
    workload: dsp_trace::Workload,
    config: SystemConfig,
    footprint_bits: u64,
    seed: u64,
    len: usize,
}

/// Identity of one set of timing-sim partitions (the engine's key).
#[derive(Clone, Copy, Debug, PartialEq)]
struct PartitionKey {
    workload: dsp_trace::Workload,
    config: SystemConfig,
    footprint_bits: u64,
    seed: u64,
    warmup: usize,
    measured: usize,
    runs: usize,
}

fn trace_key(plan: &ExperimentPlan, cell: &Cell) -> Option<TraceKey> {
    match cell {
        Cell::Baselines { config, workload }
        | Cell::Tradeoff {
            config, workload, ..
        } => Some(TraceKey {
            workload: *workload,
            config: *config,
            footprint_bits: plan.scale.footprint.to_bits(),
            seed: plan.seed,
            len: plan.scale.trace_warmup + plan.scale.trace_measured,
        }),
        _ => None,
    }
}

fn partition_key(plan: &ExperimentPlan, cell: &Cell) -> Option<PartitionKey> {
    match cell {
        Cell::Runtime {
            config, workload, ..
        } => Some(PartitionKey {
            workload: *workload,
            config: *config,
            footprint_bits: plan.scale.footprint.to_bits(),
            seed: plan.seed,
            warmup: plan.scale.sim_warmup,
            measured: plan.scale.sim_measured,
            runs: plan.scale.sim_runs.max(1),
        }),
        _ => None,
    }
}

/// The workload spec a cell draws its misses from.
pub fn cell_spec(plan: &ExperimentPlan, cell: &Cell) -> WorkloadSpec {
    let workload = cell
        .workload()
        .expect("benchmark cells are workload-driven");
    let config = cell.config().expect("benchmark cells simulate a system");
    WorkloadSpec::preset(workload, &config).scaled(plan.scale.footprint)
}

/// The evaluator the engine builds for a runtime cell.
pub fn runtime_evaluator(plan: &ExperimentPlan, cell: &Cell) -> RuntimeEvaluator {
    let Cell::Runtime {
        config,
        cpu,
        target,
        toxics,
        topology,
        ..
    } = cell
    else {
        panic!("not a runtime cell: {}", cell.summary());
    };
    let mut eval = RuntimeEvaluator::new(config)
        .cpu(*cpu)
        .misses(plan.scale.sim_warmup, plan.scale.sim_measured)
        .runs(plan.scale.sim_runs)
        .seed(plan.seed)
        .toxics(toxics.clone().unwrap_or_else(|| plan.toxics.clone()))
        .topology(topology.unwrap_or(plan.topology));
    if let Some(target) = target {
        eval = eval.target(*target);
    }
    eval
}

/// Time spent deriving inputs, split by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Seconds generating replayed traces.
    pub trace_gen_s: f64,
    /// Records generated for replayed traces.
    pub trace_records: u64,
    /// Seconds building timing-sim partitions (generator draws included).
    pub partition_s: f64,
}

/// Every trace and partition one repetition's plans replay, each
/// derived once (as the engine shares them across cells).
#[derive(Default)]
pub struct Inputs {
    traces: Vec<(TraceKey, Vec<TraceRecord>)>,
    partitions: Vec<(PartitionKey, Vec<TracePartition>)>,
}

impl Inputs {
    /// Derives the inputs of `plans`.
    pub fn derive(plans: &[ExperimentPlan], times: &mut SetupTimes) -> Self {
        let mut inputs = Inputs::default();
        for plan in plans {
            for cell in &plan.cells {
                if let Some(key) = trace_key(plan, cell) {
                    if inputs.traces.iter().any(|(k, _)| *k == key) {
                        continue;
                    }
                    let start = std::time::Instant::now();
                    let trace: Vec<TraceRecord> = cell_spec(plan, cell)
                        .generator(key.seed)
                        .take(key.len)
                        .collect();
                    times.trace_gen_s += start.elapsed().as_secs_f64();
                    times.trace_records += trace.len() as u64;
                    inputs.traces.push((key, trace));
                } else if let Some(key) = partition_key(plan, cell) {
                    if inputs.partitions.iter().any(|(k, _)| *k == key) {
                        continue;
                    }
                    let start = std::time::Instant::now();
                    let parts = runtime_evaluator(plan, cell).partitions(&cell_spec(plan, cell));
                    times.partition_s += start.elapsed().as_secs_f64();
                    inputs.partitions.push((key, parts));
                }
            }
        }
        inputs
    }

    /// The trace a trace-driven cell replays.
    pub fn trace(&self, plan: &ExperimentPlan, cell: &Cell) -> &[TraceRecord] {
        let key = trace_key(plan, cell).expect("trace-driven cell");
        let (_, trace) = self
            .traces
            .iter()
            .find(|(k, _)| *k == key)
            .expect("set-up derived every trace");
        trace
    }

    /// Every distinct partition with the workload spec it was drawn from.
    pub fn partition_sets(&self) -> impl Iterator<Item = (WorkloadSpec, &TracePartition)> {
        self.partitions.iter().flat_map(|(key, parts)| {
            let spec = WorkloadSpec::preset(key.workload, &key.config)
                .scaled(f64::from_bits(key.footprint_bits));
            parts.iter().map(move |part| (spec.clone(), part))
        })
    }

    /// The partitions a runtime cell replays.
    pub fn partitions(&self, plan: &ExperimentPlan, cell: &Cell) -> &[TracePartition] {
        let key = partition_key(plan, cell).expect("runtime cell");
        let (_, parts) = self
            .partitions
            .iter()
            .find(|(k, _)| *k == key)
            .expect("set-up derived every partition");
        parts
    }
}

/// Evaluates every cell of `plan` over `inputs`, exactly as the engine's
/// cell executor does.
pub fn evaluate(plan: &ExperimentPlan, inputs: &Inputs) -> Vec<CellOutput> {
    plan.cells
        .iter()
        .map(|cell| evaluate_cell(plan, cell, inputs))
        .collect()
}

/// Evaluates one cell of `plan` over `inputs`.
pub fn evaluate_cell(plan: &ExperimentPlan, cell: &Cell, inputs: &Inputs) -> CellOutput {
    match cell {
        Cell::Baselines { config, .. } => {
            let eval = TradeoffEvaluator::new(config).warmup(plan.scale.trace_warmup);
            let (snooping, directory) =
                eval.run_baselines(inputs.trace(plan, cell).iter().copied());
            CellOutput::Baselines {
                snooping,
                directory,
            }
        }
        Cell::Tradeoff {
            config, predictor, ..
        } => {
            let eval = TradeoffEvaluator::new(config).warmup(plan.scale.trace_warmup);
            CellOutput::Tradeoff(eval.run(inputs.trace(plan, cell).iter().copied(), predictor))
        }
        Cell::Runtime { protocols, .. } => {
            CellOutput::Runtime(runtime_evaluator(plan, cell).run_partitioned(
                &cell_spec(plan, cell),
                protocols,
                inputs.partitions(plan, cell),
            ))
        }
        other => panic!("cell kind outside the benchmark: {}", other.summary()),
    }
}

/// Misses one evaluation of `plan` processes: replayed trace records
/// (records x evaluator passes) for trace-driven cells, simulated misses
/// (nodes x (warmup + measured) x protocols x runs) for runtime cells.
pub fn misses(plan: &ExperimentPlan) -> u64 {
    let s = &plan.scale;
    plan.cells
        .iter()
        .map(|cell| match cell {
            Cell::Baselines { .. } | Cell::Tradeoff { .. } => {
                (s.trace_warmup + s.trace_measured) as u64
            }
            Cell::Runtime {
                config, protocols, ..
            } => {
                let per_protocol =
                    config.num_nodes() * (s.sim_warmup + s.sim_measured) * s.sim_runs.max(1);
                (per_protocol * (2 + protocols.len())) as u64
            }
            other => panic!("cell kind outside the benchmark: {}", other.summary()),
        })
        .sum()
}

/// Rendered rows each cell contributes to its plan's table.
pub fn rows_per_cell(cell: &Cell) -> usize {
    match cell {
        Cell::Baselines { .. } => 2,
        Cell::Tradeoff { .. } => 1,
        Cell::Runtime { protocols, .. } => 2 + protocols.len(),
        other => panic!("cell kind outside the benchmark: {}", other.summary()),
    }
}
