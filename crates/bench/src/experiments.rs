//! One plan per paper table/figure, and the registry naming them.
//!
//! Every experiment is a *plan declaration* — a grid of [`Cell`]s —
//! plus a row-formatting closure; the
//! [`SweepRunner`](crate::engine::SweepRunner) executes the cells in
//! parallel while sharing one generated trace per (workload, config,
//! footprint, seed, length) and streaming it into each evaluator.
//! Output is byte-identical to a single-threaded run (see `engine`'s
//! determinism notes). Each plan renders a [`TextTable`] whose rows are
//! the series the paper plots; the `repro` binary looks plans up by
//! name in [`EXPERIMENTS`], prints the tables, and saves CSVs. Absolute
//! values depend on the synthetic substrate, but the *shapes* — who
//! wins, by what factor, where the crossovers are — reproduce the
//! paper (see EXPERIMENTS.md for the side-by-side).

use dsp_analysis::{fmt_f, TextTable, TradeoffPoint};
use dsp_core::{Capacity, Indexing, PredictorConfig};
use dsp_sim::{CpuModel, ProtocolKind, TargetSystem, TopologySpec, Toxic, ToxicSpec};
use dsp_trace::Workload;
use dsp_types::SystemConfig;

use crate::engine::{Cell, CellOutput, ExperimentPlan};
use crate::scale::Scale;

/// The deterministic seed every experiment uses.
pub const SEED: u64 = 0x15CA_2003;

/// The paper's 1024-byte macroblock indexing.
const MB: Indexing = Indexing::Macroblock { bytes: 1024 };

/// The four standout predictor configurations of Figure 5: 8192
/// entries, 1024-byte macroblock indexing.
pub fn standout_predictors() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::owner()
            .indexing(MB)
            .entries(Capacity::ISCA03),
        PredictorConfig::broadcast_if_shared()
            .indexing(MB)
            .entries(Capacity::ISCA03),
        PredictorConfig::group()
            .indexing(MB)
            .entries(Capacity::ISCA03),
        PredictorConfig::owner_group()
            .indexing(MB)
            .entries(Capacity::ISCA03),
    ]
}

/// The four base policies swept by Figure 6.
fn base_policies() -> [PredictorConfig; 4] {
    [
        PredictorConfig::owner(),
        PredictorConfig::broadcast_if_shared(),
        PredictorConfig::group(),
        PredictorConfig::owner_group(),
    ]
}

/// Appends one `(workload, label, msgs/miss, indirections %)` row.
fn tradeoff_row(table: &mut TextTable, workload: &str, point: &TradeoffPoint) {
    table.row([
        workload.to_string(),
        point.label.clone(),
        fmt_f(point.request_messages_per_miss(), 2),
        fmt_f(point.indirection_pct(), 1),
    ]);
}

/// The shared renderer for Figure 5/6-style tables: baselines emit two
/// rows, every predictor cell one, all labeled by the cell's workload.
fn standard_tradeoff_render(cells: &[Cell], outputs: &[CellOutput], table: &mut TextTable) {
    for (cell, output) in cells.iter().zip(outputs) {
        let workload = cell.workload().expect("trace-driven cell").name();
        match output {
            CellOutput::Baselines {
                snooping,
                directory,
            } => {
                tradeoff_row(table, workload, snooping);
                tradeoff_row(table, workload, directory);
            }
            CellOutput::Tradeoff(point) => tradeoff_row(table, workload, point),
            other => panic!("unexpected output in tradeoff table: {other:?}"),
        }
    }
}

/// A plan holding one characterization cell per workload.
fn characterization_plan(title: &str, columns: &[&'static str], scale: &Scale) -> ExperimentPlan {
    let config = SystemConfig::isca03();
    let mut plan = ExperimentPlan::new(title, columns, scale);
    for workload in Workload::ALL {
        plan.push(Cell::Characterize { config, workload });
    }
    plan
}

/// A plan of `Baselines + predictors` cells for each listed workload.
fn tradeoff_plan(
    title: &str,
    scale: &Scale,
    workloads: &[Workload],
    predictors: &[PredictorConfig],
) -> ExperimentPlan {
    let config = SystemConfig::isca03();
    let columns = &["workload", "config", "request msgs/miss", "indirections %"];
    let mut plan = ExperimentPlan::new(title, columns, scale);
    for &workload in workloads {
        plan.push(Cell::Baselines { config, workload });
        for &predictor in predictors {
            plan.push(Cell::Tradeoff {
                config,
                workload,
                predictor,
            });
        }
    }
    plan.render(standard_tradeoff_render)
}

/// Table 2: workload properties.
pub fn table2_plan(scale: &Scale) -> ExperimentPlan {
    characterization_plan(
        "Table 2: Workload Properties (synthetic substrate)",
        &[
            "workload",
            "mem 64B (MB)",
            "mem 1KB (MB)",
            "miss PCs",
            "misses",
            "misses/1k instr",
            "dir indirections %",
        ],
        scale,
    )
    .render(|_, outputs, table| {
        for output in outputs {
            let r = output.characterization();
            table.row([
                r.workload.clone(),
                fmt_f(r.blocks_touched as f64 * 64.0 / (1 << 20) as f64, 1),
                fmt_f(r.macroblocks_touched as f64 * 1024.0 / (1 << 20) as f64, 1),
                r.static_pcs.to_string(),
                r.misses.to_string(),
                fmt_f(r.misses_per_kilo_instr, 1),
                fmt_f(r.indirection_pct(), 1),
            ]);
        }
    })
}

/// Figure 2: instantaneous sharing histogram (observers needed per
/// miss, split read/write).
pub fn fig2_plan(scale: &Scale) -> ExperimentPlan {
    characterization_plan(
        "Figure 2: Sharing Histogram (% of misses needing n other processors)",
        &["workload", "bin", "reads %", "writes %"],
        scale,
    )
    .render(|_, outputs, table| {
        for output in outputs {
            let r = output.characterization();
            for (bin, label) in [(0, "0"), (1, "1"), (2, "2"), (3, "3+")] {
                let (reads, writes) = r.sharing.percent(bin);
                table.row([
                    r.workload.clone(),
                    label.to_string(),
                    fmt_f(reads, 1),
                    fmt_f(writes, 1),
                ]);
            }
        }
    })
}

/// Figure 3: blocks touched by n processors, unweighted (a) and
/// weighted by misses (b).
pub fn fig3_plan(scale: &Scale) -> ExperimentPlan {
    characterization_plan(
        "Figure 3: Degree of Sharing (percent of blocks / misses at degree n)",
        &["workload", "degree", "blocks %", "misses %"],
        scale,
    )
    .render(|_, outputs, table| {
        for output in outputs {
            let r = output.characterization();
            let total_blocks: u64 = r.degree_blocks.iter().sum();
            let total_misses: u64 = r.degree_misses.iter().sum();
            for d in 1..r.degree_blocks.len() {
                table.row([
                    r.workload.clone(),
                    d.to_string(),
                    fmt_f(
                        100.0 * r.degree_blocks[d] as f64 / total_blocks.max(1) as f64,
                        2,
                    ),
                    fmt_f(
                        100.0 * r.degree_misses[d] as f64 / total_misses.max(1) as f64,
                        2,
                    ),
                ]);
            }
        }
    })
}

/// Figure 4: cumulative distribution of cache-to-cache misses over the
/// hottest blocks / macroblocks / static instructions.
pub fn fig4_plan(scale: &Scale) -> ExperimentPlan {
    characterization_plan(
        "Figure 4: Sharing Locality (cumulative % of c2c misses in hottest k entities)",
        &[
            "workload",
            "k",
            "64B blocks %",
            "1KB macroblocks %",
            "static PCs %",
        ],
        scale,
    )
    .render(|_, outputs, table| {
        for output in outputs {
            let r = output.characterization();
            for k in [100usize, 500, 1_000, 2_000, 5_000, 10_000] {
                table.row([
                    r.workload.clone(),
                    k.to_string(),
                    fmt_f(r.block_locality.percent_covered_by(k), 1),
                    fmt_f(r.macroblock_locality.percent_covered_by(k), 1),
                    fmt_f(r.pc_locality.percent_covered_by(k), 1),
                ]);
            }
        }
    })
}

/// Figure 5: the four standout predictors against both baselines on
/// every workload (8192 entries, 1024 B macroblock indexing).
pub fn fig5_plan(scale: &Scale) -> ExperimentPlan {
    tradeoff_plan(
        "Figure 5: Standout Predictor Results (8192 entries, 1024B macroblock)",
        scale,
        &Workload::ALL,
        &standout_predictors(),
    )
}

/// Figure 6(a): program-counter vs data-block indexing (unbounded, OLTP).
pub fn fig6a_plan(scale: &Scale) -> ExperimentPlan {
    let mut predictors = Vec::new();
    for ix in [Indexing::DataBlock, Indexing::ProgramCounter] {
        for base in base_policies() {
            predictors.push(base.indexing(ix).entries(Capacity::Unbounded));
        }
    }
    tradeoff_plan(
        "Figure 6a: PC vs data-block indexing (OLTP, unbounded)",
        scale,
        &[Workload::Oltp],
        &predictors,
    )
}

/// Figure 6(b): macroblock-size sensitivity (unbounded, OLTP).
pub fn fig6b_plan(scale: &Scale) -> ExperimentPlan {
    let mut predictors = Vec::new();
    for bytes in [64u64, 256, 1024] {
        let ix = if bytes == 64 {
            Indexing::DataBlock
        } else {
            Indexing::Macroblock { bytes }
        };
        for base in base_policies() {
            predictors.push(base.indexing(ix).entries(Capacity::Unbounded));
        }
    }
    tradeoff_plan(
        "Figure 6b: Macroblock indexing (OLTP, unbounded)",
        scale,
        &[Workload::Oltp],
        &predictors,
    )
}

/// Figure 6(c): finite sizes (8192 / 32768 / unbounded) and the
/// Sticky-Spatial(1) prior-work baseline (OLTP, 1024 B macroblocks).
pub fn fig6c_plan(scale: &Scale) -> ExperimentPlan {
    let mut predictors = Vec::new();
    for capacity in [
        Capacity::Unbounded,
        Capacity::Finite {
            entries: 32_768,
            ways: 4,
        },
        Capacity::Finite {
            entries: 8_192,
            ways: 4,
        },
    ] {
        for base in base_policies() {
            predictors.push(base.indexing(MB).entries(capacity));
        }
    }
    for entries in [4_096usize, 8_192, 32_768] {
        predictors.push(
            PredictorConfig::sticky_spatial(1).entries(Capacity::Finite { entries, ways: 1 }),
        );
    }
    tradeoff_plan(
        "Figure 6c: Predictor size and Sticky-Spatial(1) (OLTP, 1024B macroblock)",
        scale,
        &[Workload::Oltp],
        &predictors,
    )
}

/// A runtime (Figure 7/8-style) plan: one timing-simulation cell per
/// workload, each running both baselines plus the standout predictors.
fn runtime_plan(
    title: &str,
    scale: &Scale,
    workloads: &[Workload],
    cpu: CpuModel,
) -> ExperimentPlan {
    let config = SystemConfig::isca03();
    let columns = &[
        "workload",
        "protocol",
        "norm runtime",
        "norm traffic/miss",
        "avg miss ns",
        "indirections %",
    ];
    let protocols: Vec<ProtocolKind> = standout_predictors()
        .into_iter()
        .map(ProtocolKind::Multicast)
        .collect();
    let mut plan = ExperimentPlan::new(title, columns, scale);
    for &workload in workloads {
        plan.push(Cell::Runtime {
            config,
            workload,
            cpu,
            target: None,
            toxics: None,
            topology: None,
            protocols: protocols.clone(),
        });
    }
    plan.render(runtime_render)
}

/// Renderer for runtime tables: every simulated protocol of every cell
/// becomes one row labeled with the cell's workload.
fn runtime_render(cells: &[Cell], outputs: &[CellOutput], table: &mut TextTable) {
    for (cell, output) in cells.iter().zip(outputs) {
        let workload = cell.workload().expect("runtime cell").name();
        for point in output.runtime() {
            table.row([
                workload.to_string(),
                point.label.clone(),
                fmt_f(point.normalized_runtime, 1),
                fmt_f(point.normalized_traffic, 1),
                fmt_f(point.report.avg_miss_latency_ns(), 0),
                fmt_f(point.report.indirection_pct(), 1),
            ]);
        }
    }
}

/// Figure 7: normalized runtime vs normalized traffic, simple CPU
/// model, all six workloads.
pub fn fig7_plan(scale: &Scale) -> ExperimentPlan {
    runtime_plan(
        "Figure 7: Runtime vs traffic (simple processor model; directory runtime = 100, snooping traffic = 100)",
        scale,
        &Workload::ALL,
        CpuModel::Simple,
    )
}

/// Figure 8: same with the detailed (out-of-order) CPU model on the
/// three workloads the paper simulates.
pub fn fig8_plan(scale: &Scale) -> ExperimentPlan {
    runtime_plan(
        "Figure 8: Runtime vs traffic (detailed processor model)",
        scale,
        &[Workload::Apache, Workload::Oltp, Workload::SpecJbb],
        CpuModel::Detailed { max_outstanding: 4 },
    )
}

/// Ablations of design choices DESIGN.md calls out: macroblock sizes
/// past 1024 B, Sticky-Spatial neighbor span, and table associativity.
pub fn ablations_plan(scale: &Scale) -> ExperimentPlan {
    let config = SystemConfig::isca03();
    let mut predictors = Vec::new();
    // (a) Macroblock sweep beyond the paper's 1024 B.
    for bytes in [256u64, 1024, 2048, 4096] {
        predictors.push(
            PredictorConfig::group()
                .indexing(Indexing::Macroblock { bytes })
                .entries(Capacity::ISCA03),
        );
    }
    // (b) Sticky-Spatial spans 0 / 1 / 2.
    for span in [0usize, 1, 2] {
        predictors.push(PredictorConfig::sticky_spatial(span));
    }
    // (c) Associativity of the Group table at fixed capacity.
    for ways in [1usize, 2, 4, 8] {
        predictors.push(
            PredictorConfig::group()
                .indexing(MB)
                .entries(Capacity::Finite {
                    entries: 8192,
                    ways,
                }),
        );
    }
    let mut plan = ExperimentPlan::new(
        "Ablations (OLTP): macroblock size, sticky span, associativity",
        &["workload", "config", "request msgs/miss", "indirections %"],
        scale,
    );
    for &predictor in &predictors {
        plan.push(Cell::Tradeoff {
            config,
            workload: Workload::Oltp,
            predictor,
        });
    }
    plan.render(|cells, outputs, table| {
        for (cell, output) in cells.iter().zip(outputs) {
            let Cell::Tradeoff { predictor, .. } = cell else {
                panic!("ablation plans contain only tradeoff cells");
            };
            let point = output.tradeoff();
            let label = match predictor.capacity() {
                Capacity::Finite { entries, ways } => {
                    format!("{} [{}x{}]", point.label, entries / ways, ways)
                }
                Capacity::Unbounded => point.label.clone(),
            };
            table.row([
                "OLTP".to_string(),
                label,
                fmt_f(point.request_messages_per_miss(), 2),
                fmt_f(point.indirection_pct(), 1),
            ]);
        }
    })
}

/// Extension study: the Acacio-style predictive directory (cited in the
/// paper's introduction) against the paper's protocols, under the
/// timing model. Shows the 3-hop→2-hop conversion and where multicast
/// snooping still wins.
pub fn extensions_plan(scale: &Scale) -> ExperimentPlan {
    let config = SystemConfig::isca03();
    let owner_mb = PredictorConfig::owner().indexing(MB);
    let two_level = PredictorConfig::two_level_owner().indexing(MB);
    let protocols = vec![
        ProtocolKind::DirectoryPredicted(owner_mb),
        ProtocolKind::DirectoryPredicted(two_level),
        ProtocolKind::Multicast(owner_mb),
        ProtocolKind::Multicast(two_level),
    ];
    let mut plan = ExperimentPlan::new(
        "Extension: predictive directory (owner prediction) vs the paper's protocols",
        &[
            "workload",
            "protocol",
            "norm runtime",
            "norm traffic/miss",
            "avg miss ns",
            "indirections %",
        ],
        scale,
    );
    for workload in [Workload::Oltp, Workload::Apache] {
        plan.push(Cell::Runtime {
            config,
            workload,
            cpu: CpuModel::Simple,
            target: None,
            toxics: None,
            topology: None,
            protocols: protocols.clone(),
        });
    }
    plan.render(runtime_render)
}

/// Scaling study: how the predictors behave as the machine grows from
/// 8 to 256 nodes (broadcast cost grows linearly; Group's advantage —
/// tracking sub-machine sharing groups — grows with it). The 128- and
/// 256-node rows exercise the multi-word `DestSet` representation and
/// the queue/table pressure the related work (criticality-aware
/// multiprocessors, cache-level prediction) motivates. The `(timing
/// sim)` rows at 64/128/256 nodes run the full discrete-event
/// simulator — the fig7-style path. Each observed request arrival there
/// is one timing-wheel training event, and
/// `DestSetPredictor::observes_other` keeps that fan-out to the request
/// types a predictor learns from.
pub fn scaling_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new(
        "Scaling: request messages per miss vs system size (OLTP-like sharing)",
        &[
            "nodes",
            "config",
            "request msgs/miss",
            "indirections %",
            "vs broadcast",
        ],
        scale,
    );
    for nodes in [8usize, 16, 32, 64, 128, 256] {
        let config = SystemConfig::builder()
            .num_nodes(nodes)
            .build()
            .expect("valid");
        plan.push(Cell::Baselines {
            config,
            workload: Workload::Oltp,
        });
        for predictor in [
            PredictorConfig::owner().indexing(MB),
            PredictorConfig::group().indexing(MB),
            PredictorConfig::owner_group().indexing(MB),
        ] {
            plan.push(Cell::Tradeoff {
                config,
                workload: Workload::Oltp,
                predictor,
            });
        }
    }
    // Timing-sim (fig7-style) rows at the large node counts: the full
    // discrete-event simulator, not just the trace-driven evaluator.
    // Owner/Group learns only from other nodes' requests for exclusive,
    // so only those queue training events (one per distinct arrival
    // time of their destinations); requests for shared queue none.
    for nodes in [64usize, 128, 256] {
        let config = SystemConfig::builder()
            .num_nodes(nodes)
            .build()
            .expect("valid");
        plan.push(Cell::Runtime {
            config,
            workload: Workload::Oltp,
            cpu: CpuModel::Simple,
            target: None,
            toxics: None,
            topology: None,
            protocols: vec![ProtocolKind::Multicast(
                PredictorConfig::owner_group().indexing(MB),
            )],
        });
    }
    plan.render(|cells, outputs, table| {
        let mut row = |nodes: usize, label: &str, msgs_per_miss: f64, indirection_pct: f64| {
            let broadcast_cost = (nodes - 1) as f64;
            table.row([
                nodes.to_string(),
                label.to_string(),
                fmt_f(msgs_per_miss, 2),
                fmt_f(indirection_pct, 1),
                fmt_f(msgs_per_miss / broadcast_cost, 3),
            ]);
        };
        for (cell, output) in cells.iter().zip(outputs) {
            let nodes = cell.config().expect("scaling cell").num_nodes();
            match output {
                CellOutput::Baselines {
                    snooping,
                    directory,
                } => {
                    for point in [snooping, directory] {
                        row(
                            nodes,
                            &point.label,
                            point.request_messages_per_miss(),
                            point.indirection_pct(),
                        );
                    }
                }
                CellOutput::Tradeoff(point) => row(
                    nodes,
                    &point.label,
                    point.request_messages_per_miss(),
                    point.indirection_pct(),
                ),
                CellOutput::Runtime(points) => {
                    for point in points {
                        row(
                            nodes,
                            &format!("{} (timing sim)", point.label),
                            point.report.request_messages_per_miss(),
                            point.report.indirection_pct(),
                        );
                    }
                }
                other => panic!("unexpected output in scaling table: {other:?}"),
            }
        }
    })
}

/// Bandwidth-sensitivity study (the design-point question the paper's
/// §5.3 sidesteps by assuming ample 10 GB/s links): sweep the link
/// bandwidth and watch snooping collapse under contention while the
/// bandwidth-efficient predictors hold their runtime advantage — the
/// motivation for the authors' earlier bandwidth-adaptive snooping.
pub fn bandwidth_plan(scale: &Scale) -> ExperimentPlan {
    let config = SystemConfig::isca03();
    let mut plan = ExperimentPlan::new(
        "Bandwidth sweep (OLTP): runtime normalized to the 10 GB/s directory",
        &[
            "link GB/s",
            "protocol",
            "runtime",
            "avg miss ns",
            "traffic B/miss",
        ],
        scale,
    );
    // Cell 0 anchors the normalization: the directory at 10 GB/s.
    plan.push(Cell::Runtime {
        config,
        workload: Workload::Oltp,
        cpu: CpuModel::Simple,
        target: None,
        toxics: None,
        topology: None,
        protocols: Vec::new(),
    });
    for gbps in [1.0f64, 2.5, 5.0, 10.0] {
        let mut target = TargetSystem::isca03_default();
        target.interconnect.link_bytes_per_ns = gbps;
        plan.push(Cell::Runtime {
            config,
            workload: Workload::Oltp,
            cpu: CpuModel::Simple,
            target: Some(target),
            toxics: None,
            topology: None,
            protocols: vec![ProtocolKind::Multicast(
                PredictorConfig::owner_group().indexing(MB),
            )],
        });
    }
    plan.render(|cells, outputs, table| {
        let baseline = outputs[0].runtime()[1].report.runtime_ns.max(1);
        for (cell, output) in cells.iter().zip(outputs).skip(1) {
            let Cell::Runtime {
                target: Some(target),
                ..
            } = cell
            else {
                panic!("bandwidth sweep cells carry target overrides");
            };
            let gbps = target.interconnect.link_bytes_per_ns;
            for point in output.runtime() {
                table.row([
                    format!("{gbps}"),
                    point.label.clone(),
                    fmt_f(100.0 * point.report.runtime_ns as f64 / baseline as f64, 1),
                    fmt_f(point.report.avg_miss_latency_ns(), 0),
                    fmt_f(point.report.bytes_per_miss(), 0),
                ]);
            }
        }
    })
}

/// A named toxic-severity preset for the `degraded` sweep.
///
/// Severities nest: each level keeps the previous level's fault models
/// and tightens them, so the sweep reads as one monotone stress axis —
/// `none` (the paper's ideal network), `mild` (jitter + 10% bandwidth
/// loss), `moderate` (+ periodic congestion bursts), `severe`
/// (+ transient link outages).
///
/// # Panics
///
/// Panics on an unknown severity name.
pub fn toxic_severity(name: &str) -> ToxicSpec {
    match name {
        "none" => ToxicSpec::none(),
        "mild" => ToxicSpec::none()
            .with(Toxic::LatencyJitter { max_ns: 10 })
            .with(Toxic::BandwidthDerate { percent: 90 }),
        "moderate" => ToxicSpec::none()
            .with(Toxic::LatencyJitter { max_ns: 25 })
            .with(Toxic::BandwidthDerate { percent: 70 })
            .with(Toxic::CongestionBurst {
                period_ns: 20_000,
                burst_ns: 2_000,
                slowdown: 4,
            }),
        "severe" => ToxicSpec::none()
            .with(Toxic::LatencyJitter { max_ns: 50 })
            .with(Toxic::BandwidthDerate { percent: 50 })
            .with(Toxic::CongestionBurst {
                period_ns: 10_000,
                burst_ns: 2_500,
                slowdown: 8,
            })
            .with(Toxic::Outage {
                period_ns: 50_000,
                down_ns: 5_000,
            }),
        other => panic!("unknown toxic severity {other:?}"),
    }
}

/// One (severity, network, node-count) case of the `degraded` sweep.
#[derive(Clone, Debug)]
struct DegradedCase {
    /// Severity preset name (see [`toxic_severity`]).
    severity: &'static str,
    /// The fault chain for this case.
    toxics: ToxicSpec,
    /// Network shape.
    topology: TopologySpec,
    /// Node count.
    nodes: usize,
}

impl DegradedCase {
    /// Row label for the network column (`crossbar/16`,
    /// `mesh8x8@5ns/64`).
    fn network(&self) -> String {
        format!("{}/{}", self.topology.label(self.nodes), self.nodes)
    }
}

/// The `degraded` sweep grid: the paper's 16-node crossbar under every
/// severity, plus a 64-node 8×8 mesh (15 ns injection channels, 5 ns
/// per hop) clean and severely degraded. Each group leads with its
/// `none` case, which anchors the group's runtime normalization.
fn degraded_cases() -> Vec<DegradedCase> {
    let mesh = TopologySpec::Mesh2d {
        cols: 8,
        link_ns: 15,
        hop_ns: 5,
    };
    let mut cases = Vec::new();
    for severity in ["none", "mild", "moderate", "severe"] {
        cases.push(DegradedCase {
            severity,
            toxics: toxic_severity(severity),
            topology: TopologySpec::Crossbar,
            nodes: 16,
        });
    }
    for severity in ["none", "severe"] {
        cases.push(DegradedCase {
            severity,
            toxics: toxic_severity(severity),
            topology: mesh,
            nodes: 64,
        });
    }
    cases
}

/// Destination-set prediction under a contended, faulty network — the
/// scenario the paper's ideal 50 ns crossbar cannot express: predictor
/// policies × toxic severity, per-cell toxic/topology overrides on the
/// shared engine. Every toxic is deterministic under seed, so these
/// rows are as reproducible as the clean ones. Runtime is normalized to
/// the same group's clean (`none`) directory run, so each column shows
/// how much of the predictors' latency advantage survives network
/// degradation.
pub fn degraded_plan(scale: &Scale) -> ExperimentPlan {
    let cases = degraded_cases();
    let mut plan = ExperimentPlan::new(
        "Degraded interconnect (OLTP): predictor policies × toxic severity",
        &[
            "severity",
            "network",
            "protocol",
            "runtime",
            "avg miss ns",
            "traffic B/miss",
            "retries/miss",
        ],
        scale,
    );
    for case in &cases {
        let config = SystemConfig::builder()
            .num_nodes(case.nodes)
            .build()
            .expect("valid node count");
        plan.push(Cell::Runtime {
            config,
            workload: Workload::Oltp,
            cpu: CpuModel::Simple,
            target: None,
            toxics: Some(case.toxics.clone()),
            topology: Some(case.topology),
            protocols: vec![
                ProtocolKind::Multicast(PredictorConfig::owner_group().indexing(MB)),
                ProtocolKind::Multicast(PredictorConfig::group().indexing(MB)),
            ],
        });
    }
    plan.render(move |_, outputs, table| {
        let mut baseline = 1u64;
        for (case, output) in degraded_cases().iter().zip(outputs) {
            if case.severity == "none" {
                // Each (network, nodes) group leads with its clean run;
                // its directory anchors the group's normalization.
                baseline = output.runtime()[1].report.runtime_ns.max(1);
            }
            for point in output.runtime() {
                let misses = point.report.measured_misses.max(1) as f64;
                table.row([
                    case.severity.to_string(),
                    case.network(),
                    point.label.clone(),
                    fmt_f(100.0 * point.report.runtime_ns as f64 / baseline as f64, 1),
                    fmt_f(point.report.avg_miss_latency_ns(), 0),
                    fmt_f(point.report.bytes_per_miss(), 0),
                    fmt_f(point.report.retries as f64 / misses, 2),
                ]);
            }
        }
    })
}

/// Runs the explicit-state model checker over the multicast protocol
/// (2- and 3-node models, all destination sets, all interleavings) and
/// over each injected bug, reporting state counts and verdicts.
pub fn verify_plan(scale: &Scale) -> ExperimentPlan {
    use dsp_verify::Bug;
    let mut plan = ExperimentPlan::new(
        "Protocol verification (exhaustive, all possible predictions)",
        &["model", "states", "transitions", "verdict"],
        scale,
    );
    for nodes in [2usize, 3] {
        plan.push(Cell::Verify { nodes, bug: None });
    }
    for bug in [
        Bug::SkipInvalidation,
        Bug::AcceptInsufficient,
        Bug::StaleDirectoryOwner,
    ] {
        plan.push(Cell::Verify {
            nodes: 3,
            bug: Some(bug),
        });
    }
    plan.render(|cells, outputs, table| {
        for (cell, output) in cells.iter().zip(outputs) {
            let Cell::Verify { nodes, bug } = cell else {
                panic!("verify plans contain only verify cells");
            };
            let report = output.verify();
            let (model, verdict) = match bug {
                None => (
                    format!("{nodes}-node multicast snooping"),
                    match &report.violation {
                        None => "all invariants hold".to_string(),
                        Some(v) => format!("VIOLATION: {}", v.invariant),
                    },
                ),
                Some(bug) => (
                    format!("{nodes}-node + {bug:?}"),
                    match &report.violation {
                        Some(v) => {
                            format!("caught: {} ({} -event trace)", v.invariant, v.trace.len())
                        }
                        None => "NOT caught (checker bug!)".to_string(),
                    },
                ),
            };
            table.row([
                model,
                report.states_explored.to_string(),
                report.transitions.to_string(),
                verdict,
            ]);
        }
    })
}

/// Verifies the paper's headline quantitative claims and prints
/// PASS/FAIL rows with the measured values.
///
/// Cell layout: `0..6` baselines for every workload, `6` Owner on
/// Slashcode, `7..13` Broadcast-If-Shared everywhere, `13..19` Group
/// everywhere, `19` the OLTP timing run.
pub fn claims_plan(scale: &Scale) -> ExperimentPlan {
    let config = SystemConfig::isca03();
    let mut plan = ExperimentPlan::new(
        "Headline claims (paper wording -> measured)",
        &["claim", "measured", "verdict"],
        scale,
    );
    for workload in Workload::ALL {
        plan.push(Cell::Baselines { config, workload });
    }
    plan.push(Cell::Tradeoff {
        config,
        workload: Workload::Slashcode,
        predictor: PredictorConfig::owner().indexing(MB),
    });
    for workload in Workload::ALL {
        plan.push(Cell::Tradeoff {
            config,
            workload,
            predictor: PredictorConfig::broadcast_if_shared().indexing(MB),
        });
    }
    for workload in Workload::ALL {
        plan.push(Cell::Tradeoff {
            config,
            workload,
            predictor: PredictorConfig::group().indexing(MB),
        });
    }
    plan.push(Cell::Runtime {
        config,
        workload: Workload::Oltp,
        cpu: CpuModel::Simple,
        target: None,
        toxics: None,
        topology: None,
        protocols: vec![ProtocolKind::Multicast(
            PredictorConfig::broadcast_if_shared().indexing(MB),
        )],
    });
    plan.render(|_, outputs, table| {
        let n = Workload::ALL.len();
        let slash = Workload::ALL
            .iter()
            .position(|w| *w == Workload::Slashcode)
            .expect("slashcode is a workload");
        let baselines = &outputs[..n];
        let owner_slash = outputs[n].tradeoff();
        let bis = &outputs[n + 1..n + 1 + n];
        let group = &outputs[n + 1 + n..n + 1 + 2 * n];
        let runtime = outputs[n + 1 + 2 * n].runtime();
        let mut row = |claim: &str, measured: String, pass: bool| {
            table.row([
                claim.to_string(),
                measured,
                if pass { "PASS" } else { "CHECK" }.to_string(),
            ]);
        };

        // Claim 1: up to 90% fewer indirections at < 1/3 snooping
        // bandwidth (best of Group/Owner on Slashcode).
        {
            let (snoop, dir) = baselines[slash].baselines();
            let mut best = 0.0f64;
            for p in [group[slash].tradeoff(), owner_slash] {
                if p.request_messages_per_miss() < snoop.request_messages_per_miss() / 3.0 {
                    best = best.max(1.0 - p.indirections as f64 / dir.indirections.max(1) as f64);
                }
            }
            row(
                "reduce indirections up to ~90% using <1/3 snooping bandwidth",
                format!("{:.0}% reduction", 100.0 * best),
                best > 0.70,
            );
        }

        // Claim 2: Broadcast-If-Shared keeps indirections < ~6% everywhere.
        {
            let worst = bis
                .iter()
                .map(|o| o.tradeoff().indirection_pct())
                .fold(0.0f64, f64::max);
            row(
                "Broadcast-If-Shared indirections < ~6% on all workloads",
                format!("worst {worst:.1}%"),
                worst < 8.0,
            );
        }

        // Claim 3: Group <= half snooping traffic on all workloads.
        {
            let worst_ratio = baselines
                .iter()
                .zip(group)
                .map(|(b, g)| {
                    let (snoop, _) = b.baselines();
                    g.tradeoff().request_messages_per_miss() / snoop.request_messages_per_miss()
                })
                .fold(0.0f64, f64::max);
            row(
                "Group <= half of snooping's request traffic on all workloads",
                format!("worst ratio {worst_ratio:.2}"),
                worst_ratio <= 0.55,
            );
        }

        // Claim 4: ~90% of snooping performance at ~15% over directory
        // bandwidth (runtime model).
        {
            let perf = runtime[0].normalized_runtime / runtime[2].normalized_runtime;
            row(
                "predictors reach ~90% of snooping's performance",
                format!("{:.0}% of snooping", 100.0 * perf),
                perf > 0.85,
            );
        }

        // Claim 5: snooping ~2x directory traffic; directory slower by up
        // to ~2x on OLTP/Apache.
        {
            let traffic_ratio = 100.0 / runtime[1].normalized_traffic;
            let runtime_gain = 100.0 / runtime[0].normalized_runtime;
            row(
                "snooping ~2x directory traffic, up to ~2x faster (OLTP)",
                format!("traffic {traffic_ratio:.1}x, speedup {runtime_gain:.2}x"),
                traffic_ratio > 1.5 && runtime_gain > 1.2,
            );
        }
    })
}

/// Builds one experiment's plan at a scale.
pub type PlanFn = fn(&Scale) -> ExperimentPlan;

/// Every experiment the harness knows, in `repro all` order, with the
/// function that declares its plan.
pub const EXPERIMENTS: &[(&str, PlanFn)] = &[
    ("table2", table2_plan),
    ("fig2", fig2_plan),
    ("fig3", fig3_plan),
    ("fig4", fig4_plan),
    ("fig5", fig5_plan),
    ("fig6a", fig6a_plan),
    ("fig6b", fig6b_plan),
    ("fig6c", fig6c_plan),
    ("fig7", fig7_plan),
    ("fig8", fig8_plan),
    ("ablations", ablations_plan),
    ("extensions", extensions_plan),
    ("scaling", scaling_plan),
    ("claims", claims_plan),
    ("bandwidth", bandwidth_plan),
    ("degraded", degraded_plan),
    ("verify", verify_plan),
];

/// Every experiment name, in `repro all` order.
pub fn names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|(name, _)| *name)
}

/// Builds the plan for a named experiment, or `None` for an unknown
/// name.
pub fn plan_for(name: &str, scale: &Scale) -> Option<ExperimentPlan> {
    EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|(_, plan)| plan(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepRunner;

    fn run(plan: PlanFn) -> TextTable {
        SweepRunner::new().run(&plan(&tiny()))
    }

    fn tiny() -> Scale {
        Scale {
            footprint: 1.0 / 256.0,
            trace_warmup: 500,
            trace_measured: 2_000,
            sim_warmup: 20,
            sim_measured: 100,
            sim_runs: 1,
        }
    }

    #[test]
    fn table2_has_six_rows() {
        assert_eq!(run(table2_plan).len(), 6);
    }

    #[test]
    fn fig2_has_four_bins_per_workload() {
        assert_eq!(run(fig2_plan).len(), 24);
    }

    #[test]
    fn fig3_covers_all_degrees() {
        assert_eq!(run(fig3_plan).len(), 6 * 16);
    }

    #[test]
    fn fig5_rows_per_workload() {
        // 2 baselines + 4 predictors per workload.
        assert_eq!(run(fig5_plan).len(), 6 * 6);
    }

    #[test]
    fn fig6_tables_nonempty() {
        assert_eq!(run(fig6a_plan).len(), 2 + 8);
        assert_eq!(run(fig6b_plan).len(), 2 + 12);
        assert_eq!(run(fig6c_plan).len(), 2 + 15);
    }

    #[test]
    fn fig7_rows() {
        // 6 workloads x (2 baselines + 4 predictors).
        assert_eq!(run(fig7_plan).len(), 36);
    }

    #[test]
    fn ablation_rows() {
        assert_eq!(run(ablations_plan).len(), 11);
    }

    #[test]
    fn extension_rows() {
        // 2 workloads x (2 baselines + 4 extras).
        assert_eq!(run(extensions_plan).len(), 12);
    }

    #[test]
    fn scaling_rows() {
        // 6 sizes (8..=256 nodes) x (2 baselines + 3 predictors), plus
        // 3 timing-sim cells (64/128/256) x 3 protocols each.
        assert_eq!(run(scaling_plan).len(), 39);
    }

    #[test]
    fn claims_all_present() {
        let t = run(claims_plan);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn bandwidth_rows() {
        // 4 bandwidths x (2 baselines + 1 predictor).
        assert_eq!(run(bandwidth_plan).len(), 12);
    }

    #[test]
    fn standout_set_is_the_paper_config() {
        let configs = standout_predictors();
        assert_eq!(configs.len(), 4);
        for c in configs {
            assert_eq!(c.indexing_scheme(), Indexing::Macroblock { bytes: 1024 });
            assert_eq!(c.capacity(), Capacity::ISCA03);
        }
    }

    #[test]
    fn every_named_experiment_has_a_plan() {
        let scale = tiny();
        for name in names() {
            assert!(plan_for(name, &scale).is_some(), "{name}");
        }
        assert!(plan_for("bogus", &scale).is_none());
    }
}
