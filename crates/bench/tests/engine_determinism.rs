//! Determinism and trace-sharing equivalence tests for the sweep
//! engine: parallel output must be byte-identical to single-threaded
//! output, shared traces must change nothing, and any split of a plan
//! into explicit cell sets plus any crash/resume point must merge
//! byte-identical to the serial path.

use std::path::PathBuf;

use dsp_bench::engine::{
    merge_journals, Cell, CellId, CellOutput, ExperimentPlan, SweepRunner, SweepSession,
};
use dsp_bench::{experiments, Scale};
use dsp_core::{Capacity, Indexing, PredictorConfig};
use dsp_trace::{TraceRecord, Workload, WorkloadSpec};
use dsp_types::SystemConfig;
use proptest::prelude::*;

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

/// Acceptance: a parallel run of Table 2 + Figure 5 produces rows
/// byte-identical to a forced single-thread run.
#[test]
fn parallel_table2_fig5_match_single_thread() {
    let scale = tiny();
    let serial = SweepRunner::serial();
    let parallel = SweepRunner::with_threads(8);
    for plan_of in [experiments::table2_plan, experiments::fig5_plan] {
        let s = serial.run(&plan_of(&scale));
        let p = parallel.run(&plan_of(&scale));
        assert_eq!(s.to_csv(), p.to_csv(), "CSV must be byte-identical");
        assert_eq!(
            s.to_string(),
            p.to_string(),
            "rendered table must be byte-identical"
        );
    }
}

/// The same holds across every named experiment at tiny scale, with a
/// runner whose trace cache is already warm from previous plans.
#[test]
fn all_experiments_deterministic_across_thread_counts() {
    let scale = tiny();
    let serial = SweepRunner::serial();
    let parallel = SweepRunner::with_threads(4);
    // The model checker and timing sims dominate at any scale; keep the
    // cross-product experiments and skip only the slowest two drivers.
    for &(name, plan_of) in experiments::EXPERIMENTS {
        if matches!(name, "fig7" | "fig8") {
            continue;
        }
        let s = serial.run(&plan_of(&scale));
        let p = parallel.run(&plan_of(&scale));
        assert_eq!(s.to_csv(), p.to_csv(), "{name} diverged across threads");
    }
}

/// Acceptance: evaluating a predictor against the runner's shared
/// `Arc<[TraceRecord]>` yields the same `TradeoffPoint` as evaluating
/// against a per-cell regenerated trace (the seed drivers' behavior).
#[test]
fn trace_sharing_matches_per_cell_regeneration() {
    let scale = tiny();
    let config = SystemConfig::isca03();
    let predictor = PredictorConfig::group()
        .indexing(Indexing::Macroblock { bytes: 1024 })
        .entries(Capacity::ISCA03);
    let build = || {
        let mut plan = ExperimentPlan::new("equiv", &["label"], &scale);
        for workload in [Workload::Oltp, Workload::Slashcode] {
            plan.push(Cell::Baselines { config, workload });
            plan.push(Cell::Tradeoff {
                config,
                workload,
                predictor,
            });
        }
        plan
    };
    let shared = SweepRunner::new().run_cells(&build());
    let regenerated = SweepRunner::new().share_traces(false).run_cells(&build());
    assert_eq!(shared.len(), regenerated.len());
    for (a, b) in shared.iter().zip(&regenerated) {
        match (a, b) {
            (CellOutput::Tradeoff(x), CellOutput::Tradeoff(y)) => {
                assert_eq!(x, y, "shared-trace TradeoffPoint must be identical");
            }
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
            other => panic!("mismatched outputs: {other:?}"),
        }
    }
}

/// The shared trace really is the generator's stream: pulling the key's
/// records out of a runner-driven evaluation equals generating afresh.
#[test]
fn shared_trace_equals_fresh_generation() {
    let scale = tiny();
    let config = SystemConfig::isca03();
    let spec = WorkloadSpec::preset(Workload::Oltp, &config).scaled(scale.footprint);
    let fresh: Vec<TraceRecord> = spec
        .generator(experiments::SEED)
        .take(scale.trace_warmup + scale.trace_measured)
        .collect();
    // Run one cell through the engine, then evaluate the same predictor
    // directly over the fresh trace; identical points prove the shared
    // trace is byte-for-byte the generator's stream.
    let predictor = PredictorConfig::owner();
    let mut plan = ExperimentPlan::new("fresh", &["label"], &scale);
    plan.push(Cell::Tradeoff {
        config,
        workload: Workload::Oltp,
        predictor,
    });
    let outputs = SweepRunner::new().run_cells(&plan);
    let direct = dsp_analysis::TradeoffEvaluator::new(&config)
        .warmup(scale.trace_warmup)
        .run(fresh.iter().copied(), &predictor);
    assert_eq!(*outputs[0].tradeoff(), direct);
}

/// Builds a randomized trace-driven plan: a nonempty subset of three
/// workloads (from `workload_mask`), each with its baselines and the
/// first `predictors` predictor configurations.
fn random_plan(scale: &Scale, workload_mask: usize, predictors: usize) -> ExperimentPlan {
    let config = SystemConfig::isca03();
    let all_predictors = [
        PredictorConfig::owner().indexing(Indexing::Macroblock { bytes: 1024 }),
        PredictorConfig::group(),
        PredictorConfig::broadcast_if_shared().entries(Capacity::ISCA03),
    ];
    let mut plan = ExperimentPlan::new(
        "proptest-plan",
        &["workload", "label", "msgs", "indirections"],
        scale,
    );
    for (bit, workload) in [Workload::Oltp, Workload::Apache, Workload::Ocean]
        .into_iter()
        .enumerate()
    {
        if workload_mask & (1 << bit) == 0 {
            continue;
        }
        plan.push(Cell::Baselines { config, workload });
        for predictor in all_predictors.iter().take(predictors) {
            plan.push(Cell::Tradeoff {
                config,
                workload,
                predictor: *predictor,
            });
        }
    }
    plan.render(|cells, outputs, table| {
        for (cell, output) in cells.iter().zip(outputs) {
            let workload = cell.workload().expect("trace cell").name().to_string();
            let mut row = |label: &str, msgs: u64, ind: u64| {
                table.row([
                    workload.clone(),
                    label.to_string(),
                    msgs.to_string(),
                    ind.to_string(),
                ]);
            };
            match output {
                CellOutput::Baselines {
                    snooping,
                    directory,
                } => {
                    for p in [snooping, directory] {
                        row(&p.label, p.request_messages, p.indirections);
                    }
                }
                CellOutput::Tradeoff(p) => row(&p.label, p.request_messages, p.indirections),
                other => panic!("unexpected output {other:?}"),
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random plans, any split of the plan into explicit cell sets
    /// (plan index `i` goes to group `i % shards`) plus a simulated
    /// mid-run crash (journal truncated to an arbitrary record boundary
    /// plus a torn fragment) and resume merges byte-identical to the
    /// serial path.
    #[test]
    fn shard_crash_resume_merges_byte_identical(
        workload_mask in 1usize..8,
        predictors in 0usize..4,
        shards in 1usize..5,
        crash_keep in 0usize..4,
        torn in proptest::arbitrary::any::<bool>(),
    ) {
        let scale = tiny();
        let plan = random_plan(&scale, workload_mask, predictors);
        let serial = SweepRunner::serial().run(&plan).to_csv();

        let dir = std::env::temp_dir().join(format!(
            "dsp-prop-shard-{}-{workload_mask}-{predictors}-{shards}-{crash_keep}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Run every group, journaling to its own file.
        let ids = CellId::assign(&plan.cells);
        let group = |g: usize| -> Vec<CellId> { ids.iter().copied().skip(g).step_by(shards).collect() };
        let paths: Vec<PathBuf> = (0..shards)
            .map(|i| dir.join(format!("shard{i}.jsonl")))
            .collect();
        for (i, path) in paths.iter().enumerate() {
            SweepSession::new(&plan)
                .cells(group(i))
                .threads(1 + i % 3)
                .checkpoint(path)
                .run(&mut [])
                .expect("shard session");
        }

        // Crash group 0 at an arbitrary point: keep the header plus
        // `crash_keep` records, optionally with a torn fragment of the
        // next record (a process killed mid-write), then resume it.
        let text = std::fs::read_to_string(&paths[0]).expect("read journal");
        let lines: Vec<&str> = text.lines().collect();
        let keep = 1 + crash_keep.min(lines.len() - 1);
        let kept: Vec<String> = lines[..keep].iter().map(|l| l.to_string()).collect();
        let mut remnant = String::new();
        if torn {
            if let Some(next) = lines.get(keep) {
                remnant = next[..next.len() / 2].to_string();
            }
        }
        std::fs::write(&paths[0], format!("{}\n{remnant}", kept.join("\n"))).expect("truncate");
        let resumed = SweepSession::new(&plan)
            .cells(group(0))
            .checkpoint(&paths[0])
            .resume(true)
            .run(&mut [])
            .expect("resumed session");
        prop_assert_eq!(resumed.replayed, keep - 1, "intact records replay");

        // Any cell split + any crash point merges byte-identical.
        let merged = merge_journals(&plan, &paths).expect("merge");
        prop_assert_eq!(merged.to_csv(), serial.clone());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `repro all`-style reuse: one runner serving several plans caches
/// each distinct (workload, config, footprint, seed, length) trace
/// exactly once.
#[test]
fn runner_shares_traces_across_plans() {
    let scale = tiny();
    let runner = SweepRunner::new();
    runner.run(&experiments::table2_plan(&scale));
    assert_eq!(runner.cached_traces(), 6, "one trace per workload");
    runner.run(&experiments::fig5_plan(&scale));
    assert_eq!(
        runner.cached_traces(),
        6,
        "fig5 reuses the characterization traces"
    );
    runner.run(&experiments::scaling_plan(&scale));
    // Scaling adds 8/32/64/128/256-node OLTP traces; the 16-node
    // default config differs from SystemConfig::isca03() only if the
    // builder diverges, so allow either 11 or 12 cached traces.
    assert!(
        (11..=12).contains(&runner.cached_traces()),
        "scaling adds per-node-count traces, got {}",
        runner.cached_traces()
    );
}
