//! Golden check: experiment output is byte-identical to the
//! pre-refactor (PR 2) outputs — through every execution mode.
//!
//! The goldens under `tests/goldens/` were captured at `--scale quick`
//! immediately before the scheduling-core rebuild (timing-wheel event
//! queue, shared open-addressing table family, 256-bit `DestSet`), so
//! these tests prove the refactors since — queue, tables, set widening,
//! the trace-generator storage swap, the streaming session API with
//! its serde round-trip through checkpoint journals, and now the
//! interconnect topology/fault-injection layer wrapped around the
//! crossbar — are
//! observationally invisible to every table and figure they touch: the
//! trace-driven Table 2 and Figure 5 paths and the timing-simulated
//! Figure 7/8 paths.
//!
//! Each artifact is checked several ways against the same golden bytes:
//!
//! 1. the batch path (`SweepRunner`, a whole-plan in-memory session),
//!    also with an explicitly-empty toxic chain on the explicit
//!    crossbar topology (the fault-injection layer's identity gate);
//! 2. a two-lease run — two sessions, each covering half of the plan's
//!    `CellId`s, journaling to JSONL, then `merge_journals`;
//! 3. a crash-then-resume run — a full journal truncated mid-file, a
//!    resumed session completing it, then a merge of the healed file;
//! 4. (implicitly, by 2 and 3) the serde round-trip of every cell
//!    output through the journal.
//!
//! Experiments with timing-sim cells (fig7/fig8) additionally simulate
//! every cell's runs under both training-delivery modes — the lazy
//! per-node inboxes (the default) and the eager per-arrival reference
//! events — and require identical reports.
//!
//! Compiled only into release test runs (CI's `cargo test --release
//! --workspace`): the quick-scale timing simulations behind fig7/fig8
//! are release-speed workloads, and a byte-identity check on debug
//! builds would add minutes to the tier-1 loop without adding coverage.

#![cfg(not(debug_assertions))]

use std::path::PathBuf;

use dsp_bench::engine::{merge_journals, Cell, CellId, ExperimentPlan, SweepRunner, SweepSession};
use dsp_bench::{experiments, Scale};
use dsp_sim::{
    simulate_with_partition, ProtocolKind, SimConfig, TargetSystem, TopologySpec, ToxicSpec,
    TracePartition, TrainingMode,
};
use dsp_trace::WorkloadSpec;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsp-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn check(name: &str, golden: &str) {
    let scale = Scale::quick();

    // 1. Batch path (whole-plan in-memory session).
    let plan = experiments::plan_for(name, &scale).expect("known experiment");
    let table = SweepRunner::new().run(&plan);
    assert_eq!(
        table.to_csv(),
        golden,
        "{name} batch output diverged from the pre-refactor golden"
    );
    // The fault-injection layer's identity gate: an EXPLICIT empty
    // toxic chain on the explicit crossbar topology must be
    // indistinguishable from never having mentioned either — the
    // no-toxic fast path delegates to the untouched crossbar, so the
    // golden bytes cannot move. (Run 1 above already pins the
    // defaults; this pins the spelled-out form.)
    let clean_plan = experiments::plan_for(name, &scale)
        .expect("known experiment")
        .toxics(ToxicSpec::none())
        .topology(TopologySpec::Crossbar);
    assert_eq!(
        SweepRunner::new().run(&clean_plan).to_csv(),
        golden,
        "{name} output with an explicit empty toxic chain on the explicit crossbar \
         diverged from the golden"
    );

    check_training_modes(name, &plan);

    let dir = tmpdir(name);

    // 2. Two explicit cell-set halves (the fleet's lease shape)
    //    journaled to disk, then merged.
    let ids = CellId::assign(&plan.cells);
    let (first, second) = ids.split_at(ids.len() / 2);
    let lease_paths: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("l{i}.jsonl"))).collect();
    for (lease, path) in [first, second].into_iter().zip(&lease_paths) {
        SweepSession::new(&plan)
            .cells(lease.to_vec())
            .threads(4)
            .checkpoint(path)
            .run(&mut [])
            .expect("lease session");
    }
    let merged = merge_journals(&plan, &lease_paths).expect("merge");
    assert_eq!(
        merged.to_csv(),
        golden,
        "{name} two-lease merged output diverged from the golden"
    );

    // 3. Crash after the first journaled cell, then resume.
    let crash_path = dir.join("crash.jsonl");
    SweepSession::new(&plan)
        .checkpoint(&crash_path)
        .run(&mut [])
        .expect("full journaling run");
    let text = std::fs::read_to_string(&crash_path).expect("read journal");
    // Keep the header, the first record, and a torn fragment of the
    // second — the on-disk state of a process killed mid-write.
    let mut kept: Vec<&str> = text.lines().take(2).collect();
    let torn = text.lines().nth(2).expect("at least two records");
    kept.push(&torn[..torn.len() / 2]);
    std::fs::write(&crash_path, kept.join("\n")).expect("truncate journal");
    let resumed = SweepSession::new(&plan)
        .checkpoint(&crash_path)
        .resume(true)
        .run(&mut [])
        .expect("resumed session");
    assert_eq!(resumed.replayed, 1, "{name}: one intact record replays");
    assert_eq!(resumed.executed, plan.len() - 1);
    let healed = merge_journals(&plan, &[crash_path]).expect("merge healed journal");
    assert_eq!(
        healed.to_csv(),
        golden,
        "{name} crash-then-resumed output diverged from the golden"
    );

    std::fs::remove_dir_all(dir).ok();
}

/// The whole-experiment end of the eager/lazy training equivalence (the
/// per-call end lives in `dsp-sim/tests/train_equivalence.rs`): every
/// protocol of every timing-sim cell, on every perturbed-seed run, must
/// report the same `SimReport` under eager delivery as under the lazy
/// default. Runs follow `RuntimeEvaluator`'s seed schedule
/// (`seed + r·7919`) and both modes replay one shared partition.
/// Trace-driven cells never touch the simulator and are skipped.
fn check_training_modes(name: &str, plan: &ExperimentPlan) {
    let scale = &plan.scale;
    for cell in &plan.cells {
        let Cell::Runtime {
            config,
            workload,
            cpu,
            target,
            toxics,
            topology,
            protocols,
        } = cell
        else {
            continue;
        };
        let spec = WorkloadSpec::preset(*workload, config).scaled(scale.footprint);
        let target = target.unwrap_or_else(TargetSystem::isca03_default);
        let mut all = vec![ProtocolKind::Snooping, ProtocolKind::Directory];
        all.extend(protocols.iter().copied());
        for r in 0..scale.sim_runs.max(1) {
            let seed = plan.seed + r as u64 * 7919;
            let partition = TracePartition::build(
                &spec,
                seed,
                config.num_nodes(),
                scale.sim_warmup + scale.sim_measured,
            );
            for &protocol in &all {
                let simulate = |training| {
                    let sim = SimConfig::new(protocol)
                        .cpu(*cpu)
                        .misses(scale.sim_warmup, scale.sim_measured)
                        .seed(seed)
                        .training(training)
                        .toxics(toxics.clone().unwrap_or_else(|| plan.toxics.clone()))
                        .topology(topology.unwrap_or(plan.topology));
                    simulate_with_partition(config, target, &spec, sim, partition.clone())
                };
                assert_eq!(
                    simulate(TrainingMode::Lazy),
                    simulate(TrainingMode::Eager),
                    "{name}: {} on {} run {r} differs between lazy and eager training",
                    protocol.label(),
                    cell.summary(),
                );
            }
        }
    }
}

#[test]
fn table2_matches_pre_refactor_golden() {
    check("table2", include_str!("goldens/table2.csv"));
}

#[test]
fn fig5_matches_pre_refactor_golden() {
    check("fig5", include_str!("goldens/fig5.csv"));
}

#[test]
fn fig7_matches_pre_refactor_golden() {
    check("fig7", include_str!("goldens/fig7.csv"));
}

#[test]
fn fig8_matches_pre_refactor_golden() {
    check("fig8", include_str!("goldens/fig8.csv"));
}
