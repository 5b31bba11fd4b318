//! Golden check: experiment output is byte-identical to the
//! pre-refactor (PR 2) outputs — through every execution mode.
//!
//! The goldens under `tests/goldens/` were captured at `--scale quick`
//! immediately before the scheduling-core rebuild (timing-wheel event
//! queue, shared open-addressing table family, 256-bit `DestSet`), so
//! these tests prove the refactors since — queue, tables, set widening,
//! the trace-generator storage swap (hash maps, then direct-indexed
//! holder and per-macroblock arrays), the streaming session API, the
//! fleet's JSON codec for cell outputs, the interconnect
//! topology/fault-injection layer wrapped around the crossbar, the
//! simulator's training delivery (per-arrival wheel events), and the
//! trace replay's skipping of deliveries no predictor observes — are
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
//!    `CellId`s, collected into one `Collector`;
//! 3. the batch outputs sent through `serde_json` encode and decode —
//!    the codec of the fleet's wire protocol and write-ahead log — then
//!    rendered, which pins the float round-trip of fig7/fig8.
//!
//! Compiled only into release test runs (CI's `cargo test --release
//! --workspace`): the quick-scale timing simulations behind fig7/fig8
//! are release-speed workloads, and a byte-identity check on debug
//! builds would add minutes to the tier-1 loop without adding coverage.

#![cfg(not(debug_assertions))]

use dsp_bench::engine::{CellId, CellOutput, Collector, SweepRunner, SweepSession};
use dsp_bench::{experiments, Scale};
use dsp_sim::{TopologySpec, ToxicSpec};

fn check(name: &str, golden: &str) {
    let scale = Scale::quick();

    // 1. Batch path (whole-plan in-memory session).
    let plan = experiments::plan_for(name, &scale).expect("known experiment");
    let outputs = SweepRunner::new().run_cells(&plan);
    assert_eq!(
        plan.render_outputs(&outputs).to_csv(),
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

    // 2. Two explicit cell-set halves (the fleet's lease shape),
    //    collected into one set of plan-ordered slots.
    let ids = CellId::assign(&plan.cells);
    let (first, second) = ids.split_at(ids.len() / 2);
    let mut collector = Collector::new(plan.len());
    for lease in [first, second] {
        SweepSession::new(&plan)
            .cells(lease.to_vec())
            .threads(4)
            .run(&mut [&mut collector]);
    }
    let leased = collector.into_outputs().expect("the halves cover the plan");
    assert_eq!(
        plan.render_outputs(&leased).to_csv(),
        golden,
        "{name} two-lease output diverged from the golden"
    );

    // 3. Every output through the WAL's codec.
    let decoded: Vec<CellOutput> = outputs
        .iter()
        .map(|output| {
            let json = serde_json::to_string(output).expect("encode");
            serde_json::from_str(&json).expect("decode")
        })
        .collect();
    assert_eq!(
        plan.render_outputs(&decoded).to_csv(),
        golden,
        "{name} output decoded from JSON diverged from the golden"
    );
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
