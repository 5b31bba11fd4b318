//! Experiment harness regenerating every table and figure of the paper.
//!
//! The heavy lifting lives in [`experiments`]: one plan per paper
//! artifact (Table 2, Figures 2–8, plus ablations), each rendering a
//! [`dsp_analysis::TextTable`] on the [`engine`]. The `repro` binary
//! fronts them with a CLI; `perfbench/` times the same plans.
//!
//! ```bash
//! cargo run --release -p dsp-fleet --bin repro -- all --scale standard
//! cargo run --release -p dsp-fleet --bin repro -- fig5 --scale paper
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod experiments;
mod scale;

pub use engine::{
    merge_journals, Cell, CellId, CellOutput, CellRecord, CellSink, Collector, ExperimentPlan,
    ProgressSink, SessionError, SessionReport, SweepRunner, SweepSession,
};
pub use scale::Scale;
