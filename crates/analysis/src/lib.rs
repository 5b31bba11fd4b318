//! Workload characterization and evaluation harnesses.
//!
//! This crate turns the lower layers into the paper's experiments:
//!
//! * [`characterize`] measures a workload's sharing behavior — Table 2
//!   (footprints, miss PCs, % directory indirections), Figure 2
//!   (instantaneous sharing), Figure 3 (degree of sharing), and Figure 4
//!   (temporal/spatial/PC locality of cache-to-cache misses).
//! * [`TradeoffEvaluator`] replays traces through per-node predictors
//!   and the multicast-snooping accounting rules — Figures 5 and 6.
//! * [`RuntimeEvaluator`] drives the discrete-event timing simulator
//!   across protocols and normalizes runtime/traffic — Figures 7 and 8.
//! * [`TextTable`] renders results as aligned text and CSV.
//!
//! # Example
//!
//! ```
//! use dsp_analysis::{characterize, TradeoffEvaluator};
//! use dsp_core::PredictorConfig;
//! use dsp_trace::{Workload, WorkloadSpec};
//! use dsp_types::SystemConfig;
//!
//! let config = SystemConfig::isca03();
//! let spec = WorkloadSpec::preset(Workload::Apache, &config).scaled(1.0 / 256.0);
//!
//! // Table 2-style characterization.
//! let report = characterize(&spec, &config, 1_000, 5_000, 42);
//! assert!(report.indirection_pct() > 50.0);
//!
//! // One figure-5 point.
//! let trace: Vec<_> = spec.generator(42).take(5_000).collect();
//! let point = TradeoffEvaluator::new(&config)
//!     .warmup(1_000)
//!     .run(trace.iter().copied(), &PredictorConfig::group());
//! println!("{}: {:.1} msgs/miss", point.label, point.request_messages_per_miss());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod characterize;
mod render;
mod runtime;
mod tradeoff;

pub use characterize::{
    characterize, characterize_trace, CharacterizationReport, LocalityCdf, SharingHistogram,
};
pub use render::{fmt_f, TextTable};
pub use runtime::{RuntimeEvaluator, RuntimePoint};
pub use tradeoff::{TradeoffEvaluator, TradeoffPoint};
