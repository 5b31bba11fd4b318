//! # Destination-Set Prediction
//!
//! Umbrella crate for the reproduction of Martin, Harper, Sorin, Hill, and
//! Wood, *Using Destination-Set Prediction to Improve the Latency/Bandwidth
//! Tradeoff in Shared-Memory Multiprocessors*, ISCA 2003.
//!
//! Re-exports the whole stack under one roof:
//!
//! * [`types`] — node ids, destination sets, addresses, block owners, and
//!   the shared set-associative store.
//! * [`trace`] — synthetic commercial-workload coherence trace generators.
//! * [`coherence`] — global MOSI tracking, miss classification, and
//!   multicast-snooping sufficiency checking.
//! * [`predictors`] — **the paper's contribution**: the destination-set
//!   predictor framework and the Owner, Broadcast-If-Shared, Group,
//!   Owner/Group, and Sticky-Spatial policies.
//! * [`cache`] — the L2 presence model (coherence state lives in the
//!   tracker).
//! * [`interconnect`] — totally ordered crossbar with contention.
//! * [`sim`] — discrete-event timing simulation of the three protocols.
//! * [`analysis`] — workload characterization and the latency/bandwidth
//!   tradeoff evaluation that regenerates the paper's tables and figures.
//! * [`verify`] — an explicit-state model checker proving the multicast
//!   protocol safe and live under *any* destination-set prediction.
//!
//! # Quickstart
//!
//! ```
//! use dsp::prelude::*;
//!
//! // A 16-node system and a small synthetic OLTP-like trace.
//! let config = SystemConfig::isca03();
//! let workload = WorkloadSpec::preset(Workload::Oltp, &config).scaled(1.0 / 256.0);
//! let trace: Vec<_> = workload.generator(42).take(20_000).collect();
//!
//! // Evaluate the Group predictor (one instance per node) against it.
//! let predictor = PredictorConfig::group()
//!     .indexing(Indexing::Macroblock { bytes: 1024 })
//!     .entries(Capacity::Finite { entries: 8192, ways: 4 });
//! let point = TradeoffEvaluator::new(&config)
//!     .warmup(5_000)
//!     .run(trace.iter().copied(), &predictor);
//! println!(
//!     "Group: {:.1} request msgs/miss, {:.1}% indirections",
//!     point.request_messages_per_miss(),
//!     point.indirection_pct()
//! );
//! ```

pub use dsp_analysis as analysis;
pub use dsp_cache as cache;
pub use dsp_coherence as coherence;
pub use dsp_core as predictors;
pub use dsp_interconnect as interconnect;
pub use dsp_sim as sim;
pub use dsp_trace as trace;
pub use dsp_types as types;
pub use dsp_verify as verify;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use dsp_analysis::{CharacterizationReport, RuntimeEvaluator, TradeoffEvaluator};
    pub use dsp_coherence::{CoherenceTracker, MissClass, MulticastOutcome};
    pub use dsp_core::{
        Capacity, DestSetPredictor, Indexing, PredictQuery, PredictorConfig, TrainEvent,
    };
    pub use dsp_sim::{CpuModel, ProtocolKind, SimConfig, System, TargetSystem};
    pub use dsp_trace::{TraceRecord, Workload, WorkloadSpec};
    pub use dsp_types::{
        AccessKind, Address, BlockAddr, DestSet, MacroblockAddr, NodeId, Owner, Pc, ReqType,
        SystemConfig,
    };
}
