//! Discrete-event timing simulation of the three coherence protocols.
//!
//! This crate assembles the full target system of the paper's §5:
//! trace-driven processor models (a simple blocking core and a
//! simplified out-of-order core with multiple outstanding misses),
//! per-node L2 caches and destination-set predictors, the global MOSI
//! coherence substrate, and the totally ordered crossbar — then runs
//! broadcast snooping, a GS320-style directory protocol, or multicast
//! snooping over them and reports runtime, traffic, latency, and
//! indirection statistics.
//!
//! Timing follows paper Table 4 ([`TargetSystem::isca03_default`]):
//! uncontended latencies come out at 180 ns for memory fetches, 112 ns
//! for direct cache-to-cache transfers, and 242 ns for indirected ones,
//! with link serialization and queuing added by the crossbar model.
//!
//! Multicast snooping's races are modeled faithfully: an insufficient
//! destination set is detected by the home directory, which reissues
//! with a corrected set; a racing request ordered inside the *window of
//! vulnerability* can invalidate the correction, and the third attempt
//! falls back to broadcast, which always succeeds.
//!
//! # Example
//!
//! ```
//! use dsp_core::PredictorConfig;
//! use dsp_sim::{ProtocolKind, SimConfig, TargetSystem};
//! use dsp_trace::{Workload, WorkloadSpec};
//! use dsp_types::SystemConfig;
//!
//! let sys = SystemConfig::isca03();
//! let spec = WorkloadSpec::preset(Workload::Apache, &sys).scaled(1.0 / 256.0);
//! let sim = SimConfig::new(ProtocolKind::Multicast(PredictorConfig::owner_group()))
//!     .misses(50, 200);
//! let report = dsp_sim::simulate(&sys, TargetSystem::isca03_default(), &spec, sim);
//! println!("runtime: {} ns, {:.1} B/miss", report.runtime_ns, report.bytes_per_miss());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
pub mod queue;
mod report;
mod system;

pub use config::{CpuModel, ProtocolKind, SetWidth, SimConfig, TargetSystem};
pub use dsp_interconnect::{Topology, TopologySpec, Toxic, ToxicSpec};
pub use queue::{Event, EventQueue, QueueCounters, WheelQueue};
pub use report::{ClassCounts, LatencyHistogram, SimReport};
pub use system::{simulate, simulate_with_partition, System, TracePartition};
