//! Synthetic commercial-workload coherence traces.
//!
//! The ISCA 2003 destination-set prediction paper drives its predictors
//! with Simics-captured L2 miss traces of six workloads (Apache, OLTP,
//! SPECjbb, Slashcode, Barnes-Hut, Ocean). Each trace record contains the
//! *data address*, *program counter*, *requester*, and *request type* of
//! one second-level cache miss.
//!
//! Those traces are not redistributable (and depend on proprietary
//! commercial software), so this crate builds the closest synthetic
//! equivalent: parameterized, seeded generators whose miss streams are
//! calibrated against everything the paper publishes about the real
//! streams — Table 2 (footprints, miss rates, % directory indirections)
//! and Figures 2–4 (instantaneous sharing, degree of sharing, temporal /
//! spatial / PC locality). The generators compose six sharing classes
//! (private, cold-footprint, read-only shared, migratory,
//! producer–consumer, and read-write shared) with Zipf temporal locality
//! and macroblock-correlated sharer groups.
//!
//! # Example
//!
//! ```
//! use dsp_trace::{Workload, WorkloadSpec};
//! use dsp_types::SystemConfig;
//!
//! let config = SystemConfig::isca03();
//! let spec = WorkloadSpec::preset(Workload::Apache, &config).scaled(1.0 / 64.0);
//! let misses: Vec<_> = spec.generator(7).take(1000).collect();
//! assert_eq!(misses.len(), 1000);
//! assert!(misses.iter().all(|m| m.requester.index() < 16));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod generator;
mod holders;
mod io;
mod presets;
mod record;
mod spec;
mod zipf;

pub use generator::TraceGenerator;
pub use holders::Holders;
pub use io::{read_trace_json, write_trace_json, TraceIoError};
pub use record::TraceRecord;
pub use spec::{ClassSpec, SharingClass, Workload, WorkloadSpec};
pub use zipf::ZipfSampler;
