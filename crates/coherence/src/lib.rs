//! Global MOSI coherence tracking and multicast-snooping semantics.
//!
//! All three protocols the paper evaluates — broadcast snooping, a
//! GS320-style directory, and multicast snooping — are MOSI
//! write-invalidate protocols over a *totally ordered* request network.
//! On such networks the outcome of a coherence request is a pure function
//! of the global owner/sharers state at the instant the interconnect
//! orders the request. This crate implements exactly that function:
//!
//! * [`CoherenceTracker`] maintains per-block owner + sharers state and
//!   classifies every miss ([`MissInfo`]): who must observe it, whether a
//!   directory protocol would indirect, whether it is a cache-to-cache
//!   transfer.
//! * [`multicast`] implements the multicast snooping sufficiency rule
//!   ("a destination set is sufficient if it includes the requester, the
//!   home node, the owner of the block, and, if the request is for write
//!   permission, all processors sharing the block") together with the
//!   reissue mechanism of Sorin et al. and per-protocol message
//!   accounting.
//!
//! # Example
//!
//! ```
//! use dsp_coherence::{CoherenceTracker, multicast};
//! use dsp_types::{BlockAddr, DestSet, NodeId, ReqType, SystemConfig};
//!
//! let config = SystemConfig::isca03();
//! let mut tracker: CoherenceTracker = CoherenceTracker::new(&config);
//! let block = BlockAddr::new(42);
//!
//! // P1 writes, then P2 reads: a cache-to-cache transfer.
//! tracker.access(NodeId::new(1), ReqType::GetExclusive, block);
//! let info = tracker.access(NodeId::new(2), ReqType::GetShared, block);
//! assert!(info.is_cache_to_cache());
//! assert!(info.is_directory_indirection());
//!
//! // A multicast that includes the owner succeeds without reissue.
//! let predicted = info.minimal_set().with(NodeId::new(1));
//! let outcome = multicast::evaluate(&info, predicted);
//! assert!(outcome.sufficient_first);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod miss;
pub mod multicast;
mod tracker;

pub use miss::{MissClass, MissInfo};
pub use multicast::{LatencyClass, MulticastOutcome};
pub use tracker::{BlockState, CoherenceTracker, Eviction, TrackerStats};
