//! Destination-set predictors — the primary contribution of the paper.
//!
//! A destination-set predictor sits in each L2 cache controller and, on
//! every miss, guesses which nodes must observe the resulting coherence
//! request. The predictor is accessed in parallel with the cache; on a
//! predictor miss it falls back to the *minimal* destination set
//! (requester + home node). Entries are allocated only when the minimal
//! set proved insufficient, concentrating capacity on blocks that
//! actually exhibit sharing (paper §3.1).
//!
//! This crate implements the paper's Table 3 policies plus the prior-work
//! baseline and the two protocol endpoints:
//!
//! * [`policies::OwnerPredictor`] — predicts the last observed owner;
//!   bandwidth-conscious.
//! * [`policies::BroadcastIfSharedPredictor`] — broadcasts for data that
//!   appears shared; latency-conscious.
//! * [`policies::GroupPredictor`] — per-node 2-bit counters (stored as
//!   two bit-planes) with a 5-bit rollover "train-down" mechanism;
//!   balanced.
//! * [`policies::OwnerGroupPredictor`] — Group for writes, Owner for
//!   reads; stable-sharing-pattern hybrid.
//! * [`policies::StickySpatialPredictor`] — Bilir et al.'s original
//!   multicast-snooping predictor (untagged, direct-mapped, trains up
//!   only), reproduced for Figure 6(c).
//! * [`policies::AlwaysBroadcastPredictor`] /
//!   [`policies::AlwaysMinimalPredictor`] — the snooping and directory
//!   endpoints of the design space.
//!
//! Predictors are indexed by 64-byte data-block address, by macroblock
//! address (256 B / 1024 B), or by the program counter of the missing
//! instruction ([`Indexing`]), and are either unbounded or tagged
//! set-associative ([`Capacity`]).
//!
//! # Example
//!
//! ```
//! use dsp_core::{Capacity, Indexing, PredictorConfig, PredictQuery, TrainEvent};
//! use dsp_types::{BlockAddr, DestSet, NodeId, Owner, Pc, ReqType, SystemConfig};
//!
//! let config = SystemConfig::isca03();
//! let mut predictor = PredictorConfig::group()
//!     .indexing(Indexing::Macroblock { bytes: 1024 })
//!     .entries(Capacity::Finite { entries: 8192, ways: 4 })
//!     .build(&config);
//!
//! let block = BlockAddr::new(99);
//! let query = PredictQuery {
//!     block,
//!     pc: Pc::new(0x400),
//!     requester: NodeId::new(0),
//!     req: ReqType::GetShared,
//!     minimal: DestSet::single(NodeId::new(0)).with(block.home(16)),
//! };
//! // Untrained: falls back to the minimal set.
//! assert_eq!(predictor.predict(&query), query.minimal);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod counters;
mod events;
mod index;
pub mod policies;
mod table;

pub use config::{PolicyKind, PredictorConfig};
pub use counters::{RolloverCounter, SatCounter2};
pub use events::{PredictQuery, TrainEvent};
pub use index::Indexing;
pub use table::{Capacity, PredictorTable, TableStats};

use dsp_types::{DestSet, ReqType};

/// A destination-set predictor, as seen by a cache controller.
///
/// Implementations must return predictions that are supersets of the
/// query's minimal set (the protocol always includes requester + home);
/// the property tests in this crate enforce it for every policy.
///
/// The trait is generic over the destination-set word width `W`
/// (default 4 = [`dsp_types::DestSet256`]). Policies whose state holds
/// no destination sets implement it for every width with a single
/// blanket `impl<const W: usize> DestSetPredictor<W> for ...`; policies
/// that do store sets (e.g. Sticky-Spatial's bitmask slots) are generic
/// structs instantiated at the simulator's chosen width.
pub trait DestSetPredictor<const W: usize = 4>: std::fmt::Debug + Send {
    /// Predicts the destination set for a miss.
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W>;

    /// Applies one piece of training information (a data response for an
    /// own request, an observed external request, or an observed
    /// directory reissue).
    fn train(&mut self, event: &TrainEvent<W>);

    /// Applies a batch of training information in slice order.
    ///
    /// Equivalent to calling [`train`](DestSetPredictor::train) on each
    /// event in turn — the default implementation does exactly that.
    /// Nothing in the workspace calls it: the timing simulator makes
    /// one `train` call per node a request arrives at. It stays only
    /// because the benchmark's traced predictor wrapper
    /// (`perfbench/src/traced.rs`) overrides it; once that override
    /// goes, so can this method.
    fn train_batch(&mut self, events: &[TrainEvent<W>]) {
        for event in events {
            self.train(event);
        }
    }

    /// Whether another node's request of type `req` can change this
    /// predictor's state.
    ///
    /// Returning `false` promises that [`train`](DestSetPredictor::train)
    /// on every [`TrainEvent::OtherRequest`] with this `req` is a no-op,
    /// whatever the block and requester. Callers may then skip those
    /// deliveries entirely: the timing simulator does not schedule
    /// them. The default, `true`, is always safe, so custom
    /// predictors and wrappers stay correct without overriding it.
    fn observes_other(&self, req: ReqType) -> bool {
        let _ = req;
        true
    }

    /// Short human-readable policy name (e.g. `"Group"`).
    fn name(&self) -> String;

    /// Storage cost of one entry in bits, excluding tags (paper Table 3
    /// "Entry Size" row).
    fn entry_payload_bits(&self) -> u64;

    /// Total storage of the predictor in bits, including tags for finite
    /// configurations (0 for unbounded idealizations and the stateless
    /// endpoints).
    fn storage_bits(&self) -> u64;
}
