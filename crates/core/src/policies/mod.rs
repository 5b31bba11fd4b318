//! The prediction policies of paper Table 3, the Sticky-Spatial prior
//! work baseline, and the two protocol endpoints.

mod broadcast_if_shared;
mod endpoints;
mod group;
mod owner;
mod owner_group;
mod random;
mod sticky_spatial;
mod two_level_owner;

pub use broadcast_if_shared::BroadcastIfSharedPredictor;
pub use endpoints::{AlwaysBroadcastPredictor, AlwaysMinimalPredictor};
pub use group::GroupPredictor;
pub use owner::OwnerPredictor;
pub use owner_group::OwnerGroupPredictor;
pub use random::RandomPredictor;
pub use sticky_spatial::StickySpatialPredictor;
pub use two_level_owner::TwoLevelOwnerPredictor;

use dsp_types::ReqType;

use crate::index::Indexing;

/// Whether the tagged-table policies (Owner, Group, Broadcast-if-Shared,
/// Two-Level Owner) train on another node's request of type `req`
/// (paper Table 3): only requests for exclusive train, and only under
/// address indexing, since a PC-indexed table cannot see a foreign
/// request's PC. Their `train` and `observes_other` both consult it, so
/// the two cannot disagree.
pub(crate) fn trains_on_other(indexing: Indexing, req: ReqType) -> bool {
    req == ReqType::GetExclusive && indexing != Indexing::ProgramCounter
}
