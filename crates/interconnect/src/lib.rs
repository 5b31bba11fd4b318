//! Totally ordered crossbar interconnect with bandwidth contention.
//!
//! All three protocols the paper evaluates require a total order of
//! coherence requests, so the target system connects its 16
//! processor/memory nodes through a single crossbar switch (paper §5.2:
//! "we model a single crossbar switch. This interconnect model includes
//! contention effects caused by limited link bandwidth").
//!
//! The model here follows Table 4: each node has one full-duplex
//! 10 GB/s link to the switch; a message serializes onto its source
//! link, reaches the switch's *ordering point* after half the 50 ns
//! traversal, is replicated to each destination (paying per-destination
//! link serialization and queuing), and arrives after the second half of
//! the traversal. Endpoint bandwidth therefore scales with destination-set
//! size — the quantity destination-set prediction is designed to save.
//!
//! # Example
//!
//! ```
//! use dsp_interconnect::{Crossbar, InterconnectConfig, Message};
//! use dsp_types::{DestSet, MessageClass, NodeId};
//!
//! let mut xbar = Crossbar::new(InterconnectConfig::isca03(), 16);
//! let msg: Message = Message {
//!     src: NodeId::new(0),
//!     dests: DestSet::broadcast(16).without(NodeId::new(0)),
//!     class: MessageClass::Request,
//! };
//! let delivery = xbar.send(0, &msg);
//! assert_eq!(delivery.arrivals.len(), 15);
//! assert!(delivery.order_time > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crossbar;
mod error;
mod reference;
mod stats;
pub mod topology;
pub mod toxic;

pub use crossbar::{Crossbar, Delivery, InterconnectConfig, Message};
pub use error::InterconnectError;
pub use reference::ReferenceCrossbar;
pub use stats::{ClassTraffic, LinkStats, TrafficStats};
pub use topology::{Topology, TopologySpec};
pub use toxic::{Toxic, ToxicChain, ToxicSpec};
