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
//! [`Topology`] is the one network type: the crossbar shape with no
//! faults is the paper's model, and a mesh shape or a toxic chain
//! ([`toxic`]) runs the same contention model with hop latencies or
//! injected faults.
//!
//! # Example
//!
//! ```
//! use dsp_interconnect::{InterconnectConfig, Message, Topology, TopologySpec, ToxicSpec};
//! use dsp_types::{DestSet, MessageClass, NodeId};
//!
//! let config = InterconnectConfig::isca03();
//! let mut net = Topology::new(config, 16, &TopologySpec::Crossbar, &ToxicSpec::none(), 0);
//! let msg: Message = Message {
//!     src: NodeId::new(0),
//!     dests: DestSet::broadcast(16).without(NodeId::new(0)),
//!     class: MessageClass::Request,
//! };
//! // One arrival slot per node; the send writes exactly the destinations'.
//! let mut arrive = [0u64; 16];
//! let order_time = net.send_into(0, &msg, &mut arrive);
//! assert!(order_time > 0);
//! assert!(arrive[1..].iter().all(|&t| t > order_time));
//! assert_eq!(net.stats().request_deliveries(), 15);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crossbar;
mod error;
mod stats;
pub mod topology;
pub mod toxic;

pub use crossbar::{InterconnectConfig, Message};
pub use error::InterconnectError;
pub use stats::{ClassTraffic, LinkStats, TrafficStats};
pub use topology::{Topology, TopologySpec};
pub use toxic::{Toxic, ToxicChain, ToxicSpec};
