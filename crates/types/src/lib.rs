//! Common vocabulary types for the destination-set prediction stack.
//!
//! This crate defines the small, copy-friendly types shared by every other
//! crate in the workspace: processor/node identifiers ([`NodeId`]),
//! destination sets ([`DestSet`]), physical addresses and their block /
//! macroblock views ([`Address`], [`BlockAddr`], [`MacroblockAddr`]),
//! program counters ([`Pc`]), memory access kinds ([`AccessKind`]), block
//! ownership ([`Owner`]), and the system-wide configuration
//! ([`SystemConfig`]). It also holds the two `u64`-keyed stores the other
//! crates build on: [`OpenTable`], an open-addressing hash table, and
//! [`SetAssoc`], the set-associative LRU store behind both the L2 cache
//! model and the finite predictor tables.
//!
//! The paper this workspace reproduces — Martin et al., *Using
//! Destination-Set Prediction to Improve the Latency/Bandwidth Tradeoff in
//! Shared-Memory Multiprocessors*, ISCA 2003 — studies 16-processor
//! systems with 64-byte cache blocks and 1024-byte macroblocks; those are
//! the defaults here, but everything is parameterized.
//!
//! # Example
//!
//! ```
//! use dsp_types::{DestSet, NodeId, SystemConfig};
//!
//! let config = SystemConfig::isca03();
//! assert_eq!(config.num_nodes(), 16);
//!
//! let mut set: DestSet = DestSet::empty();
//! set.insert(NodeId::new(3));
//! set.insert(NodeId::new(7));
//! assert_eq!(set.len(), 2);
//! assert!(set.is_subset(DestSet::broadcast(config.num_nodes())));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod addr;
mod config;
mod dest_set;
mod error;
pub mod hash;
mod node;
mod open_table;
mod owner;
mod set_assoc;

pub use access::{AccessKind, MessageClass, ReqType};
pub use addr::{Address, BlockAddr, MacroblockAddr, Pc, BLOCK_BYTES, BLOCK_SHIFT};
pub use config::{SystemConfig, SystemConfigBuilder};
pub use dest_set::{DestSet, DestSet256, DestSet64, DestSetIter};
pub use error::ConfigError;
pub use node::{NodeId, MAX_NODES};
pub use open_table::OpenTable;
pub use owner::Owner;
pub use set_assoc::SetAssoc;
