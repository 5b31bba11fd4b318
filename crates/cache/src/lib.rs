//! The L2 cache model: which blocks each node holds.
//!
//! The timing simulator keeps a real (finite, set-associative, LRU)
//! model of each node's L2 cache so that capacity-induced evictions
//! happen where they would on hardware. The model is presence only:
//! every block's MOSI state lives in the global coherence tracker
//! (`dsp-coherence`), which decides whether an evicted line is written
//! back. The paper's target system (Table 4) uses 4 MB 4-way L2 caches
//! with 64-byte blocks; [`CacheConfig::isca03_l2`] is that geometry.
//!
//! # Example
//!
//! ```
//! use dsp_cache::{CacheConfig, SetAssocCache};
//! use dsp_types::BlockAddr;
//!
//! let mut l2 = SetAssocCache::new(CacheConfig::isca03_l2());
//! assert_eq!(l2.fill(BlockAddr::new(7)), None);
//! assert!(l2.invalidate(BlockAddr::new(7)));
//! assert!(!l2.invalidate(BlockAddr::new(7)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod set_assoc;

pub use config::CacheConfig;
pub use set_assoc::SetAssocCache;
