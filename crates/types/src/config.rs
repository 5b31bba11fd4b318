//! System-wide configuration.

use serde::{Deserialize, Serialize};

use crate::error::ConfigError;
use crate::node::MAX_NODES;
use crate::BLOCK_BYTES;

/// Global configuration of the simulated multiprocessor.
///
/// Use [`SystemConfig::isca03`] for the paper's 16-processor target
/// system, or [`SystemConfig::builder`] to customize.
///
/// # Example
///
/// ```
/// use dsp_types::SystemConfig;
///
/// let cfg = SystemConfig::builder()
///     .num_nodes(8)
///     .macroblock_bytes(256)
///     .build()?;
/// assert_eq!(cfg.num_nodes(), 8);
/// assert_eq!(cfg.blocks_per_macroblock(), 4);
/// # Ok::<(), dsp_types::ConfigError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SystemConfig {
    num_nodes: usize,
    block_bytes: u64,
    macroblock_bytes: u64,
}

impl SystemConfig {
    /// The paper's target system: 16 nodes, 64 B blocks, 1024 B
    /// macroblocks.
    pub fn isca03() -> Self {
        SystemConfig {
            num_nodes: 16,
            block_bytes: BLOCK_BYTES,
            macroblock_bytes: 1024,
        }
    }

    /// Starts building a custom configuration.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }

    /// Number of processor/memory nodes.
    #[inline]
    pub const fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Cache block size in bytes (64 in the paper).
    #[inline]
    pub const fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Macroblock size in bytes used for macroblock indexing.
    #[inline]
    pub const fn macroblock_bytes(&self) -> u64 {
        self.macroblock_bytes
    }

    /// Number of cache blocks per macroblock.
    #[inline]
    pub const fn blocks_per_macroblock(&self) -> u64 {
        self.macroblock_bytes / self.block_bytes
    }
}

impl Default for SystemConfig {
    /// Defaults to the paper's target system ([`SystemConfig::isca03`]).
    fn default() -> Self {
        SystemConfig::isca03()
    }
}

/// Builder for [`SystemConfig`].
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    num_nodes: usize,
    block_bytes: u64,
    macroblock_bytes: u64,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        let base = SystemConfig::isca03();
        SystemConfigBuilder {
            num_nodes: base.num_nodes,
            block_bytes: base.block_bytes,
            macroblock_bytes: base.macroblock_bytes,
        }
    }
}

impl SystemConfigBuilder {
    /// Sets the number of nodes (1..=[`MAX_NODES`]).
    pub fn num_nodes(&mut self, n: usize) -> &mut Self {
        self.num_nodes = n;
        self
    }

    /// Sets the cache block size in bytes (power of two).
    pub fn block_bytes(&mut self, bytes: u64) -> &mut Self {
        self.block_bytes = bytes;
        self
    }

    /// Sets the macroblock size in bytes (power of two, >= block size).
    pub fn macroblock_bytes(&mut self, bytes: u64) -> &mut Self {
        self.macroblock_bytes = bytes;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the node count is out of range, a
    /// size is not a power of two, or the macroblock is smaller than a
    /// block.
    pub fn build(&self) -> Result<SystemConfig, ConfigError> {
        if self.num_nodes == 0 || self.num_nodes > MAX_NODES {
            return Err(ConfigError::InvalidNodeCount(self.num_nodes));
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "block size",
                value: self.block_bytes,
            });
        }
        if !self.macroblock_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "macroblock size",
                value: self.macroblock_bytes,
            });
        }
        if self.macroblock_bytes < self.block_bytes {
            return Err(ConfigError::MacroblockTooSmall {
                macroblock_bytes: self.macroblock_bytes,
                block_bytes: self.block_bytes,
            });
        }
        Ok(SystemConfig {
            num_nodes: self.num_nodes,
            block_bytes: self.block_bytes,
            macroblock_bytes: self.macroblock_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca03_matches_paper() {
        let cfg = SystemConfig::isca03();
        assert_eq!(cfg.num_nodes(), 16);
        assert_eq!(cfg.block_bytes(), 64);
        assert_eq!(cfg.macroblock_bytes(), 1024);
        assert_eq!(cfg.blocks_per_macroblock(), 16);
    }

    #[test]
    fn default_is_isca03() {
        assert_eq!(SystemConfig::default(), SystemConfig::isca03());
    }

    #[test]
    fn builder_customizes() {
        let cfg = SystemConfig::builder()
            .num_nodes(4)
            .macroblock_bytes(256)
            .build()
            .expect("valid");
        assert_eq!(cfg.num_nodes(), 4);
        assert_eq!(cfg.blocks_per_macroblock(), 4);
    }

    #[test]
    fn builder_rejects_zero_nodes() {
        let err = SystemConfig::builder().num_nodes(0).build().unwrap_err();
        assert_eq!(err, ConfigError::InvalidNodeCount(0));
    }

    #[test]
    fn builder_rejects_too_many_nodes() {
        let err = SystemConfig::builder()
            .num_nodes(MAX_NODES + 1)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidNodeCount(MAX_NODES + 1));
    }

    #[test]
    fn builder_rejects_non_power_of_two_macroblock() {
        let err = SystemConfig::builder()
            .macroblock_bytes(700)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::NotPowerOfTwo { .. }));
    }

    #[test]
    fn builder_rejects_macroblock_smaller_than_block() {
        let err = SystemConfig::builder()
            .macroblock_bytes(32)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::MacroblockTooSmall { .. }));
    }
}
