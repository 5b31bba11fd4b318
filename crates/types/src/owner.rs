//! Block ownership.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::NodeId;

/// Who currently owns a block: a processor's cache or memory.
///
/// The owner is the agent responsible for supplying data in response to a
/// coherence request. A request whose destination set includes the owner
/// (and, for writes, all sharers) is *sufficient* in multicast snooping.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum Owner {
    /// Memory (at the block's home node) owns the block.
    #[default]
    Memory,
    /// The cache at this node owns the block (M or O state).
    Node(NodeId),
}

impl Owner {
    /// The owning node, if a cache owns the block.
    #[inline]
    pub const fn node(self) -> Option<NodeId> {
        match self {
            Owner::Memory => None,
            Owner::Node(n) => Some(n),
        }
    }

    /// Whether memory owns the block.
    #[inline]
    pub const fn is_memory(self) -> bool {
        matches!(self, Owner::Memory)
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Owner::Memory => write!(f, "memory"),
            Owner::Node(n) => write!(f, "{n}"),
        }
    }
}

impl From<NodeId> for Owner {
    fn from(n: NodeId) -> Self {
        Owner::Node(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_memory() {
        assert_eq!(Owner::default(), Owner::Memory);
    }

    #[test]
    fn owner_accessors() {
        let n = NodeId::new(4);
        assert_eq!(Owner::Node(n).node(), Some(n));
        assert_eq!(Owner::Memory.node(), None);
        assert!(Owner::Memory.is_memory());
        assert!(!Owner::from(n).is_memory());
    }

    #[test]
    fn display_strings() {
        assert_eq!(Owner::Memory.to_string(), "memory");
        assert_eq!(Owner::Node(NodeId::new(2)).to_string(), "P2");
    }
}
