//! The seed crossbar send path, kept verbatim as the semantic reference.
//!
//! [`ReferenceCrossbar`] preserves the original [`Crossbar`] hot path
//! byte for byte in behavior: serialization delay recomputed from
//! floats on every send and arrival times heap-allocated into a fresh
//! `Vec` per delivery. It is the oracle the property tests compare the
//! allocation-free crossbar against.
//!
//! It models timing only: traffic statistics are the measured
//! implementation's concern.
//!
//! [`Crossbar`]: crate::Crossbar

use dsp_types::{MessageClass, NodeId};

use crate::crossbar::{InterconnectConfig, Message};

/// `Vec`-returning, float-per-send crossbar with the seed algorithm.
///
/// See [`Crossbar`](crate::Crossbar) for the timing model; the two are
/// byte-identical on every trace (pinned by property tests).
#[derive(Clone, Debug)]
pub struct ReferenceCrossbar {
    config: InterconnectConfig,
    src_free_at: Vec<u64>,
    dst_free_at: Vec<u64>,
    last_order_time: u64,
}

impl ReferenceCrossbar {
    /// Creates a reference crossbar for `num_nodes` nodes.
    pub fn new(config: InterconnectConfig, num_nodes: usize) -> Self {
        ReferenceCrossbar {
            config,
            src_free_at: vec![0; num_nodes],
            dst_free_at: vec![0; num_nodes],
            last_order_time: 0,
        }
    }

    /// Serialization delay of `class`-sized messages, recomputed from
    /// floats on every call exactly as the seed did.
    pub fn serialization_ns(&self, class: MessageClass) -> u64 {
        ((class.bytes() as f64 / self.config.link_bytes_per_ns).ceil() as u64).max(1)
    }

    /// Injects `msg` at time `now`; returns the ordering time and a
    /// freshly allocated arrival list, exactly as the seed `send` did.
    pub fn send<const W: usize>(
        &mut self,
        now: u64,
        msg: &Message<W>,
    ) -> (u64, Vec<(NodeId, u64)>) {
        let ser = self.serialization_ns(msg.class);
        let half = self.config.traversal_ns / 2;
        let start = now.max(self.src_free_at[msg.src.index()]);
        self.src_free_at[msg.src.index()] = start + ser;
        let order_time = (start + ser + half).max(self.last_order_time);
        self.last_order_time = order_time;
        let mut arrivals = Vec::with_capacity(msg.dests.len());
        for dest in msg.dests {
            let d_start = order_time.max(self.dst_free_at[dest.index()]);
            self.dst_free_at[dest.index()] = d_start + ser;
            arrivals.push((dest, d_start + ser + half));
        }
        (order_time, arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_types::DestSet;

    #[test]
    fn reference_matches_documented_seed_timing() {
        let mut x = ReferenceCrossbar::new(InterconnectConfig::isca03(), 16);
        let (order, arrivals) = x.send(
            0,
            &Message::<4> {
                src: NodeId::new(0),
                dests: DestSet::single(NodeId::new(5)),
                class: MessageClass::Request,
            },
        );
        // 8B at 10B/ns -> 1ns serialization; 25 + 25 traversal halves.
        assert_eq!(order, 26);
        assert_eq!(arrivals, vec![(NodeId::new(5), 52)]);
    }
}
