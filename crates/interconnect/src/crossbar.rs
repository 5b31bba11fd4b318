//! The crossbar switch model.

use serde::{Deserialize, Serialize};

use dsp_types::{DestSet, MessageClass, NodeId};

use crate::error::InterconnectError;
use crate::stats::TrafficStats;

/// Link and switch timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InterconnectConfig {
    /// Full-duplex per-node link bandwidth, bytes per nanosecond
    /// (10 GB/s = 10 B/ns in Table 4).
    pub link_bytes_per_ns: f64,
    /// End-to-end traversal latency in ns (50 in Table 4), split evenly
    /// between the source→switch and switch→destination halves.
    pub traversal_ns: u64,
}

impl InterconnectConfig {
    /// Paper Table 4: 10 GB/s links, 50 ns traversal.
    pub fn isca03() -> Self {
        InterconnectConfig {
            link_bytes_per_ns: 10.0,
            traversal_ns: 50,
        }
    }

    /// Rejects parameters that would otherwise surface downstream as a
    /// div-by-zero serialization delay or a degenerate zero-latency
    /// network.
    pub fn validate(&self) -> Result<(), InterconnectError> {
        if !self.link_bytes_per_ns.is_finite() || self.link_bytes_per_ns <= 0.0 {
            return Err(InterconnectError::NonPositiveBandwidth(
                self.link_bytes_per_ns,
            ));
        }
        if self.traversal_ns == 0 {
            return Err(InterconnectError::ZeroTraversal);
        }
        Ok(())
    }
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        InterconnectConfig::isca03()
    }
}

/// One message to inject: source, destination set, and class (the class
/// determines the wire size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message<const W: usize = 4> {
    /// Injecting node.
    pub src: NodeId,
    /// Endpoint destinations (may include or exclude the source; the
    /// crossbar delivers exactly what is asked).
    pub dests: DestSet<W>,
    /// Message class, fixing its size and accounting bucket.
    pub class: MessageClass,
}

/// Calls `deliver(d)` once per member `d` of `dests`, in ascending
/// order, and returns the number of calls. Walks the set's words
/// directly (lowest set bit, then clear it), the one destination loop
/// behind every send path.
#[inline(always)]
pub(crate) fn for_each_dest<const W: usize>(
    dests: DestSet<W>,
    mut deliver: impl FnMut(usize),
) -> u64 {
    let mut delivered = 0;
    for (i, mut w) in dests.words().into_iter().enumerate() {
        while w != 0 {
            deliver(i * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
            delivered += 1;
        }
    }
    delivered
}

/// The paper's single totally-ordered crossbar: the link occupancy and
/// ordering point of [`crate::Topology`]'s direct path, which its
/// modeled path shares.
///
/// Contention model: each node has one outgoing and one incoming link;
/// a message occupies its source link for `size / bandwidth` ns (queuing
/// behind earlier messages), passes the ordering point after half the
/// traversal, then occupies each destination's incoming link in turn.
/// Multicasts pay source serialization once but per-destination delivery
/// — the endpoint-bandwidth cost structure that motivates destination-set
/// prediction.
#[derive(Clone, Debug)]
pub(crate) struct Crossbar {
    pub(crate) config: InterconnectConfig,
    /// Serialization delay per message class, precomputed at
    /// construction so the send path never touches floating point.
    pub(crate) ser_ns: [u64; MessageClass::COUNT],
    pub(crate) src_free_at: Vec<u64>,
    pub(crate) dst_free_at: Vec<u64>,
    pub(crate) last_order_time: u64,
    pub(crate) stats: TrafficStats,
}

impl Crossbar {
    /// Creates a crossbar for `num_nodes` nodes, rejecting zero nodes,
    /// non-positive bandwidth, and zero traversal with a typed error.
    pub(crate) fn try_new(
        config: InterconnectConfig,
        num_nodes: usize,
    ) -> Result<Self, InterconnectError> {
        if num_nodes == 0 {
            return Err(InterconnectError::ZeroNodes);
        }
        config.validate()?;
        let mut ser_ns = [0u64; MessageClass::COUNT];
        for class in MessageClass::ALL {
            ser_ns[class.index()] =
                ((class.bytes() as f64 / config.link_bytes_per_ns).ceil() as u64).max(1);
        }
        Ok(Crossbar {
            config,
            ser_ns,
            src_free_at: vec![0; num_nodes],
            dst_free_at: vec![0; num_nodes],
            last_order_time: 0,
            stats: TrafficStats::default(),
        })
    }

    /// Injects `msg` at time `now` (see [`crate::Topology::send_into`]),
    /// returning the ordering time and how many deliveries the
    /// destination loop made (the delivered side of
    /// [`crate::LinkStats`]).
    pub(crate) fn send_into<const W: usize>(
        &mut self,
        now: u64,
        msg: &Message<W>,
        arrive: &mut [u64],
    ) -> (u64, u64) {
        let ser = self.ser_ns[msg.class.index()];
        let half = self.config.traversal_ns / 2;
        // Source link: queue behind earlier injections from this node.
        let start = now.max(self.src_free_at[msg.src.index()]);
        self.src_free_at[msg.src.index()] = start + ser;
        // Ordering point: monotonically non-decreasing across the switch.
        let order_time = (start + ser + half).max(self.last_order_time);
        self.last_order_time = order_time;
        // Destination links.
        let n = self.dst_free_at.len();
        let (free, arrive) = (&mut self.dst_free_at[..n], &mut arrive[..n]);
        let delivered = for_each_dest(msg.dests, |d| {
            let d_start = order_time.max(free[d]);
            free[d] = d_start + ser;
            arrive[d] = d_start + ser + half;
        });
        self.stats.record(msg.class, delivered);
        (order_time, delivered)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::topology::{Topology, TopologySpec};
    use crate::toxic::ToxicSpec;

    /// The paper's crossbar over `nodes` nodes: the direct path.
    pub(crate) fn direct(cfg: InterconnectConfig, nodes: usize) -> Topology {
        Topology::new(cfg, nodes, &TopologySpec::Crossbar, &ToxicSpec::none(), 0)
    }

    /// Sends `msg` through `net` and pairs each destination with its
    /// arrival time, in ascending node order.
    pub(crate) fn deliver<const W: usize>(
        net: &mut Topology,
        now: u64,
        msg: &Message<W>,
    ) -> (u64, Vec<(NodeId, u64)>) {
        let mut arrive = [0; 256];
        let order_time = net.send_into(now, msg, &mut arrive);
        let arrivals = msg.dests.iter().map(|d| (d, arrive[d.index()])).collect();
        (order_time, arrivals)
    }

    fn xbar() -> Topology {
        direct(InterconnectConfig::isca03(), 16)
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn msg(src: usize, dests: DestSet, class: MessageClass) -> Message {
        Message {
            src: n(src),
            dests,
            class,
        }
    }

    #[test]
    fn uncontended_latency_is_traversal_plus_serialization() {
        let mut x = xbar();
        let d = deliver(
            &mut x,
            0,
            &msg(0, DestSet::single(n(5)), MessageClass::Request),
        );
        // 8B at 10B/ns -> 1ns serialization; 25 + 25 traversal halves.
        // src: 0..1, order at 26, dst: 26..27, arrive 27 + 25 = 52.
        assert_eq!(d, (26, vec![(n(5), 52)]));
    }

    #[test]
    fn data_responses_serialize_longer() {
        let one = DestSet::single(n(1));
        let (_, req) = deliver(&mut xbar(), 0, &msg(0, one, MessageClass::Request));
        let (_, data) = deliver(&mut xbar(), 0, &msg(0, one, MessageClass::DataResponse));
        assert!(data[0].1 > req[0].1, "72B serializes slower than 8B");
    }

    #[test]
    fn source_link_queues_back_to_back_sends() {
        let mut x = xbar();
        // 8ns serialization.
        let m = msg(0, DestSet::single(n(1)), MessageClass::DataResponse);
        let (first, _) = deliver(&mut x, 0, &m);
        let (second, _) = deliver(&mut x, 0, &m);
        assert!(second >= first + 8, "second send queues");
    }

    #[test]
    fn destination_link_contention_staggers_arrivals() {
        let mut x = xbar();
        // Two different sources target the same destination at once.
        let nine = DestSet::single(n(9));
        let (_, a) = deliver(&mut x, 0, &msg(0, nine, MessageClass::DataResponse));
        let (_, b) = deliver(&mut x, 0, &msg(1, nine, MessageClass::DataResponse));
        assert!(b[0].1 >= a[0].1 + 8, "incoming link serializes");
    }

    #[test]
    fn order_times_are_totally_ordered() {
        let mut x = xbar();
        let mut last = 0;
        for i in 0..50 {
            let m = msg(
                (i % 16) as usize,
                DestSet::broadcast(16),
                MessageClass::Request,
            );
            let (order_time, _) = deliver(&mut x, i * 3, &m);
            assert!(order_time >= last, "ordering point must be monotone");
            last = order_time;
        }
    }

    #[test]
    fn multicast_delivers_to_every_destination() {
        let mut x = xbar();
        let dests = DestSet::from_iter([n(1), n(4), n(9)]);
        let (_, arrivals) = deliver(&mut x, 100, &msg(0, dests, MessageClass::Request));
        assert_eq!(arrivals.len(), 3);
        let stats = x.stats();
        assert_eq!(stats.class(MessageClass::Request).deliveries, 3);
        assert_eq!(stats.class(MessageClass::Request).messages, 1);
    }

    #[test]
    fn empty_destination_set_is_a_no_op_delivery() {
        let mut x = xbar();
        let (_, arrivals) = deliver(&mut x, 5, &msg(0, DestSet::empty(), MessageClass::Control));
        assert!(arrivals.is_empty());
        assert_eq!(x.stats().class(MessageClass::Control).deliveries, 0);
        assert_eq!(x.stats().class(MessageClass::Control).messages, 1);
    }

    #[test]
    fn config_validation() {
        let with = |link_bytes_per_ns, traversal_ns| InterconnectConfig {
            link_bytes_per_ns,
            traversal_ns,
        };
        assert!(with(2.5, 80).validate().is_ok());
        assert_eq!(
            with(0.0, 50).validate(),
            Err(InterconnectError::NonPositiveBandwidth(0.0))
        );
        assert!(with(f64::NAN, 50).validate().is_err());
        assert_eq!(
            with(10.0, 0).validate(),
            Err(InterconnectError::ZeroTraversal)
        );
        assert_eq!(
            Crossbar::try_new(InterconnectConfig::isca03(), 0).err(),
            Some(InterconnectError::ZeroNodes)
        );
        assert!(Crossbar::try_new(InterconnectConfig::isca03(), 16).is_ok());
    }

    #[test]
    fn broadcast_costs_n_deliveries() {
        let mut x = xbar();
        let others = DestSet::broadcast(16).without(n(0));
        deliver(&mut x, 0, &msg(0, others, MessageClass::Request));
        assert_eq!(x.stats().request_deliveries(), 15);
    }

    /// The slot contract `send_into` callers rely on (the simulator
    /// reuses one array per miss without clearing it): a send writes the
    /// slot of exactly each destination, on the crossbar fast path and
    /// on the modeled path alike, across every word of a 256-node set.
    #[test]
    fn send_into_writes_exactly_the_destination_slots() {
        use crate::toxic::Toxic;

        const SENTINEL: u64 = u64::MAX;
        let cfg = InterconnectConfig::isca03();
        let mesh = TopologySpec::Mesh2d {
            cols: 16,
            link_ns: 10,
            hop_ns: 5,
        };
        let jitter = ToxicSpec::none().with(Toxic::LatencyJitter { max_ns: 30 });
        let mut xbar = direct(cfg, 256);
        let mut modeled = Topology::new(cfg, 256, &mesh, &jitter, 7);
        let first: DestSet = DestSet::from_iter([0, 63, 64, 127, 128, 255].map(n));
        let second: DestSet = DestSet::from_iter([1, 62, 65, 200].map(n));
        let mut slots = [vec![SENTINEL; 256], vec![SENTINEL; 256]];
        for (now, dests) in [(0, first), (10, second)] {
            let msg = msg(100, dests, MessageClass::Request);
            let before = slots.clone();
            xbar.send_into(now, &msg, &mut slots[0]);
            modeled.send_into(now, &msg, &mut slots[1]);
            for (after, before) in slots.iter().zip(&before) {
                for d in 0..256 {
                    assert_eq!(after[d] != before[d], dests.contains(n(d)), "slot {d}");
                }
            }
        }
        // Slots the second send skipped still hold the first's times.
        for d in first {
            assert!(slots.iter().all(|s| s[d.index()] != SENTINEL));
        }
    }
}
