//! Topologies over the ordered-interconnect contention model, with
//! optional per-link fault injection.
//!
//! [`Topology`] is the one network type. It keeps the paper's
//! crossbar link-occupancy and total-order machinery and generalizes
//! it along two axes:
//!
//! - **Shape.** [`TopologySpec::Crossbar`] is the paper's single
//!   switch: every route pays `traversal_ns / 2` on each side of the
//!   ordering point. [`TopologySpec::Mesh2d`] is a 2D mesh of routers
//!   with XY dimension-ordered routing through a root router (all
//!   three protocols require a total order of coherence requests, so
//!   the mesh serializes every message through the root — the
//!   ordering-point discipline switched fabrics like the AlphaServer
//!   GS320's impose). A node at XY-distance `d` from the root pays
//!   `link_ns + hop_ns * d` per half-traversal, so latency grows with
//!   hop count while endpoint serialization and queuing stay exactly
//!   the crossbar's. With `hop_ns = 0` and `2 * link_ns =
//!   traversal_ns` every route's hop latency sums to the crossbar
//!   traversal and the mesh reproduces the crossbar byte-identically.
//!
//! - **Faults.** A [`ToxicSpec`] chain injects deterministic per-link
//!   jitter, derating, congestion bursts, and outages (see
//!   [`crate::toxic`]).
//!
//! The crossbar shape with an empty toxic chain takes the direct path:
//! the crossbar's own send loop, with no per-link bookkeeping beyond
//! two aggregate counters. Every other combination runs the modeled
//! path, which additionally keeps a per-link [`LinkStats`] conservation
//! ledger and clamps arrivals so a link never reorders (FIFO per
//! destination even under jitter).

use serde::{Deserialize, Serialize};

use dsp_types::{MessageClass, NodeId};

use crate::crossbar::{for_each_dest, Crossbar, InterconnectConfig, Message};
use crate::error::InterconnectError;
use crate::stats::{LinkStats, TrafficStats};
use crate::toxic::{ToxicChain, ToxicSpec};

/// Which network shape connects the nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// The paper's single crossbar switch: route-independent
    /// `traversal_ns / 2` on each side of the ordering point.
    #[default]
    Crossbar,
    /// A `cols`-wide 2D mesh (rows = `ceil(n / cols)`), XY routing
    /// through the root router at the grid center.
    Mesh2d {
        /// Grid width; node `i` sits at `(i % cols, i / cols)`.
        cols: u32,
        /// Node↔router injection/ejection channel latency, ns.
        link_ns: u64,
        /// Per-hop router-to-router latency, ns.
        hop_ns: u64,
    },
}

impl TopologySpec {
    /// Validates the shape parameters.
    pub fn validate(&self) -> Result<(), InterconnectError> {
        match *self {
            TopologySpec::Crossbar => Ok(()),
            TopologySpec::Mesh2d { cols, .. } => {
                if cols == 0 {
                    Err(InterconnectError::ZeroMeshColumns)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Short human label for table rows (`crossbar`, `mesh8x8@5ns`).
    pub fn label(&self, num_nodes: usize) -> String {
        match *self {
            TopologySpec::Crossbar => "crossbar".to_string(),
            TopologySpec::Mesh2d { cols, hop_ns, .. } => {
                let rows = num_nodes.div_ceil(cols as usize);
                format!("mesh{cols}x{rows}@{hop_ns}ns")
            }
        }
    }

    /// Per-node half-traversal latencies (distance to/from the ordering
    /// root), or `None` for the route-independent crossbar.
    fn halves(&self, num_nodes: usize) -> Option<Vec<u64>> {
        match *self {
            TopologySpec::Crossbar => None,
            TopologySpec::Mesh2d {
                cols,
                link_ns,
                hop_ns,
            } => {
                let cols = cols as usize;
                let rows = num_nodes.div_ceil(cols);
                let (root_x, root_y) = ((cols - 1) / 2, (rows - 1) / 2);
                Some(
                    (0..num_nodes)
                        .map(|i| {
                            let (x, y) = (i % cols, i / cols);
                            let hops = x.abs_diff(root_x) + y.abs_diff(root_y);
                            link_ns + hop_ns * hops as u64
                        })
                        .collect(),
                )
            }
        }
    }
}

/// State of the modeled (non-fast-path) send: mesh half-latencies
/// and/or an active toxic chain, plus the bookkeeping only this path
/// maintains.
#[derive(Clone, Debug)]
struct Modeled {
    /// Half-traversal latency per node, both directions (uniform
    /// `traversal_ns / 2` when the shape is the crossbar).
    half: Vec<u64>,
    chain: ToxicChain,
    /// Last arrival committed per destination: jittered deliveries are
    /// clamped so each incoming link stays FIFO.
    last_arrival: Vec<u64>,
}

/// A network of `n` nodes: shape + toxic chain over the shared
/// link-occupancy / total-order contention model.
///
/// [`Topology::send_into`] is the one send path, whichever shape and
/// chain are running.
#[derive(Clone, Debug)]
pub struct Topology {
    xbar: Crossbar,
    modeled: Option<Box<Modeled>>,
    links: LinkStats,
}

impl Topology {
    /// Builds `spec` + `toxics` over `num_nodes` nodes, deriving every
    /// toxic stream from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on parameters [`Topology::try_new`] rejects.
    pub fn new(
        config: InterconnectConfig,
        num_nodes: usize,
        spec: &TopologySpec,
        toxics: &ToxicSpec,
        seed: u64,
    ) -> Self {
        Topology::try_new(config, num_nodes, spec, toxics, seed)
            .expect("invalid topology or toxic spec")
    }

    /// Builds `spec` + `toxics` over `num_nodes` nodes, rejecting
    /// invalid parameters with a typed error.
    pub fn try_new(
        config: InterconnectConfig,
        num_nodes: usize,
        spec: &TopologySpec,
        toxics: &ToxicSpec,
        seed: u64,
    ) -> Result<Self, InterconnectError> {
        spec.validate()?;
        toxics.validate()?;
        let xbar = Crossbar::try_new(config, num_nodes)?;
        let mesh_half = spec.halves(num_nodes);
        let modeled = if mesh_half.is_none() && toxics.is_empty() {
            None
        } else {
            let uniform = config.traversal_ns / 2;
            Some(Box::new(Modeled {
                half: mesh_half.unwrap_or_else(|| vec![uniform; num_nodes]),
                chain: ToxicChain::new(toxics, num_nodes, seed),
                last_arrival: vec![0; num_nodes],
            }))
        };
        let links = if modeled.is_some() {
            LinkStats::with_links(num_nodes)
        } else {
            LinkStats::default()
        };
        Ok(Topology {
            xbar,
            modeled,
            links,
        })
    }

    /// Serialization delay of `class`-sized messages on one link, in ns
    /// (rounded up, minimum 1).
    #[inline]
    pub fn serialization_ns(&self, class: MessageClass) -> u64 {
        self.xbar.ser_ns[class.index()]
    }

    /// Switch→node half-traversal latency for `node` — the
    /// destination-side latency a message pays after the ordering
    /// point, before any toxics. `traversal_ns / 2` on the crossbar;
    /// distance-dependent on a mesh.
    pub fn dst_half_ns(&self, node: NodeId) -> u64 {
        match &self.modeled {
            None => self.xbar.config.traversal_ns / 2,
            Some(m) => m.half[node.index()],
        }
    }

    /// Injects `msg` at time `now`: writes each destination `d`'s
    /// arrival time into `arrive[d]`, returns the ordering time, and
    /// updates link occupancy and traffic statistics.
    ///
    /// `arrive` is indexed by node and needs a slot per node. Exactly
    /// the slots of `msg.dests` are written; every other slot keeps its
    /// value, so a caller may reuse one array across sends without
    /// clearing it. The send neither allocates nor copies.
    ///
    /// # Panics
    ///
    /// Panics if `arrive` has fewer slots than nodes, or if a source or
    /// destination is not a node of this network.
    pub fn send_into<const W: usize>(
        &mut self,
        now: u64,
        msg: &Message<W>,
        arrive: &mut [u64],
    ) -> u64 {
        if self.modeled.is_some() {
            return self.send_modeled(now, msg, arrive);
        }
        let (order_time, delivered) = self.xbar.send_into(now, msg, arrive);
        // Fast path keeps only the aggregate side of the conservation
        // ledger — two scalar adds, so pay-for-what-you-use holds.
        self.links.injected += msg.dests.len() as u64;
        self.links.delivered += delivered;
        order_time
    }

    /// The modeled path: same contention structure as the direct path,
    /// with per-node half latencies, the toxic chain applied to each
    /// link, and the per-link conservation ledger. Outgoing link of node
    /// `i` is toxic-link `i`; incoming is `n + i`.
    fn send_modeled<const W: usize>(
        &mut self,
        now: u64,
        msg: &Message<W>,
        arrive: &mut [u64],
    ) -> u64 {
        let m = self.modeled.as_deref_mut().expect("modeled path");
        let x = &mut self.xbar;
        let n = x.src_free_at.len();
        let ser = x.ser_ns[msg.class.index()];
        let s = msg.src.index();
        // Source link: queue, wait out any outage, serialize at the
        // toxic-scaled rate.
        let queued = now.max(x.src_free_at[s]);
        let start = m.chain.release(s, queued);
        let src_ser = m.chain.scaled_ser(s, ser, start);
        x.src_free_at[s] = start + src_ser;
        let src_jitter = m.chain.jitter(s);
        // Ordering point stays monotone regardless of injected delays.
        let order_time = (start + src_ser + m.half[s] + src_jitter).max(x.last_order_time);
        x.last_order_time = order_time;
        let chain = &mut m.chain;
        let (free, half, last) = (
            &mut x.dst_free_at[..n],
            &m.half[..n],
            &mut m.last_arrival[..n],
        );
        let (injected, delivered) = (
            &mut self.links.per_link_injected[..n],
            &mut self.links.per_link_delivered[..n],
        );
        let arrive = &mut arrive[..n];
        let count = for_each_dest(msg.dests, |d| {
            injected[d] += 1;
            let queued = order_time.max(free[d]);
            let d_start = chain.release(n + d, queued);
            let dst_ser = chain.scaled_ser(n + d, ser, d_start);
            free[d] = d_start + dst_ser;
            let dst_jitter = chain.jitter(n + d);
            // FIFO clamp: jitter may stretch but never reorder a link.
            let t = (d_start + dst_ser + half[d] + dst_jitter).max(last[d]);
            last[d] = t;
            arrive[d] = t;
            delivered[d] += 1;
        });
        x.stats.record(msg.class, count);
        self.links.injected += msg.dests.len() as u64;
        self.links.delivered += count;
        order_time
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> TrafficStats {
        self.xbar.stats
    }

    /// The message-conservation ledger.
    pub fn link_stats(&self) -> &LinkStats {
        &self.links
    }

    /// End-of-run invariant: every delivery committed at injection was
    /// recorded at a destination — toxics delay, they never drop.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is unbalanced.
    pub fn assert_conserved(&self) {
        self.links.assert_reconciled();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::tests::{deliver, direct};
    use crate::toxic::Toxic;
    use dsp_types::DestSet;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn msg(src: usize, dests: DestSet<4>, class: MessageClass) -> Message<4> {
        Message {
            src: n(src),
            dests,
            class,
        }
    }

    fn drive(t: &mut Topology) -> String {
        let mut out = String::new();
        for i in 0..200u64 {
            let src = (i % 16) as usize;
            let dests = match i % 3 {
                0 => DestSet::single(n((i as usize * 7) % 16)),
                1 => DestSet::from_iter([n(1), n(4), n(9)]),
                _ => DestSet::broadcast(16).without(n(src)),
            };
            let class = MessageClass::ALL[i as usize % MessageClass::COUNT];
            let (order_time, arrivals) = deliver(t, i * 3, &msg(src, dests, class));
            out.push_str(&format!("{order_time}:{arrivals:?}\n"));
        }
        out
    }

    #[test]
    fn empty_chain_crossbar_takes_the_direct_path_and_conserves() {
        let cfg = InterconnectConfig::isca03();
        let mut topo = Topology::new(cfg, 16, &TopologySpec::Crossbar, &ToxicSpec::none(), 1);
        assert!(topo.modeled.is_none(), "direct path");
        for i in 0..100u64 {
            let m = msg(
                (i % 16) as usize,
                DestSet::broadcast(16),
                MessageClass::Request,
            );
            deliver(&mut topo, i * 2, &m);
        }
        topo.assert_conserved();
        assert_eq!(topo.link_stats().delivered, 100 * 16);
        assert_eq!(topo.stats().request_deliveries(), 100 * 16);
    }

    #[test]
    fn crossbar_chain_with_toxics_still_conserves() {
        let toxics = ToxicSpec::none()
            .with(Toxic::LatencyJitter { max_ns: 40 })
            .with(Toxic::BandwidthDerate { percent: 60 })
            .with(Toxic::CongestionBurst {
                period_ns: 500,
                burst_ns: 80,
                slowdown: 6,
            })
            .with(Toxic::Outage {
                period_ns: 900,
                down_ns: 120,
            });
        let cfg = InterconnectConfig::isca03();
        let mut topo = Topology::new(cfg, 16, &TopologySpec::Crossbar, &toxics, 42);
        assert!(topo.modeled.is_some(), "modeled path");
        let trace = drive(&mut topo);
        topo.assert_conserved();
        assert!(topo.link_stats().injected > 0);
        // Same seed reproduces the stream byte-for-byte.
        let mut again = Topology::new(cfg, 16, &TopologySpec::Crossbar, &toxics, 42);
        assert_eq!(trace, drive(&mut again));
        // A different seed shifts the jittered timings.
        let mut other = Topology::new(cfg, 16, &TopologySpec::Crossbar, &toxics, 43);
        assert_ne!(trace, drive(&mut other));
    }

    #[test]
    fn toxics_only_delay_never_speed_up() {
        let toxics = ToxicSpec::none()
            .with(Toxic::BandwidthDerate { percent: 50 })
            .with(Toxic::Outage {
                period_ns: 700,
                down_ns: 90,
            });
        let cfg = InterconnectConfig::isca03();
        let mut clean = Topology::new(cfg, 16, &TopologySpec::Crossbar, &ToxicSpec::none(), 9);
        let mut toxic = Topology::new(cfg, 16, &TopologySpec::Crossbar, &toxics, 9);
        for i in 0..150u64 {
            let m = msg(
                (i % 16) as usize,
                DestSet::from_iter([n(2), n(11)]),
                MessageClass::DataResponse,
            );
            let a = deliver(&mut clean, i * 5, &m);
            let b = deliver(&mut toxic, i * 5, &m);
            assert!(b.0 >= a.0);
            for (x, y) in a.1.iter().zip(b.1.iter()) {
                assert!(y.1 >= x.1, "toxic arrival earlier than clean");
            }
        }
    }

    #[test]
    fn mesh_latency_grows_with_hop_distance() {
        // 4x4 mesh, root at (1,1) = node 5. Node 5 is 0 hops out;
        // node 15 at (3,3) is 4 hops.
        let spec = TopologySpec::Mesh2d {
            cols: 4,
            link_ns: 10,
            hop_ns: 5,
        };
        let cfg = InterconnectConfig::isca03();
        let topo = Topology::new(cfg, 16, &spec, &ToxicSpec::none(), 0);
        assert!(topo.modeled.is_some(), "modeled path");
        assert_eq!(topo.dst_half_ns(n(5)), 10);
        assert_eq!(topo.dst_half_ns(n(15)), 10 + 5 * 4);
        assert_eq!(topo.dst_half_ns(n(0)), 10 + 5 * 2);
        assert_eq!(spec.label(16), "mesh4x4@5ns");

        let mut near = Topology::new(cfg, 16, &spec, &ToxicSpec::none(), 0);
        let mut far = Topology::new(cfg, 16, &spec, &ToxicSpec::none(), 0);
        let (_, to_near) = deliver(
            &mut near,
            0,
            &msg(5, DestSet::single(n(5)), MessageClass::Request),
        );
        let (_, to_far) = deliver(
            &mut far,
            0,
            &msg(15, DestSet::single(n(15)), MessageClass::Request),
        );
        assert!(
            to_far[0].1 > to_near[0].1,
            "4-hop route must be slower than the root's own"
        );
    }

    #[test]
    fn degenerate_mesh_matches_crossbar_exactly() {
        // hop_ns = 0 and 2 * link_ns = traversal: every route's hop
        // latency sums to the crossbar traversal.
        let cfg = InterconnectConfig::isca03();
        let spec = TopologySpec::Mesh2d {
            cols: 4,
            link_ns: cfg.traversal_ns / 2,
            hop_ns: 0,
        };
        let mut mesh = Topology::new(cfg, 16, &spec, &ToxicSpec::none(), 0);
        let mut xbar = direct(cfg, 16);
        for i in 0..120u64 {
            let m = msg(
                (i % 16) as usize,
                DestSet::broadcast(16).without(n((i % 16) as usize)),
                MessageClass::ALL[i as usize % MessageClass::COUNT],
            );
            assert_eq!(deliver(&mut mesh, i * 4, &m), deliver(&mut xbar, i * 4, &m));
        }
        mesh.assert_conserved();
    }

    #[test]
    fn validation_flows_through() {
        let cfg = InterconnectConfig::isca03();
        assert_eq!(
            Topology::try_new(
                cfg,
                16,
                &TopologySpec::Mesh2d {
                    cols: 0,
                    link_ns: 10,
                    hop_ns: 5
                },
                &ToxicSpec::none(),
                0,
            )
            .err(),
            Some(InterconnectError::ZeroMeshColumns)
        );
        assert!(Topology::try_new(
            cfg,
            16,
            &TopologySpec::Crossbar,
            &ToxicSpec::none().with(Toxic::BandwidthDerate { percent: 0 }),
            0,
        )
        .is_err());
    }
}
