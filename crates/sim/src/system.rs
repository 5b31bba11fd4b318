//! The full-system discrete-event timing simulator.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dsp_cache::SetAssocCache;
use dsp_coherence::{CoherenceTracker, MissInfo};
use dsp_core::{DestSetPredictor, PredictQuery, TrainEvent};
use dsp_interconnect::{Message, Topology};
use dsp_trace::{TraceRecord, WorkloadSpec};
use dsp_types::{DestSet, MessageClass, NodeId, Owner, ReqType, SystemConfig};

use crate::config::{CpuModel, ProtocolKind, SimConfig, TargetSystem};
use crate::queue::{Event, QueueCounters, WheelQueue};
use crate::report::SimReport;

/// In-flight miss bookkeeping.
#[derive(Debug)]
struct Pending<const W: usize> {
    rec: TraceRecord,
    issue_time: u64,
    measured: bool,
    /// Last warmup miss of its node (for measurement-window timing).
    last_warmup: bool,
    attempt: u8,
    retries: u8,
    indirected: bool,
    minimal_sufficient: bool,
    /// Predictive-directory: the owner answered directly, so the home
    /// only issues invalidations (no data/forward).
    home_invals_only: bool,
    info: Option<MissInfo<W>>,
    /// Destination set of the current attempt (excluding the requester).
    current_dests: DestSet<W>,
    /// Arrival times of the current attempt, indexed by node. Only the
    /// slots of `current_dests` are meaningful: the topology writes
    /// exactly those when `send_request` sends, and other slots may
    /// hold an earlier attempt's (or an earlier miss's) times.
    arrivals: Vec<u64>,
    /// Fallback arrival for nodes not in the destination set (e.g. the
    /// requester acting as its own home): order time + half traversal.
    self_arrival: u64,
    /// Outstanding queued events referencing this slot (a training
    /// group counts once, however many nodes it trains); the slot is
    /// recycled only when the count returns to zero *and* the miss has
    /// completed, so late-arriving events (delayed invalidations,
    /// contended training groups) can never observe a reused slot.
    refs: u32,
    /// The miss finished (data arrived at the requester).
    done: bool,
}

/// A complete simulated multiprocessor: trace-driven cores, per-node L2
/// caches and predictors, the global MOSI substrate, and the ordered
/// crossbar, advanced by a discrete-event loop.
///
/// The destination-set word width `W` is a compile-time parameter (64
/// nodes per word): `System<1>` covers machines up to 64 nodes with
/// single-word set operations, `System<4>` covers [`dsp_types::MAX_NODES`].
/// The [`crate::simulate`] entry points pick the width at runtime from
/// [`crate::SetWidth`]; reports are byte-identical across widths.
///
/// # Example
///
/// ```
/// use dsp_sim::{ProtocolKind, SimConfig, System, TargetSystem};
/// use dsp_trace::{Workload, WorkloadSpec};
/// use dsp_types::SystemConfig;
///
/// let sys = SystemConfig::isca03();
/// let spec = WorkloadSpec::preset(Workload::Oltp, &sys).scaled(1.0 / 256.0);
/// let sim = SimConfig::new(ProtocolKind::Snooping).misses(50, 200);
/// let report = dsp_sim::simulate(&sys, TargetSystem::isca03_default(), &spec, sim);
/// assert!(report.measured_misses > 0);
/// assert!(report.runtime_ns > 0);
/// ```
#[derive(Debug)]
pub struct System<const W: usize = 4> {
    sys: SystemConfig,
    target: TargetSystem,
    sim: SimConfig,
    // Per node.
    programs: TracePartition,
    next_miss: Vec<usize>,
    outstanding: Vec<usize>,
    ready_at: Vec<u64>,
    rngs: Vec<SmallRng>,
    caches: Vec<SetAssocCache>,
    predictors: Vec<Box<dyn DestSetPredictor<W>>>,
    /// Whether the predictors observe another node's request for shared
    /// (`[0]`) and for exclusive (`[1]`), fixed at construction from
    /// [`DestSetPredictor::observes_other`]. Initial-request deliveries
    /// of an unobserved type are not scheduled.
    observes_other: [bool; 2],
    warmup_done_at: Vec<Option<u64>>,
    // Global.
    tracker: CoherenceTracker<W>,
    xbar: Topology,
    /// Per-node arrival slots for the sends other than requests
    /// (forwards, invalidations, responses, writebacks), reused across
    /// every such send; requests write into their miss's own slots.
    send_slots: Vec<u64>,
    /// Node sets of the queued training groups, indexed by
    /// [`Event::RequestArrive`]'s `group`. Each is captured when its
    /// request is sent: a retry may overwrite its miss's arrival slots
    /// and `current_dests` before the earlier attempt's groups are
    /// dispatched. Freed entries are reused last-in first-out.
    groups: Vec<DestSet<W>>,
    free_groups: Vec<u32>,
    /// Scratch for [`group_by_arrival`], reused across sends.
    group_scratch: Vec<(u64, DestSet<W>)>,
    queue: WheelQueue,
    pending: Vec<Pending<W>>,
    free_slots: Vec<usize>,
    completed: u64,
    total_misses: u64,
    end_time: u64,
    mean_gap_instructions: f64,
    report: SimReport,
}

impl<const W: usize> System<W> {
    /// Builds a system running `spec` under `sim` on the `target`
    /// machine.
    pub fn new(
        sys: &SystemConfig,
        target: TargetSystem,
        spec: &WorkloadSpec,
        sim: SimConfig,
    ) -> Self {
        let quota = sim.warmup_misses_per_node + sim.measured_misses_per_node;
        let partition = TracePartition::build(spec, sim.seed, sys.num_nodes(), quota);
        System::with_partition(sys, target, spec, sim, partition)
    }

    /// Builds a system over a precomputed [`TracePartition`].
    ///
    /// Partitioning the miss stream costs a sizeable fraction of short
    /// runs (the generator is drawn until every node's program fills),
    /// and the partition depends only on `(spec, seed, nodes, quota)` —
    /// not on the protocol, CPU model, or target machine — so sweep
    /// harnesses that simulate many protocols over one workload build
    /// it once and clone it into every simulation. Behavior is
    /// byte-identical to [`System::new`] with the same parameters.
    ///
    /// # Panics
    ///
    /// Panics if the partition's node count, seed, or per-node quota
    /// disagree with `sys`/`sim` (it would silently change the
    /// simulated programs otherwise).
    pub fn with_partition(
        sys: &SystemConfig,
        target: TargetSystem,
        spec: &WorkloadSpec,
        sim: SimConfig,
        partition: TracePartition,
    ) -> Self {
        let n = sys.num_nodes();
        assert_eq!(partition.nodes(), n, "partition built for another size");
        assert_eq!(partition.seed(), sim.seed, "partition seed mismatch");
        assert_eq!(
            partition.quota(),
            sim.warmup_misses_per_node + sim.measured_misses_per_node,
            "partition quota mismatch"
        );
        let programs = partition;
        let total_misses = programs.per_node().iter().map(|p| p.len() as u64).sum();
        let predictors: Vec<Box<dyn DestSetPredictor<W>>> = match &sim.protocol {
            ProtocolKind::Multicast(cfg) | ProtocolKind::DirectoryPredicted(cfg) => {
                (0..n).map(|_| cfg.build_width::<W>(sys)).collect()
            }
            _ => Vec::new(),
        };
        let observes_other = [ReqType::GetShared, ReqType::GetExclusive]
            .map(|req| predictors.iter().any(|p| p.observes_other(req)));
        System {
            sys: *sys,
            target,
            rngs: (0..n)
                .map(|i| SmallRng::seed_from_u64(sim.seed ^ (0xabcd_0001 + i as u64)))
                .collect(),
            caches: (0..n).map(|_| SetAssocCache::new(target.l2)).collect(),
            predictors,
            observes_other,
            programs,
            next_miss: vec![0; n],
            outstanding: vec![0; n],
            ready_at: vec![0; n],
            warmup_done_at: vec![None; n],
            tracker: CoherenceTracker::new(sys),
            // Toxic streams derive from the run seed through a salt so
            // they stay decoupled from the gap-draw streams: enabling a
            // toxic never shifts any other random sequence.
            xbar: Topology::new(
                target.interconnect,
                n,
                &sim.topology,
                &sim.toxics,
                sim.seed ^ 0x70c5_1c5e_ed00_cafe,
            ),
            send_slots: vec![0; n],
            groups: Vec::new(),
            free_groups: Vec::new(),
            group_scratch: Vec::new(),
            queue: WheelQueue::new(),
            pending: Vec::new(),
            free_slots: Vec::new(),
            completed: 0,
            total_misses,
            end_time: 0,
            mean_gap_instructions: spec.mean_gap_instructions(),
            sim,
            report: SimReport::default(),
        }
    }

    /// Runs to completion and returns the measured report.
    pub fn run(self) -> SimReport {
        self.run_with_queue_stats().0
    }

    /// Runs to completion, also returning the event queue's occupancy
    /// counters (pushes/pops/promotions/remaining) — the queue-pressure
    /// figures the benchmark in `perfbench/` reports as `sim.events` and
    /// `sim.queue_promoted`. The counters always reconcile
    /// (`pushed == popped + remaining`).
    pub fn run_with_queue_stats(mut self) -> (SimReport, QueueCounters) {
        self.run_core();
        let counters = self.queue.counters();
        counters.assert_reconciled();
        (self.report, counters)
    }

    fn run_core(&mut self) {
        let n = self.sys.num_nodes();
        for node in 0..n {
            if self.sim.warmup_misses_per_node == 0 {
                self.warmup_done_at[node] = Some(0);
            }
            let gap = self.draw_gap(node);
            self.ready_at[node] = gap;
            self.queue.push(gap, Event::CpuIssue { node: node as u32 });
        }
        self.run_events();
        let warm_end = self
            .warmup_done_at
            .iter()
            .map(|t| t.unwrap_or(0))
            .max()
            .unwrap_or(0);
        self.report.runtime_ns = self.end_time.saturating_sub(warm_end);
        // Message conservation: every delivery committed at injection
        // was recorded at a destination — toxics delay, never drop.
        self.xbar.assert_conserved();
    }

    /// The event loop: pop one event, dispatch, repeat, until every
    /// miss has completed (or, in a starved run where some node had no
    /// misses at all, until the queue runs dry).
    fn run_events(&mut self) {
        while self.completed < self.total_misses {
            let Some((time, event)) = self.queue.pop() else {
                break;
            };
            self.dispatch(time, event);
        }
    }

    /// Drops one queued-event reference to slot `req`, recycling the
    /// slot once the miss is done and unreferenced.
    #[inline]
    fn release(&mut self, req: usize) {
        let p = &mut self.pending[req];
        p.refs -= 1;
        if p.refs == 0 && p.done {
            self.free_slots.push(req);
        }
    }

    /// Runs one event's handler. Events carry indices as `u32`; the
    /// handlers take them widened back to `usize`.
    fn dispatch(&mut self, time: u64, event: Event) {
        match event {
            Event::CpuIssue { node } => self.try_issue(node as usize, time),
            Event::Inject { req } => {
                let req = req as usize;
                self.inject_request(req, time);
                self.release(req);
            }
            Event::Ordered { req, attempt } => {
                let req = req as usize;
                self.ordered(req, attempt, time);
                self.release(req);
            }
            Event::RequestArrive { req, group, retry } => {
                let req = req as usize;
                let members = self.groups[group as usize];
                self.free_groups.push(group);
                for node in members {
                    self.request_arrive(req, node.index(), retry);
                }
                self.release(req);
            }
            Event::HomeReady { req, attempt } => {
                let req = req as usize;
                self.home_ready(req, attempt, time);
                self.release(req);
            }
            Event::OwnerReady { req, owner } => {
                let req = req as usize;
                self.owner_ready(req, owner as usize, time);
                self.release(req);
            }
            Event::Complete { req } => {
                let req = req as usize;
                self.complete(req, time);
                self.release(req);
            }
        }
    }

    /// Schedules the event `make` builds for pending slot `req`,
    /// pinning the slot until the event has been dispatched. Events
    /// carry the slot as a `u32`, which `alloc_pending` guarantees it
    /// fits.
    fn push_req(&mut self, req: usize, time: u64, make: impl FnOnce(u32) -> Event) {
        self.pending[req].refs += 1;
        self.queue.push(time, make(req as u32));
    }

    // ---- CPU model -----------------------------------------------------

    fn draw_gap(&mut self, node: usize) -> u64 {
        let mean_ns = self.mean_gap_instructions * self.target.ns_per_instruction();
        let u: f64 = self.rngs[node].gen();
        ((-mean_ns * (1.0 - u).ln()).round() as u64).max(1)
    }

    fn try_issue(&mut self, node: usize, now: u64) {
        let window = self.sim.cpu.window();
        while self.outstanding[node] < window && self.next_miss[node] < self.programs[node].len() {
            if self.ready_at[node] > now {
                self.queue
                    .push(self.ready_at[node], Event::CpuIssue { node: node as u32 });
                return;
            }
            let idx = self.next_miss[node];
            self.next_miss[node] += 1;
            self.outstanding[node] += 1;
            let rec = self.programs[node][idx];
            let measured = idx >= self.sim.warmup_misses_per_node;
            let last_warmup =
                self.sim.warmup_misses_per_node > 0 && idx + 1 == self.sim.warmup_misses_per_node;
            if let CpuModel::Detailed { .. } = self.sim.cpu {
                // Program order: the next miss is reachable one
                // computation gap after this one *issues* (independent
                // instructions overlap outstanding misses).
                let gap = self.draw_gap(node);
                if measured {
                    self.report.instructions +=
                        (gap as f64 / self.target.ns_per_instruction()) as u64;
                }
                self.ready_at[node] = now + gap;
            }
            // `arrivals` is sized (or recycled, stale slots and all) by
            // `alloc_pending`; an empty `Vec` does not allocate.
            let slot = self.alloc_pending(Pending {
                rec,
                issue_time: now,
                measured,
                last_warmup,
                attempt: 0,
                retries: 0,
                indirected: false,
                minimal_sufficient: false,
                home_invals_only: false,
                refs: 0,
                done: false,
                info: None,
                current_dests: DestSet::empty(),
                arrivals: Vec::new(),
                self_arrival: 0,
            });
            // The L2 lookup detects the miss, then the request is injected.
            self.push_req(slot, now + self.target.l2_access_ns, |req| Event::Inject {
                req,
            });
        }
    }

    // ---- Request lifecycle ----------------------------------------------

    fn inject_request(&mut self, req: usize, now: u64) {
        let rec = self.pending[req].rec;
        let block = rec.block();
        let requester = rec.requester;
        let home = block.home(self.sys.num_nodes());
        let minimal = DestSet::single(requester).with(home);
        let predicted = match &self.sim.protocol {
            ProtocolKind::Snooping => DestSet::broadcast(self.sys.num_nodes()),
            ProtocolKind::Directory => minimal,
            ProtocolKind::Multicast(_) | ProtocolKind::DirectoryPredicted(_) => {
                let query = PredictQuery {
                    block,
                    pc: rec.pc,
                    requester,
                    req: rec.request(),
                    minimal,
                };
                self.predictors[requester.index()].predict(&query)
            }
        };
        let dests = (predicted | minimal).without(requester);
        self.send_request(req, requester, dests, MessageClass::Request, now, 1);
    }

    /// Sends a request-class message, records arrivals, and schedules
    /// the ordering event plus one training event per distinct arrival
    /// time of the observed destinations.
    ///
    /// A training event trains its group's nodes in ascending order,
    /// which is exactly the order one event per destination would: the
    /// wheel pops by (time, push sequence), and one send's training
    /// pushes are contiguous, so at any one time a send's arrivals
    /// were already adjacent and in ascending node order.
    fn send_request(
        &mut self,
        req: usize,
        src: NodeId,
        dests: DestSet<W>,
        class: MessageClass,
        now: u64,
        attempt: u8,
    ) {
        // The topology writes the slot of exactly each node of `dests`:
        // every slot `arrival_at` may read for this attempt, so no slot
        // needs clearing first.
        let delivered = self.xbar.link_stats().delivered;
        let order_time = self.xbar.send_into(
            now,
            &Message { src, dests, class },
            &mut self.pending[req].arrivals,
        );
        debug_assert_eq!(
            self.xbar.link_stats().delivered - delivered,
            dests.len() as u64
        );
        self.record_traffic(req, class, dests.len() as u64);
        let p = &mut self.pending[req];
        p.attempt = attempt;
        p.current_dests = dests;
        let ser = self.xbar.serialization_ns(class);
        p.self_arrival = order_time + self.xbar.dst_half_ns(src) + ser;
        self.push_req(req, order_time, |req| Event::Ordered { req, attempt });
        // Every destination's predictor trains when the request arrives
        // there. An initial request whose type no predictor observes
        // would train nothing, so its deliveries are not scheduled;
        // retries always are (the requester learns its `Reissue`).
        let retry = class == MessageClass::Retry;
        let req_type = self.pending[req].rec.request();
        let observed = retry || self.observes_other[usize::from(req_type.is_exclusive())];
        if self.sim.protocol.uses_predictors() && observed {
            let mut grouped = std::mem::take(&mut self.group_scratch);
            group_by_arrival(dests, &self.pending[req].arrivals, &mut grouped);
            debug_assert_eq!(
                grouped
                    .iter()
                    .map(|(_, members)| members.len())
                    .sum::<usize>(),
                dests.len()
            );
            for &(t, members) in &grouped {
                let group = self.alloc_group(members);
                self.push_req(req, t, |req| Event::RequestArrive { req, group, retry });
            }
            self.group_scratch = grouped;
        }
    }

    /// Stores a training group's node set, reusing the most recently
    /// freed entry. The returned index is checked to fit the `u32`
    /// that events carry it in.
    fn alloc_group(&mut self, members: DestSet<W>) -> u32 {
        if let Some(group) = self.free_groups.pop() {
            self.groups[group as usize] = members;
            group
        } else {
            let group = u32::try_from(self.groups.len()).expect("training groups fit in u32");
            self.groups.push(members);
            group
        }
    }

    fn arrival_at(&self, req: usize, node: NodeId) -> u64 {
        let p = &self.pending[req];
        if p.current_dests.contains(node) {
            p.arrivals[node.index()]
        } else {
            p.self_arrival
        }
    }

    fn ordered(&mut self, req: usize, attempt: u8, _now: u64) {
        let rec = self.pending[req].rec;
        // Snooping and the directory protocols apply the MOSI
        // transition unconditionally at the ordering point, so they use
        // the tracker's single combined classify+apply probe; multicast
        // must classify first (an insufficient request leaves the state
        // untouched until the reissue succeeds) and pays the second
        // probe only when it applies.
        let info = match self.sim.protocol {
            ProtocolKind::Multicast(_) => {
                self.tracker
                    .classify(rec.requester, rec.request(), rec.block())
            }
            _ => {
                let info = self
                    .tracker
                    .access(rec.requester, rec.request(), rec.block());
                self.mirror_transition(&info);
                info
            }
        };
        if attempt == 1 {
            self.pending[req].minimal_sufficient = info.is_sufficient(info.minimal_set());
        }
        let home = info.home;
        match self.sim.protocol {
            ProtocolKind::Snooping => {
                self.pending[req].info = Some(info);
                self.schedule_response(req, &info, home);
            }
            ProtocolKind::Directory => {
                if info.is_directory_indirection() {
                    self.pending[req].indirected = true;
                }
                self.pending[req].info = Some(info);
                // The home directory resolves the request after its
                // lookup (co-located with memory).
                let t = self.arrival_at(req, home) + self.target.mem_access_ns;
                self.push_req(req, t, |req| Event::HomeReady { req, attempt });
            }
            ProtocolKind::Multicast(_) => {
                // The requester covers itself, and the home node always
                // participates (initial multicasts include it by
                // construction; reissues originate from it).
                let covered = self.pending[req]
                    .current_dests
                    .with(rec.requester)
                    .with(home);
                if info.is_sufficient(covered) {
                    self.apply_transition(&info);
                    self.pending[req].info = Some(info);
                    self.schedule_response(req, &info, home);
                } else {
                    // Insufficient: the home will reissue after its
                    // directory lookup. No state change now.
                    self.pending[req].indirected = true;
                    self.pending[req].retries += 1;
                    let t = self.arrival_at(req, home) + self.target.mem_access_ns;
                    self.push_req(req, t, |req| Event::HomeReady { req, attempt });
                }
            }
            ProtocolKind::DirectoryPredicted(_) => {
                self.pending[req].info = Some(info);
                match info.owner_before {
                    Owner::Node(owner) if self.pending[req].current_dests.contains(owner) => {
                        // Prediction hit: the owner replies directly
                        // (2-hop); the home handles invalidations only.
                        self.pending[req].home_invals_only = true;
                        let t = self.arrival_at(req, owner) + self.target.l2_access_ns;
                        self.push_req(req, t, |req| Event::OwnerReady {
                            req,
                            owner: owner.index() as u32,
                        });
                        let invals = info.required_observers().without(owner);
                        if rec.request().is_exclusive() && !invals.is_empty() {
                            let th = self.arrival_at(req, home) + self.target.mem_access_ns;
                            self.push_req(req, th, |req| Event::HomeReady { req, attempt });
                        }
                    }
                    _ => {
                        // Prediction miss (or memory-owned): classic
                        // directory resolution through the home.
                        if info.is_cache_to_cache() {
                            self.pending[req].indirected = true;
                        }
                        let t = self.arrival_at(req, home) + self.target.mem_access_ns;
                        self.push_req(req, t, |req| Event::HomeReady { req, attempt });
                    }
                }
            }
        }
    }

    /// For snooping-style (direct) resolution: the owner cache or the
    /// home memory supplies the data.
    fn schedule_response(&mut self, req: usize, info: &MissInfo<W>, home: NodeId) {
        match info.owner_before {
            Owner::Node(owner) => {
                let t = self.arrival_at(req, owner) + self.target.l2_access_ns;
                self.push_req(req, t, |req| Event::OwnerReady {
                    req,
                    owner: owner.index() as u32,
                });
            }
            Owner::Memory => {
                let t = self.arrival_at(req, home) + self.target.mem_access_ns;
                let attempt = self.pending[req].attempt;
                self.push_req(req, t, |req| Event::HomeReady { req, attempt });
            }
        }
    }

    /// The home node is ready: respond with data/ack, forward, or
    /// reissue, depending on protocol and request state.
    fn home_ready(&mut self, req: usize, attempt: u8, now: u64) {
        let rec = self.pending[req].rec;
        let home = rec.block().home(self.sys.num_nodes());
        match self.sim.protocol {
            ProtocolKind::Snooping => {
                // Memory-owned block: home responds directly.
                self.send_response(req, home, now);
            }
            ProtocolKind::Directory | ProtocolKind::DirectoryPredicted(_) => {
                let info = self.pending[req].info.expect("resolved at ordering");
                if self.pending[req].home_invals_only {
                    // Predictive directory, owner already answering:
                    // the home only fans out the invalidations.
                    let invals = info.required_observers().without(rec.requester) - {
                        match info.owner_before {
                            Owner::Node(o) => DestSet::single(o),
                            Owner::Memory => DestSet::empty(),
                        }
                    };
                    if !invals.is_empty() {
                        self.xbar.send_into(
                            now,
                            &Message {
                                src: home,
                                dests: invals,
                                class: MessageClass::Forward,
                            },
                            &mut self.send_slots,
                        );
                        self.record_traffic(req, MessageClass::Forward, invals.len() as u64);
                    }
                    return;
                }
                match info.owner_before {
                    Owner::Memory => {
                        // Invalidate sharers (no acks needed on the
                        // totally ordered network), then respond.
                        let invals = info.sharers_before.without(rec.requester);
                        if rec.request().is_exclusive() && !invals.is_empty() {
                            self.xbar.send_into(
                                now,
                                &Message {
                                    src: home,
                                    dests: invals,
                                    class: MessageClass::Forward,
                                },
                                &mut self.send_slots,
                            );
                            self.record_traffic(req, MessageClass::Forward, invals.len() as u64);
                        }
                        self.send_response(req, home, now);
                    }
                    Owner::Node(owner) => {
                        // 3-hop: forward to the owner (and invalidations
                        // to sharers for writes).
                        let mut fwd = DestSet::single(owner);
                        if rec.request().is_exclusive() {
                            fwd |= info.sharers_before.without(rec.requester);
                        }
                        self.xbar.send_into(
                            now,
                            &Message {
                                src: home,
                                dests: fwd,
                                class: MessageClass::Forward,
                            },
                            &mut self.send_slots,
                        );
                        self.record_traffic(req, MessageClass::Forward, fwd.len() as u64);
                        self.push_req(
                            req,
                            self.send_slots[owner.index()] + self.target.l2_access_ns,
                            |req| Event::OwnerReady {
                                req,
                                owner: owner.index() as u32,
                            },
                        );
                    }
                }
            }
            ProtocolKind::Multicast(_) => {
                let applied = self.pending[req].info.is_some();
                if applied {
                    // Sufficient request on a memory-owned block.
                    self.send_response(req, home, now);
                } else {
                    // Reissue with the corrected destination set
                    // reflecting the *current* owner and sharers. The
                    // window of vulnerability between this injection and
                    // its ordering can still race; the third attempt
                    // broadcasts, which always succeeds.
                    let next_attempt = attempt.saturating_add(1).min(3);
                    let fresh = self
                        .tracker
                        .classify(rec.requester, rec.request(), rec.block());
                    let dests = if next_attempt >= 3 {
                        DestSet::broadcast(self.sys.num_nodes()).without(home)
                    } else {
                        fresh.sufficient_set().with(rec.requester).without(home)
                    };
                    if next_attempt >= 3 {
                        self.report_broadcast_fallback(req);
                    }
                    self.send_request(req, home, dests, MessageClass::Retry, now, next_attempt);
                }
            }
        }
    }

    fn report_broadcast_fallback(&mut self, req: usize) {
        if self.pending[req].measured {
            self.report.broadcast_fallbacks += 1;
        }
    }

    /// The owning cache injects the data response.
    fn owner_ready(&mut self, req: usize, owner: usize, now: u64) {
        self.send_response(req, NodeId::new(owner), now);
    }

    /// Sends the data (or upgrade-ack) response from `responder` to the
    /// requester and schedules completion.
    fn send_response(&mut self, req: usize, responder: NodeId, now: u64) {
        let p = &self.pending[req];
        let requester = p.rec.requester;
        let was_upgrade = p.info.map(|i| i.was_upgrade).unwrap_or(false);
        let class = if was_upgrade {
            MessageClass::Control
        } else {
            MessageClass::DataResponse
        };
        if responder == requester {
            // Home == requester: purely local response.
            let t = now + self.xbar.serialization_ns(class);
            self.push_req(req, t, |req| Event::Complete { req });
            return;
        }
        self.xbar.send_into(
            now,
            &Message::<W> {
                src: responder,
                dests: DestSet::single(requester),
                class,
            },
            &mut self.send_slots,
        );
        self.record_traffic(req, class, 1);
        let arrive = self.send_slots[requester.index()];
        self.push_req(req, arrive, |req| Event::Complete { req });
    }

    /// Predictor training on request arrival: a retry teaches the
    /// requester its corrected set (`Reissue`); every other arrival is
    /// another node's request (`OtherRequest`).
    fn request_arrive(&mut self, req: usize, node: usize, retry: bool) {
        let p = &self.pending[req];
        let rec = p.rec;
        let event = if retry && node == rec.requester.index() {
            let home = rec.block().home(self.sys.num_nodes());
            TrainEvent::Reissue {
                block: rec.block(),
                corrected: p.current_dests.with(home),
            }
        } else {
            TrainEvent::OtherRequest {
                block: rec.block(),
                requester: rec.requester,
                req: rec.request(),
            }
        };
        self.predictors[node].train(&event);
    }

    fn complete(&mut self, req: usize, now: u64) {
        let p = &self.pending[req];
        let rec = p.rec;
        let node = rec.requester.index();
        let info = p.info.expect("completed requests were resolved");
        let measured = p.measured;
        let last_warmup = p.last_warmup;
        let issue_time = p.issue_time;
        let indirected = p.indirected;
        let retries = p.retries;
        let minimal_sufficient = p.minimal_sufficient;
        // Train the requester's predictor with the responder identity.
        if self.sim.protocol.uses_predictors() {
            self.predictors[node].train(&TrainEvent::DataResponse {
                block: rec.block(),
                pc: rec.pc,
                responder: info.owner_before,
                req: rec.request(),
                minimal_sufficient,
            });
        }
        // Fill the L2 unless a racing GETX already invalidated us.
        if self
            .tracker
            .state(rec.block())
            .holders()
            .contains(rec.requester)
        {
            if let Some(victim) = self.caches[node].fill(rec.block()) {
                if self.tracker.evict(rec.requester, victim) == dsp_coherence::Eviction::Writeback {
                    let victim_home = victim.home(self.sys.num_nodes());
                    if victim_home != rec.requester {
                        self.xbar.send_into(
                            now,
                            &Message::<W> {
                                src: rec.requester,
                                dests: DestSet::single(victim_home),
                                class: MessageClass::Writeback,
                            },
                            &mut self.send_slots,
                        );
                        self.record_traffic(req, MessageClass::Writeback, 1);
                    }
                }
            }
        }
        // Measurement.
        if measured {
            self.report.measured_misses += 1;
            self.report.total_miss_latency_ns += now - issue_time;
            self.report.indirections += u64::from(indirected);
            self.report.retries += retries as u64;
            self.report.cache_to_cache += u64::from(info.is_cache_to_cache());
            self.report.latency_histogram.record(now - issue_time);
            let class = match (info.is_cache_to_cache(), indirected) {
                (true, false) => dsp_coherence::LatencyClass::CacheDirect,
                (true, true) => dsp_coherence::LatencyClass::CacheIndirect,
                (false, false) => dsp_coherence::LatencyClass::Memory,
                (false, true) => dsp_coherence::LatencyClass::MemoryIndirect,
            };
            self.report.class_counts.record(class);
        }
        if last_warmup {
            self.warmup_done_at[node] = Some(now);
        }
        self.end_time = self.end_time.max(now);
        self.completed += 1;
        self.outstanding[node] -= 1;
        self.pending[req].done = true;
        // Wake the CPU.
        match self.sim.cpu {
            CpuModel::Simple => {
                let gap = self.draw_gap(node);
                if measured {
                    self.report.instructions +=
                        (gap as f64 / self.target.ns_per_instruction()) as u64;
                }
                self.ready_at[node] = now + gap;
                self.queue
                    .push(now + gap, Event::CpuIssue { node: node as u32 });
            }
            CpuModel::Detailed { .. } => self.try_issue(node, now),
        }
    }

    // ---- Plumbing -------------------------------------------------------

    /// Applies the MOSI transition to the global tracker and mirrors it
    /// into the per-node caches.
    fn apply_transition(&mut self, info: &MissInfo<W>) {
        let _ = self.tracker.access(info.requester, info.req, info.block);
        self.mirror_transition(info);
    }

    /// Mirrors an already-applied MOSI transition into the per-node
    /// caches: a GETX invalidates every other copy. (A GETS changes no
    /// node's presence; the owner's M→O demotion is tracker state.)
    fn mirror_transition(&mut self, info: &MissInfo<W>) {
        if info.req == ReqType::GetExclusive {
            if let Owner::Node(owner) = info.owner_before {
                self.caches[owner.index()].invalidate(info.block);
            }
            for sharer in info.sharers_before {
                self.caches[sharer.index()].invalidate(info.block);
            }
        }
    }

    fn record_traffic(&mut self, req: usize, class: MessageClass, deliveries: u64) {
        if self.pending[req].measured {
            self.report.traffic.record(class, deliveries);
        }
    }

    /// Installs `p` in a pending slot, recycling a completed slot's
    /// arrival buffer when one is free so the steady-state miss path
    /// performs no heap allocation. The recycled buffer may hold stale
    /// entries: `arrival_at` reads only the slots of the current
    /// attempt's destination set, which `send_request` writes before
    /// any event that reads them is scheduled. New slot indices are
    /// checked to fit the `u32` that events carry them in.
    fn alloc_pending(&mut self, mut p: Pending<W>) -> usize {
        let n = self.sys.num_nodes();
        if let Some(slot) = self.free_slots.pop() {
            p.arrivals = std::mem::take(&mut self.pending[slot].arrivals);
            self.pending[slot] = p;
            slot
        } else {
            let slot = u32::try_from(self.pending.len()).expect("pending slots fit in u32");
            p.arrivals = vec![0; n];
            self.pending.push(p);
            slot as usize
        }
    }

    /// Replaces each node's predictor with `wrap(node, predictor)`
    /// before the run.
    ///
    /// Instrumentation hook for profilers and tests: a wrapper that
    /// times or records every `predict`/`train` call (and delegates)
    /// exposes the exact per-node observation sequence. The wrapper
    /// must preserve the inner predictor's behavior.
    ///
    /// The training filter is fixed at construction from the original
    /// predictors' [`DestSetPredictor::observes_other`] answers, so a
    /// wrapper sees only the deliveries those predictors observe, not
    /// every initial-request arrival, whatever its own answer.
    pub fn instrument_predictors(
        &mut self,
        mut wrap: impl FnMut(usize, Box<dyn DestSetPredictor<W>>) -> Box<dyn DestSetPredictor<W>>,
    ) {
        let predictors = std::mem::take(&mut self.predictors);
        self.predictors = predictors
            .into_iter()
            .enumerate()
            .map(|(node, p)| wrap(node, p))
            .collect();
    }
}

/// Runs one simulation, selecting the [`DestSet`] word width at
/// runtime from `sim.width` (see [`crate::SetWidth`]): machines of at
/// most 64 nodes dispatch to the monomorphized `System<1>` (single-word
/// set operations throughout the tracker, crossbar, and predictors),
/// larger machines to `System<4>`. Reports are byte-identical across
/// widths — the width-equivalence property tests pin this.
pub fn simulate(
    sys: &SystemConfig,
    target: TargetSystem,
    spec: &WorkloadSpec,
    sim: SimConfig,
) -> SimReport {
    match sim.width.words(sys.num_nodes()) {
        1 => System::<1>::new(sys, target, spec, sim).run(),
        _ => System::<4>::new(sys, target, spec, sim).run(),
    }
}

/// [`simulate`] over a precomputed [`TracePartition`] (see
/// [`System::with_partition`]).
pub fn simulate_with_partition(
    sys: &SystemConfig,
    target: TargetSystem,
    spec: &WorkloadSpec,
    sim: SimConfig,
    partition: TracePartition,
) -> SimReport {
    match sim.width.words(sys.num_nodes()) {
        1 => System::<1>::with_partition(sys, target, spec, sim, partition).run(),
        _ => System::<4>::with_partition(sys, target, spec, sim, partition).run(),
    }
}

/// Partitions `dests` by arrival time into `out` (cleared first): one
/// `(time, members)` entry per distinct `arrivals[node]` among them, in
/// the order each time first occurs in ascending node order. Each
/// group's ascending node order is therefore the subsequence of
/// `dests` that arrives at its time.
///
/// The search runs from the newest group: on the crossbar most
/// destinations share one arrival time, so it usually stops at once.
fn group_by_arrival<const W: usize>(
    dests: DestSet<W>,
    arrivals: &[u64],
    out: &mut Vec<(u64, DestSet<W>)>,
) {
    out.clear();
    for node in dests {
        let t = arrivals[node.index()];
        match out.iter_mut().rev().find(|(time, _)| *time == t) {
            Some((_, members)) => {
                members.insert(node);
            }
            None => out.push((t, DestSet::single(node))),
        }
    }
}

/// A precomputed per-node partition of one workload's miss stream: the
/// programs [`System`] replays, shareable across simulations.
///
/// The partition depends only on the workload spec, the seed, the node
/// count, and the per-node miss quota — every protocol, CPU model, and
/// target machine simulated over the same trace replays the *same*
/// programs. Cloning is cheap (the programs live behind an `Arc`), so
/// sweep harnesses build each distinct partition once and hand clones
/// to [`System::with_partition`].
#[derive(Clone, Debug)]
pub struct TracePartition {
    programs: Arc<Vec<Vec<TraceRecord>>>,
    seed: u64,
    quota: usize,
}

impl TracePartition {
    /// Partitions `spec`'s miss stream (seeded with `seed`) into `n`
    /// per-node programs of `quota` misses each.
    pub fn build(spec: &WorkloadSpec, seed: u64, n: usize, quota: usize) -> Self {
        TracePartition {
            programs: Arc::new(partition_trace(spec, seed, n, quota)),
            seed,
            quota,
        }
    }

    /// Number of per-node programs (= the node count it was built for).
    pub fn nodes(&self) -> usize {
        self.programs.len()
    }

    /// The generator seed the partition was drawn with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-node miss quota (warmup + measured).
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// The per-node programs.
    pub fn per_node(&self) -> &[Vec<TraceRecord>] {
        &self.programs
    }
}

impl std::ops::Index<usize> for TracePartition {
    type Output = [TraceRecord];

    fn index(&self, node: usize) -> &[TraceRecord] {
        &self.programs[node]
    }
}

/// Splits a generated global miss stream into per-node programs of
/// `quota` misses each. If the generator starves a node (it emitted too
/// few misses for it), that node's program is padded by cycling its own
/// earlier misses, preserving its access mix.
fn partition_trace(
    spec: &WorkloadSpec,
    seed: u64,
    n: usize,
    quota: usize,
) -> Vec<Vec<TraceRecord>> {
    let mut programs: Vec<Vec<TraceRecord>> = vec![Vec::with_capacity(quota); n];
    if quota == 0 {
        return programs;
    }
    let limit = (quota * n).saturating_mul(64);
    let mut drawn = 0usize;
    for rec in spec.generator(seed) {
        drawn += 1;
        if drawn > limit {
            break;
        }
        let slot = &mut programs[rec.requester.index()];
        if slot.len() < quota {
            slot.push(rec);
            if programs.iter().all(|p| p.len() >= quota) {
                break;
            }
        }
    }
    for program in &mut programs {
        if program.is_empty() {
            continue; // node genuinely inactive in this workload
        }
        let mut i = 0usize;
        while program.len() < quota {
            let rec = program[i % program.len()];
            program.push(rec);
            i += 1;
        }
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_core::PredictorConfig;
    use dsp_trace::Workload;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::preset(Workload::Oltp, &SystemConfig::isca03()).scaled(1.0 / 256.0)
    }

    fn run(protocol: ProtocolKind) -> SimReport {
        let sys = SystemConfig::isca03();
        let sim = SimConfig::new(protocol).misses(100, 400).seed(11);
        System::<4>::new(&sys, TargetSystem::isca03_default(), &spec(), sim).run()
    }

    #[test]
    fn snooping_completes_all_misses() {
        let r = run(ProtocolKind::Snooping);
        assert_eq!(r.measured_misses, 400 * 16);
        assert!(r.runtime_ns > 0);
        assert_eq!(r.indirections, 0, "snooping never indirects");
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn directory_completes_with_indirections() {
        let r = run(ProtocolKind::Directory);
        assert_eq!(r.measured_misses, 400 * 16);
        assert!(r.indirections > 0, "OLTP has sharing misses");
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn multicast_minimal_behaves_like_directory_bandwidth() {
        let r = run(ProtocolKind::Multicast(PredictorConfig::always_minimal()));
        assert_eq!(r.measured_misses, 400 * 16);
        assert!(
            r.retries > 0,
            "minimal prediction must retry on sharing misses"
        );
    }

    #[test]
    fn multicast_broadcast_never_retries() {
        let r = run(ProtocolKind::Multicast(PredictorConfig::always_broadcast()));
        assert_eq!(r.retries, 0);
        assert_eq!(r.indirections, 0);
    }

    #[test]
    fn snooping_is_fastest_directory_cheapest() {
        let snoop = run(ProtocolKind::Snooping);
        let dir = run(ProtocolKind::Directory);
        assert!(
            snoop.runtime_ns < dir.runtime_ns,
            "snooping {} should beat directory {}",
            snoop.runtime_ns,
            dir.runtime_ns
        );
        assert!(
            dir.traffic.total_bytes() < snoop.traffic.total_bytes(),
            "directory traffic should be lower"
        );
    }

    #[test]
    fn group_predictor_lands_between_endpoints() {
        let snoop = run(ProtocolKind::Snooping);
        let dir = run(ProtocolKind::Directory);
        let group = run(ProtocolKind::Multicast(
            PredictorConfig::group().indexing(dsp_core::Indexing::Macroblock { bytes: 1024 }),
        ));
        assert!(group.traffic.total_bytes() < snoop.traffic.total_bytes());
        assert!(group.runtime_ns < dir.runtime_ns);
    }

    #[test]
    fn detailed_cpu_is_no_slower_than_simple() {
        let sys = SystemConfig::isca03();
        let mk = |cpu| {
            let sim = SimConfig::new(ProtocolKind::Snooping)
                .cpu(cpu)
                .misses(50, 300)
                .seed(3);
            System::<4>::new(&sys, TargetSystem::isca03_default(), &spec(), sim).run()
        };
        let simple = mk(CpuModel::Simple);
        let detailed = mk(CpuModel::Detailed { max_outstanding: 4 });
        assert!(
            detailed.runtime_ns <= simple.runtime_ns,
            "overlapping misses should not hurt: {} vs {}",
            detailed.runtime_ns,
            simple.runtime_ns
        );
    }

    #[test]
    fn zero_warmup_measures_everything() {
        let sys = SystemConfig::isca03();
        let sim = SimConfig::new(ProtocolKind::Snooping)
            .misses(0, 100)
            .seed(5);
        let r = System::<4>::new(&sys, TargetSystem::isca03_default(), &spec(), sim).run();
        assert_eq!(r.measured_misses, 100 * 16);
    }

    #[test]
    fn random_predictions_never_wedge_the_protocol() {
        // Liveness under chaos: arbitrary destination sets must always
        // complete via reissue and the broadcast fallback.
        let r = run(ProtocolKind::Multicast(PredictorConfig::random(0xbad_5eed)));
        assert_eq!(r.measured_misses, 400 * 16);
        assert!(r.retries > 0, "random predictions must cause reissues");
    }

    #[test]
    fn predictive_directory_reduces_indirections() {
        let dir = run(ProtocolKind::Directory);
        let pred = run(ProtocolKind::DirectoryPredicted(
            PredictorConfig::owner().indexing(dsp_core::Indexing::Macroblock { bytes: 1024 }),
        ));
        assert_eq!(pred.measured_misses, dir.measured_misses);
        assert!(
            pred.indirections < dir.indirections,
            "owner prediction should convert 3-hop to 2-hop: {} vs {}",
            pred.indirections,
            dir.indirections
        );
        assert!(
            pred.avg_miss_latency_ns() < dir.avg_miss_latency_ns(),
            "2-hop transfers should shorten latency: {} vs {}",
            pred.avg_miss_latency_ns(),
            dir.avg_miss_latency_ns()
        );
        assert_eq!(pred.retries, 0, "predictive directory never retries");
    }

    #[test]
    fn predictive_directory_traffic_between_endpoints() {
        let snoop = run(ProtocolKind::Snooping);
        let pred = run(ProtocolKind::DirectoryPredicted(
            PredictorConfig::owner().indexing(dsp_core::Indexing::Macroblock { bytes: 1024 }),
        ));
        assert!(pred.traffic.total_bytes() < snoop.traffic.total_bytes());
    }

    #[test]
    fn partition_pads_starved_nodes() {
        let spec = spec();
        let programs = partition_trace(&spec, 7, 16, 50);
        for p in &programs {
            assert_eq!(p.len(), 50);
        }
    }

    #[test]
    fn shared_partition_is_byte_identical_to_fresh() {
        let sys = SystemConfig::isca03();
        let spec = spec();
        let sim = |p| SimConfig::new(p).misses(50, 200).seed(11);
        let partition = TracePartition::build(&spec, 11, sys.num_nodes(), 250);
        for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
            let fresh =
                System::<4>::new(&sys, TargetSystem::isca03_default(), &spec, sim(protocol)).run();
            let shared = System::<4>::with_partition(
                &sys,
                TargetSystem::isca03_default(),
                &spec,
                sim(protocol),
                partition.clone(),
            )
            .run();
            assert_eq!(fresh, shared, "{protocol:?} diverged on a shared partition");
        }
    }

    #[test]
    #[should_panic(expected = "partition seed mismatch")]
    fn partition_seed_mismatch_is_rejected() {
        let sys = SystemConfig::isca03();
        let spec = spec();
        let partition = TracePartition::build(&spec, 12, sys.num_nodes(), 250);
        let sim = SimConfig::new(ProtocolKind::Snooping)
            .misses(50, 200)
            .seed(11);
        let _ = System::<4>::with_partition(
            &sys,
            TargetSystem::isca03_default(),
            &spec,
            sim,
            partition,
        );
    }

    /// Checks `group_by_arrival`'s contract on one input: the groups
    /// partition `dests`, each member arrives at its group's time, the
    /// times are distinct, and each group's ascending node order is the
    /// subsequence of `dests` arriving at its time (which makes one
    /// event per group train in the order one event per destination
    /// did).
    fn check_grouping<const W: usize>(dests: DestSet<W>, arrivals: &[u64]) {
        // A stale entry from an earlier send, which must not survive.
        let mut groups = vec![(7, DestSet::single(NodeId::new(0)))];
        group_by_arrival(dests, arrivals, &mut groups);
        let mut union = DestSet::<W>::empty();
        let mut total = 0;
        for (i, &(t, members)) in groups.iter().enumerate() {
            assert!(!members.is_empty(), "group {i} is empty");
            assert!((union & members).is_empty(), "group {i} overlaps another");
            union |= members;
            total += members.len();
            assert!(
                groups[..i].iter().all(|&(earlier, _)| earlier != t),
                "time {t} has two groups"
            );
            let expected: Vec<NodeId> = dests
                .iter()
                .filter(|node| arrivals[node.index()] == t)
                .collect();
            assert_eq!(members.iter().collect::<Vec<_>>(), expected, "time {t}");
        }
        assert_eq!(union, dests);
        assert_eq!(total, dests.len());
    }

    /// A destination set over `nodes` nodes and per-node arrival times
    /// drawn from four values, so ties are common. `density` picks a
    /// broadcast, a random set, or a sparse one.
    fn grouping_input<const W: usize>(
        nodes: usize,
        density: u8,
        words: &[u64],
        sparse: &[u64],
        offsets: &[u64],
    ) -> (DestSet<W>, Vec<u64>) {
        let mut set = [0u64; W];
        for (w, word) in set.iter_mut().enumerate() {
            *word = match density {
                0 => u64::MAX,
                1 => words[w],
                _ => words[w] & sparse[w],
            };
        }
        let dests = DestSet::from_words(set) & DestSet::broadcast(nodes);
        let arrivals = offsets[..nodes].iter().map(|o| 1_000 + o).collect();
        (dests, arrivals)
    }

    mod grouping {
        use super::*;
        use proptest::prelude::*;

        fn words() -> impl Strategy<Value = Vec<u64>> {
            proptest::collection::vec(any::<u64>(), 4)
        }

        fn offsets() -> impl Strategy<Value = Vec<u64>> {
            proptest::collection::vec(0u64..4, 256)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn groups_partition_16_nodes(
                density in 0u8..3, set in words(), mask in words(), offsets in offsets()
            ) {
                let (dests, arrivals) = grouping_input::<1>(16, density, &set, &mask, &offsets);
                check_grouping(dests, &arrivals);
            }

            #[test]
            fn groups_partition_64_nodes(
                density in 0u8..3, set in words(), mask in words(), offsets in offsets()
            ) {
                let (dests, arrivals) = grouping_input::<1>(64, density, &set, &mask, &offsets);
                check_grouping(dests, &arrivals);
            }

            #[test]
            fn groups_partition_256_nodes(
                density in 0u8..3, set in words(), mask in words(), offsets in offsets()
            ) {
                let (dests, arrivals) = grouping_input::<4>(256, density, &set, &mask, &offsets);
                check_grouping(dests, &arrivals);
            }
        }
    }

    #[test]
    fn average_latency_in_physical_range() {
        let r = run(ProtocolKind::Snooping);
        let avg = r.avg_miss_latency_ns();
        // Between the direct c2c (112) and well under 10x memory (1800):
        // queueing can add, but the system is generously provisioned.
        assert!((112.0..1000.0).contains(&avg), "avg latency {avg}");
    }
}
