//! The fleet coordinator: a long-running service that owns an
//! `ExperimentPlan`, leases its cells to workers, and folds every
//! result back into one byte-identical table.
//!
//! # Threading model
//!
//! Plain `std::net` — a non-blocking accept loop on one service thread
//! (the listener binds 127.0.0.1 only; remote workers come in through a
//! tunnel), one thread per connection, shared state behind a single
//! mutex. The service thread doubles as the maintenance clock: every
//! poll tick it expires leases that heard no heartbeat or cell report
//! within the timeout, requeueing their unreported cells, and checks
//! for completion. Connection threads read with a short timeout so
//! everybody notices shutdown within a tick.
//!
//! Shutting down a finished coordinator first drains its workers: it
//! keeps accepting and serving until every connection it has accepted
//! has been answered `Shutdown` or has hung up, for at most one lease
//! timeout. A connection counts from `accept`, not from `Auth`, and the
//! service thread decides to stop right after an accept pass, so a
//! worker still in the listener's backlog or between `Hello` and `Auth`
//! finishes its handshake and is dismissed at its first `Lease`. A
//! worker between requests would otherwise find the listener gone and
//! spend its reconnect budget on a coordinator that is not coming back.
//!
//! # Result flow
//!
//! Every accepted cell completion is one append to the write-ahead log:
//! a [`WalEvent::CellDone`] carrying the cell's output. The WAL is the
//! coordinator's only durable state, and workers keep no files at all.
//! When the last cell lands, the coordinator reads those outputs back
//! and folds them into the table: a cell missing from the WAL, or one
//! logged twice with different outputs, fails the run loudly.

use std::collections::HashMap;
use std::error::Error;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsp_analysis::TextTable;
use dsp_bench::engine::{CellId, CellOutput, ExperimentPlan};

use crate::auth::{fresh_nonce, mac64};
use crate::lease::{CellReport, GrantOutcome, LeaseLedger, LeaseSizer};
use crate::protocol::{
    self, MessageReader, PlanIdentity, ProtocolError, Reply, Request, PROTOCOL_VERSION,
};
use crate::stats::{CellProgress, FleetCounters, ResultsPage, StatusReport};
use crate::wal::{create_wal, read_wal, JsonlWriter, WalEvent};

/// Coordinator tuning.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Experiment name workers use to rebuild the plan.
    pub experiment: String,
    /// Scale preset name workers feed to `Scale::parse`.
    pub scale_name: String,
    /// Fleet directory: the WAL and the coordinator log.
    pub dir: PathBuf,
    /// Maximum cells per lease (the adaptive sizer's clamp).
    pub lease_cells: usize,
    /// Wall-clock budget one lease should represent; the adaptive sizer
    /// divides this by the observed per-cell EWMA.
    pub target_lease_ms: u64,
    /// Liveness timeout: a lease with no heartbeat or cell report for
    /// this long is expired and its cells re-leased. Workers learn it
    /// in the `Welcome` and heartbeat every third of it.
    pub timeout_ms: u64,
    /// Maintenance cadence (expiry, accept polling).
    pub poll_ms: u64,
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port.
    pub port: u16,
    /// Shared fleet token; clients must answer the handshake challenge
    /// with `mac64(token, nonce)`. Empty string = open fleet (the
    /// handshake still runs, the secret is just trivial).
    pub token: String,
}

impl FleetConfig {
    /// Defaults sized for a local fleet at quick scale.
    pub fn new(experiment: &str, scale_name: &str, dir: impl Into<PathBuf>) -> Self {
        FleetConfig {
            experiment: experiment.to_string(),
            scale_name: scale_name.to_string(),
            dir: dir.into(),
            lease_cells: 4,
            target_lease_ms: 1_500,
            timeout_ms: 5_000,
            poll_ms: 50,
            port: 0,
            token: String::new(),
        }
    }
}

/// What a finished fleet produced.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// The merged table as CSV — the bytes compared against a serial
    /// run.
    pub csv: String,
    /// The merged table, rendered for humans.
    pub rendered: String,
    /// Final churn counters.
    pub counters: FleetCounters,
    /// Whether the lease ledger reconciled (every cell completed
    /// exactly once, every grant accounted for).
    pub reconciled: bool,
    /// Cells in the plan.
    pub cells: usize,
    /// Wall-clock seconds from coordinator start to the final merge.
    pub wall_s: f64,
    /// `(min, max, final)` lease sizes the adaptive sizer granted.
    pub lease_sizes: (usize, usize, usize),
}

/// One authenticated worker session: survives TCP connections, so a
/// reconnecting worker can prove continuity and keep its leases.
struct Session {
    worker: String,
    /// Leases granted under this session (dead ids are skipped on use).
    leases: Vec<u64>,
}

/// Mutable coordinator state, behind one mutex.
struct State {
    ledger: LeaseLedger,
    /// Write-ahead log of ledger transitions and accepted outputs;
    /// taken (closed) at completion.
    wal: Option<JsonlWriter>,
    /// Adaptive lease sizing (EWMA of per-cell wall clock).
    sizer: LeaseSizer,
    /// Authenticated sessions by id.
    sessions: HashMap<u64, Session>,
    next_session: u64,
    /// Accepted-result attribution by plan index.
    worker_of_cell: Vec<Option<String>>,
    /// First unrecoverable failure (WAL I/O).
    failure: Option<String>,
    /// Set exactly once, when the sweep finishes (or fails).
    report: Option<Result<FleetReport, String>>,
}

struct Shared {
    plan: ExperimentPlan,
    ids: Vec<CellId>,
    identity: PlanIdentity,
    config: FleetConfig,
    epoch: Instant,
    state: Mutex<State>,
    done: Condvar,
    /// Set by the service thread once it stops accepting: every
    /// connection thread returns.
    stop: AtomicBool,
    /// [`Shared::now_ms`] by which the service thread stops, set when
    /// shutdown is requested (`u64::MAX` until then).
    close_at_ms: AtomicU64,
    /// Accepted connections not yet closed; a finished coordinator
    /// drains these before it stops. Bare values that publish no other
    /// data, so `Relaxed` suffices for these atomics.
    connections: AtomicUsize,
    log: Mutex<BufWriter<File>>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Appends one timestamped line to the coordinator log (flushed:
    /// the log must survive a crash and is uploaded as a CI artifact).
    fn log(&self, line: &str) {
        let mut log = self.log.lock().expect("log lock poisoned");
        let _ = writeln!(log, "[{:>8}ms] {line}", self.now_ms());
        let _ = log.flush();
    }
}

/// Builder entry point for the fleet service.
pub struct Coordinator;

impl Coordinator {
    /// Starts a coordinator for `plan` and returns a handle to it. The
    /// service runs on background threads until the sweep completes
    /// and [`CoordinatorHandle::shutdown`] is called (or the handle is
    /// dropped).
    ///
    /// # Errors
    ///
    /// Filesystem failures creating the fleet directory, log, or WAL;
    /// failure to bind the listener.
    pub fn start(plan: ExperimentPlan, config: FleetConfig) -> io::Result<CoordinatorHandle> {
        std::fs::create_dir_all(&config.dir)?;
        // A fresh fleet replaces only the files it names, the log and
        // the WAL; everything else in the directory is left alone.
        let log_file = File::create(config.dir.join("coordinator.log"))?;
        let identity = PlanIdentity::of(&config.experiment, &plan);
        let wal = create_wal(&wal_path(&config), &identity)?;

        let ids = CellId::assign(&plan.cells);
        let cells = plan.cells.len();
        let state = State {
            ledger: LeaseLedger::new(ids.clone()),
            wal: Some(wal),
            sizer: LeaseSizer::new(config.target_lease_ms, config.lease_cells),
            sessions: HashMap::new(),
            next_session: 1,
            worker_of_cell: vec![None; cells],
            failure: None,
            report: None,
        };
        let shared = Arc::new(Shared {
            identity,
            config,
            epoch: Instant::now(),
            state: Mutex::new(state),
            done: Condvar::new(),
            stop: AtomicBool::new(false),
            close_at_ms: AtomicU64::new(u64::MAX),
            connections: AtomicUsize::new(0),
            log: Mutex::new(BufWriter::new(log_file)),
            ids,
            plan,
        });
        serve(shared, "up")
    }

    /// Rebuilds a crashed coordinator from its fleet directory and
    /// resumes the sweep: replay the WAL into a fresh ledger (same
    /// transitions, same lease ids, same churn counters), expire the
    /// leases the crash orphaned, and serve the rest of the plan as
    /// usual. Sessions do not survive the crash: an old worker that
    /// reconnects gets a fresh session, and its old lease reports and
    /// heartbeats are answered `Stale` — which workers already treat as
    /// routine.
    ///
    /// # Errors
    ///
    /// A missing/corrupt WAL, a WAL from a different plan, or the same
    /// filesystem/bind failures as [`start`](Self::start).
    pub fn recover(plan: ExperimentPlan, config: FleetConfig) -> io::Result<CoordinatorHandle> {
        let log_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(config.dir.join("coordinator.log"))?;
        let identity = PlanIdentity::of(&config.experiment, &plan);
        let ids = CellId::assign(&plan.cells);
        let invalid = |message: String| io::Error::new(ErrorKind::InvalidData, message);

        // 1. Replay the WAL: the ledger goes through the exact
        //    transitions the dead coordinator logged.
        let (events, valid_bytes) = read_wal(&wal_path(&config), &identity)?;
        let mut ledger = LeaseLedger::new(ids.clone());
        let mut worker_of_cell: Vec<Option<String>> = vec![None; ids.len()];
        for event in &events {
            match event {
                WalEvent::Granted {
                    lease,
                    worker,
                    cells,
                } => {
                    let cell_ids = cells
                        .iter()
                        .map(|hex| {
                            CellId::from_hex(hex)
                                .ok_or_else(|| invalid(format!("WAL has bad cell id {hex:?}")))
                        })
                        .collect::<io::Result<Vec<CellId>>>()?;
                    ledger
                        .replay_granted(*lease, worker, &cell_ids, 0)
                        .map_err(invalid)?;
                }
                WalEvent::CellDone {
                    lease, cell, index, ..
                } => {
                    let id = CellId::from_hex(cell)
                        .filter(|id| ids.get(*index) == Some(id))
                        .ok_or_else(|| {
                            invalid(format!("WAL has cell {cell:?} at bad plan index {index}"))
                        })?;
                    match ledger.complete_cell(*lease, id, 0) {
                        CellReport::Accepted => {
                            worker_of_cell[*index] = ledger.lease(*lease).map(|l| l.worker.clone());
                        }
                        other => {
                            return Err(invalid(format!(
                                "WAL replay: completion of {cell} under lease {lease} \
                                 judged {other:?}"
                            )));
                        }
                    }
                }
                WalEvent::LeaseDone { lease } => {
                    ledger.complete_lease(*lease);
                }
                WalEvent::Expired { lease } => {
                    ledger.expire(*lease);
                }
            }
        }
        ledger.counters.wal_events_replayed = events.len() as u64;
        let wal = JsonlWriter::append_to(&wal_path(&config), valid_bytes)?;
        let orphans: Vec<u64> = ledger.lease_infos().iter().map(|l| l.lease).collect();
        let state = State {
            ledger,
            wal: Some(wal),
            sizer: LeaseSizer::new(config.target_lease_ms, config.lease_cells),
            sessions: HashMap::new(),
            next_session: 1,
            worker_of_cell,
            failure: None,
            report: None,
        };
        let shared = Arc::new(Shared {
            identity,
            config,
            epoch: Instant::now(),
            state: Mutex::new(state),
            done: Condvar::new(),
            stop: AtomicBool::new(false),
            close_at_ms: AtomicU64::new(u64::MAX),
            connections: AtomicUsize::new(0),
            log: Mutex::new(BufWriter::new(log_file)),
            ids,
            plan,
        });

        // 2. The crashed incarnation's leases are orphans (their
        //    workers died with it, or will be told Stale): expire each
        //    one through the same path a live coordinator uses for dead
        //    workers.
        {
            let mut state = shared.state.lock().expect("state lock poisoned");
            let state = &mut *state;
            for lease in &orphans {
                expire(&shared, state, *lease, "orphaned by coordinator crash");
            }
            shared.log(&format!(
                "recovered from WAL: {} events replayed, {} orphaned leases expired, \
                 {}/{} cells already done",
                state.ledger.counters.wal_events_replayed,
                orphans.len(),
                state.ledger.completed(),
                state.ledger.total(),
            ));
            maybe_finish(&shared, state);
        }
        serve(shared, "recovered and up")
    }
}

fn wal_path(config: &FleetConfig) -> PathBuf {
    config.dir.join(format!("{}.wal.jsonl", config.experiment))
}

/// Binds the listener and spawns the service thread for a fully-built
/// `Shared` — the common tail of `start` and `recover`.
fn serve(shared: Arc<Shared>, how: &str) -> io::Result<CoordinatorHandle> {
    let listener = TcpListener::bind(("127.0.0.1", shared.config.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    shared.log(&format!(
        "coordinator {how} on {addr}: experiment {} ({} cells, manifest {}), scale {}, \
         lease_cells {} (adaptive, target {}ms), timeout {}ms, auth {}",
        shared.config.experiment,
        shared.plan.cells.len(),
        shared.identity.manifest,
        shared.config.scale_name,
        shared.config.lease_cells,
        shared.config.target_lease_ms,
        shared.config.timeout_ms,
        if shared.config.token.is_empty() {
            "open"
        } else {
            "token"
        },
    ));
    let service = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("fleet-coordinator".to_string())
            .spawn(move || service_loop(&shared, listener))?
    };
    Ok(CoordinatorHandle {
        addr,
        shared,
        service: Some(service),
    })
}

/// A running coordinator.
pub struct CoordinatorHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    service: Option<JoinHandle<()>>,
}

impl CoordinatorHandle {
    /// The bound address workers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the sweep finishes (or `deadline` passes) and
    /// returns the final report. The service keeps running afterwards
    /// — it still answers `Status`/`Results` and tells late workers to
    /// shut down — until [`shutdown`](Self::shutdown).
    ///
    /// # Errors
    ///
    /// The coordinator's failure (WAL I/O, compaction conflict),
    /// or a timeout message when `deadline` elapses first.
    pub fn wait(&self, deadline: Duration) -> Result<FleetReport, String> {
        let started = Instant::now();
        let mut state = self.shared.state.lock().expect("state lock poisoned");
        loop {
            if let Some(report) = &state.report {
                return report.clone();
            }
            let left = deadline
                .checked_sub(started.elapsed())
                .ok_or_else(|| format!("fleet did not finish within {deadline:?}"))?;
            let (next, timeout) = self
                .shared
                .done
                .wait_timeout(state, left.min(Duration::from_millis(200)))
                .expect("state lock poisoned");
            state = next;
            let _ = timeout;
        }
    }

    /// Stops the service and joins its threads — after draining the
    /// workers of a finished sweep (see the module docs). Called
    /// automatically on drop; explicit calls just make the order
    /// visible.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(service) = self.service.take() else {
            return;
        };
        // Runs on drop too, so a poisoned lock means "stop now", not a
        // panic.
        let finished = self
            .shared
            .state
            .lock()
            .is_ok_and(|state| state.report.is_some());
        let drain_ms = if finished {
            self.shared.config.timeout_ms
        } else {
            0
        };
        self.shared
            .close_at_ms
            .store(self.shared.now_ms() + drain_ms, Ordering::Relaxed);
        let _ = service.join();
    }
}

impl Drop for CoordinatorHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accept loop + maintenance clock. Once shutdown is requested, it
/// stops right after an accept pass that leaves no connection open (or
/// at the drain deadline), so no connection in the backlog is missed.
fn service_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        maintain(shared);
        // Read before the accept pass, so that a pass which sees the
        // request has also accepted everything queued before it.
        let close_at = shared.close_at_ms.load(Ordering::Relaxed);
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let open = Open::new(Arc::clone(shared));
                    if let Ok(handle) = std::thread::Builder::new()
                        .name("fleet-conn".to_string())
                        .spawn(move || serve_connection(&open.0, stream))
                    {
                        connections.push(handle);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    shared.log(&format!("accept failed: {e}"));
                    break;
                }
            }
        }
        let open = shared.connections.load(Ordering::Relaxed);
        if open == 0 && close_at != u64::MAX {
            break;
        }
        if shared.now_ms() >= close_at {
            shared.log(&format!("stopping with {open} connections still open"));
            break;
        }
        std::thread::sleep(Duration::from_millis(shared.config.poll_ms));
    }
    // Refuse, rather than reset, any connection from here on.
    drop(listener);
    shared.stop.store(true, Ordering::Relaxed);
    for handle in connections {
        let _ = handle.join();
    }
    shared.log("coordinator down");
}

/// One maintenance tick: expiry of silent leases, then completion.
fn maintain(shared: &Shared) {
    let now = shared.now_ms();
    let mut state = shared.state.lock().expect("state lock poisoned");
    let state = &mut *state;
    for lease in state.ledger.stale_leases(now, shared.config.timeout_ms) {
        let reason = format!("{}ms silence", shared.config.timeout_ms);
        expire(shared, state, lease, &reason);
    }
    maybe_finish(shared, state);
}

/// Appends one ledger transition to the WAL; a write failure is the
/// run's failure (the sweep would no longer be recoverable).
fn wal_append(shared: &Shared, state: &mut State, event: &WalEvent) {
    if let Some(wal) = state.wal.as_mut() {
        if let Err(e) = wal.append(event) {
            let message = format!("WAL write failed: {e}");
            shared.log(&message);
            state.failure.get_or_insert(message);
        }
    }
}

/// Kills one lease the way a live coordinator always does: expire it
/// (requeueing its unreported cells) and WAL-log the step. Used for
/// liveness expiry and for the orphans found by crash recovery.
fn expire(shared: &Shared, state: &mut State, lease: u64, reason: &str) {
    let worker = state
        .ledger
        .lease(lease)
        .map(|l| l.worker.clone())
        .unwrap_or_default();
    let requeued = state.ledger.expire(lease);
    wal_append(shared, state, &WalEvent::Expired { lease });
    shared.log(&format!(
        "lease {lease} ({worker}) expired after {reason}: {requeued} cells requeued"
    ));
}

/// Completion check: renders the final table exactly once.
fn maybe_finish(shared: &Shared, state: &mut State) {
    if state.report.is_some() || !state.ledger.is_complete() {
        return;
    }
    // Every cell is done, so any lease still active is empty: its
    // holder abandoned it after a Stale verdict, or its final Complete
    // has not arrived yet. Retire them so post-completion status never
    // shows ghost leases (the late Complete is answered Stale, which
    // the worker treats as routine).
    for info in state.ledger.lease_infos() {
        if state.ledger.complete_lease(info.lease) {
            wal_append(shared, state, &WalEvent::LeaseDone { lease: info.lease });
        }
    }
    // The WAL's job ends with the sweep; close it so the file is whole
    // for the compaction below and the CI artifact upload.
    state.wal = None;
    let counters = state.ledger.counters;
    let reconciled = counters.reconciled(state.ledger.total() as u64);
    let result = match &state.failure {
        Some(failure) => Err(failure.clone()),
        None => compact(shared)
            .map_err(|e| format!("final compaction failed: {e}"))
            .map(|table| FleetReport {
                csv: table.to_csv(),
                rendered: table.to_string(),
                counters,
                reconciled,
                cells: state.ledger.total(),
                wall_s: shared.epoch.elapsed().as_secs_f64(),
                lease_sizes: state.sizer.trajectory(),
            }),
    };
    shared.log(&format!(
        "sweep complete: {} cells | leases granted {} completed {} expired {} | cells granted {} \
         completed {} stolen {} stale-rejected {} | sessions resumed {} leases re-adopted {} | \
         wal replayed {} | lease sizes {:?} | leases_reconciled: {reconciled}",
        state.ledger.total(),
        counters.leases_granted,
        counters.leases_completed,
        counters.leases_expired,
        counters.cells_granted,
        counters.cells_completed,
        counters.cells_stolen,
        counters.stale_reports,
        counters.sessions_resumed,
        counters.leases_readopted,
        counters.wal_events_replayed,
        state.sizer.trajectory(),
    ));
    if let Err(e) = &result {
        shared.log(&format!("sweep FAILED: {e}"));
    }
    state.report = Some(result);
    shared.done.notify_all();
}

/// The final compaction: the WAL's accepted outputs folded into the
/// table.
fn compact(shared: &Shared) -> Result<TextTable, Box<dyn Error>> {
    let (events, _) = read_wal(&wal_path(&shared.config), &shared.identity)?;
    let accepted = events.into_iter().filter_map(|event| match event {
        WalEvent::CellDone { index, output, .. } => Some((shared.ids[index], index, *output)),
        _ => None,
    });
    Ok(fold_cells(&shared.plan, accepted)?)
}

/// Folds `(id, plan index, output)` records into `plan`'s table,
/// byte-identical to running the plan serially in memory.
///
/// A cell may repeat: outputs are deterministic, so a repeat must carry
/// byte-identical serialized data, and a conflicting one means the
/// records come from incompatible runs (code versions?) and fails the
/// fold. So does a cell with no record.
fn fold_cells(
    plan: &ExperimentPlan,
    records: impl IntoIterator<Item = (CellId, usize, CellOutput)>,
) -> Result<TextTable, String> {
    let mut outputs: Vec<Option<(CellOutput, String)>> =
        (0..plan.cells.len()).map(|_| None).collect();
    for (id, index, output) in records {
        let rendered = serde_json::to_string(&output)
            .map_err(|e| format!("cannot re-serialize cell {id}: {e}"))?;
        match &outputs[index] {
            Some((_, have)) if *have != rendered => {
                return Err(format!(
                    "cell {id} is logged twice with different outputs: the records come from \
                     incompatible runs and must not be folded together"
                ));
            }
            Some(_) => {}
            None => outputs[index] = Some((output, rendered)),
        }
    }
    let missing = outputs.iter().filter(|o| o.is_none()).count();
    if missing > 0 {
        return Err(format!(
            "outputs cover only {}/{} cells ({missing} missing)",
            plan.cells.len() - missing,
            plan.cells.len()
        ));
    }
    let outputs: Vec<CellOutput> = outputs.into_iter().map(|o| o.expect("checked").0).collect();
    Ok(plan.render_outputs(&outputs))
}

/// Where a connection stands in the v2 handshake.
enum ConnAuth {
    /// Nothing received yet (or the handshake was restarted).
    Fresh,
    /// `Hello` accepted; waiting for the `Auth` answer to this nonce.
    Challenged { worker: String, nonce: u64 },
    /// Authenticated under this session; mutating requests allowed.
    Ready { session: u64 },
}

/// One connection: requests in, replies out, until EOF or shutdown.
///
/// A malformed frame (bad JSON, torn line, non-UTF-8) is answered with
/// a typed refusal when the socket still works, logged, and the
/// connection dropped — never a panic; the fuzz test in `fleet_e2e`
/// feeds this path random bytes.
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = MessageReader::new(read_half);
    let mut writer = stream;
    let mut auth = ConnAuth::Fresh;
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let request = match reader.recv::<Request>() {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                shared.log(&format!("malformed frame dropped: {e}"));
                let _ = protocol::send(
                    &mut writer,
                    &Reply::Refused {
                        error: ProtocolError::Malformed {
                            detail: e.to_string(),
                        },
                    },
                );
                return;
            }
            Err(e) => {
                shared.log(&format!("connection dropped: {e}"));
                return;
            }
        };
        let reply = handle(shared, request, &mut auth);
        // A dismissed worker is done with this connection.
        if protocol::send(&mut writer, &reply).is_err() || matches!(reply, Reply::Shutdown) {
            return;
        }
    }
}

/// Counts one accepted connection in [`Shared::connections`] from
/// `accept` until its thread ends.
struct Open(Arc<Shared>);

impl Open {
    fn new(shared: Arc<Shared>) -> Self {
        shared.connections.fetch_add(1, Ordering::Relaxed);
        Open(shared)
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Refusal for a mutating request on a connection that never finished
/// the handshake.
fn unauthenticated(what: &str) -> Reply {
    Reply::Refused {
        error: ProtocolError::AuthFailure {
            detail: format!("{what} requires an authenticated session (Hello then Auth first)"),
        },
    }
}

/// The request dispatcher.
fn handle(shared: &Shared, request: Request, auth: &mut ConnAuth) -> Reply {
    let now = shared.now_ms();
    match request {
        Request::Hello { worker, proto } => {
            if proto != PROTOCOL_VERSION {
                shared.log(&format!(
                    "refused {worker}: protocol v{proto} vs our v{PROTOCOL_VERSION}"
                ));
                return Reply::Refused {
                    error: ProtocolError::VersionSkew {
                        coordinator: PROTOCOL_VERSION,
                        client: proto,
                    },
                };
            }
            let nonce = fresh_nonce();
            *auth = ConnAuth::Challenged { worker, nonce };
            Reply::Challenge { nonce }
        }
        Request::Auth {
            worker,
            mac,
            session,
        } => {
            let ConnAuth::Challenged {
                worker: hello_worker,
                nonce,
            } = &*auth
            else {
                return Reply::Refused {
                    error: ProtocolError::UnknownRequest {
                        detail: "Auth without a pending challenge".to_string(),
                    },
                };
            };
            if *hello_worker != worker {
                return Reply::Refused {
                    error: ProtocolError::AuthFailure {
                        detail: format!("Auth names {worker:?} but Hello named {hello_worker:?}"),
                    },
                };
            }
            if mac != mac64(&shared.config.token, *nonce) {
                shared.log(&format!("refused {worker}: bad challenge response"));
                *auth = ConnAuth::Fresh;
                return Reply::Refused {
                    error: ProtocolError::AuthFailure {
                        detail: "challenge response does not verify (wrong fleet token?)"
                            .to_string(),
                    },
                };
            }
            let mut state = shared.state.lock().expect("state lock poisoned");
            let state = &mut *state;
            let sid = match session {
                // A reconnect presenting a session we know for this
                // worker: re-adopt its live leases instead of letting
                // them expire.
                Some(prev)
                    if state
                        .sessions
                        .get(&prev)
                        .is_some_and(|s| s.worker == worker) =>
                {
                    let leases = state.sessions[&prev].leases.clone();
                    let mut readopted = 0u64;
                    for lease in leases {
                        if state.ledger.heartbeat(lease, now) {
                            readopted += 1;
                        }
                    }
                    state.ledger.counters.sessions_resumed += 1;
                    state.ledger.counters.leases_readopted += readopted;
                    shared.log(&format!(
                        "worker {worker} resumed session {prev}: {readopted} live leases \
                         re-adopted"
                    ));
                    prev
                }
                _ => {
                    let sid = state.next_session;
                    state.next_session += 1;
                    state.sessions.insert(
                        sid,
                        Session {
                            worker: worker.clone(),
                            leases: Vec::new(),
                        },
                    );
                    shared.log(&format!("worker {worker} authenticated: session {sid}"));
                    sid
                }
            };
            *auth = ConnAuth::Ready { session: sid };
            Reply::Welcome {
                proto: PROTOCOL_VERSION,
                scale: shared.config.scale_name.clone(),
                identity: shared.identity.clone(),
                session: sid,
                lease_timeout_ms: shared.config.timeout_ms,
            }
        }
        Request::Lease { worker } => {
            let ConnAuth::Ready { session } = *auth else {
                return unauthenticated("Lease");
            };
            let mut state = shared.state.lock().expect("state lock poisoned");
            let state = &mut *state;
            let size = state.sizer.size(state.ledger.pending());
            match state.ledger.grant(&worker, now, size) {
                GrantOutcome::Granted {
                    lease,
                    cells,
                    stolen,
                } => {
                    if let Some(s) = state.sessions.get_mut(&session) {
                        s.leases.push(lease);
                    }
                    // Durable before the reply: no lease may exist on
                    // the wire that the WAL does not know.
                    wal_append(
                        shared,
                        state,
                        &WalEvent::Granted {
                            lease,
                            worker: worker.clone(),
                            cells: cells.iter().map(|id| id.to_hex()).collect(),
                        },
                    );
                    shared.log(&format!(
                        "lease {lease} -> {worker} (session {session}): {} cells{}",
                        cells.len(),
                        if stolen {
                            " (stolen from a straggler)"
                        } else {
                            ""
                        },
                    ));
                    Reply::Grant {
                        lease,
                        cells: cells.iter().map(|id| id.to_hex()).collect(),
                    }
                }
                GrantOutcome::Wait => Reply::Wait { poll_ms: 300 },
                GrantOutcome::Finished => Reply::Shutdown,
            }
        }
        Request::Heartbeat { lease, .. } => {
            let ConnAuth::Ready { session } = *auth else {
                return unauthenticated("Heartbeat");
            };
            let mut state = shared.state.lock().expect("state lock poisoned");
            // Only the holder's session keeps a lease alive: a stray
            // client must not pin a dead worker's cells forever.
            let held = state
                .sessions
                .get(&session)
                .is_some_and(|s| s.leases.contains(&lease));
            if held && state.ledger.heartbeat(lease, now) {
                Reply::Ack
            } else {
                Reply::Stale { lease }
            }
        }
        Request::CellDone {
            worker,
            lease,
            cell,
            index,
            output,
        } => {
            if !matches!(*auth, ConnAuth::Ready { .. }) {
                return unauthenticated("CellDone");
            }
            let Some(id) = CellId::from_hex(&cell) else {
                return Reply::Refused {
                    error: ProtocolError::Malformed {
                        detail: format!("malformed cell id {cell:?}"),
                    },
                };
            };
            if shared.ids.get(index) != Some(&id) {
                return Reply::Refused {
                    error: ProtocolError::Malformed {
                        detail: format!("cell {id} is not at plan index {index}"),
                    },
                };
            }
            let mut state = shared.state.lock().expect("state lock poisoned");
            let state = &mut *state;
            // Per-cell wall clock for the adaptive sizer: measured from
            // the lease's last accepted progress.
            let progress_base = state.ledger.lease(lease).map(|l| l.last_progress);
            let verdict = state.ledger.complete_cell(lease, id, now);
            if verdict == CellReport::Accepted {
                if let Some(base) = progress_base {
                    state.sizer.observe(now.saturating_sub(base));
                }
                state.worker_of_cell[index] = Some(worker.clone());
                wal_append(
                    shared,
                    state,
                    &WalEvent::CellDone {
                        lease,
                        cell: id.to_hex(),
                        index,
                        output,
                    },
                );
            }
            maybe_finish(shared, state);
            match verdict {
                CellReport::Accepted | CellReport::Duplicate => Reply::Ack,
                CellReport::Stale => {
                    shared.log(&format!(
                        "stale report from {worker}: cell {id} no longer held by lease {lease}"
                    ));
                    Reply::Stale { lease }
                }
            }
        }
        Request::Complete { worker, lease } => {
            if !matches!(*auth, ConnAuth::Ready { .. }) {
                return unauthenticated("Complete");
            }
            let mut state = shared.state.lock().expect("state lock poisoned");
            let state_ref = &mut *state;
            if state_ref.ledger.complete_lease(lease) {
                wal_append(shared, state_ref, &WalEvent::LeaseDone { lease });
                shared.log(&format!("lease {lease} ({worker}) complete"));
                maybe_finish(shared, state_ref);
                Reply::Ack
            } else {
                Reply::Stale { lease }
            }
        }
        Request::Status => {
            let state = shared.state.lock().expect("state lock poisoned");
            Reply::Status(StatusReport {
                experiment: shared.config.experiment.clone(),
                total_cells: state.ledger.total(),
                completed_cells: state.ledger.completed(),
                complete: state.report.is_some(),
                counters: state.ledger.counters,
                leases: state.ledger.lease_infos(),
            })
        }
        Request::Results { start, limit } => {
            let state = shared.state.lock().expect("state lock poisoned");
            let total = state.ledger.total();
            let end = start.saturating_add(limit.min(1_000)).min(total);
            let mut cells = Vec::new();
            for index in start.min(total)..end {
                let (id, name, holder) = state.ledger.cell_view(index).expect("index in range");
                let worker = match name {
                    "done" => state.worker_of_cell[index].clone(),
                    "leased" => holder
                        .and_then(|lease| state.ledger.lease(lease))
                        .map(|l| l.worker.clone()),
                    _ => None,
                };
                cells.push(CellProgress {
                    index,
                    cell: id.to_hex(),
                    state: name.to_string(),
                    worker,
                });
            }
            Reply::Results(ResultsPage {
                total,
                completed: state.ledger.completed(),
                start: start.min(total),
                cells,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_bench::engine::{Cell, SweepRunner};
    use dsp_bench::Scale;

    /// Two model-checking cells with distinct outputs.
    fn plan() -> ExperimentPlan {
        let scale = Scale {
            footprint: 1.0 / 256.0,
            trace_warmup: 0,
            trace_measured: 100,
            sim_warmup: 0,
            sim_measured: 10,
            sim_runs: 1,
        };
        let mut plan = ExperimentPlan::new("fold-test", &["states"], &scale);
        for nodes in [2, 3] {
            plan.push(Cell::Verify { nodes, bug: None });
        }
        plan.render(|_, outputs, table| {
            for output in outputs {
                table.row([output.verify().states_explored.to_string()]);
            }
        })
    }

    #[test]
    fn fold_checks_conflicts_and_coverage() {
        let plan = plan();
        let ids = CellId::assign(&plan.cells);
        let outputs = SweepRunner::serial().run_cells(&plan);
        let record = |cell: usize, output: usize| (ids[cell], cell, outputs[output].clone());
        let serial = plan.render_outputs(&outputs).to_csv();

        // Any order, identical repeats included, folds to the serial
        // table.
        let folded = fold_cells(&plan, [record(1, 1), record(0, 0), record(1, 1)]);
        assert_eq!(folded.expect("complete").to_csv(), serial);
        // A cell with no record fails the fold.
        let err = fold_cells(&plan, [record(0, 0)]).unwrap_err();
        assert!(err.contains("1 missing"), "{err}");
        // A repeat carrying another output is a different run's record.
        let err = fold_cells(&plan, [record(0, 0), record(1, 1), record(0, 1)]).unwrap_err();
        assert!(err.contains("different outputs"), "{err}");
    }
}
