//! The fleet worker: pull a lease, run its cells through
//! `SweepSession`, stream each finished cell back, repeat.
//!
//! A worker is a thin shell around the existing sweep machinery. It
//! rebuilds the coordinator's plan locally (from the experiment name
//! and scale preset the coordinator advertises), verifies the full
//! [`PlanIdentity`] — manifest digest, seed, exact scale bits — and
//! then loops on leases: each grant becomes an in-memory
//! `SweepSession` over the lease's explicit `CellId` set (see
//! [`SweepSession::cells`](dsp_bench::engine::SweepSession::cells)).
//! The worker keeps no files. A cell is durable once the coordinator
//! has appended its report to the WAL; a cell whose report never got
//! there is re-run elsewhere after its lease expires, with identical
//! output.
//!
//! # Liveness
//!
//! While a lease's session runs, a scoped heartbeat thread sends
//! `Heartbeat` every third of the lease timeout the `Welcome`
//! advertised, so a lease stays alive even when one cell takes many
//! timeouts. The thread stops as soon as the session returns, or at
//! the first reply other than `Ack`. It shares the cell reports'
//! authenticated, reconnecting link behind a mutex.
//!
//! # Sessions and reconnects
//!
//! Connecting means the v2 handshake: `Hello` → `Challenge` →
//! `Auth` (a keyed hash of the fleet token over the challenged nonce)
//! → `Welcome`, which carries the worker's `SessionId`. Every connect —
//! initial or reconnect — runs jittered exponential backoff under one
//! wall-clock budget (`connect_timeout_ms`), with attempts surfaced in
//! the worker log. When TCP dies mid-run, `Fleet::exchange`
//! reconnects, re-authenticates *with the same `SessionId`*, and
//! retransmits the request: the coordinator re-adopts the session's
//! live leases, a retransmitted `CellDone` lands as a harmless
//! `Duplicate`, and the `SweepSession` keeps running throughout. Only
//! when the budget is exhausted is the coordinator declared gone.
//!
//! One `SweepRunner` lives across all of a worker's leases, so traces
//! and timing-sim partitions generated for one lease are reused by the
//! next — the same sharing `repro all` gets.

use std::io::{self, ErrorKind};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dsp_bench::engine::{CellId, CellRecord, CellSink, ExperimentPlan, SweepRunner};
use dsp_bench::{experiments, Scale};
use dsp_types::hash::mix64;

use crate::auth::mac64;
use crate::protocol::{
    self, MessageReader, PlanIdentity, ProtocolError, Reply, Request, PROTOCOL_VERSION,
};
use crate::stats::{ResultsPage, StatusReport};

/// Worker tuning.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Worker name (unique within the fleet; appears in the
    /// coordinator log).
    pub name: String,
    /// Coordinator address, `host:port`.
    pub connect: String,
    /// Sweep threads per lease.
    pub threads: usize,
    /// Wall-clock budget for one connect-and-handshake, initial or
    /// reconnect — backoff retries until it succeeds or this elapses.
    pub connect_timeout_ms: u64,
    /// Shared fleet token for the handshake challenge; must match the
    /// coordinator's.
    pub token: String,
}

impl WorkerConfig {
    /// Defaults for a local fleet worker.
    pub fn new(name: &str, connect: &str) -> Self {
        WorkerConfig {
            name: name.to_string(),
            connect: connect.to_string(),
            threads: 1,
            connect_timeout_ms: 10_000,
            token: String::new(),
        }
    }
}

/// What one worker did before the coordinator sent it home.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerReport {
    /// Leases run to completion.
    pub leases: usize,
    /// Cells executed and accepted.
    pub cells: usize,
    /// Leases abandoned after a `Stale` verdict (their remaining cells
    /// were re-leased elsewhere).
    pub stale_leases: usize,
    /// Mid-run TCP sessions lost and re-established (same `SessionId`).
    pub reconnects: usize,
    /// Total `TcpStream::connect` attempts across initial connect and
    /// every reconnect.
    pub connect_attempts: usize,
}

/// Runs a worker against the standard experiment registry
/// (`experiments::plan_for`).
///
/// # Errors
///
/// Connection failure, refused auth or version, identity mismatch,
/// protocol violations, or a sweep failure. The coordinator vanishing
/// *after* contact — and staying gone past the reconnect budget — is
/// treated as a clean shutdown: the fleet is done or dead, and either
/// way every cell the coordinator accepted is already in its WAL.
pub fn run_worker(config: &WorkerConfig) -> Result<WorkerReport, String> {
    run_worker_with(config, |experiment, scale| {
        let scale = Scale::parse(scale)?;
        experiments::plan_for(experiment, &scale)
    })
}

/// [`run_worker`] with an injected plan registry, so tests can fleet
/// tiny custom plans that the public experiment table doesn't know.
pub fn run_worker_with(
    config: &WorkerConfig,
    lookup: impl Fn(&str, &str) -> Option<ExperimentPlan>,
) -> Result<WorkerReport, String> {
    let fleet = Fleet::establish(config).map_err(|e| {
        format!(
            "worker {}: cannot join fleet at {}: {e}",
            config.name, config.connect
        )
    })?;

    // Rebuild the plan locally and verify it is the same plan.
    let identity = fleet.identity.clone();
    let plan = lookup(&identity.experiment, &fleet.scale).ok_or_else(|| {
        format!(
            "worker {}: unknown experiment {:?} at scale {:?}",
            config.name, identity.experiment, fleet.scale
        )
    })?;
    let local = PlanIdentity::of(&identity.experiment, &plan);
    if let Some(diff) = local.mismatch(&identity) {
        return Err(format!(
            "worker {}: plan identity mismatch ({diff}) — this binary would compute different \
             cells than the coordinator expects; refusing to lease",
            config.name
        ));
    }
    let ids = CellId::assign(&plan.cells);
    let runner = SweepRunner::with_threads(config.threads);
    let fleet = Mutex::new(fleet);
    let mut report = lease_loop(config, &fleet, &plan, &ids, &runner)?;
    let fleet = fleet.into_inner().expect("fleet lock poisoned");
    report.reconnects = fleet.reconnects;
    report.connect_attempts = fleet.connect_attempts;
    Ok(report)
}

/// The worker's main loop: lease, run, report, repeat until `Shutdown`
/// (or the coordinator stays gone past the reconnect budget).
fn lease_loop(
    config: &WorkerConfig,
    fleet: &Mutex<Fleet<'_>>,
    plan: &ExperimentPlan,
    ids: &[CellId],
    runner: &SweepRunner,
) -> Result<WorkerReport, String> {
    let mut report = WorkerReport::default();
    loop {
        let reply = match exchange(
            fleet,
            &Request::Lease {
                worker: config.name.clone(),
            },
        ) {
            Ok(Some(reply)) => reply,
            // Coordinator gone past the reconnect budget: treat as
            // shutdown (see the run_worker docs).
            Ok(None) => return Ok(report),
            Err(e) if coordinator_gone(&e) => return Ok(report),
            Err(e) => return Err(format!("worker {}: lease request failed: {e}", config.name)),
        };
        match reply {
            Reply::Grant { lease, cells } => {
                let mut cell_ids = Vec::with_capacity(cells.len());
                for text in &cells {
                    let id = CellId::from_hex(text).ok_or_else(|| {
                        format!("worker {}: malformed cell id {text:?}", config.name)
                    })?;
                    if !ids.contains(&id) {
                        return Err(format!(
                            "worker {}: granted cell {id} is not in the local plan",
                            config.name
                        ));
                    }
                    cell_ids.push(id);
                }
                let mut sink = ReportSink {
                    fleet,
                    worker: &config.name,
                    lease,
                    ids,
                    accepted: 0,
                    stale: false,
                    failure: None,
                };
                let session = runner.session(plan).cells(cell_ids);
                std::thread::scope(|scope| {
                    let (stop, stopped) = mpsc::channel::<()>();
                    scope.spawn(move || heartbeat(fleet, &config.name, lease, &stopped));
                    let result = session.run(&mut [&mut sink]);
                    drop(stop);
                    result
                })
                .map_err(|e| format!("worker {}: lease {lease} failed: {e}", config.name))?;
                let (accepted, stale, failure) = (sink.accepted, sink.stale, sink.failure);
                if let Some(e) = failure {
                    if coordinator_gone(&e) {
                        return Ok(report);
                    }
                    return Err(format!("worker {}: reporting failed: {e}", config.name));
                }
                report.cells += accepted;
                if stale {
                    // The lease was expired or partly stolen while we
                    // ran; the cells accepted so far are in the WAL, the
                    // rest belong to someone else now. Ask for fresh work.
                    report.stale_leases += 1;
                    continue;
                }
                match exchange(
                    fleet,
                    &Request::Complete {
                        worker: config.name.clone(),
                        lease,
                    },
                ) {
                    Ok(Some(Reply::Ack)) => report.leases += 1,
                    Ok(Some(Reply::Stale { .. })) => report.stale_leases += 1,
                    Ok(Some(other)) => {
                        return Err(format!(
                            "worker {}: expected Ack for lease {lease}, got {other:?}",
                            config.name
                        ));
                    }
                    Ok(None) => return Ok(report),
                    Err(e) if coordinator_gone(&e) => return Ok(report),
                    Err(e) => {
                        return Err(format!("worker {}: complete failed: {e}", config.name));
                    }
                }
            }
            Reply::Wait { poll_ms } => {
                std::thread::sleep(Duration::from_millis(poll_ms.clamp(10, 2_000)));
            }
            Reply::Shutdown => return Ok(report),
            Reply::Refused { error } => {
                return Err(format!(
                    "worker {}: coordinator refused: {error}",
                    config.name
                ));
            }
            other => {
                return Err(format!(
                    "worker {}: unexpected lease reply: {other:?}",
                    config.name
                ));
            }
        }
    }
}

/// Asks a running coordinator for its status snapshot. Observer
/// requests need no handshake.
///
/// # Errors
///
/// Connection or protocol failure, rendered for the CLI.
pub fn query_status(connect: &str) -> Result<StatusReport, String> {
    match observe(connect, &Request::Status)? {
        Reply::Status(status) => Ok(status),
        other => Err(format!("expected a status reply, got {other:?}")),
    }
}

/// Asks a running coordinator for a page of per-cell completion states.
///
/// # Errors
///
/// Connection or protocol failure, rendered for the CLI.
pub fn query_results(connect: &str, start: usize, limit: usize) -> Result<ResultsPage, String> {
    match observe(connect, &Request::Results { start, limit })? {
        Reply::Results(page) => Ok(page),
        other => Err(format!("expected a results page, got {other:?}")),
    }
}

/// One-shot observer exchange: connect, ask, hang up.
fn observe(connect: &str, request: &Request) -> Result<Reply, String> {
    let stream = TcpStream::connect(connect).map_err(|e| format!("cannot reach {connect}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(5_000)))
        .map_err(|e| e.to_string())?;
    let mut link = Link {
        reader: MessageReader::new(stream.try_clone().map_err(|e| e.to_string())?),
        writer: stream,
    };
    link.exchange(request)
        .map_err(|e| format!("query to {connect} failed: {e}"))?
        .ok_or_else(|| format!("{connect} hung up without answering"))
}

/// A request/reply connection: one writer, one timeout-tolerant reader.
struct Link {
    reader: MessageReader<TcpStream>,
    writer: TcpStream,
}

impl Link {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        Ok(Link {
            reader: MessageReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and blocks for its reply (`None` = clean EOF).
    fn exchange(&mut self, request: &Request) -> io::Result<Option<Reply>> {
        protocol::send(&mut self.writer, request)?;
        loop {
            match self.reader.recv::<Reply>() {
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue;
                }
                other => return other,
            }
        }
    }
}

/// The worker's authenticated, reconnecting view of the coordinator.
struct Fleet<'a> {
    config: &'a WorkerConfig,
    link: Link,
    /// The coordinator-issued session id; presented on reconnect so
    /// live leases are re-adopted.
    session: u64,
    /// Scale preset the coordinator advertised.
    scale: String,
    /// Plan identity the coordinator advertised.
    identity: PlanIdentity,
    /// The coordinator's lease timeout, from its latest `Welcome`.
    lease_timeout_ms: u64,
    reconnects: usize,
    connect_attempts: usize,
}

impl<'a> Fleet<'a> {
    /// Initial connect + handshake, with backoff under the connect
    /// budget (a torn handshake — e.g. through the chaos proxy — is
    /// retried like a failed connect).
    fn establish(config: &'a WorkerConfig) -> io::Result<Fleet<'a>> {
        let started = Instant::now();
        let mut attempts = 0usize;
        loop {
            let stream = connect_with_backoff(config, started, &mut attempts)?;
            let mut link = Link::new(stream)?;
            match handshake(&mut link, config, None) {
                Ok((scale, identity, session, lease_timeout_ms)) => {
                    if attempts > 1 {
                        eprintln!(
                            "worker {}: connected to {} after {attempts} attempts",
                            config.name, config.connect
                        );
                    }
                    return Ok(Fleet {
                        config,
                        link,
                        session,
                        scale,
                        identity,
                        lease_timeout_ms,
                        reconnects: 0,
                        connect_attempts: attempts,
                    });
                }
                Err(e) if coordinator_gone(&e) && !budget_spent(config, started) => {
                    eprintln!(
                        "worker {}: handshake with {} torn ({e}); retrying",
                        config.name, config.connect
                    );
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Re-establishes a dropped TCP session under the same `SessionId`.
    fn reconnect(&mut self) -> io::Result<()> {
        let started = Instant::now();
        loop {
            let stream = connect_with_backoff(self.config, started, &mut self.connect_attempts)?;
            let mut link = Link::new(stream)?;
            match handshake(&mut link, self.config, Some(self.session)) {
                Ok((_, _, session, lease_timeout_ms)) => {
                    eprintln!(
                        "worker {}: reconnected to {} (session {}{})",
                        self.config.name,
                        self.config.connect,
                        session,
                        if session == self.session {
                            " resumed"
                        } else {
                            ", previous one unknown there"
                        },
                    );
                    // A recovered coordinator may not know the old
                    // session; adopt whatever it issued — old lease
                    // reports will be answered Stale, which the sink
                    // already treats as routine.
                    self.session = session;
                    self.lease_timeout_ms = lease_timeout_ms;
                    self.link = link;
                    self.reconnects += 1;
                    return Ok(());
                }
                Err(e) if coordinator_gone(&e) && !budget_spent(self.config, started) => {
                    eprintln!(
                        "worker {}: re-handshake with {} torn ({e}); retrying",
                        self.config.name, self.config.connect
                    );
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One request/reply, transparently surviving dropped connections:
    /// on a torn session the worker reconnects (same `SessionId`) and
    /// retransmits. Retransmission is safe for every request we send —
    /// a repeated `CellDone` is judged `Duplicate`, a repeated
    /// `Complete`/`Heartbeat` answers `Stale`, and a `Lease` whose
    /// grant was lost in flight leaves an orphan lease that expiry
    /// reclaims. Returns the original transport error once the
    /// reconnect budget is spent.
    fn exchange(&mut self, request: &Request) -> io::Result<Option<Reply>> {
        loop {
            let torn = match self.link.exchange(request) {
                Ok(Some(reply)) => return Ok(Some(reply)),
                // EOF mid-run is a torn session until proven otherwise
                // — a live coordinator says `Shutdown` explicitly.
                Ok(None) => io::Error::new(ErrorKind::UnexpectedEof, "connection closed mid-run"),
                Err(e) if coordinator_gone(&e) => e,
                Err(e) => return Err(e),
            };
            if self.reconnect().is_err() {
                return Err(torn);
            }
        }
    }
}

/// The v2 handshake on a fresh connection; `resume` is the previous
/// `SessionId` when reconnecting. Returns the `Welcome`'s
/// `(scale, identity, session, lease_timeout_ms)`.
fn handshake(
    link: &mut Link,
    config: &WorkerConfig,
    resume: Option<u64>,
) -> io::Result<(String, PlanIdentity, u64, u64)> {
    let hung_up = || {
        io::Error::new(
            ErrorKind::UnexpectedEof,
            "coordinator hung up mid-handshake",
        )
    };
    let reply = link
        .exchange(&Request::Hello {
            worker: config.name.clone(),
            proto: PROTOCOL_VERSION,
        })?
        .ok_or_else(hung_up)?;
    let nonce = match reply {
        Reply::Challenge { nonce } => nonce,
        Reply::Refused { error } => return Err(refused(&error)),
        other => {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("expected Challenge, got {other:?}"),
            ));
        }
    };
    let reply = link
        .exchange(&Request::Auth {
            worker: config.name.clone(),
            mac: mac64(&config.token, nonce),
            session: resume,
        })?
        .ok_or_else(hung_up)?;
    match reply {
        Reply::Welcome {
            proto,
            scale,
            identity,
            session,
            lease_timeout_ms,
        } => {
            if proto != PROTOCOL_VERSION {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "coordinator speaks protocol v{proto}, this binary v{PROTOCOL_VERSION}"
                    ),
                ));
            }
            Ok((scale, identity, session, lease_timeout_ms))
        }
        Reply::Refused { error } => Err(refused(&error)),
        other => Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("expected Welcome, got {other:?}"),
        )),
    }
}

/// A typed refusal is terminal — retrying with the same token and
/// binary cannot succeed.
fn refused(error: &ProtocolError) -> io::Error {
    io::Error::new(
        ErrorKind::PermissionDenied,
        format!("coordinator refused: {error}"),
    )
}

/// Whether an I/O error means "the coordinator went away" rather than
/// "this worker is broken".
fn coordinator_gone(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof
            | ErrorKind::NotConnected
    )
}

fn budget_spent(config: &WorkerConfig, started: Instant) -> bool {
    started.elapsed() >= Duration::from_millis(config.connect_timeout_ms)
}

/// One `TcpStream::connect` with jittered exponential backoff under the
/// budget that began at `started`; `attempts` accumulates across calls
/// for the worker report. Each failed attempt is surfaced in the worker
/// log.
fn connect_with_backoff(
    config: &WorkerConfig,
    started: Instant,
    attempts: &mut usize,
) -> io::Result<TcpStream> {
    // Per-worker jitter stream, so a fleet of workers knocked off by
    // one coordinator restart does not reconnect in lockstep.
    let seed = config
        .name
        .bytes()
        .fold(0x66_6c_65_65_74u64, |h, b| mix64(h ^ u64::from(b)));
    let mut round = 0u32;
    loop {
        *attempts += 1;
        let error = match TcpStream::connect(&config.connect) {
            Ok(stream) => return Ok(stream),
            Err(e) => e,
        };
        round += 1;
        // 50ms << round, capped at 2s, then halved-plus-jitter so two
        // workers at the same round still spread out.
        let base = 50u64.saturating_mul(1 << round.min(6)).min(2_000);
        let jitter = mix64(seed ^ u64::from(round)) % (base / 2 + 1);
        let delay = Duration::from_millis(base / 2 + jitter);
        if started.elapsed() + delay >= Duration::from_millis(config.connect_timeout_ms) {
            return Err(error);
        }
        eprintln!(
            "worker {}: connect attempt {} to {} failed ({error}); retrying in {delay:?}",
            config.name, *attempts, config.connect
        );
        std::thread::sleep(delay);
    }
}

/// [`Fleet::exchange`] on the link the lease loop, the report sink,
/// and the heartbeat thread share.
fn exchange(fleet: &Mutex<Fleet<'_>>, request: &Request) -> io::Result<Option<Reply>> {
    fleet.lock().expect("fleet lock poisoned").exchange(request)
}

/// Keeps `lease` alive while its session runs: one `Heartbeat` per
/// third of the lease timeout (so two can go astray before it expires)
/// until `stop` disconnects (the session returned) or the coordinator
/// answers anything but `Ack` (the lease is gone, or the coordinator
/// is; the cell reports find out either way).
fn heartbeat(fleet: &Mutex<Fleet<'_>>, worker: &str, lease: u64, stop: &Receiver<()>) {
    let timeout_ms = fleet.lock().expect("fleet lock poisoned").lease_timeout_ms;
    let period = Duration::from_millis((timeout_ms / 3).max(1));
    while stop.recv_timeout(period) == Err(RecvTimeoutError::Timeout) {
        let request = Request::Heartbeat {
            worker: worker.to_string(),
            lease,
        };
        if !matches!(exchange(fleet, &request), Ok(Some(Reply::Ack))) {
            return;
        }
    }
}

/// Streams each finished cell to the coordinator as the session
/// produces it. Reporting goes through [`Fleet::exchange`], so a
/// dropped TCP session mid-lease reconnects and resumes without the
/// sweep ever noticing.
struct ReportSink<'a, 'b> {
    fleet: &'b Mutex<Fleet<'a>>,
    worker: &'b str,
    lease: u64,
    /// Plan-order manifest, for index lookup.
    ids: &'b [CellId],
    accepted: usize,
    /// Set on the first `Stale` verdict: stop reporting, the rest of
    /// the lease belongs to someone else.
    stale: bool,
    failure: Option<io::Error>,
}

impl CellSink for ReportSink<'_, '_> {
    fn on_cell(&mut self, _plan: &ExperimentPlan, record: &CellRecord) {
        if self.stale || self.failure.is_some() {
            return;
        }
        let request = Request::CellDone {
            worker: self.worker.to_string(),
            lease: self.lease,
            cell: record.id.to_hex(),
            index: record.index,
            output: Box::new(record.output.clone()),
        };
        debug_assert_eq!(self.ids.get(record.index), Some(&record.id));
        match exchange(self.fleet, &request) {
            Ok(Some(Reply::Ack)) => self.accepted += 1,
            Ok(Some(Reply::Stale { .. })) => self.stale = true,
            Ok(Some(Reply::Refused { error })) => {
                self.failure = Some(io::Error::new(ErrorKind::InvalidData, error.to_string()));
            }
            Ok(Some(other)) => {
                self.failure = Some(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("unexpected reply to CellDone: {other:?}"),
                ));
            }
            Ok(None) => {
                self.failure = Some(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "coordinator hung up",
                ));
            }
            Err(e) => self.failure = Some(e),
        }
    }
}
