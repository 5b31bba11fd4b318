//! End-to-end fleet tests over a tiny in-process plan: a coordinator
//! plus in-process workers must produce a table byte-identical to a
//! serial run — including when a worker dies mid-lease and its lease
//! expires, when cells run far longer than the lease timeout, when
//! every connection runs through a flaky chaos
//! proxy, and when the coordinator itself crashes and is recovered
//! from its write-ahead log — with a lease ledger that reconciles
//! exactly, a control plane that refuses hostile clients, and a
//! shutdown that dismisses its workers instead of vanishing under them.

use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dsp_bench::engine::{
    Cell, CellId, CellOutput, CellRecord, CellSink, Collector, ExperimentPlan, SweepRunner,
    SweepSession,
};
use dsp_bench::{experiments, Scale};
use dsp_core::PredictorConfig;
use dsp_fleet::auth::mac64;
use dsp_fleet::protocol::{send, PlanIdentity};
use dsp_fleet::{
    query_results, query_status, run_worker_with, ChaosProxy, ChaosSpec, Coordinator, FleetConfig,
    FleetReport, MessageReader, ProtocolError, Reply, Request, WorkerConfig, PROTOCOL_VERSION,
};
use dsp_trace::Workload;
use dsp_types::hash::mix64;
use dsp_types::SystemConfig;

fn tiny_scale() -> Scale {
    Scale {
        footprint: 1.0 / 256.0,
        trace_warmup: 200,
        trace_measured: 1_000,
        sim_warmup: 20,
        sim_measured: 100,
        sim_runs: 1,
    }
}

/// A 6-cell plan small enough to fleet in-process: two workloads ×
/// (baselines + two predictor points), rendered as one row per point.
fn tiny_plan() -> ExperimentPlan {
    let config = SystemConfig::isca03();
    let mut plan = ExperimentPlan::new("e2e", &["workload", "label", "msgs"], &tiny_scale());
    for workload in [Workload::Oltp, Workload::Apache] {
        plan.push(Cell::Baselines { config, workload });
        for predictor in [PredictorConfig::group(), PredictorConfig::owner()] {
            plan.push(Cell::Tradeoff {
                config,
                workload,
                predictor,
            });
        }
    }
    plan.render(|cells, outputs, table| {
        for (cell, output) in cells.iter().zip(outputs) {
            let workload = cell.workload().expect("trace cell").name().to_string();
            match output {
                CellOutput::Baselines {
                    snooping,
                    directory,
                } => {
                    for point in [snooping, directory] {
                        table.row([
                            workload.clone(),
                            point.label.clone(),
                            point.request_messages.to_string(),
                        ]);
                    }
                }
                CellOutput::Tradeoff(point) => table.row([
                    workload,
                    point.label.clone(),
                    point.request_messages.to_string(),
                ]),
                other => panic!("unexpected output {other:?}"),
            }
        }
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsp-fleet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns one in-process worker thread serving the tiny plan.
fn spawn_worker(
    name: &str,
    addr: &str,
) -> std::thread::JoinHandle<Result<dsp_fleet::worker::WorkerReport, String>> {
    spawn_worker_cfg(WorkerConfig::new(name, addr))
}

/// [`spawn_worker`] with a caller-tuned config (token, reconnect
/// budget).
fn spawn_worker_cfg(
    config: WorkerConfig,
) -> std::thread::JoinHandle<Result<dsp_fleet::worker::WorkerReport, String>> {
    std::thread::spawn(move || {
        run_worker_with(&config, |experiment, _| {
            (experiment == "e2e").then(tiny_plan)
        })
    })
}

/// Blocks for one reply, riding out read timeouts.
fn recv_reply(reader: &mut MessageReader<TcpStream>) -> Reply {
    loop {
        match reader.recv::<Reply>() {
            Ok(Some(reply)) => return reply,
            Ok(None) => panic!("coordinator hung up"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => panic!("recv failed: {e}"),
        }
    }
}

/// Runs `cells` of `plan` in memory, as a worker's lease session
/// would, and returns their records in plan order.
fn run_cells(plan: &ExperimentPlan, cells: &[CellId]) -> Vec<CellRecord> {
    struct Records(Vec<CellRecord>);
    impl CellSink for Records {
        fn on_cell(&mut self, _plan: &ExperimentPlan, record: &CellRecord) {
            self.0.push(record.clone());
        }
    }
    let mut records = Records(Vec::new());
    SweepSession::new(plan)
        .cells(cells.to_vec())
        .run(&mut [&mut records]);
    records.0.sort_by_key(|record| record.index);
    records.0
}

/// Sends one cell's `CellDone` under `lease` and returns the reply.
fn report_cell(
    stream: &mut TcpStream,
    reader: &mut MessageReader<TcpStream>,
    worker: &str,
    lease: u64,
    record: &CellRecord,
) -> Reply {
    send(
        stream,
        &Request::CellDone {
            worker: worker.into(),
            lease,
            cell: record.id.to_hex(),
            index: record.index,
            output: Box::new(record.output.clone()),
        },
    )
    .expect("report");
    recv_reply(reader)
}

/// The v2 handshake for hand-rolled test clients: Hello → Challenge →
/// Auth → Welcome. Returns the issued session id and the plan identity.
fn client_handshake(
    stream: &mut TcpStream,
    reader: &mut MessageReader<TcpStream>,
    name: &str,
    token: &str,
    resume: Option<u64>,
) -> (u64, PlanIdentity) {
    send(
        stream,
        &Request::Hello {
            worker: name.into(),
            proto: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    let Reply::Challenge { nonce } = recv_reply(reader) else {
        panic!("expected Challenge");
    };
    send(
        stream,
        &Request::Auth {
            worker: name.into(),
            mac: mac64(token, nonce),
            session: resume,
        },
    )
    .expect("auth");
    match recv_reply(reader) {
        Reply::Welcome {
            session, identity, ..
        } => (session, identity),
        other => panic!("expected Welcome, got {other:?}"),
    }
}

/// Happy path: two workers, byte-identical table, reconciled ledger,
/// no expiries — and the coordinator keeps answering status/results
/// queries after the sweep finishes.
#[test]
fn fleet_matches_serial_and_serves_results() {
    let dir = fresh_dir("happy");
    let serial = SweepRunner::serial().run(&tiny_plan()).to_csv();

    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.lease_cells = 2;
    config.poll_ms = 20;
    config.timeout_ms = 60_000;
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();

    let workers: Vec<_> = (1..=2)
        .map(|i| spawn_worker(&format!("w{i}"), &addr))
        .collect();
    let report = coordinator
        .wait(Duration::from_secs(120))
        .expect("fleet completes");

    assert_eq!(report.csv, serial, "fleet table must be byte-identical");
    assert!(
        report.reconciled,
        "ledger must reconcile: {:?}",
        report.counters
    );
    assert_eq!(report.cells, 6);
    assert_eq!(report.counters.leases_expired, 0);
    assert_eq!(report.counters.cells_completed, 6);

    // The service still answers observers after completion.
    let status = query_status(&addr).expect("status");
    assert!(status.complete);
    assert_eq!(status.completed_cells, 6);
    assert!(status.leases.is_empty(), "no lease survives completion");
    let page = query_results(&addr, 0, 4).expect("first page");
    assert_eq!(page.cells.len(), 4);
    assert!(page
        .cells
        .iter()
        .all(|c| c.state == "done" && c.worker.is_some()));
    let tail = query_results(&addr, 4, 100).expect("tail page");
    assert_eq!(tail.cells.len(), 2);
    assert_eq!(tail.start, 4);

    let mut worker_cells = 0;
    for worker in workers {
        worker_cells += worker.join().expect("join").expect("worker ok").cells;
    }
    // Work stealing may let two workers race the same cell (the loser's
    // report folds away as a duplicate), so the tally is a floor.
    assert!(worker_cells >= 6, "every cell was streamed by some worker");
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutting a coordinator down the moment its sweep completes (what
/// `repro fleet --workers 0` does) must still dismiss every worker with
/// `Shutdown`: each exits within 2 s of completion, without a single
/// reconnect attempt.
#[test]
fn shutdown_right_after_completion_dismisses_workers() {
    let dir = fresh_dir("drain");
    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    // One-cell leases: whoever does not hold the last cell is told to
    // Wait and is asleep between requests when the sweep completes.
    config.lease_cells = 1;
    config.poll_ms = 20;
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();

    let workers: Vec<_> = (1..=2)
        .map(|i| spawn_worker(&format!("w{i}"), &addr))
        .collect();
    coordinator
        .wait(Duration::from_secs(120))
        .expect("fleet completes");
    let completed = Instant::now();
    coordinator.shutdown();
    for worker in workers {
        let report = worker.join().expect("join").expect("worker ok");
        assert!(
            completed.elapsed() < Duration::from_secs(2),
            "worker exited {:?} after completion",
            completed.elapsed()
        );
        assert_eq!(report.reconnects, 0, "{report:?}");
        assert_eq!(
            report.connect_attempts, 1,
            "no reconnect attempt: {report:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A handshake in flight when the sweep finishes ends in a dismissal,
/// not a reset: a raw client that sent only `Hello` before completion
/// still has its connection served through the shutdown drain, gets
/// `Welcome` for its `Auth` and `Shutdown` for its first `Lease`.
#[test]
fn handshake_in_flight_at_completion_is_dismissed() {
    let dir = fresh_dir("drain-hello");
    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.poll_ms = 20;
    // The drain lasts at most one lease timeout: far longer than the
    // pause below.
    config.timeout_ms = 60_000;
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("read timeout");
    let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
    let late = "late";
    send(
        &mut stream,
        &Request::Hello {
            worker: late.into(),
            proto: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    let Reply::Challenge { nonce } = recv_reply(&mut reader) else {
        panic!("expected Challenge");
    };

    let worker = spawn_worker("w1", &addr);
    coordinator
        .wait(Duration::from_secs(120))
        .expect("fleet completes");
    worker.join().expect("join").expect("worker ok");

    // A coordinator that does not wait for this connection stops within
    // one connection read timeout (500 ms) of the shutdown; give it far
    // longer than that before the handshake goes on.
    let shutdown = std::thread::spawn(move || coordinator.shutdown());
    let paused = Instant::now();
    while !shutdown.is_finished() && paused.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        !shutdown.is_finished(),
        "the coordinator stopped with a handshake still open"
    );
    send(
        &mut stream,
        &Request::Auth {
            worker: late.into(),
            mac: mac64("", nonce),
            session: None,
        },
    )
    .expect("auth");
    assert!(
        matches!(recv_reply(&mut reader), Reply::Welcome { .. }),
        "expected Welcome"
    );
    send(
        &mut stream,
        &Request::Lease {
            worker: late.into(),
        },
    )
    .expect("lease");
    let reply = recv_reply(&mut reader);
    assert!(
        matches!(reply, Reply::Shutdown),
        "expected Shutdown, got {reply:?}"
    );
    shutdown.join().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four timing-sim cells of fig7's shape, each much slower than a tiny
/// plan's cells: long enough that a lease timeout can sit well below a
/// single cell's run time.
fn slow_plan() -> ExperimentPlan {
    let scale = Scale {
        footprint: 1.0 / 8.0,
        trace_warmup: 1_000,
        trace_measured: 1_000,
        sim_warmup: 500,
        sim_measured: 4_000,
        sim_runs: 1,
    };
    let mut plan = experiments::fig7_plan(&scale);
    plan.cells.truncate(4);
    plan
}

/// Heartbeats, not finished cells, keep a lease alive: with a lease
/// timeout at least 5× shorter than the shortest cell, no cell can
/// finish inside one timeout, yet the fleet must finish byte-identical
/// to serial without a single expiry.
#[test]
fn lease_timeout_far_below_cell_time_still_finishes() {
    /// Timestamps each finished cell of a serial session.
    struct Stamps(Collector, Vec<Instant>);
    impl CellSink for Stamps {
        fn on_cell(&mut self, plan: &ExperimentPlan, record: &CellRecord) {
            self.1.push(Instant::now());
            self.0.on_cell(plan, record);
        }
    }

    let dir = fresh_dir("slow");
    let plan = slow_plan();
    let started = Instant::now();
    let mut stamps = Stamps(Collector::new(plan.len()), Vec::new());
    SweepSession::new(&plan).run(&mut [&mut stamps]);
    let serial_time = started.elapsed();
    let shortest = std::iter::once(started)
        .chain(stamps.1.iter().copied())
        .zip(&stamps.1)
        .map(|(from, to)| to.duration_since(from))
        .min()
        .expect("cells ran");
    let serial = plan
        .render_outputs(&stamps.0.into_outputs().expect("every cell"))
        .to_csv();

    let timeout_ms = (shortest.as_millis() / 5) as u64;
    assert!(
        timeout_ms >= 50,
        "the shortest cell took {shortest:?}; the test needs >= 250ms cells so a 5x shorter \
         timeout stays above scheduler jitter"
    );
    let mut config = FleetConfig::new("slow", "tiny", &dir);
    config.lease_cells = 2;
    config.poll_ms = 10;
    config.timeout_ms = timeout_ms;
    let coordinator = Coordinator::start(slow_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();
    let workers: Vec<_> = (1..=2)
        .map(|i| {
            let config = WorkerConfig::new(&format!("w{i}"), &addr);
            std::thread::spawn(move || {
                run_worker_with(&config, |experiment, _| {
                    (experiment == "slow").then(slow_plan)
                })
            })
        })
        .collect();
    let report = coordinator
        .wait(Duration::from_secs(30) + serial_time * 4)
        .expect("fleet completes with a lease timeout below the cell time");

    assert_eq!(report.csv, serial, "fleet table must be byte-identical");
    assert!(report.reconciled, "ledger: {:?}", report.counters);
    assert_eq!(
        report.counters.leases_expired, 0,
        "heartbeats must keep every lease alive ({timeout_ms}ms timeout): {:?}",
        report.counters
    );
    for worker in workers {
        worker.join().expect("join").expect("worker ok");
    }
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failure injection: a rogue client takes a lease, runs two cells,
/// reports only one, and silently dies. The fleet must still finish:
/// the dead lease expires, its unreported cells — the one the rogue ran
/// but never reported included — are re-run by honest workers, and the
/// merged table is still byte-identical to serial.
#[test]
fn killed_worker_lease_expires_and_its_unreported_cell_is_re_run() {
    let dir = fresh_dir("kill");
    let plan = tiny_plan();
    let serial = SweepRunner::serial().run(&plan).to_csv();

    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.lease_cells = 3;
    config.poll_ms = 50;
    config.timeout_ms = 1_500;
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();

    // The rogue: speak the protocol by hand so the death is surgical.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
    let (_, identity) = client_handshake(&mut stream, &mut reader, "rogue", "", None);
    assert_eq!(identity.cells, 6);
    send(
        &mut stream,
        &Request::Lease {
            worker: "rogue".into(),
        },
    )
    .expect("lease request");
    let Reply::Grant { lease, cells } = recv_reply(&mut reader) else {
        panic!("expected Grant");
    };
    assert_eq!(cells.len(), 3);
    let granted: Vec<CellId> = cells
        .iter()
        .map(|text| CellId::from_hex(text).expect("granted id"))
        .collect();

    // Run the first two cells exactly as a real worker would...
    let records = run_cells(&plan, &granted[..2]);
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].id, granted[0]);

    // ...report only the first, then die without a word.
    let reply = report_cell(&mut stream, &mut reader, "rogue", lease, &records[0]);
    assert!(matches!(reply, Reply::Ack), "{reply:?}");
    drop(reader);
    drop(stream);

    // Two honest workers finish the sweep around the corpse.
    let workers: Vec<_> = (1..=2)
        .map(|i| spawn_worker(&format!("w{i}"), &addr))
        .collect();
    let report = coordinator
        .wait(Duration::from_secs(120))
        .expect("fleet completes despite the dead lease");

    assert_eq!(report.csv, serial, "fleet table must be byte-identical");
    assert!(
        report.reconciled,
        "ledger must reconcile: {:?}",
        report.counters
    );
    assert!(
        report.counters.leases_expired >= 1,
        "the rogue's lease must expire: {:?}",
        report.counters
    );
    // The rogue delivered only the cell it reported; the one it ran but
    // never reported was re-run by an honest worker.
    let page = query_results(&addr, 0, 100).expect("results");
    for (i, id) in granted.iter().enumerate() {
        let cell = page
            .cells
            .iter()
            .find(|cell| cell.cell == id.to_hex())
            .expect("granted cell listed");
        assert_eq!(cell.state, "done");
        assert_eq!(
            cell.worker.as_deref() == Some("rogue"),
            i == 0,
            "granted cell {i} accepted from {:?}",
            cell.worker
        );
    }
    for worker in workers {
        worker.join().expect("join").expect("worker ok");
    }
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Only the session that holds a lease keeps it alive: a second
/// authenticated client heartbeating someone else's lease — even under
/// the holder's name — is answered `Stale`, and the silent holder's
/// lease still expires.
#[test]
fn heartbeat_for_another_sessions_lease_is_stale() {
    let dir = fresh_dir("foreign-heartbeat");
    let serial = SweepRunner::serial().run(&tiny_plan()).to_csv();

    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.lease_cells = 3;
    config.poll_ms = 20;
    config.timeout_ms = 300;
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();
    let connect = || {
        let stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let reader = MessageReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    };

    // The holder takes a lease, then falls silent with its connection
    // still open.
    let (mut holder, mut holder_reader) = connect();
    client_handshake(&mut holder, &mut holder_reader, "holder", "", None);
    send(
        &mut holder,
        &Request::Lease {
            worker: "holder".into(),
        },
    )
    .expect("lease request");
    let Reply::Grant { lease, .. } = recv_reply(&mut holder_reader) else {
        panic!("expected Grant");
    };

    // Another client keeps heartbeating that lease until it expires.
    let (mut intruder, mut intruder_reader) = connect();
    client_handshake(&mut intruder, &mut intruder_reader, "intruder", "", None);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        send(
            &mut intruder,
            &Request::Heartbeat {
                worker: "holder".into(),
                lease,
            },
        )
        .expect("heartbeat");
        let reply = recv_reply(&mut intruder_reader);
        assert!(
            matches!(reply, Reply::Stale { lease: l } if l == lease),
            "a foreign heartbeat must be Stale, got {reply:?}"
        );
        let status = query_status(&addr).expect("status");
        if status.counters.leases_expired >= 1 {
            assert!(
                status.leases.iter().all(|l| l.lease != lease),
                "the holder's lease must be gone: {:?}",
                status.leases
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the holder's lease never expired"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop((holder, holder_reader, intruder, intruder_reader));

    let workers: Vec<_> = (1..=2)
        .map(|i| spawn_worker(&format!("w{i}"), &addr))
        .collect();
    let report = coordinator
        .wait(Duration::from_secs(120))
        .expect("fleet completes");
    assert_eq!(report.csv, serial, "fleet table must be byte-identical");
    assert!(report.reconciled, "ledger: {:?}", report.counters);
    for worker in workers {
        worker.join().expect("join").expect("worker ok");
    }
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reconnect-and-resume: a client that loses TCP mid-lease
/// re-authenticates with the same `SessionId`, keeps the lease (no
/// expiry), reports the rest of its cells, and completes normally.
#[test]
fn reconnect_resumes_session_and_keeps_the_lease() {
    let dir = fresh_dir("resume");
    let plan = tiny_plan();
    let serial = SweepRunner::serial().run(&plan).to_csv();

    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.lease_cells = 3;
    config.poll_ms = 20;
    // Expiry must not be what saves this test: the lease has to
    // survive because the session was re-adopted, not because it timed
    // out and was re-leased.
    config.timeout_ms = 60_000;
    config.token = "sesame".into();
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();

    // First connection: authenticate, lease three cells, run them, and
    // report one.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
    let (session, _) = client_handshake(&mut stream, &mut reader, "lazarus", "sesame", None);
    send(
        &mut stream,
        &Request::Lease {
            worker: "lazarus".into(),
        },
    )
    .expect("lease request");
    let Reply::Grant { lease, cells } = recv_reply(&mut reader) else {
        panic!("expected Grant");
    };
    assert_eq!(cells.len(), 3);
    let granted: Vec<CellId> = cells
        .iter()
        .map(|text| CellId::from_hex(text).expect("granted id"))
        .collect();
    // The whole lease runs, but only the first cell's report makes it
    // out before the network dies.
    let records = run_cells(&plan, &granted);
    assert_eq!(records.len(), 3);
    let reply = report_cell(&mut stream, &mut reader, "lazarus", lease, &records[0]);
    assert!(matches!(reply, Reply::Ack), "{reply:?}");

    // The network dies.
    drop(reader);
    drop(stream);

    // Second connection, same session: the lease must still be ours.
    let mut stream = TcpStream::connect(&addr).expect("reconnect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
    let (resumed, _) =
        client_handshake(&mut stream, &mut reader, "lazarus", "sesame", Some(session));
    assert_eq!(resumed, session, "the session id must survive reconnect");
    send(
        &mut stream,
        &Request::Heartbeat {
            worker: "lazarus".into(),
            lease,
        },
    )
    .expect("heartbeat");
    assert!(
        matches!(recv_reply(&mut reader), Reply::Ack),
        "a re-adopted lease must heartbeat as live, not Stale"
    );

    // Report the rest of the lease on the resumed session.
    for record in &records[1..] {
        let reply = report_cell(&mut stream, &mut reader, "lazarus", lease, record);
        assert!(matches!(reply, Reply::Ack), "{reply:?}");
    }
    send(
        &mut stream,
        &Request::Complete {
            worker: "lazarus".into(),
            lease,
        },
    )
    .expect("complete");
    assert!(matches!(recv_reply(&mut reader), Reply::Ack));
    drop(reader);
    drop(stream);

    // Honest workers mop up the other half of the plan.
    let mut worker_config = WorkerConfig::new("w1", &addr);
    worker_config.token = "sesame".into();
    let worker = spawn_worker_cfg(worker_config);
    let report = coordinator
        .wait(Duration::from_secs(120))
        .expect("fleet completes");

    assert_eq!(report.csv, serial, "fleet table must be byte-identical");
    assert!(report.reconciled, "ledger: {:?}", report.counters);
    assert_eq!(
        report.counters.leases_expired, 0,
        "re-adoption, not expiry, must carry the lease: {:?}",
        report.counters
    );
    assert_eq!(report.counters.sessions_resumed, 1);
    assert_eq!(report.counters.leases_readopted, 1);
    worker.join().expect("join").expect("worker ok");
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos: every worker connection runs through a seeded flaky proxy
/// that injects delays, stalls, and mid-message disconnects — the
/// fleet must still finish byte-identical with a reconciled ledger,
/// riding reconnect-and-resume.
#[test]
fn chaos_proxied_fleet_still_matches_serial() {
    let dir = fresh_dir("chaos");
    let serial = SweepRunner::serial().run(&tiny_plan()).to_csv();

    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.lease_cells = 2;
    config.poll_ms = 20;
    config.timeout_ms = 4_000;
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let spec = ChaosSpec {
        seed: 0xc4a05,
        delay_every: 5,
        delay_max_ms: 8,
        stall_every: 37,
        stall_ms: 60,
        disconnect_every: 7,
        max_disconnects: 8,
    };
    let proxy = ChaosProxy::start(coordinator.addr(), spec).expect("proxy starts");
    let proxy_addr = proxy.addr().to_string();

    let workers: Vec<_> = (1..=3)
        .map(|i| spawn_worker(&format!("w{i}"), &proxy_addr))
        .collect();
    let report = coordinator
        .wait(Duration::from_secs(180))
        .expect("fleet completes under chaos");

    assert_eq!(report.csv, serial, "fleet table must be byte-identical");
    assert!(report.reconciled, "ledger: {:?}", report.counters);
    assert_eq!(report.cells, 6);
    assert!(
        proxy.disconnects() >= 1,
        "the chaos spec should have torn at least one connection \
         ({} connections, {} disconnects)",
        proxy.connections(),
        proxy.disconnects()
    );
    let mut reconnects = 0;
    for worker in workers {
        reconnects += worker.join().expect("join").expect("worker ok").reconnects;
    }
    assert!(
        reconnects >= 1,
        "some worker must have resumed its session: {:?}",
        report.counters
    );
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Blocks until `<dir>/coordinator.log` contains every one of `needles`.
fn wait_for_log(dir: &Path, needles: &[&str]) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let log = std::fs::read_to_string(dir.join("coordinator.log")).unwrap_or_default();
        if needles.iter().all(|needle| log.contains(needle)) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "coordinator log never showed {needles:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs the tiny plan on two workers and shuts the coordinator down
/// cold mid-sweep, leaving its WAL in `dir`.
///
/// The crash waits until both workers are authenticated: a worker that
/// never joined exits with `Err` by `run_worker`'s contract, while one
/// that joined and then lost the coordinator exits cleanly.
fn crash_mid_sweep(dir: &Path) {
    let mut config = FleetConfig::new("e2e", "tiny", dir);
    config.lease_cells = 2;
    config.poll_ms = 20;
    config.timeout_ms = 60_000;
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();

    // Workers with a short reconnect budget, so they give up quickly
    // once the coordinator is gone.
    let workers: Vec<_> = (1..=2)
        .map(|i| {
            let mut config = WorkerConfig::new(&format!("w{i}"), &addr);
            config.connect_timeout_ms = 800;
            spawn_worker_cfg(config)
        })
        .collect();

    // Crash once both workers joined and the sweep is demonstrably
    // mid-flight.
    wait_for_log(dir, &["worker w1 authenticated", "worker w2 authenticated"]);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "no progress before crash point");
        if let Ok(status) = query_status(&addr) {
            if status.completed_cells >= 1 {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    coordinator.shutdown();
    for worker in workers {
        worker
            .join()
            .expect("join")
            .expect("survivors exit cleanly");
    }
}

/// Recovers the coordinator from `dir` and finishes the sweep with two
/// fresh workers.
fn recover_and_finish(dir: &Path) -> FleetReport {
    let mut config = FleetConfig::new("e2e", "tiny", dir);
    config.lease_cells = 2;
    config.poll_ms = 20;
    config.timeout_ms = 60_000;
    let recovered = Coordinator::recover(tiny_plan(), config).expect("recovery from WAL");
    let addr = recovered.addr().to_string();
    let workers: Vec<_> = (1..=2)
        .map(|i| spawn_worker(&format!("w{i}"), &addr))
        .collect();
    let report = recovered
        .wait(Duration::from_secs(120))
        .expect("recovered fleet completes");
    for worker in workers {
        worker.join().expect("join").expect("worker ok");
    }
    recovered.shutdown();
    report
}

/// Coordinator crash recovery: kill the coordinator mid-sweep, then
/// `recover` from the WAL in the same directory. The recovered fleet
/// finishes the plan byte-identical to serial without re-running cells
/// the WAL accepted, and the ledger still reconciles.
#[test]
fn crashed_coordinator_recovers_from_wal() {
    let dir = fresh_dir("recover");
    let serial = SweepRunner::serial().run(&tiny_plan()).to_csv();
    crash_mid_sweep(&dir);
    let report = recover_and_finish(&dir);

    assert_eq!(report.csv, serial, "fleet table must be byte-identical");
    assert!(report.reconciled, "ledger: {:?}", report.counters);
    assert_eq!(report.cells, 6);
    assert!(
        report.counters.wal_events_replayed >= 1,
        "recovery must have replayed the WAL: {:?}",
        report.counters
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash that tears the WAL mid-`CellDone`: the torn line (and
/// everything after it) is lost, so recovery finds that cell still
/// leased to an orphan, expires the orphan, and the cell is re-run —
/// the WAL is the fleet's only file besides the text log, and nothing
/// else needs healing.
#[test]
fn torn_cell_done_is_re_run_after_recovery() {
    let dir = fresh_dir("torn-wal");
    let serial = SweepRunner::serial().run(&tiny_plan()).to_csv();
    crash_mid_sweep(&dir);

    // Workers keep no files: the fleet directory holds exactly the
    // coordinator's text log and its WAL.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fleet dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    names.sort();
    assert_eq!(names, ["coordinator.log", "e2e.wal.jsonl"]);

    // Cut the WAL in the middle of its last CellDone line.
    let wal = dir.join("e2e.wal.jsonl");
    let text = std::fs::read_to_string(&wal).expect("read WAL");
    let start = text
        .match_indices("{\"CellDone\"")
        .map(|(at, _)| at)
        .last()
        .expect("the WAL holds a CellDone");
    let end = start + text[start..].find('\n').expect("terminated line");
    std::fs::write(&wal, &text[..(start + end) / 2]).expect("tear WAL");

    let report = recover_and_finish(&dir);
    assert_eq!(report.csv, serial, "fleet table must be byte-identical");
    assert!(report.reconciled, "ledger: {:?}", report.counters);
    assert!(
        report.counters.leases_expired >= 1,
        "the torn cell's lease must be expired as an orphan: {:?}",
        report.counters
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile clients: random bytes, truncated JSON, well-formed nonsense,
/// unauthenticated requests, version skew, and a wrong token all get a
/// typed refusal (or a dropped connection) — and an honest fleet on the
/// same coordinator still finishes byte-identical afterwards.
#[test]
fn hostile_clients_are_refused_and_the_fleet_survives() {
    let dir = fresh_dir("fuzz");
    let serial = SweepRunner::serial().run(&tiny_plan()).to_csv();

    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.lease_cells = 2;
    config.poll_ms = 20;
    config.timeout_ms = 60_000;
    config.token = "sesame".into();
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();

    // Seeded garbage: raw bytes, some with newlines, then hang up.
    let mut x = 0x5eed_f00du64;
    for conn in 0..4u64 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let mut bytes = Vec::new();
        for _ in 0..64 {
            x = mix64(x ^ conn);
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        bytes.push(b'\n');
        let _ = stream.write_all(&bytes);
    }
    // Truncated JSON, then EOF mid-line.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let _ = stream.write_all(b"{\"type\":\"Hello\",\"worker\":\"trunc");
    }
    // Well-formed JSON that is not a Request: a typed Malformed refusal
    // comes back before the coordinator hangs up.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
        stream.write_all(b"{\"bogus\": 1}\n").expect("write");
        assert!(matches!(
            recv_reply(&mut reader),
            Reply::Refused {
                error: ProtocolError::Malformed { .. }
            }
        ));
    }
    // Unauthenticated Lease: refused, not granted.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
        send(
            &mut stream,
            &Request::Lease {
                worker: "sneak".into(),
            },
        )
        .expect("lease");
        assert!(matches!(
            recv_reply(&mut reader),
            Reply::Refused {
                error: ProtocolError::AuthFailure { .. }
            }
        ));
    }
    // Version skew: refused with both versions named.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
        send(
            &mut stream,
            &Request::Hello {
                worker: "relic".into(),
                proto: PROTOCOL_VERSION + 1,
            },
        )
        .expect("hello");
        match recv_reply(&mut reader) {
            Reply::Refused {
                error:
                    ProtocolError::VersionSkew {
                        coordinator,
                        client,
                    },
            } => {
                assert_eq!(coordinator, PROTOCOL_VERSION);
                assert_eq!(client, PROTOCOL_VERSION + 1);
            }
            other => panic!("expected VersionSkew, got {other:?}"),
        }
    }
    // Wrong token: the challenge response does not verify.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = MessageReader::new(stream.try_clone().expect("clone"));
        send(
            &mut stream,
            &Request::Hello {
                worker: "imposter".into(),
                proto: PROTOCOL_VERSION,
            },
        )
        .expect("hello");
        let Reply::Challenge { nonce } = recv_reply(&mut reader) else {
            panic!("expected Challenge");
        };
        send(
            &mut stream,
            &Request::Auth {
                worker: "imposter".into(),
                mac: mac64("wrong-token", nonce),
                session: None,
            },
        )
        .expect("auth");
        assert!(matches!(
            recv_reply(&mut reader),
            Reply::Refused {
                error: ProtocolError::AuthFailure { .. }
            }
        ));
    }

    // After all that abuse, an honest fleet still works.
    let workers: Vec<_> = (1..=2)
        .map(|i| {
            let mut config = WorkerConfig::new(&format!("w{i}"), &addr);
            config.token = "sesame".into();
            spawn_worker_cfg(config)
        })
        .collect();
    let report = coordinator
        .wait(Duration::from_secs(120))
        .expect("fleet completes");
    assert_eq!(report.csv, serial, "fleet table must be byte-identical");
    assert!(report.reconciled, "ledger: {:?}", report.counters);
    for worker in workers {
        worker.join().expect("join").expect("worker ok");
    }
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker whose local plan disagrees with the coordinator's (here: a
/// different seed, which cell ids alone cannot detect) must refuse to
/// lease instead of corrupting the sweep.
#[test]
fn mismatched_plan_identity_is_refused() {
    let dir = fresh_dir("mismatch");
    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.poll_ms = 20;
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();

    let worker_config = WorkerConfig::new("skewed", &addr);
    let err = run_worker_with(&worker_config, |_, _| {
        let mut plan = tiny_plan();
        plan.seed ^= 0xdead;
        Some(plan)
    })
    .expect_err("a skewed plan must be refused");
    assert!(
        err.contains("identity mismatch"),
        "error must name the mismatch: {err}"
    );
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
