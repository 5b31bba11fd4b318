//! End-to-end fleet tests over a tiny in-process plan: a coordinator
//! plus in-process workers must produce a table byte-identical to a
//! serial run — including when a worker dies mid-lease and its journal
//! is harvested, when every connection runs through a flaky chaos
//! proxy, and when the coordinator itself crashes and is recovered
//! from its write-ahead log — with a lease ledger that reconciles
//! exactly and a control plane that refuses hostile clients.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dsp_bench::engine::{
    harvest_journal, Cell, CellId, CellOutput, ExperimentPlan, SweepRunner, SweepSession,
};
use dsp_bench::Scale;
use dsp_core::PredictorConfig;
use dsp_fleet::auth::mac64;
use dsp_fleet::protocol::{send, PlanIdentity};
use dsp_fleet::{
    query_results, query_status, run_worker_with, ChaosProxy, ChaosSpec, Coordinator, FleetConfig,
    MessageReader, ProtocolError, Reply, Request, WorkerConfig, PROTOCOL_VERSION,
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
    dir: &std::path::Path,
) -> std::thread::JoinHandle<Result<dsp_fleet::worker::WorkerReport, String>> {
    spawn_worker_cfg(WorkerConfig::new(name, addr, dir))
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
        .map(|i| spawn_worker(&format!("w{i}"), &addr, &dir))
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

/// Failure injection: a rogue client takes a lease, journals two cells,
/// reports only one, and silently dies. The fleet must still finish —
/// the journaled-but-unreported cell is harvested (not re-run under a
/// new name), the rest are re-leased — and the merged table is still
/// byte-identical to serial.
#[test]
fn killed_worker_is_harvested_and_reassigned() {
    let dir = fresh_dir("kill");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let plan = tiny_plan();
    let serial = SweepRunner::serial().run(&plan).to_csv();
    let manifest = CellId::assign(&plan.cells);

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
    let Reply::Grant {
        lease,
        cells,
        journal,
    } = recv_reply(&mut reader)
    else {
        panic!("expected Grant");
    };
    assert_eq!(cells.len(), 3);
    let granted: Vec<CellId> = cells
        .iter()
        .map(|text| CellId::from_hex(text).expect("granted id"))
        .collect();

    // Journal the first two cells exactly as a real worker would...
    let journal_path = dir.join(&journal);
    SweepSession::new(&plan)
        .cells(granted[..2].to_vec())
        .checkpoint(&journal_path)
        .run(&mut [])
        .expect("rogue session");
    let records = harvest_journal(&plan, &journal_path).expect("read own journal");
    assert_eq!(records.len(), 2);

    // ...report only the first, then die without a word.
    let (id, index, output) = records
        .iter()
        .find(|(id, _, _)| *id == granted[0])
        .cloned()
        .expect("first granted cell journaled");
    assert_eq!(manifest[index], id);
    send(
        &mut stream,
        &Request::CellDone {
            worker: "rogue".into(),
            lease,
            cell: id.to_hex(),
            index,
            output: Box::new(output),
        },
    )
    .expect("report");
    assert!(matches!(recv_reply(&mut reader), Reply::Ack));
    drop(reader);
    drop(stream);

    // Two honest workers finish the sweep around the corpse.
    let workers: Vec<_> = (1..=2)
        .map(|i| spawn_worker(&format!("w{i}"), &addr, &dir))
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
    assert!(
        report.counters.cells_harvested >= 1,
        "the journaled-but-unreported cell must be harvested: {:?}",
        report.counters
    );
    for worker in workers {
        worker.join().expect("join").expect("worker ok");
    }
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reconnect-and-resume: a client that loses TCP mid-lease but kept
/// its journal re-authenticates with the same `SessionId`, keeps the
/// lease (no expiry, no harvest), resumes from its journal without
/// re-running the journaled cell, and completes normally.
#[test]
fn reconnect_resumes_session_and_keeps_the_lease() {
    let dir = fresh_dir("resume");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let plan = tiny_plan();
    let serial = SweepRunner::serial().run(&plan).to_csv();

    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.lease_cells = 3;
    config.poll_ms = 20;
    // Expiry must not be what saves this test: the lease has to
    // survive because the session was re-adopted, not because it timed
    // out and was harvested.
    config.timeout_ms = 60_000;
    config.token = "sesame".into();
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();

    // First connection: authenticate, lease three cells, journal and
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
    let Reply::Grant {
        lease,
        cells,
        journal,
    } = recv_reply(&mut reader)
    else {
        panic!("expected Grant");
    };
    assert_eq!(cells.len(), 3);
    let granted: Vec<CellId> = cells
        .iter()
        .map(|text| CellId::from_hex(text).expect("granted id"))
        .collect();
    // Journal the whole lease (as a real worker session would), but
    // only the first cell's report makes it out before the network
    // dies.
    let journal_path = dir.join(&journal);
    SweepSession::new(&plan)
        .cells(granted.clone())
        .checkpoint(&journal_path)
        .run(&mut [])
        .expect("lease session");
    let records = harvest_journal(&plan, &journal_path).expect("journal");
    assert_eq!(records.len(), 3);
    let (id, index, output) = records
        .iter()
        .find(|(id, _, _)| *id == granted[0])
        .cloned()
        .expect("first granted cell journaled");
    send(
        &mut stream,
        &Request::CellDone {
            worker: "lazarus".into(),
            lease,
            cell: id.to_hex(),
            index,
            output: Box::new(output),
        },
    )
    .expect("report");
    assert!(matches!(recv_reply(&mut reader), Reply::Ack));

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

    // Resume the sweep from the journal: every journaled cell replays,
    // nothing re-runs.
    let session_report = SweepSession::new(&plan)
        .cells(granted.clone())
        .checkpoint(&journal_path)
        .resume(true)
        .run(&mut [])
        .expect("resumed session");
    assert_eq!(
        session_report.replayed, 3,
        "journaled cells must not re-run"
    );
    assert_eq!(session_report.executed, 0);
    let records = harvest_journal(&plan, &journal_path).expect("journal");
    assert_eq!(records.len(), 3);
    for (id, index, output) in records {
        if id == granted[0] {
            continue; // already reported on the first connection
        }
        send(
            &mut stream,
            &Request::CellDone {
                worker: "lazarus".into(),
                lease,
                cell: id.to_hex(),
                index,
                output: Box::new(output),
            },
        )
        .expect("report");
        assert!(matches!(recv_reply(&mut reader), Reply::Ack));
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
    let mut worker_config = WorkerConfig::new("w1", &addr, &dir);
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
        .map(|i| spawn_worker(&format!("w{i}"), &proxy_addr, &dir))
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

/// Coordinator crash recovery: kill the coordinator mid-sweep, then
/// `recover` from the WAL + journals in the same directory. The
/// recovered fleet finishes the plan byte-identical to serial without
/// re-running already-journaled cells, and the ledger still reconciles.
#[test]
fn crashed_coordinator_recovers_from_wal() {
    let dir = fresh_dir("recover");
    let plan = tiny_plan();
    let serial = SweepRunner::serial().run(&plan).to_csv();

    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.lease_cells = 2;
    config.poll_ms = 20;
    config.timeout_ms = 60_000;
    let coordinator = Coordinator::start(tiny_plan(), config).expect("coordinator starts");
    let addr = coordinator.addr().to_string();

    // Workers with a short reconnect budget, so they give up quickly
    // once the coordinator is gone.
    let workers: Vec<_> = (1..=2)
        .map(|i| {
            let mut config = WorkerConfig::new(&format!("w{i}"), &addr, &dir);
            config.connect_timeout_ms = 800;
            spawn_worker_cfg(config)
        })
        .collect();

    // Crash once the sweep is demonstrably mid-flight.
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

    // Recover from the WAL in the same directory and finish the sweep.
    let mut config = FleetConfig::new("e2e", "tiny", &dir);
    config.lease_cells = 2;
    config.poll_ms = 20;
    config.timeout_ms = 60_000;
    let recovered = Coordinator::recover(tiny_plan(), config).expect("recovery from WAL");
    let addr = recovered.addr().to_string();
    let workers: Vec<_> = (1..=2)
        .map(|i| spawn_worker(&format!("w{i}"), &addr, &dir))
        .collect();
    let report = recovered
        .wait(Duration::from_secs(120))
        .expect("recovered fleet completes");

    assert_eq!(report.csv, serial, "fleet table must be byte-identical");
    assert!(report.reconciled, "ledger: {:?}", report.counters);
    assert_eq!(report.cells, 6);
    assert!(
        report.counters.wal_events_replayed >= 1,
        "recovery must have replayed the WAL: {:?}",
        report.counters
    );
    for worker in workers {
        worker.join().expect("join").expect("worker ok");
    }
    recovered.shutdown();
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
            let mut config = WorkerConfig::new(&format!("w{i}"), &addr, &dir);
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

    let worker_config = WorkerConfig::new("skewed", &addr, &dir);
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
