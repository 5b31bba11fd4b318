//! `repro` — regenerate the paper's tables and figures.
//!
//! ```bash
//! repro <experiment> [--scale quick|standard|paper] [--out DIR] [--threads N]
//!                    [--checkpoint FILE] [--resume]
//! repro plan <experiment> [--scale ...]
//! repro fleet <experiment> [--scale ...] [--workers N] [--kill-one]
//!                          [--dir DIR] [--lease-cells N] [--lease-timeout-ms MS] [--port P]
//!                          [--token T] [--chaos SEED] [--crash-after N] [--recover]
//! repro worker --connect HOST:PORT [--name W] [--threads N] [--token T]
//! repro fleet-status --connect HOST:PORT [--start I] [--limit N]
//!
//! experiments: table2 fig2 fig3 fig4 fig5 fig6a fig6b fig6c fig7 fig8
//!              ablations extensions scaling claims bandwidth degraded
//!              verify all
//! ```
//!
//! Each experiment prints an aligned text table and writes a CSV with
//! the same rows under the output directory (created if absent). The
//! names resolve through [`experiments::EXPERIMENTS`]. All experiments
//! run on one [`SweepRunner`], so `repro all` generates each workload
//! trace once and shares it across every table and figure.
//!
//! Long runs can journal every finished cell: `--checkpoint FILE`
//! (default `<out>/<experiment>.jsonl` when only `--resume` is given)
//! writes the journal, and `--resume` re-runs only the cells missing
//! from an existing one, keeping this process's shared trace cache.
//!
//! The fleet commands wrap [`dsp_fleet`], the one way to split a sweep
//! across processes or machines: `repro fleet` runs a coordinator plus
//! N local single-threaded workers over one experiment (`--workers 0`
//! serves only workers started elsewhere) and requires a reconciled
//! lease ledger (`leases_reconciled`), even when `--kill-one` murders a
//! worker mid-lease; `repro worker` joins a coordinator by address (the
//! coordinator listens on 127.0.0.1 only, so a remote worker connects
//! through a tunnel; workers keep no files, so that is all it needs);
//! `repro plan` prints the `CellId` manifest leases are accounted
//! against; and `repro fleet-status` polls a running coordinator. The
//! fleet never runs the plan itself: every cell is executed by a
//! worker.
//!
//! The hardened control plane rides the same command: `--token T`
//! closes the fleet to clients that cannot answer the shared-token
//! challenge; `--chaos SEED` routes every worker through a seeded
//! flaky-TCP proxy (delays, stalls, mid-message disconnects);
//! `--crash-after N` stops the coordinator cold once N cells are
//! complete, leaving the write-ahead log (the coordinator's only
//! durable log, accepted outputs included) on disk; a second
//! invocation with `--recover` (same experiment, scale, and `--dir`)
//! rebuilds the ledger from the WAL, prints `recovered_from_wal: true`,
//! and finishes the sweep.
//!
//! The repository's benchmark — end-to-end and per-layer time of
//! these same plans — lives in `perfbench/` (see its README).

use std::path::{Path, PathBuf};
use std::process::{Child, ExitCode};
use std::time::{Duration, Instant};

use dsp_analysis::TextTable;
use dsp_bench::engine::{
    manifest_digest, merge_journals, CellId, ExperimentPlan, ProgressSink, SweepRunner,
};
use dsp_bench::{experiments, Scale};
use dsp_fleet::{
    query_results, query_status, run_worker, ChaosProxy, ChaosSpec, Coordinator, FleetConfig,
    WorkerConfig,
};

fn usage() -> String {
    format!(
        "usage: repro <experiment> [--scale quick|standard|paper] [--out DIR] [--threads N]\n\
         \x20      [--checkpoint FILE] [--resume]\n\
         \x20      repro plan <experiment> [--scale ...]\n\
         \x20      repro fleet <experiment> [--scale ...] [--workers N] [--kill-one]\n\
         \x20                  [--dir DIR] [--lease-cells N] [--lease-timeout-ms MS] [--port P]\n\
         \x20                  [--token T] [--chaos SEED] [--crash-after N] [--recover]\n\
         \x20      repro worker --connect HOST:PORT [--name W] [--threads N] [--token T]\n\
         \x20      repro fleet-status --connect HOST:PORT [--start I] [--limit N]\n\
         experiments: {} all",
        experiments::names().collect::<Vec<_>>().join(" ")
    )
}

fn save(out_dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    let path = out_dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[saved {}]", path.display());
    Ok(())
}

fn save_csv(out_dir: &Path, name: &str, table: &TextTable) -> Result<(), String> {
    save(out_dir, &format!("{name}.csv"), &table.to_csv())
}
/// Parsed command line.
struct Args {
    /// First positional: an experiment name, `all`, or a subcommand
    /// (`plan`, `fleet`, `worker`, `fleet-status`).
    command: String,
    /// For `plan`/`fleet`: the experiment name (second positional).
    target: Option<String>,
    scale: Scale,
    scale_name: String,
    out_dir: PathBuf,
    threads: Option<usize>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    /// For `worker`/`fleet-status`: coordinator address.
    connect: Option<String>,
    /// For `worker`: worker name.
    worker_name: Option<String>,
    /// For `fleet`: the fleet directory (WAL + log).
    fleet_dir: Option<PathBuf>,
    /// For `fleet`: local worker count.
    workers: usize,
    /// For `fleet`: kill one worker mid-lease to exercise
    /// expiry/re-lease.
    kill_one: bool,
    /// For `fleet`: cells per lease (default scales with the plan).
    lease_cells: Option<usize>,
    /// For `fleet`: lease liveness timeout (default
    /// `FleetConfig::new`'s).
    lease_timeout_ms: Option<u64>,
    /// For `fleet`: coordinator port (0 = ephemeral).
    port: u16,
    /// For `fleet`/`worker`: shared fleet token (empty = open fleet).
    token: String,
    /// For `fleet`: route workers through a seeded flaky-TCP proxy.
    chaos: Option<u64>,
    /// For `fleet`: simulate a coordinator crash after N completed
    /// cells, leaving the WAL for `--recover`.
    crash_after: Option<usize>,
    /// For `fleet`: rebuild the ledger from the WAL in the fleet
    /// directory and finish the sweep.
    recover: bool,
    /// For `fleet-status`: results page start.
    start: usize,
    /// For `fleet-status`: results page size.
    limit: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: String::new(),
        target: None,
        scale: Scale::standard(),
        scale_name: "standard".to_string(),
        out_dir: PathBuf::from("results"),
        threads: None,
        checkpoint: None,
        resume: false,
        connect: None,
        worker_name: None,
        fleet_dir: None,
        workers: 3,
        kill_one: false,
        lease_cells: None,
        lease_timeout_ms: None,
        port: 0,
        token: String::new(),
        chaos: None,
        crash_after: None,
        recover: false,
        start: 0,
        limit: 32,
    };
    let mut positionals: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let name = args.get(i).ok_or("--scale needs a value")?;
                parsed.scale = Scale::parse(name).ok_or(format!("unknown scale '{name}'"))?;
                parsed.scale_name = name.clone();
            }
            "--out" => {
                i += 1;
                let dir = args.get(i).ok_or("--out needs a directory")?;
                parsed.out_dir = PathBuf::from(dir);
            }
            "--threads" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|n| n.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or("--threads needs a positive integer")?;
                parsed.threads = Some(n);
            }
            "--checkpoint" => {
                i += 1;
                let path = args.get(i).ok_or("--checkpoint needs a file path")?;
                parsed.checkpoint = Some(PathBuf::from(path));
            }
            "--resume" => parsed.resume = true,
            "--connect" => {
                i += 1;
                let addr = args.get(i).ok_or("--connect needs host:port")?;
                parsed.connect = Some(addr.clone());
            }
            "--name" => {
                i += 1;
                let name = args.get(i).ok_or("--name needs a worker name")?;
                parsed.worker_name = Some(name.clone());
            }
            "--dir" | "--fleet-dir" => {
                i += 1;
                let dir = args.get(i).ok_or("--dir needs a directory")?;
                parsed.fleet_dir = Some(PathBuf::from(dir));
            }
            "--workers" => {
                i += 1;
                // 0 is allowed: coordinator-only mode, serving workers
                // started elsewhere with `repro worker --connect`.
                parsed.workers = args
                    .get(i)
                    .and_then(|n| n.parse().ok())
                    .ok_or("--workers needs a non-negative integer")?;
            }
            "--kill-one" => parsed.kill_one = true,
            "--lease-cells" => {
                i += 1;
                parsed.lease_cells = Some(
                    args.get(i)
                        .and_then(|n| n.parse().ok())
                        .filter(|n| *n > 0)
                        .ok_or("--lease-cells needs a positive integer")?,
                );
            }
            "--lease-timeout-ms" => {
                i += 1;
                parsed.lease_timeout_ms = Some(
                    args.get(i)
                        .and_then(|n| n.parse().ok())
                        .filter(|n| *n > 0)
                        .ok_or("--lease-timeout-ms needs a positive integer")?,
                );
            }
            "--port" => {
                i += 1;
                parsed.port = args
                    .get(i)
                    .and_then(|n| n.parse().ok())
                    .ok_or("--port needs a port number")?;
            }
            "--token" => {
                i += 1;
                let token = args.get(i).ok_or("--token needs a value")?;
                parsed.token = token.clone();
            }
            "--chaos" => {
                i += 1;
                parsed.chaos = Some(
                    args.get(i)
                        .and_then(|n| n.parse().ok())
                        .ok_or("--chaos needs a u64 seed")?,
                );
            }
            "--crash-after" => {
                i += 1;
                parsed.crash_after = Some(
                    args.get(i)
                        .and_then(|n| n.parse().ok())
                        .ok_or("--crash-after needs a cell count")?,
                );
            }
            "--recover" => parsed.recover = true,
            "--start" => {
                i += 1;
                parsed.start = args
                    .get(i)
                    .and_then(|n| n.parse().ok())
                    .ok_or("--start needs an index")?;
            }
            "--limit" => {
                i += 1;
                parsed.limit = args
                    .get(i)
                    .and_then(|n| n.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or("--limit needs a positive integer")?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            positional => positionals.push(positional.to_string()),
        }
        i += 1;
    }
    let mut positionals = positionals.into_iter();
    parsed.command = positionals.next().ok_or("missing experiment name")?;
    let known = |name: &str| {
        if experiments::names().any(|known| known == name) {
            Ok(())
        } else {
            Err(format!("unknown experiment '{name}'"))
        }
    };
    match parsed.command.as_str() {
        "plan" | "fleet" => {
            let what = parsed.command.clone();
            let target = positionals
                .next()
                .ok_or(format!("{what} needs an experiment name"))?;
            known(&target)?;
            parsed.target = Some(target);
        }
        "worker" if parsed.fleet_dir.is_some() => {
            return Err("worker takes no --dir: workers keep no files".to_string());
        }
        "worker" | "fleet-status" | "all" => {}
        name => known(name)?,
    }
    if let Some(extra) = positionals.next() {
        return Err(format!("unexpected argument '{extra}'"));
    }
    Ok(parsed)
}

/// The plan of an experiment `parse_args` already validated.
fn experiment_plan(name: &str, args: &Args) -> ExperimentPlan {
    experiments::plan_for(name, &args.scale).expect("parse_args validates experiment names")
}

/// Runs one experiment through a checkpointed session, then renders
/// the table from the completed journal.
fn run_session(name: &str, args: &Args, runner: &SweepRunner) -> Result<(), String> {
    let plan = experiment_plan(name, args);
    let journal = args
        .checkpoint
        .clone()
        .unwrap_or_else(|| args.out_dir.join(format!("{name}.jsonl")));
    let session = runner
        .session(&plan)
        .checkpoint(&journal)
        .resume(args.resume);
    let started = Instant::now();
    let mut progress = ProgressSink::new(plan.len());
    let report = session
        .run(&mut [&mut progress])
        .map_err(|e| e.to_string())?;
    println!(
        "[{name}: {} cells, replayed {}, executed {} in {:.1}s -> {}]",
        report.cells,
        report.replayed,
        report.executed,
        started.elapsed().as_secs_f64(),
        journal.display(),
    );
    let table = merge_journals(&plan, &[journal]).map_err(|e| e.to_string())?;
    println!("{table}");
    save_csv(&args.out_dir, name, &table)
}

/// Runs `repro plan <experiment>`: the `CellId` manifest, one line per
/// cell in plan order — the single source of truth fleet leases are
/// accounted against.
fn run_plan(args: &Args) -> Result<(), String> {
    let name = args.target.as_deref().expect("plan target parsed");
    let plan = experiment_plan(name, args);
    let ids = CellId::assign(&plan.cells);
    println!("# {} — {}", name, plan.title);
    println!("# index  cell-id           summary");
    for (index, (id, cell)) in ids.iter().zip(&plan.cells).enumerate() {
        println!("{index:7}  {}  {}", id.to_hex(), cell.summary());
    }
    println!("cells: {}", ids.len());
    println!("seed: {}", plan.seed);
    println!("scale: {}", plan.scale.identity());
    println!("manifest: {:016x}", manifest_digest(&ids));
    Ok(())
}

/// Runs `repro worker --connect HOST:PORT`: joins a coordinator's
/// fleet and works until told to shut down.
fn run_worker_cmd(args: &Args) -> Result<(), String> {
    let connect = args
        .connect
        .as_deref()
        .ok_or("worker needs --connect HOST:PORT")?;
    let name = args
        .worker_name
        .clone()
        .unwrap_or_else(|| format!("w{}", std::process::id()));
    let mut config = WorkerConfig::new(&name, connect);
    config.threads = args.threads.unwrap_or(1);
    config.token = args.token.clone();
    let report = run_worker(&config)?;
    println!(
        "[worker {name}: {} leases completed, {} cells accepted, {} leases went stale, \
         {} reconnects, {} connect attempts]",
        report.leases,
        report.cells,
        report.stale_leases,
        report.reconnects,
        report.connect_attempts
    );
    Ok(())
}

/// Runs `repro fleet-status --connect HOST:PORT`: one status snapshot
/// plus a page of per-cell states from a running coordinator.
fn run_fleet_status(args: &Args) -> Result<(), String> {
    let connect = args
        .connect
        .as_deref()
        .ok_or("fleet-status needs --connect HOST:PORT")?;
    let status = query_status(connect)?;
    println!(
        "{}: {}/{} cells complete{}",
        status.experiment,
        status.completed_cells,
        status.total_cells,
        if status.complete { " (finished)" } else { "" },
    );
    let c = &status.counters;
    println!(
        "leases: {} granted, {} completed, {} expired | cells: {} granted, {} completed, \
         {} stolen, {} stale reports",
        c.leases_granted,
        c.leases_completed,
        c.leases_expired,
        c.cells_granted,
        c.cells_completed,
        c.cells_stolen,
        c.stale_reports,
    );
    for lease in &status.leases {
        println!(
            "  lease {} -> {}: {} outstanding, {} done",
            lease.lease, lease.worker, lease.outstanding, lease.done
        );
    }
    let page = query_results(connect, args.start, args.limit)?;
    println!(
        "cells {}..{} of {}:",
        page.start,
        page.start + page.cells.len(),
        page.total
    );
    for cell in &page.cells {
        match &cell.worker {
            Some(worker) => println!(
                "  {:5}  {}  {:8} {}",
                cell.index, cell.cell, cell.state, worker
            ),
            None => println!("  {:5}  {}  {}", cell.index, cell.cell, cell.state),
        }
    }
    Ok(())
}

/// Spawns one local `repro worker` child against `addr`.
fn spawn_worker_child(exe: &Path, addr: &str, name: &str, token: &str) -> Result<Child, String> {
    use std::process::{Command, Stdio};
    let mut command = Command::new(exe);
    command.args([
        "worker",
        "--connect",
        addr,
        "--name",
        name,
        "--threads",
        "1",
    ]);
    if !token.is_empty() {
        command.args(["--token", token]);
    }
    command
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn worker {name}: {e}"))
}

/// Kills one local worker the moment it is mid-lease: at least one cell
/// reported and at least one outstanding (so expiry has something to
/// re-lease). Returns the killed worker's name.
fn kill_one_mid_lease(addr: &str, children: &mut [Child]) -> Option<String> {
    let deadline = Instant::now() + Duration::from_secs(300);
    while Instant::now() < deadline {
        if let Ok(status) = query_status(addr) {
            if status.complete {
                println!("[fleet: sweep finished before a mid-lease kill window opened]");
                return None;
            }
            for lease in &status.leases {
                let index: Option<usize> = lease
                    .worker
                    .strip_prefix('w')
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|n| (1..=children.len()).contains(n));
                if lease.done >= 1 && lease.outstanding >= 1 {
                    if let Some(index) = index {
                        let _ = children[index - 1].kill();
                        println!(
                            "[fleet: killed {} mid-lease ({} done, {} outstanding on lease {})]",
                            lease.worker, lease.done, lease.outstanding, lease.lease
                        );
                        return Some(lease.worker.clone());
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    None
}

/// Runs `repro fleet <experiment>`: a coordinator in-process (fresh or
/// `--recover`ed) with `--workers` single-threaded `repro worker`
/// children — optionally routed through a seeded chaos proxy, with an
/// optional mid-lease worker kill or simulated coordinator crash — then
/// the ledger-reconciliation verdict. Only the workers run cells.
fn run_fleet(args: &Args) -> Result<(), String> {
    let name = args.target.as_deref().expect("fleet target parsed");
    let plan = experiment_plan(name, args);
    let dir = args
        .fleet_dir
        .clone()
        .unwrap_or_else(|| args.out_dir.join(format!("fleet-{name}")));
    let workers = args.workers;
    let cells = plan.len();
    let mut config = FleetConfig::new(name, &args.scale_name, &dir);
    config.lease_cells = args
        .lease_cells
        .unwrap_or_else(|| (cells / (workers.max(1) * 2)).clamp(2, 16));
    if let Some(timeout_ms) = args.lease_timeout_ms {
        config.timeout_ms = timeout_ms;
    }
    config.port = args.port;
    config.token = args.token.clone();
    let coordinator = if args.recover {
        Coordinator::recover(plan, config)
            .map_err(|e| format!("cannot recover coordinator from WAL: {e}"))?
    } else {
        Coordinator::start(plan, config).map_err(|e| format!("cannot start coordinator: {e}"))?
    };
    let addr = coordinator.addr();
    let mut proxy = match args.chaos {
        Some(seed) => Some(
            ChaosProxy::start(addr, ChaosSpec::from_seed(seed))
                .map_err(|e| format!("cannot start chaos proxy: {e}"))?,
        ),
        None => None,
    };
    // Workers dial the proxy when chaos is on; status polls below go
    // straight to the coordinator — the fault injection is for the
    // fleet under test, not the test harness.
    let worker_addr = proxy
        .as_ref()
        .map_or_else(|| addr.to_string(), |p| p.addr().to_string());
    println!(
        "[fleet: coordinator on {addr}{}{}, {workers} workers, {cells} cells]",
        if args.recover {
            " (recovered from WAL)"
        } else {
            ""
        },
        match args.chaos {
            Some(seed) => format!(", chaos proxy on {worker_addr} (seed {seed})"),
            None => String::new(),
        },
    );

    let exe = std::env::current_exe().map_err(|e| format!("cannot locate repro binary: {e}"))?;
    let mut children = Vec::new();
    for i in 1..=workers {
        children.push(spawn_worker_child(
            &exe,
            &worker_addr,
            &format!("w{i}"),
            &args.token,
        )?);
    }
    let addr = addr.to_string();
    let killed = if args.kill_one {
        kill_one_mid_lease(&addr, &mut children)
    } else {
        None
    };

    // Simulated coordinator crash: stop serving mid-sweep, leaving the
    // WAL exactly as a real crash would. The directory is then ready
    // for `repro fleet ... --recover`.
    if let Some(limit) = args.crash_after {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            if Instant::now() >= deadline {
                return Err(format!(
                    "--crash-after {limit}: the fleet never reached {limit} completed cells"
                ));
            }
            match query_status(&addr) {
                Ok(status) if status.complete => {
                    println!("[fleet: sweep finished before the crash point; crashing anyway]");
                    break;
                }
                Ok(status) if status.completed_cells >= limit => break,
                _ => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        coordinator.shutdown();
        for mut child in children {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(proxy) = proxy.as_mut() {
            proxy.shutdown();
        }
        println!(
            "[fleet: coordinator crashed after >= {limit} cells; WAL left in {}]",
            dir.display()
        );
        println!(
            "[fleet: resume with `repro fleet {name} --scale {} --dir {} --recover`]",
            args.scale_name,
            dir.display()
        );
        println!("fleet_crashed: true");
        return Ok(());
    }

    let report = coordinator.wait(Duration::from_secs(600))?;
    for (i, mut child) in children.into_iter().enumerate() {
        let worker = format!("w{}", i + 1);
        let status = child
            .wait()
            .map_err(|e| format!("worker {worker} failed: {e}"))?;
        if !status.success() && killed.as_deref() != Some(worker.as_str()) {
            return Err(format!("worker {worker} exited with {status}"));
        }
    }
    coordinator.shutdown();

    println!("{}", report.rendered);
    let c = &report.counters;
    println!(
        "[fleet: {} cells in {:.1}s | leases: {} granted, {} completed, {} expired | \
         cells: {} granted, {} completed, {} stolen, {} stale reports{}]",
        report.cells,
        report.wall_s,
        c.leases_granted,
        c.leases_completed,
        c.leases_expired,
        c.cells_granted,
        c.cells_completed,
        c.cells_stolen,
        c.stale_reports,
        match &killed {
            Some(worker) => format!(" | killed {worker} mid-lease"),
            None => String::new(),
        },
    );
    println!(
        "[fleet: {} sessions resumed, {} leases re-adopted, {} WAL events replayed | \
         lease size min {} max {} final {}]",
        c.sessions_resumed,
        c.leases_readopted,
        c.wal_events_replayed,
        report.lease_sizes.0,
        report.lease_sizes.1,
        report.lease_sizes.2,
    );
    if let (Some(seed), Some(proxy)) = (args.chaos, proxy.as_ref()) {
        println!(
            "[chaos: seed {seed}, {} connections, {} forced disconnects, {} injected delays]",
            proxy.connections(),
            proxy.disconnects(),
            proxy.delays(),
        );
    }
    if args.recover {
        println!("recovered_from_wal: true");
    }
    println!("leases_reconciled: {}", report.reconciled);
    save(&args.out_dir, &format!("{name}.csv"), &report.csv)?;
    if !report.reconciled {
        return Err("lease ledger did not reconcile".to_string());
    }
    Ok(())
}

/// Runs one experiment, or every experiment for `all`, on one shared
/// runner. The session flags journal each run; otherwise each table is
/// rendered in memory.
fn run_experiments(args: &Args) -> Result<(), String> {
    let all = args.command == "all";
    if all && args.checkpoint.is_some() {
        // One shared journal would be truncated (or, with --resume,
        // rejected as a plan mismatch) by every experiment after the
        // first; `all` always journals per experiment under --out.
        return Err(
            "--checkpoint cannot be combined with 'all'; with --resume each experiment \
                    journals to <out>/<name>.jsonl"
                .to_string(),
        );
    }
    let names: Vec<&str> = if all {
        experiments::names().collect()
    } else {
        vec![args.command.as_str()]
    };
    let runner = match args.threads {
        Some(n) => SweepRunner::with_threads(n),
        None => SweepRunner::new(),
    };
    let session_mode = args.checkpoint.is_some() || args.resume;
    for name in names {
        if session_mode {
            run_session(name, args, &runner)?;
            continue;
        }
        let started = Instant::now();
        let table = runner.run(&experiment_plan(name, args));
        println!("{table}");
        println!(
            "[{} finished in {:.1}s on {} threads, {} traces cached]\n",
            name,
            started.elapsed().as_secs_f64(),
            runner.threads(),
            runner.cached_traces(),
        );
        save_csv(&args.out_dir, name, &table)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| {
            format!(
                "cannot create output directory {}: {e}",
                args.out_dir.display()
            )
        })
        .and_then(|()| match args.command.as_str() {
            "plan" => run_plan(&args),
            "fleet" => run_fleet(&args),
            "worker" => run_worker_cmd(&args),
            "fleet-status" => run_fleet_status(&args),
            _ => run_experiments(&args),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
