//! `repro` — regenerate the paper's tables and figures.
//!
//! ```bash
//! repro <experiment> [--scale quick|standard|paper] [--out DIR] [--threads N]
//!                    [--shard i/N | --cells HEX,HEX,...] [--checkpoint FILE] [--resume]
//! repro merge <experiment> [--scale ...] [--out DIR] JOURNAL...
//! repro plan <experiment> [--scale ...]
//! repro fleet <experiment> [--scale ...] [--workers N] [--kill-one]
//!                          [--dir DIR] [--lease-cells N] [--lease-timeout-ms MS] [--port P]
//!                          [--token T] [--chaos SEED] [--crash-after N] [--recover]
//! repro worker --connect HOST:PORT [--name W] [--dir DIR] [--threads N] [--token T]
//! repro fleet-status --connect HOST:PORT [--start I] [--limit N]
//! repro fleet-bench [--scale ...] [--out DIR]
//!
//! experiments: table2 fig2 fig3 fig4 fig5 fig6a fig6b fig6c fig7 fig8
//!              ablations extensions scaling claims bandwidth degraded
//!              verify sweep-bench all
//! ```
//!
//! Each experiment prints an aligned text table and writes a CSV with
//! the same rows under the output directory (created if absent). All
//! experiments run on one [`SweepRunner`], so `repro all` generates
//! each workload trace once and shares it across every table and
//! figure.
//!
//! Long or multi-machine runs use the session flags: `--shard i/N`
//! executes only the cells assigned to shard `i` of `N` and journals
//! them (default `<out>/<experiment>.shard<i>of<N>.jsonl`, override
//! with `--checkpoint`); `--checkpoint FILE` alone journals a full run;
//! `--resume` re-runs only the cells missing from an existing journal;
//! and `repro merge <experiment> J1 J2 ...` folds shard journals into
//! the table, byte-identical to an unsharded run.
//!
//! `sweep-bench` times the sweep engine serial vs parallel vs 2-process
//! sharded and writes `BENCH_sweep.json` to the output directory. The
//! repository's benchmark proper — fig7 misses/s and per-layer time at
//! standard scale — lives in `perfbench/` (see its README).
//!
//! `degraded` is the fault-injection sweep: predictor policies ×
//! toxic severity on the paper's 16-node crossbar and a 64-node 2D
//! mesh. Besides the usual table/CSV it re-runs the whole plan on a
//! fresh runner and requires byte-identical output (the
//! `toxic_deterministic` marker), blasts a harsh chain through a mesh
//! [`dsp_sim::Topology`] to exercise the per-link conservation ledger
//! (the `link_reconciled` marker), and writes `BENCH_degraded.json`.
//!
//! The fleet commands wrap [`dsp_fleet`]: `repro fleet` runs a
//! coordinator plus N local single-threaded workers over one
//! experiment and requires the merged table to be byte-identical to a
//! serial run (the `fleet_identical` marker) with a reconciled lease
//! ledger (`leases_reconciled`), even when `--kill-one` murders a
//! worker mid-lease; `repro worker` joins any coordinator by address;
//! `repro plan` prints the `CellId` manifest leases are accounted
//! against; `repro fleet-status` polls a running coordinator; and
//! `repro fleet-bench` times 1/2/4-worker fleets (plus a 3-worker
//! fleet under the chaos proxy) against a serial run, writing
//! `BENCH_fleet.json`.
//!
//! The hardened control plane rides the same command: `--token T`
//! closes the fleet to clients that cannot answer the shared-token
//! challenge; `--chaos SEED` routes every worker through a seeded
//! flaky-TCP proxy (delays, stalls, mid-message disconnects) and still
//! demands `fleet_identical`; `--crash-after N` stops the coordinator
//! cold once N cells are complete, leaving the write-ahead log and
//! journals on disk; a second invocation with `--recover` (same
//! experiment, scale, and `--dir`) rebuilds the ledger from the WAL,
//! prints `recovered_from_wal: true`, and finishes the sweep —
//! byte-identical to the serial reference.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dsp_analysis::TextTable;
use dsp_bench::engine::{
    manifest_digest, merge_journals, CellId, ProgressSink, ShardSpec, SweepRunner,
};
use dsp_bench::{experiments, Scale};
use dsp_fleet::{
    query_results, query_status, run_worker, ChaosProxy, ChaosSpec, Coordinator, FleetConfig,
    WorkerConfig,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <experiment> [--scale quick|standard|paper] [--out DIR] [--threads N]\n\
         \x20      [--shard i/N | --cells HEX,HEX,...] [--checkpoint FILE] [--resume]\n\
         \x20      repro merge <experiment> [--scale ...] [--out DIR] JOURNAL...\n\
         \x20      repro plan <experiment> [--scale ...]\n\
         \x20      repro fleet <experiment> [--scale ...] [--workers N] [--kill-one]\n\
         \x20                  [--dir DIR] [--lease-cells N] [--lease-timeout-ms MS] [--port P]\n\
         \x20                  [--token T] [--chaos SEED] [--crash-after N] [--recover]\n\
         \x20      repro worker --connect HOST:PORT [--name W] [--dir DIR] [--threads N] \
         [--token T]\n\
         \x20      repro fleet-status --connect HOST:PORT [--start I] [--limit N]\n\
         \x20      repro fleet-bench [--scale ...] [--out DIR]\n\
         experiments: {} sweep-bench all",
        experiments::ALL_EXPERIMENTS.join(" ")
    );
    ExitCode::FAILURE
}

fn save(out_dir: &Path, name: &str, contents: &str) -> bool {
    let path = out_dir.join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("error: cannot write {}: {e}", path.display());
        false
    } else {
        println!("[saved {}]", path.display());
        true
    }
}

fn save_csv(out_dir: &Path, name: &str, table: &TextTable) -> bool {
    save(out_dir, &format!("{name}.csv"), &table.to_csv())
}

/// Times the `fig5` plan split across two single-threaded `repro`
/// child processes (shard 1/2 + shard 2/2, each journaling to a temp
/// file) against one single-threaded in-process run, merges the
/// journals, and verifies the merged table is byte-identical. This is
/// the multi-machine trajectory row: on a 1-CPU container the two
/// processes time-slice, so the interesting numbers are the
/// journal/merge overhead and, on real multi-core runners, the
/// process-level speedup.
fn sharded_sweep_bench(scale: &Scale, scale_name: &str) -> Result<(usize, f64, f64, bool), String> {
    use std::process::{Command, Stdio};

    let exe = std::env::current_exe().map_err(|e| format!("cannot locate repro binary: {e}"))?;
    let dir = std::env::temp_dir().join(format!("dsp-sharded-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let journals: Vec<PathBuf> = (1..=2)
        .map(|i| dir.join(format!("shard{i}.jsonl")))
        .collect();

    // Single-process reference (one thread, like each shard process).
    let plan = experiments::fig5_plan(scale);
    let started = Instant::now();
    let reference = SweepRunner::serial().run(&plan);
    let single_s = started.elapsed().as_secs_f64();

    // Two concurrent shard processes.
    let started = Instant::now();
    let mut children = Vec::new();
    for (i, journal) in journals.iter().enumerate() {
        let child = Command::new(&exe)
            .args([
                "fig5",
                "--scale",
                scale_name,
                "--shard",
                &format!("{}/2", i + 1),
                "--checkpoint",
            ])
            .arg(journal)
            .args(["--threads", "1", "--out"])
            .arg(&dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn shard process: {e}"))?;
        children.push(child);
    }
    for mut child in children {
        let status = child
            .wait()
            .map_err(|e| format!("shard process failed: {e}"))?;
        if !status.success() {
            return Err(format!("shard process exited with {status}"));
        }
    }
    let two_process_s = started.elapsed().as_secs_f64();

    let merged = merge_journals(&plan, &journals).map_err(|e| format!("merge failed: {e}"))?;
    let byte_identical = merged.to_csv() == reference.to_csv();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((plan.len(), single_s, two_process_s, byte_identical))
}

/// Times `table2 + fig5` (the Table 2 / Figure 5 reproduction path)
/// three ways — seed-style (one thread, traces shared within a driver
/// but regenerated across drivers, as the pre-engine code behaved),
/// the engine single-threaded, and the engine parallel — plus the
/// 2-process sharded run, and returns the `BENCH_sweep.json` payload.
fn sweep_bench(scale: &Scale, scale_name: &str, threads: Option<usize>) -> Result<String, String> {
    let plans = || {
        vec![
            experiments::table2_plan(scale),
            experiments::fig5_plan(scale),
        ]
    };
    let cells: usize = plans().iter().map(|p| p.len()).sum();
    let time_with = |runner: &SweepRunner| {
        let started = Instant::now();
        let tables: Vec<TextTable> = plans().iter().map(|p| runner.run(p)).collect();
        (started.elapsed().as_secs_f64(), tables)
    };

    // Seed-style: each driver generated every workload's trace afresh
    // (one generation per workload per driver) — a fresh runner per
    // plan reproduces exactly that cost.
    let (seed_s, seed_tables) = {
        let started = Instant::now();
        let tables: Vec<TextTable> = plans()
            .iter()
            .map(|p| SweepRunner::serial().run(p))
            .collect();
        (started.elapsed().as_secs_f64(), tables)
    };
    let (serial_s, serial_tables) = time_with(&SweepRunner::serial());
    let parallel_runner = match threads {
        Some(n) => SweepRunner::with_threads(n),
        None => SweepRunner::new(),
    };
    let (parallel_s, parallel_tables) = time_with(&parallel_runner);

    for (s, p) in seed_tables
        .iter()
        .zip(&parallel_tables)
        .chain(serial_tables.iter().zip(&parallel_tables))
    {
        assert_eq!(
            s.to_csv(),
            p.to_csv(),
            "parallel output must be byte-identical to serial"
        );
    }

    let threads = parallel_runner.threads();
    let speedup = seed_s / parallel_s.max(1e-9);
    println!(
        "sweep-bench: {cells} cells | seed-style serial {seed_s:.2}s ({:.1} cells/s) | \
         shared-trace serial {serial_s:.2}s | parallel[{threads}] {parallel_s:.2}s \
         ({:.1} cells/s) | speedup {speedup:.2}x",
        cells as f64 / seed_s.max(1e-9),
        cells as f64 / parallel_s.max(1e-9),
    );

    let (shard_cells, single_s, two_process_s, merge_identical) =
        sharded_sweep_bench(scale, scale_name)?;
    println!(
        "sharded-sweep: fig5 ({shard_cells} cells) | single-process {single_s:.2}s | \
         2-process {two_process_s:.2}s | merge byte-identical: {merge_identical}",
    );
    if !merge_identical {
        return Err("sharded merge diverged from the single-process table".to_string());
    }

    Ok(format!(
        "{{\n  \"benchmark\": \"sweep\",\n  \"plans\": [\"table2\", \"fig5\"],\n  \
         \"cells\": {cells},\n  \"threads\": {threads},\n  \
         \"seed_style_serial_wall_s\": {seed_s:.4},\n  \
         \"shared_trace_serial_wall_s\": {serial_s:.4},\n  \
         \"parallel_wall_s\": {parallel_s:.4},\n  \
         \"seed_style_cells_per_s\": {:.3},\n  \"parallel_cells_per_s\": {:.3},\n  \
         \"speedup\": {speedup:.3},\n  \"byte_identical\": true,\n  \
         \"sharded-sweep\": {{\n    \"plan\": \"fig5\",\n    \"cells\": {shard_cells},\n    \
         \"shards\": 2,\n    \"single_process_wall_s\": {single_s:.4},\n    \
         \"two_process_wall_s\": {two_process_s:.4},\n    \
         \"process_speedup\": {:.3},\n    \"merge_byte_identical\": {merge_identical}\n  }}\n}}\n",
        cells as f64 / seed_s.max(1e-9),
        cells as f64 / parallel_s.max(1e-9),
        single_s / two_process_s.max(1e-9),
    ))
}

/// Runs the `degraded` fault-injection sweep and machine-checks its two
/// robustness invariants before reporting anything.
///
/// Determinism: the plan is executed twice — once on the shared runner
/// and once on a fresh serial runner with its own trace cache and toxic
/// RNG streams — and the rendered tables must be byte-identical
/// (`toxic_deterministic`). Conservation: every timing run already
/// asserts its per-link ledger at end of run, and a direct harsh-chain
/// blast through a 64-node mesh [`Topology`] re-checks the ledger here
/// on the exact severity the sweep's worst row uses
/// (`link_reconciled`). Returns the rendered table and the
/// `BENCH_degraded.json` payload.
fn degraded_bench(scale: &Scale, runner: &SweepRunner) -> Result<(TextTable, String), String> {
    use dsp_interconnect::{Arrivals, InterconnectConfig, Message, Topology};
    use dsp_types::{DestSet, MessageClass, NodeId, SystemConfig};

    let plan = experiments::degraded_plan(scale);
    let outputs = runner.run_cells(&plan);
    let table = plan.render_outputs(&outputs);
    let rerun = SweepRunner::serial().run(&plan);
    let toxic_deterministic = table.to_csv() == rerun.to_csv();
    if !toxic_deterministic {
        return Err(
            "repeated seeded toxic runs diverged — fault injection is not \
                    deterministic under seed"
                .to_string(),
        );
    }

    // Conservation blast: the sweep's harshest case (severe chain on
    // the 64-node mesh), driven directly so the ledger is visibly the
    // thing under test rather than a side effect of a timing run.
    let cases = experiments::degraded_cases();
    let harsh = cases
        .iter()
        .rev()
        .find(|c| c.severity == "severe")
        .expect("degraded grid has a severe case");
    let nodes = harsh.nodes;
    let sys = SystemConfig::builder()
        .num_nodes(nodes)
        .build()
        .map_err(|e| format!("invalid smoke config: {e}"))?;
    let mut topo = Topology::new(
        InterconnectConfig::isca03(),
        nodes,
        &harsh.topology,
        &harsh.toxics,
        experiments::SEED,
    );
    let mut arrivals = Arrivals::new();
    let mut injected = 0u64;
    let mut delivered = 0u64;
    for i in 0..20_000usize {
        let src = NodeId::new(i % nodes);
        let dests = match i % 3 {
            0 => DestSet::single(NodeId::new((i / 3) % nodes)),
            1 => DestSet::from_bits(0b1_0110_1011 << (i % 40)),
            _ => sys.broadcast_set_w::<1>().without(src),
        };
        let class = MessageClass::ALL[i % MessageClass::COUNT];
        topo.send_into(7 * i as u64, &Message { src, dests, class }, &mut arrivals);
        injected += dests.len() as u64;
        delivered += arrivals.len() as u64;
    }
    topo.assert_conserved();
    let ledger = topo.link_stats();
    let link_reconciled =
        ledger.is_reconciled() && ledger.injected == injected && ledger.delivered == delivered;
    if !link_reconciled {
        return Err(format!(
            "link ledger out of balance: {injected} injected, {delivered} delivered, \
             ledger {}i/{}d",
            ledger.injected, ledger.delivered
        ));
    }
    println!(
        "degraded: toxic_deterministic: true | link_reconciled: true \
         ({injected} msgs conserved through the severe {} chain)",
        harsh.network(),
    );

    // JSON rows mirror the table but keep raw runtimes alongside the
    // group-normalized percentage, so successive PRs can diff both.
    let mut rows = Vec::new();
    let mut baseline = 1u64;
    for (case, output) in cases.iter().zip(&outputs) {
        if case.severity == "none" {
            baseline = output.runtime()[1].report.runtime_ns.max(1);
        }
        for point in output.runtime() {
            let misses = point.report.measured_misses.max(1) as f64;
            rows.push(format!(
                "    {{\n      \"severity\": \"{}\",\n      \"network\": \"{}\",\n      \
                 \"nodes\": {},\n      \"protocol\": \"{}\",\n      \
                 \"runtime_ns\": {},\n      \"runtime_vs_clean_directory\": {:.1},\n      \
                 \"avg_miss_latency_ns\": {:.0},\n      \"bytes_per_miss\": {:.0},\n      \
                 \"retries_per_miss\": {:.3}\n    }}",
                case.severity,
                case.network(),
                case.nodes,
                point.label,
                point.report.runtime_ns,
                100.0 * point.report.runtime_ns as f64 / baseline as f64,
                point.report.avg_miss_latency_ns(),
                point.report.bytes_per_miss(),
                point.report.retries as f64 / misses,
            ));
        }
    }
    let json = format!(
        "{{\n  \"benchmark\": \"degraded\",\n  \"cells\": {},\n  \
         \"toxic_deterministic\": {toxic_deterministic},\n  \
         \"link_reconciled\": {link_reconciled},\n  \
         \"conservation_smoke\": {{\n    \"network\": \"{}\",\n    \"severity\": \"severe\",\n    \
         \"messages\": 20000,\n    \"injected\": {injected},\n    \"delivered\": {delivered}\n  \
         }},\n  \"rows\": [\n{}\n  ]\n}}\n",
        plan.len(),
        harsh.network(),
        rows.join(",\n"),
    );
    Ok((table, json))
}

/// Parsed command line.
struct Args {
    /// First positional: experiment name or a subcommand (`merge`,
    /// `plan`, `fleet`, `worker`, `fleet-status`, `fleet-bench`).
    experiment: String,
    /// For `merge`/`plan`/`fleet`: the experiment name (second
    /// positional).
    merge_target: Option<String>,
    /// For `merge`: journal paths (remaining positionals).
    journals: Vec<PathBuf>,
    scale: Scale,
    scale_name: String,
    out_dir: PathBuf,
    threads: Option<usize>,
    shard: Option<ShardSpec>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    /// For `worker`/`fleet-status`: coordinator address.
    connect: Option<String>,
    /// For `worker`: worker name.
    worker_name: Option<String>,
    /// For `worker`/`fleet`: the fleet directory (journals + log).
    fleet_dir: Option<PathBuf>,
    /// For `fleet`: local worker count.
    workers: usize,
    /// For `fleet`: kill one worker mid-lease to exercise
    /// expiry/harvest/re-lease.
    kill_one: bool,
    /// For `fleet`: cells per lease (default scales with the plan).
    lease_cells: Option<usize>,
    /// For `fleet`: lease liveness timeout.
    lease_timeout_ms: Option<u64>,
    /// For `fleet`: coordinator port (0 = ephemeral).
    port: u16,
    /// For `fleet`/`worker`: shared fleet token (empty = open fleet).
    token: String,
    /// For `fleet`: route workers through a seeded flaky-TCP proxy.
    chaos: Option<u64>,
    /// For `fleet`: simulate a coordinator crash after N completed
    /// cells, leaving the WAL and journals for `--recover`.
    crash_after: Option<usize>,
    /// For `fleet`: rebuild the ledger from the WAL + journals in the
    /// fleet directory and finish the sweep.
    recover: bool,
    /// For `fleet-status`: results page start.
    start: usize,
    /// For `fleet-status`: results page size.
    limit: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        experiment: String::new(),
        merge_target: None,
        journals: Vec::new(),
        scale: Scale::standard(),
        scale_name: "standard".to_string(),
        out_dir: PathBuf::from("results"),
        threads: None,
        shard: None,
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
            "--shard" => {
                i += 1;
                let spec = args.get(i).ok_or("--shard needs i/N (e.g. 1/2)")?;
                parsed.shard =
                    Some(ShardSpec::parse(spec).ok_or(format!("bad shard spec '{spec}'"))?);
            }
            "--cells" => {
                i += 1;
                let list = args
                    .get(i)
                    .ok_or("--cells needs a comma-separated hex id list (see `repro plan`)")?;
                parsed.shard =
                    Some(ShardSpec::parse_cells(list).ok_or(format!("bad cell list '{list}'"))?);
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
    parsed.experiment = positionals.next().ok_or("missing experiment name")?;
    match parsed.experiment.as_str() {
        "merge" => {
            parsed.merge_target = Some(positionals.next().ok_or("merge needs an experiment name")?);
            parsed.journals = positionals.map(PathBuf::from).collect();
            if parsed.journals.is_empty() {
                return Err("merge needs at least one journal file".to_string());
            }
        }
        "plan" | "fleet" => {
            let what = parsed.experiment.clone();
            parsed.merge_target = Some(
                positionals
                    .next()
                    .ok_or(format!("{what} needs an experiment name"))?,
            );
            if let Some(extra) = positionals.next() {
                return Err(format!("unexpected argument '{extra}'"));
            }
        }
        _ => {
            if let Some(extra) = positionals.next() {
                return Err(format!("unexpected argument '{extra}'"));
            }
        }
    }
    Ok(parsed)
}

/// Runs `repro merge <experiment> J1 J2 ...`.
fn run_merge(args: &Args) -> ExitCode {
    let name = args.merge_target.as_deref().expect("merge target parsed");
    let Some(plan) = experiments::plan_for(name, &args.scale) else {
        eprintln!("unknown experiment '{name}'");
        return usage();
    };
    let table = match merge_journals(&plan, &args.journals) {
        Ok(table) => table,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{table}");
    println!(
        "[merged {} journal(s) into {} rows]\n",
        args.journals.len(),
        table.len()
    );
    if !save_csv(&args.out_dir, name, &table) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs one experiment through a checkpointed/sharded session. Renders
/// the table only when the session covers the whole plan; a partial
/// shard prints progress and the journal path instead.
fn run_session(name: &str, args: &Args, runner: &SweepRunner) -> Result<(), String> {
    let plan =
        experiments::plan_for(name, &args.scale).ok_or(format!("unknown experiment '{name}'"))?;
    let shard = args.shard.clone().unwrap_or_else(ShardSpec::full);
    let journal = args.checkpoint.clone().unwrap_or_else(|| {
        args.out_dir
            .join(format!("{name}.{}.jsonl", shard.file_stem()))
    });
    let session = runner
        .session(&plan)
        .shard(shard.clone())
        .checkpoint(&journal)
        .resume(args.resume);
    let started = Instant::now();
    let mut progress = ProgressSink::new(session.owned_indices().len());
    let report = session
        .run(&mut [&mut progress])
        .map_err(|e| e.to_string())?;
    println!(
        "[{name} shard {shard}: {} of {} cells owned, replayed {}, executed {} in {:.1}s -> {}]",
        report.owned,
        report.cells,
        report.replayed,
        report.executed,
        started.elapsed().as_secs_f64(),
        journal.display(),
    );
    if shard.is_full() {
        let table = merge_journals(&plan, &[journal]).map_err(|e| e.to_string())?;
        println!("{table}");
        if !save_csv(&args.out_dir, name, &table) {
            return Err("cannot save CSV".to_string());
        }
    } else {
        println!("[partial shard: merge every shard's journal with `repro merge {name} ...`]\n");
    }
    Ok(())
}

/// Runs `repro plan <experiment>`: the `CellId` manifest, one line per
/// cell in plan order — the single source of truth fleet leases are
/// accounted against, and the ids `--cells` accepts.
fn run_plan(args: &Args) -> Result<(), String> {
    let name = args.merge_target.as_deref().expect("plan target parsed");
    let plan =
        experiments::plan_for(name, &args.scale).ok_or(format!("unknown experiment '{name}'"))?;
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
    let mut config = WorkerConfig::new(
        &name,
        connect,
        args.fleet_dir
            .clone()
            .unwrap_or_else(|| args.out_dir.clone()),
    );
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
         {} stolen, {} harvested, {} stale reports",
        c.leases_granted,
        c.leases_completed,
        c.leases_expired,
        c.cells_granted,
        c.cells_completed,
        c.cells_stolen,
        c.cells_harvested,
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
fn spawn_worker_child(
    exe: &Path,
    addr: &str,
    name: &str,
    dir: &Path,
    token: &str,
) -> Result<std::process::Child, String> {
    use std::process::{Command, Stdio};
    let mut command = Command::new(exe);
    command
        .args([
            "worker",
            "--connect",
            addr,
            "--name",
            name,
            "--threads",
            "1",
            "--dir",
        ])
        .arg(dir);
    if !token.is_empty() {
        command.args(["--token", token]);
    }
    command
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn worker {name}: {e}"))
}

/// What one local fleet run produced.
struct FleetOutcome {
    /// The final report — `None` when the run ended in a simulated
    /// coordinator crash (`--crash-after`).
    report: Option<dsp_fleet::FleetReport>,
    /// Whether the merged table matched the serial reference.
    identical: bool,
    /// Which worker (if any) was killed mid-lease.
    killed: Option<String>,
    /// Chaos proxy totals `(connections, disconnects, delays)` when
    /// the run went through one.
    chaos: Option<(u64, u64, u64)>,
}

/// One complete local fleet run: coordinator in-process (fresh or
/// `--recover`ed), `workers` single-threaded `repro worker` children —
/// optionally routed through a seeded chaos proxy — plus optional
/// mid-lease worker kill or simulated coordinator crash.
fn run_fleet_once(
    name: &str,
    args: &Args,
    dir: &Path,
    workers: usize,
    kill_one: bool,
    chaos_seed: Option<u64>,
    reference_csv: &str,
) -> Result<FleetOutcome, String> {
    let plan =
        experiments::plan_for(name, &args.scale).ok_or(format!("unknown experiment '{name}'"))?;
    let cells = plan.len();
    if !args.recover {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut config = FleetConfig::new(name, &args.scale_name, dir);
    config.lease_cells = args
        .lease_cells
        .unwrap_or_else(|| (cells / (workers.max(1) * 2)).clamp(2, 16));
    config.timeout_ms = args.lease_timeout_ms.unwrap_or(5_000);
    config.port = args.port;
    config.token = args.token.clone();
    let coordinator = if args.recover {
        Coordinator::recover(plan, config)
            .map_err(|e| format!("cannot recover coordinator from WAL: {e}"))?
    } else {
        Coordinator::start(plan, config).map_err(|e| format!("cannot start coordinator: {e}"))?
    };
    let addr = coordinator.addr();
    let mut proxy = match chaos_seed {
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
        match chaos_seed {
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
            dir,
            &args.token,
        )?);
    }
    let addr = addr.to_string();

    // Kill a worker the moment it is mid-lease: at least one cell
    // journaled (so harvest has something to recover) and at least one
    // outstanding (so expiry has something to re-lease).
    let mut killed = None;
    if kill_one {
        let deadline = Instant::now() + Duration::from_secs(300);
        'hunt: while Instant::now() < deadline {
            if let Ok(status) = query_status(&addr) {
                if status.complete {
                    println!("[fleet: sweep finished before a mid-lease kill window opened]");
                    break;
                }
                for lease in &status.leases {
                    let index: Option<usize> = lease
                        .worker
                        .strip_prefix('w')
                        .and_then(|n| n.parse::<usize>().ok())
                        .filter(|n| (1..=workers).contains(n));
                    if lease.done >= 1 && lease.outstanding >= 1 {
                        if let Some(index) = index {
                            let _ = children[index - 1].kill();
                            killed = Some(lease.worker.clone());
                            println!(
                                "[fleet: killed {} mid-lease ({} done, {} outstanding on \
                                 lease {})]",
                                lease.worker, lease.done, lease.outstanding, lease.lease
                            );
                            break 'hunt;
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // Simulated coordinator crash: stop serving mid-sweep, leaving the
    // WAL and every journal exactly as a real crash would. The
    // directory is then ready for `repro fleet ... --recover`.
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
            "[fleet: coordinator crashed after >= {limit} cells; WAL and journals left in {}]",
            dir.display()
        );
        return Ok(FleetOutcome {
            report: None,
            identical: false,
            killed,
            chaos: None,
        });
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
    let chaos = proxy
        .as_mut()
        .map(|p| (p.connections(), p.disconnects(), p.delays()));
    let identical = report.csv == reference_csv;
    Ok(FleetOutcome {
        report: Some(report),
        identical,
        killed,
        chaos,
    })
}

/// Runs `repro fleet <experiment>`: serial reference first, then the
/// fleet, then the byte-identity and ledger-reconciliation verdicts.
fn run_fleet(args: &Args) -> Result<(), String> {
    let name = args.merge_target.as_deref().expect("fleet target parsed");
    let plan =
        experiments::plan_for(name, &args.scale).ok_or(format!("unknown experiment '{name}'"))?;
    let reference = SweepRunner::serial().run(&plan);
    let dir = args
        .fleet_dir
        .clone()
        .unwrap_or_else(|| args.out_dir.join(format!("fleet-{name}")));
    let outcome = run_fleet_once(
        name,
        args,
        &dir,
        args.workers,
        args.kill_one,
        args.chaos,
        &reference.to_csv(),
    )?;
    let Some(report) = outcome.report else {
        // Simulated crash: the WAL and journals are the deliverable.
        println!(
            "[fleet: resume with `repro fleet {name} --scale {} --dir {} --recover`]",
            args.scale_name,
            dir.display()
        );
        println!("fleet_crashed: true");
        return Ok(());
    };
    let (identical, killed) = (outcome.identical, outcome.killed);

    println!("{}", report.rendered);
    let c = &report.counters;
    println!(
        "[fleet: {} cells in {:.1}s | leases: {} granted, {} completed, {} expired | \
         cells: {} granted, {} completed, {} stolen, {} harvested, {} stale reports{}]",
        report.cells,
        report.wall_s,
        c.leases_granted,
        c.leases_completed,
        c.leases_expired,
        c.cells_granted,
        c.cells_completed,
        c.cells_stolen,
        c.cells_harvested,
        c.stale_reports,
        match &killed {
            Some(worker) => format!(" | killed {worker} mid-lease"),
            None => String::new(),
        },
    );
    println!(
        "[fleet: {} sessions resumed, {} leases re-adopted, {} WAL events replayed, \
         {} cells recovered | lease size min {} max {} final {}]",
        c.sessions_resumed,
        c.leases_readopted,
        c.wal_events_replayed,
        c.cells_recovered,
        report.lease_sizes.0,
        report.lease_sizes.1,
        report.lease_sizes.2,
    );
    if let Some((connections, disconnects, delays)) = outcome.chaos {
        println!(
            "[chaos: seed {}, {connections} connections, {disconnects} forced disconnects, \
             {delays} injected delays]",
            args.chaos.unwrap_or(0),
        );
    }
    if args.recover {
        println!("recovered_from_wal: true");
    }
    println!("leases_reconciled: {}", report.reconciled);
    println!("fleet_identical: {identical}");
    if !save(&args.out_dir, &format!("{name}.csv"), &report.csv) {
        return Err("cannot save CSV".to_string());
    }
    if !report.reconciled {
        return Err("lease ledger did not reconcile".to_string());
    }
    if !identical {
        return Err("fleet output diverged from the serial reference".to_string());
    }
    Ok(())
}

/// Runs `repro fleet-bench`: fig5 serial vs 1/2/4-worker local fleets,
/// all required byte-identical, written as `BENCH_fleet.json`.
fn fleet_bench(args: &Args) -> Result<String, String> {
    let name = "fig5";
    let plan = experiments::fig5_plan(&args.scale);
    let cells = plan.len();
    let started = Instant::now();
    let reference = SweepRunner::serial().run(&plan);
    let serial_s = started.elapsed().as_secs_f64();
    let reference_csv = reference.to_csv();

    let base = std::env::temp_dir().join(format!("dsp-fleet-bench-{}", std::process::id()));
    let mut rows = Vec::new();
    // 1/2/4 clean fleets for the scaling story, then a 3-worker fleet
    // through the chaos proxy to price the hardening machinery.
    let configs: [(usize, Option<u64>, &str); 4] = [
        (1, None, "1w"),
        (2, None, "2w"),
        (4, None, "4w"),
        (3, Some(7), "chaos"),
    ];
    for (workers, chaos_seed, subdir) in configs {
        let dir = base.join(subdir);
        let outcome = run_fleet_once(name, args, &dir, workers, false, chaos_seed, &reference_csv)?;
        let report = outcome
            .report
            .ok_or_else(|| format!("{workers}-worker bench fleet did not finish"))?;
        let label = match chaos_seed {
            Some(seed) => format!("{workers} worker(s) under chaos seed {seed}"),
            None => format!("{workers} worker(s)"),
        };
        if !outcome.identical {
            return Err(format!("{label}: fleet diverged from the serial table"));
        }
        if !report.reconciled {
            return Err(format!("{label}: fleet ledger did not reconcile"));
        }
        let c = &report.counters;
        println!(
            "fleet-bench: {label} | {cells} cells in {:.2}s (serial {serial_s:.2}s, \
             speedup {:.2}x) | {} leases, {} cells stolen, {} sessions resumed | identical: {}",
            report.wall_s,
            serial_s / report.wall_s.max(1e-9),
            c.leases_granted,
            c.cells_stolen,
            c.sessions_resumed,
            outcome.identical,
        );
        rows.push(format!(
            "    {{\n      \"workers\": {workers},\n      \"chaos_seed\": {},\n      \
             \"wall_s\": {:.4},\n      \"speedup\": {:.3},\n      \"leases_granted\": {},\n      \
             \"leases_completed\": {},\n      \"leases_expired\": {},\n      \
             \"cells_granted\": {},\n      \"cells_completed\": {},\n      \
             \"cells_stolen\": {},\n      \"cells_harvested\": {},\n      \
             \"sessions_resumed\": {},\n      \"leases_readopted\": {},\n      \
             \"wal_events_replayed\": {},\n      \"proxy_disconnects\": {},\n      \
             \"lease_size\": {{\"min\": {}, \"max\": {}, \"final\": {}}},\n      \
             \"byte_identical\": true,\n      \"leases_reconciled\": true\n    }}",
            chaos_seed.map_or("null".to_string(), |s| s.to_string()),
            report.wall_s,
            serial_s / report.wall_s.max(1e-9),
            c.leases_granted,
            c.leases_completed,
            c.leases_expired,
            c.cells_granted,
            c.cells_completed,
            c.cells_stolen,
            c.cells_harvested,
            c.sessions_resumed,
            c.leases_readopted,
            c.wal_events_replayed,
            outcome.chaos.map_or(0, |(_, d, _)| d),
            report.lease_sizes.0,
            report.lease_sizes.1,
            report.lease_sizes.2,
        ));
    }
    let _ = std::fs::remove_dir_all(&base);
    Ok(format!(
        "{{\n  \"benchmark\": \"fleet\",\n  \"plan\": \"{name}\",\n  \"cells\": {cells},\n  \
         \"serial_wall_s\": {serial_s:.4},\n  \"fleets\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "error: cannot create output directory {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::FAILURE;
    }
    if args.experiment == "merge" {
        return run_merge(&args);
    }
    match args.experiment.as_str() {
        "plan" => {
            return match run_plan(&args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "worker" => {
            return match run_worker_cmd(&args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "fleet" => {
            return match run_fleet(&args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "fleet-status" => {
            return match run_fleet_status(&args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "fleet-bench" => {
            return match fleet_bench(&args) {
                Ok(json) => {
                    if save(Path::new("."), "BENCH_fleet.json", &json)
                        && save(&args.out_dir, "BENCH_fleet.json", &json)
                    {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("error: fleet-bench failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let names: Vec<&str> = if args.experiment == "all" {
        experiments::ALL_EXPERIMENTS.to_vec()
    } else if args.experiment == "sweep-bench"
        || experiments::ALL_EXPERIMENTS.contains(&args.experiment.as_str())
    {
        vec![args.experiment.as_str()]
    } else {
        eprintln!("unknown experiment '{}'", args.experiment);
        return usage();
    };
    if args.experiment == "all" && args.checkpoint.is_some() {
        // One shared journal would be truncated (or, with --resume,
        // rejected as a plan mismatch) by every experiment after the
        // first; `all` always journals per experiment under --out.
        eprintln!(
            "error: --checkpoint cannot be combined with 'all'; each experiment journals \
             to <out>/<name>.shard<i>of<N>.jsonl"
        );
        return ExitCode::FAILURE;
    }
    let runner = match args.threads {
        Some(n) => SweepRunner::with_threads(n),
        None => SweepRunner::new(),
    };
    let session_mode = args.shard.is_some() || args.checkpoint.is_some() || args.resume;
    for name in names {
        let started = Instant::now();
        if name == "sweep-bench" {
            let json = match sweep_bench(&args.scale, &args.scale_name, args.threads) {
                Ok(json) => json,
                Err(e) => {
                    eprintln!("error: sweep-bench failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // The perf-trajectory artifact lives at the repo root so
            // successive PRs can diff it; a copy lands in --out too.
            if !save(Path::new("."), "BENCH_sweep.json", &json)
                || !save(&args.out_dir, "BENCH_sweep.json", &json)
            {
                return ExitCode::FAILURE;
            }
            continue;
        }
        if session_mode {
            if let Err(e) = run_session(name, &args, &runner) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            continue;
        }
        if name == "degraded" {
            let (table, json) = match degraded_bench(&args.scale, &runner) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("error: degraded failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{table}");
            println!(
                "[degraded finished in {:.1}s on {} threads]\n",
                started.elapsed().as_secs_f64(),
                runner.threads(),
            );
            if !save(Path::new("."), "BENCH_degraded.json", &json)
                || !save(&args.out_dir, "BENCH_degraded.json", &json)
                || !save_csv(&args.out_dir, "degraded", &table)
            {
                return ExitCode::FAILURE;
            }
            continue;
        }
        let Some(table) = experiments::run_with(name, &args.scale, &runner) else {
            return usage();
        };
        println!("{table}");
        println!(
            "[{} finished in {:.1}s on {} threads, {} traces cached]\n",
            name,
            started.elapsed().as_secs_f64(),
            runner.threads(),
            runner.cached_traces(),
        );
        if !save_csv(&args.out_dir, name, &table) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
