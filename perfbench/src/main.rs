//! The repository benchmark: one workload per process, one thread.
//!
//! ```text
//! perfbench --workload tradeoff|timing-16|timing-wide [--seed N] [--seconds S]
//!           [--trace 0|1] [--size standard|quick]
//! perfbench --workload W --write-expected [--seed N] [--size S]
//! perfbench --calibrate
//! ```
//!
//! `--trace 0` repeats set-up, evaluation, render and check for
//! `--seconds` and prints the end-to-end metrics (medians over the
//! repetitions, times scaled to a nominal host; see [`host`]).
//! `--trace 1` pairs an untraced with a traced evaluation and prints the
//! per-layer metrics. `--calibrate` prints the host reference kernels'
//! times. The last line of standard output is
//! one JSON object: `correct`, `attempted` and `failed` (plan cells
//! checked and failed) and `metrics`.
//!
//! `--write-expected` stores the engine's serial output for the
//! workload's plans under [`EXPECTED_DIR`], the reference the output
//! check compares against. Run from the root of the checkout.

mod check;
mod host;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dsp_bench::engine::{CellOutput, ExperimentPlan, SweepRunner};

use check::{check_cells, expected_path, joined_csv, CellCheck};
use traced::Layers;
use workload::{Inputs, SetupTimes, Size, Workload};

/// Repetitions a run makes even when they overrun `--seconds`.
const MIN_REPS: usize = 2;
/// Set-up samples behind the reported `setup_s` median.
const MIN_SETUPS: usize = 5;
/// Largest share of the traced evaluation its spans may leave uncovered.
const MAX_UNATTRIBUTED: f64 = 0.05;
/// Where the stored tables live, relative to the checkout root.
const EXPECTED_DIR: &str = "perfbench/expected";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    write_expected: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Tradeoff,
        seed: dsp_bench::experiments::SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Standard,
        write_expected: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            args.write_expected = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = parse_seed(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => args.size = Size::parse(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Prints every metric by name, then the JSON result line.
fn report(correct: bool, check: CellCheck, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("cells_failed {} / cells {}", check.failed, check.cells);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.cells,
        check.failed,
        body.join(", ")
    );
}

/// The stored table for this run, or `None` (the check is skipped).
fn load_expected(args: &Args) -> Option<String> {
    let path = expected_path(Path::new(EXPECTED_DIR), args.workload, args.size, args.seed);
    let table = std::fs::read_to_string(&path).ok();
    match &table {
        Some(_) => println!("stored table: {}", path.display()),
        None => println!(
            "stored table: none for seed {} (stored-table check skipped)",
            args.seed
        ),
    }
    table
}

fn stored_verdict(expected: &Option<String>, check: CellCheck) -> &'static str {
    match (expected, check.stored_mismatches) {
        (None, _) => "skipped",
        (Some(_), 0) => "pass",
        (Some(_), _) => "FAIL",
    }
}

fn render(plans: &[ExperimentPlan], outputs: &[Vec<CellOutput>]) -> String {
    let tables: Vec<_> = plans
        .iter()
        .zip(outputs)
        .map(|(plan, out)| plan.render_outputs(out))
        .collect();
    joined_csv(&tables)
}

/// `--trace 0`: repeated set-up + evaluation + render + check. Each
/// repetition's times are divided by the mean host slowdown sampled over
/// it (see [`host`]); the samples are not timed.
fn run_untraced(args: &Args, plans: &[ExperimentPlan]) -> (bool, CellCheck, Vec<Metric>) {
    let expected = load_expected(args);
    let misses: u64 = plans.iter().map(workload::misses).sum();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut walls, mut setups, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut host_walls, mut slowdowns, mut iterations) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    let mut first_peak: Option<f64> = None;
    let mut total = CellCheck::default();
    let mut host = host::Reference::new();
    host.sample();
    loop {
        let iteration = Instant::now();
        let opened = host.mark();
        let t = Instant::now();
        let inputs = Inputs::derive(plans, &mut SetupTimes::default());
        let setup = t.elapsed();
        host.sample();
        let setup_slowdown = host.mean_since(opened);
        let mut eval = Duration::ZERO;
        let mut outputs: Vec<Vec<CellOutput>> = Vec::with_capacity(plans.len());
        for plan in plans {
            let mut cells = Vec::with_capacity(plan.cells.len());
            for cell in &plan.cells {
                let t = Instant::now();
                cells.push(workload::evaluate_cell(plan, cell, &inputs));
                eval += t.elapsed();
                host.sample_if_due();
            }
            outputs.push(cells);
        }
        let t = Instant::now();
        drop(inputs);
        let table = render(plans, &outputs);
        let reference = first.get_or_insert_with(|| table.clone());
        total += check_cells(plans, &table, reference, expected.as_deref());
        let wall = (setup + eval + t.elapsed()).as_secs_f64();
        // The first repetition's peak: later ones add only allocator
        // fragmentation, which grows with the number of repetitions.
        first_peak.get_or_insert_with(peak_rss_mb);
        host.sample();
        let slowdown = host.mean_since(opened);
        host_walls.push(wall);
        slowdowns.push(slowdown);
        walls.push(wall / slowdown);
        setups.push(setup.as_secs_f64() / setup_slowdown);
        rates.push(misses as f64 / eval.as_secs_f64() * slowdown);
        iterations.push(iteration.elapsed().as_secs_f64());
        let next = start.elapsed() + Duration::from_secs_f64(median(&iterations));
        if walls.len() >= MIN_REPS && next > budget {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let opened = host.mark();
        let t = Instant::now();
        drop(std::hint::black_box(Inputs::derive(
            plans,
            &mut SetupTimes::default(),
        )));
        let setup = t.elapsed().as_secs_f64();
        host.sample();
        setups.push(setup / host.mean_since(opened));
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("repetition wall_s (host seconds): {}", list(&host_walls));
    println!("host slowdown: {}", list(&slowdowns));
    println!("repetition wall_s (nominal host): {}", list(&walls));
    println!("set-up s (nominal host): {}", list(&setups));
    println!(
        "repetitions {}  set-ups {}  misses/repetition {misses}  stored-table check: {}",
        walls.len(),
        setups.len(),
        stored_verdict(&expected, total)
    );
    let metrics = vec![
        metric("wall_s", median(&walls), "s"),
        metric("setup_s", median(&setups), "s"),
        metric("misses_per_s", median(&rates), "1/s"),
        metric("peak_rss_mb", first_peak.expect("one repetition ran"), "MB"),
    ];
    (total.failed == 0, total, metrics)
}

/// `--trace 1`: untraced and traced evaluations in pairs; per-layer
/// metrics per traced evaluation.
fn run_traced(args: &Args, plans: &[ExperimentPlan]) -> (bool, CellCheck, Vec<Metric>) {
    let expected = load_expected(args);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut setup = SetupTimes::default();
    let inputs = Inputs::derive(plans, &mut setup);
    // The generator's share of the partition set-up, drawn again on its
    // own (trace-driven workloads time their generator in set-up).
    let t = Instant::now();
    let redrawn: u64 = inputs
        .partition_sets()
        .map(|(spec, part)| {
            traced::draw_partition_records(&spec, part.seed(), part.nodes(), part.quota())
        })
        .sum();
    let trace = SetupTimes {
        trace_gen_s: setup.trace_gen_s + t.elapsed().as_secs_f64(),
        trace_records: setup.trace_records + redrawn,
        partition_s: setup.partition_s,
    };
    let mut layers = Layers::default();
    let (mut passes, mut plain_ns, mut traced_ns) = (0u64, 0u64, 0u64);
    let mut total = CellCheck::default();
    let mut identical = true;
    let mut first: Option<String> = None;
    let mut host = host::Reference::new();
    host.sample();
    loop {
        let t = Instant::now();
        let plain: Vec<Vec<CellOutput>> = plans
            .iter()
            .map(|plan| workload::evaluate(plan, &inputs))
            .collect();
        let plain_pass = t.elapsed();
        let t = Instant::now();
        let spanned: Vec<Vec<CellOutput>> = plans
            .iter()
            .map(|plan| traced::evaluate(plan, &inputs, &mut layers))
            .collect();
        let traced_pass = t.elapsed();
        identical &= plain
            .iter()
            .flatten()
            .zip(spanned.iter().flatten())
            .all(|(a, b)| traced::same_output(a, b));
        for outputs in [&plain, &spanned] {
            let table = render(plans, outputs);
            let reference = first.get_or_insert_with(|| table.clone());
            total += check_cells(plans, &table, reference, expected.as_deref());
        }
        passes += 1;
        plain_ns += traced::nanos(plain_pass);
        traced_ns += traced::nanos(traced_pass);
        host.sample();
        if start.elapsed() + plain_pass + traced_pass > budget {
            break;
        }
    }
    let misses: u64 = plans.iter().map(workload::misses).sum();
    let (mut metrics, reconciled) =
        layer_metrics(&layers, passes, misses, traced_ns, plain_ns, &trace);
    // Layer times are host seconds; this says how slow the host ran.
    metrics.push(metric("host.slowdown", host.mean_since(0), "ratio"));
    println!(
        "traced passes {passes}  outputs identical to untraced: {identical}  attribution reconciles: {reconciled}  stored-table check: {}",
        stored_verdict(&expected, total)
    );
    (identical && reconciled && total.failed == 0, total, metrics)
}

/// Per-layer metrics, per traced evaluation, and whether the layer self
/// times plus the unattributed remainder add up to the traced
/// evaluation time (with the remainder under [`MAX_UNATTRIBUTED`]).
fn layer_metrics(
    l: &Layers,
    passes: u64,
    misses: u64,
    traced_ns: u64,
    plain_ns: u64,
    trace: &SetupTimes,
) -> (Vec<Metric>, bool) {
    let per = |v: u64| v as f64 / passes as f64;
    let secs = |ns: u64| per(ns) / 1e9;
    let coherence_ns = l.classify_ns + l.access_ns + l.evaluate_ns;
    let core_ns = l.predict_ns + l.train_ns;
    let inner_ns = coherence_ns + core_ns + l.sim_build_ns + l.sim_run_ns;
    let analysis_ns = l.cells_ns.checked_sub(inner_ns);
    let unattributed_ns = traced_ns.checked_sub(l.cells_ns);
    let run_self_ns = l.sim_run_ns.checked_sub(l.sim_core_ns);
    let reconciled = match (analysis_ns, unattributed_ns, run_self_ns) {
        (Some(analysis), Some(rest), Some(run_self)) => {
            let sum = coherence_ns + core_ns + l.sim_core_ns + run_self + l.sim_build_ns;
            sum + analysis + rest == traced_ns
                && (rest as f64) <= MAX_UNATTRIBUTED * traced_ns as f64
        }
        _ => false,
    };
    let measured = l.sim_measured_misses as f64;
    let metrics = vec![
        metric("trace.gen_s", trace.trace_gen_s, "s"),
        metric("trace.records", trace.trace_records as f64, "count"),
        metric(
            "trace.ns_per_record",
            ratio(trace.trace_gen_s * 1e9, trace.trace_records as f64),
            "ns",
        ),
        metric("trace.partition_s", trace.partition_s, "s"),
        metric("coherence.classify_calls", per(l.classify_calls), "count"),
        metric("coherence.classify_s", secs(l.classify_ns), "s"),
        metric("coherence.access_calls", per(l.access_calls), "count"),
        metric("coherence.access_s", secs(l.access_ns), "s"),
        metric("coherence.evaluate_s", secs(l.evaluate_ns), "s"),
        metric("core.predict_calls", per(l.predict_calls), "count"),
        metric("core.predict_s", secs(l.predict_ns), "s"),
        metric("core.train_calls", per(l.train_calls), "count"),
        metric("core.train_s", secs(l.train_ns), "s"),
        metric(
            "core.sufficient_first_ratio",
            ratio(l.sufficient_first as f64, l.predict_calls as f64),
            "ratio",
        ),
        metric("core.sim_predict_calls", per(l.sim_predict_calls), "count"),
        metric("core.sim_train_events", per(l.sim_train_events), "count"),
        metric("core.sim_train_batches", per(l.sim_train_batches), "count"),
        metric("core.sim_s", secs(l.sim_core_ns), "s"),
        metric(
            "core.sim_share",
            ratio(l.sim_core_ns as f64, l.sim_run_ns as f64),
            "ratio",
        ),
        metric("sim.builds", per(l.sim_builds), "count"),
        metric("sim.build_s", secs(l.sim_build_ns), "s"),
        metric("sim.run_s", secs(l.sim_run_ns), "s"),
        metric("sim.run_self_s", secs(run_self_ns.unwrap_or(0)), "s"),
        metric("sim.events", per(l.sim_events), "count"),
        metric(
            "sim.events_per_miss",
            ratio(per(l.sim_events), misses as f64),
            "events/miss",
        ),
        metric(
            "sim.ns_per_event",
            ratio(l.sim_run_ns as f64, l.sim_events as f64),
            "ns",
        ),
        metric("sim.queue_promoted", per(l.sim_promoted), "count"),
        metric(
            "sim.retries_per_miss",
            ratio(l.sim_retries as f64, measured),
            "retries/miss",
        ),
        metric(
            "interconnect.messages_per_miss",
            ratio(l.messages as f64, measured),
            "msgs/miss",
        ),
        metric(
            "interconnect.bytes_per_miss",
            ratio(l.bytes as f64, measured),
            "B/miss",
        ),
        metric("analysis.self_s", secs(analysis_ns.unwrap_or(0)), "s"),
        metric("traced.eval_s", secs(traced_ns), "s"),
        metric(
            "traced.overhead_ratio",
            ratio(traced_ns as f64, plain_ns as f64),
            "ratio",
        ),
        metric(
            "traced.unattributed_s",
            secs(unattributed_ns.unwrap_or(0)),
            "s",
        ),
    ];
    (metrics, reconciled)
}

/// Writes the engine's serial output for the workload's plans.
fn write_expected(args: &Args, plans: &[ExperimentPlan]) -> std::io::Result<PathBuf> {
    let runner = SweepRunner::serial();
    let tables: Vec<_> = plans.iter().map(|plan| runner.run(plan)).collect();
    let path = expected_path(Path::new(EXPECTED_DIR), args.workload, args.size, args.seed);
    std::fs::create_dir_all(EXPECTED_DIR)?;
    std::fs::write(&path, joined_csv(&tables))?;
    Ok(path)
}

/// Prints the host reference kernels' seconds, one sample a line, for
/// 10 s: the figures the kernels' nominal times are chosen from.
fn calibrate() {
    let mut host = host::Reference::new();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(10) {
        let times: Vec<String> = host.kernel_times().iter().map(f64::to_string).collect();
        println!("{}", times.join(" "));
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        calibrate();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plans = args.workload.plans(args.size, args.seed);
    if args.write_expected {
        return match write_expected(&args, &plans) {
            Ok(path) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: cannot write the expected table: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "workload {}  size {}  seed {}  trace {}",
        args.workload.name(),
        args.size.name(),
        args.seed,
        u8::from(args.trace)
    );
    let (correct, check, metrics) = if args.trace {
        run_traced(&args, &plans)
    } else {
        run_untraced(&args, &plans)
    };
    report(correct, check, &metrics);
    ExitCode::SUCCESS
}
