//! The `repro` binary's command line: unknown names and removed flags
//! are refused with the usage line, an experiment's CSV does not depend
//! on the thread count or on a fleet's `--recover`, a fleet writes only
//! its log and WAL in `--dir`, a coordinator-only fleet dismisses its
//! external worker cleanly, and no run leaves files in the working
//! directory.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use dsp_bench::experiments;

/// A fresh working directory for one test.
fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsp-repro-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Runs `repro` in `cwd`.
fn repro(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn repro")
}

/// Fails if a run left a `BENCH_*.json` in `cwd`.
fn assert_no_bench_files(cwd: &Path) {
    for entry in std::fs::read_dir(cwd).expect("read workdir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            !(name.starts_with("BENCH_") && name.ends_with(".json")),
            "repro wrote {name} into its working directory"
        );
    }
}

#[test]
fn unknown_and_removed_names_exit_1_with_usage() {
    let cwd = workdir("usage");
    for name in ["bogus", "sweep-bench", "fleet-bench"] {
        let out = repro(&cwd, &[name, "--scale", "quick", "--out", "out"]);
        assert_eq!(out.status.code(), Some(1), "{name}: exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown experiment '{name}'")),
            "{name}: {stderr}"
        );
        let listed: Vec<&str> = stderr
            .lines()
            .find_map(|line| line.strip_prefix("experiments: "))
            .unwrap_or_else(|| panic!("{name}: no experiments line in usage: {stderr}"))
            .split_whitespace()
            .collect();
        let mut expected: Vec<&str> = experiments::names().collect();
        expected.push("all");
        assert_eq!(listed, expected, "{name}: usage lists the registry");
    }
    assert_no_bench_files(&cwd);
    std::fs::remove_dir_all(cwd).ok();
}

#[test]
fn degraded_csv_is_identical_across_thread_counts() {
    let cwd = workdir("degraded");
    let csv = |threads: &str| {
        let out_dir = format!("t{threads}");
        let out = repro(
            &cwd,
            &[
                "degraded",
                "--scale",
                "quick",
                "--threads",
                threads,
                "--out",
                &out_dir,
            ],
        );
        assert!(
            out.status.success(),
            "degraded --threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(cwd.join(out_dir).join("degraded.csv")).expect("degraded.csv written")
    };
    let serial = csv("1");
    assert_eq!(serial, csv("2"), "degraded.csv depends on the thread count");
    assert!(
        String::from_utf8_lossy(&serial).contains(",mesh8x8@5ns/64,"),
        "degraded.csv has no 64-node mesh row"
    );
    assert_no_bench_files(&cwd);
    std::fs::remove_dir_all(cwd).ok();
}

/// Runs `repro <command line>` in `cwd` and requires exit status 0.
fn repro_ok(cwd: &Path, command_line: &str) -> Output {
    let args: Vec<&str> = command_line.split_whitespace().collect();
    let out = repro(cwd, &args);
    assert!(
        out.status.success(),
        "repro {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn removed_flags_and_merge_exit_1_with_usage() {
    let cwd = workdir("removed");
    // The static split's two flags (a residue class and an explicit
    // cell list), its merge subcommand, the worker's journal
    // directory, and session checkpointing's two flags.
    let shard = format!("--{}", "shard");
    let cells = format!("--{}", "cells");
    for args in [
        vec!["fig5", "--scale", "quick", &shard, "1/2"],
        vec!["fig5", "--scale", "quick", &cells, "0123456789abcdef"],
        vec!["merge", "fig5", "x.jsonl"],
        vec!["worker", "--connect", "127.0.0.1:9", "--dir", "journals"],
        vec!["fig5", "--scale", "quick", "--checkpoint", "F"],
        vec!["fig5", "--scale", "quick", "--resume"],
    ] {
        let out = repro(&cwd, &args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().any(|line| line.starts_with("usage: repro")),
            "{args:?}: no usage line: {stderr}"
        );
    }
    std::fs::remove_dir_all(cwd).ok();
}

#[test]
fn recovering_a_completed_fleet_appends_nothing() {
    let cwd = workdir("recover");
    let fleet = |flags: &str| {
        repro_ok(
            &cwd,
            &format!("fleet table2 --scale quick --workers 1 --threads 2 --dir run {flags}"),
        )
    };
    repro_ok(&cwd, "table2 --scale quick --out plain");
    fleet("--out first");
    let wal = cwd.join("run/table2.wal.jsonl");
    let complete = std::fs::read(&wal).expect("WAL written");
    let recovered = fleet("--recover --out recovered");
    let stdout = String::from_utf8_lossy(&recovered.stdout);
    assert!(stdout.contains("recovered_from_wal: true"), "{stdout}");
    assert_eq!(
        std::fs::read(&wal).expect("WAL kept"),
        complete,
        "recovering a completed WAL must not append to it"
    );
    let csv = |dir: &str| std::fs::read(cwd.join(dir).join("table2.csv")).expect("table2.csv");
    assert_eq!(csv("first"), csv("plain"), "fleet CSV differs");
    assert_eq!(csv("recovered"), csv("plain"), "recovered CSV differs");
    assert_no_bench_files(&cwd);
    std::fs::remove_dir_all(cwd).ok();
}

#[test]
fn external_worker_is_dismissed_when_the_sweep_completes() {
    let cwd = workdir("external");
    let mut fleet = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fleet", "table2", "--scale", "quick", "--workers", "0"])
        .args(["--dir", "run", "--out", "fleet"])
        .current_dir(&cwd)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fleet");
    let mut stdout = BufReader::new(fleet.stdout.take().expect("fleet stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("fleet banner");
    let addr = banner
        .split("coordinator on ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_string();
    let worker = repro_ok(&cwd, &format!("worker --connect {addr}"));
    let dismissed = Instant::now();
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("fleet output");
    assert!(fleet.wait().expect("fleet exits").success(), "{rest}");
    assert!(
        dismissed.elapsed() < Duration::from_secs(2),
        "the fleet outlived its worker by {:?}",
        dismissed.elapsed()
    );
    let report = String::from_utf8_lossy(&worker.stdout);
    assert!(
        report.contains("0 reconnects, 1 connect attempts"),
        "the worker must not retry a coordinator that finished: {report}"
    );
    std::fs::remove_dir_all(cwd).ok();
}

#[test]
fn fleet_dir_keeps_files_the_fleet_does_not_name() {
    let cwd = workdir("fleetdir");
    let dir = cwd.join("shared");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let sentinel = dir.join("notes.txt");
    std::fs::write(&sentinel, "not the fleet's").expect("sentinel");
    // Workers keep no lease journals any more, so a file shaped like
    // one of an earlier release is not the fleet's either.
    let stale = dir.join("table2.lease99.w9.jsonl");
    std::fs::write(&stale, "stale").expect("stale journal");
    repro_ok(
        &cwd,
        "fleet table2 --scale quick --workers 1 --dir shared --out fleet",
    );
    assert_eq!(
        std::fs::read_to_string(&sentinel).expect("sentinel survives"),
        "not the fleet's"
    );
    assert_eq!(
        std::fs::read_to_string(&stale).expect("old journal survives"),
        "stale"
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fleet dir")
        .map(|entry| entry.expect("entry").file_name().to_string_lossy().into())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "coordinator.log",
            "notes.txt",
            "table2.lease99.w9.jsonl",
            "table2.wal.jsonl"
        ],
        "the fleet writes only its log and WAL"
    );
    repro_ok(&cwd, "table2 --scale quick --out serial");
    assert_eq!(
        std::fs::read(cwd.join("fleet/table2.csv")).expect("fleet csv"),
        std::fs::read(cwd.join("serial/table2.csv")).expect("serial csv"),
        "fleet table differs from the serial run"
    );
    assert_no_bench_files(&cwd);
    std::fs::remove_dir_all(cwd).ok();
}
