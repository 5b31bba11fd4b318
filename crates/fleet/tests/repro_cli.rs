//! The `repro` binary's command line: unknown names are refused with
//! the registry's usage line, an experiment's CSV does not depend on
//! the thread count, and no run leaves files in the working directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
