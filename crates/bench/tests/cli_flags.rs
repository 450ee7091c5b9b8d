//! The benchmark writers refuse a malformed command line before they
//! measure or write anything. Their default output file is a committed
//! baseline (`BENCH_fault_sim.json`, `BENCH_power_engine.json`), so a
//! misspelt flag that fell back to the default sweep would overwrite it.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `binary` with `args` inside `dir`.
fn run_in(dir: &PathBuf, binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|error| panic!("spawn {binary}: {error}"))
}

/// The files `dir` holds after a run.
fn written(dir: &PathBuf) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|entry| entry.expect("dir entry").path())
        .collect()
}

/// A tiny valid command line for each writer: what it would measure if
/// the misspelt flag were ignored.
const WRITERS: [(&str, &[&str]); 2] = [
    (
        env!("CARGO_BIN_EXE_fault_sim_bench"),
        &[
            "--rows",
            "4",
            "--cols",
            "4",
            "--passes",
            "1",
            "--no-dense",
            "--no-campaign",
            "--no-daemon",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_power_engine_bench"),
        &["--sizes", "4x4", "--passes", "1"],
    ),
];

#[test]
fn a_misspelt_flag_exits_2_and_writes_nothing() {
    for (index, (binary, valid)) in WRITERS.into_iter().enumerate() {
        let dir = scratch_dir(&format!("misspelt-{index}"));
        let mut args = valid.to_vec();
        args.extend(["--pases", "1", "--out", "out.json"]);
        let output = run_in(&dir, binary, &args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{binary}: {stderr}");
        assert!(
            stderr.contains("--pases: unknown flag"),
            "{binary}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{binary}: {stderr}");
        assert!(
            written(&dir).is_empty(),
            "{binary} wrote {:?}",
            written(&dir)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn missing_values_and_stray_tokens_exit_2_and_write_nothing() {
    for (index, (binary, valid)) in WRITERS.into_iter().enumerate() {
        for (case, extra) in [
            ("missing", &["--out"] as &[&str]),
            ("swallowed", &["--out", "--passes", "1"]),
            ("stray", &["out.json"]),
        ] {
            let dir = scratch_dir(&format!("{case}-{index}"));
            let mut args = valid.to_vec();
            args.extend(extra);
            let output = run_in(&dir, binary, &args);
            assert_eq!(
                output.status.code(),
                Some(2),
                "{binary} {case}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(written(&dir).is_empty(), "{binary} {case} wrote a file");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn help_prints_the_usage_and_exits_0_without_measuring() {
    for (index, (binary, _)) in WRITERS.into_iter().enumerate() {
        let dir = scratch_dir(&format!("help-{index}"));
        let output = run_in(&dir, binary, &["--help"]);
        assert!(
            output.status.success(),
            "{binary} --help: {:?}",
            output.status
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.starts_with("usage:"), "{binary}: {stdout}");
        assert!(stdout.contains("exit codes:"), "{binary}: {stdout}");
        assert!(written(&dir).is_empty(), "{binary} --help wrote a file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_size_the_benchmark_cannot_run_exits_2_and_writes_nothing() {
    // Each command line is well-formed for the flag scanner, but names a
    // size or population the benchmark cannot build: it must exit 2
    // before any section runs, not panic inside one.
    let fault_sim = env!("CARGO_BIN_EXE_fault_sim_bench");
    let quick = ["--passes", "1", "--no-campaign", "--no-daemon"];
    for (index, (binary, size, flag)) in [
        (
            fault_sim,
            &["--organization", "0x64", "--no-dense"] as &[&str],
            "--organization",
        ),
        (fault_sim, &["--rows", "0", "--no-dense"], "--rows/--cols"),
        (
            fault_sim,
            &["--organization", "1x2", "--no-dense"],
            "--organization",
        ),
        (
            fault_sim,
            &["--rows", "4", "--cols", "4", "--dense-size", "0x64"],
            "--dense-size",
        ),
        (
            fault_sim,
            &["--rows", "4", "--cols", "4", "--dense-faults", "0"],
            "--dense-faults",
        ),
        (
            env!("CARGO_BIN_EXE_power_engine_bench"),
            &["--sizes", "0x4"],
            "--sizes",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let dir = scratch_dir(&format!("size-{index}"));
        let mut args = size.to_vec();
        if binary == fault_sim {
            args.extend(quick);
        } else {
            args.extend(["--passes", "1"]);
        }
        let output = run_in(&dir, binary, &args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{binary} {args:?}: {stderr}");
        assert!(stderr.contains(&format!("{flag}: ")), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(written(&dir).is_empty(), "{binary} {args:?} wrote a file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
