//! Gates CI on benchmark regressions.
//!
//! ```text
//! cargo run --release -p bench --bin bench_check -- \
//!     --pair BENCH_fault_sim.json fresh/BENCH_fault_sim.json \
//!     --pair BENCH_power_engine.json fresh/BENCH_power_engine.json \
//!     --threshold 0.25 --absolute-threshold 0.5
//! ```
//!
//! Each `--pair` names a committed baseline JSON and a freshly measured
//! one. The process exits non-zero when any gated metric of any pair
//! regresses: machine-relative `speedup_*` metrics by more than
//! `--threshold` (default 25 %), absolute `*_per_sec` throughputs by
//! more than `--absolute-threshold` (default 50 % — CI runners and dev
//! machines differ in raw speed, so only collapses are failures there).
//! Both thresholds are fractions in [0, 1). Every comparison is printed,
//! so the CI log doubles as a throughput report.
//!
//! Exit codes: `0` when every pair passes, `1` when a gated metric
//! regressed, `2` for a malformed command line (a threshold outside
//! [0, 1) included) or a malformed benchmark file, `3` when a benchmark
//! file cannot be read.

use bench::regression::{check_benchmarks, GateThresholds};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut thresholds = GateThresholds::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--pair" => {
                let baseline = args.get(i + 1).cloned();
                let current = args.get(i + 2).cloned();
                match (baseline, current) {
                    (Some(baseline), Some(current)) => pairs.push((baseline, current)),
                    _ => die("--pair needs <baseline.json> <current.json>"),
                }
                i += 3;
            }
            "--threshold" => {
                thresholds.relative = fraction("--threshold", args.get(i + 1));
                i += 2;
            }
            "--absolute-threshold" => {
                thresholds.absolute = fraction("--absolute-threshold", args.get(i + 1));
                i += 2;
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    if pairs.is_empty() {
        die("at least one --pair <baseline.json> <current.json> is required");
    }

    let mut failed = false;
    for (baseline_path, current_path) in &pairs {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| die_io(&format!("read {baseline_path}: {e}")));
        let current = std::fs::read_to_string(current_path)
            .unwrap_or_else(|e| die_io(&format!("read {current_path}: {e}")));
        let report = check_benchmarks(&baseline, &current, thresholds)
            .unwrap_or_else(|e| die(&format!("{baseline_path} vs {current_path}: {e}")));

        println!(
            "## {} ({baseline_path} vs {current_path}, speedup threshold {:.0}%, \
             absolute threshold {:.0}%)",
            report.benchmark,
            thresholds.relative * 100.0,
            thresholds.absolute * 100.0
        );
        for comparison in &report.comparisons {
            println!(
                "  {:<45} baseline {:>12.1}  current {:>12.1}  ({:+.1}%)",
                comparison.metric,
                comparison.baseline,
                comparison.current,
                (comparison.ratio() - 1.0) * 100.0
            );
        }
        if report.passed() {
            println!("  PASS");
        } else {
            failed = true;
            for failure in &report.failures {
                println!("  FAIL: {failure}");
            }
        }
    }

    if failed {
        eprintln!("benchmark regression gate failed");
        std::process::exit(1);
    }
    println!("benchmark regression gate passed");
}

/// The value of a threshold flag: a fraction in [0, 1). A metric fails
/// when it drops below `1 - threshold` of its baseline, which never
/// happens at a threshold of 1 or more, or of NaN.
fn fraction(flag: &str, value: Option<&String>) -> f64 {
    match value.and_then(|value| value.parse::<f64>().ok()) {
        Some(fraction) if (0.0..1.0).contains(&fraction) => fraction,
        _ => die(&format!("{flag} needs a fraction in [0, 1)")),
    }
}

fn die(message: &str) -> ! {
    eprintln!("bench_check: {message}");
    std::process::exit(2);
}

fn die_io(message: &str) -> ! {
    eprintln!("bench_check: {message}");
    std::process::exit(3);
}
