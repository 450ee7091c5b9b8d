//! Measures fault-simulation sweep throughput across array organizations
//! and writes `BENCH_fault_sim.json`.
//!
//! ```text
//! cargo run --release -p bench --bin fault_sim_bench                  # 64x64 .. 1024x1024
//! cargo run --release -p bench --bin fault_sim_bench -- --organization 64x64,128x128
//! cargo run --release -p bench --bin fault_sim_bench -- --rows 16 --cols 16
//! cargo run --release -p bench --bin fault_sim_bench -- --passes 5 --out custom.json
//! cargo run --release -p bench --bin fault_sim_bench -- --dense-size 512x512 --dense-faults 50000
//! cargo run --release -p bench --bin fault_sim_bench -- --no-dense --no-campaign --no-daemon
//! ```
//!
//! The workload is the acceptance sweep of the kernel work: the standard
//! fault list × the paper's Table 1 algorithms, measured per organization
//! for the per-fault kernel (serial + parallel) and the lane-batched
//! backend (≤64 faults per walk dispatch, serial + parallel), compared
//! against a frozen replica of the original per-fault-allocating serial
//! implementation up to 256×256 (`baseline_skipped` beyond — see
//! `bench::throughput::BASELINE_CELL_CAP`). The default sweep is the
//! ROADMAP's 64×64 → 1024×1024 scaling ladder, followed by the dense
//! section — a generated ≥100k-fault population vs. the standard list at
//! 1024×1024 and the address-aware packer vs. the greedy planner on an
//! overlap-heavy population (skip with `--no-dense`) — and the campaign
//! section, the crash-safe campaign runner's jobs/sec against a direct
//! per-job loop (skip with `--no-campaign`), and the daemon section, the
//! dynamic-intake path's sustained jobs/sec and overload shed fraction
//! (skip with `--no-daemon`).
//!
//! Exit codes: `0` on success, `2` for a malformed command line, `3` when
//! the output file cannot be written.

use std::process::ExitCode;

use bench::cli::{arg_value, parse_flag, parse_size_list, CliError};
use bench::throughput::FaultSimSweep;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(error) => {
            eprintln!("fault_sim_bench: {error}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    // `--rows`/`--cols` select a single organization (the pre-sweep CLI);
    // `--organization` takes the comma list.
    let single = match (arg_value(args, "--rows"), arg_value(args, "--cols")) {
        (None, None) => None,
        _ => Some((
            parse_flag(args, "--rows", 64u32)?,
            parse_flag(args, "--cols", 64u32)?,
        )),
    };
    let organizations = match arg_value(args, "--organization") {
        Some(spec) => parse_size_list(&spec, "--organization")?,
        None => single.map_or_else(
            || vec![(64, 64), (128, 128), (256, 256), (512, 512), (1024, 1024)],
            |size| vec![size],
        ),
    };
    let passes: usize = parse_flag(args, "--passes", 3)?;
    let out = arg_value(args, "--out").unwrap_or_else(|| "BENCH_fault_sim.json".to_string());
    let dense = if args.iter().any(|a| a == "--no-dense") {
        None
    } else {
        let (dense_rows, dense_cols) = match arg_value(args, "--dense-size") {
            Some(spec) => parse_size_list(&spec, "--dense-size")?[0],
            None => (1024, 1024),
        };
        let dense_faults: usize = parse_flag(args, "--dense-faults", 100_000)?;
        Some((dense_rows, dense_cols, dense_faults))
    };
    let campaign = !args.iter().any(|a| a == "--no-campaign");
    let daemon = !args.iter().any(|a| a == "--no-daemon");

    println!(
        "# Fault-simulation sweep throughput ({} organizations, {passes} passes per variant)",
        organizations.len()
    );
    let sweep = FaultSimSweep::measure_full(&organizations, passes, dense, campaign, daemon);
    for result in &sweep.sizes {
        println!(
            "{}x{}: {} algorithms x {} faults, {} threads",
            result.rows,
            result.cols,
            result.algorithms.len(),
            result.fault_count,
            result.threads
        );
        match result.baseline {
            Some(baseline) => println!(
                "  baseline (seed-style serial, full walks):  {:>12.1} faults/sec",
                baseline.faults_per_sec
            ),
            None => println!("  baseline (seed-style serial):              skipped above 256x256"),
        }
        let vs_baseline = |speedup: Option<f64>| {
            speedup.map_or_else(String::new, |s| format!("   ({s:.1}x vs baseline)"))
        };
        println!(
            "  kernel serial (shared walk + early exit):  {:>12.1} faults/sec{}",
            result.kernel_serial.faults_per_sec,
            vs_baseline(result.speedup_serial())
        );
        println!(
            "  kernel parallel (+ threaded sweep):        {:>12.1} faults/sec{}",
            result.kernel_parallel.faults_per_sec,
            vs_baseline(result.speedup_parallel())
        );
        println!(
            "  lane-batched serial (64 faults per walk):  {:>12.1} faults/sec   ({:.1}x vs kernel)",
            result.batched.faults_per_sec,
            result.speedup_batched_vs_kernel()
        );
        println!(
            "  lane-batched parallel (cohorts on threads):{:>12.1} faults/sec   ({:.1}x vs kernel)",
            result.batched_parallel.faults_per_sec,
            result.speedup_batched_parallel_vs_kernel()
        );
    }

    if let Some(section) = &sweep.dense {
        println!(
            "dense section at {}x{} ({}):",
            section.rows, section.cols, section.algorithm
        );
        println!(
            "  standard list ({} faults, batched serial): {:>12.1} faults/sec",
            section.standard_fault_count, section.standard.faults_per_sec
        );
        println!(
            "  {} ({} faults, batched serial):   {:>12.1} faults/sec   ({:.2}x vs standard)",
            section.population,
            section.fault_count,
            section.dense.faults_per_sec,
            section.speedup_dense_vs_standard()
        );
        println!(
            "  dense parallel ({} worker threads):        {:>12.1} faults/sec",
            section.threads, section.dense_parallel.faults_per_sec
        );
        println!(
            "  dense shuffled (packed-order execution):   {:>12.1} faults/sec   ({:.2}x vs ordered)",
            section.dense_shuffled.faults_per_sec,
            section.speedup_shuffled_vs_ordered()
        );
        println!(
            "  packer vs greedy ({} overlap-heavy faults): {} vs {} merged steps ({:.2}x smaller)",
            section.packer.fault_count,
            section.packer.packed_schedule_steps,
            section.packer.greedy_schedule_steps,
            section.packer.speedup_packed_schedule()
        );
    }

    if let Some(section) = &sweep.campaign {
        println!("campaign section ({} jobs):", section.jobs);
        println!(
            "  direct per-job loop (no journal):          {:>12.1} jobs/sec",
            section.direct_jobs_per_sec
        );
        println!(
            "  journaled campaign (1 thread):             {:>12.1} jobs/sec   ({:.2}x vs direct)",
            section.campaign_jobs_per_sec,
            section.speedup_campaign_vs_direct()
        );
        println!(
            "  journaled campaign ({} worker threads):     {:>12.1} jobs/sec",
            section.threads, section.campaign_parallel_jobs_per_sec
        );
    }

    if let Some(section) = &sweep.daemon {
        println!(
            "daemon section ({} jobs offered per pass):",
            section.offered
        );
        println!(
            "  sustained intake (spool + journal v2):     {:>12.1} jobs/sec",
            section.intake_jobs_per_sec
        );
        println!(
            "  overload shed (queue bound {}):             {:.0}% answered queue-full",
            section.queue_limit,
            section.shed_fraction * 100.0
        );
    }

    if let Err(error) = std::fs::write(&out, sweep.to_json()) {
        eprintln!("fault_sim_bench: cannot write {out}: {error}");
        return Ok(ExitCode::from(3));
    }
    println!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}
