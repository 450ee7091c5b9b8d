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
//! for the per-fault kernel (serial + parallel) and the collapsed backend
//! (one simulation per fault equivalence class, serial + `parallel` set),
//! compared against a frozen replica of the original per-fault-allocating
//! serial implementation up to 256×256 (`baseline_skipped` beyond — see
//! `bench::throughput::BASELINE_CELL_CAP`). The default sweep is the
//! ROADMAP's 64×64 → 1024×1024 scaling ladder, followed by the dense
//! section — a generated ≥100k-fault population vs. the standard list at
//! 1024×1024, and a shuffled copy of it (skip with `--no-dense`) — and the
//! campaign section, the crash-safe campaign runner's jobs/sec against a
//! direct per-job loop (skip with `--no-campaign`), and the daemon
//! section, the dynamic-intake path's sustained jobs/sec and overload
//! shed fraction (skip with `--no-daemon`). The binary prints the JSON
//! document it writes.
//!
//! Exit codes: `0` on success, `2` for a malformed command line (before
//! anything is measured or written), `3` when the output file cannot be
//! written.

use std::process::ExitCode;

use bench::cli::{check_size, parse_size_list, FAULT_LIST_MIN_CELLS};
use bench::throughput::fault_sim_document;
use campaign::cli::{Args, UsageError};

const USAGE: &str = "usage: fault_sim_bench [options]
  --organization RxC,...  organizations to sweep
                          (default 64x64,128x128,256x256,512x512,1024x1024)
  --rows N --cols N       sweep one organization (the other defaults to 64)
  --passes N              timed passes per variant (default 3)
  --out PATH              output file (default BENCH_fault_sim.json)
  --dense-size RxC        organization of the dense section (default 1024x1024)
  --dense-faults N        size of the dense population (default 100000)
  --no-dense              skip the dense section
  --no-campaign           skip the campaign section
  --no-daemon             skip the daemon section
  --help                  print this help and exit
exit codes:
  0  measured and written
  2  usage error (unknown flag, malformed value, invalid size)
  3  the output file cannot be written";

/// Flags that take one value.
const VALUE_FLAGS: [&str; 7] = [
    "--organization",
    "--rows",
    "--cols",
    "--passes",
    "--out",
    "--dense-size",
    "--dense-faults",
];

/// Flags that take none.
const BARE_FLAGS: [&str; 3] = ["--no-dense", "--no-campaign", "--no-daemon"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("fault_sim_bench: {usage}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    if args.iter().any(|arg| arg == "--help") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let args = &Args::scan(args, &VALUE_FLAGS, &BARE_FLAGS)?;
    // `--rows`/`--cols` select a single organization (the pre-sweep CLI);
    // `--organization` takes the comma list.
    let single = match (args.present("--rows"), args.present("--cols")) {
        (false, false) => None,
        _ => Some(check_size(
            args.parse_or("--rows", 64u32)?,
            args.parse_or("--cols", 64u32)?,
            FAULT_LIST_MIN_CELLS,
            "--rows/--cols",
        )?),
    };
    let organizations = match args.value("--organization") {
        Some(spec) => parse_size_list(spec, FAULT_LIST_MIN_CELLS, "--organization")?,
        None => single.map_or_else(
            || vec![(64, 64), (128, 128), (256, 256), (512, 512), (1024, 1024)],
            |size| vec![size],
        ),
    };
    let passes: usize = args.parse_or("--passes", 3)?;
    let out = args.value("--out").unwrap_or("BENCH_fault_sim.json");
    let dense = if args.present("--no-dense") {
        None
    } else {
        let (dense_rows, dense_cols) = match args.value("--dense-size") {
            Some(spec) => match parse_size_list(spec, FAULT_LIST_MIN_CELLS, "--dense-size")?[..] {
                [size] => size,
                _ => return Err(UsageError::new("--dense-size", "takes exactly one size")),
            },
            None => (1024, 1024),
        };
        let dense_faults: usize = args.parse_or("--dense-faults", 100_000)?;
        if dense_faults == 0 {
            return Err(UsageError::new("--dense-faults", "must be at least 1"));
        }
        Some((dense_rows, dense_cols, dense_faults))
    };
    let campaign = !args.present("--no-campaign");
    let daemon = !args.present("--no-daemon");

    println!(
        "# Fault-simulation sweep throughput ({} organizations, {passes} passes per variant)",
        organizations.len()
    );
    let document = fault_sim_document(&organizations, passes, dense, campaign, daemon);
    let text = format!("{document}\n");
    print!("{text}");
    if let Err(error) = std::fs::write(out, text) {
        eprintln!("fault_sim_bench: cannot write {out}: {error}");
        return Ok(ExitCode::from(3));
    }
    println!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}
