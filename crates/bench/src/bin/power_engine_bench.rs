//! Measures power-engine throughput across array organizations and writes
//! `BENCH_power_engine.json`.
//!
//! ```text
//! cargo run --release -p bench --bin power_engine_bench                 # 64x64 .. 1024x1024
//! cargo run --release -p bench --bin power_engine_bench -- --sizes 64x64,512x512
//! cargo run --release -p bench --bin power_engine_bench -- --passes 2 --out custom.json
//! ```
//!
//! The workload is the paper's Table 1 reproduction: all five March
//! algorithms, both operating modes, cycle-accurate power metering. The
//! rebuilt engine (shared schedule plans, the row-replay kernel and the
//! parallel per-algorithm harness) is compared against a frozen replica
//! of the seed implementation up to 256×256 (`baseline_skipped` beyond —
//! see `bench::power_engine::BASELINE_CELL_CAP`); before any timing, the
//! row-replay kernel is asserted bit-identical to the full simulation at
//! every size, and to the seed replica wherever the replica still runs.
//! The default sweep is the ROADMAP's 64×64 → 1024×1024 scaling ladder.
//! The binary prints the JSON document it writes.
//!
//! Exit codes: `0` on success, `2` for a malformed command line (before
//! anything is measured or written), `3` when the output file cannot be
//! written.

use std::process::ExitCode;

use bench::cli::parse_size_list;
use bench::power_engine::power_engine_document;
use campaign::cli::{Args, UsageError};

const USAGE: &str = "usage: power_engine_bench [options]
  --sizes RxC,...   organizations to sweep
                    (default 64x64,128x128,256x256,512x512,1024x1024)
  --passes N        timed passes per variant (default 1)
  --out PATH        output file (default BENCH_power_engine.json)
  --help            print this help and exit
exit codes:
  0  measured and written
  2  usage error (unknown flag, malformed value, invalid size)
  3  the output file cannot be written";

/// Flags that take one value.
const VALUE_FLAGS: [&str; 3] = ["--sizes", "--passes", "--out"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("power_engine_bench: {usage}");
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
    let args = &Args::scan(args, &VALUE_FLAGS, &[])?;
    let sizes = match args.value("--sizes") {
        Some(spec) => parse_size_list(spec, 1, "--sizes")?,
        None => vec![(64, 64), (128, 128), (256, 256), (512, 512), (1024, 1024)],
    };
    let passes: usize = args.parse_or("--passes", 1)?;
    let out = args.value("--out").unwrap_or("BENCH_power_engine.json");

    println!(
        "# Power-engine throughput ({} organizations, {passes} pass(es) per variant)",
        sizes.len()
    );
    let document = power_engine_document(&sizes, passes);
    let text = format!("{document}\n");
    print!("{text}");
    if let Err(error) = std::fs::write(out, text) {
        eprintln!("power_engine_bench: cannot write {out}: {error}");
        return Ok(ExitCode::from(3));
    }
    println!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}
