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
//!
//! Exit codes: `0` on success, `2` for a malformed command line (before
//! anything is measured or written), `3` when the output file cannot be
//! written.

use std::process::ExitCode;

use bench::cli::parse_size_list;
use bench::power_engine::power_engine_throughput;
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
    let result = power_engine_throughput(&sizes, passes);
    for size in &result.sizes {
        println!(
            "{}x{}: {} cycles per Table 1 pass",
            size.rows, size.cols, size.cycles_per_pass
        );
        match size.baseline {
            Some(baseline) => println!(
                "  baseline (seed-style schedule + serial):   {:>12.0} cycles/sec   (Table 1 in {:.2}s)",
                baseline.cycles_per_sec, baseline.table1_seconds
            ),
            None => println!(
                "  baseline (seed-style schedule + serial):   skipped above 256x256"
            ),
        }
        let speedup = size
            .speedup_table1()
            .map_or_else(String::new, |s| format!(", {s:.1}x"));
        println!(
            "  engine (plan + row replay + parallel):     {:>12.0} cycles/sec   (Table 1 in {:.2}s{speedup})",
            size.engine.cycles_per_sec, size.engine.table1_seconds,
        );
        println!(
            "  simulated (cycle-by-cycle, serial):        {:>12.0} cycles/sec",
            size.simulated.cycles_per_sec
        );
        println!(
            "  replay kernel (serial):                    {:>12.0} cycles/sec   ({:.1}x vs simulated)",
            size.replay_serial.cycles_per_sec,
            size.speedup_replay_vs_simulated()
        );
    }

    if let Err(error) = std::fs::write(out, result.to_json()) {
        eprintln!("power_engine_bench: cannot write {out}: {error}");
        return Ok(ExitCode::from(3));
    }
    println!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}
