//! `campaign_run` — the crash-safe campaign CLI.
//!
//! Builds a cross-product plan from flag lists, runs (or resumes) one
//! shard of it with the panic-isolated worker pool, and optionally writes
//! the deterministic binary export.
//!
//! ```text
//! campaign_run --journal camp.journal \
//!     --organization 64x64 --seeds 1,2,3,4 --population mixed:600 \
//!     --threads 2 --export out.bin
//! campaign_run --journal camp.journal ... --resume   # after a crash
//! ```
//!
//! Exit codes are distinct per failure class so scripts (and the CI
//! kill-and-resume smoke job) can tell them apart:
//!
//! * `0` — campaign completed, no poisoned jobs
//! * `2` — usage error (unknown flag, malformed value)
//! * `3` — campaign error (I/O, corrupt journal, plan mismatch)
//! * `4` — campaign completed but some jobs are poison-quarantined

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use campaign::cli::{Args, UsageError};
use campaign::runner::{run_campaign, CampaignOptions};
use campaign::spec::{backend_by_name, CampaignPlan, PopulationSpec};
use campaign::{FaultInjector, Injection, Shard};
use march_test::coverage::SweepBackend;
use march_test::library::table1_algorithms;

const USAGE: &str = "usage: campaign_run --journal PATH [options]
  --journal PATH        journal file (required)
  --organization RxC    array organization (default 64x64)
  --seeds A,B,...       population seeds (default 1)
  --algorithms A,B,...  March algorithms (default: the paper's Table 1 five)
  --orders A,B,...      address orders (default \"word line after word line\")
  --backgrounds 0,1     initial cell values (default 0)
  --population SPEC     standard | mixed:N | dense:N (default mixed:256)
  --backend NAME        lane | per-fault (default lane)
  --shard K/N           0-based shard of the plan (default 0/1)
  --threads N           worker threads (default: all cores)
  --max-attempts N      attempts before poison quarantine (default 3)
  --backoff-ms N        base retry backoff in ms (default 10)
  --job-delay-ms N      debug: sleep per job, for kill-timing tests
  --export PATH         write the deterministic binary export
  --heartbeat PATH      write a heartbeat sidecar after each journaled job
  --resume              resume from the journal (fresh start if missing)
  --list                print the plan and exit
  --help                print this help and exit
debug fault injections (for the supervisor test harness):
  --abort-after-records N      abort once N records are journaled (exit 3)
  --stall-heartbeat-after N    stop heartbeating after N jobs, keep working
  --wedge-after N              hang forever once N jobs are done
exit codes:
  0  campaign completed, no poisoned jobs
  2  usage error (unknown flag, malformed value)
  3  campaign error (I/O, corrupt journal, plan mismatch)
  4  campaign completed but some jobs are poison-quarantined";

/// Flags that take one value.
const VALUE_FLAGS: [&str; 18] = [
    "--journal",
    "--organization",
    "--seeds",
    "--algorithms",
    "--orders",
    "--backgrounds",
    "--population",
    "--backend",
    "--shard",
    "--threads",
    "--max-attempts",
    "--backoff-ms",
    "--job-delay-ms",
    "--export",
    "--heartbeat",
    "--abort-after-records",
    "--stall-heartbeat-after",
    "--wedge-after",
];

/// Flags that take none.
const BARE_FLAGS: [&str; 2] = ["--resume", "--list"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("campaign_run: {usage}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parses a comma-separated list with `parse_item`, with typed errors.
fn parse_list<T>(
    args: &Args,
    flag: &str,
    default: Vec<T>,
    parse_item: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, UsageError> {
    let Some(raw) = args.value(flag) else {
        return Ok(default);
    };
    let items: Vec<T> = raw
        .split(',')
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(|item| {
            parse_item(item).ok_or_else(|| UsageError::new(flag, format!("bad item \"{item}\"")))
        })
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(UsageError::new(flag, "empty list"));
    }
    Ok(items)
}

fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    if args.iter().any(|arg| arg == "--help") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let args = &Args::scan(args, &VALUE_FLAGS, &BARE_FLAGS)?;

    let organization = args.value("--organization").unwrap_or("64x64");
    let (rows, cols) = organization
        .split_once('x')
        .and_then(|(r, c)| Some((r.trim().parse::<u32>().ok()?, c.trim().parse::<u32>().ok()?)))
        .ok_or_else(|| {
            UsageError::new(
                "--organization",
                format!("cannot parse \"{organization}\" (expected RxC)"),
            )
        })?;
    let seeds = parse_list(args, "--seeds", vec![1u64], |item| item.parse().ok())?;
    let default_algorithms: Vec<String> = table1_algorithms()
        .iter()
        .map(|test| test.name().to_string())
        .collect();
    let algorithms = parse_list(args, "--algorithms", default_algorithms, |item| {
        Some(item.to_string())
    })?;
    let orders = parse_list(
        args,
        "--orders",
        vec!["word line after word line".to_string()],
        |item| Some(item.to_string()),
    )?;
    let backgrounds = parse_list(args, "--backgrounds", vec![false], |item| match item {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    })?;
    let population = match args.value("--population") {
        None => PopulationSpec::Mixed { count: 256 },
        Some(raw) => PopulationSpec::parse(raw)
            .ok_or_else(|| UsageError::new("--population", format!("cannot parse \"{raw}\"")))?,
    };
    let backend = match args.value("--backend") {
        None => SweepBackend::LaneBatched,
        Some(name) => backend_by_name(name)
            .ok_or_else(|| UsageError::new("--backend", format!("unknown backend \"{name}\"")))?,
    };
    let shard = match args.value("--shard") {
        None => Shard::whole(),
        Some(raw) => {
            Shard::parse(raw).map_err(|error| UsageError::new("--shard", error.to_string()))?
        }
    };
    let options = CampaignOptions {
        threads: args.parse_or("--threads", CampaignOptions::default().threads)?,
        max_attempts: {
            let attempts: u8 = args.parse_or("--max-attempts", 3u8)?;
            if attempts == 0 {
                return Err(UsageError::new("--max-attempts", "must be at least 1"));
            }
            attempts
        },
        backoff: Duration::from_millis(args.parse_or("--backoff-ms", 10u64)?),
        resume: args.present("--resume"),
        job_delay: Duration::from_millis(args.parse_or("--job-delay-ms", 0u64)?),
        heartbeat: args.value("--heartbeat").map(PathBuf::from),
    };

    // Debug injections for the supervisor harness: deterministic crash,
    // silent-heartbeat and wedge behaviours, each armed by a flag.
    let mut injections = Vec::new();
    if let Some(count) = args.parse("--abort-after-records")? {
        injections.push(Injection::AbortAfterRecords { count });
    }
    if let Some(after_jobs) = args.parse("--stall-heartbeat-after")? {
        injections.push(Injection::StallHeartbeat { after_jobs });
    }
    if let Some(after_jobs) = args.parse("--wedge-after")? {
        injections.push(Injection::WedgeProcess { after_jobs });
    }
    let injector = FaultInjector::new(injections);

    let plan = CampaignPlan::cross(
        rows,
        cols,
        &seeds,
        &algorithms,
        &orders,
        &backgrounds,
        backend,
        population,
    );

    if args.present("--list") {
        println!(
            "plan: {} jobs, digest {:#018x}, shard {}/{} owns {}",
            plan.len(),
            plan.digest(),
            shard.index,
            shard.count,
            shard.jobs(plan.len() as u32).len()
        );
        for (index, job) in plan.jobs.iter().enumerate() {
            let owned = if shard.owns(index as u32) { "*" } else { " " };
            println!(
                "{owned} [{index:4}] {}x{} seed={} \"{}\" / \"{}\" bg={} {}",
                job.rows,
                job.cols,
                job.seed,
                job.algorithm,
                job.order,
                u8::from(job.background),
                job.population.render()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let journal = PathBuf::from(
        args.value("--journal")
            .ok_or_else(|| UsageError::new("--journal", "required flag missing"))?,
    );
    let export_path = args.value("--export").map(PathBuf::from);

    match run_campaign(&plan, shard, &journal, &options, &injector) {
        Ok(summary) => {
            if let Some(path) = &export_path {
                if let Err(error) = summary.export.write(path) {
                    eprintln!("campaign_run: {error}");
                    return Ok(ExitCode::from(3));
                }
            }
            println!(
                "campaign: {} jobs ({} executed, {} resumed, {} retries, {} poisoned)",
                summary.export.outcomes.len(),
                summary.executed,
                summary.skipped,
                summary.retries,
                summary.poisoned.len()
            );
            if summary.poisoned.is_empty() {
                Ok(ExitCode::SUCCESS)
            } else {
                for job in &summary.poisoned {
                    eprintln!("campaign_run: job {job} is poison-quarantined");
                }
                Ok(ExitCode::from(4))
            }
        }
        Err(error) => {
            eprintln!("campaign_run: {error}");
            Ok(ExitCode::from(3))
        }
    }
}
