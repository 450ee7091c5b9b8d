//! `campaign_supervisor` — cross-process shard orchestration.
//!
//! Spawns one `campaign_run --shard k/N` child per shard, watches
//! heartbeats and journal growth, restarts dead or wedged shards with
//! `--resume` under bounded exponential backoff, and merges the shard
//! exports. A shard that exhausts its restart budget is quarantined
//! while the rest complete; the merged export is then partial and the
//! manifest names exactly which shards and jobs are missing.
//!
//! ```text
//! campaign_supervisor --shards 3 --dir runs/camp \
//!     --organization 64x64 --seeds 1,2,3,4 --population mixed:600
//! ```
//!
//! Exit codes extend the `campaign_run` contract one level up:
//!
//! * `0` — every shard completed, no poisoned jobs
//! * `2` — usage error
//! * `3` — supervisor error (spawn failure, child usage error, I/O)
//! * `4` — every shard completed but some jobs are poison-quarantined
//! * `5` — degraded: shards were quarantined, the export is partial

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use campaign::cli::{Args, UsageError};
use campaign::supervise::{supervise, ShardCommand, ShardFate, SupervisorOptions};
use campaign::{ProcessInjection, ProcessInjector};

const USAGE: &str = "usage: campaign_supervisor --shards N --dir PATH [options] [plan flags]
  --shards N                shard processes to supervise (required)
  --dir PATH                directory for per-shard journals, exports,
                            heartbeats, the merged export and manifest
  --export PATH             merged export path (default DIR/merged.bin)
  --manifest PATH           manifest path (default DIR/manifest.txt)
  --child PATH              campaign_run binary (default: sibling of this one)
  --restart-budget N        restarts per shard before quarantine (default 3)
  --restart-backoff-ms N    first restart delay (default 100, doubles per restart)
  --restart-backoff-cap-ms N  upper bound on the restart delay (default 2000)
  --poll-ms N               supervisor poll interval (default 25)
  --stall-timeout-ms N      no-progress window before a child is declared
                            wedged and SIGKILLed (default 10000)
plan flags are passed through to every child: --organization --seeds
--algorithms --orders --backgrounds --population --backend --threads
--max-attempts --backoff-ms --job-delay-ms
debug fault injections (for the kill-storm harness; repeatable):
  --kill-shard K@BEATS      SIGKILL shard K's child at BEATS heartbeats
  --stall-shard K@JOBS      shard K stops heartbeating after JOBS jobs
                            (first launch only)
  --wedge-shard K@JOBS      shard K hangs after JOBS jobs (first launch only)
  --crash-shard K@RECORDS   shard K aborts after RECORDS journal records,
                            on every launch (restart-budget exhaustion)
exit codes:
  0  every shard completed, no poisoned jobs
  2  usage error (unknown flag, malformed value)
  3  supervisor error (spawn failure, child usage error, I/O)
  4  every shard completed but some jobs are poison-quarantined
  5  degraded: shards were quarantined, the export is partial";

/// Flags forwarded verbatim (with their value) to every child.
const PLAN_FLAGS: [&str; 11] = [
    "--organization",
    "--seeds",
    "--algorithms",
    "--orders",
    "--backgrounds",
    "--population",
    "--backend",
    "--threads",
    "--max-attempts",
    "--backoff-ms",
    "--job-delay-ms",
];

/// Flags the supervisor consumes itself, each taking one value.
const SUPERVISOR_FLAGS: [&str; 10] = [
    "--shards",
    "--dir",
    "--export",
    "--manifest",
    "--child",
    "--restart-budget",
    "--restart-backoff-ms",
    "--restart-backoff-cap-ms",
    "--poll-ms",
    "--stall-timeout-ms",
];

/// Injection flags, each taking one `K@N` value; repeatable.
const INJECTION_FLAGS: [&str; 4] = [
    "--kill-shard",
    "--stall-shard",
    "--wedge-shard",
    "--crash-shard",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("campaign_supervisor: {usage}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Splits `K@N` into `(shard, threshold)`.
fn parse_at(flag: &str, raw: &str) -> Result<(u32, u64), UsageError> {
    raw.split_once('@')
        .and_then(|(shard, threshold)| {
            Some((shard.trim().parse().ok()?, threshold.trim().parse().ok()?))
        })
        .ok_or_else(|| UsageError::new(flag, format!("cannot parse \"{raw}\" (expected K@N)")))
}

/// Builds the [`ProcessInjector`] from the parsed injection flags.
fn build_injector(injections: &[(String, u32, u64)]) -> ProcessInjector {
    let kills = injections
        .iter()
        .filter(|(flag, _, _)| flag == "--kill-shard")
        .map(|(_, shard, after_beats)| ProcessInjection::KillChild {
            shard: *shard,
            after_beats: *after_beats,
        })
        .collect();
    let mut injector = ProcessInjector::new(kills);
    for (flag, shard, threshold) in injections {
        let threshold = threshold.to_string();
        injector = match flag.as_str() {
            "--stall-shard" => {
                injector.with_first_launch_args(*shard, &["--stall-heartbeat-after", &threshold])
            }
            "--wedge-shard" => {
                injector.with_first_launch_args(*shard, &["--wedge-after", &threshold])
            }
            "--crash-shard" => {
                injector.with_every_launch_args(*shard, &["--abort-after-records", &threshold])
            }
            _ => injector,
        };
    }
    injector
}

fn run(args: &[String]) -> Result<ExitCode, UsageError> {
    if args.iter().any(|a| a == "--help") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let valued: Vec<&str> = [&PLAN_FLAGS[..], &SUPERVISOR_FLAGS, &INJECTION_FLAGS].concat();
    let cli = Args::scan(args, &valued, &[])?;
    let parse = |flag: &str, default: u64| cli.parse_or(flag, default);

    let shards = parse("--shards", 0)?;
    if shards == 0 {
        return Err(UsageError::new("--shards", "required, and at least 1"));
    }
    let dir = cli
        .value("--dir")
        .map(PathBuf::from)
        .ok_or_else(|| UsageError::new("--dir", "required flag missing"))?;

    let mut options = SupervisorOptions::in_dir(dir, shards as u32);
    if let Some(path) = cli.value("--export") {
        options.merged_export = PathBuf::from(path);
    }
    if let Some(path) = cli.value("--manifest") {
        options.manifest = PathBuf::from(path);
    }
    options.restart_budget = parse("--restart-budget", 3)? as u32;
    options.backoff_base = Duration::from_millis(parse("--restart-backoff-ms", 100)?);
    options.backoff_cap = Duration::from_millis(parse("--restart-backoff-cap-ms", 2000)?);
    options.poll_interval = Duration::from_millis(parse("--poll-ms", 25)?);
    options.stall_timeout = Duration::from_millis(parse("--stall-timeout-ms", 10_000)?);

    let program = match cli.value("--child") {
        Some(path) => PathBuf::from(path),
        None => default_child_path().ok_or_else(|| {
            UsageError::new("--child", "cannot locate campaign_run next to this binary")
        })?,
    };
    let mut plan_args = Vec::new();
    let mut injections = Vec::new();
    for (flag, value) in cli.iter() {
        let value = value.unwrap_or_default();
        if PLAN_FLAGS.contains(&flag) {
            plan_args.extend([flag.to_string(), value.to_string()]);
        } else if INJECTION_FLAGS.contains(&flag) {
            let (shard, threshold) = parse_at(flag, value)?;
            injections.push((flag.to_string(), shard, threshold));
        }
    }
    let command = ShardCommand { program, plan_args };
    let injector = build_injector(&injections);

    match supervise(&command, &options, &injector) {
        Ok(report) => {
            for (shard, fate) in report.fates.iter().enumerate() {
                match fate {
                    ShardFate::Completed { poisoned, restarts } => {
                        let poison = if *poisoned {
                            ", poisoned jobs inside"
                        } else {
                            ""
                        };
                        println!(
                            "supervisor: shard {shard} completed ({restarts} restarts{poison})"
                        );
                    }
                    ShardFate::Quarantined {
                        restarts,
                        last_failure,
                    } => {
                        eprintln!(
                            "supervisor: shard {shard} quarantined after {restarts} restarts \
                             (last failure: {last_failure})"
                        );
                    }
                }
            }
            println!(
                "supervisor: merged {}/{} jobs into {} (manifest {})",
                report.total_jobs as usize - report.missing_jobs.len(),
                report.total_jobs,
                report.merged_export.display(),
                report.manifest.display(),
            );
            if report.degraded() {
                eprintln!(
                    "supervisor: DEGRADED — {} jobs missing, see the manifest",
                    report.missing_jobs.len()
                );
                Ok(ExitCode::from(5))
            } else if report.poisoned() {
                for job in &report.poisoned_jobs {
                    eprintln!("supervisor: job {job} is poison-quarantined");
                }
                Ok(ExitCode::from(4))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        Err(error) => {
            eprintln!("campaign_supervisor: {error}");
            Ok(ExitCode::from(3))
        }
    }
}

/// `campaign_run` next to the running `campaign_supervisor` binary.
fn default_child_path() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let sibling = exe.parent()?.join("campaign_run");
    sibling.exists().then_some(sibling)
}
