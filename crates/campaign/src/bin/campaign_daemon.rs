//! `campaign_daemon` — the long-running dynamic-intake campaign service.
//!
//! Watches a spool directory for tmp+rename job submissions, appends
//! admitted jobs to a dynamic (v2) journal, runs them on the crash-safe
//! worker pool with bounded admission and per-job deadlines, and answers
//! every submission explicitly (accepted / duplicate / queue-full /
//! rejected).
//!
//! ```text
//! campaign_daemon --spool jobs/ --journal daemon.journal --export out.bin
//! campaign_daemon --spool jobs/ --journal daemon.journal --resume   # after SIGKILL
//! campaign_daemon --spool jobs/ --journal daemon.journal \
//!     --trace arrivals.trace --once                      # replay a recorded trace
//! ```
//!
//! SIGTERM (or SIGINT) drains gracefully: intake stops, queued and
//! in-flight jobs finish, the journal is left clean, and the process
//! exits 0. SIGKILL is the crash path: restart with `--resume` and the
//! journal replay reconstructs the dynamic plan — the export is
//! byte-identical either way.
//!
//! Exit codes, same classes as `campaign_run`:
//!
//! * `0` — drained or quiesced cleanly, no poisoned jobs
//! * `2` — usage error (unknown flag, malformed value)
//! * `3` — campaign error (I/O, corrupt journal, injected crash)
//! * `4` — drained, but some jobs are poison-quarantined

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use campaign::cli::{Args, UsageError};
use campaign::daemon::{run_daemon, DaemonOptions};
use campaign::trace::{load_trace, replay_trace_injected};
use campaign::{FaultInjector, Injection, SpoolDir};

const USAGE: &str = "usage: campaign_daemon --spool DIR --journal PATH [options]
  --spool DIR           spool directory for job intake (required)
  --journal PATH        dynamic (v2) journal file (required)
  --threads N           worker threads (default: all cores)
  --max-attempts N      attempts before poison quarantine (default 3)
  --backoff-ms N        base retry backoff in ms (default 10)
  --job-delay-ms N      debug: sleep per job, for kill-timing tests
  --queue-limit N       bounded admission queue; beyond it submissions
                        are shed with a queue-full response (default 64)
  --deadline-ms N       per-attempt deadline; an overrunning attempt is
                        abandoned and journaled timed-out (default: none)
  --poll-ms N           spool scan interval in ms (default 2)
  --trace PATH          replay a recorded arrival trace into the spool
                        (open-loop), then quiesce once it is drained
  --once                quiesce mode: exit once the spool is empty and
                        all admitted work is done (implied by --trace)
  --export PATH         write the deterministic binary export
  --resume              resume from the journal (fresh start if missing)
  --help                print this help and exit
debug fault injections (for the crash-resume test harness):
  --abort-after-records N   abort once N records are journaled (exit 3)
  --crash-mid-intake N      die between spool-accept and journal-append
                            of intake ordinal N (exit 3)
  --torn-spool N            tear trace event ordinal N mid-submission
  --stall-job J@A:MS        stall job J for MS ms on its first A attempts
exit codes:
  0  drained or quiesced cleanly, no poisoned jobs
  2  usage error (unknown flag, malformed value)
  3  campaign error (I/O, corrupt journal, injected crash)
  4  completed, but some jobs are poison-quarantined";

/// Flags that take one value.
const VALUE_FLAGS: [&str; 15] = [
    "--spool",
    "--journal",
    "--threads",
    "--max-attempts",
    "--backoff-ms",
    "--job-delay-ms",
    "--queue-limit",
    "--deadline-ms",
    "--poll-ms",
    "--trace",
    "--export",
    "--abort-after-records",
    "--crash-mid-intake",
    "--torn-spool",
    "--stall-job",
];

/// Flags that take none.
const BARE_FLAGS: [&str; 2] = ["--once", "--resume"];

/// The daemon's drain flag, which the SIGTERM/SIGINT handler sets
/// directly. The static keeps one reference alive for as long as the
/// process runs, so the handler never sees a freed flag.
static DRAIN: OnceLock<Arc<AtomicBool>> = OnceLock::new();

#[cfg(unix)]
mod sig {
    use super::DRAIN;
    use std::sync::atomic::Ordering;

    // The lib crate forbids unsafe; this binary is its own crate root and
    // installs the one handler the daemon needs without pulling in libc.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: reading an initialised `OnceLock` is one
        // atomic load, and the store is another; nothing allocates or
        // locks.
        if let Some(drain) = DRAIN.get() {
            drain.store(true, Ordering::SeqCst);
        }
    }

    /// Installs the graceful-drain handler for SIGTERM (15) and
    /// SIGINT (2). Set [`DRAIN`] first.
    pub fn install() {
        unsafe {
            signal(15, on_signal);
            signal(2, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// No signal handling off unix; drain via --once / --trace instead.
    pub fn install() {}
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("campaign_daemon: {usage}");
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

    let spool_dir = PathBuf::from(
        args.value("--spool")
            .ok_or_else(|| UsageError::new("--spool", "required flag missing"))?,
    );
    let journal = PathBuf::from(
        args.value("--journal")
            .ok_or_else(|| UsageError::new("--journal", "required flag missing"))?,
    );
    let export_path = args.value("--export").map(PathBuf::from);
    let trace_path = args.value("--trace").map(PathBuf::from);

    let mut injections = Vec::new();
    if let Some(count) = args.parse("--abort-after-records")? {
        injections.push(Injection::AbortAfterRecords { count });
    }
    if let Some(submission) = args.parse("--crash-mid-intake")? {
        injections.push(Injection::CrashMidIntake { submission });
    }
    if let Some(submission) = args.parse("--torn-spool")? {
        injections.push(Injection::TornSpoolWrite { submission });
    }
    if let Some(raw) = args.value("--stall-job") {
        // J@A:MS — job J stalls MS milliseconds on its first A attempts.
        let parsed = raw.split_once('@').and_then(|(job, rest)| {
            let (attempts, delay) = rest.split_once(':')?;
            Some(Injection::StallJob {
                job: job.parse().ok()?,
                attempts: attempts.parse().ok()?,
                delay_ms: delay.parse().ok()?,
            })
        });
        injections.push(
            parsed.ok_or_else(|| UsageError::new("--stall-job", "expected JOB@ATTEMPTS:MS"))?,
        );
    }
    let injector = FaultInjector::new(injections);

    let shutdown = Arc::new(AtomicBool::new(false));
    let quiesce = Arc::new(AtomicBool::new(false));
    let options = DaemonOptions {
        threads: args.parse_or("--threads", DaemonOptions::default().threads)?,
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
        queue_limit: {
            let limit: usize = args.parse_or("--queue-limit", 64usize)?;
            if limit == 0 {
                return Err(UsageError::new("--queue-limit", "must be at least 1"));
            }
            limit
        },
        deadline: args.parse("--deadline-ms")?.map(Duration::from_millis),
        poll_interval: Duration::from_millis(args.parse_or("--poll-ms", 2u64)?),
        shutdown: Arc::clone(&shutdown),
        quiesce: Arc::clone(&quiesce),
    };

    let spool = match SpoolDir::open(&spool_dir) {
        Ok(spool) => spool,
        Err(error) => {
            eprintln!("campaign_daemon: {error}");
            return Ok(ExitCode::from(3));
        }
    };

    // The handler stores into the drain flag itself: no thread polls for
    // the signal.
    let _ = DRAIN.set(Arc::clone(&shutdown));
    sig::install();

    // Trace replay runs open-loop on its own thread; once the whole
    // trace has been offered, quiesce so the run ends when drained.
    let replay = trace_path.map(|path| {
        let spool = spool.clone();
        let injector = injector.clone();
        let quiesce = Arc::clone(&quiesce);
        std::thread::spawn(move || {
            let result = load_trace(&path).and_then(|events| {
                replay_trace_injected(&spool, &events, Instant::now(), &injector)
            });
            quiesce.store(true, Ordering::SeqCst);
            result
        })
    });
    if replay.is_none() && args.present("--once") {
        quiesce.store(true, Ordering::SeqCst);
    }

    let outcome = run_daemon(&spool, &journal, &options, &injector);
    if let Some(handle) = replay {
        match handle.join() {
            Ok(Ok(_)) => {}
            Ok(Err(error)) => {
                eprintln!("campaign_daemon: trace replay: {error}");
                return Ok(ExitCode::from(3));
            }
            Err(_) => {
                eprintln!("campaign_daemon: trace replay thread panicked");
                return Ok(ExitCode::from(3));
            }
        }
    }

    match outcome {
        Ok(summary) => {
            if let Some(path) = &export_path {
                if let Err(error) = summary.export.write(path) {
                    eprintln!("campaign_daemon: {error}");
                    return Ok(ExitCode::from(3));
                }
            }
            println!(
                "daemon: {} jobs ({} accepted, {} duplicate, {} shed, {} rejected, \
                 {} timed-out attempts, {} executed, {} resumed, {} retries, {} poisoned){}",
                summary.plan.len(),
                summary.accepted,
                summary.duplicates,
                summary.shed,
                summary.rejected,
                summary.timed_out,
                summary.executed,
                summary.skipped,
                summary.retries,
                summary.poisoned.len(),
                if summary.drained { ", drained" } else { "" }
            );
            if summary.poisoned.is_empty() {
                Ok(ExitCode::SUCCESS)
            } else {
                for job in &summary.poisoned {
                    eprintln!("campaign_daemon: job {job} is poison-quarantined");
                }
                Ok(ExitCode::from(4))
            }
        }
        Err(error) => {
            eprintln!("campaign_daemon: {error}");
            Ok(ExitCode::from(3))
        }
    }
}
