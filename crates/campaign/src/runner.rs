//! The fixed-plan front end of the attempt engine.
//!
//! [`run_campaign`] runs (or resumes) one shard of a [`CampaignPlan`]:
//! it opens the static (v1) journal, hands the replay to the crate's
//! attempt engine — the same one [`crate::daemon`] drives — closed to
//! intake from the start, and lets [`sched::run_pool`] workers drain it.
//! Every attempt is panic-isolated, so a panicking fault model (or an
//! injected worker kill) costs *one attempt at one job*: the worker
//! survives, journals a failure record, re-enqueues the job with bounded
//! backoff, and quarantines it as poison after
//! [`CampaignOptions::max_attempts`] attempts with the panic payload
//! recorded. Static runs beat the optional heartbeat sidecar
//! ([`CampaignOptions::heartbeat`]) and run without a deadline.
//!
//! Determinism contract: a job's result depends only on its
//! [`crate::spec::JobSpec`] — never on scheduling — and the export is
//! assembled from per-job results sorted by plan index. An interrupted
//! and resumed campaign therefore produces an export byte-identical to an
//! uninterrupted one, at any thread count; the fault-injection tests pin
//! exactly that.

use std::path::{Path, PathBuf};
use std::time::Duration;

use march_test::parallel::max_threads;

use crate::engine::{execute_job, Engine, Settings};
use crate::error::CampaignError;
use crate::faultpoint::FaultInjector;
use crate::journal::{JobResult, Journal, Replay};
use crate::output::Export;
use crate::shard::Shard;
use crate::spec::{CampaignPlan, JobSpec};

/// Tuning knobs of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads draining the job queue.
    pub threads: usize,
    /// Attempts per job before it is quarantined as poison (≥ 1).
    pub max_attempts: u8,
    /// Base retry backoff: attempt `n + 1` waits `backoff × n` before
    /// re-executing (bounded by `max_attempts`).
    pub backoff: Duration,
    /// Resume from an existing journal instead of starting fresh. A
    /// missing journal file falls back to a fresh start.
    pub resume: bool,
    /// Debug: sleep this long at the start of every job (lets the CI
    /// smoke test kill a campaign reliably mid-run). Does not affect
    /// results.
    pub job_delay: Duration,
    /// Heartbeat sidecar file for a supervising process: written at
    /// campaign start and after every journal append
    /// ([`crate::heartbeat`]). `None` (the default) skips heartbeats
    /// entirely — unsupervised campaigns pay nothing.
    pub heartbeat: Option<PathBuf>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            threads: max_threads(),
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            resume: false,
            job_delay: Duration::ZERO,
            heartbeat: None,
        }
    }
}

/// What a campaign run did and produced.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// The deterministic per-job outcomes (every owned job, sorted).
    pub export: Export,
    /// Jobs executed to completion by *this* invocation.
    pub executed: usize,
    /// Jobs skipped because the resumed journal already completed them.
    pub skipped: usize,
    /// Retry attempts dispatched by this invocation.
    pub retries: usize,
    /// Quarantined jobs (plan indices), from this run and the journal.
    pub poisoned: Vec<u32>,
}

/// Runs (or resumes) one shard of a campaign, journaling per-job results
/// to `journal_path`.
///
/// Fails fast on an invalid plan, an unreadable or mismatched journal, or
/// an injected abort; per-job failures are retried and quarantined, not
/// returned as errors.
pub fn run_campaign(
    plan: &CampaignPlan,
    shard: Shard,
    journal_path: &Path,
    options: &CampaignOptions,
    injector: &FaultInjector,
) -> Result<CampaignSummary, CampaignError> {
    plan.validate()?;
    let owned = shard.jobs(plan.len() as u32);
    if owned.is_empty() {
        return Err(CampaignError::EmptyPlan);
    }
    let digest = plan.digest();
    let (journal, replay) = if options.resume && journal_path.exists() {
        Journal::open_resume(journal_path, plan.len() as u32, digest)?
    } else {
        (
            Journal::create(journal_path, plan.len() as u32, digest)?,
            Replay::default(),
        )
    };
    let settings = Settings {
        max_attempts: options.max_attempts,
        backoff: options.backoff,
        job_delay: options.job_delay,
        deadline: None,
        heartbeat: options.heartbeat.as_deref(),
        injector,
    };
    let engine = Engine::new(journal, replay, plan.jobs.clone(), owned, settings)?;
    // A fixed plan admits nothing: workers retire once the queue drains.
    engine.close();
    engine.run(options.threads);
    let run = engine.finish()?;
    Ok(CampaignSummary {
        export: Export::new(digest, plan.len() as u32, run.outcomes),
        executed: run.executed,
        skipped: run.skipped,
        retries: run.retries,
        poisoned: run.poisoned,
    })
}

/// Executes one job directly — no journal, no worker pool, no retries.
///
/// This is the raw per-job path the campaign machinery wraps; the bench
/// harness times it as the overhead-free baseline the campaign's jobs/sec
/// is gated against.
///
/// # Errors
///
/// Returns the same failure message a campaign worker would journal.
pub fn run_job(spec: &JobSpec) -> Result<JobResult, String> {
    execute_job(spec, 0, 1, Duration::ZERO, &FaultInjector::none())
}
