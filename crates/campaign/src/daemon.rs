//! The long-running campaign daemon: dynamic job intake feeding the
//! attempt engine.
//!
//! [`run_daemon`] is the service half of the campaign layer: instead of
//! a plan fixed up front, jobs arrive *while the campaign runs*, through
//! the [`crate::spool`] drop directory, and are appended to a dynamic
//! (v2) journal as [`crate::journal::JournalRecord::JobAdded`] records.
//! The attempts themselves run on the same engine as
//! [`crate::run_campaign`]; this module adds only the intake. The first
//! spool scan runs on the calling thread before any worker starts; after
//! that one intake thread scans every [`DaemonOptions::poll_interval`],
//! so a submission is answered even while every worker is busy, and idle
//! workers park instead of polling. Robustness properties, each pinned
//! by a test:
//!
//! * **Bounded admission.** At most [`DaemonOptions::queue_limit`]
//!   attempts wait in the queue; a submission that would exceed it gets
//!   an explicit `queue-full` response and is *not* journaled — overload
//!   sheds visibly instead of growing an unbounded queue
//!   ([`SpoolResponse::QueueFull`]).
//! * **Exactly-once admission.** Submissions dedupe by
//!   [`crate::spec::JobSpec::digest`]: a resubmitted or re-offered job
//!   answers `duplicate` with the original plan index. Combined with the
//!   journal-append-then-archive intake order, a crash anywhere in
//!   intake re-offers the spool file and dedup absorbs it — at-least-once
//!   offer, exactly-once run.
//! * **Deadlines, not wedges.** With [`DaemonOptions::deadline`] set,
//!   each attempt runs under a watchdog; an overrunning attempt is
//!   abandoned and journaled as [`crate::journal::JournalRecord::TimedOut`]
//!   (burning an attempt, quarantining at the attempt cap) while the
//!   worker moves on.
//! * **Graceful drain.** When [`DaemonOptions::shutdown`] flips (the
//!   binary's SIGTERM handler), intake stops, queued and in-flight jobs
//!   finish, and the run returns with a journal in which every admitted
//!   job has a final fate — exit 0, nothing lost. The spool is not
//!   scanned again, so a submission committed after the flag stays in
//!   the spool unanswered and the next run admits it. A SIGKILL instead
//!   resumes from the journal and produces a byte-identical export; the
//!   CI `daemon-drain-resume` job diffs exactly that.
//!
//! Determinism contract: the export is
//! [`Export::new`] over the dynamic plan in journal order with the
//! dynamic plan's own digest, so a daemon campaign's export is
//! byte-identical to `campaign_run` executing the same jobs as a static
//! up-front plan — regardless of thread count, timeouts, crashes, or how
//! ragged the arrival timing was.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use march_test::parallel::max_threads;

use crate::engine::{Engine, Settings};
use crate::error::CampaignError;
use crate::faultpoint::FaultInjector;
use crate::journal::{JobWire, Journal, Replay};
use crate::output::Export;
use crate::spec::{CampaignPlan, JobSpec};
use crate::spool::{SpoolDir, SpoolResponse};

/// The intake thread's shortest sleep between scans.
const MIN_POLL: Duration = Duration::from_millis(1);

/// Tuning knobs of a daemon run.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Worker threads draining the job queue.
    pub threads: usize,
    /// Attempts per job before it is quarantined as poison (≥ 1).
    pub max_attempts: u8,
    /// Base retry backoff, linear in the attempt number.
    pub backoff: Duration,
    /// Resume from an existing dynamic journal instead of starting
    /// fresh. A missing journal file falls back to a fresh start.
    pub resume: bool,
    /// Debug: sleep this long at the start of every job.
    pub job_delay: Duration,
    /// Bounded admission queue: submissions beyond this many waiting
    /// attempts are shed with a `queue-full` response.
    pub queue_limit: usize,
    /// Per-attempt deadline; an overrunning attempt is abandoned and
    /// journaled as timed-out. `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Interval between spool scans on the intake thread (at least
    /// 1 ms).
    pub poll_interval: Duration,
    /// Graceful-drain flag (the binary's SIGTERM handler sets it): stop
    /// intake, finish queued and in-flight work, return.
    pub shutdown: Arc<AtomicBool>,
    /// Batch-mode flag: when set, the daemon returns once the spool has
    /// no committed submissions left and all admitted work is done —
    /// "run until the trace is drained" for tests and benches.
    pub quiesce: Arc<AtomicBool>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            threads: max_threads(),
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            resume: false,
            job_delay: Duration::ZERO,
            queue_limit: 64,
            deadline: None,
            poll_interval: Duration::from_millis(2),
            shutdown: Arc::new(AtomicBool::new(false)),
            quiesce: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// What a daemon run did and produced.
#[derive(Debug, Clone)]
pub struct DaemonSummary {
    /// Deterministic per-job outcomes over the dynamic plan, in journal
    /// (admission) order — byte-identical to the equivalent static run.
    pub export: Export,
    /// The dynamic plan as admitted, in journal order.
    pub plan: CampaignPlan,
    /// Submissions admitted (journaled) by *this* invocation.
    pub accepted: usize,
    /// Submissions answered `duplicate`.
    pub duplicates: usize,
    /// Submissions shed with `queue-full`.
    pub shed: usize,
    /// Submissions answered `rejected`.
    pub rejected: usize,
    /// Attempts abandoned at their deadline by this invocation.
    pub timed_out: usize,
    /// Jobs executed to completion by this invocation.
    pub executed: usize,
    /// Jobs already complete in the resumed journal.
    pub skipped: usize,
    /// Retry attempts dispatched by this invocation.
    pub retries: usize,
    /// Quarantined jobs (plan indices), from this run and the journal.
    pub poisoned: Vec<u32>,
    /// `true` when the run ended via the graceful-drain flag.
    pub drained: bool,
}

/// Runs (or resumes) a daemon campaign over `spool`, journaling to
/// `journal_path`, until drained ([`DaemonOptions::shutdown`]) or
/// quiesced ([`DaemonOptions::quiesce`] with an empty spool).
///
/// Fails fast on an unreadable or mismatched journal and on injected
/// crashes; per-job failures are retried and quarantined, not returned
/// as errors.
pub fn run_daemon(
    spool: &SpoolDir,
    journal_path: &Path,
    options: &DaemonOptions,
    injector: &FaultInjector,
) -> Result<DaemonSummary, CampaignError> {
    let (journal, mut replay) = if options.resume && journal_path.exists() {
        Journal::open_resume_dynamic(journal_path)?
    } else {
        (Journal::create_dynamic(journal_path)?, Replay::default())
    };
    let plan = std::mem::take(&mut replay.dynamic);
    let mut intake = Intake {
        spool,
        options,
        injector,
        digests: plan.iter().map(JobSpec::digest).zip(0..).collect(),
        seen: 0,
        accepted: 0,
        duplicates: 0,
        shed: 0,
        rejected: 0,
    };
    let owned = (0..plan.len() as u32).collect();
    let settings = Settings {
        max_attempts: options.max_attempts,
        backoff: options.backoff,
        job_delay: options.job_delay,
        deadline: options.deadline,
        heartbeat: None,
        injector,
    };
    let engine = Engine::new(journal, replay, plan, owned, settings)?;

    // The first scan runs before any worker starts, so with one worker
    // it admits `queue_limit` submissions and sheds the rest
    // deterministically.
    let serving = intake.round(&engine);
    thread::scope(|scope| {
        if serving {
            scope.spawn(|| loop {
                thread::sleep(options.poll_interval.max(MIN_POLL));
                if !intake.round(&engine) {
                    break;
                }
            });
        }
        engine.run(options.threads);
    });

    let run = engine.finish()?;
    let plan = CampaignPlan::new(run.plan);
    Ok(DaemonSummary {
        export: Export::new(plan.digest(), plan.len() as u32, run.outcomes),
        plan,
        accepted: intake.accepted,
        duplicates: intake.duplicates,
        shed: intake.shed,
        rejected: intake.rejected,
        timed_out: run.timed_out,
        executed: run.executed,
        skipped: run.skipped,
        retries: run.retries,
        poisoned: run.poisoned,
        drained: options.shutdown.load(Ordering::SeqCst),
    })
}

/// The spool side of a daemon run: the dedup table, the intake ordinal
/// the crash-mid-intake injection runs on, and the admission counters.
struct Intake<'a> {
    spool: &'a SpoolDir,
    options: &'a DaemonOptions,
    injector: &'a FaultInjector,
    /// Spec digest → plan index.
    digests: BTreeMap<u64, u32>,
    seen: u64,
    accepted: usize,
    duplicates: usize,
    shed: usize,
    rejected: usize,
}

impl Intake<'_> {
    /// One intake round. The drain flag closes the engine without a scan;
    /// otherwise every committed submission is answered, and under
    /// quiesce the engine closes once a scan answered nothing and nothing
    /// is queued or in flight. An intake error aborts the run. Returns
    /// `false` once the engine stopped serving.
    fn round(&mut self, engine: &Engine) -> bool {
        if !engine.serving() {
            return false;
        }
        if self.options.shutdown.load(Ordering::SeqCst) {
            engine.close();
            return false;
        }
        // Read before the scan: a submission committed before the flag
        // was set is then seen by this scan.
        let quiesce = self.options.quiesce.load(Ordering::SeqCst);
        match self.scan(engine) {
            Ok(0) if quiesce => !engine.close_if_idle(),
            Ok(_) => true,
            Err(error) => {
                engine.abort(error);
                false
            }
        }
    }

    /// One spool scan: every committed submission is admitted, deduped,
    /// shed, or rejected, and answered explicitly. Returns how many
    /// submissions it answered.
    fn scan(&mut self, engine: &Engine) -> Result<usize, CampaignError> {
        let submissions = self.spool.scan()?;
        for submission in &submissions {
            let ordinal = self.seen;
            self.seen += 1;
            // The crash window: the submission was read from the spool
            // ("spool-accept") but its JobAdded record has not been
            // appended. Dying here must lose nothing — the .job file
            // stays, restart re-offers it.
            if self.injector.crash_mid_intake(ordinal) {
                return Err(CampaignError::Injected {
                    point: format!("crash mid-intake at submission {ordinal}"),
                });
            }
            let response = self.admit(engine, &submission.spec)?;
            *match response {
                SpoolResponse::Accepted { .. } => &mut self.accepted,
                SpoolResponse::Duplicate { .. } => &mut self.duplicates,
                SpoolResponse::QueueFull => &mut self.shed,
                SpoolResponse::Rejected { .. } => &mut self.rejected,
            } += 1;
            self.spool.respond(&submission.name, &response)?;
            self.spool.archive(&submission.name)?;
        }
        Ok(submissions.len())
    }

    /// Decides one submission's fate: rejected (unparsable, invalid, or
    /// outside the wire catalogs), duplicate (digest already admitted),
    /// queue-full (bounded admission), or accepted — in which case the
    /// JobAdded record is fsynced to the journal *before* the job becomes
    /// visible to workers or the client.
    fn admit(
        &mut self,
        engine: &Engine,
        spec: &Result<JobSpec, String>,
    ) -> Result<SpoolResponse, CampaignError> {
        let checked = spec.clone().and_then(|spec| {
            spec.validate()?;
            let wire = JobWire::from_spec(&spec)?;
            Ok((spec, wire))
        });
        let (spec, wire) = match checked {
            Ok(checked) => checked,
            Err(reason) => return Ok(SpoolResponse::Rejected { reason }),
        };
        if let Some(&job) = self.digests.get(&wire.spec_digest) {
            return Ok(SpoolResponse::Duplicate { job });
        }
        // Shed *before* journaling: a queue-full submission leaves no
        // trace in the plan, so the client can resubmit identical bytes
        // later without tripping dedup.
        let Some(job) = engine.admit(spec, wire, self.options.queue_limit)? else {
            return Ok(SpoolResponse::QueueFull);
        };
        self.digests.insert(wire.spec_digest, job);
        Ok(SpoolResponse::Accepted { job })
    }
}
