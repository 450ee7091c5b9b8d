//! The one attempt engine behind [`crate::run_campaign`] and
//! [`crate::run_daemon`].
//!
//! Both front ends open a journal, hand the engine its replay, and let
//! [`sched::run_pool`] workers drain the engine's queue. The engine owns
//! everything in between:
//!
//! * **seeding** — owned jobs the replay left unfinished are queued at
//!   their next attempt; a job whose attempts the journal already burned
//!   (the process died before writing its poison record) is quarantined
//!   on the spot;
//! * **the producer** — a worker pops the next attempt, or parks on the
//!   engine's condvar while nothing is runnable (an attempt in flight may
//!   fail and re-enqueue itself, and the daemon's intake may admit more).
//!   It is answered `None` once the run aborted, or once the engine is
//!   closed with nothing queued or in flight. Idle workers cost no
//!   wakeups;
//! * **the attempt** — linear backoff, then the job runs inside
//!   `catch_unwind` (on a watchdog thread only when a deadline is set),
//!   then its fate is journaled and fsynced, the optional heartbeat beats,
//!   the abort-after-N injection is checked, and only then is the job
//!   completed, re-enqueued or quarantined in memory. A failed append
//!   aborts the run without recording the outcome — exactly what dying
//!   mid-append loses;
//! * **outcome assembly** — every owned job's outcome in plan order, with
//!   the run's counters.
//!
//! Locking: one `Mutex<State>` with its condvar, the plan, and the
//! journal (with the heartbeat) each behind their own mutex. Admission
//! nests state → plan → journal; a worker never holds two of them, so no
//! worker takes the state lock while it holds the journal lock.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use march_test::address_order::order_by_name;
use march_test::coverage::{catch_sweep, evaluate_coverage_interned, panic_message, SweepOptions};
use march_test::fault_sim::DetectionMode;
use march_test::library::algorithm_by_name;
use sched::{run_pool, Task};
use sram_model::config::ArrayOrganization;

use crate::error::CampaignError;
use crate::faultpoint::FaultInjector;
use crate::heartbeat::HeartbeatWriter;
use crate::journal::{JobResult, JobWire, Journal, JournalRecord, Replay};
use crate::output::{JobOutcome, JobStatus};
use crate::spec::JobSpec;

/// What a front end configures, the same knobs for both.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Settings<'a> {
    /// Attempts per job before it is quarantined as poison (≥ 1).
    pub max_attempts: u8,
    /// Attempt `n + 1` waits `backoff × n` before re-executing.
    pub backoff: Duration,
    /// Debug: sleep this long at the start of every job.
    pub job_delay: Duration,
    /// Abandon an attempt that overruns this, journaling it timed out.
    pub deadline: Option<Duration>,
    /// Heartbeat sidecar, beaten at start and after every journaled
    /// attempt.
    pub heartbeat: Option<&'a Path>,
    /// The armed fault injections.
    pub injector: &'a FaultInjector,
}

/// What a finished run produced.
pub(crate) struct Finished {
    /// The plan, grown by every admission.
    pub plan: Vec<JobSpec>,
    /// Every owned job's outcome, in plan order.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs executed to completion by this run.
    pub executed: usize,
    /// Jobs the replayed journal had already completed.
    pub skipped: usize,
    /// Retry attempts queued by this run.
    pub retries: usize,
    /// Attempts abandoned at their deadline by this run.
    pub timed_out: usize,
    /// Quarantined jobs, from this run and the journal.
    pub poisoned: Vec<u32>,
}

/// The attempt engine: see the module docs.
pub(crate) struct Engine<'a> {
    settings: Settings<'a>,
    plan: Mutex<Vec<JobSpec>>,
    log: Mutex<Log>,
    state: Mutex<State>,
    wake: Condvar,
    /// Attempts journaled so far — the clock the heartbeat-stall and
    /// wedge injections run on.
    attempts_logged: AtomicU64,
    skipped: usize,
}

struct Log {
    journal: Journal,
    heartbeat: Option<HeartbeatWriter>,
}

#[derive(Default)]
struct State {
    queue: VecDeque<(u32, u8)>,
    in_flight: usize,
    closed: bool,
    abort: Option<CampaignError>,
    owned: Vec<u32>,
    results: BTreeMap<u32, JobResult>,
    poisoned: BTreeMap<u32, String>,
    executed: usize,
    retries: usize,
    timed_out: usize,
}

/// Why an attempt produced no result.
struct Failure {
    message: String,
    /// The attempt overran its deadline and was abandoned.
    timed_out: bool,
}

impl<'a> Engine<'a> {
    /// Seeds the queue with the unfinished jobs of `owned` from `replay`,
    /// then writes the start heartbeat — before any worker spawns, so a
    /// supervisor sees liveness while the first (possibly slow) job runs.
    pub(crate) fn new(
        mut journal: Journal,
        replay: Replay,
        plan: Vec<JobSpec>,
        owned: Vec<u32>,
        settings: Settings<'a>,
    ) -> Result<Self, CampaignError> {
        let mut poisoned = replay.poisoned;
        let mut queue = VecDeque::new();
        for &job in &owned {
            if replay.completed.contains_key(&job) || poisoned.contains_key(&job) {
                continue;
            }
            let (used, message) = replay
                .failed_attempts
                .get(&job)
                .cloned()
                .unwrap_or_default();
            if used >= settings.max_attempts {
                // The journal burned every attempt but died before
                // writing the poison record: quarantine now.
                let record = JournalRecord::Poisoned {
                    job,
                    attempt: used,
                    message: message.clone(),
                };
                journal.append(&record, settings.injector)?;
                poisoned.insert(job, message);
            } else {
                queue.push_back((job, used + 1));
            }
        }
        let heartbeat = settings
            .heartbeat
            .map(HeartbeatWriter::create)
            .transpose()?;
        Ok(Self {
            settings,
            plan: Mutex::new(plan),
            log: Mutex::new(Log { journal, heartbeat }),
            skipped: replay.completed.len(),
            state: Mutex::new(State {
                queue,
                owned,
                results: replay.completed,
                poisoned,
                ..State::default()
            }),
            wake: Condvar::new(),
            attempts_logged: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("engine state lock")
    }

    /// Drains the queue with up to `threads` pool workers; returns once
    /// every worker was answered `None`. A closed engine never has more
    /// attempts runnable at once than it has queued now, so it spawns no
    /// more workers than that.
    pub(crate) fn run(&self, threads: usize) {
        let workers = {
            let state = self.lock();
            if state.closed {
                threads.min(state.queue.len())
            } else {
                threads
            }
        };
        run_pool(workers, |_| {
            let (job, attempt) = self.next()?;
            Some(Task::new(move || self.attempt(job, attempt)))
        });
    }

    /// The pool's producer: the next attempt, parking the asking worker
    /// while nothing is runnable yet.
    fn next(&self) -> Option<(u32, u8)> {
        let mut state = self.lock();
        loop {
            if self
                .settings
                .injector
                .wedge_armed(self.attempts_logged.load(Ordering::SeqCst))
            {
                // Injected wedge: the process stays alive but makes no
                // progress — no heartbeat, no journal growth. Only an
                // external SIGKILL (the supervisor's stall timeout)
                // recovers a child in this state.
                drop(state);
                loop {
                    thread::park();
                }
            }
            if state.abort.is_some() {
                return None;
            }
            if let Some(next) = state.queue.pop_front() {
                state.in_flight += 1;
                return Some(next);
            }
            if state.closed && state.in_flight == 0 {
                return None;
            }
            state = self.wake.wait(state).expect("engine state lock");
        }
    }

    /// One journaled attempt at one job; see the module docs.
    fn attempt(&self, job: u32, attempt: u8) {
        if attempt > 1 {
            thread::sleep(self.settings.backoff * u32::from(attempt - 1));
        }
        let spec = self.plan.lock().expect("plan lock")[job as usize].clone();
        let outcome = self.execute(spec, job, attempt);
        let last = attempt >= self.settings.max_attempts;
        let logged = self.log(job, attempt, &outcome, last);
        let mut state = self.lock();
        state.in_flight -= 1;
        match (logged, outcome) {
            (Err(error), _) => {
                state.abort.get_or_insert(error);
            }
            (Ok(()), Ok(result)) => {
                state.results.insert(job, result);
                state.executed += 1;
            }
            (Ok(()), Err(failure)) => {
                state.timed_out += usize::from(failure.timed_out);
                if last {
                    state.poisoned.insert(job, failure.message);
                } else {
                    state.retries += 1;
                    state.queue.push_back((job, attempt + 1));
                }
            }
        }
        drop(state);
        self.wake.notify_all();
    }

    /// Runs one attempt panic-isolated. With a deadline the job runs on a
    /// watchdog thread; if it misses the deadline that thread is
    /// abandoned (its result lands in a closed channel) and the worker
    /// moves on.
    fn execute(&self, spec: JobSpec, job: u32, attempt: u8) -> Result<JobResult, Failure> {
        let Settings {
            job_delay,
            deadline,
            injector,
            ..
        } = self.settings;
        let failed = |message| Failure {
            message,
            timed_out: false,
        };
        let Some(deadline) = deadline else {
            return caught(&spec, job, attempt, job_delay, injector).map_err(failed);
        };
        let (sender, receiver) = mpsc::channel();
        let injector = injector.clone();
        thread::spawn(move || {
            // The receiver may be long gone (deadline missed) — that is
            // the abandonment working, not an error.
            let _ = sender.send(caught(&spec, job, attempt, job_delay, &injector));
        });
        match receiver.recv_timeout(deadline) {
            Ok(outcome) => outcome.map_err(failed),
            Err(_) => Err(Failure {
                message: format!(
                    "deadline {}ms exceeded; attempt abandoned",
                    deadline.as_millis()
                ),
                timed_out: true,
            }),
        }
    }

    /// Journals one attempt's fate, then beats the heartbeat while the
    /// journal lock still pins the record count the beat reports. A
    /// timeout is its own record kind; at the attempt cap the poison
    /// record follows it, so the job's fate is final in the journal.
    fn log(
        &self,
        job: u32,
        attempt: u8,
        outcome: &Result<JobResult, Failure>,
        last: bool,
    ) -> Result<(), CampaignError> {
        let (record, quarantine) = match outcome {
            Ok(result) => (
                JournalRecord::Completed {
                    job,
                    attempt,
                    result: *result,
                },
                None,
            ),
            Err(Failure { message, timed_out }) => {
                let message = message.clone();
                let poisoned = JournalRecord::Poisoned {
                    job,
                    attempt,
                    message: message.clone(),
                };
                if *timed_out {
                    let timed_out = JournalRecord::TimedOut {
                        job,
                        attempt,
                        message,
                    };
                    (timed_out, last.then_some(poisoned))
                } else if last {
                    (poisoned, None)
                } else {
                    (
                        JournalRecord::Failed {
                            job,
                            attempt,
                            message,
                        },
                        None,
                    )
                }
            }
        };
        let injector = self.settings.injector;
        let mut log = self.log.lock().expect("journal lock");
        let Log { journal, heartbeat } = &mut *log;
        for record in [Some(record), quarantine].iter().flatten() {
            journal.append(record, injector)?;
        }
        let logged = self.attempts_logged.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(heartbeat) = heartbeat {
            // The stall injection silences the beat, not the work.
            if !injector.heartbeat_stalled(logged) {
                heartbeat.beat(journal.records_written())?;
            }
        }
        if injector.should_abort(journal.records_written()) {
            return Err(CampaignError::Injected {
                point: format!("abort after {} records", journal.records_written()),
            });
        }
        Ok(())
    }

    /// Admits one job unless `queue_limit` attempts already wait
    /// (`None`): its `JobAdded` record is fsynced and its first attempt
    /// queued under one state lock, so the job is durable before any
    /// worker or client can see it.
    pub(crate) fn admit(
        &self,
        spec: JobSpec,
        wire: JobWire,
        queue_limit: usize,
    ) -> Result<Option<u32>, CampaignError> {
        let mut state = self.lock();
        if state.queue.len() >= queue_limit {
            return Ok(None);
        }
        let mut plan = self.plan.lock().expect("plan lock");
        let job = plan.len() as u32;
        let record = JournalRecord::JobAdded { job, wire };
        let mut log = self.log.lock().expect("journal lock");
        log.journal.append(&record, self.settings.injector)?;
        plan.push(spec);
        state.owned.push(job);
        state.queue.push_back((job, 1));
        drop((log, plan, state));
        self.wake.notify_one();
        Ok(Some(job))
    }

    /// Admits nothing more: workers retire once nothing is queued or in
    /// flight.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    /// Closes the engine if nothing is queued or in flight; returns
    /// whether it did.
    pub(crate) fn close_if_idle(&self) -> bool {
        let mut state = self.lock();
        let idle = state.queue.is_empty() && state.in_flight == 0;
        state.closed |= idle;
        drop(state);
        if idle {
            self.wake.notify_all();
        }
        idle
    }

    /// Stops the run with `error` (the first abort wins).
    pub(crate) fn abort(&self, error: CampaignError) {
        self.lock().abort.get_or_insert(error);
        self.wake.notify_all();
    }

    /// `true` until the engine is closed or the run aborted.
    pub(crate) fn serving(&self) -> bool {
        let state = self.lock();
        !state.closed && state.abort.is_none()
    }

    /// The first abort error, or every owned job's outcome.
    pub(crate) fn finish(self) -> Result<Finished, CampaignError> {
        let state = self.state.into_inner().expect("engine state lock");
        if let Some(error) = state.abort {
            return Err(error);
        }
        let outcomes = state
            .owned
            .iter()
            .map(|&job| {
                let (status, result) = if let Some(result) = state.results.get(&job) {
                    (JobStatus::Completed, *result)
                } else if state.poisoned.contains_key(&job) {
                    // All-zero result: the export must not depend on
                    // which attempt's message happened to be last.
                    (JobStatus::Poisoned, JobResult::default())
                } else {
                    return Err(CampaignError::Corrupt {
                        offset: 0,
                        reason: format!("job {job} finished the run unaccounted"),
                    });
                };
                Ok(JobOutcome {
                    job,
                    status,
                    result,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Finished {
            plan: self.plan.into_inner().expect("plan lock"),
            outcomes,
            executed: state.executed,
            skipped: self.skipped,
            retries: state.retries,
            timed_out: state.timed_out,
            poisoned: state.poisoned.into_keys().collect(),
        })
    }
}

/// [`execute_job`] with a panic anywhere in the job — fault model,
/// kernel, injected worker kill — collapsed to a failure message; the
/// worker itself survives.
fn caught(
    spec: &JobSpec,
    job: u32,
    attempt: u8,
    job_delay: Duration,
    injector: &FaultInjector,
) -> Result<JobResult, String> {
    catch_unwind(AssertUnwindSafe(|| {
        execute_job(spec, job, attempt, job_delay, injector)
    }))
    .unwrap_or_else(|payload| Err(panic_message(&*payload)))
}

/// Executes one job attempt: resolve the spec, build the population,
/// sweep, digest. Returns a message (for the journal) on any failure;
/// panics escape to the attempt's `catch_unwind`.
pub(crate) fn execute_job(
    spec: &JobSpec,
    job: u32,
    attempt: u8,
    job_delay: Duration,
    injector: &FaultInjector,
) -> Result<JobResult, String> {
    injector.check_worker_kill(job, attempt);
    if let Some(stall) = injector.job_stall(job, attempt) {
        // Injected stall: the job is healthy but slow — deadline-storm
        // fuel. The result is unchanged once the stall passes.
        thread::sleep(stall);
    }
    if !job_delay.is_zero() {
        thread::sleep(job_delay);
    }
    let organization =
        ArrayOrganization::new(spec.rows, spec.cols).map_err(|error| error.to_string())?;
    let test = algorithm_by_name(&spec.algorithm)
        .ok_or_else(|| format!("unknown algorithm \"{}\"", spec.algorithm))?;
    let order = order_by_name(&spec.order, spec.seed)
        .ok_or_else(|| format!("unknown address order \"{}\"", spec.order))?;
    let faults = spec.population.build(&organization, spec.seed)?;
    let detonate = injector.lane_panic_armed(job, attempt);
    let sweep = SweepOptions {
        background: spec.background,
        mode: DetectionMode::Full,
        // Campaign parallelism is across jobs; each sweep stays serial so
        // worker threads do not oversubscribe the machine.
        parallel: false,
        backend: spec.backend,
    };
    // The compact sweep: same kernel, same digest bit-for-bit, and no
    // name rendered until the digest — the journal only ever wants the
    // counts and the fingerprint. An armed injection panics inside the
    // caught sweep, as a misbehaving fault model would.
    let report = catch_sweep(|| {
        if detonate {
            panic!("faultpoint: fault model panicked in the sweep of job {job}");
        }
        evaluate_coverage_interned(&test, order.as_ref(), &organization, &faults, sweep)
    })
    .map_err(|panic| panic.to_string())?;
    Ok(JobResult {
        detected: report.detected() as u32,
        total: report.total() as u32,
        mismatches: report.total_mismatches(),
        digest: report.digest(),
    })
}
