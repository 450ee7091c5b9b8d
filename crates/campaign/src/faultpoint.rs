//! Deterministic fault injection — the harness that *proves* crash
//! safety.
//!
//! A [`FaultInjector`] carries a list of [`Injection`]s, each naming one
//! failure mode at one deterministic point (a job index, an attempt
//! number, a journal record ordinal). The runner and journal consult the
//! injector at the matching points; with [`FaultInjector::none`] every
//! check is a no-op, so production campaigns pay one branch per site.
//!
//! The injected failures are *real*: a worker kill is a genuine panic
//! unwinding out of the job closure, a fault-model panic detonates inside
//! the caught sweep ([`march_test::coverage::catch_sweep`]), a torn write
//! leaves a genuinely half-written record on disk. The differential tests then
//! assert that resuming after each of them reproduces the uninterrupted
//! campaign byte for byte.

/// One deterministic failure to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Panic at the start of `job` for its first `attempts` attempts —
    /// a worker dying mid-job. With `attempts >= max_attempts` this is
    /// the poison-exhaustion scenario.
    KillWorker {
        /// Plan index of the job to kill.
        job: u32,
        /// How many attempts die before the job is allowed to succeed.
        attempts: u8,
    },
    /// Panic *inside the caught sweep* of `job`, for its first `attempts`
    /// attempts, where a misbehaving fault model's panic would surface:
    /// the attempt fails with a `sweep panicked:` message and the worker
    /// survives.
    LaneModelPanic {
        /// Plan index of the job whose sweep panics.
        job: u32,
        /// How many attempts panic before the job is allowed to
        /// succeed.
        attempts: u8,
    },
    /// Write only the first half of journal record ordinal `record`
    /// (0-based count of records appended across the campaign), then
    /// abort the run — a crash mid-`write(2)`.
    TornJournalWrite {
        /// Ordinal of the record to tear.
        record: u64,
    },
    /// Flip one bit of byte `byte` of journal record ordinal `record` as
    /// it is written, then abort the run — tail corruption that the
    /// checksum must catch on resume.
    FlipJournalByte {
        /// Ordinal of the record to corrupt.
        record: u64,
        /// Byte offset within the record (0..63) to flip.
        byte: usize,
    },
    /// Abort the run after `count` journal records have been appended —
    /// a clean SIGKILL between two jobs.
    AbortAfterRecords {
        /// Number of records after which the run stops.
        count: u64,
    },
    /// Stop writing heartbeats once `after_jobs` job attempts have been
    /// journaled, while continuing to execute jobs — a shard whose
    /// sidecar channel died but whose work did not. A supervisor that
    /// also watches journal growth must *not* restart such a shard.
    StallHeartbeat {
        /// Journaled attempts after which the heartbeat goes silent.
        after_jobs: u64,
    },
    /// Stop making any progress once `after_jobs` job attempts have been
    /// journaled: workers park forever instead of taking the next job,
    /// with no heartbeat and no journal growth — a genuinely wedged
    /// child that only an external kill can recover.
    WedgeProcess {
        /// Journaled attempts after which the process wedges.
        after_jobs: u64,
    },
    /// A submitting client dies mid-write: trace-replay event ordinal
    /// `submission` (0-based) writes only a prefix of its `.tmp` spool
    /// file and never renames it. The daemon must ignore the orphan
    /// forever — the job simply never arrived.
    TornSpoolWrite {
        /// Trace event ordinal whose submission is torn.
        submission: u64,
    },
    /// Abort the daemon between spool-accept and journal-append of
    /// intake ordinal `submission` (0-based count of spool files read) —
    /// a crash mid-intake. The `.job` file is still in the spool, so a
    /// restart re-offers it and digest dedup absorbs any half-progress.
    CrashMidIntake {
        /// Intake ordinal at which the daemon dies.
        submission: u64,
    },
    /// Stall job `job` for `delay_ms` on its first `attempts` attempts —
    /// fuel for deadline storms: with a per-job deadline below the stall,
    /// each stalled attempt times out and is journaled as such instead of
    /// wedging its worker.
    StallJob {
        /// Plan index of the job to stall.
        job: u32,
        /// How many attempts stall before the job runs at full speed.
        attempts: u8,
        /// Stall duration in milliseconds.
        delay_ms: u64,
    },
}

/// What the journal should do with the record it is about to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalAction {
    /// Write the record normally.
    Normal,
    /// Write only the first half, then abort the run.
    Torn,
    /// Flip one bit of the given byte, write the full record, then abort
    /// the run.
    Flip(usize),
}

/// A set of armed injections, consulted at each failure point.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    injections: Vec<Injection>,
}

impl FaultInjector {
    /// No injections: every check is a no-op.
    pub fn none() -> Self {
        Self::default()
    }

    /// Arms `injections`.
    pub fn new(injections: Vec<Injection>) -> Self {
        Self { injections }
    }

    /// Panics — killing the calling worker's current job — when a
    /// [`Injection::KillWorker`] matches `(job, attempt)`. Called at the
    /// top of job execution, inside the attempt engine's panic isolation.
    pub fn check_worker_kill(&self, job: u32, attempt: u8) {
        for injection in &self.injections {
            if let Injection::KillWorker {
                job: target,
                attempts,
            } = injection
            {
                if *target == job && attempt <= *attempts {
                    panic!("faultpoint: worker killed on job {job} attempt {attempt}");
                }
            }
        }
    }

    /// `true` when a [`Injection::LaneModelPanic`] matches `(job,
    /// attempt)` and the attempt's sweep should panic.
    pub fn lane_panic_armed(&self, job: u32, attempt: u8) -> bool {
        self.injections.iter().any(|injection| {
            matches!(injection, Injection::LaneModelPanic { job: target, attempts }
                if *target == job && attempt <= *attempts)
        })
    }

    /// The journal's directive for record ordinal `record`.
    pub fn journal_action(&self, record: u64) -> JournalAction {
        for injection in &self.injections {
            match injection {
                Injection::TornJournalWrite { record: target } if *target == record => {
                    return JournalAction::Torn;
                }
                Injection::FlipJournalByte {
                    record: target,
                    byte,
                } if *target == record => {
                    return JournalAction::Flip(*byte);
                }
                _ => {}
            }
        }
        JournalAction::Normal
    }

    /// `true` when the run should abort after `records_written` records
    /// ([`Injection::AbortAfterRecords`]).
    pub fn should_abort(&self, records_written: u64) -> bool {
        self.injections.iter().any(|injection| {
            matches!(injection, Injection::AbortAfterRecords { count }
                if records_written >= *count)
        })
    }

    /// `true` when the heartbeat should go silent at `jobs_done`
    /// journaled attempts ([`Injection::StallHeartbeat`]).
    pub fn heartbeat_stalled(&self, jobs_done: u64) -> bool {
        self.injections.iter().any(|injection| {
            matches!(injection, Injection::StallHeartbeat { after_jobs }
                if jobs_done > *after_jobs)
        })
    }

    /// `true` when the process should wedge — park every worker forever —
    /// at `jobs_done` journaled attempts ([`Injection::WedgeProcess`]).
    pub fn wedge_armed(&self, jobs_done: u64) -> bool {
        self.injections.iter().any(|injection| {
            matches!(injection, Injection::WedgeProcess { after_jobs }
                if jobs_done >= *after_jobs)
        })
    }

    /// `true` when trace-replay event ordinal `submission` should be
    /// written torn ([`Injection::TornSpoolWrite`]).
    pub fn spool_torn(&self, submission: u64) -> bool {
        self.injections.iter().any(|injection| {
            matches!(injection, Injection::TornSpoolWrite { submission: target }
                if *target == submission)
        })
    }

    /// `true` when the daemon should die between spool-accept and
    /// journal-append of intake ordinal `submission`
    /// ([`Injection::CrashMidIntake`]).
    pub fn crash_mid_intake(&self, submission: u64) -> bool {
        self.injections.iter().any(|injection| {
            matches!(injection, Injection::CrashMidIntake { submission: target }
                if *target == submission)
        })
    }

    /// The injected stall for `(job, attempt)`, if any
    /// ([`Injection::StallJob`]).
    pub fn job_stall(&self, job: u32, attempt: u8) -> Option<std::time::Duration> {
        self.injections
            .iter()
            .find_map(|injection| match injection {
                Injection::StallJob {
                    job: target,
                    attempts,
                    delay_ms,
                } if *target == job && attempt <= *attempts => {
                    Some(std::time::Duration::from_millis(*delay_ms))
                }
                _ => None,
            })
    }
}

/// One process-level failure for the supervisor to inject into a
/// supervised campaign. Unlike [`Injection`]s (which the runner carries
/// in-process), these describe what the *supervisor* does to its
/// children, or which debug flags it arms a child with at launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessInjection {
    /// SIGKILL shard `shard`'s child process once its heartbeat reaches
    /// `after_beats` beats — a worker box dying mid-campaign. Fires at
    /// most once.
    KillChild {
        /// Shard whose child dies.
        shard: u32,
        /// Heartbeat count at (or past) which the kill fires.
        after_beats: u64,
    },
}

/// The supervisor's armed process-level injections: deterministic child
/// kills, plus per-shard debug flags appended to child command lines.
/// `first_launch` flags are dropped on restart (a transient fault the
/// recovery run does not replay); `every_launch` flags persist (a shard
/// that can never succeed, for restart-budget exhaustion tests).
#[derive(Debug, Default)]
pub struct ProcessInjector {
    kills: Vec<(ProcessInjection, std::cell::Cell<bool>)>,
    first_launch: Vec<(u32, Vec<String>)>,
    every_launch: Vec<(u32, Vec<String>)>,
}

impl ProcessInjector {
    /// No process injections: every check is a no-op.
    pub fn none() -> Self {
        Self::default()
    }

    /// Arms `kills`.
    pub fn new(kills: Vec<ProcessInjection>) -> Self {
        Self {
            kills: kills
                .into_iter()
                .map(|kill| (kill, std::cell::Cell::new(false)))
                .collect(),
            ..Self::default()
        }
    }

    /// Appends `args` to shard `shard`'s command line on its *first*
    /// launch only — restarts drop them.
    pub fn with_first_launch_args(mut self, shard: u32, args: &[&str]) -> Self {
        self.first_launch
            .push((shard, args.iter().map(|a| a.to_string()).collect()));
        self
    }

    /// Appends `args` to shard `shard`'s command line on *every* launch,
    /// restarts included.
    pub fn with_every_launch_args(mut self, shard: u32, args: &[&str]) -> Self {
        self.every_launch
            .push((shard, args.iter().map(|a| a.to_string()).collect()));
        self
    }

    /// `true` exactly once per armed [`ProcessInjection::KillChild`]
    /// whose `(shard, after_beats)` threshold `beats` has reached — the
    /// supervisor then SIGKILLs the child.
    pub fn kill_due(&self, shard: u32, beats: u64) -> bool {
        for (kill, consumed) in &self.kills {
            let ProcessInjection::KillChild {
                shard: target,
                after_beats,
            } = kill;
            if *target == shard && beats >= *after_beats && !consumed.get() {
                consumed.set(true);
                return true;
            }
        }
        false
    }

    /// Armed kills that have not fired yet — the harness asserts this
    /// reaches zero, so an injection that never fired fails the test
    /// instead of silently weakening it.
    pub fn unfired_kills(&self) -> usize {
        self.kills
            .iter()
            .filter(|(_, consumed)| !consumed.get())
            .count()
    }

    /// The debug flags to append to shard `shard`'s command line for
    /// launch number `launch` (0 = first launch).
    pub fn child_args(&self, shard: u32, launch: u32) -> Vec<String> {
        let mut args = Vec::new();
        if launch == 0 {
            for (target, extra) in &self.first_launch {
                if *target == shard {
                    args.extend(extra.iter().cloned());
                }
            }
        }
        for (target, extra) in &self.every_launch {
            if *target == shard {
                args.extend(extra.iter().cloned());
            }
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injections_match_only_their_own_coordinates() {
        let injector = FaultInjector::new(vec![
            Injection::KillWorker {
                job: 3,
                attempts: 2,
            },
            Injection::LaneModelPanic {
                job: 5,
                attempts: 1,
            },
            Injection::TornJournalWrite { record: 7 },
            Injection::FlipJournalByte {
                record: 9,
                byte: 60,
            },
            Injection::AbortAfterRecords { count: 11 },
        ]);
        // Worker kill: attempts 1 and 2 die, attempt 3 survives; other
        // jobs are untouched.
        assert!(std::panic::catch_unwind(|| injector.check_worker_kill(3, 1)).is_err());
        assert!(std::panic::catch_unwind(|| injector.check_worker_kill(3, 2)).is_err());
        assert!(std::panic::catch_unwind(|| injector.check_worker_kill(3, 3)).is_ok());
        assert!(std::panic::catch_unwind(|| injector.check_worker_kill(4, 1)).is_ok());
        // Lane panic arming.
        assert!(injector.lane_panic_armed(5, 1));
        assert!(!injector.lane_panic_armed(5, 2));
        assert!(!injector.lane_panic_armed(6, 1));
        // Journal directives.
        assert_eq!(injector.journal_action(7), JournalAction::Torn);
        assert_eq!(injector.journal_action(9), JournalAction::Flip(60));
        assert_eq!(injector.journal_action(8), JournalAction::Normal);
        // Abort threshold.
        assert!(!injector.should_abort(10));
        assert!(injector.should_abort(11));
        assert!(injector.should_abort(12));
        // The empty injector never fires.
        let none = FaultInjector::none();
        assert!(std::panic::catch_unwind(|| none.check_worker_kill(0, 1)).is_ok());
        assert_eq!(none.journal_action(0), JournalAction::Normal);
        assert!(!none.should_abort(u64::MAX));
    }

    #[test]
    fn stall_and_wedge_injections_trip_at_their_job_thresholds() {
        let injector = FaultInjector::new(vec![
            Injection::StallHeartbeat { after_jobs: 2 },
            Injection::WedgeProcess { after_jobs: 4 },
        ]);
        // Jobs 1 and 2 still beat; job 3 onward is silent.
        assert!(!injector.heartbeat_stalled(1));
        assert!(!injector.heartbeat_stalled(2));
        assert!(injector.heartbeat_stalled(3));
        // The process wedges once 4 attempts are journaled.
        assert!(!injector.wedge_armed(3));
        assert!(injector.wedge_armed(4));
        assert!(injector.wedge_armed(5));
        let none = FaultInjector::none();
        assert!(!none.heartbeat_stalled(u64::MAX));
        assert!(!none.wedge_armed(u64::MAX));
    }

    #[test]
    fn intake_injections_fire_at_their_own_ordinals() {
        let injector = FaultInjector::new(vec![
            Injection::TornSpoolWrite { submission: 2 },
            Injection::CrashMidIntake { submission: 4 },
            Injection::StallJob {
                job: 1,
                attempts: 2,
                delay_ms: 300,
            },
        ]);
        assert!(!injector.spool_torn(1));
        assert!(injector.spool_torn(2));
        assert!(!injector.crash_mid_intake(3));
        assert!(injector.crash_mid_intake(4));
        // The stall covers attempts 1 and 2 of job 1 only.
        assert_eq!(
            injector.job_stall(1, 1),
            Some(std::time::Duration::from_millis(300))
        );
        assert_eq!(
            injector.job_stall(1, 2),
            Some(std::time::Duration::from_millis(300))
        );
        assert_eq!(injector.job_stall(1, 3), None);
        assert_eq!(injector.job_stall(0, 1), None);
        let none = FaultInjector::none();
        assert!(!none.spool_torn(0));
        assert!(!none.crash_mid_intake(0));
        assert_eq!(none.job_stall(0, 1), None);
    }

    #[test]
    fn process_injector_kills_once_and_scopes_child_args_by_launch() {
        let injector = ProcessInjector::new(vec![
            ProcessInjection::KillChild {
                shard: 1,
                after_beats: 3,
            },
            ProcessInjection::KillChild {
                shard: 1,
                after_beats: 5,
            },
        ])
        .with_first_launch_args(0, &["--wedge-after", "1"])
        .with_every_launch_args(2, &["--abort-after-records", "2"]);
        assert_eq!(injector.unfired_kills(), 2);
        // Below threshold: nothing fires.
        assert!(!injector.kill_due(1, 2));
        assert!(!injector.kill_due(0, 100));
        // At threshold: fires exactly once; the second armed kill waits
        // for its own threshold.
        assert!(injector.kill_due(1, 3));
        assert!(!injector.kill_due(1, 3));
        assert_eq!(injector.unfired_kills(), 1);
        assert!(injector.kill_due(1, 7));
        assert_eq!(injector.unfired_kills(), 0);
        // First-launch args vanish on restart; every-launch args persist.
        assert_eq!(injector.child_args(0, 0), vec!["--wedge-after", "1"]);
        assert!(injector.child_args(0, 1).is_empty());
        assert_eq!(
            injector.child_args(2, 4),
            vec!["--abort-after-records", "2"]
        );
        assert!(injector.child_args(1, 0).is_empty());
        assert!(ProcessInjector::none().child_args(0, 0).is_empty());
    }
}
