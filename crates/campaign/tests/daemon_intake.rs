//! The daemon's intake suite: dynamic submissions, backpressure,
//! deadlines, drain and crash-resume — every robustness claim of
//! `campaign::daemon`, pinned against the static runner.
//!
//! The core invariant: a daemon campaign over jobs `J0..Jn` (however
//! raggedly they arrived, crashed, or timed out) exports bytes identical
//! to `campaign_run` executing the same jobs as a static up-front plan.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use campaign::daemon::{run_daemon, DaemonOptions};
use campaign::runner::{run_campaign, CampaignOptions};
use campaign::spec::{CampaignPlan, JobSpec, PopulationSpec};
use campaign::spool::{SpoolDir, SpoolResponse};
use campaign::{CampaignError, FaultInjector, Injection, JobStatus, Shard};
use march_test::coverage::SweepBackend;

/// A unique temp path per call, so parallel tests never collide.
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "campaign-daemon-{tag}-{}-{unique}",
        std::process::id()
    ))
}

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        rows: 16,
        cols: 16,
        seed,
        algorithm: "March C-".to_string(),
        order: "linear".to_string(),
        background: false,
        backend: SweepBackend::LaneBatched,
        population: PopulationSpec::Mixed { count: 64 },
    }
}

fn jobs(count: u64) -> Vec<JobSpec> {
    (1..=count).map(spec).collect()
}

/// Options for a batch-style daemon run: quiesce once the spool drains.
fn quiesce_options(threads: usize) -> DaemonOptions {
    let options = DaemonOptions {
        threads,
        backoff: Duration::ZERO,
        poll_interval: Duration::ZERO,
        ..DaemonOptions::default()
    };
    options.quiesce.store(true, Ordering::SeqCst);
    options
}

/// Spools `specs` under names that sort in list order.
fn spool_all(spool: &SpoolDir, specs: &[JobSpec]) {
    for (index, spec) in specs.iter().enumerate() {
        spool.submit(&format!("j{index:04}"), spec).expect("submit");
    }
}

/// The equivalent static campaign's export bytes.
fn static_export(specs: &[JobSpec], threads: usize, tag: &str) -> Vec<u8> {
    let journal = temp_path(tag);
    let plan = CampaignPlan::new(specs.to_vec());
    let summary = run_campaign(
        &plan,
        Shard::whole(),
        &journal,
        &CampaignOptions {
            threads,
            backoff: Duration::ZERO,
            ..CampaignOptions::default()
        },
        &FaultInjector::none(),
    )
    .expect("static run");
    std::fs::remove_file(&journal).ok();
    summary.export.to_bytes()
}

#[test]
fn daemon_export_matches_the_equivalent_static_plan_byte_for_byte() {
    let specs = jobs(6);
    for threads in [1, 4] {
        let dir = temp_path("equiv-spool");
        let journal = temp_path("equiv");
        let spool = SpoolDir::open(&dir).expect("spool");
        spool_all(&spool, &specs);
        let summary = run_daemon(
            &spool,
            &journal,
            &quiesce_options(threads),
            &FaultInjector::none(),
        )
        .expect("daemon run");
        assert_eq!(summary.accepted, 6);
        assert_eq!(summary.shed + summary.rejected + summary.duplicates, 0);
        assert_eq!(
            summary.export.to_bytes(),
            static_export(&specs, threads, "equiv-static"),
            "daemon export must equal the static plan's at {threads} threads"
        );
        // Every submission got an explicit accepted response.
        for index in 0..specs.len() {
            assert_eq!(
                spool.read_response(&format!("j{index:04}")),
                Some(SpoolResponse::Accepted { job: index as u32 })
            );
        }
        std::fs::remove_file(&journal).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn duplicate_submissions_answer_duplicate_and_run_once() {
    let dir = temp_path("dup-spool");
    let journal = temp_path("dup");
    let spool = SpoolDir::open(&dir).expect("spool");
    spool.submit("j0000", &spec(1)).expect("submit");
    spool.submit("j0001", &spec(2)).expect("submit");
    // Same spec bytes under two more names: digest dedup must absorb
    // both and point at the original plan index.
    spool.submit("j0002", &spec(1)).expect("submit");
    spool.submit("j0003", &spec(2)).expect("submit");
    let summary = run_daemon(
        &spool,
        &journal,
        &quiesce_options(2),
        &FaultInjector::none(),
    )
    .expect("daemon run");
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.duplicates, 2);
    assert_eq!(summary.plan.len(), 2);
    assert_eq!(
        spool.read_response("j0002"),
        Some(SpoolResponse::Duplicate { job: 0 })
    );
    assert_eq!(
        spool.read_response("j0003"),
        Some(SpoolResponse::Duplicate { job: 1 })
    );
    assert_eq!(
        summary.export.to_bytes(),
        static_export(&jobs(2), 2, "dup-static")
    );
    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_explicitly_instead_of_growing_the_queue() {
    let dir = temp_path("shed-spool");
    let journal = temp_path("shed");
    let spool = SpoolDir::open(&dir).expect("spool");
    let specs = jobs(8);
    spool_all(&spool, &specs);
    // One worker, queue bounded at 2: the first scan happens before any
    // job runs, so it deterministically admits 2 and sheds 6.
    let options = DaemonOptions {
        queue_limit: 2,
        ..quiesce_options(1)
    };
    let summary =
        run_daemon(&spool, &journal, &options, &FaultInjector::none()).expect("daemon run");
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.shed, 6);
    assert_eq!(summary.plan.len(), 2, "shed jobs are never journaled");
    for index in 2..8 {
        assert_eq!(
            spool.read_response(&format!("j{index:04}")),
            Some(SpoolResponse::QueueFull),
            "submission {index} must be told it was shed"
        );
    }
    // The admitted prefix still exports exactly like its static plan.
    assert_eq!(
        summary.export.to_bytes(),
        static_export(&specs[..2], 1, "shed-static")
    );
    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unparsable_and_invalid_submissions_are_rejected_explicitly() {
    let dir = temp_path("reject-spool");
    let journal = temp_path("reject");
    let spool = SpoolDir::open(&dir).expect("spool");
    spool.submit("j0000", &spec(1)).expect("submit");
    // A committed .job whose body does not parse.
    std::fs::write(dir.join("j0001.job"), "CJOB1|not-a-job\n").expect("write");
    // A parse-clean spec that fails validation (unknown algorithm).
    let mut unknown = spec(2);
    unknown.algorithm = "March Nope".to_string();
    spool.submit("j0002", &unknown).expect("submit");
    // A job naming the retired list-order backend.
    std::fs::write(
        dir.join("j0003.job"),
        "CJOB1|16x16|3|March C-|linear|0|list-order|mixed:64\n",
    )
    .expect("write");
    let summary = run_daemon(
        &spool,
        &journal,
        &quiesce_options(2),
        &FaultInjector::none(),
    )
    .expect("daemon run");
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.rejected, 3);
    assert_eq!(summary.plan.len(), 1);
    for name in ["j0001", "j0002", "j0003"] {
        match spool.read_response(name) {
            Some(SpoolResponse::Rejected { .. }) => {}
            other => panic!("{name}: expected Rejected, got {other:?}"),
        }
    }
    assert_eq!(
        summary.export.to_bytes(),
        static_export(&jobs(1), 2, "reject-static")
    );
    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadline_storm_journals_timeouts_and_still_converges() {
    let specs = jobs(3);
    let dir = temp_path("deadline-spool");
    let journal = temp_path("deadline");
    let spool = SpoolDir::open(&dir).expect("spool");
    spool_all(&spool, &specs);
    // Job 1 stalls 2000ms on its first two attempts against a 100ms
    // deadline: both attempts are journaled timed-out, the third runs
    // clean — so the final export is the clean one.
    let options = DaemonOptions {
        deadline: Some(Duration::from_millis(100)),
        ..quiesce_options(2)
    };
    let injector = FaultInjector::new(vec![Injection::StallJob {
        job: 1,
        attempts: 2,
        delay_ms: 2000,
    }]);
    let summary = run_daemon(&spool, &journal, &options, &injector).expect("daemon run");
    assert_eq!(summary.timed_out, 2, "both stalled attempts must time out");
    assert_eq!(summary.retries, 2);
    assert!(summary.poisoned.is_empty());
    assert_eq!(
        summary.export.to_bytes(),
        static_export(&specs, 2, "deadline-static"),
        "timed-out attempts must not change the final export"
    );
    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadline_exhaustion_quarantines_instead_of_wedging() {
    let dir = temp_path("exhaust-spool");
    let journal = temp_path("exhaust");
    let spool = SpoolDir::open(&dir).expect("spool");
    spool_all(&spool, &jobs(2));
    // Job 0 stalls past the deadline on every allowed attempt: it must
    // end poison-quarantined while job 1 completes normally — and the
    // whole run must finish long before 3 × 60s of stalls would.
    let options = DaemonOptions {
        max_attempts: 3,
        deadline: Some(Duration::from_millis(50)),
        ..quiesce_options(2)
    };
    let injector = FaultInjector::new(vec![Injection::StallJob {
        job: 0,
        attempts: 3,
        delay_ms: 60_000,
    }]);
    let summary = run_daemon(&spool, &journal, &options, &injector).expect("daemon run");
    assert_eq!(summary.timed_out, 3);
    assert_eq!(summary.poisoned, vec![0]);
    let outcomes = &summary.export.outcomes;
    assert_eq!(outcomes[0].status, JobStatus::Poisoned);
    assert_eq!(outcomes[1].status, JobStatus::Completed);
    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Crashes the daemon via `injections`, then resumes cold (with the
/// spool re-offering whatever was never archived) and returns the final
/// export bytes.
fn crash_then_resume(
    specs: &[JobSpec],
    injections: Vec<Injection>,
    threads: usize,
    tag: &str,
) -> Vec<u8> {
    let dir = temp_path(&format!("{tag}-spool"));
    let journal = temp_path(tag);
    let spool = SpoolDir::open(&dir).expect("spool");
    spool_all(&spool, specs);
    let first = run_daemon(
        &spool,
        &journal,
        &quiesce_options(threads),
        &FaultInjector::new(injections),
    );
    match first {
        Err(CampaignError::Injected { .. }) => {}
        other => panic!("expected an injected crash, got {other:?}"),
    }
    // Crash-resume: also re-offer the whole stream (a retrying client);
    // archive state plus digest dedup must absorb every duplicate.
    for (index, spec) in specs.iter().enumerate() {
        let name = format!("r{index:04}");
        spool.submit(&name, spec).expect("resubmit");
    }
    let options = DaemonOptions {
        resume: true,
        ..quiesce_options(threads)
    };
    let summary =
        run_daemon(&spool, &journal, &options, &FaultInjector::none()).expect("resumed run");
    assert_eq!(summary.plan.jobs, specs, "plan must survive the crash");
    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&dir).ok();
    summary.export.to_bytes()
}

#[test]
fn crash_mid_intake_resumes_byte_identical() {
    let specs = jobs(4);
    let clean = static_export(&specs, 1, "midintake-static");
    // Die between spool-accept and journal-append of each submission
    // ordinal in turn; every crash point must resume to identical bytes.
    for ordinal in 0..4 {
        let resumed = crash_then_resume(
            &specs,
            vec![Injection::CrashMidIntake {
                submission: ordinal,
            }],
            1,
            "midintake",
        );
        assert_eq!(
            resumed, clean,
            "crash at intake ordinal {ordinal} must resume byte-identical"
        );
    }
}

#[test]
fn torn_job_added_append_resumes_byte_identical() {
    let specs = jobs(4);
    let clean = static_export(&specs, 1, "tornadd-static");
    // With one worker the first scan admits all four jobs as journal
    // records 0..4; tearing record 2 tears the third JobAdded append.
    let resumed = crash_then_resume(
        &specs,
        vec![Injection::TornJournalWrite { record: 2 }],
        1,
        "tornadd",
    );
    assert_eq!(resumed, clean);
    // A flipped byte in a JobAdded record must likewise be discarded by
    // the checksum on resume, not replayed as a different job.
    let resumed = crash_then_resume(
        &specs,
        vec![Injection::FlipJournalByte {
            record: 1,
            byte: 20,
        }],
        1,
        "flipadd",
    );
    assert_eq!(resumed, clean);
}

#[test]
fn abort_between_jobs_resumes_byte_identical() {
    let specs = jobs(5);
    let clean = static_export(&specs, 2, "abort-static");
    let resumed = crash_then_resume(
        &specs,
        vec![Injection::AbortAfterRecords { count: 7 }],
        2,
        "abort",
    );
    assert_eq!(resumed, clean);
}

#[test]
fn shutdown_flag_drains_gracefully() {
    let dir = temp_path("drain-spool");
    let journal = temp_path("drain");
    let spool = SpoolDir::open(&dir).expect("spool");
    let specs = jobs(4);
    spool_all(&spool, &specs);
    // Service mode (no quiesce): the run would serve forever. A watcher
    // thread waits until every submission is answered, then trips the
    // drain flag — intake stops, admitted work finishes, the run
    // returns.
    let options = DaemonOptions {
        threads: 2,
        backoff: Duration::ZERO,
        poll_interval: Duration::ZERO,
        job_delay: Duration::from_millis(20),
        ..DaemonOptions::default()
    };
    let shutdown = Arc::clone(&options.shutdown);
    let watcher_spool = spool.clone();
    let watcher = std::thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let answered = (0..4).all(|index| {
                watcher_spool
                    .read_response(&format!("j{index:04}"))
                    .is_some()
            });
            if answered || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        shutdown.store(true, Ordering::SeqCst);
    });
    let summary =
        run_daemon(&spool, &journal, &options, &FaultInjector::none()).expect("daemon run");
    watcher.join().expect("watcher");
    assert!(summary.drained, "the run must report a graceful drain");
    assert_eq!(summary.accepted, 4);
    assert_eq!(
        summary.export.to_bytes(),
        static_export(&specs, 2, "drain-static"),
        "a drained daemon leaves every admitted job with a final outcome"
    );
    // The journal it left behind is clean: a resume replays it without
    // truncating a single byte and finds nothing left to do.
    let reopened = run_daemon(
        &spool,
        &journal,
        &DaemonOptions {
            resume: true,
            ..quiesce_options(1)
        },
        &FaultInjector::none(),
    )
    .expect("reopen");
    assert_eq!(reopened.skipped, 4);
    assert_eq!(reopened.executed, 0);
    assert_eq!(reopened.export.to_bytes(), summary.export.to_bytes());
    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_journal_kind_fails_with_a_directing_error() {
    let dir = temp_path("kind-spool");
    let journal = temp_path("kind");
    let spool = SpoolDir::open(&dir).expect("spool");
    // A static campaign writes a v1 journal; the daemon must refuse to
    // resume it and say which tool can.
    let plan = CampaignPlan::new(jobs(2));
    run_campaign(
        &plan,
        Shard::whole(),
        &journal,
        &CampaignOptions {
            threads: 1,
            backoff: Duration::ZERO,
            ..CampaignOptions::default()
        },
        &FaultInjector::none(),
    )
    .expect("static run");
    let options = DaemonOptions {
        resume: true,
        ..quiesce_options(1)
    };
    match run_daemon(&spool, &journal, &options, &FaultInjector::none()) {
        Err(CampaignError::Corrupt { reason, .. }) => {
            assert!(reason.contains("campaign_run"), "got: {reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Polls until `name` has a response, up to `limit`; returns the
/// response and how long it took to appear.
fn await_response(
    spool: &SpoolDir,
    name: &str,
    limit: Duration,
) -> (Option<SpoolResponse>, Duration) {
    let start = std::time::Instant::now();
    loop {
        let response = spool.read_response(name);
        if response.is_some() || start.elapsed() > limit {
            return (response, start.elapsed());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_submission_is_answered_while_every_worker_is_busy() {
    let dir = temp_path("busy-spool");
    let journal = temp_path("busy");
    let spool = SpoolDir::open(&dir).expect("spool");
    spool.submit("j0000", &spec(1)).expect("submit");
    // Service mode, one worker, and job 0 stalls for 2 s: job 1 arrives
    // while the only worker is busy and must be answered by intake long
    // before job 0 ends.
    let options = DaemonOptions {
        threads: 1,
        backoff: Duration::ZERO,
        poll_interval: Duration::ZERO,
        ..DaemonOptions::default()
    };
    let injector = FaultInjector::new(vec![Injection::StallJob {
        job: 0,
        attempts: 1,
        delay_ms: 2000,
    }]);
    let shutdown = Arc::clone(&options.shutdown);
    let client = spool.clone();
    let watcher = std::thread::spawn(move || {
        let first = await_response(&client, "j0000", Duration::from_secs(30)).0;
        client.submit("j0001", &spec(2)).expect("submit");
        let second = await_response(&client, "j0001", Duration::from_secs(30));
        shutdown.store(true, Ordering::SeqCst);
        (first, second)
    });
    let summary = run_daemon(&spool, &journal, &options, &injector).expect("daemon run");
    let (first, (second, waited)) = watcher.join().expect("watcher");
    assert_eq!(first, Some(SpoolResponse::Accepted { job: 0 }));
    assert_eq!(second, Some(SpoolResponse::Accepted { job: 1 }));
    assert!(
        waited < Duration::from_millis(500),
        "job 1 was answered after {waited:?}, behind the busy worker"
    );
    assert!(summary.drained);
    assert_eq!(
        summary.export.to_bytes(),
        static_export(&jobs(2), 1, "busy-static"),
        "the drain still runs both admitted jobs"
    );
    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_submission_during_a_drain_stays_in_the_spool_for_the_next_run() {
    let dir = temp_path("late-spool");
    let journal = temp_path("late");
    let spool = SpoolDir::open(&dir).expect("spool");
    spool.submit("j0000", &spec(1)).expect("submit");
    // The drain flag is already set: the daemon never scans, so the
    // committed submission is neither answered nor archived.
    let options = DaemonOptions {
        threads: 1,
        poll_interval: Duration::ZERO,
        ..DaemonOptions::default()
    };
    options.shutdown.store(true, Ordering::SeqCst);
    let summary =
        run_daemon(&spool, &journal, &options, &FaultInjector::none()).expect("daemon run");
    assert!(summary.drained);
    assert_eq!(summary.accepted + summary.shed, 0);
    assert_eq!(summary.plan.len(), 0);
    assert_eq!(spool.read_response("j0000"), None);
    assert_eq!(spool.scan().expect("scan").len(), 1, "the .job file stays");
    // The next run admits it like any other submission.
    let options = DaemonOptions {
        resume: true,
        ..quiesce_options(1)
    };
    let summary =
        run_daemon(&spool, &journal, &options, &FaultInjector::none()).expect("resumed run");
    assert_eq!(
        spool.read_response("j0000"),
        Some(SpoolResponse::Accepted { job: 0 })
    );
    assert_eq!(summary.executed, 1);
    assert_eq!(
        summary.export.to_bytes(),
        static_export(&jobs(1), 1, "late-static")
    );
    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&dir).ok();
}
