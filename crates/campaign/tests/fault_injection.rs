//! The seeded fault-injection suite: every crash mode the campaign
//! claims to survive, injected deterministically and proven recoverable.
//!
//! The core invariant, checked at 1, 2 and max threads: a campaign
//! interrupted at any injection point and then resumed produces an export
//! **byte-identical** to an uninterrupted run. Injection points covered:
//!
//! 1. worker kill (panic at job start, retried to success)
//! 2. fault-model panic (detonates inside the sweep kernel)
//! 3. torn journal write (half a record on disk)
//! 4. checksum flip (corrupted record on disk)
//! 5. abort between records (clean SIGKILL analogue) + double resume
//! 6. poison exhaustion (a job that never succeeds is quarantined)

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use campaign::runner::{run_campaign, CampaignOptions};
use campaign::spec::{CampaignPlan, PopulationSpec};
use campaign::{CampaignError, Export, FaultInjector, Injection, JobStatus, Shard};
use march_test::coverage::SweepBackend;
use march_test::parallel::max_threads;

/// A unique temp path per call, so parallel tests never collide.
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "campaign-{tag}-{}-{unique}.journal",
        std::process::id()
    ))
}

/// A small but non-trivial plan: 2 seeds × 2 algorithms × 2 orders on a
/// 16×16 array — 8 jobs of a few hundred sweep steps each.
fn small_plan() -> CampaignPlan {
    CampaignPlan::cross(
        16,
        16,
        &[1, 2],
        &["March C-".to_string(), "MATS+".to_string()],
        &[
            "word line after word line".to_string(),
            "pseudo-random".to_string(),
        ],
        &[false],
        SweepBackend::LaneBatched,
        PopulationSpec::Mixed { count: 120 },
    )
}

fn options(threads: usize) -> CampaignOptions {
    CampaignOptions {
        threads,
        max_attempts: 3,
        backoff: Duration::ZERO,
        ..CampaignOptions::default()
    }
}

/// An uninterrupted run's export bytes.
fn clean_export(plan: &CampaignPlan, threads: usize, tag: &str) -> Vec<u8> {
    let journal = temp_path(tag);
    let summary = run_campaign(
        plan,
        Shard::whole(),
        &journal,
        &options(threads),
        &FaultInjector::none(),
    )
    .expect("clean run");
    std::fs::remove_file(&journal).ok();
    summary.export.to_bytes()
}

/// Runs with `injections` armed until the run aborts (if it does), then
/// resumes without injections; returns the final export bytes.
fn interrupted_then_resumed(
    plan: &CampaignPlan,
    threads: usize,
    injections: Vec<Injection>,
    tag: &str,
) -> Vec<u8> {
    let journal = temp_path(tag);
    let injector = FaultInjector::new(injections);
    let first = run_campaign(plan, Shard::whole(), &journal, &options(threads), &injector);
    let summary = match first {
        // The injection aborted the run mid-flight: resume cold.
        Err(CampaignError::Injected { .. }) => {
            let mut resume = options(threads);
            resume.resume = true;
            run_campaign(
                plan,
                Shard::whole(),
                &journal,
                &resume,
                &FaultInjector::none(),
            )
            .expect("resumed run")
        }
        // The injection was absorbed in-flight (retries) and the run
        // completed anyway.
        Ok(summary) => summary,
        Err(other) => panic!("unexpected campaign error: {other}"),
    };
    std::fs::remove_file(&journal).ok();
    summary.export.to_bytes()
}

#[test]
fn worker_kill_is_retried_and_changes_nothing() {
    let plan = small_plan();
    for threads in [1, 2, max_threads()] {
        let clean = clean_export(&plan, threads, "kill-clean");
        let killed = interrupted_then_resumed(
            &plan,
            threads,
            vec![Injection::KillWorker {
                job: 3,
                attempts: 2,
            }],
            "kill",
        );
        assert_eq!(
            clean, killed,
            "worker kill must be invisible at {threads} threads"
        );
    }
}

#[test]
fn lane_model_panic_inside_the_kernel_is_survived() {
    let plan = small_plan();
    for threads in [1, 2, max_threads()] {
        let clean = clean_export(&plan, threads, "lane-clean");
        let detonated = interrupted_then_resumed(
            &plan,
            threads,
            vec![Injection::LaneModelPanic {
                job: 5,
                attempts: 1,
            }],
            "lane",
        );
        assert_eq!(
            clean, detonated,
            "a panicking lane model must cost one attempt, not the campaign, at {threads} threads"
        );
    }
}

#[test]
fn torn_journal_write_resumes_bit_identical() {
    let plan = small_plan();
    for threads in [1, 2, max_threads()] {
        let clean = clean_export(&plan, threads, "torn-clean");
        let torn = interrupted_then_resumed(
            &plan,
            threads,
            vec![Injection::TornJournalWrite { record: 4 }],
            "torn",
        );
        assert_eq!(
            clean, torn,
            "torn write must be truncated away at {threads} threads"
        );
    }
}

#[test]
fn flipped_checksum_byte_resumes_bit_identical() {
    let plan = small_plan();
    for threads in [1, 2, max_threads()] {
        let clean = clean_export(&plan, threads, "flip-clean");
        // Byte 58 sits inside the stored checksum itself.
        let flipped = interrupted_then_resumed(
            &plan,
            threads,
            vec![Injection::FlipJournalByte {
                record: 2,
                byte: 58,
            }],
            "flip",
        );
        assert_eq!(
            clean, flipped,
            "corrupt record must be discarded at {threads} threads"
        );
    }
}

#[test]
fn abort_and_double_resume_stay_bit_identical() {
    let plan = small_plan();
    for threads in [1, 2, max_threads()] {
        let clean = clean_export(&plan, threads, "abort-clean");
        // First run: aborts after 3 records (SIGKILL between jobs).
        let journal = temp_path("abort");
        let injector = FaultInjector::new(vec![Injection::AbortAfterRecords { count: 3 }]);
        let first = run_campaign(
            &plan,
            Shard::whole(),
            &journal,
            &options(threads),
            &injector,
        );
        assert!(
            matches!(first, Err(CampaignError::Injected { .. })),
            "abort must stop the run"
        );
        // Second run: resume, but abort again two records later — a
        // crash *during* the recovery run.
        let mut resume = options(threads);
        resume.resume = true;
        let again = FaultInjector::new(vec![Injection::AbortAfterRecords { count: 5 }]);
        let second = run_campaign(&plan, Shard::whole(), &journal, &resume, &again);
        assert!(
            matches!(second, Err(CampaignError::Injected { .. })),
            "the recovery run crashes too"
        );
        // Third run: double resume to completion.
        let summary = run_campaign(
            &plan,
            Shard::whole(),
            &journal,
            &resume,
            &FaultInjector::none(),
        )
        .expect("second resume completes");
        assert_eq!(
            clean,
            summary.export.to_bytes(),
            "double resume must converge at {threads} threads"
        );
        assert!(
            summary.skipped >= 3,
            "resume must skip journaled jobs, not redo them"
        );
        std::fs::remove_file(&journal).ok();
    }
}

#[test]
fn poison_exhaustion_quarantines_the_job_and_spares_the_rest() {
    let plan = small_plan();
    let clean = Export::from_bytes(&clean_export(&plan, 2, "poison-clean")).unwrap();
    let journal = temp_path("poison");
    // Job 6 dies on every attempt: 3 attempts, then quarantine.
    let injector = FaultInjector::new(vec![Injection::KillWorker {
        job: 6,
        attempts: u8::MAX,
    }]);
    let summary = run_campaign(&plan, Shard::whole(), &journal, &options(2), &injector)
        .expect("poison does not stop the campaign");
    assert_eq!(summary.poisoned, vec![6]);
    assert_eq!(summary.retries, 2, "attempts 2 and 3 are retries");
    let export = &summary.export;
    assert_eq!(export.outcomes.len(), plan.len());
    for outcome in &export.outcomes {
        if outcome.job == 6 {
            assert_eq!(outcome.status, JobStatus::Poisoned);
            assert_eq!(outcome.result.digest, 0);
        } else {
            assert_eq!(outcome.status, JobStatus::Completed);
            let clean_outcome = clean.outcomes[outcome.job as usize];
            assert_eq!(
                outcome.result, clean_outcome.result,
                "job {} must be untouched by job 6's poison",
                outcome.job
            );
        }
    }
    // Resuming the poisoned campaign does not resurrect the job.
    let mut resume = options(2);
    resume.resume = true;
    let resumed = run_campaign(
        &plan,
        Shard::whole(),
        &journal,
        &resume,
        &FaultInjector::none(),
    )
    .expect("resume of a poisoned campaign");
    assert_eq!(resumed.executed, 0, "nothing left to execute");
    assert_eq!(resumed.poisoned, vec![6]);
    assert_eq!(summary.export.to_bytes(), resumed.export.to_bytes());
    std::fs::remove_file(&journal).ok();
}

#[test]
fn sharded_campaign_merges_to_the_unsharded_export() {
    let plan = small_plan();
    let clean = clean_export(&plan, 2, "shard-clean");
    let mut parts = Vec::new();
    for index in 0..3 {
        let journal = temp_path(&format!("shard-{index}"));
        let summary = run_campaign(
            &plan,
            Shard::new(index, 3).unwrap(),
            &journal,
            &options(2),
            &FaultInjector::none(),
        )
        .expect("shard run");
        std::fs::remove_file(&journal).ok();
        parts.push(summary.export);
    }
    let merged = campaign::merge_exports(&parts).expect("shards merge");
    assert_eq!(clean, merged.to_bytes(), "3 shards must equal 1 campaign");
}

#[test]
fn resume_executes_strictly_fewer_jobs() {
    let plan = small_plan();
    let journal = temp_path("accounting");
    let injector = FaultInjector::new(vec![Injection::AbortAfterRecords { count: 4 }]);
    let first = run_campaign(&plan, Shard::whole(), &journal, &options(1), &injector);
    assert!(matches!(first, Err(CampaignError::Injected { .. })));
    let mut resume = options(1);
    resume.resume = true;
    let summary = run_campaign(
        &plan,
        Shard::whole(),
        &journal,
        &resume,
        &FaultInjector::none(),
    )
    .expect("resume");
    assert_eq!(summary.skipped, 4, "4 journaled jobs must be skipped");
    assert_eq!(
        summary.executed,
        plan.len() - 4,
        "resume must execute strictly the remainder"
    );
    std::fs::remove_file(&journal).ok();
}
