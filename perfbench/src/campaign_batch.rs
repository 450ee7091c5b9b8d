//! `campaign_batch`: one journaled campaign of 40 jobs per op — the five
//! Table 1 algorithms × 8 seeds, `mixed:8192` on 256×256, word line after
//! word line, `lane` backend — run with `CampaignOptions::default()` on a
//! fresh journal. This is the durable path campaign operators run.
//!
//! Layers worked: the `sched` poll producer, one fsynced journal append
//! per job, the export, and `march` as many mid-size serial sweeps that
//! each build their own walk. Jobs take a few milliseconds each on
//! purpose: sub-millisecond jobs make the op time mostly file-system
//! noise.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use campaign::{
    run_campaign, run_daemon, run_job, CampaignOptions, CampaignPlan, CampaignSummary,
    DaemonOptions, Export, FaultInjector, JobOutcome, JobStatus, Journal, JournalRecord,
    PopulationSpec, Shard, SpoolDir, SpoolResponse,
};
use march_test::coverage::SweepBackend;
use march_test::library;
use march_test::rng::SplitMix64;

use crate::harness::{Facts, Workload};
use crate::trace::Tracer;

/// Rows and columns of every job's array.
pub const SIZE: u32 = 256;
/// Seeds per algorithm.
const SEEDS: usize = 8;
/// Faults per job.
const POPULATION: usize = 8192;
/// Repetitions of each probe; the metric is their median.
const PROBE_REPS: usize = 3;

/// The `campaign_batch` workload.
pub struct CampaignBatch {
    plan: CampaignPlan,
    dir: PathBuf,
    files: Cell<u64>,
}

impl CampaignBatch {
    /// Builds the plan from `seed`; journals and spools go under `dir`.
    pub fn setup(seed: u64, dir: &Path) -> Self {
        let mut rng = SplitMix64::new(seed);
        let seeds: Vec<u64> = (0..SEEDS).map(|_| rng.next_u64()).collect();
        let algorithms: Vec<String> = library::table1_algorithms()
            .iter()
            .map(|test| test.name().to_string())
            .collect();
        let plan = CampaignPlan::cross(
            SIZE,
            SIZE,
            &seeds,
            &algorithms,
            &["word line after word line".to_string()],
            &[false],
            SweepBackend::LaneBatched,
            PopulationSpec::Mixed { count: POPULATION },
        );
        Self {
            plan,
            dir: dir.to_path_buf(),
            files: Cell::new(0),
        }
    }

    /// A path under the scratch directory that no earlier call returned.
    fn fresh(&self, stem: &str) -> PathBuf {
        let n = self.files.get();
        self.files.set(n + 1);
        self.dir.join(format!("{stem}-{n}"))
    }

    /// One campaign on a fresh journal. Journals stay until the scratch
    /// directory is removed at exit, so no file deletion is timed.
    fn campaign(&self, options: &CampaignOptions) -> Result<CampaignSummary, String> {
        run_campaign(
            &self.plan,
            Shard::whole(),
            &self.fresh("op.journal"),
            options,
            &FaultInjector::none(),
        )
        .map_err(|e| e.to_string())
    }

    /// Times journal, spool and daemon calls on scratch files:
    /// `Journal::create`, `Journal::append` of `Completed` records,
    /// `SpoolDir` submit / scan / respond, and `run_daemon` draining the
    /// op's batch in quiesce mode, with the default thread count and with
    /// one thread. Every drained export must equal `reference` byte for
    /// byte (daemon == static plan).
    pub fn probes(
        &self,
        tracer: &Tracer,
        reference: &CampaignSummary,
        facts: &mut Facts,
    ) -> Result<(), String> {
        let jobs = self.plan.len() as u32;
        let digest = self.plan.digest();
        let none = FaultInjector::none();
        let expected = reference.export.to_bytes();
        for _ in 0..PROBE_REPS {
            let path = self.fresh("probe.journal");
            let mut journal = tracer
                .span("probe.campaign.journal_create", |_| {
                    Journal::create(&path, jobs, digest)
                })
                .map_err(|e| e.to_string())?;
            for outcome in &reference.export.outcomes {
                let record = JournalRecord::Completed {
                    job: outcome.job,
                    attempt: 1,
                    result: outcome.result,
                };
                tracer
                    .span("probe.campaign.journal_append", |_| {
                        journal.append(&record, &none)
                    })
                    .map_err(|e| e.to_string())?;
            }
        }

        for _ in 0..PROBE_REPS {
            let respond_dir = self.fresh("probe.respond");
            let responder = SpoolDir::open(&respond_dir).map_err(|e| e.to_string())?;
            for job in 0..jobs {
                tracer
                    .span("probe.campaign.spool_respond", |_| {
                        responder.respond(&format!("j{job:04}"), &SpoolResponse::Accepted { job })
                    })
                    .map_err(|e| e.to_string())?;
            }
        }

        let mut shed = 0;
        for _ in 0..PROBE_REPS {
            for (threads, span) in [
                (
                    DaemonOptions::default().threads,
                    "probe.campaign.daemon_drain",
                ),
                (1, "probe.campaign.daemon_drain_1thread"),
            ] {
                shed += self.drain(tracer, threads, span, &expected)?;
            }
        }
        facts.insert("campaign.shed".to_string(), shed as f64);
        facts.insert("campaign.jobs".to_string(), f64::from(jobs));
        Ok(())
    }
}

impl CampaignBatch {
    /// Submits the op's batch to a fresh spool (sorted names, so the
    /// daemon admits the jobs in plan order and its dynamic plan is the
    /// static plan), scans it, and drains it with `run_daemon` in quiesce
    /// mode under `span`. Returns the shed count; the drained export must
    /// equal `expected` byte for byte.
    fn drain(
        &self,
        tracer: &Tracer,
        threads: usize,
        span: &str,
        expected: &[u8],
    ) -> Result<usize, String> {
        let spool_dir = self.fresh("probe.spool");
        let spool = SpoolDir::open(&spool_dir).map_err(|e| e.to_string())?;
        for (index, spec) in self.plan.jobs.iter().enumerate() {
            tracer
                .span("probe.campaign.spool_submit", |_| {
                    spool.submit(&format!("j{index:04}"), spec)
                })
                .map_err(|e| e.to_string())?;
        }
        let offered = tracer
            .span("probe.campaign.spool_scan", |_| spool.scan())
            .map_err(|e| e.to_string())?;
        let specs: Result<Vec<_>, _> = offered.into_iter().map(|s| s.spec).collect();
        if specs? != self.plan.jobs {
            return Err("spool scan does not return the submitted plan".to_string());
        }
        let options = DaemonOptions {
            threads,
            queue_limit: self.plan.len(),
            ..DaemonOptions::default()
        };
        options.quiesce.store(true, Ordering::SeqCst);
        let journal = self.fresh("probe.daemon.journal");
        let summary = tracer
            .span(span, |_| {
                run_daemon(&spool, &journal, &options, &FaultInjector::none())
            })
            .map_err(|e| e.to_string())?;
        if summary.export.to_bytes() != expected {
            return Err(format!(
                "{span}: daemon export differs from the static plan's"
            ));
        }
        Ok(summary.shed)
    }
}

impl Workload for CampaignBatch {
    type Output = CampaignSummary;

    const NAME: &'static str = "campaign_batch";
    const RATE: &'static str = "jobs_per_s";

    fn op(&self, tracer: Option<&Tracer>) -> Result<CampaignSummary, String> {
        let options = CampaignOptions::default();
        let Some(tracer) = tracer else {
            return self.campaign(&options);
        };
        let summary = tracer.op("op.campaign_batch", |_| self.campaign(&options))?;
        tracer.span("probe.campaign.export", |_| {
            std::hint::black_box(summary.export.to_bytes());
        });
        Ok(summary)
    }

    fn serial(&self) -> Result<CampaignSummary, String> {
        self.campaign(&CampaignOptions {
            threads: 1,
            ..CampaignOptions::default()
        })
    }

    /// The export assembled from `run_job` results, one job after another,
    /// with every job executed once and nothing retried or poisoned.
    fn reference(&self, tracer: Option<&Tracer>) -> Result<CampaignSummary, String> {
        let run = |scope: Option<crate::trace::Scope<'_>>| {
            self.plan
                .jobs
                .iter()
                .enumerate()
                .map(|(job, spec)| {
                    let result = match scope {
                        Some(scope) => scope.span("campaign.run_job", |_| run_job(spec)),
                        None => run_job(spec),
                    }?;
                    Ok(JobOutcome {
                        job: job as u32,
                        status: JobStatus::Completed,
                        result,
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        let outcomes = match tracer {
            None => run(None),
            Some(tracer) => tracer.span("reference.campaign_batch", |s| run(Some(s))),
        }?;
        Ok(CampaignSummary {
            export: Export::new(self.plan.digest(), self.plan.len() as u32, outcomes),
            executed: self.plan.len(),
            skipped: 0,
            retries: 0,
            poisoned: Vec::new(),
        })
    }

    /// The export bytes and the executed / retried / poisoned counts.
    fn check(&self, output: &CampaignSummary, reference: &CampaignSummary) -> Result<(), String> {
        let same_export = output.export.to_bytes() == reference.export.to_bytes();
        let counts = |s: &CampaignSummary| (s.executed, s.skipped, s.retries, s.poisoned.len());
        if same_export && counts(output) == counts(reference) {
            Ok(())
        } else {
            Err(format!(
                "campaign differs from the run_job reference (executed {}, retries {}, \
                 poisoned {}, export equal: {same_export})",
                output.executed,
                output.retries,
                output.poisoned.len(),
            ))
        }
    }

    fn work(&self, output: &CampaignSummary) -> f64 {
        output.executed as f64
    }

    fn per_op(&self) -> String {
        format!("{} jobs x mixed:{POPULATION}", self.plan.len())
    }

    fn describe(&self, output: &CampaignSummary) -> String {
        format!(
            "export_fnv={:#018x} executed={} retries={} poisoned={}",
            march_test::rng::Fnv1a::hash(&output.export.to_bytes()),
            output.executed,
            output.retries,
            output.poisoned.len()
        )
    }
}
