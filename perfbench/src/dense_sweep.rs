//! `dense_sweep`: one March SS coverage sweep of a 100k-fault dense
//! population on 1024×1024, word line after word line, through the
//! one-shot entry point campaign jobs and `dof` call — so every op builds
//! its walk, as users pay for it.
//!
//! Layers worked: every `march` stage (walk, probe, plan, pack, execute,
//! scatter) and `sched` chunking about 1.5k cohorts.

use march_test::address_order::WordLineAfterWordLine;
use march_test::algorithm::MarchTest;
use march_test::batch::FaultBatch;
use march_test::coverage::{
    evaluate_coverage_interned, evaluate_coverage_interned_on_walk, SweepBackend, SweepOptions,
};
use march_test::executor::MarchWalk;
use march_test::faultgen::{FaultGen, FaultPopulation};
use march_test::intern::InternedSweep;
use march_test::library;
use sram_model::config::ArrayOrganization;

use crate::harness::{Facts, Workload};
use crate::stats::status_mib;
use crate::trace::Tracer;

/// Rows and columns of the swept array.
pub const SIZE: u32 = 1024;
/// Target size of the generated population.
const FAULTS: usize = 100_000;
/// Edge of the array and size of the population of the backend spot check.
const SPOT_SIZE: u32 = 64;
const SPOT_FAULTS: usize = 2_000;
/// Repetitions of the plan probe; the metric is their median.
const PROBE_REPS: usize = 3;

/// The `dense_sweep` workload.
pub struct DenseSweep {
    organization: ArrayOrganization,
    test: MarchTest,
    population: FaultPopulation,
}

/// The exact counts of a cohort plan.
fn record_plan(batch: &FaultBatch, facts: &mut Facts) {
    let steps = batch.merged_schedule_steps();
    for (name, value) in [
        ("march.faults", batch.fault_count() as f64),
        ("march.cohorts", batch.cohorts().len() as f64),
        ("march.lane_faults", batch.lane_fault_count() as f64),
        ("march.schedule_steps", steps as f64),
        (
            "march.steps_per_fault",
            steps as f64 / batch.fault_count() as f64,
        ),
    ] {
        facts.insert(name.to_string(), value);
    }
}

impl DenseSweep {
    /// Generates the population from `seed`.
    pub fn setup(seed: u64) -> Self {
        let organization = ArrayOrganization::new(SIZE, SIZE).expect("valid organization");
        Self {
            organization,
            test: library::march_ss(),
            population: FaultGen::new(organization, seed).dense_profile(FAULTS),
        }
    }

    fn walk(&self) -> MarchWalk {
        MarchWalk::new(&self.test, &WordLineAfterWordLine, &self.organization)
    }

    /// The exact cohort-plan counts of the population (untimed).
    pub fn plan_counts(&self, facts: &mut Facts) {
        record_plan(&FaultBatch::plan(&self.walk(), &self.population), facts);
    }

    /// The resident-memory cost of one walk (VmRSS across
    /// `MarchWalk::new`), then `FaultBatch::plan` — probe and plan — on
    /// that walk, which is the op's walk rebuilt.
    pub fn probes(&self, tracer: &Tracer, facts: &mut Facts) -> Result<(), String> {
        let before = status_mib("VmRSS").ok_or("VmRSS unreadable")?;
        let walk = tracer.span("probe.march.walk_rss", |_| self.walk());
        let after = status_mib("VmRSS").ok_or("VmRSS unreadable")?;
        facts.insert("march.walk_rss_mib".to_string(), after - before);
        for _ in 0..PROBE_REPS {
            let batch = tracer.span("probe.march.plan", |_| {
                FaultBatch::plan(&walk, &self.population)
            });
            record_plan(&batch, facts);
        }
        Ok(())
    }

    /// Backend spot check: the lane-batched sweep's digest equals the
    /// per-fault golden path's on a 2,000-fault dense sample at 64×64.
    pub fn spot_check(seed: u64) -> Result<(), String> {
        let organization =
            ArrayOrganization::new(SPOT_SIZE, SPOT_SIZE).expect("valid organization");
        let population = FaultGen::new(organization, seed).dense_profile(SPOT_FAULTS);
        let test = library::march_ss();
        let sweep = |backend| {
            evaluate_coverage_interned(
                &test,
                &WordLineAfterWordLine,
                &organization,
                &population,
                SweepOptions {
                    backend,
                    ..SweepOptions::fast()
                },
            )
            .digest()
        };
        if sweep(SweepBackend::LaneBatched) == sweep(SweepBackend::PerFault) {
            Ok(())
        } else {
            Err("lane-batched digest differs from the per-fault golden path".to_string())
        }
    }
}

impl Workload for DenseSweep {
    type Output = InternedSweep;

    const NAME: &'static str = "dense_sweep";
    const RATE: &'static str = "faults_per_s";

    fn op(&self, tracer: Option<&Tracer>) -> Result<InternedSweep, String> {
        let Some(tracer) = tracer else {
            return Ok(evaluate_coverage_interned(
                &self.test,
                &WordLineAfterWordLine,
                &self.organization,
                &self.population,
                SweepOptions::fast(),
            ));
        };
        // The two calls `evaluate_coverage_interned` makes, each under its
        // own span; the walk is freed inside the op, as it is there.
        Ok(tracer.op("op.dense_sweep", |op| {
            let walk = op.span("march.walk_build", |_| self.walk());
            op.span("march.sweep", |_| {
                evaluate_coverage_interned_on_walk(&walk, &self.population, SweepOptions::fast())
            })
        }))
    }

    fn serial(&self) -> Result<InternedSweep, String> {
        Ok(evaluate_coverage_interned(
            &self.test,
            &WordLineAfterWordLine,
            &self.organization,
            &self.population,
            SweepOptions {
                parallel: false,
                ..SweepOptions::fast()
            },
        ))
    }

    /// The report digest covers every outcome code bit for bit.
    fn check(&self, output: &InternedSweep, reference: &InternedSweep) -> Result<(), String> {
        let (digest, expected) = (output.digest(), reference.digest());
        if digest == expected && output.total() == reference.total() {
            Ok(())
        } else {
            Err(format!(
                "sweep digest {digest:#018x} differs from the serial reference {expected:#018x}"
            ))
        }
    }

    fn work(&self, output: &InternedSweep) -> f64 {
        output.total() as f64
    }

    fn per_op(&self) -> String {
        format!("{} faults", self.population.len())
    }

    fn describe(&self, output: &InternedSweep) -> String {
        format!(
            "sweep_digest={:#018x} detected={} total={}",
            output.digest(),
            output.detected(),
            output.total()
        )
    }
}
