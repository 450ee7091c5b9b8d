//! Fault-simulation throughput measurement.
//!
//! The paper's coverage and degree-of-freedom experiments are exhaustive
//! fault sweeps; this module measures how many fault simulations per
//! second the march kernel sustains and compares it against a frozen
//! replica of the original (pre-kernel) implementation, so the speedup is
//! tracked as a number instead of a claim. The `fault_sim_bench` binary
//! writes the result to `BENCH_fault_sim.json`.
//!
//! The baseline below deliberately preserves the seed's hot-path
//! structure: one fresh memory allocation per fault, address sequences
//! re-materialised per element via `AddressOrder::sequence`, every walk
//! run to completion, strictly serial. The kernel path shares one
//! precomputed [`MarchWalk`] per algorithm, reuses scratch memories,
//! stops at the first mismatch and (in the parallel variant) fans the
//! fault list out across threads. On top of that, the collapsed backend
//! (`march_test::batch`) simulates one representative per fault
//! equivalence class on a walk of at most five cells; its speedup over
//! the per-fault kernel is the machine-relative metric the CI gate tracks
//! at every size.
//!
//! The frozen baseline replica is *capped* at
//! [`BASELINE_CELL_CAP`] cells (256×256): beyond that it would dominate
//! the sweep's wall time, so larger sizes record `baseline_skipped` and
//! gate only on the batched-vs-kernel speedup — which is what makes the
//! 1024×1024 sweep entries affordable.
//!
//! Besides the per-size ladder, [`dense_sweep`] measures the
//! dense-population section: a generated ≥100k-fault population
//! ([`march_test::faultgen::FaultGen`]) against the 48-fault standard
//! list on the same 1024×1024 walk. The section also times a **shuffled
//! copy** of the same population (`speedup_shuffled_vs_ordered` — the
//! collapsed sweep classifies and scatters in list order, which should
//! make population order free). All ratios are machine-relative and carry
//! the tight CI gate.
//!
//! Timed sweeps call the entry point campaign jobs run
//! ([`evaluate_coverage_interned_on_walk`]); the untimed equivalence gates
//! compare the [`InternedSweep`] reports it returns.

use std::time::{Duration, Instant};

use march_test::address_order::AddressOrder;
use march_test::algorithm::MarchTest;
use march_test::coverage::{evaluate_coverage_interned_on_walk, SweepBackend, SweepOptions};
use march_test::executor::{MarchWalk, Mismatch};
use march_test::fault_sim::DetectionMode;
use march_test::faultgen::FaultGen;
use march_test::faults::{FaultModel, FaultyMemory};
use march_test::intern::{InternedSweep, OutcomeCode};
use march_test::library;
use march_test::memory::{GoodMemory, MemoryModel};
use march_test::parallel::max_threads;
use march_test::rng::SplitMix64;
use sram_model::config::ArrayOrganization;

/// Seed of the committed dense benchmark populations: fixed so the
/// generated workload — and therefore the committed throughput numbers —
/// is identical on every runner.
pub const DENSE_POPULATION_SEED: u64 = 0x2006_DA7E;

/// Seed of the dense section's shuffled-permutation ablation: the
/// shuffled copy is the *same* population as the ordered one, reordered
/// by this fixed permutation, so the measured ratio isolates population
/// order from workload content.
pub const DENSE_SHUFFLE_SEED: u64 = 0x005A_FF1E;

pub use crate::BASELINE_CELL_CAP;

/// The seed's March executor, frozen for comparison: re-allocates the
/// address sequence of every element and always runs the walk to the end.
fn baseline_run_march(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    memory: &mut dyn MemoryModel,
) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    for (element_index, element) in test.elements().iter().enumerate() {
        let addresses = order.sequence(organization, element.direction());
        for &address in &addresses {
            for &op in element.ops() {
                if let Some(value) = op.write_value() {
                    memory.write(address, value);
                } else {
                    let expected = op.expected_value().expect("reads have expectations");
                    let observed = memory.read(address);
                    if observed != expected {
                        mismatches.push(Mismatch {
                            element: element_index,
                            address,
                            expected,
                            observed,
                        });
                    }
                }
            }
        }
    }
    mismatches
}

/// The seed's coverage sweep, frozen for comparison: one fresh memory and
/// one full executor run per fault, strictly serial.
pub fn baseline_evaluate_coverage(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    faults: &[FaultModel],
) -> InternedSweep {
    let codes = faults
        .iter()
        .map(|&fault| {
            let mut memory =
                FaultyMemory::new(GoodMemory::filled(organization.capacity(), false), fault);
            let mismatches = baseline_run_march(test, order, organization, &mut memory);
            OutcomeCode {
                fault,
                mismatches: u32::try_from(mismatches.len()).expect("mismatch counts fit u32"),
            }
        })
        .collect();
    InternedSweep::new(test.name(), order.name(), codes)
}

/// Each fault's detected bit, in fault-list order: what two sweeps must
/// agree on when only one of them counts every mismatch.
fn detected_bits(report: &InternedSweep) -> Vec<bool> {
    report.codes().iter().map(OutcomeCode::detected).collect()
}

/// Seconds and derived rate of one timed sweep variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepTiming {
    /// Wall-clock seconds for all passes of the variant.
    pub seconds: f64,
    /// Fault simulations per second.
    pub faults_per_sec: f64,
}

/// The full throughput comparison for one array organization.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSimThroughput {
    /// Array rows.
    pub rows: u32,
    /// Array columns.
    pub cols: u32,
    /// Names of the algorithms swept (the paper's Table 1 set).
    pub algorithms: Vec<String>,
    /// Number of faults in the standard list for this organization.
    pub fault_count: usize,
    /// Fault simulations per timed pass (`algorithms × fault_count`).
    pub simulations_per_pass: usize,
    /// Timed passes per variant.
    pub passes: usize,
    /// Worker threads available to the parallel variants.
    pub threads: usize,
    /// The frozen seed-style sweep; `None` above [`BASELINE_CELL_CAP`]
    /// cells, where the reference loop is skipped.
    pub baseline: Option<SweepTiming>,
    /// Shared-walk + packed-memory + early-exit kernel, serial — the
    /// per-fault kernel the collapsed backend is gated against.
    pub kernel_serial: SweepTiming,
    /// The same per-fault kernel fanned out across threads.
    pub kernel_parallel: SweepTiming,
    /// The collapsed backend (one simulation per equivalence class),
    /// serial.
    pub batched: SweepTiming,
    /// The collapsed backend with `parallel` set: the same path, since
    /// only per-fault work fans out.
    pub batched_parallel: SweepTiming,
}

impl FaultSimThroughput {
    /// `true` when the frozen seed-style baseline was skipped for this
    /// size (above [`BASELINE_CELL_CAP`] cells).
    pub fn baseline_skipped(&self) -> bool {
        self.baseline.is_none()
    }

    /// Throughput gain of the serial kernel over the baseline, when the
    /// baseline was measured.
    pub fn speedup_serial(&self) -> Option<f64> {
        self.baseline
            .map(|baseline| self.kernel_serial.faults_per_sec / baseline.faults_per_sec)
    }

    /// Throughput gain of the parallel kernel over the baseline, when the
    /// baseline was measured.
    pub fn speedup_parallel(&self) -> Option<f64> {
        self.baseline
            .map(|baseline| self.kernel_parallel.faults_per_sec / baseline.faults_per_sec)
    }

    /// Throughput gain of the serial collapsed backend over the baseline,
    /// when the baseline was measured.
    pub fn speedup_batched(&self) -> Option<f64> {
        self.baseline
            .map(|baseline| self.batched.faults_per_sec / baseline.faults_per_sec)
    }

    /// Throughput gain of the serial collapsed backend over the serial
    /// per-fault kernel — the machine-relative metric measured at every
    /// size (including the ones whose baseline replica is skipped).
    pub fn speedup_batched_vs_kernel(&self) -> f64 {
        self.batched.faults_per_sec / self.kernel_serial.faults_per_sec
    }

    /// Throughput gain of the parallel collapsed backend over the parallel
    /// per-fault kernel. Printed for context but deliberately **not**
    /// written to the gated JSON: the per-fault parallel kernel scales
    /// with the worker count while a collapsed sweep does not fan out,
    /// so the ratio would not transfer between machines with different
    /// core counts (unlike the serial-vs-serial
    /// [`Self::speedup_batched_vs_kernel`], which the gate tracks).
    pub fn speedup_batched_parallel_vs_kernel(&self) -> f64 {
        self.batched_parallel.faults_per_sec / self.kernel_parallel.faults_per_sec
    }

    /// Renders this organization's measurements as one entry of the
    /// sweep's `sizes` array. Baseline-relative fields only appear when
    /// the baseline replica ran (`baseline_skipped` says so explicitly).
    fn to_json_entry(&self) -> String {
        let mut fields = vec![
            format!("\"rows\": {}", self.rows),
            format!("\"cols\": {}", self.cols),
            format!("\"fault_count\": {}", self.fault_count),
            format!("\"simulations_per_pass\": {}", self.simulations_per_pass),
            format!("\"baseline_skipped\": {}", self.baseline_skipped()),
        ];
        if let Some(baseline) = self.baseline {
            fields.push(format!(
                "\"baseline_faults_per_sec\": {:.1}",
                baseline.faults_per_sec
            ));
        }
        fields.push(format!(
            "\"kernel_serial_faults_per_sec\": {:.1}",
            self.kernel_serial.faults_per_sec
        ));
        fields.push(format!(
            "\"kernel_parallel_faults_per_sec\": {:.1}",
            self.kernel_parallel.faults_per_sec
        ));
        fields.push(format!(
            "\"batched_faults_per_sec\": {:.1}",
            self.batched.faults_per_sec
        ));
        fields.push(format!(
            "\"batched_parallel_faults_per_sec\": {:.1}",
            self.batched_parallel.faults_per_sec
        ));
        if let Some(speedup) = self.speedup_serial() {
            fields.push(format!("\"speedup_serial\": {speedup:.2}"));
        }
        if let Some(speedup) = self.speedup_parallel() {
            fields.push(format!("\"speedup_parallel\": {speedup:.2}"));
        }
        if let Some(speedup) = self.speedup_batched() {
            fields.push(format!("\"speedup_batched\": {speedup:.2}"));
        }
        fields.push(format!(
            "\"speedup_batched_vs_kernel\": {:.2}",
            self.speedup_batched_vs_kernel()
        ));
        format!("    {{\n      {}\n    }}", fields.join(",\n      "))
    }
}

/// The dense-population section of the fault-sim benchmark: generated
/// populations at scale versus the 48-fault standard list.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseSweepSection {
    /// Array rows.
    pub rows: u32,
    /// Array columns.
    pub cols: u32,
    /// The single algorithm the section sweeps (dense timing is
    /// per-walk, so one representative algorithm keeps it affordable).
    pub algorithm: String,
    /// Name of the generated population profile.
    pub population: String,
    /// Faults in the generated population.
    pub fault_count: usize,
    /// Faults in the standard comparison list.
    pub standard_fault_count: usize,
    /// Worker threads available to the parallel variant.
    pub threads: usize,
    /// The standard list through the collapsed backend, serial.
    pub standard: SweepTiming,
    /// The generated population through the collapsed backend, serial.
    pub dense: SweepTiming,
    /// The generated population with `parallel` set — the same collapsed
    /// path, since only per-fault work fans out.
    pub dense_parallel: SweepTiming,
    /// The same population in a fixed shuffled order
    /// ([`DENSE_SHUFFLE_SEED`]), serial — the population-order ablation.
    pub dense_shuffled: SweepTiming,
}

impl DenseSweepSection {
    /// Dense-population throughput relative to the standard list on the
    /// same walk — the machine-relative metric guarding the acceptance
    /// claim that generated populations sweep within 25 % of the
    /// standard-list rate.
    pub fn speedup_dense_vs_standard(&self) -> f64 {
        self.dense.faults_per_sec / self.standard.faults_per_sec
    }

    /// Shuffled-population throughput relative to the generation-ordered
    /// copy of the same population — machine-relative. Classification
    /// and scatter are list-order passes, so this should stay near `1.0`;
    /// the committed value is gated so scattered-access regressions fail
    /// CI.
    pub fn speedup_shuffled_vs_ordered(&self) -> f64 {
        self.dense_shuffled.faults_per_sec / self.dense.faults_per_sec
    }

    /// Renders the section as the `dense` member of the sweep JSON.
    fn to_json_entry(&self) -> String {
        let fields = [
            format!("\"rows\": {}", self.rows),
            format!("\"cols\": {}", self.cols),
            format!("\"algorithm\": \"{}\"", self.algorithm),
            format!("\"population\": \"{}\"", self.population),
            format!("\"fault_count\": {}", self.fault_count),
            format!("\"standard_fault_count\": {}", self.standard_fault_count),
            format!("\"threads\": {}", self.threads),
            format!(
                "\"standard_batched_faults_per_sec\": {:.1}",
                self.standard.faults_per_sec
            ),
            format!(
                "\"dense_batched_faults_per_sec\": {:.1}",
                self.dense.faults_per_sec
            ),
            format!(
                "\"dense_batched_parallel_faults_per_sec\": {:.1}",
                self.dense_parallel.faults_per_sec
            ),
            format!(
                "\"dense_shuffled_batched_faults_per_sec\": {:.1}",
                self.dense_shuffled.faults_per_sec
            ),
            format!(
                "\"speedup_dense_vs_standard\": {:.3}",
                self.speedup_dense_vs_standard()
            ),
            format!(
                "\"speedup_shuffled_vs_ordered\": {:.3}",
                self.speedup_shuffled_vs_ordered()
            ),
        ];
        format!("  {{\n    {}\n  }}", fields.join(",\n    "))
    }
}

/// Measures the dense-population section on a `rows` × `cols` array with
/// a generated population of (at least) `fault_count` faults.
///
/// The generated population rides the collapsed backend only — the
/// per-fault golden path at 1024×1024 would take minutes per pass — so
/// correctness is gated in two layers before timing: the serial and
/// parallel sweeps (and the shuffled copy, through its permutation) must
/// produce identical reports on the *full* population, and a scaled-down
/// replica of the profile must match the per-fault golden path exactly
/// on a small array (the randomized differential harness in
/// `crates/march` covers the remaining space seed by seed).
///
/// # Panics
///
/// Panics if the organization is invalid or any equivalence gate fails.
pub fn dense_sweep(rows: u32, cols: u32, fault_count: usize, passes: usize) -> DenseSweepSection {
    let organization = ArrayOrganization::new(rows, cols).expect("valid organization");
    let order = march_test::address_order::WordLineAfterWordLine;
    let test = library::march_ss();
    let walk = MarchWalk::new(&test, &order, &organization);
    let standard = march_test::faults::standard_fault_list(&organization);
    let population = FaultGen::new(organization, DENSE_POPULATION_SEED).dense_profile(fault_count);

    // The shuffled ablation: the same population reordered by a fixed
    // permutation the equivalence gate below can invert.
    let mut perm: Vec<usize> = (0..population.len()).collect();
    SplitMix64::new(DENSE_SHUFFLE_SEED).shuffle(&mut perm);
    let shuffled: Vec<FaultModel> = perm.iter().map(|&index| population[index]).collect();

    let serial_options = SweepOptions {
        background: false,
        mode: DetectionMode::FirstMismatch,
        parallel: false,
        backend: SweepBackend::LaneBatched,
    };
    let parallel_options = SweepOptions {
        parallel: true,
        ..serial_options
    };

    // Equivalence gates (see the function docs), scoped so their
    // reports drop before anything is timed.
    {
        let ordered_report = evaluate_coverage_interned_on_walk(&walk, &population, serial_options);
        assert_eq!(
            ordered_report,
            evaluate_coverage_interned_on_walk(&walk, &population, parallel_options),
            "parallel dense sweep diverged from the serial one"
        );
        // The shuffled copy must be exactly the ordered report seen
        // through the permutation.
        let shuffled_report = evaluate_coverage_interned_on_walk(&walk, &shuffled, serial_options);
        assert_eq!(shuffled_report.total(), ordered_report.total());
        for (position, outcome) in shuffled_report.codes().iter().enumerate() {
            assert_eq!(
                outcome,
                &ordered_report.codes()[perm[position]],
                "shuffled sweep diverged from the ordered one at position {position}"
            );
        }
    }
    {
        let small = ArrayOrganization::new(64, 64).expect("valid organization");
        let small_walk = MarchWalk::new(&test, &order, &small);
        let small_population =
            FaultGen::new(small, DENSE_POPULATION_SEED).dense_profile(fault_count.min(2_000));
        let golden = evaluate_coverage_interned_on_walk(
            &small_walk,
            &small_population,
            SweepOptions {
                backend: SweepBackend::PerFault,
                ..serial_options
            },
        );
        let batched =
            evaluate_coverage_interned_on_walk(&small_walk, &small_population, serial_options);
        assert_eq!(
            golden, batched,
            "dense profile diverged from the golden path at 64x64"
        );
    }

    // The standard list and the three dense-scale variants are timed in
    // one interleaved rotation (see `time_rotation`): the committed dense
    // metrics are ratios between them, and disjoint timing windows would
    // let a burst of runner interference corrupt a ratio that no engine
    // change caused. The 48-fault standard pass is calibrated to many
    // back-to-back passes per round, so it stays cache-resident: the
    // deliberately harsh yardstick `speedup_dense_vs_standard` has gated
    // since the metric was introduced.
    let timings = time_rotation(
        passes,
        &mut [
            (standard.len(), &mut || {
                std::hint::black_box(evaluate_coverage_interned_on_walk(
                    &walk,
                    &standard,
                    serial_options,
                ));
            }),
            (population.len(), &mut || {
                std::hint::black_box(evaluate_coverage_interned_on_walk(
                    &walk,
                    &population,
                    serial_options,
                ));
            }),
            (population.len(), &mut || {
                std::hint::black_box(evaluate_coverage_interned_on_walk(
                    &walk,
                    &population,
                    parallel_options,
                ));
            }),
            (shuffled.len(), &mut || {
                std::hint::black_box(evaluate_coverage_interned_on_walk(
                    &walk,
                    &shuffled,
                    serial_options,
                ));
            }),
        ],
    );
    let [standard_timing, dense_timing, dense_parallel_timing, dense_shuffled_timing] = timings[..]
    else {
        unreachable!("rotation returns one timing per variant");
    };

    DenseSweepSection {
        rows,
        cols,
        algorithm: test.name().to_string(),
        population: population.name.clone(),
        fault_count: population.len(),
        standard_fault_count: standard.len(),
        threads: max_threads(),
        standard: standard_timing,
        dense: dense_timing,
        dense_parallel: dense_parallel_timing,
        dense_shuffled: dense_shuffled_timing,
    }
}

/// The campaign-runner overhead section: the same fixed job list timed
/// three ways.
///
/// * **direct** — [`campaign::run_job`] in a plain loop: the raw per-job
///   path, no journal, no worker pool. The overhead-free reference.
/// * **campaign (1 thread)** — [`campaign::run_campaign`] end to end:
///   journal creation, per-job append + flush, export assembly. The
///   ratio against direct (`speedup_campaign_vs_direct`) is
///   machine-relative and carries the tight CI gate: crash-safety is
///   supposed to cost file appends, not throughput.
/// * **campaign (max threads)** — the same campaign with the worker pool
///   fanned across cores; gated only as an absolute rate.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignBenchSection {
    /// Jobs in the fixed benchmark plan.
    pub jobs: usize,
    /// Worker threads available to the parallel variant.
    pub threads: usize,
    /// Jobs per second through the direct `run_job` loop.
    pub direct_jobs_per_sec: f64,
    /// Jobs per second through a single-threaded journaled campaign.
    pub campaign_jobs_per_sec: f64,
    /// Jobs per second through a max-thread journaled campaign.
    pub campaign_parallel_jobs_per_sec: f64,
}

impl CampaignBenchSection {
    /// Single-threaded campaign throughput relative to the direct loop —
    /// machine-relative; near `1.0` means the journal and worker pool are
    /// effectively free at per-job granularity.
    pub fn speedup_campaign_vs_direct(&self) -> f64 {
        self.campaign_jobs_per_sec / self.direct_jobs_per_sec
    }

    /// Renders the section as the `campaign` member of the sweep JSON.
    fn to_json_entry(&self) -> String {
        let fields = [
            format!("\"jobs\": {}", self.jobs),
            format!("\"threads\": {}", self.threads),
            format!("\"direct_jobs_per_sec\": {:.1}", self.direct_jobs_per_sec),
            format!(
                "\"campaign_jobs_per_sec\": {:.1}",
                self.campaign_jobs_per_sec
            ),
            format!(
                "\"campaign_parallel_jobs_per_sec\": {:.1}",
                self.campaign_parallel_jobs_per_sec
            ),
            format!(
                "\"speedup_campaign_vs_direct\": {:.3}",
                self.speedup_campaign_vs_direct()
            ),
        ];
        format!("  {{\n    {}\n  }}", fields.join(",\n    "))
    }
}

/// The fixed campaign benchmark plan: 64×64, four seeds × the paper's
/// Table 1 algorithms, word-line order, a generated mixed population big
/// enough that each job is sweep-dominated (so the gated ratio measures
/// journal overhead against real work, not against nothing).
fn campaign_bench_plan() -> campaign::CampaignPlan {
    let algorithms: Vec<String> = library::table1_algorithms()
        .iter()
        .map(|test| test.name().to_string())
        .collect();
    campaign::CampaignPlan::cross(
        64,
        64,
        &[1, 2, 3, 4],
        &algorithms,
        &["word line after word line".to_string()],
        &[false],
        SweepBackend::LaneBatched,
        campaign::PopulationSpec::Mixed { count: 2048 },
    )
}

/// Measures the campaign-runner overhead section.
///
/// Before any timing, the single-threaded campaign's export digests are
/// asserted identical to the direct loop's — the same determinism
/// contract the fault-injection suite pins, re-checked here so the bench
/// never times two variants that silently diverged.
///
/// # Panics
///
/// Panics if any job fails, any campaign run errors, or the campaign
/// export diverges from the direct results.
pub fn campaign_bench(passes: usize) -> CampaignBenchSection {
    use campaign::{run_campaign, run_job, CampaignOptions, FaultInjector, Shard};

    let plan = campaign_bench_plan();
    let journal =
        std::env::temp_dir().join(format!("campaign-bench-{}.journal", std::process::id()));
    let options = |threads: usize| CampaignOptions {
        threads,
        resume: false,
        ..CampaignOptions::default()
    };

    // Equivalence gate: the journaled campaign must reproduce the direct
    // loop job for job.
    let direct: Vec<_> = plan
        .jobs
        .iter()
        .map(|spec| run_job(spec).expect("direct job"))
        .collect();
    let summary = run_campaign(
        &plan,
        Shard::whole(),
        &journal,
        &options(1),
        &FaultInjector::none(),
    )
    .expect("campaign run");
    assert!(
        summary.poisoned.is_empty(),
        "benchmark jobs must not poison"
    );
    for (outcome, reference) in summary.export.outcomes.iter().zip(&direct) {
        assert_eq!(
            outcome.result, *reference,
            "campaign job {} diverged from the direct loop",
            outcome.job
        );
    }

    // The gated metric is the campaign-vs-direct *ratio*, so the
    // variants rotate inside one measurement span (see [`time_rotation`])
    // — a burst of runner interference lands on all three near-equally
    // instead of corrupting whichever disjoint window it hits.
    let jobs = plan.len();
    let run = |threads: usize| {
        run_campaign(
            &plan,
            Shard::whole(),
            &journal,
            &options(threads),
            &FaultInjector::none(),
        )
        .expect("campaign run");
    };
    let mut direct_pass = || {
        for spec in &plan.jobs {
            run_job(spec).expect("direct job");
        }
    };
    let mut serial_pass = || run(1);
    let mut parallel_pass = || run(max_threads());
    let timings = time_rotation(
        passes,
        &mut [
            (jobs, &mut direct_pass),
            (jobs, &mut serial_pass),
            (jobs, &mut parallel_pass),
        ],
    );
    std::fs::remove_file(&journal).ok();

    CampaignBenchSection {
        jobs,
        threads: max_threads(),
        direct_jobs_per_sec: timings[0].faults_per_sec,
        campaign_jobs_per_sec: timings[1].faults_per_sec,
        campaign_parallel_jobs_per_sec: timings[2].faults_per_sec,
    }
}

/// The daemon-intake section: a fixed job stream pushed through the full
/// dynamic-admission path — spool submit (tmp+rename), journal-v2
/// `JobAdded` append with fsync, worker-pool execution, export assembly.
///
/// * **intake** — every pass offers the stream to a fresh spool and runs
///   a single-threaded daemon to quiescence. The committed
///   `intake_jobs_per_sec` is the sustained end-to-end admission rate
///   and gates as an absolute throughput (the "intake suddenly 10x
///   slower" class of failure).
/// * **overload** — the same stream offered against a queue bounded well
///   below it: the daemon must shed the overflow with explicit
///   `queue-full` responses. With one worker and a pre-spooled backlog
///   the shed count is deterministic, so `shed_fraction` is asserted
///   exact at measurement time and committed as documentation of the
///   backpressure contract (it carries no gate suffix — it cannot
///   regress without the assertion failing first).
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonBenchSection {
    /// Jobs offered (and admitted) per intake pass.
    pub jobs: usize,
    /// Submissions offered in the overload pass.
    pub offered: usize,
    /// Queue bound of the overload pass.
    pub queue_limit: usize,
    /// Jobs per second through spool submit + admission + execution +
    /// export, single-threaded.
    pub intake_jobs_per_sec: f64,
    /// Fraction of the overload pass's submissions shed with
    /// `queue-full` — `(offered - queue_limit) / offered` by
    /// construction.
    pub shed_fraction: f64,
}

impl DaemonBenchSection {
    /// Renders the section as the `daemon` member of the sweep JSON.
    fn to_json_entry(&self) -> String {
        let fields = [
            format!("\"jobs\": {}", self.jobs),
            format!("\"offered\": {}", self.offered),
            format!("\"queue_limit\": {}", self.queue_limit),
            format!("\"intake_jobs_per_sec\": {:.1}", self.intake_jobs_per_sec),
            format!("\"shed_fraction\": {:.3}", self.shed_fraction),
        ];
        format!("  {{\n    {}\n  }}", fields.join(",\n    "))
    }
}

/// The daemon benchmark's job stream: small 16×16 jobs so the measured
/// rate is dominated by the intake machinery (spool I/O, fsynced journal
/// appends, queue handoff) rather than by sweep time.
fn daemon_bench_jobs(count: u64) -> Vec<campaign::JobSpec> {
    (1..=count)
        .map(|seed| campaign::JobSpec {
            rows: 16,
            cols: 16,
            seed,
            algorithm: "March C-".to_string(),
            order: "linear".to_string(),
            background: false,
            backend: SweepBackend::LaneBatched,
            population: campaign::PopulationSpec::Mixed { count: 64 },
        })
        .collect()
}

/// Measures the daemon-intake section.
///
/// Before timing, one daemon run's export is asserted byte-identical to
/// `run_campaign` over the same jobs as a static plan — the determinism
/// contract the daemon suite pins, re-checked so the bench never times a
/// path that silently diverged. The overload pass then asserts the exact
/// deterministic shed count before committing its fraction.
///
/// # Panics
///
/// Panics if any run errors, the export diverges from the static plan's,
/// or the overload pass sheds anything but the expected overflow.
pub fn daemon_bench(passes: usize) -> DaemonBenchSection {
    use campaign::{
        run_campaign, run_daemon, CampaignOptions, DaemonOptions, FaultInjector, Shard, SpoolDir,
    };
    use std::sync::atomic::Ordering;

    let jobs = daemon_bench_jobs(24);
    let counter = std::sync::atomic::AtomicU64::new(0);
    let unique = || {
        let n = counter.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("daemon-bench-{}-{n}", std::process::id()))
    };
    let daemon_options = |queue_limit: usize| {
        let options = DaemonOptions {
            threads: 1,
            backoff: Duration::ZERO,
            poll_interval: Duration::ZERO,
            queue_limit,
            ..DaemonOptions::default()
        };
        options.quiesce.store(true, Ordering::SeqCst);
        options
    };
    let run = |spool_dir: &std::path::Path, journal: &std::path::Path, queue_limit: usize| {
        let spool = SpoolDir::open(spool_dir).expect("spool");
        for (index, spec) in jobs.iter().enumerate() {
            spool.submit(&format!("j{index:04}"), spec).expect("submit");
        }
        let summary = run_daemon(
            &spool,
            journal,
            &daemon_options(queue_limit),
            &FaultInjector::none(),
        )
        .expect("daemon run");
        std::fs::remove_dir_all(spool_dir).ok();
        std::fs::remove_file(journal).ok();
        summary
    };

    // Equivalence gate: the dynamic-admission path must reproduce the
    // static campaign byte for byte before it is worth timing.
    let static_journal = unique();
    let static_summary = run_campaign(
        &campaign::CampaignPlan::new(jobs.clone()),
        Shard::whole(),
        &static_journal,
        &CampaignOptions {
            threads: 1,
            ..CampaignOptions::default()
        },
        &FaultInjector::none(),
    )
    .expect("static run");
    std::fs::remove_file(&static_journal).ok();
    let daemon_summary = run(&unique(), &unique(), usize::MAX);
    assert_eq!(
        daemon_summary.export.to_bytes(),
        static_summary.export.to_bytes(),
        "daemon export diverged from the equivalent static plan"
    );

    // Overload pass: one worker, the queue bounded at a third of the
    // stream — the first scan deterministically admits `queue_limit` and
    // sheds the rest with explicit queue-full responses.
    let queue_limit = 8;
    let overload = run(&unique(), &unique(), queue_limit);
    assert_eq!(
        overload.shed,
        jobs.len() - queue_limit,
        "overload pass must shed exactly the overflow"
    );
    let shed_fraction = overload.shed as f64 / jobs.len() as f64;

    // The timed intake passes: full spool + admission + execution cycle
    // per pass, fresh directories each time so dedup never short-circuits.
    let timing = time_passes(passes, jobs.len(), || {
        run(&unique(), &unique(), usize::MAX);
    });

    DaemonBenchSection {
        jobs: jobs.len(),
        offered: jobs.len(),
        queue_limit,
        intake_jobs_per_sec: timing.faults_per_sec,
        shed_fraction,
    }
}

/// The `--organization` sweep: one [`FaultSimThroughput`] per array size,
/// 64×64 up to 1024×1024 by default (the frozen baseline replica runs up
/// to 256×256; larger entries gate on the batched-vs-kernel speedup),
/// plus the optional dense-population section.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSimSweep {
    /// One entry per organization, in sweep order.
    pub sizes: Vec<FaultSimThroughput>,
    /// The dense-population section, when measured.
    pub dense: Option<DenseSweepSection>,
    /// The campaign-runner overhead section, when measured.
    pub campaign: Option<CampaignBenchSection>,
    /// The daemon-intake (dynamic admission) section, when measured.
    pub daemon: Option<DaemonBenchSection>,
}

impl FaultSimSweep {
    /// Measures every `(rows, cols)` organization in order, the
    /// dense-population section when `dense` carries `(rows, cols,
    /// fault_count)`, and the campaign-overhead and daemon-intake sections
    /// when `campaign` and `daemon` are set.
    ///
    /// # Panics
    ///
    /// Panics if any organization is invalid or any equivalence gate
    /// fails (see [`fault_sim_throughput`], [`dense_sweep`],
    /// [`campaign_bench`] and [`daemon_bench`]).
    pub fn measure(
        organizations: &[(u32, u32)],
        passes: usize,
        dense: Option<(u32, u32, usize)>,
        campaign: bool,
        daemon: bool,
    ) -> Self {
        // The dense section runs first, on a pristine heap: the size
        // ladder cycles gigabytes of walk arrays, and the fragmented
        // address space it leaves behind measurably slows the
        // large-working-set dense sweep (the compact standard list is
        // unaffected, which would skew the gated ratio).
        let dense =
            dense.map(|(rows, cols, fault_count)| dense_sweep(rows, cols, fault_count, passes));
        // The campaign section's gated metric is a ratio between
        // variants timed back to back, so heap state cancels; it runs
        // second, still ahead of the allocation-heavy size ladder.
        let campaign = campaign.then(|| campaign_bench(passes));
        let daemon = daemon.then(|| daemon_bench(passes));
        Self {
            sizes: organizations
                .iter()
                .map(|&(rows, cols)| fault_sim_throughput(rows, cols, passes))
                .collect(),
            dense,
            campaign,
            daemon,
        }
    }

    /// Renders the sweep as a JSON object (the workspace is offline and
    /// carries no serde, so the fields are formatted by hand).
    pub fn to_json(&self) -> String {
        let first = self.sizes.first();
        let algorithms = first
            .map(|s| {
                s.algorithms
                    .iter()
                    .map(|name| format!("\"{name}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .unwrap_or_default();
        let entries = self
            .sizes
            .iter()
            .map(FaultSimThroughput::to_json_entry)
            .collect::<Vec<_>>()
            .join(",\n");
        let dense = self
            .dense
            .as_ref()
            .map(|section| format!(",\n  \"dense\":\n{}", section.to_json_entry()))
            .unwrap_or_default();
        let campaign = self
            .campaign
            .as_ref()
            .map(|section| format!(",\n  \"campaign\":\n{}", section.to_json_entry()))
            .unwrap_or_default();
        let daemon = self
            .daemon
            .as_ref()
            .map(|section| format!(",\n  \"daemon\":\n{}", section.to_json_entry()))
            .unwrap_or_default();
        format!(
            "{{\n  \"benchmark\": \"fault_sim_sweep\",\n  \"algorithms\": [{algorithms}],\n  \
             \"passes\": {},\n  \"threads\": {},\n  \"sizes\": [\n{entries}\n  ]{dense}{campaign}{daemon}\n}}\n",
            first.map_or(0, |s| s.passes),
            first.map_or(0, |s| s.threads),
        )
    }
}

/// Fast variants (the collapsed backend finishes a whole pass in well
/// under a millisecond) would be noise-dominated by a fixed pass count,
/// so pass groups repeat until at least this much wall time has
/// accumulated per variant — the committed speedup metrics stay stable
/// enough for the 25% CI gate.
const MIN_TIMING_SECONDS: f64 = 2.0;

fn time_passes(passes: usize, simulations: usize, mut sweep: impl FnMut()) -> SweepTiming {
    // One warm-up pass keeps lazy page faults and branch-predictor state
    // out of the measurement.
    sweep();
    let mut executed = 0usize;
    let start = Instant::now();
    loop {
        for _ in 0..passes {
            sweep();
        }
        executed += passes;
        if start.elapsed().as_secs_f64() >= MIN_TIMING_SECONDS {
            break;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    SweepTiming {
        seconds,
        faults_per_sec: (executed * simulations) as f64 / seconds,
    }
}

/// Rounds a [`time_rotation`] runs at least; each variant's share of a
/// round is calibrated so that this many rounds reach
/// [`MIN_TIMING_SECONDS`] unless one pass of the slowest variant already
/// outlasts a share.
const ROTATION_ROUNDS: usize = 8;

/// Times several sweep variants in rotation inside **one** measurement
/// span: every round runs each variant for its own number of passes,
/// separately clocked, for at least [`ROTATION_ROUNDS`] rounds and until
/// each variant has accumulated [`MIN_TIMING_SECONDS`].
///
/// The committed gated metrics are *ratios between variants* of one size
/// or section (`speedup_*`). Measured in disjoint windows — as
/// [`time_passes`] would — a burst of runner interference (CPU steal on
/// shared CI hardware) lands in one variant's window and corrupts the
/// ratio even though neither engine changed. Interleaving spreads any
/// such burst across all variants near-equally, so the ratios cancel the
/// common-mode noise and only genuine engine regressions move them.
///
/// Each variant's passes per round are calibrated from its timed
/// warm-up, so every variant fills about the same slice of a round: the
/// longer of a [`ROTATION_ROUNDS`]th of [`MIN_TIMING_SECONDS`] and the
/// slowest variant's single pass, and at least `passes` passes. A slow
/// variant (the seed replica) therefore does not set the fast variants'
/// pass counts, a fast one does not stretch the rotation by thousands of
/// rounds, and even the slowest size interleaves its variants over
/// [`ROTATION_ROUNDS`] rounds.
fn time_rotation(passes: usize, variants: &mut [(usize, &mut dyn FnMut())]) -> Vec<SweepTiming> {
    let warm_ups: Vec<f64> = variants
        .iter_mut()
        .map(|(_, sweep)| {
            // Warm-up, as in `time_passes`, clocked for calibration.
            let clock = Instant::now();
            sweep();
            clock.elapsed().as_secs_f64()
        })
        .collect();
    let slice = warm_ups
        .iter()
        .copied()
        .fold(MIN_TIMING_SECONDS / ROTATION_ROUNDS as f64, f64::max);
    let repetitions: Vec<usize> = warm_ups
        .iter()
        .map(|&warm_up| passes.max((slice / warm_up.max(1e-9)) as usize))
        .collect();
    let mut executed = vec![0usize; variants.len()];
    let mut seconds = vec![0.0f64; variants.len()];
    for round in 1.. {
        for (slot, (_, sweep)) in variants.iter_mut().enumerate() {
            let clock = Instant::now();
            for _ in 0..repetitions[slot] {
                sweep();
            }
            seconds[slot] += clock.elapsed().as_secs_f64();
            executed[slot] += repetitions[slot];
        }
        // Every variant must reach the floor: stopping on *total* wall
        // time would let one slow variant starve the others' windows.
        if round >= ROTATION_ROUNDS && seconds.iter().all(|&s| s >= MIN_TIMING_SECONDS) {
            break;
        }
    }
    variants
        .iter()
        .zip(executed.iter().zip(&seconds))
        .map(|(&(simulations, _), (&passes, &elapsed))| SweepTiming {
            seconds: elapsed,
            faults_per_sec: (passes * simulations) as f64 / elapsed,
        })
        .collect()
}

/// Measures baseline vs. per-fault-kernel vs. collapsed throughput for
/// the standard fault list × Table 1 algorithms on a `rows` × `cols`
/// array, running `passes` timed passes per variant. The frozen seed
/// baseline is skipped above [`BASELINE_CELL_CAP`] cells.
///
/// Before timing, the variants' coverage reports are checked to detect
/// exactly the same fault sets — a benchmark of diverging sweeps would be
/// meaningless. The collapsed reports must be *identical* to the
/// per-fault kernel's, outcome by outcome.
///
/// # Panics
///
/// Panics if `rows * cols` is not a valid organization or any variant
/// diverges.
pub fn fault_sim_throughput(rows: u32, cols: u32, passes: usize) -> FaultSimThroughput {
    let organization = ArrayOrganization::new(rows, cols).expect("valid organization");
    let order = march_test::address_order::WordLineAfterWordLine;
    let faults = march_test::faults::standard_fault_list(&organization);
    let tests = library::table1_algorithms();
    let walks: Vec<MarchWalk> = tests
        .iter()
        .map(|test| MarchWalk::new(test, &order, &organization))
        .collect();

    let serial_options = SweepOptions {
        background: false,
        mode: DetectionMode::FirstMismatch,
        parallel: false,
        backend: SweepBackend::PerFault,
    };
    let parallel_options = SweepOptions {
        parallel: true,
        ..serial_options
    };
    let batched_options = SweepOptions {
        backend: SweepBackend::LaneBatched,
        ..serial_options
    };
    let batched_parallel_options = SweepOptions::fast();
    let measure_baseline = organization.capacity() <= BASELINE_CELL_CAP;

    // Equivalence gate: every variant must detect the same fault sets,
    // and the collapsed backend must reproduce the per-fault kernel's
    // reports outcome by outcome.
    for (test, walk) in tests.iter().zip(&walks) {
        let serial = evaluate_coverage_interned_on_walk(walk, &faults, serial_options);
        if measure_baseline {
            let expected = baseline_evaluate_coverage(test, &order, &organization, &faults);
            assert_eq!(
                detected_bits(&expected),
                detected_bits(&serial),
                "{}: serial kernel diverged from the baseline",
                test.name()
            );
        }
        let parallel = evaluate_coverage_interned_on_walk(walk, &faults, parallel_options);
        assert_eq!(
            serial,
            parallel,
            "{}: parallel sweep diverged from the serial one",
            test.name()
        );
        let batched = evaluate_coverage_interned_on_walk(walk, &faults, batched_options);
        assert_eq!(
            serial,
            batched,
            "{}: collapsed sweep diverged from the per-fault kernel",
            test.name()
        );
        let batched_parallel =
            evaluate_coverage_interned_on_walk(walk, &faults, batched_parallel_options);
        assert_eq!(
            batched,
            batched_parallel,
            "{}: parallel collapsed sweep diverged from the serial one",
            test.name()
        );
    }

    // Every variant of the size in one rotation: the gated `speedup_*`
    // metrics are ratios between them.
    let simulations = tests.len() * faults.len();
    let mut baseline_pass = || {
        for test in &tests {
            std::hint::black_box(baseline_evaluate_coverage(
                test,
                &order,
                &organization,
                &faults,
            ));
        }
    };
    let sweep_with = |options: SweepOptions| {
        let (walks, faults) = (&walks, &faults);
        move || {
            for walk in walks {
                std::hint::black_box(evaluate_coverage_interned_on_walk(walk, faults, options));
            }
        }
    };
    let (mut kernel_serial, mut kernel_parallel, mut batched, mut batched_parallel) = (
        sweep_with(serial_options),
        sweep_with(parallel_options),
        sweep_with(batched_options),
        sweep_with(batched_parallel_options),
    );
    let mut variants: Vec<(usize, &mut dyn FnMut())> = Vec::new();
    if measure_baseline {
        variants.push((simulations, &mut baseline_pass));
    }
    variants.extend([
        (simulations, &mut kernel_serial as &mut dyn FnMut()),
        (simulations, &mut kernel_parallel),
        (simulations, &mut batched),
        (simulations, &mut batched_parallel),
    ]);
    let mut timings = time_rotation(passes, &mut variants).into_iter();
    let baseline = measure_baseline.then(|| timings.next().expect("baseline timing"));
    let [kernel_serial, kernel_parallel, batched, batched_parallel] =
        std::array::from_fn(|_| timings.next().expect("one timing per variant"));

    FaultSimThroughput {
        rows,
        cols,
        algorithms: tests.iter().map(|t| t.name().to_string()).collect(),
        fault_count: faults.len(),
        simulations_per_pass: simulations,
        passes,
        threads: max_threads(),
        baseline,
        kernel_serial,
        kernel_parallel,
        batched,
        batched_parallel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use march_test::address_order::WordLineAfterWordLine;
    use march_test::coverage::evaluate_coverage_interned;
    use march_test::faults::standard_fault_list;

    #[test]
    fn baseline_sweep_matches_the_kernel_sweep_exactly() {
        let organization = ArrayOrganization::new(4, 8).unwrap();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let baseline =
                baseline_evaluate_coverage(&test, &WordLineAfterWordLine, &organization, &faults);
            let kernel = evaluate_coverage_interned(
                &test,
                &WordLineAfterWordLine,
                &organization,
                &faults,
                SweepOptions::default(),
            );
            // Full-fidelity kernel mode reproduces even the mismatch counts.
            assert_eq!(baseline, kernel, "{}", test.name());
        }
    }

    #[test]
    fn throughput_experiment_runs_and_reports_consistent_numbers() {
        let sweep = FaultSimSweep::measure(&[(4, 8)], 1, None, false, false);
        assert_eq!(sweep.sizes.len(), 1);
        let result = &sweep.sizes[0];
        assert_eq!(result.algorithms.len(), 5);
        assert_eq!(
            result.simulations_per_pass,
            result.algorithms.len() * result.fault_count
        );
        assert!(!result.baseline_skipped(), "4x8 is far below the cap");
        assert!(result.baseline.unwrap().faults_per_sec > 0.0);
        assert!(result.kernel_serial.faults_per_sec > 0.0);
        assert!(result.kernel_parallel.faults_per_sec > 0.0);
        assert!(result.batched.faults_per_sec > 0.0);
        assert!(result.batched_parallel.faults_per_sec > 0.0);
        assert!(result.speedup_serial().is_some());
        assert!(result.speedup_batched().is_some());
        assert!(result.speedup_batched_vs_kernel() > 0.0);
        let json = sweep.to_json();
        assert!(json.contains("\"benchmark\": \"fault_sim_sweep\""));
        assert!(json.contains("\"baseline_skipped\": false"));
        assert!(json.contains("\"speedup_serial\""));
        assert!(json.contains("\"batched_faults_per_sec\""));
        assert!(json.contains("\"speedup_batched_vs_kernel\""));
        assert!(json.contains("March C-"));
        assert!(json.contains("\"sizes\""));
        crate::json::parse(&json).expect("sweep JSON parses");
    }

    #[test]
    fn dense_section_measures_the_generated_population() {
        // A scaled-down dense section: the structure and JSON schema are
        // what matter here, the 1024x1024/100k acceptance numbers live in
        // the committed BENCH_fault_sim.json.
        let section = dense_sweep(32, 32, 600, 1);
        assert_eq!(section.algorithm, "March SS");
        assert!(section.fault_count >= 600);
        assert_eq!(section.standard_fault_count, 48);
        assert!(section.population.starts_with("dense-"));
        assert!(section.standard.faults_per_sec > 0.0);
        assert!(section.dense.faults_per_sec > 0.0);
        assert!(section.dense_parallel.faults_per_sec > 0.0);
        assert!(section.dense_shuffled.faults_per_sec > 0.0);
        assert!(section.speedup_dense_vs_standard() > 0.0);
        assert!(section.speedup_shuffled_vs_ordered() > 0.0);
        let sweep = FaultSimSweep {
            sizes: vec![],
            dense: Some(section),
            campaign: None,
            daemon: None,
        };
        let json = sweep.to_json();
        assert!(json.contains("\"dense\":"));
        assert!(json.contains("\"threads\""));
        assert!(json.contains("\"dense_batched_faults_per_sec\""));
        assert!(json.contains("\"standard_batched_faults_per_sec\""));
        assert!(json.contains("\"speedup_dense_vs_standard\""));
        assert!(json.contains("\"dense_shuffled_batched_faults_per_sec\""));
        assert!(json.contains("\"speedup_shuffled_vs_ordered\""));
        assert!(!json.contains("packer"), "the packer section is retired");
        crate::json::parse(&json).expect("sweep JSON parses");
    }

    #[test]
    fn sweep_json_omits_the_dense_section_when_not_measured() {
        let sweep = FaultSimSweep::measure(&[(4, 8)], 1, None, false, false);
        assert!(sweep.dense.is_none());
        assert!(sweep.campaign.is_none());
        assert!(sweep.daemon.is_none());
        let json = sweep.to_json();
        assert!(!json.contains("\"dense\""));
        assert!(!json.contains("\"campaign\""));
        assert!(!json.contains("\"daemon\""));
        crate::json::parse(&json).expect("sweep JSON parses");
    }

    #[test]
    fn campaign_section_renders_its_gated_fields() {
        let section = CampaignBenchSection {
            jobs: 20,
            threads: 4,
            direct_jobs_per_sec: 100.0,
            campaign_jobs_per_sec: 95.0,
            campaign_parallel_jobs_per_sec: 310.0,
        };
        assert!((section.speedup_campaign_vs_direct() - 0.95).abs() < 1e-12);
        let sweep = FaultSimSweep {
            sizes: vec![],
            dense: None,
            campaign: Some(section),
            daemon: None,
        };
        let json = sweep.to_json();
        assert!(json.contains("\"campaign\":"));
        assert!(json.contains("\"direct_jobs_per_sec\": 100.0"));
        assert!(json.contains("\"campaign_jobs_per_sec\": 95.0"));
        assert!(json.contains("\"campaign_parallel_jobs_per_sec\": 310.0"));
        assert!(json.contains("\"speedup_campaign_vs_direct\": 0.950"));
        crate::json::parse(&json).expect("sweep JSON parses");
    }

    #[test]
    fn daemon_section_renders_its_gated_fields() {
        let section = DaemonBenchSection {
            jobs: 24,
            offered: 24,
            queue_limit: 8,
            intake_jobs_per_sec: 512.0,
            shed_fraction: 2.0 / 3.0,
        };
        let sweep = FaultSimSweep {
            sizes: vec![],
            dense: None,
            campaign: None,
            daemon: Some(section),
        };
        let json = sweep.to_json();
        assert!(json.contains("\"daemon\":"));
        assert!(json.contains("\"jobs\": 24"));
        assert!(json.contains("\"offered\": 24"));
        assert!(json.contains("\"queue_limit\": 8"));
        assert!(json.contains("\"intake_jobs_per_sec\": 512.0"));
        assert!(json.contains("\"shed_fraction\": 0.667"));
        crate::json::parse(&json).expect("sweep JSON parses");
    }

    #[test]
    fn daemon_bench_measures_intake_and_deterministic_shed() {
        // One pass of the real section: the equivalence and overload
        // gates inside `daemon_bench` do the asserting; here the numbers
        // just have to come out sane. (The committed acceptance numbers
        // live in BENCH_fault_sim.json.)
        let section = daemon_bench(1);
        assert_eq!(section.jobs, 24);
        assert_eq!(section.offered, 24);
        assert_eq!(section.queue_limit, 8);
        assert!(section.intake_jobs_per_sec > 0.0);
        let expected = (24.0 - 8.0) / 24.0;
        assert!((section.shed_fraction - expected).abs() < 1e-12);
    }

    #[test]
    fn campaign_bench_plan_is_fixed_and_valid() {
        let plan = campaign_bench_plan();
        assert_eq!(plan.len(), 20, "4 seeds x the Table 1 five");
        plan.validate().expect("the benchmark plan must be valid");
    }

    #[test]
    fn baseline_replica_is_skipped_above_the_cell_cap() {
        // 272×256 = 69632 cells > the 256×256 cap: the frozen baseline
        // must be skipped, its metrics omitted from the JSON, and the
        // batched-vs-kernel speedup still reported.
        let sweep = FaultSimSweep::measure(&[(272, 256)], 1, None, false, false);
        let result = &sweep.sizes[0];
        assert!(result.baseline_skipped());
        assert!(result.baseline.is_none());
        assert_eq!(result.speedup_serial(), None);
        assert_eq!(result.speedup_parallel(), None);
        assert_eq!(result.speedup_batched(), None);
        assert!(result.speedup_batched_vs_kernel() > 0.0);
        let json = sweep.to_json();
        assert!(json.contains("\"baseline_skipped\": true"));
        assert!(!json.contains("\"baseline_faults_per_sec\""));
        assert!(!json.contains("\"speedup_serial\""));
        assert!(json.contains("\"speedup_batched_vs_kernel\""));
        crate::json::parse(&json).expect("sweep JSON parses");
    }
}
