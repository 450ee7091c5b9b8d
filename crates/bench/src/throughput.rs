//! Fault-simulation throughput measurement.
//!
//! The paper's coverage and degree-of-freedom experiments are exhaustive
//! fault sweeps; this module measures how many fault simulations per
//! second the march kernel sustains and compares it against a frozen
//! replica of the original (pre-kernel) implementation, so the speedup is
//! tracked as a number instead of a claim. [`fault_sim_document`] measures
//! the whole `BENCH_fault_sim.json` document, which the `fault_sim_bench`
//! binary prints and writes. Each entry and section of it is one function
//! that lists its keys once, in the committed order, and computes its
//! `speedup_*` ratios from the measured rates.
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
//! Besides the per-size ladder ([`fault_sim_throughput`]), [`dense_sweep`]
//! measures the dense-population section: a generated ≥100k-fault population
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

use crate::json::JsonValue;

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

/// The `sizes` entry of one organization, from the faults/sec of the
/// per-fault kernel (serial, parallel) and of the collapsed backend
/// (serial, and with `parallel` set: the same path, since only per-fault
/// work fans out); `baseline` is the seed replica's, `None` above
/// [`BASELINE_CELL_CAP`] cells, where the baseline-relative keys are
/// left out. `speedup_batched_vs_kernel`, serial against serial, is the
/// machine-relative ratio written at every size.
fn size_entry(
    (rows, cols): (u32, u32),
    fault_count: usize,
    simulations_per_pass: usize,
    baseline: Option<f64>,
    [serial, parallel, batched, batched_parallel]: [f64; 4],
) -> JsonValue {
    let mut members = vec![
        ("rows", rows.into()),
        ("cols", cols.into()),
        ("fault_count", fault_count.into()),
        ("simulations_per_pass", simulations_per_pass.into()),
        ("baseline_skipped", baseline.is_none().into()),
    ];
    members.extend(baseline.map(|rate| ("baseline_faults_per_sec", rate.into())));
    members.extend([
        ("kernel_serial_faults_per_sec", serial.into()),
        ("kernel_parallel_faults_per_sec", parallel.into()),
        ("batched_faults_per_sec", batched.into()),
        ("batched_parallel_faults_per_sec", batched_parallel.into()),
    ]);
    if let Some(baseline) = baseline {
        members.extend([
            ("speedup_serial", (serial / baseline).into()),
            ("speedup_parallel", (parallel / baseline).into()),
            ("speedup_batched", (batched / baseline).into()),
        ]);
    }
    members.push(("speedup_batched_vs_kernel", (batched / serial).into()));
    JsonValue::object(members)
}

/// The `dense` section, from the faults/sec of the standard list and of
/// the generated population (serial, with `parallel` set, and in the
/// fixed [`DENSE_SHUFFLE_SEED`] order), all collapsed on one walk.
/// `speedup_dense_vs_standard` guards the acceptance claim that generated
/// populations sweep within 25 % of the standard-list rate;
/// `speedup_shuffled_vs_ordered` should stay near `1.0`, since
/// classification and scatter are list-order passes.
fn dense_section(
    (rows, cols): (u32, u32),
    algorithm: &str,
    population: &str,
    fault_count: usize,
    standard_fault_count: usize,
    [standard, dense, parallel, shuffled]: [f64; 4],
) -> JsonValue {
    JsonValue::object([
        ("rows", rows.into()),
        ("cols", cols.into()),
        ("algorithm", algorithm.into()),
        ("population", population.into()),
        ("fault_count", fault_count.into()),
        ("standard_fault_count", standard_fault_count.into()),
        ("threads", max_threads().into()),
        ("standard_batched_faults_per_sec", standard.into()),
        ("dense_batched_faults_per_sec", dense.into()),
        ("dense_batched_parallel_faults_per_sec", parallel.into()),
        ("dense_shuffled_batched_faults_per_sec", shuffled.into()),
        ("speedup_dense_vs_standard", (dense / standard).into()),
        ("speedup_shuffled_vs_ordered", (shuffled / dense).into()),
    ])
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
pub fn dense_sweep(rows: u32, cols: u32, fault_count: usize, passes: usize) -> JsonValue {
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
    let rates = time_rotation(
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
    dense_section(
        (rows, cols),
        test.name(),
        &population.name,
        population.len(),
        standard.len(),
        rates.try_into().expect("one rate per variant"),
    )
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
///
/// The section is built from the three variants' jobs/sec, in that order.
fn campaign_section(jobs: usize, [direct, campaign, campaign_parallel]: [f64; 3]) -> JsonValue {
    JsonValue::object([
        ("jobs", jobs.into()),
        ("threads", max_threads().into()),
        ("direct_jobs_per_sec", direct.into()),
        ("campaign_jobs_per_sec", campaign.into()),
        ("campaign_parallel_jobs_per_sec", campaign_parallel.into()),
        ("speedup_campaign_vs_direct", (campaign / direct).into()),
    ])
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
pub fn campaign_bench(passes: usize) -> JsonValue {
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
    let rates = time_rotation(
        passes,
        &mut [
            (jobs, &mut direct_pass),
            (jobs, &mut serial_pass),
            (jobs, &mut parallel_pass),
        ],
    );
    std::fs::remove_file(&journal).ok();
    campaign_section(jobs, rates.try_into().expect("one rate per variant"))
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
///
/// Every pass offers (and admits) all `jobs`; the overload pass bounds
/// the queue at `queue_limit`.
fn daemon_section(
    jobs: usize,
    queue_limit: usize,
    intake_jobs_per_sec: f64,
    shed_fraction: f64,
) -> JsonValue {
    JsonValue::object([
        ("jobs", jobs.into()),
        ("offered", jobs.into()),
        ("queue_limit", queue_limit.into()),
        ("intake_jobs_per_sec", intake_jobs_per_sec.into()),
        ("shed_fraction", shed_fraction.into()),
    ])
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
pub fn daemon_bench(passes: usize) -> JsonValue {
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
    let intake = time_rotation(
        passes,
        &mut [(jobs.len(), &mut || {
            run(&unique(), &unique(), usize::MAX);
        })],
    );
    daemon_section(jobs.len(), queue_limit, intake[0], shed_fraction)
}

/// Measures the whole `BENCH_fault_sim.json` document: one `sizes` entry
/// per `(rows, cols)` organization ([`fault_sim_throughput`], 64×64 up to
/// 1024×1024 by default), the `dense` section when `dense` carries
/// `(rows, cols, fault_count)` ([`dense_sweep`]), and the `campaign` and
/// `daemon` sections when `campaign` and `daemon` are set
/// ([`campaign_bench`], [`daemon_bench`]).
///
/// # Panics
///
/// Panics if any organization is invalid or any equivalence gate fails.
pub fn fault_sim_document(
    organizations: &[(u32, u32)],
    passes: usize,
    dense: Option<(u32, u32, usize)>,
    campaign: bool,
    daemon: bool,
) -> JsonValue {
    // The dense section runs first, on a pristine heap: the size ladder
    // cycles gigabytes of walk arrays, and the fragmented address space
    // it leaves behind measurably slows the large-working-set dense
    // sweep (the compact standard list is unaffected, which would skew
    // the gated ratio).
    let dense = dense
        .map(|(rows, cols, fault_count)| ("dense", dense_sweep(rows, cols, fault_count, passes)));
    // The campaign section's gated metric is a ratio between variants
    // timed back to back, so heap state cancels; it runs second, still
    // ahead of the allocation-heavy size ladder.
    let campaign = campaign.then(|| ("campaign", campaign_bench(passes)));
    let daemon = daemon.then(|| ("daemon", daemon_bench(passes)));
    let sizes = organizations
        .iter()
        .map(|&(rows, cols)| fault_sim_throughput(rows, cols, passes))
        .collect();
    let mut members = crate::document_head("fault_sim_sweep", passes, sizes);
    members.extend(dense.into_iter().chain(campaign).chain(daemon));
    JsonValue::object(members)
}

/// Fast variants (the collapsed backend finishes a whole pass in well
/// under a millisecond) would be noise-dominated by a fixed pass count,
/// so [`time_rotation`] repeats passes until at least this much wall time
/// has accumulated per variant — the committed speedup metrics stay
/// stable enough for the 25% CI gate.
const MIN_TIMING_SECONDS: f64 = 2.0;

/// Rounds a [`time_rotation`] runs at least; each variant's share of a
/// round is calibrated so that this many rounds reach
/// [`MIN_TIMING_SECONDS`] unless one pass of the slowest variant already
/// outlasts a share.
const ROTATION_ROUNDS: usize = 8;

/// Times several sweep variants in rotation inside **one** measurement
/// span and returns each variant's rate: the work of one pass (the
/// variant's first field, in faults or jobs) times the passes run, per
/// second. Every round runs each variant for its own number of passes,
/// separately clocked, for at least [`ROTATION_ROUNDS`] rounds and until
/// each variant has accumulated [`MIN_TIMING_SECONDS`].
///
/// The committed gated metrics are *ratios between variants* of one size
/// or section (`speedup_*`). Measured in disjoint windows, a burst of
/// runner interference (CPU steal on shared CI hardware) lands in one
/// variant's window and corrupts the ratio even though neither engine
/// changed. Interleaving spreads any such burst across all variants
/// near-equally, so the ratios cancel the common-mode noise and only
/// genuine engine regressions move them.
///
/// Each variant's passes per round are calibrated from its timed
/// warm-up, so every variant fills about the same slice of a round: the
/// longer of a [`ROTATION_ROUNDS`]th of [`MIN_TIMING_SECONDS`] and the
/// slowest variant's single pass, and at least `passes` passes. A slow
/// variant (the seed replica) therefore does not set the fast variants'
/// pass counts, a fast one does not stretch the rotation by thousands of
/// rounds, and even the slowest size interleaves its variants over
/// [`ROTATION_ROUNDS`] rounds.
fn time_rotation(passes: usize, variants: &mut [(usize, &mut dyn FnMut())]) -> Vec<f64> {
    let warm_ups: Vec<f64> = variants
        .iter_mut()
        .map(|(_, sweep)| {
            // One warm-up pass keeps lazy page faults and branch-predictor
            // state out of the measurement; it is clocked for calibration.
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
        .map(|(&(work, _), (&passes, &elapsed))| (passes * work) as f64 / elapsed)
        .collect()
}

/// Measures baseline vs. per-fault-kernel vs. collapsed throughput for
/// the standard fault list × Table 1 algorithms on a `rows` × `cols`
/// array, running at least `passes` timed passes per variant per round,
/// and returns the organization's `sizes` entry. The frozen seed baseline
/// is skipped above [`BASELINE_CELL_CAP`] cells.
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
pub fn fault_sim_throughput(rows: u32, cols: u32, passes: usize) -> JsonValue {
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
    let mut rates = time_rotation(passes, &mut variants).into_iter();
    let baseline = measure_baseline.then(|| rates.next().expect("baseline rate"));
    size_entry(
        (rows, cols),
        faults.len(),
        simulations,
        baseline,
        std::array::from_fn(|_| rates.next().expect("one rate per variant")),
    )
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

    /// The committed `BENCH_fault_sim.json`: every entry and section
    /// written here keeps its keys, in order.
    fn committed() -> JsonValue {
        crate::json::parse(include_str!("../../../BENCH_fault_sim.json"))
            .expect("the committed baseline parses")
    }

    #[test]
    fn throughput_experiment_runs_and_reports_consistent_numbers() {
        let document = fault_sim_document(&[(4, 8)], 1, None, false, false);
        let committed = committed();
        // No dense, campaign or daemon section: the committed document's
        // first five keys.
        assert_eq!(document.keys(), committed.keys()[..5]);
        assert_eq!(
            document.get("algorithms").and_then(JsonValue::as_array),
            committed.get("algorithms").and_then(JsonValue::as_array)
        );
        // 4x8 is far below the cap: the seed replica ran, as at 64x64.
        let entry = document.size_entry(4);
        assert_eq!(entry.keys(), committed.size_entry(64).keys());
        assert_eq!(entry.get("baseline_skipped"), Some(&JsonValue::Bool(false)));
        let count = |key: &str| entry.get(key).and_then(JsonValue::as_f64).expect(key);
        assert_eq!(count("simulations_per_pass"), 5.0 * count("fault_count"));
        entry.assert_positive_rates();
        let text = document.to_string();
        assert_eq!(crate::json::parse(&text), Ok(document), "{text}");
    }

    #[test]
    fn dense_section_measures_the_generated_population() {
        // A scaled-down dense section: the structure and JSON schema are
        // what matter here, the 1024x1024/100k acceptance numbers live in
        // the committed BENCH_fault_sim.json.
        let section = dense_sweep(32, 32, 600, 1);
        assert_eq!(section.keys(), committed()["dense"].keys());
        assert_eq!(section["algorithm"].as_str(), Some("March SS"));
        assert!(section["population"]
            .as_str()
            .is_some_and(|name| name.starts_with("dense-")));
        assert!(section["fault_count"]
            .as_f64()
            .is_some_and(|count| count >= 600.0));
        assert_eq!(section["standard_fault_count"].as_f64(), Some(48.0));
        section.assert_positive_rates();
    }

    #[test]
    fn campaign_section_renders_its_gated_fields() {
        let section = campaign_section(20, [100.0, 95.0, 310.0]);
        assert_eq!(section.keys(), committed()["campaign"].keys());
        assert_eq!(section["jobs"].as_f64(), Some(20.0));
        assert_eq!(section["direct_jobs_per_sec"].as_f64(), Some(100.0));
        assert_eq!(section["campaign_jobs_per_sec"].as_f64(), Some(95.0));
        assert_eq!(
            section["campaign_parallel_jobs_per_sec"].as_f64(),
            Some(310.0)
        );
        let speedup = section["speedup_campaign_vs_direct"].as_f64().unwrap();
        assert!((speedup - 0.95).abs() < 1e-12, "{speedup}");
    }

    #[test]
    fn daemon_bench_measures_intake_and_deterministic_shed() {
        // One pass of the real section: the equivalence and overload
        // gates inside `daemon_bench` do the asserting; here the numbers
        // just have to come out sane. (The committed acceptance numbers
        // live in BENCH_fault_sim.json.)
        let section = daemon_bench(1);
        assert_eq!(section.keys(), committed()["daemon"].keys());
        assert_eq!(section["jobs"].as_f64(), Some(24.0));
        assert_eq!(section["offered"].as_f64(), Some(24.0));
        assert_eq!(section["queue_limit"].as_f64(), Some(8.0));
        section.assert_positive_rates();
        let shed = section["shed_fraction"].as_f64().unwrap();
        assert!((shed - (24.0 - 8.0) / 24.0).abs() < 1e-12, "{shed}");
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
        // must be skipped and its metrics left out, as at 512x512, and the
        // batched-vs-kernel speedup still reported.
        let entry = fault_sim_throughput(272, 256, 1);
        assert_eq!(entry.keys(), committed().size_entry(512).keys());
        assert_eq!(entry["baseline_skipped"], JsonValue::Bool(true));
        entry.assert_positive_rates();
    }
}
