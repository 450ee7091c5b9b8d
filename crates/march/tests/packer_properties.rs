//! Property tests for the collapsed plan ([`FaultBatch`]).
//!
//! Whatever the population looks like, every plan must satisfy:
//!
//! 1. every input fault belongs to exactly one class or singleton;
//! 2. a class costs at most the canonical walk's five cells, so the plan
//!    never simulates more steps than the per-fault path would;
//! 3. sweep outcomes reassemble in fault-list order;
//! 4. the collapsed sweep reproduces the per-fault golden path — and on
//!    overlap-heavy populations it simulates far fewer classes than
//!    faults.
//!
//! Populations are drawn from seeded [`FaultGen`] profiles so any failure
//! reproduces from the printed seed.

use march_test::address_order::WordLineAfterWordLine;
use march_test::batch::{Cohort, FaultBatch};
use march_test::coverage::{evaluate_coverage_on_walk, SweepBackend, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::fault_sim::DetectionMode;
use march_test::faultgen::FaultGen;
use march_test::faults::{Fault, FaultModel};
use march_test::library;
use march_test::rng::SplitMix64;
use sram_model::config::ArrayOrganization;

/// A seed-determined population over a seed-determined organization:
/// mixed, clustered or structured, sometimes shuffled.
fn population_for(seed: u64) -> (ArrayOrganization, Vec<FaultModel>) {
    let mut rng = SplitMix64::new(seed);
    let rows = 2 + rng.next_below(15) as u32;
    let cols = 2 + rng.next_below(15) as u32;
    let organization = ArrayOrganization::new(rows, cols).expect("valid organization");
    let mut gen = FaultGen::new(organization, rng.next_u64());
    let mut faults = match rng.next_below(3) {
        0 => gen.mixed(1 + rng.next_below(300) as usize),
        1 => gen.overlapping_clusters(1 + rng.next_below(30) as usize, 2, 2),
        _ => {
            let mut faults = gen.stuck_at_per_row(1 + rng.next_below(u64::from(cols)) as u32);
            faults.extend(gen.neighbourhood_coupling(rng.next_below(100) as usize, 1));
            faults
        }
    };
    if rng.next_bool() {
        gen.shuffle(&mut faults);
    }
    (organization, faults)
}

/// The walk steps the per-fault golden path runs for every fault of
/// `faults` under `DetectionMode::Full`.
fn per_fault_steps(walk: &MarchWalk, faults: &[FaultModel], ops: usize) -> u64 {
    faults
        .iter()
        .map(|fault| match fault.involved_addresses() {
            Some(mut cells) => {
                cells.sort_unstable();
                cells.dedup();
                (cells.len() * ops) as u64
            }
            None => walk.len() as u64,
        })
        .sum()
}

/// Properties 1 + 2: every fault in exactly one entry, and no class
/// dearer than the canonical walk, across many random populations.
#[test]
fn every_fault_lands_in_exactly_one_entry_and_classes_stay_small() {
    for round in 0..32u64 {
        let seed = 0x9ac4_0000u64 | round;
        let (organization, faults) = population_for(seed);
        for test in [library::march_ss(), library::mats_plus()] {
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            let plan = FaultBatch::plan(&walk, &faults);
            assert_eq!(plan.fault_count(), faults.len(), "seed {seed:#x}");
            let covered: usize = plan.cohorts().iter().map(Cohort::len).sum();
            assert_eq!(covered, faults.len(), "seed {seed:#x}: every fault once");
            assert!(
                !plan.cohorts().iter().any(Cohort::is_empty),
                "seed {seed:#x}"
            );
            // In-crate models only: no singletons, and each class runs at
            // most five cells' operations.
            assert!(
                plan.cohorts()
                    .iter()
                    .all(|cohort| matches!(cohort, Cohort::Class(_))),
                "seed {seed:#x}"
            );
            assert_eq!(plan.lane_fault_count(), faults.len(), "seed {seed:#x}");
            let ops = test.operation_count();
            assert!(
                plan.merged_schedule_steps() <= (plan.cohorts().len() * 5 * ops) as u64,
                "seed {seed:#x}: {} steps for {} classes",
                plan.merged_schedule_steps(),
                plan.cohorts().len()
            );
            assert!(
                plan.merged_schedule_steps() <= per_fault_steps(&walk, &faults, ops),
                "seed {seed:#x}: the plan simulates more than the per-fault path"
            );
        }
    }
}

/// Property 3: sweep outcomes come back in fault-list order — outcome `i`
/// describes fault `i` — serial and parallel.
#[test]
fn outcomes_reassemble_in_fault_list_order() {
    for round in 0..8u64 {
        let seed = 0x0de4_0000u64 | round;
        let (organization, faults) = population_for(seed);
        let walk = MarchWalk::new(
            &library::march_c_minus(),
            &WordLineAfterWordLine,
            &organization,
        );
        for parallel in [false, true] {
            let report = evaluate_coverage_on_walk(
                &walk,
                &faults,
                SweepOptions {
                    background: false,
                    mode: DetectionMode::Full,
                    parallel,
                    backend: SweepBackend::LaneBatched,
                },
            );
            assert_eq!(report.total(), faults.len(), "seed {seed:#x}");
            for (index, (outcome, fault)) in report.outcomes().iter().zip(&faults).enumerate() {
                assert_eq!(
                    outcome.fault_name,
                    fault.name(),
                    "seed {seed:#x} [parallel={parallel}]: outcome {index} must describe \
                     fault {index}"
                );
            }
        }
    }
}

/// Property 4: on any population the collapsed sweep equals the per-fault
/// golden path.
#[test]
fn collapsed_sweeps_equal_the_golden_path() {
    for round in 0..32u64 {
        let seed = 0x5c4e_0000u64 | round;
        let (organization, faults) = population_for(seed);
        let walk = MarchWalk::new(&library::march_sr(), &WordLineAfterWordLine, &organization);
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let options = |backend| SweepOptions {
                background: round % 2 == 1,
                mode,
                parallel: false,
                backend,
            };
            assert_eq!(
                evaluate_coverage_on_walk(&walk, &faults, options(SweepBackend::PerFault)),
                evaluate_coverage_on_walk(&walk, &faults, options(SweepBackend::LaneBatched)),
                "seed {seed:#x} [{mode:?}]"
            );
        }
    }
}

/// Property 4b: on overlap-heavy shuffled populations (many faults per
/// victim, scattered through the list) the collapse simulates a small
/// fraction of the faults — the reason it exists.
#[test]
fn overlap_heavy_populations_collapse_into_few_classes() {
    for seed in [0xbeef_0001u64, 0xbeef_0002, 0xbeef_0003] {
        let mut rng = SplitMix64::new(seed);
        let organization = ArrayOrganization::new(32, 32).expect("valid organization");
        let mut gen = FaultGen::new(organization, rng.next_u64());
        let mut faults = gen.overlapping_clusters(60, 2, 1);
        gen.shuffle(&mut faults);
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let plan = FaultBatch::plan(&walk, &faults);
        let ratio = faults.len() as f64 / plan.cohorts().len() as f64;
        assert!(
            ratio >= 4.0,
            "seed {seed:#x}: {} faults collapsed into only {:.2}x fewer classes ({})",
            faults.len(),
            ratio,
            plan.cohorts().len()
        );
    }
}
