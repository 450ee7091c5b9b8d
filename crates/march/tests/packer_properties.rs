//! Property tests for the cohort planners ([`FaultBatch`]).
//!
//! Whatever the population looks like, every plan must satisfy the
//! packing invariants:
//!
//! 1. every input fault lands in exactly one cohort lane, exactly once;
//! 2. no lane cohort exceeds [`LaneMemory::LANES`] members;
//! 3. sweep outcomes (planned by the address-aware packer) reassemble
//!    in fault-list order;
//! 4. the address-aware packer's total merged-schedule steps never
//!    exceed the list-order greedy baseline's — and shrink outright on
//!    overlap-heavy populations.
//!
//! Populations are drawn from seeded [`FaultGen`] profiles so any failure
//! reproduces from the printed seed.

use march_test::address_order::WordLineAfterWordLine;
use march_test::batch::{Cohort, CohortPlanner, FaultBatch};
use march_test::coverage::{evaluate_coverage_on_walk, SweepBackend, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::fault_sim::DetectionMode;
use march_test::faultgen::FaultGen;
use march_test::faults::FaultFactory;
use march_test::library;
use march_test::memory::LaneMemory;
use march_test::rng::SplitMix64;
use sram_model::config::ArrayOrganization;

const PLANNERS: [CohortPlanner; 2] = [CohortPlanner::ListOrderGreedy, CohortPlanner::AddressAware];

/// A seed-determined population over a seed-determined organization:
/// mixed, clustered or structured, sometimes shuffled.
fn population_for(seed: u64) -> (ArrayOrganization, Vec<FaultFactory>) {
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

/// Properties 1 + 2: exactly-once lane assignment and the 64-lane cap,
/// for both planners across many random populations.
#[test]
fn every_fault_lands_in_exactly_one_lane_and_cohorts_cap_at_sixty_four() {
    for round in 0..32u64 {
        let seed = 0x9ac4_0000u64 | round;
        let (organization, faults) = population_for(seed);
        for test in [library::march_ss(), library::mats_plus()] {
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            for planner in PLANNERS {
                let plan = FaultBatch::plan_with(&walk, &faults, planner);
                assert_eq!(plan.fault_count(), faults.len(), "seed {seed:#x}");
                let mut seen: Vec<usize> = Vec::with_capacity(faults.len());
                for cohort in plan.cohorts() {
                    match cohort {
                        Cohort::Lanes(indices) => {
                            assert!(
                                indices.len() <= LaneMemory::LANES,
                                "seed {seed:#x} [{planner:?}]: cohort of {} lanes",
                                indices.len()
                            );
                            assert!(!cohort.is_empty(), "seed {seed:#x} [{planner:?}]");
                            seen.extend(indices.iter().copied());
                        }
                        Cohort::Serial(index) => seen.push(*index),
                    }
                }
                seen.sort_unstable();
                let expected: Vec<usize> = (0..faults.len()).collect();
                assert_eq!(
                    seen, expected,
                    "seed {seed:#x} [{planner:?}]: every fault exactly once"
                );
            }
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
            for (index, (outcome, factory)) in report.outcomes().iter().zip(&faults).enumerate() {
                assert_eq!(
                    outcome.fault_name,
                    factory().name(),
                    "seed {seed:#x} [parallel={parallel}]: outcome {index} must describe \
                     fault {index}"
                );
            }
        }
    }
}

/// Property 4a: the address-aware packer never plans a worse total merged
/// schedule than the greedy baseline — on *any* population (the packer
/// keeps the better of the two groupings by construction, and this pins
/// that contract from the outside).
#[test]
fn packed_schedule_never_exceeds_greedy() {
    for round in 0..32u64 {
        let seed = 0x5c4e_0000u64 | round;
        let (organization, faults) = population_for(seed);
        let walk = MarchWalk::new(&library::march_sr(), &WordLineAfterWordLine, &organization);
        let greedy = FaultBatch::plan_with(&walk, &faults, CohortPlanner::ListOrderGreedy);
        let packed = FaultBatch::plan_with(&walk, &faults, CohortPlanner::AddressAware);
        assert!(
            packed.merged_schedule_steps() <= greedy.merged_schedule_steps(),
            "seed {seed:#x}: packed {} > greedy {}",
            packed.merged_schedule_steps(),
            greedy.merged_schedule_steps()
        );
    }
}

/// Property 4b: on overlap-heavy shuffled populations (many faults per
/// victim, shuffled so list order scatters them) the packer must deliver
/// a *strict, substantial* schedule reduction — the reason it exists.
#[test]
fn packed_schedule_shrinks_substantially_on_overlap_heavy_populations() {
    for seed in [0xbeef_0001u64, 0xbeef_0002, 0xbeef_0003] {
        let mut rng = SplitMix64::new(seed);
        let organization = ArrayOrganization::new(32, 32).expect("valid organization");
        let mut gen = FaultGen::new(organization, rng.next_u64());
        let mut faults = gen.overlapping_clusters(60, 2, 1);
        gen.shuffle(&mut faults);
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let greedy = FaultBatch::plan_with(&walk, &faults, CohortPlanner::ListOrderGreedy);
        let packed = FaultBatch::plan_with(&walk, &faults, CohortPlanner::AddressAware);
        let ratio = greedy.merged_schedule_steps() as f64 / packed.merged_schedule_steps() as f64;
        assert!(
            ratio >= 1.5,
            "seed {seed:#x}: packer only saved {ratio:.2}x \
             (greedy {} vs packed {} steps)",
            greedy.merged_schedule_steps(),
            packed.merged_schedule_steps()
        );
    }
}
