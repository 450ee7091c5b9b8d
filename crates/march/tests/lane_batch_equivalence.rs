//! Exhaustive equivalence of the lane-batched fault-simulation backend
//! against the serial per-fault golden path.
//!
//! The batched backend must be *bit-identical* in its observable results:
//! detected/escaped per fault, mismatch counts, and the first-detecting
//! element/operation — across the whole fault library, several array
//! organizations, both data backgrounds, every library algorithm, and odd
//! cohort sizes around the 64-lane boundary.

use march_test::address_order::{AddressOrder, ColumnMajor, WordLineAfterWordLine};
use march_test::batch::{Cohort, FaultBatch};
use march_test::coverage::{evaluate_coverage_with, SweepBackend, SweepOptions};
use march_test::executor::{run_march_lanes, run_march_walk, MarchWalk};
use march_test::fault_sim::DetectionMode;
use march_test::faults::{
    standard_fault_list, CouplingInversionFault, FaultFactory, FaultyMemory, LaneFaultKind,
    StuckAtFault, TransitionFault, WriteDisturbFault,
};
use march_test::library;
use march_test::memory::GoodMemory;
use sram_model::address::Address;
use sram_model::config::ArrayOrganization;

fn organizations() -> Vec<ArrayOrganization> {
    vec![
        ArrayOrganization::new(4, 4).unwrap(),
        ArrayOrganization::new(3, 7).unwrap(),
        ArrayOrganization::new(8, 8).unwrap(),
    ]
}

/// The core guarantee: for every algorithm × order × organization ×
/// background × detection mode, the batched sweep over the whole standard
/// fault library produces a report identical to the serial per-fault one.
#[test]
fn batched_sweep_equals_the_serial_per_fault_path_everywhere() {
    for organization in organizations() {
        let faults = standard_fault_list(&organization);
        for test in library::all_algorithms() {
            for order in [&WordLineAfterWordLine as &dyn AddressOrder, &ColumnMajor] {
                for background in [false, true] {
                    for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                        let golden = evaluate_coverage_with(
                            &test,
                            order,
                            &organization,
                            &faults,
                            SweepOptions {
                                background,
                                mode,
                                parallel: false,
                                backend: SweepBackend::PerFault,
                            },
                        );
                        for parallel in [false, true] {
                            let batched = evaluate_coverage_with(
                                &test,
                                order,
                                &organization,
                                &faults,
                                SweepOptions {
                                    background,
                                    mode,
                                    parallel,
                                    backend: SweepBackend::LaneBatched,
                                },
                            );
                            assert_eq!(
                                golden,
                                batched,
                                "{} / {} / background {background} / {mode:?} / \
                                 parallel={parallel}",
                                test.name(),
                                order.name(),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The per-lane first mismatch (element, address, expected, observed) of a
/// batched cohort must equal the first entry of the serial full-walk
/// mismatch list for the same fault — the "first-detecting
/// element+operation" guarantee that coverage reports build on.
#[test]
fn lane_detections_report_the_same_first_mismatch_as_the_full_walk() {
    for organization in organizations() {
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            for background in [false, true] {
                let mut lanes: Vec<LaneFaultKind> = faults
                    .iter()
                    .map(|factory| {
                        factory()
                            .lane_kind()
                            .expect("standard faults have lane kinds")
                    })
                    .collect();
                let detections =
                    run_march_lanes(&walk, &mut lanes, background, DetectionMode::Full);
                assert_eq!(detections.len(), faults.len());
                for (factory, detection) in faults.iter().zip(&detections) {
                    let mut memory = FaultyMemory::new(
                        GoodMemory::filled(organization.capacity(), background),
                        factory(),
                    );
                    let serial = run_march_walk(&walk, &mut memory);
                    let name = factory().name();
                    assert_eq!(
                        detection.detected,
                        serial.detected_fault(),
                        "{} / {name} / background {background}",
                        test.name()
                    );
                    assert_eq!(
                        detection.mismatches,
                        serial.mismatches.len(),
                        "{} / {name} / background {background}",
                        test.name()
                    );
                    assert_eq!(
                        detection.first_mismatch.as_ref(),
                        serial.mismatches.first(),
                        "{} / {name} / background {background}",
                        test.name()
                    );
                }
            }
        }
    }
}

fn mixed_fault_list(organization: &ArrayOrganization, count: usize) -> Vec<FaultFactory> {
    let capacity = organization.capacity();
    assert!(count as u32 <= capacity, "one victim per fault");
    (0..count)
        .map(|i| {
            let victim = Address::new(i as u32);
            let aggressor = Address::new(if (i as u32) + 1 < capacity {
                i as u32 + 1
            } else {
                i as u32 - 1
            });
            let factory: FaultFactory = match i % 4 {
                0 => Box::new(move || Box::new(StuckAtFault::new(victim, i % 8 == 0))),
                1 => Box::new(move || Box::new(TransitionFault::new(victim, i % 8 == 1))),
                2 => Box::new(move || Box::new(WriteDisturbFault::new(victim))),
                _ => Box::new(move || {
                    Box::new(CouplingInversionFault::new(aggressor, victim, i % 8 == 3))
                }),
            };
            factory
        })
        .collect()
}

/// Cohort sizes straddling the 64-lane word width: 1, 63, 64 and 65
/// faults plan into the expected cohorts and stay outcome-identical to
/// the serial path.
#[test]
fn odd_cohort_sizes_around_the_lane_width_stay_equivalent() {
    let organization = ArrayOrganization::new(16, 8).unwrap();
    let test = library::march_ss();
    let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
    for (count, expected_cohorts) in [(1usize, 1usize), (63, 1), (64, 1), (65, 2)] {
        let faults = mixed_fault_list(&organization, count);
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.cohorts().len(), expected_cohorts, "count {count}");
        assert_eq!(plan.lane_fault_count(), count, "count {count}");
        if count == 65 {
            assert_eq!(plan.cohorts()[0], Cohort::Lanes((0..64).collect()));
            assert_eq!(plan.cohorts()[1], Cohort::Lanes(vec![64]));
        }
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            for background in [false, true] {
                let golden = evaluate_coverage_with(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    &faults,
                    SweepOptions {
                        background,
                        mode,
                        parallel: false,
                        backend: SweepBackend::PerFault,
                    },
                );
                let batched = evaluate_coverage_with(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    &faults,
                    SweepOptions {
                        background,
                        mode,
                        parallel: false,
                        backend: SweepBackend::LaneBatched,
                    },
                );
                assert_eq!(
                    golden, batched,
                    "count {count} / {mode:?} / background {background}"
                );
            }
        }
    }
}

/// The degree-of-freedom experiment (which rides `SweepOptions::fast`,
/// now lane-batched) still reports order-independent coverage.
#[test]
fn dof_experiment_rides_the_batched_backend_unchanged() {
    use march_test::dof::verify_order_independence;
    let organization = ArrayOrganization::new(4, 4).unwrap();
    let faults = march_test::faults::static_fault_list(&organization);
    let orders: Vec<&dyn AddressOrder> = vec![&WordLineAfterWordLine, &ColumnMajor];
    for test in library::table1_algorithms() {
        let report = verify_order_independence(&test, &orders, &organization, &faults);
        assert!(
            report.coverage_is_order_independent(),
            "{} coverage changed with the address order",
            test.name()
        );
        assert!(report.guaranteed_coverage_preserved());
    }
}

/// A `LaneScratch` reused across cohorts of different shapes (different
/// sizes, unions, algorithms, backgrounds) must leave no trace between
/// runs: every scratch dispatch reports detections identical to a fresh
/// one-shot `run_march_lanes` call on the same cohort.
#[test]
fn scratch_reuse_across_cohorts_matches_fresh_dispatches() {
    use march_test::executor::{run_march_lanes_scratch, LaneScratch};

    let mut scratch = LaneScratch::new();
    for organization in organizations() {
        for (test, count) in [
            (library::march_ss(), 64usize),
            (library::mats_plus(), 1),
            (library::march_c_minus(), 9),
        ] {
            let count = count.min(organization.capacity() as usize);
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            let faults = mixed_fault_list(&organization, count);
            for background in [false, true] {
                for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                    let lane_kinds = || -> Vec<LaneFaultKind> {
                        faults
                            .iter()
                            .map(|factory| {
                                factory().lane_kind().expect("mixed faults have lane kinds")
                            })
                            .collect()
                    };
                    let fresh = run_march_lanes(&walk, &mut lane_kinds(), background, mode);
                    let reused = run_march_lanes_scratch(
                        &walk,
                        &mut lane_kinds(),
                        background,
                        mode,
                        &mut scratch,
                    );
                    assert_eq!(
                        fresh,
                        reused,
                        "{} / {count} faults / background {background} / {mode:?}",
                        test.name()
                    );
                    assert_eq!(scratch.results(), fresh.as_slice());
                }
            }
        }
    }
}
