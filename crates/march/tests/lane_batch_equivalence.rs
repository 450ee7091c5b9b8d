//! Equivalence of the collapsed fault-simulation backend
//! ([`SweepBackend::LaneBatched`]) against the serial per-fault golden
//! path.
//!
//! The collapsed backend must be *bit-identical* in its observable
//! results — detected/escaped and the mismatch count per fault, in
//! fault-list order — across the whole standard fault library, several
//! array organizations, both data backgrounds, every library algorithm,
//! and populations of any size.

use march_test::address_order::{AddressOrder, ColumnMajor, WordLineAfterWordLine};
use march_test::batch::FaultBatch;
use march_test::coverage::{evaluate_coverage_interned, SweepBackend, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::fault_sim::DetectionMode;
use march_test::faults::{
    standard_fault_list, CouplingInversionFault, FaultModel, StuckAtFault, TransitionFault,
    WriteDisturbFault,
};
use march_test::library;
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
/// background × detection mode, the collapsed sweep over the whole
/// standard fault library produces a report identical to the serial
/// per-fault one.
#[test]
fn batched_sweep_equals_the_serial_per_fault_path_everywhere() {
    for organization in organizations() {
        let faults = standard_fault_list(&organization);
        for test in library::all_algorithms() {
            for order in [&WordLineAfterWordLine as &dyn AddressOrder, &ColumnMajor] {
                for background in [false, true] {
                    for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                        let golden = evaluate_coverage_interned(
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
                            let batched = evaluate_coverage_interned(
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

fn mixed_fault_list(organization: &ArrayOrganization, count: usize) -> Vec<FaultModel> {
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
            let fault: FaultModel = match i % 4 {
                0 => StuckAtFault::new(victim, i % 8 == 0).into(),
                1 => TransitionFault::new(victim, i % 8 == 1).into(),
                2 => WriteDisturbFault::new(victim).into(),
                _ => CouplingInversionFault::new(aggressor, victim, i % 8 == 3).into(),
            };
            fault
        })
        .collect()
}

/// Populations of 1, 63, 64 and 65 mixed faults collapse into classes
/// that cover every fault once and stay outcome-identical to the serial
/// path.
#[test]
fn populations_of_any_size_stay_equivalent() {
    let organization = ArrayOrganization::new(16, 8).unwrap();
    let test = library::march_ss();
    let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
    for count in [1usize, 63, 64, 65] {
        let faults = mixed_fault_list(&organization, count);
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.fault_count(), count, "count {count}");
        assert_eq!(plan.lane_fault_count(), count, "count {count}");
        let covered: usize = plan.cohorts().iter().map(|cohort| cohort.len()).sum();
        assert_eq!(covered, count, "count {count}");
        assert!(plan.cohorts().len() <= count, "count {count}");
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            for background in [false, true] {
                let golden = evaluate_coverage_interned(
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
                let batched = evaluate_coverage_interned(
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
/// now collapsed) still reports order-independent coverage.
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
