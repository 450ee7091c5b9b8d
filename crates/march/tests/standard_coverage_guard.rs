//! Regression guard: the golden coverage table of the standard 48-fault
//! library is frozen, and no sweep backend, cohort planner or threading
//! choice may move it.
//!
//! The detected counts below are the reproduction's Table-1-adjacent
//! ground truth (identical at 4×4 and 8×8 — the standard list pins its
//! victims relative to the array, so the counts are size-stable). If a
//! planner swap, kernel rewrite or packing change alters any of them,
//! this test names the algorithm and configuration instead of letting the
//! drift hide inside an equivalence shuffle.

use march_test::address_order::{AddressOrder, ColumnMajor, LinearOrder, WordLineAfterWordLine};
use march_test::coverage::{evaluate_coverage_with, SweepBackend, SweepOptions};
use march_test::dof::verify_order_independence_with;
use march_test::fault_sim::DetectionMode;
use march_test::faults::standard_fault_list;
use march_test::library;
use sram_model::config::ArrayOrganization;

/// The frozen golden table: `(algorithm, detected)` out of the 48-fault
/// standard library under the word-line-after-word-line order.
const GOLDEN_DETECTED: [(&str, usize); 5] = [
    ("March C-", 44),
    ("March SS", 47),
    ("MATS+", 36),
    ("March SR", 45),
    ("March G", 48),
];

const BACKENDS: [SweepBackend; 2] = [SweepBackend::PerFault, SweepBackend::LaneBatched];

#[test]
fn golden_coverage_table_is_stable_across_planners_and_backends() {
    for organization in [
        ArrayOrganization::new(4, 4).unwrap(),
        ArrayOrganization::new(8, 8).unwrap(),
    ] {
        let faults = standard_fault_list(&organization);
        assert_eq!(faults.len(), 48, "the standard library holds 48 faults");
        for (test, &(name, golden_detected)) in
            library::table1_algorithms().iter().zip(&GOLDEN_DETECTED)
        {
            assert_eq!(test.name(), name);
            for backend in BACKENDS {
                for parallel in [false, true] {
                    for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                        let report = evaluate_coverage_with(
                            test,
                            &WordLineAfterWordLine,
                            &organization,
                            &faults,
                            SweepOptions {
                                background: false,
                                mode,
                                parallel,
                                backend,
                            },
                        );
                        assert_eq!(
                            report.detected(),
                            golden_detected,
                            "{name} @ {}x{} [{backend:?}, parallel={parallel}, {mode:?}]: \
                             the golden coverage table moved",
                            organization.rows(),
                            organization.cols(),
                        );
                        assert_eq!(report.total(), 48);
                    }
                }
            }
        }
    }
}

/// The DOF experiment's verdicts must be as planner-independent as the
/// coverage numbers: the static fault classes stay order-independent and
/// guaranteed coverage survives, whichever backend runs the sweeps.
#[test]
fn dof_verdicts_are_stable_across_planners() {
    let organization = ArrayOrganization::new(4, 4).unwrap();
    let faults = standard_fault_list(&organization);
    let orders: Vec<&dyn AddressOrder> = vec![&WordLineAfterWordLine, &ColumnMajor, &LinearOrder];
    let mut coverages = Vec::new();
    for backend in BACKENDS {
        for test in library::table1_algorithms() {
            let report = verify_order_independence_with(
                &test,
                &orders,
                &organization,
                &faults,
                SweepOptions {
                    background: false,
                    mode: DetectionMode::FirstMismatch,
                    parallel: false,
                    backend,
                },
            );
            assert!(
                report.coverage_is_order_independent(),
                "{} under {backend:?}",
                test.name()
            );
            assert!(
                report.guaranteed_coverage_preserved(),
                "{} under {backend:?}",
                test.name()
            );
            coverages.push(report.coverage());
        }
    }
    // The per-algorithm coverage fractions must be identical across the
    // backends, not merely internally consistent.
    let per_backend = coverages.len() / BACKENDS.len();
    for backend in 1..BACKENDS.len() {
        assert_eq!(
            coverages[..per_backend],
            coverages[backend * per_backend..(backend + 1) * per_backend],
            "DOF coverage fractions moved under {:?}",
            BACKENDS[backend]
        );
    }
}
