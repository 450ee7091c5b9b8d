//! Experiment E6: fault coverage is independent of the address order.
//!
//! The paper's prerequisite (Section 3) is March degree of freedom #1: the
//! test may use any address sequence without losing coverage. This
//! integration test simulates the static fault list under the paper's
//! word-line-after-word-line order, the column-major order, the plain
//! linear order and a pseudo-random permutation, for every algorithm of
//! Table 1, and checks that exactly the same faults are detected.

use sram_test_power::march_test::address_order::{
    AddressOrder, ColumnMajor, LinearOrder, PseudoRandomOrder, WordLineAfterWordLine,
};
use sram_test_power::march_test::coverage::{evaluate_coverage_interned, SweepOptions};
use sram_test_power::march_test::dof::verify_order_independence;
use sram_test_power::march_test::faults::{standard_fault_list, static_fault_list};
use sram_test_power::march_test::library;
use sram_test_power::sram_model::config::ArrayOrganization;

#[test]
fn guaranteed_fault_coverage_is_preserved_across_address_orders() {
    // DOF #1 in its precise form: every fault class an algorithm covers
    // completely under one order stays completely covered under any other
    // order (accidental detections of non-target faults may differ).
    let organization = ArrayOrganization::new(4, 8).unwrap();
    let faults = static_fault_list(&organization);
    let random = PseudoRandomOrder::new(2006);
    let orders: Vec<&dyn AddressOrder> =
        vec![&WordLineAfterWordLine, &ColumnMajor, &LinearOrder, &random];
    for test in library::table1_algorithms() {
        let report = verify_order_independence(&test, &orders, &organization, &faults);
        assert!(
            report.guaranteed_coverage_preserved(),
            "{}: guaranteed coverage changed with the address order",
            test.name()
        );
        assert!(
            report.fully_covered_kinds().contains(&"SAF".to_string()),
            "{}: stuck-at faults must be in the guaranteed set",
            test.name()
        );
    }
}

#[test]
fn strong_algorithms_detect_exactly_the_same_fault_set_under_every_order() {
    // For the stronger algorithms the detected set itself is identical
    // across regular address orders.
    let organization = ArrayOrganization::new(4, 8).unwrap();
    let faults = static_fault_list(&organization);
    let orders: Vec<&dyn AddressOrder> = vec![&WordLineAfterWordLine, &ColumnMajor, &LinearOrder];
    for test in [
        library::march_ss(),
        library::march_c_minus(),
        library::march_g(),
    ] {
        let report = verify_order_independence(&test, &orders, &organization, &faults);
        assert!(
            report.coverage_is_order_independent(),
            "{}: detected set changed with the address order",
            test.name()
        );
    }
}

#[test]
fn coverage_hierarchy_between_algorithms_is_preserved_under_the_paper_order() {
    // Stronger algorithms must not lose their advantage when the address
    // order is fixed to word-line-after-word-line.
    let organization = ArrayOrganization::new(4, 8).unwrap();
    let faults = standard_fault_list(&organization);
    let order = WordLineAfterWordLine;

    let coverage = |test| {
        evaluate_coverage_interned(
            &test,
            &order,
            &organization,
            &faults,
            SweepOptions::default(),
        )
        .coverage()
    };
    let mats = coverage(library::mats_plus());
    let c_minus = coverage(library::march_c_minus());
    let ss = coverage(library::march_ss());

    assert!(c_minus >= mats);
    assert!(ss >= c_minus);
    assert!(ss > 0.85, "March SS coverage {ss}");
}

#[test]
fn table1_algorithms_detect_their_guaranteed_fault_classes() {
    // Every Table 1 algorithm guarantees full stuck-at coverage; all of
    // them except MATS+ also guarantee full transition-fault coverage
    // (MATS+ misses the falling transition because nothing reads the cell
    // after its final w0 — the textbook reason MATS++ adds a trailing r0).
    let organization = ArrayOrganization::new(4, 8).unwrap();
    let faults = standard_fault_list(&organization);
    for test in library::table1_algorithms() {
        let report = evaluate_coverage_interned(
            &test,
            &WordLineAfterWordLine,
            &organization,
            &faults,
            SweepOptions::default(),
        );
        let by_kind = report.by_kind();
        let (saf_detected, saf_total) = by_kind["SAF"];
        assert_eq!(
            saf_detected,
            saf_total,
            "{} must detect every SAF instance",
            test.name()
        );
        if test.name() != "MATS+" {
            let (tf_detected, tf_total) = by_kind["TF"];
            assert_eq!(
                tf_detected,
                tf_total,
                "{} must detect every TF instance",
                test.name()
            );
        }
    }
}

#[test]
fn descending_sequences_are_exact_reverses_for_every_order() {
    let organization = ArrayOrganization::new(8, 8).unwrap();
    let random = PseudoRandomOrder::new(7);
    let orders: Vec<&dyn AddressOrder> =
        vec![&WordLineAfterWordLine, &ColumnMajor, &LinearOrder, &random];
    for order in orders {
        let up = order.ascending(&organization);
        let mut down = order.descending(&organization);
        down.reverse();
        assert_eq!(
            up,
            down,
            "{}: ⇓ must be the exact reverse of ⇑",
            order.name()
        );
        assert_eq!(up.len(), organization.capacity() as usize);
    }
}
