//! Exhaustive exactness of fault collapsing: collapsed == golden.
//!
//! For every organization up to 3×3, every in-crate fault model with
//! every parameter value is placed at every cell and, for two-cell
//! models, at every ordered cell pair. Each population is swept under
//! all five address orders, all thirteen library algorithms, both data
//! backgrounds and both detection modes, and the collapsed sweep
//! ([`SweepBackend::LaneBatched`]) must equal the per-fault golden path
//! ([`SweepBackend::PerFault`]) outcome for outcome. Organizations of
//! more than five cells (2×3, 3×2, 3×3) simulate their classes on the
//! canonical five-cell walk; the smaller ones key on exact positions.
//!
//! A second test pins the point of the collapse: the steps a plan
//! simulates do not grow with the array.

use march_test::address_order::{
    AddressComplementOrder, AddressOrder, ColumnMajor, LinearOrder, PseudoRandomOrder,
    WordLineAfterWordLine,
};
use march_test::batch::{Cohort, FaultBatch};
use march_test::coverage::{evaluate_coverage_interned_on_walk, SweepBackend, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::fault_sim::DetectionMode;
use march_test::faults::{
    AddressAliasFault, CouplingIdempotentFault, CouplingInversionFault, CouplingStateFault,
    DeceptiveReadDestructiveFault, FaultFactory, IncorrectReadFault, ReadDestructiveFault,
    StuckAtFault, StuckOpenFault, TransitionFault, WriteDisturbFault,
};
use march_test::library;
use sram_model::address::Address;
use sram_model::config::ArrayOrganization;

/// Every in-crate single-cell model, with every parameter value, on `cell`.
fn single_cell_models(cell: u32, faults: &mut Vec<FaultFactory>) {
    let v = Address::new(cell);
    for flag in [false, true] {
        faults.push(Box::new(move || Box::new(StuckAtFault::new(v, flag))));
        faults.push(Box::new(move || Box::new(TransitionFault::new(v, flag))));
    }
    faults.push(Box::new(move || Box::new(ReadDestructiveFault::new(v))));
    faults.push(Box::new(move || {
        Box::new(DeceptiveReadDestructiveFault::new(v))
    }));
    faults.push(Box::new(move || Box::new(IncorrectReadFault::new(v))));
    faults.push(Box::new(move || Box::new(StuckOpenFault::new(v))));
    faults.push(Box::new(move || Box::new(WriteDisturbFault::new(v))));
}

/// Every in-crate two-cell model, with every parameter value, on the
/// ordered pair (`first`, `second`): aggressor then victim, or aliased
/// address then target.
fn two_cell_models(first: u32, second: u32, faults: &mut Vec<FaultFactory>) {
    let (a, v) = (Address::new(first), Address::new(second));
    for x in [false, true] {
        faults.push(Box::new(move || {
            Box::new(CouplingInversionFault::new(a, v, x))
        }));
        for y in [false, true] {
            faults.push(Box::new(move || {
                Box::new(CouplingIdempotentFault::new(a, v, x, y))
            }));
            faults.push(Box::new(move || {
                Box::new(CouplingStateFault::new(a, v, x, y))
            }));
        }
    }
    faults.push(Box::new(move || Box::new(AddressAliasFault::new(a, v))));
}

/// Every model at every cell and every ordered pair of `cells` cells.
fn every_placement(cells: u32) -> Vec<FaultFactory> {
    let mut faults = Vec::new();
    for cell in 0..cells {
        single_cell_models(cell, &mut faults);
    }
    for first in 0..cells {
        for second in (0..cells).filter(|&second| second != first) {
            two_cell_models(first, second, &mut faults);
        }
    }
    faults
}

/// The full product on the organizations of `shapes`.
fn assert_collapsed_equals_golden(shapes: &[(u32, u32)]) {
    let pseudo_random = PseudoRandomOrder::new(0x5EED);
    let orders: [&dyn AddressOrder; 5] = [
        &WordLineAfterWordLine,
        &ColumnMajor,
        &LinearOrder,
        &pseudo_random,
        &AddressComplementOrder,
    ];
    let tests = library::all_algorithms();
    assert_eq!(tests.len(), 13);
    for &(rows, cols) in shapes {
        let organization = ArrayOrganization::new(rows, cols).expect("valid organization");
        let faults = every_placement(organization.capacity());
        for test in &tests {
            for order in orders {
                let walk = MarchWalk::new(test, order, &organization);
                for background in [false, true] {
                    for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                        let sweep = |backend| {
                            evaluate_coverage_interned_on_walk(
                                &walk,
                                &faults,
                                SweepOptions {
                                    background,
                                    mode,
                                    parallel: false,
                                    backend,
                                },
                            )
                        };
                        let golden = sweep(SweepBackend::PerFault);
                        let collapsed = sweep(SweepBackend::LaneBatched);
                        if golden != collapsed {
                            let index = (0..golden.total())
                                .find(|&index| golden.codes()[index] != collapsed.codes()[index])
                                .expect("reports differ in some outcome");
                            panic!(
                                "{rows}x{cols} / {} / {} / background {background} / {mode:?}: \
                                 {} golden {} mismatches, collapsed {}",
                                test.name(),
                                order.name(),
                                golden.outcome(index),
                                golden.codes()[index].mismatches,
                                collapsed.codes()[index].mismatches,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The shapes where the canonical five-cell walk stands in for the real
/// one.
#[test]
fn collapsed_equals_golden_on_every_cell_and_pair_of_six_and_nine_cells() {
    assert_collapsed_equals_golden(&[(2, 3), (3, 2), (3, 3)]);
}

/// The shapes of at most five cells, which key on exact ⇑ positions.
#[test]
fn collapsed_equals_golden_on_every_cell_and_pair_of_at_most_five_cells() {
    assert_collapsed_equals_golden(&[(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]);
}

/// One population shape — every model on the first, a middle and the last
/// cell in ⇑ order, plus every ordered pair among the first, two middle
/// cells and the last — collapses into the same classes at 8×8 and at
/// 1024×1024. Each class simulates at most the canonical walk's five
/// cells, so the planned steps are equal at both sizes; a stuck-open
/// class that walked the real array would make them differ by a factor
/// of 16,384.
#[test]
fn class_simulation_does_not_grow_with_the_array() {
    let test = library::mats_plus();
    let ops = test.operation_count() as u64;
    let mut steps = Vec::new();
    for size in [8u32, 1024] {
        let organization = ArrayOrganization::new(size, size).expect("valid organization");
        let last = organization.capacity() - 1;
        let middles = [last / 3, 2 * last / 3];
        let mut faults = Vec::new();
        for cell in [0, middles[0], last] {
            single_cell_models(cell, &mut faults);
        }
        let cells = [0, middles[0], middles[1], last];
        for first in cells {
            for second in cells.into_iter().filter(|&second| second != first) {
                two_cell_models(first, second, &mut faults);
            }
        }
        // Word line after word line is row-major: address p sits at ⇑
        // position p.
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.lane_fault_count(), faults.len(), "{size}x{size}");
        assert!(plan
            .cohorts()
            .iter()
            .all(|cohort| matches!(cohort, Cohort::Class(_))));
        let classes = plan.cohorts().len() as u64;
        assert!(
            plan.merged_schedule_steps() <= classes * 5 * ops,
            "{size}x{size}: {} steps for {classes} classes",
            plan.merged_schedule_steps()
        );
        steps.push((classes, plan.merged_schedule_steps()));
        let options = |backend| SweepOptions {
            backend,
            ..SweepOptions::golden()
        };
        assert_eq!(
            evaluate_coverage_interned_on_walk(&walk, &faults, options(SweepBackend::PerFault)),
            evaluate_coverage_interned_on_walk(&walk, &faults, options(SweepBackend::LaneBatched)),
            "{size}x{size}"
        );
    }
    assert_eq!(steps[0], steps[1], "(classes, steps) at 8x8 and 1024x1024");
}
