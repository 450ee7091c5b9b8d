//! The six degrees of freedom (DOF) of March tests.
//!
//! The paper's technique rests entirely on DOF #1: *any* address sequence
//! may serve as the ⇑ order, as long as every address occurs exactly once
//! and ⇓ is its exact reverse — fault coverage does not depend on the
//! choice. This module documents the six DOFs and provides the
//! experimental check used in the reproduction: simulating a fault list
//! under several address orders and verifying that exactly the same faults
//! are detected.

use sram_model::config::ArrayOrganization;

use crate::address_order::AddressOrder;
use crate::algorithm::MarchTest;
use crate::coverage::{evaluate_coverage_interned, SweepOptions};
use crate::faults::FaultModel;
use crate::intern::{InternedSweep, OutcomeCode};

/// The six degrees of freedom of March tests, as enumerated in the memory
/// testing literature and recalled by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegreeOfFreedom {
    /// DOF 1 — the ⇑ address sequence is arbitrary (⇓ is its reverse).
    AddressSequence,
    /// DOF 2 — ⇕ elements may use either direction.
    EitherDirectionElements,
    /// DOF 3 — the address sequence may differ between elements as long as
    /// each element uses a consistent ⇑/⇓ pair.
    PerElementSequence,
    /// DOF 4 — the mapping between logical and physical addresses is free.
    LogicalToPhysicalMapping,
    /// DOF 5 — the data background (all-0, all-1, checkerboard, …) is free.
    DataBackground,
    /// DOF 6 — elements may be merged or split when the per-cell operation
    /// sequence is preserved.
    ElementComposition,
}

impl DegreeOfFreedom {
    /// All six degrees of freedom in conventional numbering order.
    pub fn all() -> [DegreeOfFreedom; 6] {
        [
            DegreeOfFreedom::AddressSequence,
            DegreeOfFreedom::EitherDirectionElements,
            DegreeOfFreedom::PerElementSequence,
            DegreeOfFreedom::LogicalToPhysicalMapping,
            DegreeOfFreedom::DataBackground,
            DegreeOfFreedom::ElementComposition,
        ]
    }

    /// Human-readable statement of the degree of freedom.
    pub fn statement(&self) -> &'static str {
        match self {
            DegreeOfFreedom::AddressSequence => {
                "any address sequence may be defined as the ⇑ order, provided every \
                 address occurs exactly once and ⇓ is its exact reverse"
            }
            DegreeOfFreedom::EitherDirectionElements => {
                "elements marked ⇕ may be applied in either direction"
            }
            DegreeOfFreedom::PerElementSequence => {
                "different elements may use different (valid) address sequences"
            }
            DegreeOfFreedom::LogicalToPhysicalMapping => {
                "the logical-to-physical address mapping is unconstrained"
            }
            DegreeOfFreedom::DataBackground => {
                "the data background may be chosen freely (and complemented)"
            }
            DegreeOfFreedom::ElementComposition => {
                "elements may be merged or split while preserving the per-cell sequence"
            }
        }
    }
}

/// Result of comparing coverage across several address orders.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderIndependenceReport {
    /// Name of the March test compared.
    pub test_name: String,
    /// One coverage report per address order, in the order they were given.
    pub reports: Vec<InternedSweep>,
}

impl OrderIndependenceReport {
    /// `true` when every order detected exactly the same set of faults —
    /// the experimental confirmation of DOF #1 for this test and fault
    /// list. The reports sweep one fault list, so each fault's detected
    /// bit is compared in list order.
    pub fn coverage_is_order_independent(&self) -> bool {
        let Some(first) = self.reports.first() else {
            return true;
        };
        let detection = |code: &OutcomeCode| (code.fault, code.detected());
        self.reports.iter().all(|report| {
            let detections = report.codes().iter().map(detection);
            detections.eq(first.codes().iter().map(detection))
        })
    }

    /// The coverage fraction of the first order (identical to the others
    /// whenever [`Self::coverage_is_order_independent`] holds).
    pub fn coverage(&self) -> f64 {
        self.reports.first().map(|r| r.coverage()).unwrap_or(0.0)
    }

    /// Fault kinds that the first (reference) order detects completely —
    /// the classes the algorithm *guarantees* to cover.
    pub fn fully_covered_kinds(&self) -> Vec<String> {
        let Some(first) = self.reports.first() else {
            return Vec::new();
        };
        first
            .by_kind()
            .into_iter()
            .filter(|(_, (detected, total))| detected == total)
            .map(|(kind, _)| kind)
            .collect()
    }

    /// `true` when every fault kind the reference order covers completely
    /// is also covered completely under every other order.
    ///
    /// This is the precise form of the degree-of-freedom guarantee: a March
    /// algorithm's *guaranteed* coverage does not depend on the address
    /// sequence. Faults outside an algorithm's target classes may still be
    /// caught "by accident", and whether a particular accidental detection
    /// happens can legitimately depend on the order — compare with
    /// [`Self::coverage_is_order_independent`], which demands the exact
    /// same detected set.
    pub fn guaranteed_coverage_preserved(&self) -> bool {
        let guaranteed = self.fully_covered_kinds();
        self.reports.iter().all(|report| {
            let by_kind = report.by_kind();
            guaranteed.iter().all(|kind| {
                by_kind
                    .get(kind)
                    .map(|(detected, total)| detected == total)
                    .unwrap_or(false)
            })
        })
    }
}

/// Evaluates `test` over `faults` under each of `orders` with explicit
/// sweep options and packages the comparison. One [`crate::executor::MarchWalk`]
/// is precomputed per order and shared across the whole fault list.
pub fn verify_order_independence_with(
    test: &MarchTest,
    orders: &[&dyn AddressOrder],
    organization: &ArrayOrganization,
    faults: &[FaultModel],
    options: SweepOptions,
) -> OrderIndependenceReport {
    let reports = orders
        .iter()
        .map(|order| evaluate_coverage_interned(test, *order, organization, faults, options))
        .collect();
    OrderIndependenceReport {
        test_name: test.name().to_string(),
        reports,
    }
}

/// Evaluates `test` over `faults` under each of `orders` and packages the
/// comparison.
///
/// The degree-of-freedom experiment only needs the detected/missed bit per
/// fault, so this uses the throughput sweep configuration
/// ([`SweepOptions::fast`]: early-exit simulations, parallel across the
/// fault list). Use [`verify_order_independence_with`] to control the
/// sweep explicitly.
pub fn verify_order_independence(
    test: &MarchTest,
    orders: &[&dyn AddressOrder],
    organization: &ArrayOrganization,
    faults: &[FaultModel],
) -> OrderIndependenceReport {
    verify_order_independence_with(test, orders, organization, faults, SweepOptions::fast())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_order::{ColumnMajor, LinearOrder, WordLineAfterWordLine};
    use crate::faults::{standard_fault_list, StuckAtFault, TransitionFault};
    use crate::library;
    use sram_model::address::Address;

    #[test]
    fn six_degrees_of_freedom_are_enumerated() {
        let all = DegreeOfFreedom::all();
        assert_eq!(all.len(), 6);
        assert!(all[0].statement().contains("address sequence"));
        assert!(all[4].statement().contains("data background"));
    }

    #[test]
    fn dof1_holds_on_generated_per_row_and_per_column_populations() {
        use crate::address_order::PseudoRandomOrder;
        use crate::faultgen::FaultGen;

        // Single-cell SAF/TF detection depends only on the per-cell
        // operation sequence, so the exact detected set must survive any
        // address order — now verified on a generated population covering
        // every row and column instead of the three standard victims.
        let organization = ArrayOrganization::new(8, 8).unwrap();
        let mut gen = FaultGen::new(organization, 4);
        let mut faults = gen.stuck_at_per_row(2);
        faults.extend(gen.transitions_per_column(2));
        gen.shuffle(&mut faults);
        let random = PseudoRandomOrder::new(9);
        let orders: Vec<&dyn AddressOrder> =
            vec![&WordLineAfterWordLine, &ColumnMajor, &LinearOrder, &random];
        for test in [library::march_c_minus(), library::march_ss()] {
            let report = verify_order_independence(&test, &orders, &organization, &faults);
            assert!(
                report.coverage_is_order_independent(),
                "{} coverage changed with the address order on a generated population",
                test.name()
            );
            assert_eq!(report.reports[0].total(), faults.len());
            assert!(report.coverage() > 0.9, "{}", test.name());
        }
    }

    #[test]
    fn dof1_coverage_is_identical_across_orders_for_table1_tests() {
        let organization = ArrayOrganization::new(4, 4).unwrap();
        let faults = standard_fault_list(&organization);
        let orders: Vec<&dyn AddressOrder> =
            vec![&WordLineAfterWordLine, &ColumnMajor, &LinearOrder];
        for test in library::table1_algorithms() {
            let report = verify_order_independence(&test, &orders, &organization, &faults);
            assert!(
                report.coverage_is_order_independent(),
                "{} coverage changed with the address order",
                test.name()
            );
            assert!(report.guaranteed_coverage_preserved());
            assert!(report.coverage() > 0.0);
            assert_eq!(report.test_name, test.name());
            assert!(report.fully_covered_kinds().contains(&"SAF".to_string()));
        }
    }

    /// A report over two SAFs and a TF that detects every fault but the
    /// ones at the `missed` list positions.
    fn sweep_missing(missed: &[usize]) -> InternedSweep {
        let faults: [FaultModel; 3] = [
            StuckAtFault::new(Address::new(0), false).into(),
            StuckAtFault::new(Address::new(1), true).into(),
            TransitionFault::new(Address::new(2), true).into(),
        ];
        let codes = faults
            .iter()
            .enumerate()
            .map(|(index, &fault)| OutcomeCode {
                fault,
                mismatches: u32::from(!missed.contains(&index)),
            })
            .collect();
        InternedSweep::new("March C-", "some order", codes)
    }

    #[test]
    fn verdicts_turn_false_when_another_order_detects_differently() {
        // The reference order misses the TF, so SAF is its one fully
        // covered kind; the second order misses `other`.
        let compare = |other: &[usize]| OrderIndependenceReport {
            test_name: "March C-".to_string(),
            reports: vec![sweep_missing(&[2]), sweep_missing(other)],
        };
        let same = compare(&[2]);
        assert!(same.coverage_is_order_independent());
        assert!(same.guaranteed_coverage_preserved());
        assert_eq!(same.fully_covered_kinds(), ["SAF"]);
        // One more fault detected, outside the guaranteed kinds.
        let accidental = compare(&[]);
        assert!(!accidental.coverage_is_order_independent());
        assert!(accidental.guaranteed_coverage_preserved());
        // As many faults detected, but the fully covered SAF kind loses
        // one to the TF.
        let lost = compare(&[1]);
        assert_eq!(lost.reports[0].detected(), lost.reports[1].detected());
        assert!(!lost.coverage_is_order_independent());
        assert!(!lost.guaranteed_coverage_preserved());
    }
}
