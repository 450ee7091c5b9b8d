//! Fault collapsing: the body of every [`SweepBackend::LaneBatched`]
//! sweep, and the [`FaultBatch`] plan that describes it.
//!
//! Every in-crate fault model involves one or two cells and tells them
//! apart from the others only by address equality. Under a
//! [`MarchWalk::locality_safe`] walk, March detection conditions do not
//! depend on the address a fault sits at (van de Goor, *Testing
//! Semiconductor Memories: Theory and Practice*, 1991), so the golden
//! path's mismatch count of such a fault depends on three things only:
//!
//! * its model and its parameters other than addresses;
//! * the ⇑-position class of each involved cell: first, middle or last;
//! * for two middle cells, which of them comes first in ⇑ order.
//!
//! Faults that agree on all three are equivalent, and the sweep collapses
//! them (Abramovici, Breuer and Friedman, *Digital Systems Testing and
//! Testable Design*, ch. 4): it simulates one representative per class
//! and gives its count to every member.
//!
//! Why these three suffice: a localised model runs only its involved
//! cells' steps on the golden path, and every element applies the same
//! operations to every cell, so all that matters is the order in which
//! each element visits the two cells — which the classes keep. The
//! stuck-open model walks every cell, but its victim's read returns the
//! expected value of the latest read at another cell: the previous cell
//! of the same element, unless the victim opens the element; then the
//! last read of the latest earlier element that reads, which is the same
//! operation whichever cell made it. Whether the victim opens an element
//! is exactly its first / middle / last class.
//!
//! # Class lifecycle
//!
//! ```text
//!  fault list (FaultModel values, list order)
//!      │  classify: each value's model code and position codes
//!      ▼            → integer class key; nothing is instantiated
//!  one slot per fault (its class),
//!  one relocated representative per class
//!      │  simulate: a copy of each representative once, on the
//!      ▼            canonical walk, on the calling thread
//!  mismatch counts (one per class)
//!      │  scatter: one list-order pass pairs each fault value with
//!      ▼           its class's count
//!  InternedSweep (fault-list order — identical to the per-fault path;
//!                 names are rendered only when asked)
//! ```
//!
//! The canonical walk runs the same test over a one-row array of five
//! cells in identity order: a first cell goes to 0 and a last one to 4, a
//! lone middle cell to 2, two middle cells to 1 and 3 in ⇑ order. A class therefore costs at most five cells'
//! operations however large the array — a stuck-open class included,
//! although its golden simulation walks every cell. Arrays of at most five
//! cells key on the exact ⇑ positions and simulate on their own walk.
//!
//! Every fault of a walk that is not locality-safe runs alone on the
//! per-fault golden path exactly as under [`SweepBackend::PerFault`],
//! fanned out across the worker pool. The classes need no fan-out: a
//! sweep has a few dozen of them. The test
//! `tests/collapse_exhaustive.rs` pins collapsed == golden on every
//! model, cell and ordered cell pair of every organization up to 3×3.
//!
//! [`SweepBackend::LaneBatched`]: crate::coverage::SweepBackend::LaneBatched
//! [`SweepBackend::PerFault`]: crate::coverage::SweepBackend::PerFault

use sram_model::address::Address;

use crate::executor::MarchWalk;
use crate::fault_sim::DetectionMode;
use crate::faults::{Fault, FaultModel};
use crate::intern::{InternedSweep, OutcomeCode};
use crate::memory::GoodMemory;

/// Cells of the canonical walk the classes are simulated on.
const CANONICAL_CELLS: u32 = 5;

/// The position code of a single-cell fault's absent second cell.
const NO_CELL: u8 = 7;

/// Size of the class-key space: a 6-bit model code and two 3-bit
/// position codes.
const KEYS: usize = 1 << 12;

/// One unit of simulation in a [`FaultBatch`] plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cohort {
    /// An equivalence class, simulated once for all its members: how many
    /// faults of the list belong to it.
    Class(usize),
    /// A fault of a walk that is not locality-safe, which runs alone on
    /// the per-fault golden path: its index in the planned fault list.
    Serial(usize),
}

impl Cohort {
    /// Number of faults this entry covers.
    pub fn len(&self) -> usize {
        match self {
            Cohort::Class(members) => *members,
            Cohort::Serial(_) => 1,
        }
    }

    /// `true` when the entry covers no faults (never produced by the
    /// planner).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A fault list collapsed into equivalence classes for one walk: what a
/// [`SweepBackend::LaneBatched`](crate::coverage::SweepBackend::LaneBatched)
/// sweep of it simulates, from the same classification the sweep runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultBatch {
    cohorts: Vec<Cohort>,
    faults: usize,
    schedule_steps: u64,
}

/// One equivalence class of a sweep.
struct Class {
    /// The first member moved onto the class walk.
    representative: FaultModel,
    /// Number of members.
    members: u32,
}

/// A fault list classified over a locality-safe walk: what the sweep
/// simulates, and how each fault finds its count again.
struct Collapse {
    /// Each fault's class index, in list order.
    slots: Vec<u32>,
    classes: Vec<Class>,
    /// The canonical walk the classes run on, or `None` when they run on
    /// the sweep's own walk (arrays of at most five cells, or no classes).
    canonical: Option<MarchWalk>,
}

/// The position codes of a fault's involved cells on the class walk (see
/// the module docs), the second [`NO_CELL`] for a single-cell fault.
/// Beyond five cells the first and the last cell are told by address, so
/// only a pair of middle cells costs position lookups.
fn place(walk: &MarchWalk, involved: &[Address]) -> [u8; 2] {
    if walk.capacity() <= CANONICAL_CELLS {
        let mut codes = [NO_CELL; 2];
        for (code, &cell) in codes.iter_mut().zip(involved) {
            *code = walk.up_position(cell) as u8;
        }
        return codes;
    }
    let (first, last) = walk.ends();
    let class = |cell: Address| -> u8 {
        if cell == first {
            0
        } else if cell == last {
            4
        } else {
            2
        }
    };
    match *involved {
        [cell] => [class(cell), NO_CELL],
        [a, b] => match [class(a), class(b)] {
            [2, 2] if walk.up_position(a) < walk.up_position(b) => [1, 3],
            [2, 2] => [3, 1],
            codes => codes,
        },
        _ => unreachable!("in-crate fault models involve one or two cells"),
    }
}

impl Collapse {
    /// Sorts each fault of `faults` into its class, in list order, keying
    /// the value itself: nothing is instantiated. `walk` must be
    /// locality-safe.
    fn classify(walk: &MarchWalk, faults: &[FaultModel]) -> Self {
        debug_assert!(walk.locality_safe(), "classes need a locality-safe walk");
        let exact = walk.capacity() <= CANONICAL_CELLS;
        let mut class_of_key = vec![u32::MAX; KEYS];
        let mut classes = Vec::new();
        let slots = faults
            .iter()
            .map(|fault| {
                let involved = fault.involved();
                let codes = place(walk, &involved);
                let key = usize::from(fault.model_code()) << 6
                    | usize::from(codes[0]) << 3
                    | usize::from(codes[1]);
                let class = &mut class_of_key[key];
                if *class == u32::MAX {
                    *class = classes.len() as u32;
                    let representative = if exact {
                        *fault
                    } else {
                        fault.relocated(|address| {
                            let code = if address == involved[0] {
                                codes[0]
                            } else {
                                codes[1]
                            };
                            Address::new(u32::from(code))
                        })
                    };
                    classes.push(Class {
                        representative,
                        members: 0,
                    });
                }
                classes[*class as usize].members += 1;
                *class
            })
            .collect();
        let canonical = (!exact && !classes.is_empty()).then(|| walk.canonical(CANONICAL_CELLS));
        Self {
            slots,
            classes,
            canonical,
        }
    }
}

/// Walk steps the per-fault golden path runs for `fault` on `walk` under
/// [`DetectionMode::Full`]: the test's operations at each distinct
/// involved cell of a localised fault, or the whole walk for a global
/// fault or a walk that is not locality-safe.
fn golden_steps(walk: &MarchWalk, fault: &FaultModel) -> u64 {
    match fault.involved_addresses().filter(|_| walk.locality_safe()) {
        Some(mut cells) => {
            cells.sort_unstable();
            cells.dedup();
            (cells.len() * walk.ops_per_address()) as u64
        }
        None => walk.len() as u64,
    }
}

impl FaultBatch {
    /// Collapses `faults` over `walk` into equivalence classes, as a sweep
    /// does, or — on a walk that is not locality-safe — into one per-fault
    /// singleton each.
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::batch::FaultBatch;
    /// use march_test::executor::MarchWalk;
    /// use march_test::faults::{FaultModel, StuckAtFault};
    /// use march_test::library;
    /// use march_test::prelude::WordLineAfterWordLine;
    /// use sram_model::address::Address;
    /// use sram_model::config::ArrayOrganization;
    ///
    /// let organization = ArrayOrganization::new(8, 8)?;
    /// let test = library::march_ss();
    /// let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
    /// // A stuck-at-0 fault on every cell: the first, the last, and 62
    /// // equivalent middle cells.
    /// let faults: Vec<FaultModel> = (0..64)
    ///     .map(|cell| StuckAtFault::new(Address::new(cell), false).into())
    ///     .collect();
    ///
    /// let plan = FaultBatch::plan(&walk, &faults);
    /// assert_eq!(plan.fault_count(), 64);
    /// assert_eq!(plan.cohorts().len(), 3, "first, middle and last");
    /// assert_eq!(plan.lane_fault_count(), 64);
    /// // Each class runs the test's operations at its one cell.
    /// assert_eq!(
    ///     plan.merged_schedule_steps(),
    ///     3 * test.operation_count() as u64
    /// );
    /// # Ok::<(), sram_model::error::SramError>(())
    /// ```
    pub fn plan(walk: &MarchWalk, faults: &[FaultModel]) -> Self {
        if !walk.locality_safe() {
            return Self {
                cohorts: (0..faults.len()).map(Cohort::Serial).collect(),
                faults: faults.len(),
                schedule_steps: faults.len() as u64 * walk.len() as u64,
            };
        }
        let collapse = Collapse::classify(walk, faults);
        let class_walk = collapse.canonical.as_ref().unwrap_or(walk);
        Self {
            cohorts: collapse
                .classes
                .iter()
                .map(|class| Cohort::Class(class.members as usize))
                .collect(),
            faults: faults.len(),
            schedule_steps: collapse
                .classes
                .iter()
                .map(|class| golden_steps(class_walk, &class.representative))
                .sum(),
        }
    }

    /// The plan's entries: the classes in order of first appearance, or
    /// the per-fault singletons in fault-list order.
    pub fn cohorts(&self) -> &[Cohort] {
        &self.cohorts
    }

    /// Total walk steps the plan simulates under
    /// [`DetectionMode::Full`]: each class representative's steps on the
    /// class walk (at most five cells' operations) plus each singleton's
    /// on the sweep's walk, which is the whole walk.
    pub fn merged_schedule_steps(&self) -> u64 {
        self.schedule_steps
    }

    /// Number of faults the plan covers.
    pub fn fault_count(&self) -> usize {
        self.faults
    }

    /// Number of faults that belong to a class (the rest run alone).
    pub fn lane_fault_count(&self) -> usize {
        self.cohorts
            .iter()
            .map(|cohort| match cohort {
                Cohort::Class(members) => *members,
                Cohort::Serial(_) => 0,
            })
            .sum()
    }
}

/// Simulates every fault in `faults` over the locality-safe `walk` by
/// collapsing them into equivalence classes — the body of every
/// [`SweepBackend::LaneBatched`](crate::coverage::SweepBackend::LaneBatched)
/// sweep of such a walk — returning the report in fault-list order.
///
/// A copy of each class representative runs once on the class walk, on
/// the calling thread, and the scatter pairs every fault value with its
/// class's count. The report is identical to the per-fault path's.
pub(crate) fn sweep_collapsed(
    walk: &MarchWalk,
    faults: &[FaultModel],
    background: bool,
    mode: DetectionMode,
) -> InternedSweep {
    let collapse = Collapse::classify(walk, faults);
    let class_walk = collapse.canonical.as_ref().unwrap_or(walk);
    let mut memory: Option<GoodMemory> = None;
    let counts: Vec<u32> = collapse
        .classes
        .iter()
        .map(|class| {
            let memory = memory.get_or_insert_with(|| GoodMemory::new(class_walk.capacity()));
            let mut fault = class.representative;
            let mismatches = fault.simulate_on_walk(class_walk, memory, background, mode);
            u32::try_from(mismatches).expect("mismatch counts fit u32")
        })
        .collect();
    let codes = faults
        .iter()
        .zip(&collapse.slots)
        .map(|(&fault, &slot)| OutcomeCode {
            fault,
            mismatches: counts[slot as usize],
        })
        .collect();
    InternedSweep::new(walk.test_name(), walk.order_name(), codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_order::WordLineAfterWordLine;
    use crate::algorithm::MarchTest;
    use crate::coverage::{
        evaluate_coverage_interned_on_walk, golden_counts, SweepBackend, SweepOptions,
    };
    use crate::element::MarchElement;
    use crate::faults::{
        standard_fault_list, CouplingIdempotentFault, FaultKind, StuckAtFault, StuckOpenFault,
    };
    use crate::library;
    use crate::operation::MarchOp;
    use sram_model::config::ArrayOrganization;
    use std::fmt;

    fn org() -> ArrayOrganization {
        ArrayOrganization::new(4, 4).unwrap()
    }

    fn saf_list(count: u32) -> Vec<FaultModel> {
        (0..count)
            .map(|v| StuckAtFault::new(Address::new(v), v % 2 == 0).into())
            .collect()
    }

    fn options(mode: DetectionMode, parallel: bool, backend: SweepBackend) -> SweepOptions {
        SweepOptions {
            background: false,
            mode,
            parallel,
            backend,
        }
    }

    /// A fault type outside the crate's models, which involves every cell:
    /// it reaches the golden path through [`golden_counts`].
    #[derive(Debug, Clone, Copy)]
    struct Opaque;

    impl fmt::Display for Opaque {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("OPAQUE")
        }
    }

    impl Fault for Opaque {
        fn kind(&self) -> FaultKind {
            FaultKind::StuckAt
        }
        fn write(&mut self, memory: &mut GoodMemory, address: Address, _value: bool) {
            memory.set(address, true);
        }
        fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
            memory.get(address)
        }
    }

    #[test]
    fn the_standard_list_has_one_class_per_fault() {
        // The standard list places each model once at the first, a middle
        // and the last cell (with a neighbouring aggressor), so no two of
        // its faults are equivalent.
        let organization = org();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let faults = standard_fault_list(&organization);
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.fault_count(), faults.len());
        assert_eq!(plan.lane_fault_count(), faults.len());
        assert!(plan
            .cohorts()
            .iter()
            .all(|cohort| *cohort == Cohort::Class(1)));
        assert_eq!(plan.cohorts().len(), faults.len());
    }

    #[test]
    fn faults_that_differ_only_in_where_they_sit_share_a_class() {
        let organization = ArrayOrganization::new(16, 16).unwrap();
        let walk = MarchWalk::new(&library::mats_plus(), &WordLineAfterWordLine, &organization);
        // SAF0 on every cell; CFid pairs (k, k + 1) and (k + 1, k) on the
        // middle cells.
        let mut faults: Vec<FaultModel> = (0..256u32)
            .map(|cell| StuckAtFault::new(Address::new(cell), false).into())
            .collect();
        for k in 1..200u32 {
            for (aggressor, victim) in [(k, k + 1), (k + 1, k)] {
                faults.push(
                    CouplingIdempotentFault::new(
                        Address::new(aggressor),
                        Address::new(victim),
                        true,
                        false,
                    )
                    .into(),
                );
            }
        }
        let plan = FaultBatch::plan(&walk, &faults);
        let sizes: Vec<usize> = plan.cohorts().iter().map(Cohort::len).collect();
        assert_eq!(
            sizes,
            [1, 254, 1, 199, 199],
            "SAF0 first / middle / last, two CFid orders"
        );
        assert_eq!(plan.cohorts()[1], Cohort::Class(254));
        assert_eq!(plan.lane_fault_count(), faults.len());
        let ops = walk.ops_per_address() as u64;
        assert_eq!(plan.merged_schedule_steps(), (3 + 2 * 2) * ops);
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let golden = evaluate_coverage_interned_on_walk(
                &walk,
                &faults,
                options(mode, false, SweepBackend::PerFault),
            );
            let collapsed = evaluate_coverage_interned_on_walk(
                &walk,
                &faults,
                options(mode, false, SweepBackend::LaneBatched),
            );
            assert_eq!(golden, collapsed, "{mode:?}");
        }
    }

    #[test]
    fn a_stuck_open_class_costs_the_canonical_walk_not_the_array() {
        let organization = ArrayOrganization::new(64, 64).unwrap();
        let walk = MarchWalk::new(
            &library::march_c_minus(),
            &WordLineAfterWordLine,
            &organization,
        );
        let faults: Vec<FaultModel> = [0u32, 1, 2000, 4095]
            .into_iter()
            .map(|cell| StuckOpenFault::new(Address::new(cell)).into())
            .collect();
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.cohorts().len(), 3, "first, middle and last");
        let ops = walk.ops_per_address() as u64;
        assert_eq!(plan.merged_schedule_steps(), 3 * 5 * ops);
        let golden = evaluate_coverage_interned_on_walk(&walk, &faults, SweepOptions::golden());
        let collapsed = evaluate_coverage_interned_on_walk(
            &walk,
            &faults,
            options(DetectionMode::Full, false, SweepBackend::LaneBatched),
        );
        assert_eq!(golden, collapsed);
    }

    #[test]
    fn arrays_of_at_most_five_cells_key_on_exact_positions() {
        let organization = ArrayOrganization::new(1, 5).unwrap();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let faults: Vec<FaultModel> = (0..5u32)
            .flat_map(|cell| [StuckAtFault::new(Address::new(cell), true).into(); 2])
            .collect();
        let collapse = Collapse::classify(&walk, &faults);
        assert!(
            collapse.canonical.is_none(),
            "the array is its own canonical walk"
        );
        assert_eq!(collapse.classes.len(), 5, "one class per cell");
        assert!(collapse.classes.iter().all(|class| class.members == 2));
        assert_eq!(collapse.slots, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn non_locality_safe_walks_plan_serial_singletons() {
        let organization = org();
        let reads_first = MarchTest::new(
            "reads-first",
            vec![MarchElement::ascending(vec![MarchOp::R1])],
        );
        let walk = MarchWalk::new(&reads_first, &WordLineAfterWordLine, &organization);
        assert!(!walk.locality_safe());
        let faults = saf_list(4);
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.lane_fault_count(), 0);
        assert_eq!(plan.cohorts().len(), 4);
        assert!(plan
            .cohorts()
            .iter()
            .all(|cohort| matches!(cohort, Cohort::Serial(_))));
        // Every singleton walks every cell.
        assert_eq!(plan.merged_schedule_steps(), 4 * walk.len() as u64);
        // The serial fallback still yields outcomes in list order, serial
        // or parallel.
        for parallel in [false, true] {
            let report = evaluate_coverage_interned_on_walk(
                &walk,
                &faults,
                options(DetectionMode::Full, parallel, SweepBackend::LaneBatched),
            );
            assert_eq!(report.total(), 4);
            assert_eq!(report.outcome(3).name(), "SAF0@3");
            assert_eq!(
                report,
                evaluate_coverage_interned_on_walk(&walk, &faults, SweepOptions::golden())
            );
        }
    }

    #[test]
    fn a_fault_type_outside_the_models_runs_the_golden_path() {
        let organization = org();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let serial = golden_counts(&walk, &[Opaque; 3], false, mode, 1);
            assert_eq!(serial, golden_counts(&walk, &[Opaque; 3], false, mode, 8));
            assert!(
                serial.iter().all(|&count| count > 0),
                "stuck-at-1-everything is detected"
            );
        }
    }

    #[test]
    fn collapsed_sweep_is_identical_to_the_golden_path_in_every_mode() {
        let organization = ArrayOrganization::new(8, 8).unwrap();
        let walk = MarchWalk::new(
            &library::march_c_minus(),
            &WordLineAfterWordLine,
            &organization,
        );
        let faults = standard_fault_list(&organization);
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let collapsed = sweep_collapsed(&walk, &faults, false, mode);
            let golden = golden_counts(&walk, &faults, false, mode, 8);
            let counts: Vec<u32> = collapsed.codes().iter().map(|c| c.mismatches).collect();
            assert_eq!(counts, golden, "{mode:?}");
            assert!(collapsed
                .codes()
                .iter()
                .zip(&faults)
                .all(|(code, fault)| code.fault == *fault));
        }
    }
}
