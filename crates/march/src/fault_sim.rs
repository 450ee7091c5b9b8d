//! Single-fault simulation.
//!
//! [`simulate_fault`] injects one fault into an otherwise fault-free
//! memory, runs a March test over it under a given address order and
//! reports whether the test detected the fault (at least one read
//! mismatch). This is the primitive underneath the
//! [`coverage`](crate::coverage) and [`dof`](crate::dof) experiments.
//!
//! Sweeps over many faults should precompute one [`MarchWalk`] and call
//! [`simulate_fault_on_walk`] with a reused scratch [`GoodMemory`]: the
//! walk is shared read-only across the whole fault list (and across
//! threads) and the scratch memory is refilled instead of reallocated,
//! so the per-fault cost is exactly one kernel scan. Coverage sweeps go
//! one step further through the collapsed backend ([`crate::batch`]),
//! which runs this path — the golden reference — once per fault
//! equivalence class, on a canonical walk of at most five cells, and
//! alone for faults it cannot classify. A localised fault is filtered
//! down to the steps touching its involved cells, which the implicit
//! [`MarchWalk`] finds at one permutation position per element.

use sram_model::config::ArrayOrganization;

use crate::address_order::AddressOrder;
use crate::algorithm::MarchTest;
use crate::executor::{
    run_march_until_detected, run_march_until_detected_filtered, run_march_walk,
    run_march_walk_filtered, MarchWalk,
};
use crate::faults::{Fault, FaultKind};
use crate::memory::{GoodMemory, MemoryModel};

/// How much detail a fault simulation records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectionMode {
    /// Run the full walk and count every read mismatch.
    #[default]
    Full,
    /// Stop at the first mismatching read — the fast mode for coverage and
    /// degree-of-freedom sweeps, where only the detected/missed bit
    /// matters. [`FaultSimOutcome::mismatches`] is `1` for a detected
    /// fault and `0` otherwise.
    FirstMismatch,
}

/// Result of simulating one fault under one test/order combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSimOutcome {
    /// Instance name of the injected fault.
    pub fault_name: String,
    /// Fault class.
    pub fault_kind: FaultKind,
    /// Name of the March test applied.
    pub test_name: String,
    /// Name of the address order used.
    pub order_name: String,
    /// Whether at least one read mismatched.
    pub detected: bool,
    /// Number of read mismatches observed (capped at `1` under
    /// [`DetectionMode::FirstMismatch`]).
    pub mismatches: usize,
}

/// A fault-free scratch memory borrowed by one fault for one run.
///
/// [`crate::faults::FaultyMemory`] owns its base memory; sweeps instead
/// keep one [`GoodMemory`] alive across the whole fault list and lend it
/// to each fault through this adapter, so no allocation happens per fault.
struct BorrowedFaultyMemory<'a> {
    base: &'a mut GoodMemory,
    fault: Box<dyn Fault>,
}

impl MemoryModel for BorrowedFaultyMemory<'_> {
    fn capacity(&self) -> u32 {
        self.base.capacity()
    }

    fn read(&mut self, address: sram_model::address::Address) -> bool {
        self.fault.read(self.base, address)
    }

    fn write(&mut self, address: sram_model::address::Address, value: bool) {
        self.fault.write(self.base, address, value);
    }
}

/// Runs a precomputed `walk` over a scratch memory containing exactly one
/// injected fault.
///
/// `scratch` must have the walk's capacity; it is reset to `background`
/// before the run, so the same allocation can serve an entire sweep.
pub fn simulate_fault_on_walk(
    walk: &MarchWalk,
    scratch: &mut GoodMemory,
    fault: Box<dyn Fault>,
    background: bool,
    mode: DetectionMode,
) -> FaultSimOutcome {
    let fault_name = fault.name();
    let fault_kind = fault.kind();
    let (_, mismatches) = simulate_fault_counts_on_walk(walk, scratch, fault, background, mode);
    FaultSimOutcome {
        fault_name,
        fault_kind,
        test_name: walk.test_name().to_string(),
        order_name: walk.order_name().to_string(),
        detected: mismatches > 0,
        mismatches,
    }
}

/// The assembly-free core of [`simulate_fault_on_walk`]: runs the same
/// simulation but reports only the mismatch count — the fault is detected
/// exactly when it is non-zero — handing the fault instance back so the
/// caller can render names however it wants (full [`FaultSimOutcome`]
/// strings, or an interned [`OutcomeCode`](crate::intern::OutcomeCode)).
/// The coverage sweeps
/// ([`crate::coverage::evaluate_coverage_interned_on_walk`]) build on
/// this so the hot path never allocates per-fault strings beyond the
/// instance name.
pub fn simulate_fault_counts_on_walk(
    walk: &MarchWalk,
    scratch: &mut GoodMemory,
    fault: Box<dyn Fault>,
    background: bool,
    mode: DetectionMode,
) -> (Box<dyn Fault>, usize) {
    assert_eq!(
        scratch.capacity(),
        walk.capacity(),
        "scratch memory capacity must match the walk"
    );
    // Localised faults (the common case) only need the walk steps that
    // touch their involved cells; global faults — and walks of tests whose
    // fault-free reads are not guaranteed to match (non-initialising
    // sequences) — run the full walk.
    let involved = if walk.locality_safe() {
        fault.involved_addresses()
    } else {
        None
    };
    scratch.fill(background);
    let mut memory = BorrowedFaultyMemory {
        base: scratch,
        fault,
    };
    let mismatches = match (mode, involved) {
        (DetectionMode::Full, Some(involved)) => {
            run_march_walk_filtered(walk, &mut memory, &involved)
                .mismatches
                .len()
        }
        (DetectionMode::Full, None) => run_march_walk(walk, &mut memory).mismatches.len(),
        (DetectionMode::FirstMismatch, Some(involved)) => usize::from(
            run_march_until_detected_filtered(walk, &mut memory, &involved),
        ),
        (DetectionMode::FirstMismatch, None) => {
            usize::from(run_march_until_detected(walk, &mut memory))
        }
    };
    (memory.fault, mismatches)
}

/// Runs `test` over a memory containing exactly one injected fault. The
/// memory starts with the all-`0` background.
pub fn simulate_fault(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    fault: Box<dyn Fault>,
) -> FaultSimOutcome {
    simulate_fault_with_background(test, order, organization, fault, false)
}

/// Runs `test` over a memory containing exactly one injected fault, with
/// every cell initialised to `background` before the test starts. Detection
/// of some faults (e.g. write-disturb faults triggered by the very first
/// initialising write) depends on the pre-test contents, which is why the
/// background is exposed.
pub fn simulate_fault_with_background(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    fault: Box<dyn Fault>,
    background: bool,
) -> FaultSimOutcome {
    let walk = MarchWalk::new(test, order, organization);
    let mut scratch = GoodMemory::new(organization.capacity());
    simulate_fault_on_walk(&walk, &mut scratch, fault, background, DetectionMode::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_order::WordLineAfterWordLine;
    use crate::faults::{
        standard_fault_list, DeceptiveReadDestructiveFault, StuckAtFault, TransitionFault,
        WriteDisturbFault,
    };
    use crate::library;
    use sram_model::address::Address;

    fn org() -> ArrayOrganization {
        ArrayOrganization::new(4, 4).unwrap()
    }

    #[test]
    fn mats_plus_detects_stuck_at_faults() {
        let organization = org();
        for value in [false, true] {
            let outcome = simulate_fault(
                &library::mats_plus(),
                &WordLineAfterWordLine,
                &organization,
                Box::new(StuckAtFault::new(Address::new(7), value)),
            );
            assert!(outcome.detected, "MATS+ must detect SAF{}", u8::from(value));
            assert!(outcome.mismatches > 0);
        }
    }

    #[test]
    fn march_c_minus_detects_transition_faults() {
        let organization = org();
        for rising in [false, true] {
            let outcome = simulate_fault(
                &library::march_c_minus(),
                &WordLineAfterWordLine,
                &organization,
                Box::new(TransitionFault::new(Address::new(9), rising)),
            );
            assert!(
                outcome.detected,
                "March C- must detect TF (rising={rising})"
            );
        }
    }

    #[test]
    fn mats_plus_misses_write_disturb_but_march_ss_catches_it() {
        // With an all-1 background, the initialising w0 of MATS+ is a real
        // transition, so the algorithm never applies a non-transition write
        // followed by a read and the WDF escapes. March SS contains the
        // required ...w_x, r_x pattern and catches it regardless.
        let organization = org();
        let victim = Address::new(5);
        let missed = simulate_fault_with_background(
            &library::mats_plus(),
            &WordLineAfterWordLine,
            &organization,
            Box::new(WriteDisturbFault::new(victim)),
            true,
        );
        assert!(
            !missed.detected,
            "MATS+ applies no non-transition write followed by a read"
        );
        let caught = simulate_fault_with_background(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            Box::new(WriteDisturbFault::new(victim)),
            true,
        );
        assert!(caught.detected, "March SS detects WDF");
    }

    #[test]
    fn deceptive_read_destructive_needs_read_after_read() {
        let organization = org();
        let victim = Address::new(3);
        let missed = simulate_fault(
            &library::mats_plus(),
            &WordLineAfterWordLine,
            &organization,
            Box::new(DeceptiveReadDestructiveFault::new(victim)),
        );
        assert!(!missed.detected, "MATS+ has no back-to-back reads");
        let caught = simulate_fault(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            Box::new(DeceptiveReadDestructiveFault::new(victim)),
        );
        assert!(caught.detected, "March SS has r,r pairs and detects DRDF");
    }

    #[test]
    fn outcome_records_names() {
        let organization = org();
        let outcome = simulate_fault(
            &library::march_c_minus(),
            &WordLineAfterWordLine,
            &organization,
            Box::new(StuckAtFault::new(Address::new(0), true)),
        );
        assert_eq!(outcome.test_name, "March C-");
        assert_eq!(outcome.order_name, "word line after word line");
        assert_eq!(outcome.fault_name, "SAF1@0");
    }

    #[test]
    fn walk_reuse_with_scratch_memory_matches_the_one_shot_api() {
        let organization = org();
        let test = library::march_ss();
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        let mut scratch = GoodMemory::new(organization.capacity());
        for background in [false, true] {
            for factory in standard_fault_list(&organization) {
                let reused = simulate_fault_on_walk(
                    &walk,
                    &mut scratch,
                    factory(),
                    background,
                    DetectionMode::Full,
                );
                let one_shot = simulate_fault_with_background(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    factory(),
                    background,
                );
                assert_eq!(reused, one_shot, "background {background}");
            }
        }
    }

    #[test]
    fn first_mismatch_mode_agrees_on_detection_and_caps_the_count() {
        let organization = org();
        let test = library::march_c_minus();
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        let mut scratch = GoodMemory::new(organization.capacity());
        for factory in standard_fault_list(&organization) {
            let full =
                simulate_fault_on_walk(&walk, &mut scratch, factory(), false, DetectionMode::Full);
            let fast = simulate_fault_on_walk(
                &walk,
                &mut scratch,
                factory(),
                false,
                DetectionMode::FirstMismatch,
            );
            assert_eq!(full.detected, fast.detected, "{}", full.fault_name);
            assert_eq!(fast.mismatches, usize::from(fast.detected));
            assert!(fast.mismatches <= full.mismatches);
        }
    }

    #[test]
    fn non_initialising_tests_bypass_the_locality_fast_path() {
        // {⇑(r1)} reads before any write: on an all-0 background every
        // fault-free cell mismatches, so the seed semantics report
        // detected=true even for a fault whose victim reads "correctly".
        // The locality filter would only run the victim's steps (where the
        // IRF returns !0 = 1 and matches) and miss that — the walk must
        // mark itself unsafe and run unfiltered.
        use crate::algorithm::MarchTest;
        use crate::element::MarchElement;
        use crate::faults::IncorrectReadFault;
        use crate::operation::MarchOp;

        let organization = org();
        let test = MarchTest::new(
            "reads-first",
            vec![MarchElement::ascending(vec![MarchOp::R1])],
        );
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        assert!(!walk.locality_safe());
        let outcome = simulate_fault(
            &test,
            &WordLineAfterWordLine,
            &organization,
            Box::new(IncorrectReadFault::new(Address::new(3))),
        );
        assert!(outcome.detected, "fault-free mismatches must be preserved");
        assert_eq!(
            outcome.mismatches,
            organization.capacity() as usize - 1,
            "every cell but the (incorrectly matching) victim mismatches"
        );
        // Well-formed library tests keep the fast path.
        let safe = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        assert!(safe.locality_safe());
    }

    #[test]
    #[should_panic(expected = "capacity must match")]
    fn mismatched_scratch_capacity_is_rejected() {
        let organization = org();
        let walk = MarchWalk::new(&library::mats_plus(), &WordLineAfterWordLine, &organization);
        let mut scratch = GoodMemory::new(8);
        let _ = simulate_fault_on_walk(
            &walk,
            &mut scratch,
            Box::new(StuckAtFault::new(Address::new(0), true)),
            false,
            DetectionMode::Full,
        );
    }
}
