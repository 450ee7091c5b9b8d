//! Single-fault simulation.
//!
//! [`simulate_fault`] injects one fault into an otherwise fault-free
//! memory, runs a March test over it under a given address order and
//! returns the number of read mismatches: the fault is detected exactly
//! when it is non-zero. This is the primitive underneath the
//! [`coverage`](crate::coverage) and [`dof`](crate::dof) experiments.
//!
//! Sweeps over many faults precompute one [`MarchWalk`] and call
//! [`simulate_fault_counts_on_walk`] with a reused scratch [`GoodMemory`]:
//! the walk is shared read-only across the whole fault list (and across
//! threads) and the scratch memory is refilled instead of reallocated,
//! so the per-fault cost is exactly one kernel scan. The simulation runs
//! on the fault in place, so a sweep copies each `Copy` fault value
//! ([`crate::faults::FaultModel`]) into it and boxes nothing. Coverage
//! sweeps go one step further through the collapsed backend
//! ([`crate::batch`]), which runs this path — the golden reference — once
//! per fault equivalence class, on a canonical walk of at most five
//! cells, and alone for every fault of a walk it cannot classify on. A
//! localised fault is filtered down to the steps touching its involved
//! cells, which the implicit [`MarchWalk`] finds at one permutation
//! position per element.

use sram_model::config::ArrayOrganization;

use crate::address_order::AddressOrder;
use crate::algorithm::MarchTest;
use crate::executor::{
    run_march_until_detected, run_march_until_detected_filtered, run_march_walk,
    run_march_walk_filtered, MarchWalk,
};
use crate::faults::Fault;
use crate::memory::{GoodMemory, MemoryModel};

/// How much detail a fault simulation records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectionMode {
    /// Run the full walk and count every read mismatch.
    #[default]
    Full,
    /// Stop at the first mismatching read — the fast mode for coverage and
    /// degree-of-freedom sweeps, where only the detected/missed bit
    /// matters. The mismatch count is `1` for a detected fault and `0`
    /// otherwise.
    FirstMismatch,
}

/// A fault-free scratch memory borrowed by one fault for one run.
///
/// [`crate::faults::FaultyMemory`] owns its base memory; sweeps instead
/// keep one [`GoodMemory`] alive across the whole fault list and lend it
/// to each fault through this adapter, so no allocation happens per fault.
struct BorrowedFaultyMemory<'a, F: ?Sized> {
    base: &'a mut GoodMemory,
    fault: &'a mut F,
}

impl<F: Fault + ?Sized> MemoryModel for BorrowedFaultyMemory<'_, F> {
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
/// injected fault — the per-fault golden path — and returns the mismatch
/// count, so the fault is detected exactly when it is non-zero.
///
/// `scratch` must have the walk's capacity; it is reset to `background`
/// before the run, so the same allocation can serve an entire sweep. The
/// simulation runs on `fault` in place. The coverage sweeps
/// ([`crate::coverage::evaluate_coverage_interned_on_walk`]) run a copy
/// of each fault value through it, by [`Fault::simulate_on_walk`].
pub fn simulate_fault_counts_on_walk<F: Fault + ?Sized>(
    walk: &MarchWalk,
    scratch: &mut GoodMemory,
    fault: &mut F,
    background: bool,
    mode: DetectionMode,
) -> usize {
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
    match (mode, involved) {
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
    }
}

/// Runs `test` over a memory containing exactly one injected fault, with
/// every cell initialised to `background` before the test starts, and
/// returns the number of read mismatches (every one counted). Detection
/// of some faults (e.g. write-disturb faults triggered by the very first
/// initialising write) depends on the pre-test contents, which is why the
/// background is exposed.
pub fn simulate_fault<F: Fault>(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    mut fault: F,
    background: bool,
) -> usize {
    let walk = MarchWalk::new(test, order, organization);
    let mut scratch = GoodMemory::new(organization.capacity());
    fault.simulate_on_walk(&walk, &mut scratch, background, DetectionMode::Full)
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
            let mismatches = simulate_fault(
                &library::mats_plus(),
                &WordLineAfterWordLine,
                &organization,
                StuckAtFault::new(Address::new(7), value),
                false,
            );
            assert!(mismatches > 0, "MATS+ must detect SAF{}", u8::from(value));
        }
    }

    #[test]
    fn march_c_minus_detects_transition_faults() {
        let organization = org();
        for rising in [false, true] {
            let mismatches = simulate_fault(
                &library::march_c_minus(),
                &WordLineAfterWordLine,
                &organization,
                TransitionFault::new(Address::new(9), rising),
                false,
            );
            assert!(mismatches > 0, "March C- must detect TF (rising={rising})");
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
        let missed = simulate_fault(
            &library::mats_plus(),
            &WordLineAfterWordLine,
            &organization,
            WriteDisturbFault::new(victim),
            true,
        );
        assert_eq!(
            missed, 0,
            "MATS+ applies no non-transition write followed by a read"
        );
        let caught = simulate_fault(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            WriteDisturbFault::new(victim),
            true,
        );
        assert!(caught > 0, "March SS detects WDF");
    }

    #[test]
    fn deceptive_read_destructive_needs_read_after_read() {
        let organization = org();
        let victim = Address::new(3);
        let missed = simulate_fault(
            &library::mats_plus(),
            &WordLineAfterWordLine,
            &organization,
            DeceptiveReadDestructiveFault::new(victim),
            false,
        );
        assert_eq!(missed, 0, "MATS+ has no back-to-back reads");
        let caught = simulate_fault(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            DeceptiveReadDestructiveFault::new(victim),
            false,
        );
        assert!(caught > 0, "March SS has r,r pairs and detects DRDF");
    }

    #[test]
    fn walk_reuse_with_scratch_memory_matches_the_one_shot_api() {
        let organization = org();
        let test = library::march_ss();
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        let mut scratch = GoodMemory::new(organization.capacity());
        for background in [false, true] {
            for mut fault in standard_fault_list(&organization) {
                let one_shot = simulate_fault(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    fault,
                    background,
                );
                let reused = simulate_fault_counts_on_walk(
                    &walk,
                    &mut scratch,
                    &mut fault,
                    background,
                    DetectionMode::Full,
                );
                assert_eq!(reused, one_shot, "{fault} / background {background}");
            }
        }
    }

    #[test]
    fn first_mismatch_mode_agrees_on_detection_and_caps_the_count() {
        let organization = org();
        let test = library::march_c_minus();
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        let mut scratch = GoodMemory::new(organization.capacity());
        for fault in standard_fault_list(&organization) {
            let mut run = |mode| {
                let mut fault = fault;
                simulate_fault_counts_on_walk(&walk, &mut scratch, &mut fault, false, mode)
            };
            let full = run(DetectionMode::Full);
            let fast = run(DetectionMode::FirstMismatch);
            assert_eq!(fast, usize::from(full > 0), "{fault}");
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
        let mismatches = simulate_fault(
            &test,
            &WordLineAfterWordLine,
            &organization,
            IncorrectReadFault::new(Address::new(3)),
            false,
        );
        assert_eq!(
            mismatches,
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
        let _ = simulate_fault_counts_on_walk(
            &walk,
            &mut scratch,
            &mut StuckAtFault::new(Address::new(0), true),
            false,
            DetectionMode::Full,
        );
    }
}
