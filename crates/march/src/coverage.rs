//! Fault-coverage evaluation over a fault list.
//!
//! [`evaluate_coverage_interned_on_walk`] is the sweep driver on top of
//! the executor kernel and the one body every coverage entry point runs:
//! it sweeps a precomputed [`MarchWalk`] per `(test, order,
//! organization)`, and — via [`SweepOptions`] — optionally stops each
//! simulation at the first mismatch and fans the per-fault work out
//! across threads. By default the sweep collapses the fault list into
//! equivalence classes ([`crate::batch`]) and simulates one
//! representative per class on a walk of at most five cells, with the
//! per-fault path kept as the golden reference
//! ([`SweepBackend::PerFault`]). Both backends, serial or parallel,
//! produce **identical** reports: outcomes are kept in fault-list order
//! regardless of scheduling.
//!
//! Every sweep produces one report shape, an [`InternedSweep`];
//! [`evaluate_coverage_interned`] builds the walk for a one-shot sweep.

use sram_model::config::ArrayOrganization;

use crate::address_order::AddressOrder;
use crate::algorithm::MarchTest;
use crate::batch::sweep_collapsed;
use crate::executor::MarchWalk;
use crate::fault_sim::DetectionMode;
use crate::faults::{Fault, FaultModel};
use crate::intern::{InternedSweep, OutcomeCode};
use crate::memory::GoodMemory;
use crate::parallel::{max_threads, par_chunk_map};

/// Which sweep engine simulates the fault list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepBackend {
    /// The collapsed backend ([`crate::batch`]): every fault joins the
    /// equivalence class of its model, parameters and cells' ⇑-position
    /// classes; one relocated representative per class runs on a
    /// canonical walk of at most five cells, and every member takes its
    /// count. Every fault of a walk that is not locality-safe runs the
    /// per-fault path. The name, the spec token `lane` and digest code 0
    /// predate the collapse. The default.
    #[default]
    LaneBatched,
    /// One filtered walk per fault — the golden reference path that
    /// batched sweeps are verified against.
    PerFault,
}

/// Tuning knobs of a coverage sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepOptions {
    /// Initial value of every cell before each simulation.
    pub background: bool,
    /// Detail recorded per fault: [`DetectionMode::Full`] counts every
    /// mismatch, [`DetectionMode::FirstMismatch`] stops at the first one.
    pub mode: DetectionMode,
    /// Fan the per-fault work out across threads in fault-list chunks:
    /// every fault under [`SweepBackend::PerFault`], and under
    /// [`SweepBackend::LaneBatched`] every fault of a walk that is not
    /// locality-safe — classes always run on the calling thread. The
    /// outcome order (and thus the whole report) is identical to a serial
    /// sweep.
    pub parallel: bool,
    /// The sweep engine; [`SweepBackend::LaneBatched`] by default.
    pub backend: SweepBackend,
}

impl SweepOptions {
    /// The throughput configuration for detection-only experiments:
    /// early-exit simulations on the collapsed backend, with whatever
    /// per-fault work remains spread across threads.
    pub fn fast() -> Self {
        Self {
            background: false,
            mode: DetectionMode::FirstMismatch,
            parallel: true,
            backend: SweepBackend::LaneBatched,
        }
    }

    /// The serial per-fault reference configuration: full mismatch
    /// counts, no batching, no threads — the golden path batched sweeps
    /// are tested (and benchmarked) against.
    pub fn golden() -> Self {
        Self {
            background: false,
            mode: DetectionMode::Full,
            parallel: false,
            backend: SweepBackend::PerFault,
        }
    }
}

/// A panic captured by [`catch_sweep`]: the payload rendered as a
/// string, so callers can journal, retry or quarantine the job without the
/// panic unwinding through their worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPanic {
    /// The panic payload (`&str`/`String` payloads verbatim, anything else
    /// as a placeholder).
    pub message: String,
}

impl std::fmt::Display for SweepPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep panicked: {}", self.message)
    }
}

impl std::error::Error for SweepPanic {}

/// Renders a caught panic payload as a string: `&str` and `String`
/// payloads verbatim (the overwhelmingly common case — `panic!` with a
/// message), anything else as a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-fault golden path over any [`Fault`] type: each fault
/// simulated alone on `walk` from its own copy, over a scratch memory
/// reused across a chunk of the list, with chunks fanned out across up to
/// `threads` pool workers. Returns each fault's mismatch count in list
/// order. Sweeps run it on [`FaultModel`] values; test fixtures that are
/// not in-crate models reach the golden path through it.
pub(crate) fn golden_counts<F: Fault + Clone + Sync>(
    walk: &MarchWalk,
    faults: &[F],
    background: bool,
    mode: DetectionMode,
    threads: usize,
) -> Vec<u32> {
    par_chunk_map(faults, threads, |chunk| {
        let mut scratch = GoodMemory::new(walk.capacity());
        chunk
            .iter()
            .map(|fault| {
                let mismatches =
                    fault
                        .clone()
                        .simulate_on_walk(walk, &mut scratch, background, mode);
                u32::try_from(mismatches).expect("mismatch counts fit u32")
            })
            .collect()
    })
}

/// Simulates every fault in `faults` over a precomputed `walk` — the
/// sweep driver, and the one body every coverage entry point runs.
///
/// Under the default [`SweepBackend::LaneBatched`] on a locality-safe
/// walk the list collapses into equivalence classes, each simulated once
/// on a canonical walk of at most five cells. Otherwise each fault runs
/// its own filtered walk ([`SweepBackend::PerFault`]) over a scratch
/// memory reused across a chunk of the list (threads take whole chunks
/// when `parallel` is set). Either way the report pairs each fault value
/// with its count in fault-list order, so every backend/threading
/// combination yields an identical report, and no name is rendered until
/// the report is digested or displayed.
pub fn evaluate_coverage_interned_on_walk(
    walk: &MarchWalk,
    faults: &[FaultModel],
    options: SweepOptions,
) -> InternedSweep {
    if options.backend == SweepBackend::LaneBatched && walk.locality_safe() {
        return sweep_collapsed(walk, faults, options.background, options.mode);
    }
    let threads = if options.parallel { max_threads() } else { 1 };
    let counts = golden_counts(walk, faults, options.background, options.mode, threads);
    assert_eq!(counts.len(), faults.len(), "per-fault chunks map 1:1");
    let codes = faults
        .iter()
        .zip(counts)
        .map(|(&fault, mismatches)| OutcomeCode { fault, mismatches })
        .collect();
    InternedSweep::new(walk.test_name(), walk.order_name(), codes)
}

/// Simulates every fault in `faults` under `test`/`order`, precomputing
/// the walk once for the whole list — [`evaluate_coverage_interned_on_walk`]
/// over a fresh walk.
pub fn evaluate_coverage_interned(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    faults: &[FaultModel],
    options: SweepOptions,
) -> InternedSweep {
    let walk = MarchWalk::new(test, order, organization);
    evaluate_coverage_interned_on_walk(&walk, faults, options)
}

/// The panic-safe job-level wrapper: runs `sweep` — typically one
/// [`evaluate_coverage_interned`] call — and catches a panic anywhere
/// inside it (a misbehaving fault model, an assertion in the kernel, a
/// panic on a pool worker), returning it as a [`SweepPanic`] instead of
/// unwinding into the caller. This is what lets a campaign worker pool
/// treat a panicking sweep as *one failed job* rather than a dead
/// campaign, and it is the wrapper campaign workers use.
///
/// A sweep mutates only state it owns (scratch memories, outcome
/// buffers), so a caught panic leaves no observable inconsistency behind;
/// `AssertUnwindSafe` is sound here.
pub fn catch_sweep<T>(sweep: impl FnOnce() -> T) -> Result<T, SweepPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(sweep)).map_err(|payload| SweepPanic {
        message: panic_message(&*payload),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_order::WordLineAfterWordLine;
    use crate::fault_sim::simulate_fault_counts_on_walk;
    use crate::faults::{standard_fault_list, FaultKind};
    use crate::library;
    use sram_model::address::Address;
    use std::fmt;

    fn org() -> ArrayOrganization {
        ArrayOrganization::new(4, 4).unwrap()
    }

    /// `test` over `faults` on the 4×4 array in word line order.
    fn sweep(test: &MarchTest, faults: &[FaultModel], options: SweepOptions) -> InternedSweep {
        evaluate_coverage_interned(test, &WordLineAfterWordLine, &org(), faults, options)
    }

    /// Each fault's detected bit, in fault-list order.
    fn detected_bits(report: &InternedSweep) -> Vec<bool> {
        report.codes().iter().map(OutcomeCode::detected).collect()
    }

    #[test]
    fn march_ss_covers_more_than_mats_plus() {
        let faults = standard_fault_list(&org());
        let ss = sweep(&library::march_ss(), &faults, SweepOptions::default());
        let mats = sweep(&library::mats_plus(), &faults, SweepOptions::default());
        assert!(ss.coverage() > mats.coverage());
        assert!(ss.coverage() > 0.8, "March SS coverage {}", ss.coverage());
        assert_eq!(ss.total(), faults.len());
        assert!(ss.detected() <= ss.total());
    }

    #[test]
    fn stuck_at_faults_are_fully_covered_by_every_table1_algorithm() {
        let faults = standard_fault_list(&org());
        for test in library::table1_algorithms() {
            let by_kind = sweep(&test, &faults, SweepOptions::default()).by_kind();
            let (detected, total) = by_kind["SAF"];
            assert_eq!(detected, total, "{} must detect every SAF", test.name());
        }
    }

    #[test]
    fn report_accessors_are_consistent() {
        let faults = standard_fault_list(&org());
        let report = sweep(&library::march_c_minus(), &faults, SweepOptions::default());
        let bits = detected_bits(&report);
        assert_eq!(bits.iter().filter(|&&bit| bit).count(), report.detected());
        let by_kind = report.by_kind();
        let kind_detected: usize = by_kind.values().map(|(d, _)| d).sum();
        let kind_total: usize = by_kind.values().map(|(_, t)| t).sum();
        assert_eq!(kind_detected, report.detected());
        assert_eq!(kind_total, report.total());
        assert!(report.coverage() > 0.0 && report.coverage() <= 1.0);
        assert_eq!(report.test_name(), "March C-");
        assert_eq!(report.codes().len(), report.total());
    }

    #[test]
    fn every_backend_and_threading_combination_yields_the_same_report() {
        let faults = standard_fault_list(&org());
        for test in library::table1_algorithms() {
            for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                let options = |backend, parallel| SweepOptions {
                    background: false,
                    mode,
                    parallel,
                    backend,
                };
                let reference = sweep(&test, &faults, options(SweepBackend::PerFault, false));
                for backend in [SweepBackend::PerFault, SweepBackend::LaneBatched] {
                    for parallel in [false, true] {
                        let other = sweep(&test, &faults, options(backend, parallel));
                        // Structural equality and byte-identical debug
                        // rendering: outcome order must be the fault-list
                        // order in every combination.
                        assert_eq!(
                            reference,
                            other,
                            "{} ({mode:?}, {backend:?}, parallel={parallel})",
                            test.name()
                        );
                        assert_eq!(
                            format!("{reference:?}"),
                            format!("{other:?}"),
                            "{} ({mode:?}, {backend:?}, parallel={parallel})",
                            test.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_outcome_equals_the_fault_simulated_alone() {
        // Report assembly checked against an independent reference: each
        // fault simulated on its own through the generic per-access
        // dispatch, and the report built from those counts.
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                let mut scratch = GoodMemory::new(walk.capacity());
                let alone: Vec<OutcomeCode> = faults
                    .iter()
                    .map(|&fault| {
                        let mut copy = fault;
                        let mismatches = simulate_fault_counts_on_walk(
                            &walk,
                            &mut scratch,
                            &mut copy,
                            false,
                            mode,
                        );
                        OutcomeCode {
                            fault,
                            mismatches: mismatches as u32,
                        }
                    })
                    .collect();
                let reference = InternedSweep::new(walk.test_name(), walk.order_name(), alone);
                for backend in [SweepBackend::PerFault, SweepBackend::LaneBatched] {
                    for parallel in [false, true] {
                        let options = SweepOptions {
                            background: false,
                            mode,
                            parallel,
                            backend,
                        };
                        let sweep = evaluate_coverage_interned_on_walk(&walk, &faults, options);
                        let context = format!(
                            "{} ({mode:?}, {backend:?}, parallel={parallel})",
                            test.name()
                        );
                        for (index, (code, expected)) in
                            sweep.codes().iter().zip(reference.codes()).enumerate()
                        {
                            assert_eq!(code, expected, "{context}: outcome {index}");
                        }
                        assert_eq!(sweep, reference, "{context}");
                        assert_eq!(sweep.digest(), reference.digest(), "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_sweep_detects_exactly_the_same_faults_as_the_golden_one() {
        let faults = standard_fault_list(&org());
        for test in library::table1_algorithms() {
            let full = sweep(&test, &faults, SweepOptions::golden());
            let fast = sweep(&test, &faults, SweepOptions::fast());
            assert_eq!(
                detected_bits(&full),
                detected_bits(&fast),
                "{}",
                test.name()
            );
            assert_eq!(full.coverage(), fast.coverage(), "{}", test.name());
        }
    }

    #[test]
    fn generated_populations_flow_through_every_backend_identically() {
        use crate::faultgen::FaultGen;

        // A dense generated population (mixed kinds, shuffled) must sweep
        // through the collapsed backend exactly like the per-fault golden
        // path — the report is the contract, whatever the fault source.
        let organization = ArrayOrganization::new(8, 8).unwrap();
        let population = FaultGen::new(organization, 0xD15E).dense_profile(300);
        assert!(population.len() >= 300);
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let golden = evaluate_coverage_interned_on_walk(&walk, &population, SweepOptions::golden());
        assert_eq!(golden.total(), population.len());
        assert!(golden.coverage() > 0.0);
        for parallel in [false, true] {
            let batched = evaluate_coverage_interned_on_walk(
                &walk,
                &population,
                SweepOptions {
                    parallel,
                    ..SweepOptions::default()
                },
            );
            assert_eq!(golden, batched, "parallel={parallel}");
        }
    }

    #[test]
    fn report_digest_is_stable_and_discriminating() {
        let faults = standard_fault_list(&org());
        let a = sweep(&library::march_ss(), &faults, SweepOptions::default());
        let b = sweep(&library::march_ss(), &faults, SweepOptions::default());
        // Equal reports digest equally; a different algorithm (different
        // outcomes and test name) must diverge.
        assert_eq!(a.digest(), b.digest());
        let other = sweep(&library::mats_plus(), &faults, SweepOptions::default());
        assert_ne!(a.digest(), other.digest());
        assert_eq!(
            a.total_mismatches(),
            a.codes()
                .iter()
                .map(|code| u64::from(code.mismatches))
                .sum::<u64>()
        );
    }

    #[test]
    fn caught_sweep_returns_the_report_on_success() {
        let faults = standard_fault_list(&org());
        let direct = sweep(&library::march_ss(), &faults, SweepOptions::default());
        let caught = catch_sweep(|| sweep(&library::march_ss(), &faults, SweepOptions::default()))
            .expect("healthy sweep must not panic");
        assert_eq!(caught, direct);
    }

    /// A fault model that panics on its first read when armed and
    /// behaves fault-free otherwise. It is no in-crate model, so it
    /// reaches the golden path through [`golden_counts`].
    #[derive(Debug, Clone, Copy)]
    struct ExplodingFault {
        armed: bool,
    }

    impl fmt::Display for ExplodingFault {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("EXPLODE@0")
        }
    }

    impl Fault for ExplodingFault {
        fn kind(&self) -> FaultKind {
            FaultKind::StuckAt
        }
        fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
            memory.set(address, value);
        }
        fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
            assert!(!self.armed, "faultpoint: exploding fault model");
            memory.get(address)
        }
        fn involved_addresses(&self) -> Option<Vec<Address>> {
            Some(vec![Address::new(0)])
        }
    }

    #[test]
    fn caught_sweep_reports_a_panicking_fault_model_as_an_error() {
        // The wrapper must catch the panic and surface the payload message.
        let organization = org();
        let walk = MarchWalk::new(&library::mats_plus(), &WordLineAfterWordLine, &organization);
        let faults = [ExplodingFault { armed: true }];
        let error = catch_sweep(|| golden_counts(&walk, &faults, false, DetectionMode::Full, 1))
            .expect_err("the exploding model must surface as SweepPanic");
        assert!(
            error.message.contains("exploding fault model"),
            "payload lost: {error}"
        );
        assert!(error.to_string().starts_with("sweep panicked:"));
    }

    #[test]
    fn caught_sweep_catches_a_panic_on_a_pool_worker() {
        // One armed model amid healthy ones, on a pool worker: its panic
        // must cross the pool and surface as a SweepPanic.
        let organization = ArrayOrganization::new(8, 8).unwrap();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let faults: Vec<ExplodingFault> = (0..64)
            .map(|index| ExplodingFault { armed: index == 17 })
            .collect();
        let error =
            catch_sweep(|| golden_counts(&walk, &faults, false, DetectionMode::FirstMismatch, 8))
                .expect_err("the exploding model must surface as SweepPanic");
        // A worker's panic reaches the caller through the pool's scope,
        // which may replace the payload with its own message.
        assert!(error.to_string().starts_with("sweep panicked:"), "{error}");
        let healthy: Vec<ExplodingFault> =
            (0..64).map(|_| ExplodingFault { armed: false }).collect();
        let counts =
            catch_sweep(|| golden_counts(&walk, &healthy, false, DetectionMode::FirstMismatch, 8))
                .expect("disarmed models sweep cleanly");
        assert_eq!(counts, vec![0; 64]);
    }

    #[test]
    fn empty_fault_list_yields_zero_coverage() {
        let report = sweep(&library::mats_plus(), &[], SweepOptions::default());
        assert_eq!(report.total(), 0);
        assert_eq!(report.detected(), 0);
        assert_eq!(report.coverage(), 0.0);
    }
}
