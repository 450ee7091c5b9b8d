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
//! Every sweep produces an [`InternedSweep`]; the [`CoverageReport`]
//! entry points ([`evaluate_coverage`], [`evaluate_coverage_with`],
//! [`evaluate_coverage_on_walk`]) are its
//! [`materialize`](InternedSweep::materialize)d form.

use std::collections::BTreeMap;

use sram_model::config::ArrayOrganization;

use crate::address_order::AddressOrder;
use crate::algorithm::MarchTest;
use crate::batch::sweep_collapsed;
use crate::executor::MarchWalk;
use crate::fault_sim::{DetectionMode, FaultSimOutcome};
use crate::faults::{Fault, FaultModel};
use crate::intern::{InternedSweep, OutcomeCode};
use crate::memory::GoodMemory;
use crate::parallel::{max_threads, par_chunk_map};
use crate::rng::Fnv1a;

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

/// Coverage of a March test over a fault list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// Name of the March test evaluated.
    pub test_name: String,
    /// Name of the address order used.
    pub order_name: String,
    /// Per-fault outcomes, in fault-list order.
    outcomes: Vec<FaultSimOutcome>,
    /// Number of detected faults, cached at construction.
    detected: usize,
}

impl CoverageReport {
    /// Builds a report from per-fault outcomes, caching the detection
    /// count so the accessors below are O(1).
    pub fn new(
        test_name: impl Into<String>,
        order_name: impl Into<String>,
        outcomes: Vec<FaultSimOutcome>,
    ) -> Self {
        let detected = outcomes.iter().filter(|o| o.detected).count();
        Self {
            test_name: test_name.into(),
            order_name: order_name.into(),
            outcomes,
            detected,
        }
    }

    /// Per-fault outcomes, in fault-list order.
    pub fn outcomes(&self) -> &[FaultSimOutcome] {
        &self.outcomes
    }

    /// Total number of faults simulated.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of detected faults (cached — no rescan).
    pub fn detected(&self) -> usize {
        self.detected
    }

    /// Fault coverage as a fraction in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.detected as f64 / self.total() as f64
    }

    /// The names of the faults this test detected (sorted), used to compare
    /// coverage sets across address orders. The names are borrowed from the
    /// report — no per-name allocation.
    pub fn detected_fault_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .outcomes
            .iter()
            .filter(|o| o.detected)
            .map(|o| o.fault_name.as_str())
            .collect();
        names.sort_unstable();
        names
    }

    /// Total read mismatches across every outcome.
    pub fn total_mismatches(&self) -> u64 {
        self.outcomes.iter().map(|o| o.mismatches as u64).sum()
    }

    /// A stable 64-bit digest of the whole report: test and order names
    /// plus every outcome's name, kind, detection bit and mismatch count,
    /// absorbed in fault-list order through [`Fnv1a`]. Two reports are
    /// digest-equal exactly when they would compare equal, so campaign
    /// journals can record (and later verify) a fixed-width fingerprint
    /// instead of megabytes of outcomes.
    pub fn digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.write(self.test_name.as_bytes());
        hasher.write_u8(0xFF);
        hasher.write(self.order_name.as_bytes());
        hasher.write_u8(0xFF);
        for outcome in &self.outcomes {
            hasher.write(outcome.fault_name.as_bytes());
            hasher.write_u8(0xFE);
            hasher.write(outcome.fault_kind.as_str().as_bytes());
            hasher.write_u8(u8::from(outcome.detected));
            hasher.write_u64(outcome.mismatches as u64);
        }
        hasher.finish()
    }

    /// Per-fault-kind `(detected, total)` counts.
    pub fn by_kind(&self) -> BTreeMap<String, (usize, usize)> {
        let mut map: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for outcome in &self.outcomes {
            let entry = map.entry(outcome.fault_kind.as_str()).or_insert((0, 0));
            entry.1 += 1;
            if outcome.detected {
                entry.0 += 1;
            }
        }
        map.into_iter()
            .map(|(kind, counts)| (kind.to_string(), counts))
            .collect()
    }
}

/// Simulates every fault in `faults` over a precomputed `walk` into the
/// string-bearing report: [`evaluate_coverage_interned_on_walk`],
/// materialized.
pub fn evaluate_coverage_on_walk(
    walk: &MarchWalk,
    faults: &[FaultModel],
    options: SweepOptions,
) -> CoverageReport {
    evaluate_coverage_interned_on_walk(walk, faults, options).materialize()
}

/// Simulates every fault in `faults` under `test`/`order` with explicit
/// sweep options, precomputing the walk once for the whole list:
/// [`evaluate_coverage_interned`], materialized.
pub fn evaluate_coverage_with(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    faults: &[FaultModel],
    options: SweepOptions,
) -> CoverageReport {
    evaluate_coverage_interned(test, order, organization, faults, options).materialize()
}

/// Simulates every fault in `faults` under `test`/`order` and aggregates
/// the outcomes (full mismatch counts, single-threaded, on the default
/// collapsed backend — report-identical to a serial per-fault sweep;
/// use [`evaluate_coverage_with`] and [`SweepOptions::fast`] for
/// throughput sweeps).
pub fn evaluate_coverage(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    faults: &[FaultModel],
) -> CoverageReport {
    evaluate_coverage_interned(test, order, organization, faults, SweepOptions::default())
        .materialize()
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
/// the report is digested, materialized or displayed.
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
    use crate::faults::{standard_fault_list, FaultKind};
    use crate::library;
    use sram_model::address::Address;
    use std::fmt;

    fn org() -> ArrayOrganization {
        ArrayOrganization::new(4, 4).unwrap()
    }

    #[test]
    fn march_ss_covers_more_than_mats_plus() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        let ss = evaluate_coverage(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        let mats = evaluate_coverage(
            &library::mats_plus(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        assert!(ss.coverage() > mats.coverage());
        assert!(ss.coverage() > 0.8, "March SS coverage {}", ss.coverage());
        assert_eq!(ss.total(), faults.len());
        assert!(ss.detected() <= ss.total());
    }

    #[test]
    fn stuck_at_faults_are_fully_covered_by_every_table1_algorithm() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let report = evaluate_coverage(&test, &WordLineAfterWordLine, &organization, &faults);
            let by_kind = report.by_kind();
            let (detected, total) = by_kind["SAF"];
            assert_eq!(detected, total, "{} must detect every SAF", test.name());
        }
    }

    #[test]
    fn report_accessors_are_consistent() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        let report = evaluate_coverage(
            &library::march_c_minus(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        assert_eq!(report.detected_fault_names().len(), report.detected());
        let kind_total: usize = report.by_kind().values().map(|(_, t)| t).sum();
        assert_eq!(kind_total, report.total());
        assert!(report.coverage() > 0.0 && report.coverage() <= 1.0);
        assert_eq!(report.test_name, "March C-");
        assert_eq!(report.outcomes().len(), report.total());
    }

    #[test]
    fn every_backend_and_threading_combination_yields_the_same_report() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                let reference = evaluate_coverage_with(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    &faults,
                    SweepOptions {
                        background: false,
                        mode,
                        parallel: false,
                        backend: SweepBackend::PerFault,
                    },
                );
                for backend in [SweepBackend::PerFault, SweepBackend::LaneBatched] {
                    for parallel in [false, true] {
                        let other = evaluate_coverage_with(
                            &test,
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
        use crate::fault_sim::simulate_fault_on_walk;

        // Report assembly checked against an independent reference: each
        // fault simulated on its own, its outcome built field by field,
        // and the report digested from those outcomes.
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                let mut scratch = GoodMemory::new(walk.capacity());
                let alone: Vec<FaultSimOutcome> = faults
                    .iter()
                    .map(|&fault| simulate_fault_on_walk(&walk, &mut scratch, fault, false, mode))
                    .collect();
                let reference = CoverageReport::new(walk.test_name(), walk.order_name(), alone);
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
                        let report = sweep.materialize();
                        for (index, (outcome, expected)) in report
                            .outcomes()
                            .iter()
                            .zip(reference.outcomes())
                            .enumerate()
                        {
                            assert_eq!(outcome, expected, "{context}: outcome {index}");
                        }
                        assert_eq!(report, reference, "{context}");
                        assert_eq!(sweep.digest(), reference.digest(), "{context}");
                        assert_eq!(sweep.detected(), reference.detected(), "{context}");
                        assert_eq!(
                            sweep.total_mismatches(),
                            reference.total_mismatches(),
                            "{context}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fast_sweep_detects_exactly_the_same_faults_as_the_golden_one() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let full = evaluate_coverage_with(
                &test,
                &WordLineAfterWordLine,
                &organization,
                &faults,
                SweepOptions::golden(),
            );
            let fast = evaluate_coverage_with(
                &test,
                &WordLineAfterWordLine,
                &organization,
                &faults,
                SweepOptions::fast(),
            );
            assert_eq!(
                full.detected_fault_names(),
                fast.detected_fault_names(),
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
        let golden = evaluate_coverage_with(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            &population,
            SweepOptions::golden(),
        );
        assert_eq!(golden.total(), population.len());
        assert!(golden.coverage() > 0.0);
        for parallel in [false, true] {
            let batched = evaluate_coverage_with(
                &library::march_ss(),
                &WordLineAfterWordLine,
                &organization,
                &population,
                SweepOptions {
                    background: false,
                    mode: DetectionMode::Full,
                    parallel,
                    backend: SweepBackend::LaneBatched,
                },
            );
            assert_eq!(golden, batched, "parallel={parallel}");
        }
    }

    #[test]
    fn report_digest_is_stable_and_discriminating() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        let a = evaluate_coverage(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        let b = evaluate_coverage(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        // Equal reports digest equally; a different algorithm (different
        // outcomes and test name) must diverge.
        assert_eq!(a.digest(), b.digest());
        let other = evaluate_coverage(
            &library::mats_plus(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        assert_ne!(a.digest(), other.digest());
        assert_eq!(
            a.total_mismatches(),
            a.outcomes()
                .iter()
                .map(|o| o.mismatches as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn caught_sweep_returns_the_report_on_success() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        let direct = evaluate_coverage(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        let caught = catch_sweep(|| {
            evaluate_coverage_interned(
                &library::march_ss(),
                &WordLineAfterWordLine,
                &organization,
                &faults,
                SweepOptions::default(),
            )
        })
        .expect("healthy sweep must not panic");
        assert_eq!(caught.digest(), direct.digest());
        assert_eq!(caught.materialize(), direct);
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
        let organization = org();
        let report = evaluate_coverage(
            &library::mats_plus(),
            &WordLineAfterWordLine,
            &organization,
            &[],
        );
        assert_eq!(report.total(), 0);
        assert_eq!(report.detected(), 0);
        assert_eq!(report.coverage(), 0.0);
    }
}
