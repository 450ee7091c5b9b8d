//! March memory-test engine.
//!
//! March tests are the de-facto standard algorithms for testing random
//! access memories: a *March test* is a sequence of *March elements*, each
//! of which applies a short sequence of read/write operations to every cell
//! of the memory in a prescribed address order. This crate provides:
//!
//! * the test description types ([`operation::MarchOp`],
//!   [`element::MarchElement`], [`algorithm::MarchTest`]) and a
//!   [`library`] of the published algorithms used by the paper's Table 1
//!   (MATS+, March C-, March SS, March SR, March G) plus several other
//!   classics,
//! * [`address_order`] implementations of the first March degree of
//!   freedom: the *word-line-after-word-line* (row-major) order exploited
//!   by the paper, the column-major order, plain linear order and a seeded
//!   pseudo-random permutation,
//! * a behavioural [`memory`] model and a library of functional
//!   [`faults`] (stuck-at, transition, coupling, read-destructive,
//!   stuck-open, write-disturb, address-decoder, …),
//! * the [`executor`] that applies a March test to any memory model, and
//!   the [`fault_sim`]/[`coverage`] layers that measure which faults each
//!   algorithm detects — used to demonstrate that fixing the address order
//!   (the paper's prerequisite) does not change fault coverage
//!   ([`dof`]).
//!
//! # The fault-simulation kernel
//!
//! Coverage and degree-of-freedom experiments exhaustively simulate a
//! fault list under every March test × address order × array size — an
//! `O(faults × operations)` workload that dominates the repo's runtime.
//! The hot path is organised as a measured kernel with five ingredients:
//!
//! 1. **Walk caching** ([`executor::MarchWalk`], [`executor::AddressPlan`])
//!    — the `(test, order, organization)` traversal is built once and
//!    shared, read-only, across every fault of a sweep. It is implicit:
//!    the ⇑ address permutation, materialised once, serves ⇓ by index
//!    arithmetic, its inverse finds any address's position in `O(1)`, and
//!    two rows of code bytes per element complete every step — eight
//!    bytes per cell whatever the test's length, built in `O(cells)`.
//!    Nothing allocates per fault.
//! 2. **Bit-packed memory** ([`memory::GoodMemory`]) — cells live in
//!    `u64` words (64 per word) and [`memory::GoodMemory::fill`] resets the
//!    array with a few word stores, so one scratch allocation serves an
//!    entire fault list.
//! 3. **Early exit** ([`executor::run_march_until_detected`],
//!    [`fault_sim::DetectionMode::FirstMismatch`]) — sweeps that only need
//!    the detected/missed bit stop each simulation at the first
//!    mismatching read instead of finishing the walk.
//! 4. **Faults as values, collapsed** ([`faults::FaultModel`], [`batch`],
//!    [`batch::FaultBatch`]) — a fault list is a `Vec` of `Copy` values of
//!    at most 32 bytes, so nothing is built or named per fault before or
//!    during a sweep. Under a locality-safe walk a fault's mismatch count
//!    depends only on its model and parameters and on whether each of its
//!    cells is the first, a middle or the last in ⇑ order, so equivalent
//!    faults form one class keyed by an integer read off the value; one
//!    relocated representative per class runs the per-fault path on a
//!    canonical walk of at most five cells, and every member takes its
//!    count. A 100k-fault sweep simulates a few dozen classes, and every
//!    sweep assembles one report shape, [`intern::InternedSweep`], which
//!    keeps the values and renders names only when asked. Coverage sweeps
//!    collapse by default and keep the per-fault path as the golden
//!    reference.
//! 5. **Parallel per-fault sweeps** ([`coverage::SweepOptions`],
//!    [`parallel`]) — the per-fault path fans out across the worker pool
//!    through one order-preserving, load-balanced chunk map, with
//!    outcomes reassembled in fault-list order so parallel reports are
//!    byte-identical to serial ones.
//!
//! The `bench` crate's `fault_sim_throughput` benchmark measures the
//! kernel in faults/second against a frozen replica of the original
//! (per-fault allocating, always-full-walk, serial) implementation, and
//! the collapsed backend against the per-fault kernel.
//!
//! # Example
//!
//! ```
//! use march_test::prelude::*;
//! use sram_model::config::ArrayOrganization;
//!
//! let organization = ArrayOrganization::new(8, 8)?;
//! let test = library::march_c_minus();
//! assert_eq!(test.operation_count(), 10);
//!
//! // Run it on a fault-free memory: no failures.
//! let order = WordLineAfterWordLine;
//! let mut memory = GoodMemory::new(organization.capacity());
//! let result = run_march(&test, &order, &organization, &mut memory);
//! assert!(result.passed());
//!
//! // Sweep a fault list with the shared-walk kernel: early-exit
//! // detection, one simulation per equivalence class.
//! let faults = standard_fault_list(&organization);
//! let report = evaluate_coverage_with(
//!     &test,
//!     &order,
//!     &organization,
//!     &faults,
//!     SweepOptions::fast(),
//! );
//! assert!(report.coverage() > 0.5);
//! # Ok::<(), sram_model::error::SramError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address_order;
pub mod algorithm;
pub mod background;
pub mod batch;
pub mod coverage;
pub mod dof;
pub mod element;
pub mod executor;
pub mod fault_sim;
pub mod faultgen;
pub mod faults;
pub mod intern;
pub mod library;
pub mod memory;
pub mod operation;
pub mod parallel;
pub mod rng;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::address_order::{
        order_by_name, AddressOrder, ColumnMajor, PseudoRandomOrder, WordLineAfterWordLine,
    };
    pub use crate::algorithm::MarchTest;
    pub use crate::background::DataBackground;
    pub use crate::batch::{Cohort, FaultBatch};
    pub use crate::coverage::{
        catch_sweep, evaluate_coverage, evaluate_coverage_on_walk, evaluate_coverage_with,
        panic_message, CoverageReport, SweepBackend, SweepOptions, SweepPanic,
    };
    pub use crate::element::{AddressDirection, MarchElement};
    pub use crate::executor::{
        run_march, run_march_until_detected, run_march_walk, AddressPlan, MarchResult, MarchStep,
        MarchWalk,
    };
    pub use crate::fault_sim::{
        simulate_fault, simulate_fault_on_walk, DetectionMode, FaultSimOutcome,
    };
    pub use crate::faultgen::{FaultGen, FaultGenError, FaultPopulation};
    pub use crate::faults::{standard_fault_list, Fault, FaultModel};
    pub use crate::library;
    pub use crate::library::algorithm_by_name;
    pub use crate::memory::{GoodMemory, MemoryModel};
    pub use crate::operation::MarchOp;
    pub use crate::rng::{Fnv1a, SplitMix64};
}
